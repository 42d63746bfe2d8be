"""One certify point: every layer refuses an unconverged root set.

The zeros and the critical points of f feed every comparison the lab
makes, so a ``crit=`` handed to a layer function is checked like a
solved one, and attached zeros are used as given instead of re-solved.
"""

import numpy as np
import pytest

from sendovlab import (
    Polynomial,
    check_matching_mean,
    critical_points,
    degot_suite,
    from_roots,
    gauss_lucas_check,
    quantitative_zetas,
    random_instance,
    second_moment_test,
    select_radius,
    sendov_margin,
    verify_basic_identities,
    zero_pole_count,
)
from sendovlab import cli, rootfind

LAYERS = {
    "sendov_margin": lambda inst, crit: sendov_margin(inst, crit=crit),
    "gauss_lucas_check": lambda inst, crit: gauss_lucas_check(inst.f, crit=crit),
    "degot_suite": lambda inst, crit: degot_suite(inst, [inst.a / 2], crit=crit),
    "check_matching_mean": lambda inst, crit: check_matching_mean(inst.f, crit=crit),
    "quantitative_zetas": lambda inst, crit: quantitative_zetas(inst, crit=crit),
    "verify_basic_identities": lambda inst, crit: verify_basic_identities(
        inst.f, [2.0 + 0j], crit=crit
    ),
    "select_radius": lambda inst, crit: select_radius(inst.f, 0.2, 0.4, crit=crit),
    "zero_pole_count": lambda inst, crit: zero_pole_count(inst.f, 0.5, crit=crit),
    "second_moment_test": lambda inst, crit: second_moment_test(inst, crit=crit),
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_unconverged_crit_argument_raises(layer):
    inst = random_instance(np.random.default_rng(3), 10)
    crit = critical_points(inst.f, max_iter=1)
    assert not crit.converged
    with pytest.raises(RuntimeError, match="critical point"):
        LAYERS[layer](inst, crit)


def test_certified_passes_converged_sets_through():
    inst = random_instance(np.random.default_rng(3), 10)
    crit = critical_points(inst.f)
    assert rootfind.certified(crit) is crit
    assert rootfind.certified_crit(inst.f, crit) is crit
    assert rootfind.zeros_of(inst.f) is inst.f.roots


MILLER_64 = {"kind": "miller", "n": 64, "c1": 1.0, "c2": 2.0, "lambdas": [[0.3, 0.8]]}


def _count_solves(monkeypatch):
    """A list that records the shape of every coefficient batch the Aberth solver gets."""
    solves = []
    aberth = rootfind._aberth

    def counting(*args, **kwargs):
        solves.append(args[0].shape)
        return aberth(*args, **kwargs)

    monkeypatch.setattr(rootfind, "_aberth", counting)
    return solves


@pytest.mark.parametrize(
    "instance",
    [{"random": {"count": 1, "degree": 12}}, {"family": {"kind": "origin", "n": 40}}],
    ids=["random-12", "origin-40"],
)
def test_winding_solves_once_on_attached_roots(monkeypatch, instance):
    solves = _count_solves(monkeypatch)
    cfg = cli.ExperimentConfig(command="winding", instance=instance, options={}, seed=0)
    assert cli.run(cfg).ok
    # only the critical points are solved; the attached zeros are used as given
    assert len(solves) == 1


@pytest.mark.parametrize("command", ["check", "identities"])
def test_miller_zeros_solved_once_per_record(monkeypatch, command):
    solves = _count_solves(monkeypatch)
    cfg = cli.ExperimentConfig(command=command, instance={"family": MILLER_64}, options={}, seed=0)
    cli.run(cfg)
    # the family carries its critical points but no zeros: the runner
    # solves the degree-64 zeros once and hands them to the layer function
    assert solves.count((1, 65)) == 1


def test_fourier_solves_no_critical_points(monkeypatch):
    solves = _count_solves(monkeypatch)
    instance = {"family": MILLER_64}
    cfg = cli.ExperimentConfig(command="fourier", instance=instance, options={"R": 1.2}, seed=0)
    assert cli.run(cfg).ok
    # fourier reads only the zeros: the degree-64 zeros are solved once,
    # and the family's critical points are neither built nor solved
    assert solves == [(1, 65)]


def _check_random(count, degree):
    instance = {"random": {"count": count, "degree": degree}}
    return cli.ExperimentConfig(command="check", instance=instance, options={}, seed=0)


def test_random_record_solves_its_critical_points_in_one_batch(monkeypatch):
    solves = _count_solves(monkeypatch)
    assert cli.run(_check_random(64, 24)).ok
    # the zeros are attached; the 64 derivatives of degree 23 are one batch
    assert solves == [(64, 24)]


def test_one_unconverged_batch_row_fails_the_record(monkeypatch):
    aberth = rootfind._aberth

    def one_row_stuck(coeffs, tol, max_iter):
        pts, res, iterations = aberth(coeffs, tol, max_iter)
        res[5, 0] = 10 * tol
        return pts, res, iterations

    monkeypatch.setattr(rootfind, "_aberth", one_row_stuck)
    polys = [from_roots(np.exp(2j * np.pi * (np.arange(4) + 0.1 * s) / 4)) for s in range(8)]
    flags = [rs.converged for rs in rootfind.find_roots_many(polys)]
    assert flags == [i != 5 for i in range(8)]
    with pytest.raises(RuntimeError, match="critical point"):
        cli.run(_check_random(8, 12))


def test_foreign_roots_are_still_checked():
    p = from_roots([0.5, -0.25j, 0.1 + 0.7j])
    wrong = [0.5, -0.25j, 0.1 - 0.7j]
    with pytest.raises(ValueError, match="reproduce"):
        Polynomial(p.coeffs, wrong)
    with pytest.raises(ValueError, match="reproduce"):
        Polynomial(p.coeffs, np.array(wrong))
