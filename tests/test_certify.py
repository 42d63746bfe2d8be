"""One certify point: every layer refuses an unconverged root set.

The zeros and the critical points of f feed every comparison the lab
makes, so a ``crit=`` handed to a layer function is checked like a
solved one, and attached zeros are used as given instead of re-solved.
"""

import numpy as np
import pytest

from sendovlab import (
    check_matching_mean,
    critical_points,
    degot_suite,
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


@pytest.mark.parametrize(
    "instance",
    [{"random": {"count": 1, "degree": 12}}, {"family": {"kind": "origin", "n": 40}}],
    ids=["random-12", "origin-40"],
)
def test_winding_solves_once_on_attached_roots(monkeypatch, instance):
    solves = []
    aberth = rootfind._aberth

    def counting(*args, **kwargs):
        solves.append(args[0].shape)
        return aberth(*args, **kwargs)

    monkeypatch.setattr(rootfind, "_aberth", counting)
    cfg = cli.ExperimentConfig(command="winding", instance=instance, options={}, seed=0)
    assert cli.run(cfg).ok
    # only the critical points are solved; the attached zeros are used as given
    assert len(solves) == 1


@pytest.mark.parametrize("command", ["check", "identities"])
def test_miller_zeros_solved_once_per_record(monkeypatch, command):
    solves = []
    aberth = rootfind._aberth

    def counting(*args, **kwargs):
        solves.append(args[0].shape)
        return aberth(*args, **kwargs)

    monkeypatch.setattr(rootfind, "_aberth", counting)
    family = {"kind": "miller", "n": 64, "c1": 1.0, "c2": 2.0, "lambdas": [[0.3, 0.8]]}
    cfg = cli.ExperimentConfig(command=command, instance={"family": family}, options={}, seed=0)
    cli.run(cfg)
    # the family carries its critical points but no zeros: the runner
    # solves the degree-64 zeros once and hands them to the layer function
    assert solves.count((1, 65)) == 1
