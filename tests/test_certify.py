"""One certify point: every layer refuses an uncertified root set.

The zeros and the critical points of f feed every comparison the lab
makes, so each layer takes them as root sets and checks them itself,
and attached zeros are not solved again but checked with the same
backward error as a solve, at every degree.
"""

import inspect
import json

import mpmath
import numpy as np
import pytest

from sendovlab import (
    Polynomial,
    check_matching_mean,
    critical_points,
    degot_suite,
    derivative,
    example_circle,
    example_origin,
    from_roots,
    integrated_log_derivative,
    quantitative_zetas,
    random_instances,
    select_radius,
    sendov_margin,
    verify_basic_identities,
    zero_pole_count,
)
from sendovlab import cli, rootfind

# Every layer function that reads root sets, with its other arguments
# for an instance; its root-set parameters are named zeros and crit.
LAYERS = {
    "check_matching_mean": (check_matching_mean, lambda inst: {}),
    "degot_suite": (degot_suite, lambda inst: {"inst": inst, "deltas": [inst.a / 2]}),
    "integrated_log_derivative": (
        integrated_log_derivative,
        lambda inst: {"p": inst.f, "contour": [2.0, 3.0]},
    ),
    "quantitative_zetas": (quantitative_zetas, lambda inst: {"inst": inst}),
    "select_radius": (select_radius, lambda inst: {"r1": 0.2, "r2": 0.4}),
    "sendov_margin": (sendov_margin, lambda inst: {}),
    "verify_basic_identities": (
        verify_basic_identities,
        lambda inst: {"f": inst.f, "zs": [2.0 + 0j]},
    ),
    "zero_pole_count": (zero_pole_count, lambda inst: {"r": 0.5}),
}


def _taking(argument):
    """The layers with a root-set parameter of this name."""
    return [
        name for name, (fn, _) in LAYERS.items() if argument in inspect.signature(fn).parameters
    ]


def test_every_layer_takes_a_root_set():
    assert len(_taking("zeros")) == len(_taking("crit")) == 7
    assert set(_taking("zeros")) | set(_taking("crit")) == set(LAYERS)


def _refuses_unconverged(layer, argument, what):
    fn, others = LAYERS[layer]
    inst = random_instances(np.random.default_rng(3), 10, 1)[0]
    sets = dict(zip(("zeros", "crit"), rootfind.zero_sets([inst.f, derivative(inst.f)])))
    params = inspect.signature(fn).parameters
    kwargs = {**others(inst), **{k: v for k, v in sets.items() if k in params}}
    fn(**kwargs)  # certified sets pass
    good = kwargs[argument]
    kwargs[argument] = rootfind.RootSet(good.points, good.residuals, False, 1)
    with pytest.raises(RuntimeError, match=f"^{what} finding did not converge"):
        fn(**kwargs)


@pytest.mark.parametrize("layer", _taking("crit"))
def test_unconverged_crit_argument_raises(layer):
    _refuses_unconverged(layer, "crit", "critical point")


@pytest.mark.parametrize("layer", _taking("zeros"))
def test_unconverged_zeros_argument_raises(layer):
    _refuses_unconverged(layer, "zeros", "zero")


def test_certified_passes_converged_sets_through():
    inst = random_instances(np.random.default_rng(3), 10, 1)[0]
    crit = critical_points([inst.f])[0]
    assert rootfind.certified(crit) is crit
    assert rootfind.certified(crit, "critical point") is crit
    assert rootfind.certified(rootfind.zero_sets([inst.f])[0]).points is inst.f.roots


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
    "instance, count",
    [({"random": {"count": 1, "degree": 12}}, 1), ({"family": {"kind": "origin", "n": 40}}, 0)],
    ids=["random-12", "origin-40"],
)
def test_winding_solves_once_on_attached_roots(monkeypatch, instance, count):
    solves = _count_solves(monkeypatch)
    cfg = cli.ExperimentConfig(command="winding", instance=instance, options={}, seed=0)
    assert cli.run(cfg).ok
    # the attached zeros are used as given; a random instance's critical
    # points are solved, those of z^n - z are attached in closed form
    assert len(solves) == count


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

    def one_row_stuck(coeffs, start=None):
        pts, res, iterations = aberth(coeffs, start)
        res[5, 0] = 10 * rootfind._TOL
        return pts, res, iterations

    monkeypatch.setattr(rootfind, "_aberth", one_row_stuck)
    roots = [np.exp(2j * np.pi * (np.arange(4) + 0.1 * s) / 4) for s in range(8)]
    polys = [Polynomial(from_roots(r).coeffs) for r in roots]
    flags = [rs.converged for rs in rootfind.zero_sets(polys)]
    assert flags == [i != 5 for i in range(8)]
    with pytest.raises(RuntimeError, match="critical point"):
        cli.run(_check_random(8, 12))


def test_foreign_roots_are_still_checked():
    # construction stores any roots of the right count; the certificate
    # refuses foreign ones where they are used, as a list or an array
    p = from_roots([0.5, -0.25j, 0.1 + 0.7j])
    wrong = [0.5, -0.25j, 0.1 - 0.7j]
    for roots in (wrong, np.array(wrong)):
        with pytest.raises(RuntimeError, match="certificate"):
            rootfind.certified(rootfind.zero_sets([Polynomial(p.coeffs, roots)])[0])


def _uniform_1024(seed):
    """from_roots of 1024 points uniform in |z| < 0.9."""
    rng = np.random.default_rng(seed)
    r, t = np.sqrt(rng.uniform(0, 1, 1024)), rng.uniform(0, 2 * np.pi, 1024)
    return from_roots(0.9 * r * np.exp(1j * t))


# Attached zero sets and their largest backward errors as measured with
# the evaluator that certifies a solve; each must pass its certificate,
# and its largest error stays within 1.5 times the measured one.
ATTACHED = {
    "circle-128": (lambda: example_circle(128).f, 4.3e-14),
    "circle-1000": (lambda: example_circle(1000).f, 4.3e-13),
    "circle-4096": (lambda: example_circle(4096).f, 1.44e-12),
    "origin-1024": (lambda: example_origin(1024).f, 5.41e-13),
    "random-24": (lambda: random_instances(np.random.default_rng(1), 24, 1)[0].f, 4.3e-16),
    "random-256": (lambda: random_instances(np.random.default_rng(1), 256, 1)[0].f, 4.8e-15),
    "random-1024": (lambda: random_instances(np.random.default_rng(1), 1024, 1)[0].f, 1.8e-13),
    "uniform-1024": (lambda: _uniform_1024(0), 9.7e-15),
}


@pytest.mark.parametrize("name", ATTACHED)
def test_attached_roots_pass_their_certificate(name):
    build, worst = ATTACHED[name]
    p = build()
    rs = rootfind.zero_sets([p])[0]
    assert rs.converged and rs.iterations == 0
    assert rs.points is p.roots
    assert 0 < rs.residuals.max() <= 1.5 * worst
    assert rootfind.certified(rs).points is p.roots


@pytest.mark.parametrize(
    "build",
    [lambda: random_instances(np.random.default_rng(3), 1024, 1)[0].f, lambda: _uniform_1024(1)],
    ids=["random-1024-seed-3", "uniform-1024-seed-1"],
)
def test_lossy_expansion_refused(build):
    # at 50 digits the expanded coefficients miss the exact roots by 7e-12
    # and 1.1e-11 of their scale, 30 to 50 times the bound, so the roots
    # are not zeros of the stored coefficients; random-1024 is refused at
    # seeds 0, 2, 3 and 4 of 0-4, uniform-1024 at 1, 3, 6, 7 and 9 of 0-9
    p = build()
    rs = rootfind.zero_sets([p])[0]
    assert not rs.converged
    k = int(np.argmax(rs.residuals))
    with mpmath.workdps(50):
        z = mpmath.mpc(p.roots[k].real, p.roots[k].imag)
        value, scale = mpmath.mpc(0), mpmath.mpf(0)
        for c in p.coeffs[::-1]:
            value = value * z + mpmath.mpc(c.real, c.imag)
            scale = scale * abs(z) + abs(mpmath.mpc(c.real, c.imag))
        exact = float(abs(value) / scale)
    assert exact > 5e-12
    assert rs.residuals[k] == pytest.approx(exact, rel=1e-4)


def _wrong_circle_70():
    """z^70 - 1 with one attached root scaled by 0.99."""
    f = example_circle(70).f
    roots = f.roots.copy()
    roots[5] *= 0.99
    return Polynomial(f.coeffs, roots)


def test_wrong_root_refused_at_degree_70():
    p = _wrong_circle_70()
    rs = rootfind.zero_sets([p])[0]
    assert not rs.converged
    assert rs.residuals.max() == pytest.approx(0.338, abs=1e-3)
    assert np.flatnonzero(rs.residuals > 1e-12).tolist() == [5]
    with pytest.raises(RuntimeError, match="zero set fails its certificate: backward error 0.338"):
        rootfind.certified(rs)


@pytest.mark.parametrize("command", ["check", "balayage"])
def test_wrong_root_config_exits_with_error(tmp_path, capsys, command):
    p = _wrong_circle_70()
    poly = {
        "coeffs": [[c.real, c.imag] for c in p.coeffs],
        "roots": [[r.real, r.imag] for r in p.roots],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"instance": {"polynomial": poly, "a": 1.0}}))
    assert cli.main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: zero set fails its certificate")


def test_origin_root_is_stripped():
    # z^n - z has c_0 = 0: its root 0 is exact, as in a solve, but a
    # second attached 0 is evaluated and refused
    p = example_origin(64).f
    rs = rootfind.zero_sets([p])[0]
    assert rs.converged
    assert rs.residuals[p.roots == 0].tolist() == [0.0]
    twice = Polynomial([0, -1, 0, 1], [0, 0, 1])
    assert rootfind.zero_sets([twice])[0].residuals.tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(RuntimeError, match="certificate"):
        rootfind.certified(rootfind.zero_sets([twice])[0])


def test_subnormal_root_beside_zero():
    # 1/z overflows at the subnormal root; the evaluation must not warn
    p = from_roots([0, 2.225073858507e-311])
    rs = rootfind.zero_sets([p])[0]
    assert rs.converged
    assert rs.residuals.tolist() == [0.0, 0.0]


def test_double_root_passes():
    p = from_roots([0.5, 0.5, -0.3j, 0.2 + 0.1j])
    rs = rootfind.zero_sets([p])[0]
    assert rs.converged
    assert np.array_equal(rootfind.certified(rs).points, p.roots)


def test_zero_sets_solve_polynomials_without_roots():
    p, q = example_circle(12).f, from_roots([0.5, -0.25j, 0.1 + 0.7j])
    bare = Polynomial(q.coeffs)
    sets = rootfind.zero_sets([p, bare, q])
    assert sets[0].points is p.roots and sets[2].points is q.roots
    assert sets[1].iterations > 0
    assert np.array_equal(sets[1].points, rootfind.find_roots(bare).points)


def _count_evaluations(monkeypatch):
    """A list that records how many polynomials each evaluation of attached roots gets."""
    calls = []
    attached = rootfind._attached

    def counting(polys):
        if polys:
            calls.append(len(polys))
        return attached(polys)

    monkeypatch.setattr(rootfind, "_attached", counting)
    return calls


@pytest.mark.parametrize("command", ["check", "identities", "balayage", "winding", "fourier"])
def test_attached_roots_evaluated_once_per_record(monkeypatch, command):
    calls = _count_evaluations(monkeypatch)
    instance = {"family": {"kind": "origin", "n": 40}}
    cli.run(cli.ExperimentConfig(command=command, instance=instance, options={}, seed=0))
    # one evaluation carries the zeros and the closed-form critical points;
    # fourier reads no critical points
    assert calls == [1 if command == "fourier" else 2]


def test_sweep_evaluates_each_case_once(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    instance = {"family": {"kind": "circle"}}
    cli.run(cli.ExperimentConfig(command="sweep", instance=instance, options={"n_list": [8, 12]}))
    assert calls == [1, 1]


def test_random_record_evaluates_its_zeros_in_one_batch(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    tables = []
    horner_table = rootfind._horner_table

    def recording(coeffs):
        tables.append(coeffs.shape)
        return horner_table(coeffs)

    monkeypatch.setattr(rootfind, "_horner_table", recording)
    assert cli.run(_check_random(64, 24)).ok
    # one evaluation of the 64 degree-24 zero sets, one solve of their derivatives
    assert calls == [64]
    assert tables == [(64, 25), (64, 24)]
