import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sendovlab import cli, families, rootfind
from sendovlab.cli import (
    COMMANDS,
    ExperimentConfig,
    main,
    run,
    write_record,
)
from sendovlab.families import example_origin, origin_derivative
from sendovlab.measures import empirical_measure
from sendovlab.poly_core import CrossCheckError, Polynomial, derivative, evaluate, from_roots
from sendovlab.potential import balayage
from sendovlab.rootfind import certified, critical_points, zero_sets
from sendovlab.serialize import cpair, dumps, fmt17, loads


def _cfg(command, instance, options=None, seed=0):
    return ExperimentConfig(
        command=command, instance=instance, options=options or {}, seed=seed
    )


CIRCLE12 = {"family": {"kind": "circle", "n": 12}}
CIRCLE64 = {"family": {"kind": "circle", "n": 64}}
ORIGIN64 = {"family": {"kind": "origin", "n": 64}}
MILLER = {
    "family": {"kind": "miller", "n": 64, "c1": 1.0, "c2": 2.0, "lambdas": [[0.3, 0.8]]}
}
QUADRATIC = {"coeffs": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}


class TestConfig:
    def test_unknown_command(self):
        with pytest.raises(ValueError, match="unknown command"):
            _cfg("frobnicate", CIRCLE12)

    def test_unknown_fields(self):
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['instanc'\] in config"):
            ExperimentConfig.from_json({"command": "check", "instanc": {}})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("instance", [], "bad value for 'instance' in config"),
            ("options", None, "bad value for 'options' in config"),
            ("seed", 1.5, "bad value for 'seed' in config"),
        ],
    )
    def test_fields_are_read_when_built(self, field, value, message):
        # a config built in code goes through the same reader as one from JSON
        fields = {"command": "check", "instance": CIRCLE12, "options": {}, field: value}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(fields)

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"command": "check", "instance": CIRCLE12, "out": "rec.json"}, "out"),
            ({"command": "check", "instance": CIRCLE12, "format": "csv"}, "format"),
            (
                {
                    "command": "check",
                    "instance": {"polynomial": dict(QUADRATIC, leading=[1.0, 0.0]), "a": 1.0},
                },
                "leading",
            ),
        ],
        ids=["out", "format", "leading"],
    )
    def test_removed_keys_are_unknown(self, config, key):
        # out and format are command-line flags only; a polynomial is its
        # coeffs and roots, and its leading coefficient is the last of coeffs
        with pytest.raises(ValueError, match=rf"unknown key\(s\) \[{key!r}\]"):
            run(ExperimentConfig.from_json(config))

    def test_bad_format(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": CIRCLE12}))
        with pytest.raises(SystemExit) as exc:
            main(["check", "--config", str(cfg_path), "--out", "rec.xml", "--format", "xml"])
        assert exc.value.code == 2
        assert "--format: invalid choice: 'xml'" in capsys.readouterr().err

    def test_overrides_apply(self, tmp_path):
        # --seed and --n replace the config's seed and degree before it is read
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"random": {"degree": 8}}, "seed": 1}))
        out = tmp_path / "rec.json"
        args = ["--seed", "7", "--n", "10", "--out", str(out)]
        assert main(["check", "--config", str(cfg_path), *args]) == 0
        written = loads(out.read_text())
        assert written["config"]["seed"] == 7
        expected = run(_cfg("check", {"random": {"degree": 10}}, seed=7))
        assert written["config"] == expected.config
        assert _plain(written["results"]) == _plain(expected.results)

    def test_output_fields_stay_out_of_the_record(self, tmp_path):
        # --out and --format say where the record goes, not what it holds
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": CIRCLE12}))
        out = tmp_path / "rec.json"
        args = ["--out", str(out), "--format", "json"]
        assert main(["check", "--config", str(cfg_path), *args]) == 0
        written = loads(out.read_text())
        assert set(written["config"]) == {"command", "instance", "options", "seed"}
        written.pop("wall_time_s")
        assert dumps(written) == run(_cfg("check", CIRCLE12)).payload()

    def test_instance_must_be_unique(self):
        cfg = _cfg("check", {"family": CIRCLE12["family"], "random": {"count": 1}})
        with pytest.raises(ValueError, match="exactly one"):
            run(cfg)


LINEAR = {"coeffs": [[-1.0, 0.0], [1.0, 0.0]]}


class TestReader:
    """Every key of a config is declared by its command or its instance source."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_option_raises(self, command):
        cfg = _cfg(command, MILLER, {"frobnicate": 1})
        with pytest.raises(ValueError, match="frobnicate"):
            run(cfg)

    def test_misspelled_option_raises(self):
        # R is the balayage radius: a lowercase r must not run at the default R
        with pytest.raises(ValueError, match="'r'"):
            run(_cfg("balayage", ORIGIN64, {"r": 1.2}))

    @pytest.mark.parametrize(
        "instance, key",
        [
            ({"random": {"count": 1, "degree": 8, "degre": 9}}, "degre"),
            ({"family": {"kind": "circle", "n": 12, "c1": 7}}, "c1"),
            ({"family": {"kind": "origin", "n": 50, "c1": 7}}, "c1"),
            ({"family": dict(MILLER["family"], lambda_=[[0.3, 0.8]])}, "lambda_"),
            ({"random": {"count": 1}, "a": 0.5}, "'a'"),
            ({"polynomial": dict(LINEAR, root=[[1.0, 0.0]]), "a": 1.0}, "root"),
            ({"polynomial": LINEAR, "a": 1.0, "b": 0}, "'b'"),
        ],
        ids=[
            "random",
            "circle",
            "origin",
            "miller",
            "beside-random",
            "in-polynomial",
            "beside-polynomial",
        ],
    )
    def test_unknown_instance_key_raises(self, instance, key):
        with pytest.raises(ValueError, match=key):
            run(_cfg("check", instance))

    @pytest.mark.parametrize(
        "config, message",
        [
            ({}, r"missing key\(s\) \['command', 'instance'\] in config"),
            (
                {"command": "check", "instance": {"polynomial": LINEAR}},
                r"missing key\(s\) \['a'\] in polynomial instance",
            ),
            (
                {"command": "check", "instance": {"polynomial": {"roots": [[1.0, 0.0]]}, "a": 1.0}},
                r"bad value for 'polynomial' .*: missing key\(s\) \['coeffs'\] in polynomial",
            ),
        ],
        ids=["config", "a", "coeffs"],
    )
    def test_missing_required_key_raises(self, config, message):
        with pytest.raises(ValueError, match=message):
            run(ExperimentConfig.from_json(config))

    @pytest.mark.parametrize("command", ["winding", "balayage", "fourier"])
    def test_instance_commands_map_over_an_ensemble(self, command):
        # each row of an ensemble's record is, byte for byte apart from its
        # label, the record of a polynomial source holding that row's
        # instance with its roots
        options = {"R": 1.2, "N": 512} if command == "fourier" else {}
        rec = run(_cfg(command, {"random": {"count": 8, "degree": 48}}, options, seed=5))
        assert rec.ok
        rows = rec.results["instances"]
        assert [row["label"] for row in rows] == [f"random-{i}" for i in range(8)]
        for row, inst in zip(rows, families.random_instances(np.random.default_rng(5), 48, 8)):
            f = inst.f
            poly = {"coeffs": [cpair(c) for c in f.coeffs], "roots": [cpair(r) for r in f.roots]}
            single = run(_cfg(command, {"polynomial": poly, "a": inst.a}, options))
            (expected,) = single.results["instances"]
            assert dumps(dict(row, label="polynomial")) == dumps(expected)

    def test_sweep_accepts_a_family_degree(self):
        # the family's n is declared for every command; sweep takes its
        # degrees from n_list instead
        rec = run(_cfg("sweep", ORIGIN64, {"n_list": [16]}))
        assert [row["n"] for row in rec.results["rows"]] == [16]

    def test_defaults_stay_out_of_the_record(self):
        instance = {"family": {"kind": "origin", "n": 16}}
        options = {"R": 1.3}
        rec = run(_cfg("balayage", instance, options))
        assert rec.config["instance"] == {"family": {"kind": "origin", "n": 16}}
        assert rec.config["options"] == {"R": 1.3}
        assert instance == {"family": {"kind": "origin", "n": 16}}
        assert options == {"R": 1.3}


# The JSON type of every declared option and instance key
OPTION_TYPES = {
    "check": {},
    "identities": {"points": "int"},
    "balayage": {"R": "float", "N": "int"},
    "winding": {"r1": "float", "r2": "float"},
    "family": {"theta_grid": "int"},
    "fourier": {"R": "float", "ks": "int list", "N": "int"},
    "sweep": {"n_list": "int list", "theta_grid": "int"},
}
SOURCE_TYPES = {
    "random": ({"random": {"count": 1, "degree": 8}}, {"count": "int", "degree": "int"}),
    "polynomial": ({"polynomial": LINEAR, "a": 1.0}, {"polynomial": "object", "a": "float"}),
    "circle": (CIRCLE12, {"kind": "kind", "n": "int"}),
    "origin": (ORIGIN64, {"kind": "kind", "n": "int"}),
    "miller": (
        MILLER,
        {"kind": "kind", "n": "int", "c1": "float", "c2": "float", "lambdas": "pair list"},
    ),
}
WRONG = {"float": 1.5, "bool": True, "string": "3", "nan": math.nan}
# the values of WRONG that are of a type's own kind
RIGHT = {("float", "float"), ("kind", "string")}
# a list or a polynomial with one wrong number inside, and that number's type
INSIDE = {
    "int list": (lambda v: [8, v], "int"),
    "pair list": (lambda v: [[0.3, 0.8], [v, 0.0]], "float"),
    "object": (lambda v: {"coeffs": [[v, 0.0], [1.0, 0.0]]}, "float"),
}


def _wrong_values(kind):
    """(name, value) of each wrong value for a key of this JSON type, and within it."""
    for name, value in WRONG.items():
        if (kind, name) not in RIGHT:
            yield name, value
        if kind in INSIDE and (INSIDE[kind][1], name) not in RIGHT:
            yield f"{name}-inside", INSIDE[kind][0](value)


def _with_key(instance, key, value):
    if "polynomial" in instance:
        return dict(instance, **{key: value})
    ((top, inner),) = instance.items()
    return {top: dict(inner, **{key: value})}


def _typed_cases():
    for command, keys in OPTION_TYPES.items():
        for key, kind in keys.items():
            for name, value in _wrong_values(kind):
                case_id = f"{command}-{key}-{name}"
                yield pytest.param(command, CIRCLE12, {key: value}, key, id=case_id)
    for source, (instance, keys) in SOURCE_TYPES.items():
        for key, kind in keys.items():
            for name, value in _wrong_values(kind):
                config = _with_key(instance, key, value)
                yield pytest.param("check", config, {}, key, id=f"{source}-{key}-{name}")


class TestTypedValues:
    """A key takes only a value of its JSON type, never one coerced to it."""

    def test_every_declared_key_is_typed_here(self):
        assert {c: set(spec) for c, (_, spec) in cli._COMMANDS.items()} == {
            c: set(keys) for c, keys in OPTION_TYPES.items()
        }
        assert {s: set(spec) for s, spec in cli._SOURCES.items()} == {
            s: set(keys) for s, (_, keys) in SOURCE_TYPES.items()
        }

    @pytest.mark.parametrize("command, instance, options, key", _typed_cases())
    def test_wrong_type_raises(self, command, instance, options, key):
        # a family kind of the wrong type is no known kind
        message = "unknown family kind" if key == "kind" else f"bad value for {key!r}"
        with pytest.raises(ValueError, match=message):
            run(_cfg(command, instance, options))

    def test_integer_past_the_float_range_raises(self):
        with pytest.raises(ValueError, match="bad value for 'R'"):
            run(_cfg("balayage", ORIGIN64, {"R": 10**400}))

    def test_right_types_pass(self):
        # a JSON integer is a float value; null is balayage's default N
        rec = run(_cfg("balayage", ORIGIN64, {"R": 2, "N": None}))
        assert rec.results["R"] == 2.0 and isinstance(rec.results["R"], float)


class TestRunners:
    def test_check_circle(self):
        rec = run(_cfg("check", CIRCLE12))
        assert rec.ok
        assert rec.results["all_hold"]
        assert abs(rec.results["min_margin"]) < 1e-12
        inst = rec.results["instances"][0]
        assert len(inst["zeros"]) == 12
        assert len(inst["critical_points"]) == 11

    def test_check_polynomial_instance(self):
        instance = {
            "polynomial": {"coeffs": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
            "a": 1.0,
        }
        rec = run(_cfg("check", instance))
        assert rec.ok
        assert rec.results["instances"][0]["n"] == 2

    def test_identities_random(self):
        rec = run(_cfg("identities", {"random": {"count": 3, "degree": 10}}, seed=5))
        assert rec.ok
        assert rec.results["max_residual"] < 1e-8

    def test_records_stay_under_the_solve_peak(self):
        # the check record's traced peak, 1.44 MiB, is its solve; the
        # margins of its 64 instances come after it, in blocks of at most
        # 2^14 distances, so the record stays under 1.5 MiB, and the
        # identities record near its own solve
        bounds = {"check": 1.5 * 2**20, "identities": 0.75 * 2**20}
        for cfg in (
            _cfg("check", {"random": {"count": 64, "degree": 24}}, seed=5),
            _cfg("identities", {"random": {"count": 16, "degree": 24}}, {"points": 40}, seed=5),
        ):
            run(cfg)
            tracemalloc.start()
            try:
                run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bounds[cfg.command], (cfg.command, peak)

    def test_identities_zero_stieltjes_is_a_failure(self):
        # the root sum s_zeta cancels near the family's fat critical point,
        # down to exactly 0 at some sample points: identities 5 and 6 must
        # then fail rather than raise
        instance = {"family": dict(MILLER["family"], n=128)}
        rec = run(_cfg("identities", instance, {"points": 40}))
        assert not rec.ok

    @pytest.mark.parametrize(
        "command", ["check", "identities", "balayage", "winding", "sweep"]
    )
    def test_unconverged_critical_points_raise(self, monkeypatch, command):
        aberth = rootfind._aberth

        def unconverged(coeffs, start=None):
            pts, res, iterations = aberth(coeffs, start)
            return pts, res + 1e-3, iterations

        options = {"n_list": [64]} if command == "sweep" else {}
        if command != "sweep":
            # a random instance carries its zeros, so its one solve is that
            # of f'; sweep takes only families, whose f' needs no solve
            monkeypatch.setattr(rootfind, "_aberth", unconverged)
            with pytest.raises(RuntimeError, match="critical point finding did not converge"):
                run(_cfg(command, {"random": {"count": 1, "degree": 12}}, options))

        # z^n - z takes its critical points in closed form, certified like a solve
        def corrupted(n):
            p = origin_derivative(n)
            return Polynomial(p.coeffs, p.roots * np.where(np.arange(n - 1) == 3, 0.99, 1.0))

        monkeypatch.setattr(cli, "origin_derivative", corrupted)
        with pytest.raises(RuntimeError, match="critical point set fails its certificate"):
            run(_cfg(command, ORIGIN64, options))

    def test_balayage_origin(self):
        rec = run(_cfg("balayage", ORIGIN64, {"R": 1.2}))
        assert rec.ok
        (row,) = rec.results["instances"]
        assert row["zero_mean"] == pytest.approx(1.0, abs=1e-8)
        assert row["sup_gap"] > 0

    def test_winding_agreement(self):
        rec = run(_cfg("winding", {"family": {"kind": "origin", "n": 100}}))
        assert rec.ok
        (row,) = rec.results["instances"]
        assert row["winding"] == -1
        assert row["agree"]

    def test_family_member(self):
        rec = run(_cfg("family", MILLER, {"theta_grid": 128}))
        assert rec.ok
        assert rec.results["ten_max"] < 1e-9
        assert len(rec.results["lamin_values"]) == 128

    def test_family_member_at_degree_16384(self, monkeypatch):
        # the seeded solve takes at most two dense evaluation passes here
        sets = []
        solve = families.family_zeros

        def recording(params, f):
            sets.append(solve(params, f))
            return sets[-1]

        monkeypatch.setattr(families, "family_zeros", recording)
        rec = run(_cfg("family", {"family": dict(MILLER["family"], n=16384)}))
        assert rec.ok
        assert rec.results["ten_max"] < 1e-9
        assert len(sets) == 1 and sets[0].iterations <= 2

    def test_fourier_closed_forms(self):
        rec = run(_cfg("fourier", {"family": {"kind": "circle", "n": 8}}, {"R": 1.5}))
        assert rec.ok
        assert rec.results["max_residual"] <= 1e-8

    def test_sweep_ordering(self):
        opts = {"n_list": [48, 32, 64], "theta_grid": 64}
        rec = run(_cfg("sweep", MILLER, opts))
        assert [row["n"] for row in rec.results["rows"]] == [48, 32, 64]

    def test_random_validation(self):
        with pytest.raises(ValueError, match="count"):
            run(_cfg("check", {"random": {"count": 0}}))

    @pytest.mark.parametrize(
        "command, instance, options, message",
        [
            ("family", {"family": {"kind": "circle", "n": 16}}, {}, "kind 'miller'"),
            ("sweep", {"random": {}}, {"n_list": [8]}, "sweep needs instance.family"),
            ("sweep", {"family": {"kind": "circle", "n": 16}}, {}, "options.n_list"),
            (
                "winding",
                {"family": {"kind": "circle", "n": 8}},
                {"r1": 0.9999999, "r2": 1.0000001},
                "no admissible radius",
            ),
        ],
    )
    def test_command_refuses(self, command, instance, options, message):
        with pytest.raises(ValueError, match=message):
            run(_cfg(command, instance, options))

    @pytest.mark.parametrize("command", ["family", "winding"])
    def test_miller_without_lambdas(self, command):
        # m = 0: P = 1, and the critical points are -c2/n alone
        instance = {"family": {"kind": "miller", "n": 48, "c1": 1.0, "c2": 2.0}}
        assert run(_cfg(command, instance)).ok


class TestDeterminism:
    def test_payload_reproducible(self):
        cfg = _cfg("identities", {"random": {"count": 2, "degree": 8}}, seed=3)
        assert run(cfg).payload() == run(cfg).payload()

    def test_wall_time_excluded_from_payload(self):
        rec = run(_cfg("check", CIRCLE12))
        assert "wall_time" not in rec.payload()
        assert rec.wall_time_s >= 0.0


class TestOutputs:
    def test_json_roundtrip(self, tmp_path):
        rec = run(_cfg("check", CIRCLE12))
        out = tmp_path / "rec.json"
        write_record(rec, str(out), "json")
        data = json.loads(out.read_text())
        assert data["ok"] is True
        assert data["config"]["command"] == "check"

    def test_csv_rows(self, tmp_path):
        rec = run(_cfg("family", MILLER, {"theta_grid": 64}))
        out = tmp_path / "rec.csv"
        write_record(rec, str(out), "csv")
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["theta", "lamin"]
        assert len(rows) == 65

    def test_plot_data_kinds(self, tmp_path):
        # the zero scatter, the balayage densities and the dd curve are the
        # CSV tables of check, balayage and family
        rec = run(_cfg("check", CIRCLE12))
        write_record(rec, str(tmp_path / "z.csv"), "csv")
        rows = list(csv.reader((tmp_path / "z.csv").open()))
        assert rows[0] == ["label", "re", "im", "is_critical", "margin"]
        inst = rec.results["instances"][0]
        zeros = [
            ["circle", fmt17(re), fmt17(im), "0", fmt17(mg)]
            for (re, im), mg in zip(inst["zeros"], inst["margins"])
        ]
        crit = [["circle", fmt17(re), fmt17(im), "1", ""] for re, im in inst["critical_points"]]
        assert len(zeros) == 12 and len(crit) == 11
        assert rows[1:] == zeros + crit

        bal = run(_cfg("balayage", ORIGIN64, {"R": 1.3}))
        write_record(bal, str(tmp_path / "b.csv"), "csv")
        rows = list(csv.reader((tmp_path / "b.csv").open()))
        assert rows[0] == ["label", "theta", "zero_density", "crit_density"]
        assert len(rows) == 1 + len(bal.results["instances"][0]["zero_density"])

        fam = run(_cfg("family", MILLER, {"theta_grid": 64}))
        write_record(fam, str(tmp_path / "d.csv"), "csv")
        rows = list(csv.reader((tmp_path / "d.csv").open()))
        assert rows[0] == ["theta", "lamin"]
        assert rows[1:] == [
            [fmt17(t), fmt17(v)]
            for t, v in zip(fam.results["lamin_thetas"], fam.results["lamin_values"])
        ]

    def test_balayage_angles_derived_not_stored(self, tmp_path):
        # the payload carries no thetas; the CSV still lists the sample
        # angles of the density, as when they were stored
        cfg = _cfg("balayage", ORIGIN64, {"R": 1.3})
        rec = run(cfg)
        (row,) = rec.results["instances"]
        assert "thetas" not in row
        assert "thetas" not in rec.payload()
        inst = example_origin(64)
        zeros = certified(zero_sets([inst.f])[0]).points
        dz = balayage(empirical_measure(zeros), 1.3, p=inst.f)
        crit = critical_points([inst.f])[0].points
        dx = balayage(empirical_measure(crit), 1.3, dz.samples.size, p=derivative(inst.f))
        # the record's crit_density, from the closed-form critical points,
        # equals the solver route's bit for bit
        assert row["zero_density"].tobytes() == dz.samples.tobytes()
        assert row["crit_density"].tobytes() == dx.samples.tobytes()
        thetas = [fmt17(t) for t in dz.thetas.tolist()]

        write_record(rec, str(tmp_path / "rec.csv"), "csv")
        rows = list(csv.reader((tmp_path / "rec.csv").open()))
        assert rows[0] == ["label", "theta", "zero_density", "crit_density"]
        assert rows[1:] == [
            ["origin", t, fmt17(z), fmt17(x)] for t, z, x in zip(thetas, dz.samples, dx.samples)
        ]


# one small config per command
SMALL = {
    "check": (CIRCLE12, {}),
    "identities": ({"random": {"count": 2, "degree": 8}}, {"points": 5}),
    "balayage": ({"family": {"kind": "origin", "n": 16}}, {"R": 1.3}),
    "winding": ({"family": dict(MILLER["family"], n=32)}, {}),
    "family": ({"family": dict(MILLER["family"], n=32)}, {"theta_grid": 64}),
    "fourier": ({"random": {"count": 1, "degree": 12}}, {"R": 1.2, "N": 512}),
    "sweep": ({"family": {"kind": "origin"}}, {"n_list": [8, 12]}),
}


def _plain(obj):
    """obj with every ndarray as a nested list, so that == compares values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def _bit(flag):
    return "true" if flag else "false"


def _check_table(res):
    rows = []
    for inst in res["instances"]:
        label = inst["label"]
        rows += [
            [label, fmt17(re), fmt17(im), "0", fmt17(mg)]
            for (re, im), mg in zip(inst["zeros"], inst["margins"])
        ]
        rows += [[label, fmt17(re), fmt17(im), "1", ""] for re, im in inst["critical_points"]]
    return rows


# the diagnostics of a circle or origin sweep row
ZETA_KEYS = ["e_log_inv_zeta", "e_log_xi_minus_a", "n_e_log_inv_zeta", "n_e_log_xi_minus_a"]
# Each command's CSV header, and its cells written out from the record
CSV_TABLES = {
    "check": (["label", "re", "im", "is_critical", "margin"], _check_table),
    "identities": (
        ["label", "identity", "max_residual"],
        lambda res: [
            [inst["label"], name, fmt17(v)]
            for inst in res["instances"]
            for name, v in inst["per_identity_max"].items()
        ],
    ),
    "balayage": (
        ["label", "theta", "zero_density", "crit_density"],
        lambda res: [
            [inst["label"], fmt17(2.0 * math.pi * k / len(z)), fmt17(z[k]), fmt17(x[k])]
            for inst in res["instances"]
            for z, x in [(inst["zero_density"], inst["crit_density"])]
            for k in range(len(z))
        ],
    ),
    "winding": (
        ["label", "n", "radius", "objective", "winding", "zero_pole_count", "agree"]
        + ["min_modulus", "samples_used"],
        lambda res: [
            [
                inst["label"],
                str(inst["n"]),
                fmt17(inst["radius"]),
                fmt17(inst["objective"]),
                str(inst["winding"]),
                str(inst["zero_pole_count"]),
                _bit(inst["agree"]),
                fmt17(inst["min_modulus"]),
                str(inst["samples_used"]),
            ]
            for inst in res["instances"]
        ],
    ),
    "family": (
        ["theta", "lamin"],
        lambda res: [
            [fmt17(t), fmt17(v)] for t, v in zip(res["lamin_thetas"], res["lamin_values"])
        ],
    ),
    "fourier": (
        ["label", "k", "coeff_re", "coeff_im", "closed_re", "closed_im", "residual"],
        lambda res: [
            [
                inst["label"],
                str(r["k"]),
                *map(fmt17, r["coeff"] + r["closed_form"]),
                fmt17(r["residual"]),
            ]
            for inst in res["instances"]
            for r in inst["rows"]
        ],
    ),
    "sweep": (
        ["n", "min_margin", "holds", *ZETA_KEYS],
        lambda res: [
            [str(r["n"]), fmt17(r["min_margin"]), _bit(r["holds"])]
            + [fmt17(r[k]) for k in ZETA_KEYS]
            for r in res["rows"]
        ],
    ),
}


class TestCsvTables:
    """Every command's CSV table: its header and every cell."""

    def test_every_command_has_a_table(self):
        assert set(CSV_TABLES) == set(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_header_and_cells(self, tmp_path, command):
        instance, options = SMALL[command]
        rec = run(_cfg(command, instance, options, seed=2))
        write_record(rec, str(tmp_path / "rec.csv"), "csv")
        rows = list(csv.reader((tmp_path / "rec.csv").open(newline="")))
        header, cells = CSV_TABLES[command]
        assert rows[0] == header
        assert rows[1:] == cells(rec.results)
        assert len(rows) > 1

    def test_miller_sweep_keeps_the_scalar_keys(self, tmp_path):
        # lists and the nested fine dict have no column; booleans are lower case
        rec = run(_cfg("sweep", {"family": dict(MILLER["family"])}, {"n_list": [16, 24]}))
        write_record(rec, str(tmp_path / "rec.csv"), "csv")
        rows = list(csv.reader((tmp_path / "rec.csv").open(newline="")))
        keys = ["n", "c1", "c2", "m", "ten_max", "zon_max", "terr_max", "n_terr_max"]
        keys += ["lamin_mean", "lamin_max", "arc_argument_ok", "sum_abs_lambda_sq"]
        assert rows[0] == keys
        for row, res in zip(rows[1:], rec.results["rows"]):
            expected = [
                _bit(res[k]) if isinstance(res[k], bool)
                else fmt17(res[k]) if isinstance(res[k], float)
                else str(res[k])
                for k in keys
            ]
            assert row == expected
        assert len(rows) == 3


class TestRecordText:
    """A record's text is one compact JSON line carrying exactly its fields."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_payload_parses_to_the_record(self, tmp_path, capsys, command):
        instance, options = SMALL[command]
        rec = run(_cfg(command, instance, options, seed=2))
        expected = {
            "config": rec.config,
            "results": rec.results,
            "ok": rec.ok,
            "version": rec.version,
        }
        payload = rec.payload()
        assert _plain(loads(payload)) == _plain(expected)
        assert "\n" not in payload

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": instance, "options": options, "seed": 2}))
        out_path = tmp_path / "out.json"
        main([command, "--config", str(cfg_path), "--out", str(out_path)])
        text = out_path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        written = loads(text)
        assert written.pop("wall_time_s") >= 0.0
        assert _plain(written) == _plain(expected)

        capsys.readouterr()
        main([command, "--config", str(cfg_path)])
        line, verdict = capsys.readouterr().out.splitlines()
        printed = loads(line)
        printed.pop("wall_time_s")
        assert _plain(printed) == _plain(expected)
        assert verdict == f"ok={rec.ok}"

    def test_winding_skips_a_circle_the_winding_cannot_resolve(self):
        # f' has a zero 1e-7 outside |z| = 0.3, between two nodes of every
        # winding grid: within the n^-10 floor's reach of r1 = 0.3, so only
        # the winding band keeps the radius away from it
        crit = [(0.3 + 1e-7) * np.exp(0.1j), -0.5 + 0.5j, 0.7j, -0.8, 0.6 + 0.6j]
        n = len(crit) + 1
        coeffs = np.concatenate([[0.0], n * from_roots(crit).coeffs / np.arange(1, n + 1)])
        coeffs[0] = -evaluate(Polynomial(coeffs), 0.9)
        instance = {"polynomial": {"coeffs": [[c.real, c.imag] for c in coeffs]}, "a": 0.9}
        rec = run(_cfg("winding", instance, {"r1": 0.3, "r2": 0.4}))
        assert rec.ok
        assert rec.results["instances"][0]["radius"] > 0.3


class TestMain:
    def test_end_to_end_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": CIRCLE12, "options": {}, "seed": 0}))
        out_path = tmp_path / "out.json"
        code = main(["check", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["ok"] is True
        assert "ok=True" in capsys.readouterr().out

    def test_out_and_format_write_both_formats(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": CIRCLE12}))
        rec = run(_cfg("check", CIRCLE12))
        for name, extra in [
            ("a.json", []),
            ("b.json", ["--format", "json"]),
            ("c.csv", ["--format", "csv"]),
        ]:
            out = tmp_path / name
            assert main(["check", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
            assert capsys.readouterr().out == f"wrote {out}\nok=True\n"
            expected = tmp_path / "expected"
            write_record(rec, str(expected), "csv" if name.endswith(".csv") else "json")
            if name.endswith(".csv"):
                assert out.read_bytes() == expected.read_bytes()
            else:
                written, direct = loads(out.read_text()), loads(expected.read_text())
                assert written.pop("wall_time_s") >= 0.0 and direct.pop("wall_time_s") >= 0.0
                assert _plain(written) == _plain(direct)

    def test_csv_needs_out(self, tmp_path, capsys):
        # a CSV table is written only to a file; stdout takes the JSON record
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": CIRCLE12}))
        with pytest.raises(SystemExit) as exc:
            main(["check", "--config", str(cfg_path), "--format", "csv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: --format csv needs --out" in err

    @pytest.mark.parametrize("named, code", [("check", 0), ("family", 1), (5, 1)])
    def test_config_command_must_match(self, tmp_path, capsys, named, code):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": named, "instance": CIRCLE12}))
        assert main(["check", "--config", str(cfg_path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            assert err == (
                f"error: config names command {named!r} but the command line runs 'check'\n"
            )
        else:
            assert out.endswith("ok=True\n") and err == ""

    def test_n_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": CIRCLE12}))
        out_path = tmp_path / "out.json"
        code = main(["check", "--config", str(cfg_path), "--n", "16", "--out", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["results"]["instances"][0]["n"] == 16

    def test_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"random": {"count": 0}}}))
        code = main(["check", "--config", str(cfg_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("random", [{"count": 0}, {"degree": 1}])
    def test_random_source_refused_by_the_layer(self, tmp_path, capsys, random):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"random": random}}))
        assert main(["check", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: random instances need count >= 1 and degree >= 2\n"

    def test_balayage_past_the_term_cap_is_an_error(self, tmp_path, capsys):
        # zeros on the unit circle and R = 1.0001: the moment series would
        # need 414,489 terms
        cfg_path = tmp_path / "cfg.json"
        config = {"instance": {"family": {"kind": "circle", "n": 8}}, "options": {"R": 1.0001}}
        cfg_path.write_text(json.dumps(config))
        assert main(["balayage", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: atoms too close to the circle")
        assert "needs 414489 terms" in err

    def test_balayage_on_too_few_nodes_names_them(self, tmp_path, capsys):
        # 16 nodes alias a degree-8 density: its mean misses 1 by 9.06e-5
        cfg_path = tmp_path / "cfg.json"
        config = {"instance": {"random": {"count": 1, "degree": 8}}, "options": {"N": 16}}
        cfg_path.write_text(json.dumps(config))
        assert main(["balayage", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: balayage density does not average to 1: off by 9.06e-05 at N = 16\n"
        )

    def test_failed_cross_check_is_an_error(self, monkeypatch, tmp_path, capsys):
        def disagree(*args, **kwargs):
            raise CrossCheckError("balayage cross-check failed: routes disagree")

        monkeypatch.setattr(cli, "balayage", disagree)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"family": {"kind": "origin", "n": 16}}}))
        assert main(["balayage", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: balayage cross-check failed: routes disagree\n"

    def test_overflowing_family_is_an_error(self, tmp_path, capsys):
        # (z + 2500)**399 has coefficients past the float range
        family = {"kind": "miller", "c1": 1, "c2": 1e6, "lambdas": [[0.3, 0.8]], "n": 400}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"family": family}}))
        assert main(["family", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: (z + c2/n)**(n-m) overflows")

    @pytest.mark.parametrize("command", ["family", "check", "winding"])
    def test_family_with_a_zero_at_a(self, tmp_path, capsys, command):
        # c1 = n puts a at lambda_1 = 0: family's radial law needs P(a) != 0,
        # while the commands that only read the zeros still run the member
        family = {"kind": "miller", "c1": 8, "c2": 8, "lambdas": [[0, 0]], "n": 8}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"family": family}}))
        code = main([command, "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        if command == "family":
            assert code == 1 and out == ""
            assert err == "error: the radial law needs P(a) != 0, but a = lambda_j gives P(a) = 0\n"
        else:
            assert err == "" and "NaN" not in out and out.startswith('{"config"')

    def test_n_refused_for_a_polynomial(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        instance = {"polynomial": {"coeffs": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}, "a": 1.0}
        cfg_path.write_text(json.dumps({"instance": instance}))
        code = main(["check", "--config", str(cfg_path), "--n", "16"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --n")

    @pytest.mark.parametrize("command", ["check", "identities", "balayage", "winding", "fourier"])
    def test_degree_one_polynomial(self, tmp_path, capsys, command):
        # f' is a constant with no zeros: a command that reads critical
        # points refuses the instance by its own degree; fourier reads none
        instance = {"polynomial": {"coeffs": [[-0.5, 0], [1, 0]], "roots": [[0.5, 0]]}, "a": 0.5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": instance}))
        code = main([command, "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        if command == "fourier":
            assert code == 0 and out.endswith("ok=True\n")
        else:
            assert code == 1
            assert err == "error: critical points need a polynomial of degree at least 2, not 1\n"

    @pytest.mark.parametrize(
        "command, options, key",
        [
            ("fourier", {"ks": 5}, "ks"),
            ("balayage", {"N": [1]}, "N"),
            ("identities", {"points": "x"}, "points"),
            ("balayage", {"R": math.nan}, "R"),
            ("fourier", {"N": 512.9}, "N"),
        ],
    )
    def test_value_of_wrong_type_is_an_error(self, tmp_path, capsys, command, options, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": CIRCLE12, "options": options}))
        code = main([command, "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for ")
        assert repr(key) in err and command in err

    @pytest.mark.parametrize(
        "command, instance, options, message",
        [
            ("identities", {"random": {"degree": 8}}, {"points": -5}, "points must be at least 1"),
            ("identities", {"random": {"degree": 8}}, {"points": 0}, "points must be at least 1"),
            ("family", MILLER, {"theta_grid": 0}, "theta_grid must be at least 1"),
            ("sweep", MILLER, {"n_list": [64], "theta_grid": 0}, "theta_grid must be at least 1"),
            ("fourier", {"random": {"degree": 8}}, {"ks": []}, "ks must name at least one k"),
        ],
        ids=[
            "points-negative",
            "points-zero",
            "family-theta-grid-zero",
            "sweep-theta-grid-zero",
            "fourier-no-k",
        ],
    )
    def test_value_that_checks_nothing_is_an_error(
        self, tmp_path, capsys, command, instance, options, message
    ):
        # no point, angle or k evaluated would pass vacuously or fail in numpy
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": instance, "options": options}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "config, extra, message",
        [
            ({"instance": CIRCLE12, "seed": [1]}, [], "bad value for 'seed'"),
            ({"instance": CIRCLE12, "seed": 1.9}, [], "bad value for 'seed'"),
            ({"instance": CIRCLE12, "seed": True}, [], "bad value for 'seed'"),
            ({"instance": {"random": 5}}, ["--n", "8"], "bad value for 'random' in instance"),
            ([1, 2], [], "config must be a JSON object"),
        ],
        ids=["seed-list", "seed-float", "seed-bool", "n-on-a-non-object", "top-level-list"],
    )
    def test_config_of_wrong_shape_is_an_error(self, tmp_path, capsys, config, extra, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["check", "--config", str(cfg_path), *extra])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_missing_config_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["check", "--config", str(tmp_path / "nope.json")])


MILLER_24 = {"kind": "miller", "c1": 1.0, "c2": 2.0, "lambdas": [[0.3, 0.8]], "n": 24}


@pytest.mark.parametrize(
    "command, instance, draws",
    [
        ("family", {"family": MILLER_24}, False),
        ("winding", {"family": MILLER_24}, False),
        ("check", {"random": {"count": 2, "degree": 8}}, True),
    ],
)
def test_only_records_that_draw_import_numpy_random(command, instance, draws):
    # a record without random draws creates no Generator, so a fresh
    # interpreter never imports numpy.random for it
    script = (
        "import json, sys\n"
        "from sendovlab import cli\n"
        "cfg = cli.ExperimentConfig(command=sys.argv[1], instance=json.loads(sys.argv[2]),"
        " options={}, seed=0)\n"
        "assert cli.run(cfg).ok\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, command, json.dumps(instance)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == str(draws)
