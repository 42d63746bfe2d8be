import csv
import json

import numpy as np
import pytest

from sendovlab import cli, rootfind
from sendovlab.cli import (
    COMMANDS,
    ExperimentConfig,
    emit_plot_data,
    main,
    run,
    write_record,
)
from sendovlab.families import example_origin
from sendovlab.measures import empirical_measure
from sendovlab.poly_core import Polynomial, derivative, evaluate, from_roots
from sendovlab.potential import balayage
from sendovlab.rootfind import RootSet, critical_points, find_roots, zeros_of
from sendovlab.serialize import fmt17


def _cfg(command, instance, options=None, seed=0):
    return ExperimentConfig(
        command=command, instance=instance, options=options or {}, seed=seed
    )


CIRCLE12 = {"family": {"kind": "circle", "n": 12}}
ORIGIN64 = {"family": {"kind": "origin", "n": 64}}
MILLER = {
    "family": {"kind": "miller", "n": 64, "c1": 1.0, "c2": 2.0, "lambdas": [[0.3, 0.8]]}
}


class TestConfig:
    def test_unknown_command(self):
        with pytest.raises(ValueError, match="unknown command"):
            _cfg("frobnicate", CIRCLE12)

    def test_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json({"command": "check", "instanc": {}})

    def test_bad_format(self):
        with pytest.raises(ValueError, match="format"):
            ExperimentConfig(command="check", instance=CIRCLE12, options={}, format="xml")

    def test_overrides_apply(self):
        cfg = ExperimentConfig.from_json(
            {"command": "check", "instance": CIRCLE12}, seed=7, format="csv"
        )
        assert cfg.seed == 7
        assert cfg.format == "csv"

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

    @pytest.mark.parametrize("command", ["winding", "balayage", "fourier"])
    def test_single_instance_commands_refuse_a_count(self, monkeypatch, command):
        drawn = []
        monkeypatch.setattr(cli, "random_instances", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="one instance"):
            run(_cfg(command, {"random": {"count": 2, "degree": 12}}))
        assert drawn == []

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
        def unconverged(p, *args, **kwargs):
            rs = find_roots(derivative(p))
            return RootSet(rs.points, rs.residuals + 1e-3, False)

        monkeypatch.setattr(rootfind, "critical_points", unconverged)
        with pytest.raises(RuntimeError, match="critical point"):
            run(_cfg(command, ORIGIN64, {"n_list": [64]} if command == "sweep" else {}))

    def test_balayage_origin(self):
        rec = run(_cfg("balayage", ORIGIN64, {"R": 1.2}))
        assert rec.ok
        assert rec.results["zero_mean"] == pytest.approx(1.0, abs=1e-8)
        assert rec.results["sup_gap"] > 0

    def test_winding_agreement(self):
        rec = run(_cfg("winding", {"family": {"kind": "origin", "n": 100}}))
        assert rec.ok
        assert rec.results["winding"] == -1
        assert rec.results["agree"]

    def test_family_member(self):
        rec = run(_cfg("family", MILLER, {"theta_grid": 128}))
        assert rec.ok
        assert rec.results["ten_max"] < 1e-9
        assert len(rec.results["lamin_values"]) == 128

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
        rec = run(_cfg("check", CIRCLE12))
        path = emit_plot_data(rec, "zeros", str(tmp_path / "z.csv"))
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["re", "im", "is_critical"]
        assert len(rows) == 1 + 12 + 11

        bal = run(_cfg("balayage", ORIGIN64, {"R": 1.3}))
        emit_plot_data(bal, "balayage", str(tmp_path / "b.csv"))

        fam = run(_cfg("family", MILLER, {"theta_grid": 64}))
        emit_plot_data(fam, "dd_curve", str(tmp_path / "d.csv"))

    def test_balayage_angles_derived_not_stored(self, tmp_path):
        # the payload carries no thetas; CSV and plot files still list
        # the sample angles of the density, as when they were stored
        cfg = _cfg("balayage", ORIGIN64, {"R": 1.3})
        rec = run(cfg)
        assert "thetas" not in rec.results
        assert "thetas" not in rec.payload()
        inst = example_origin(64)
        dz = balayage(empirical_measure(zeros_of(inst.f)), 1.3, p=inst.f)
        crit = critical_points(inst.f).points
        dx = balayage(empirical_measure(crit), 1.3, dz.samples.size, p=derivative(inst.f))
        assert rec.results["zero_density"] == dz.samples.tolist()
        assert rec.results["crit_density"] == dx.samples.tolist()
        thetas = [fmt17(t) for t in dz.thetas.tolist()]

        write_record(rec, str(tmp_path / "rec.csv"), "csv")
        rows = list(csv.reader((tmp_path / "rec.csv").open()))
        assert rows[0] == ["theta", "zero_density", "crit_density"]
        assert rows[1:] == [
            [t, fmt17(z), fmt17(x)] for t, z, x in zip(thetas, dz.samples, dx.samples)
        ]

        emit_plot_data(rec, "balayage", str(tmp_path / "b.csv"))
        rows = list(csv.reader((tmp_path / "b.csv").open()))
        assert rows[0] == ["theta", "value"]
        assert rows[1:] == [[t, fmt17(z)] for t, z in zip(thetas, dz.samples)]

    def test_plot_data_kind_mismatch(self, tmp_path):
        rec = run(_cfg("check", CIRCLE12))
        with pytest.raises(ValueError, match="balayage"):
            emit_plot_data(rec, "balayage", str(tmp_path / "x.csv"))
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_plot_data(rec, "scatter3d", str(tmp_path / "x.csv"))


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
        assert json.loads(payload) == expected
        assert "\n" not in payload

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": instance, "options": options, "seed": 2}))
        out_path = tmp_path / "out.json"
        main([command, "--config", str(cfg_path), "--out", str(out_path)])
        text = out_path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        written = json.loads(text)
        assert written.pop("wall_time_s") >= 0.0
        assert written == dict(expected, config=dict(rec.config, out=str(out_path)))

        capsys.readouterr()
        main([command, "--config", str(cfg_path)])
        line, verdict = capsys.readouterr().out.splitlines()
        printed = json.loads(line)
        printed.pop("wall_time_s")
        assert printed == expected
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
        assert rec.results["radius"] > 0.3


class TestMain:
    def test_end_to_end_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": CIRCLE12, "options": {}, "seed": 0}))
        out_path = tmp_path / "out.json"
        code = main(["check", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["ok"] is True
        assert "ok=True" in capsys.readouterr().out

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

    def test_n_refused_for_a_polynomial(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        instance = {"polynomial": {"coeffs": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}, "a": 1.0}
        cfg_path.write_text(json.dumps({"instance": instance}))
        code = main(["check", "--config", str(cfg_path), "--n", "16"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --n")

    @pytest.mark.parametrize(
        "command, options, key",
        [
            ("fourier", {"ks": 5}, "ks"),
            ("balayage", {"N": [1]}, "N"),
            ("identities", {"points": "x"}, "points"),
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
