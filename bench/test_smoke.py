"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest bench/test_smoke.py
It is not part of the tier-1 suite, which collects only tests/.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

COMMANDS_RUN = {
    "family-scale": {"family", "sweep", "winding"},
    "ensemble-small": {"check", "identities", "winding"},
    "kernels": {"balayage", "fourier"},
}
# a layer each workload is built to exercise
DOMINANT = {
    "family-scale": "families.verify_family.calls",
    "ensemble-small": "potential.verify_basic_identities.calls",
    "kernels": "potential.balayage.kernel_evals",
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def tiny_run(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    *_, detail, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return json.loads(detail)["detail"], result


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_every_command_is_benchmarked():
    assert set(COMMANDS_RUN) == set(WORKLOADS)
    assert set().union(*COMMANDS_RUN.values()) == {
        "check", "identities", "balayage", "winding", "family", "fourier", "sweep"
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    detail, result = tiny_run(workload, 0)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    commands = {k[len("cmd."):-len("_s")] for k in detail if k.startswith("cmd.")}
    assert commands == COMMANDS_RUN[workload]
    assert all(detail[f"cmd.{c}_s"]["unit"] == "s" for c in commands)
    assert detail["ops_failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert detail["records_per_s"]["unit"] == "1/s"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _, result = tiny_run(workload, 1)
    metrics = result["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics[DOMINANT[workload]]["value"] > 0
    assert metrics["cli.run.self_s"]["value"] > 0
    # the top-level spans (cli.run, cli.payload) account for the traced pass
    assert 0.9 < metrics["trace.top_level_coverage"]["value"] <= 1.0


def test_tracer_rebinds_every_import_and_restores():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import sendovlab.cli
        import sendovlab.rootfind
        from tracing import TRACED_MODULES, Tracer

        originals = {
            id(fn)
            for name in TRACED_MODULES
            for fn in vars(sys.modules[name]).values()
            if inspect.isfunction(fn) and fn.__module__ == name
            and fn.__name__ in sys.modules[name].__all__
        }

        def bound_originals():
            return [
                (mod.__name__, attr)
                for mod in list(sys.modules.values())
                if mod.__name__.split(".")[0] == "sendovlab"
                for attr, value in vars(mod).items()
                if id(value) in originals
            ]

        find_roots = sendovlab.rootfind.find_roots
        assert sendovlab.cli.find_roots is find_roots
        with Tracer().installed():
            assert bound_originals() == []
        assert sendovlab.cli.find_roots is find_roots
        assert len(bound_originals()) > len(originals)
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
