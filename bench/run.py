"""sendov-lab benchmark: CLI experiment records, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload family-scale --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: a pass runs the workload's records
in order through ``sendovlab.cli.run``, each after the previous one has
returned.  One untimed pass warms caches and records every payload;
timed passes then repeat until ``--seconds`` have elapsed.  A record
fails if it raises, returns ``ok=false``, or its payload differs from the
warm-up pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.py`` plus the tracing overhead.  The last line of stdout is
the result object; the line before it carries details (per-command
latency, failures, payload digests, provenance).  Workloads and metrics
are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from hashlib import sha256
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_SAMPLES = 7
REF_LOOPS_PER_PASS = 3


def cap_threads() -> int:
    """Cap BLAS and sweep threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(int(os.environ.get(var, nproc)), nproc))
    # the CLI's sweep pool defaults to 4 threads
    os.environ["SENDOV_LAB_THREADS"] = str(
        min(int(os.environ.get("SENDOV_LAB_THREADS", 4)), nproc)
    )
    return nproc


def import_package():
    """Import sendovlab from this checkout's src/, or exit without a result."""
    if not (SRC / "sendovlab" / "cli.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'sendovlab'}")
    sys.path.insert(0, str(SRC))
    import sendovlab

    if not Path(sendovlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: sendovlab imported from {sendovlab.__file__}, not {SRC}")
    return sendovlab


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(nproc: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "SENDOV_LAB_THREADS": int(os.environ["SENDOV_LAB_THREADS"]),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_pass(records, reference, failures, tracer=None):
    """Run every record once; return (wall seconds, latencies, ok count).

    ``latencies[i]`` is the time record i took to run and serialize, or
    None if it raised.  ``reference`` maps record index to the first
    payload seen; later payloads must equal it byte for byte.
    ``failures`` counts each failure reason.
    """
    from sendovlab.cli import run

    latencies = []
    ok = 0
    t_pass = perf_counter()
    for i, (label, cfg) in enumerate(records):
        if tracer is not None:
            tracer.request = (label, i)
        t0 = perf_counter()
        try:
            record = run(cfg)
            payload = record.payload()
        except Exception as exc:  # a raising record is a failed operation, not a harness fault
            latencies.append(None)
            reason = f"{label}: {type(exc).__name__}: {exc}"
        else:
            latencies.append(perf_counter() - t0)
            if not record.ok:
                reason = f"{label}: ok=false"
            elif reference.setdefault(i, payload) != payload:
                reason = f"{label}: payload differs from the warm-up pass"
            else:
                ok += 1
                continue
        failures[reason] = failures.get(reason, 0) + 1
    return perf_counter() - t_pass, latencies, ok


def measure_setup() -> float:
    """Median time for a fresh interpreter to import sendovlab.cli.

    numpy is imported before the clock starts: its own import time moves
    by a factor of 2 with the page cache and machine load, and no change
    to the package can alter it.  Any other dependency the package
    imports is still counted.
    """
    code = (
        "import time, numpy; t = time.perf_counter(); import sendovlab.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_probes(probes) -> list[dict]:
    """Run the known-defect records once each and describe their outcome."""
    out = []
    for label, cfg in probes:
        failures = {}
        _, _, ok = run_pass([(label, cfg)], {}, failures)
        outcome = "ok" if ok else next(iter(failures)).split(": ", 1)[1]
        out.append({"record": label, "outcome": outcome})
    return out


def reference_loop() -> float:
    """Time a fixed pure-Python loop that uses nothing from the package.

    Its fastest run in a process tracks how loaded the machine is during
    that process, so pass times divided by it compare across runs.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    return perf_counter() - t0


def end_to_end(records, seconds, failures, reference, probes):
    from sendovlab.cli import COMMANDS

    walls, per_pass, ref_loop, ok_total = [], [], [], 0
    deadline = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        ref_loop += [reference_loop() for _ in range(REF_LOOPS_PER_PASS)]
        wall, latencies, ok = run_pass(records, reference, failures)
        walls.append(wall)
        per_pass.append(latencies)
        ok_total += ok
    attempted = len(walls) * len(records)
    # each record's timed runs; the fastest of them is the least disturbed
    # by other load on the machine
    by_record = [[p[i] for p in per_pass if p[i] is not None] for i in range(len(records))]
    by_command = {}
    for (_, cfg), times in zip(records, by_record):
        by_command.setdefault(cfg.command, []).extend(times)
    pass_s = sum(min(t) for t in by_record if t)
    metrics = {
        "pass_rel": {"value": pass_s / min(ref_loop), "unit": "ratio"},
        "ops_ok_frac": {"value": ok_total / attempted, "unit": "ratio"},
        "setup_s": {"value": measure_setup(), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    detail = {
        "pass_s": {"value": pass_s, "unit": "s"},
        "reference_loop_s": {"unit": "s", "min": min(ref_loop), **quartiles(ref_loop)},
        "pass_wall_s": {"unit": "s", **quartiles(walls)},
        "records_per_s": {"value": ok_total / sum(walls), "unit": "1/s"},
        "ops_failed_frac": {"value": (attempted - ok_total) / attempted, "unit": "ratio"},
        **{
            f"cmd.{c}_s": {"unit": "s", "min": min(t), **quartiles(t)}
            for c in COMMANDS
            if (t := by_command.get(c))
        },
        "known_defects": run_probes(probes),
    }
    return metrics, detail, attempted, attempted - ok_total


def per_layer(records, seconds, failures, reference):
    from tracing import LAYER_METRICS, Tracer, layer_stats

    untraced, traced, stats, coverage = [], [], [], []
    main_thread = threading.get_ident()
    deadline = perf_counter() + seconds
    pairs = 0
    while pairs < MIN_PASSES or perf_counter() < deadline:
        tracer = Tracer()
        # alternate which side runs first, so drift does not favour one
        for traced_side in (pairs % 2 == 1, pairs % 2 == 0):
            if traced_side:
                with tracer.installed():
                    wall, _, _ = run_pass(records, reference, failures, tracer)
                traced.append(wall)
                stats.append(layer_stats(tracer.spans))
                coverage.append(tracer.top_level_s(main_thread) / wall)
            else:
                untraced.append(run_pass(records, reference, failures)[0])
        pairs += 1
    metrics = {
        name: {"value": statistics.median(s.get(name, 0) for s in stats), "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics.update(
        {
            "trace.untraced_pass_s": {"value": untraced_s, "unit": "s"},
            "trace.traced_pass_s": {"value": traced_s, "unit": "s"},
            "trace.overhead_s": {"value": traced_s - untraced_s, "unit": "s"},
            "trace.top_level_coverage": {"value": statistics.median(coverage), "unit": "ratio"},
        }
    )
    attempted = (len(untraced) + len(traced)) * len(records)
    return metrics, {"traced_passes": len(traced)}, attempted


def main(argv=None) -> int:
    nproc = cap_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test degrees"
    )
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(BENCH))
    from workloads import KNOWN_DEFECTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    records = WORKLOADS[args.workload](args.seed, args.size)
    probes = KNOWN_DEFECTS if args.workload == "family-scale" and args.size == "full" else []

    failures: dict[str, int] = {}
    reference: dict[int, str] = {}
    run_pass(records, reference, failures)  # warm-up: untimed, fills reference
    warmup_failures = dict(failures)
    failures.clear()
    digests = {
        records[i][0]: sha256(p.encode()).hexdigest()[:16] for i, p in sorted(reference.items())
    }

    if args.trace:
        metrics, detail, attempted = per_layer(records, args.seconds, failures, reference)
        failed = sum(failures.values())
    else:
        metrics, detail, attempted, failed = end_to_end(
            records, args.seconds, failures, reference, probes
        )
    detail.update(
        workload=args.workload,
        failures=failures,
        warmup_failures=warmup_failures,
        payload_sha256=digests,
        provenance=provenance(nproc, args.seed),
    )
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not warmup_failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
