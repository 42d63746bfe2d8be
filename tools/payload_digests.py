"""Digests of the CLI's reproducible payloads over a fixed matrix of configs.

Usage (from the repository root):

    python tools/payload_digests.py [--tiny] [--src SRC]
    python tools/payload_digests.py [--tiny] --against DIR

The first form prints one line ``label digest`` per config: the first 16
hex digits of the sha256 of the record's payload or, where the run
refuses the config (ValueError or RuntimeError, as the CLI reports
them), of its ``ErrorType: message`` text.  A config that runs has a
second line, ``label/csv digest``, for the bytes that ``--format csv``
writes of its record.  The matrix is

- every command on each of seven sources (see :func:`configs`), at seeds 0 and 3
- every benchmark workload at size ``tiny``, at seeds 0, 1 and 5
- the benchmark's ``KNOWN_DEFECTS`` probes

and ``--tiny`` keeps only the workloads.  The package digested is the one
in ``SRC``, this tree's ``src/`` by default.  ``--against DIR`` computes the
same matrix on the package in ``DIR/src``, in a fresh interpreter, lists
each label whose digest differs between the two trees, and exits 1 if any
does.  Digests depend on numpy and the BLAS, so compare two trees on one
machine; ``--against .`` checks that two processes of one tree agree.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sweep refuses every source without an n_list
OPTIONS = {"sweep": {"n_list": [8, 16]}}
SEEDS, WORKLOAD_SEEDS = (0, 3), (0, 1, 5)


def configs(tiny: bool):
    """The matrix as (label, ExperimentConfig) pairs, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import KNOWN_DEFECTS, MILLER, WORKLOADS

    from sendovlab.cli import COMMANDS, ExperimentConfig

    sources = {
        "random-3x12": {"random": {"count": 3, "degree": 12}},
        "random-1x24": {"random": {"count": 1, "degree": 24}},
        # z^4 - 1/16 with its roots attached, and z^3 - z without
        "quartic-roots": {
            "polynomial": {
                "coeffs": [[-0.0625, 0], [0, 0], [0, 0], [0, 0], [1, 0]],
                "roots": [[0.5, 0], [0, 0.5], [-0.5, 0], [0, -0.5]],
            },
            "a": 0.5,
        },
        "cubic-bare": {"polynomial": {"coeffs": [[0, 0], [-1, 0], [0, 0], [1, 0]]}, "a": 0.0},
        "circle-16": {"family": {"kind": "circle", "n": 16}},
        "origin-16": {"family": {"kind": "origin", "n": 16}},
        "miller-48": {"family": dict(MILLER, n=48)},
    }
    out = []
    if not tiny:
        for command in COMMANDS:
            for name, instance in sources.items():
                for seed in SEEDS:
                    cfg = ExperimentConfig(command, instance, OPTIONS.get(command, {}), seed)
                    out.append((f"{command}/{name}/seed{seed}", cfg))
    for workload, build in WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            for label, cfg in build(seed, "tiny"):
                out.append((f"{workload}/tiny/seed{seed}/{label}", cfg))
    if not tiny:
        out += [(f"defect/{label}", cfg) for label, cfg in KNOWN_DEFECTS]
    return out


def _digest(data: bytes) -> str:
    return sha256(data).hexdigest()[:16]


def digests(tiny: bool) -> dict[str, str]:
    """{label: digest} of the matrix on the imported package."""
    from sendovlab.cli import run, write_record

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "record.csv"
        for label, cfg in configs(tiny):
            try:
                record = run(cfg)
            except (ValueError, RuntimeError) as exc:  # the refusals of the CLI
                out[label] = _digest(f"{type(exc).__name__}: {exc}".encode())
                continue
            out[label] = _digest(record.payload().encode())
            write_record(record, str(path), "csv")
            out[f"{label}/csv"] = _digest(path.read_bytes())
    return out


def import_from(src: Path):
    """Import sendovlab from src, or exit if another copy would be imported."""
    sys.path.insert(0, str(src))
    import sendovlab

    if not Path(sendovlab.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: sendovlab imported from {sendovlab.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="the workloads at tiny only")
    parser.add_argument("--against", type=Path, help="a tree whose src/ to compare with")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="the package source to digest"
    )
    args = parser.parse_args(argv)
    import_from(args.src)
    ours = digests(args.tiny)
    if args.against is None:
        for label, digest in ours.items():
            print(label, digest)
        return 0
    cmd = [sys.executable, __file__, "--src", str(args.against / "src")]
    child = subprocess.run(cmd + ["--tiny"] * args.tiny, capture_output=True, text=True)
    if child.returncode != 0:
        sys.exit(f"error: the run on {args.against} failed:\n{child.stderr}")
    theirs = dict(line.rsplit(" ", 1) for line in child.stdout.splitlines())
    differ = [label for label in {**ours, **theirs} if ours.get(label) != theirs.get(label)]
    for label in differ:
        print(label, ours.get(label, "-"), theirs.get(label, "-"))
    print(f"{len(differ)} of {len(ours)} records differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
