"""Configured experiments with reproducible records and plot data.

The same driver behind the command line can be scripted: a config
names a command, an instance source, and options; running it returns a
record whose numeric payload is a pure function of config and seed.
Records serialize to JSON, or to CSV as one flat table per command
ready for any external plotting tool.  In JSON, float arrays are
base64 of their float64 bytes; ``serialize.loads`` reads a record back
with every array rebuilt bit for bit, and the CSV is the readable view.
"""

import os
import tempfile

from sendovlab.cli import ExperimentConfig, run, write_record
from sendovlab.serialize import loads


def main():
    cfg = ExperimentConfig(
        command="family",
        instance={
            "family": {
                "kind": "miller",
                "n": 64,
                "c1": 1.0,
                "c2": 2.0,
                "lambdas": [[0.3, 0.8]],
            }
        },
        options={"theta_grid": 256},
        seed=0,
    )
    record = run(cfg)
    print(f"family run ok = {record.ok}")
    print(f"  radial-law residual max = {record.results['ten_max']:.3e}")
    print(f"  wall time {record.wall_time_s:.3f} s (excluded from the payload)")

    # rerunning the same config reproduces the payload byte for byte
    assert run(cfg).payload() == record.payload()
    print("  payload is byte-identical across reruns")

    outdir = tempfile.mkdtemp(prefix="sendovlab_demo_")
    json_path = os.path.join(outdir, "family.json")
    write_record(record, json_path, "json")
    write_record(record, os.path.join(outdir, "dd_curve.csv"), "csv")

    # reading the record back: its arrays are the in-memory ones, bit for bit
    with open(json_path) as fh:
        written = loads(fh.read())
    for key in ("lamin_thetas", "lamin_values"):
        assert written["results"][key].tobytes() == record.results[key].tobytes()
    print(f"  read back {json_path}: arrays equal the in-memory record")

    check = run(
        ExperimentConfig(
            command="check",
            instance={"family": {"kind": "circle", "n": 16}},
            options={},
            seed=0,
        )
    )
    write_record(check, os.path.join(outdir, "zeros.csv"), "csv")
    print(f"  wrote record + plot tables under {outdir}")
    for name in sorted(os.listdir(outdir)):
        print(f"    {name}")


if __name__ == "__main__":
    main()
