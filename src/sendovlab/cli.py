"""Experiment driver: configured runs with reproducible records.

Every experiment is a JSON config naming a command, an instance
source, and numeric options.  Running one produces a record whose
numeric payload is a pure function of config and seed: reruns are
byte-identical.  The same records feed the CSV plot-data emitters.

Usage:  sendov-lab <command> --config cfg.json [--n N] [--seed S]
                             [--out PATH] [--format json|csv]
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .contour import select_radius, winding_number, zero_pole_count
from .families import (
    FamilyParams,
    FamilyReport,
    example_circle,
    example_origin,
    family_critical_points,
    miller_family,
    random_instances,
    verify_family,
)
from .measures import empirical_measure, moment, quantitative_zetas
from .poly_core import SendovInstance, derivative
from .potential import CircleDensity, balayage, circle_fourier_coeffs, verify_basic_identities
from .rootfind import (
    RootSet,
    certified_crit,
    find_roots,
    find_roots_many,
    zeros_of,
)
from .sendov_check import sendov_margin
from .serialize import cpair, cpairs, dumps, fmt17, from_cpair, poly_from_json

__all__ = ["ExperimentConfig", "ExperimentRecord", "emit_plot_data", "main", "run"]

COMMANDS = ("check", "identities", "balayage", "winding", "family", "fourier", "sweep")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    command: str
    instance: dict
    options: dict
    seed: int = 0
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(
                f"unknown command {self.command!r}; expected one of {', '.join(COMMANDS)}"
            )
        if self.format not in ("json", "csv"):
            raise ValueError("format must be 'json' or 'csv'")
        if not isinstance(self.instance, dict):
            raise ValueError("instance must be an object")
        if not isinstance(self.options, dict):
            raise ValueError("options must be an object")

    @classmethod
    def from_json(cls, obj: dict, **overrides) -> "ExperimentConfig":
        known = {"command", "instance", "options", "seed", "out", "format"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        merged = {
            "command": obj.get("command", ""),
            "instance": obj.get("instance", {}),
            "options": obj.get("options", {}),
            "seed": int(obj.get("seed", 0)),
            "out": obj.get("out"),
            "format": obj.get("format", "json"),
        }
        for key, val in overrides.items():
            if val is not None:
                merged[key] = val
        return cls(**merged)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "instance": self.instance,
            "options": self.options,
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
        }


@dataclass(frozen=True)
class ExperimentRecord:
    """Result of one experiment run.

    ``results`` holds only numbers, strings, and nested lists built
    deterministically from the config and seed; ``wall_time_s`` is the
    one field excluded from reproducibility comparisons.
    """

    config: dict
    results: dict
    ok: bool
    version: str
    wall_time_s: float

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "results": self.results,
            "ok": self.ok,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
        }

    def payload(self) -> str:
        """Canonical text of everything that must reproduce byte-identically."""
        return dumps(
            {
                "config": self.config,
                "results": self.results,
                "ok": self.ok,
                "version": self.version,
            }
        )


def _build_instances(cfg: ExperimentConfig, rng: np.random.Generator, crit: bool = True):
    """Resolve the instance source into (label, instance, crit_or_None) triples.

    With ``crit``, family members built in coefficient form carry their
    analytic critical points, and the critical points of a record's
    random instances are solved in one batch; everything else leaves
    crit to the generic solver.  Runners that never read crit pass
    ``crit=False`` and get None throughout.  Each crit is certified
    where it is used.
    """
    src = cfg.instance
    keys = [k for k in ("family", "polynomial", "random") if k in src]
    if len(keys) != 1:
        raise ValueError("instance must have exactly one of: family, polynomial, random")
    kind = keys[0]
    if kind == "polynomial":
        p = poly_from_json(src["polynomial"])
        if "a" not in src:
            raise ValueError("polynomial instances need an explicit 'a'")
        inst = SendovInstance(p, float(src["a"]))
        return [("polynomial", inst, None)]
    if kind == "random":
        rnd = src["random"]
        count = int(rnd.get("count", 1))
        degree = int(rnd.get("degree", 8))
        if count < 1 or degree < 2:
            raise ValueError("random instances need count >= 1 and degree >= 2")
        insts = random_instances(rng, degree, count)
        crits = find_roots_many([derivative(i.f) for i in insts]) if crit else [None] * count
        return [(f"random-{i}", inst, c) for i, (inst, c) in enumerate(zip(insts, crits))]
    fam_cfg = dict(src["family"])
    fam = fam_cfg.get("kind", "")
    n = int(fam_cfg.get("n", 0))
    if fam == "circle":
        return [("circle", example_circle(n), None)]
    if fam == "origin":
        return [("origin", example_origin(n), None)]
    if fam == "miller":
        params = _family_params(fam_cfg, n)
        inst = miller_family(params)
        return [("miller", inst, family_critical_points(params) if crit else None)]
    raise ValueError(f"unknown family kind {fam!r}; expected circle, origin, or miller")


def _family_params(fam_cfg: dict, n: int) -> FamilyParams:
    """Parameters of a miller family config at degree n."""
    return FamilyParams(
        n=n,
        c1=float(fam_cfg.get("c1", 1.0)),
        c2=float(fam_cfg.get("c2", 1.0)),
        lambdas=np.array([from_cpair(v) for v in fam_cfg.get("lambdas", [])]),
    )


def _solved_zeros(inst: SendovInstance) -> RootSet | None:
    """The zeros of inst.f solved once for a record, or None when they are attached."""
    return find_roots(inst.f) if inst.f.roots is None else None


def _sample_points(rng: np.random.Generator, count: int, avoid: np.ndarray) -> np.ndarray:
    """Sample points with |z| <= 2 at distance >= 0.05 from the avoid set."""
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) <= 2.0 and np.min(np.abs(z - avoid)) >= 0.05:
            out.append(z)
    return np.array(out, dtype=np.complex128)


def _run_check(cfg, rng):
    rows = []
    for label, inst, crit in _build_instances(cfg, rng):
        crit = certified_crit(inst.f, crit)
        rs = _solved_zeros(inst)
        rep = sendov_margin(inst, crit=crit, rs=rs)
        zeros = zeros_of(inst.f, rs)
        rows.append(
            {
                "label": label,
                "n": inst.n,
                "a": inst.a,
                "margins": [float(v) for v in rep.margins],
                "min_margin": rep.min_margin,
                "holds": rep.holds,
                "zeros": cpairs(zeros),
                "critical_points": cpairs(crit.points),
            }
        )
    results = {
        "instances": rows,
        "min_margin": min(r["min_margin"] for r in rows),
        "all_hold": all(r["holds"] for r in rows),
    }
    return results, True


def _run_identities(cfg, rng):
    tol = float(cfg.options.get("tol", 1e-8))
    points = int(cfg.options.get("points", 20))
    rows = []
    worst = 0.0
    means = []
    for label, inst, crit in _build_instances(cfg, rng):
        rs = _solved_zeros(inst)
        zeros = zeros_of(inst.f, rs)
        crit = certified_crit(inst.f, crit)
        avoid = np.concatenate([zeros, crit.points])
        zs = _sample_points(rng, points, avoid)
        rep = verify_basic_identities(inst.f, zs, crit=crit, rs=rs)
        per = {
            lab: float(rep.residuals[i].max()) if rep.residuals.size else 0.0
            for i, lab in enumerate(rep.labels)
        }
        rows.append(
            {
                "label": label,
                "n": inst.n,
                "per_identity_max": per,
                "max_residual": rep.max_residual,
                "mean_residual": rep.mean_residual,
                "skipped": rep.skipped,
            }
        )
        worst = max(worst, rep.max_residual)
        means.append(rep.mean_residual)
    results = {
        "instances": rows,
        "max_residual": worst,
        "mean_residual": float(np.mean(means)) if means else 0.0,
        "tol": tol,
    }
    return results, worst <= tol


def _run_balayage(cfg, rng):
    R = float(cfg.options.get("R", 1.5))
    N = cfg.options.get("N")
    N = int(N) if N is not None else None
    label, inst, crit = _build_instances(cfg, rng)[0]
    zeros = zeros_of(inst.f)
    crit = certified_crit(inst.f, crit)
    dz = balayage(empirical_measure(zeros), R, N)
    dx = balayage(empirical_measure(crit.points), R, len(dz.samples))
    gap = float(np.max(np.abs(dz.samples - dx.samples)))
    n = inst.n
    normalized = (
        gap * n * (R - 1.0) ** 2 / math.log(1.0 / (R - 1.0))
        if 1.0 < R < 2.0
        else None
    )
    results = {
        "label": label,
        "n": n,
        "R": R,
        "zero_density": dz.samples.tolist(),
        "crit_density": dx.samples.tolist(),
        "sup_gap": gap,
        "normalized_gap": normalized,
        "zero_mean": dz.mean(),
        "crit_mean": dx.mean(),
    }
    return results, True


def _run_winding(cfg, rng):
    r1 = float(cfg.options.get("r1", 0.2))
    r2 = float(cfg.options.get("r2", 0.4))
    label, inst, crit = _build_instances(cfg, rng)[0]
    rs = _solved_zeros(inst)
    crit = certified_crit(inst.f, crit)
    sel = select_radius(inst.f, r1, r2, rs=rs, crit=crit)
    wind = winding_number(inst.f, sel.radius)
    count = zero_pole_count(inst.f, sel.radius, rs=rs, crit=crit)
    results = {
        "label": label,
        "n": inst.n,
        "radius": sel.radius,
        "objective": sel.objective,
        "winding": wind.winding,
        "zero_pole_count": count,
        "agree": wind.winding == count,
        "min_modulus": wind.min_modulus,
        "samples_used": wind.samples_used,
    }
    return results, bool(wind.winding == count)


def _family_result(params: FamilyParams, rep: FamilyReport) -> dict:
    fine = rep.fine
    sigma2 = fine["sigma2"]
    return {
        "n": params.n,
        "c1": params.c1,
        "c2": params.c2,
        "m": params.m,
        "ten_max": float(rep.ten_residuals.max()),
        "zon_max": float(rep.zero_radius_residuals.max()),
        "terr_max": float(rep.t_prediction_errors.max()),
        "n_terr_max": float(params.n * rep.t_prediction_errors.max()),
        "lamin_mean": float(rep.lamin_values.mean()),
        "lamin_max": float(rep.lamin_values.max()),
        "arc_argument_ok": rep.arc_argument_ok,
        "sum_lambda_sq": cpair(rep.sum_lambda_sq),
        "sum_abs_lambda_sq": rep.sum_abs_lambda_sq,
        "fine": {
            "mu": cpair(fine["mu"]),
            "sigma2": sigma2,
            "one_minus_a": fine["one_minus_a"],
            "u_xi_at_a": fine["u_xi_at_a"],
            "abs_mu_over_sigma2": abs(fine["mu"]) / sigma2 if sigma2 > 0 else None,
            "one_minus_a_over_sigma2": fine["one_minus_a"] / sigma2 if sigma2 > 0 else None,
            "abs_u_over_sigma2": abs(fine["u_xi_at_a"]) / sigma2 if sigma2 > 0 else None,
        },
    }


def _run_family(cfg, rng):
    fam_cfg = cfg.instance.get("family")
    if not fam_cfg or fam_cfg.get("kind") != "miller":
        raise ValueError("this command needs instance.family of kind 'miller'")
    params = _family_params(fam_cfg, int(fam_cfg["n"]))
    theta_grid = int(cfg.options.get("theta_grid", 2048))
    rep = verify_family(params, theta_grid=theta_grid)
    flat = _family_result(params, rep)
    flat["lamin_thetas"] = [float(t) for t in rep.lamin_thetas]
    flat["lamin_values"] = [float(v) for v in rep.lamin_values]
    tol = float(cfg.options.get("tol", 1e-9))
    ok = bool(rep.arc_argument_ok and rep.ten_residuals.max() < tol)
    return flat, ok


def _run_fourier(cfg, rng):
    R = float(cfg.options.get("R", 1.0))
    ks = [int(k) for k in cfg.options.get("ks", list(range(0, 9)))]
    N = int(cfg.options.get("N", 4096))
    label, inst, _ = _build_instances(cfg, rng, crit=False)[0]
    zeros = zeros_of(inst.f)
    mz = empirical_measure(zeros)
    rows = []
    worst = 0.0
    for k, coeff in zip(ks, circle_fourier_coeffs(mz, R, ks, N=N)):
        if k == 0:
            closed = complex(-math.log(R))
        else:
            closed = complex(moment(mz, k)) / (2.0 * k * R**k)
        resid = abs(coeff - closed)
        worst = max(worst, resid)
        rows.append(
            {"k": k, "coeff": cpair(coeff), "closed_form": cpair(closed), "residual": resid}
        )
    results = {"label": label, "R": R, "N": N, "rows": rows, "max_residual": worst}
    return results, worst <= 1e-8


def _sweep_case(template: dict, n: int, theta_grid: int) -> dict:
    kind = template.get("kind")
    if kind == "miller":
        params = _family_params(template, n)
        return _family_result(params, verify_family(params, theta_grid=theta_grid))
    inst = example_circle(n) if kind == "circle" else example_origin(n)
    crit = certified_crit(inst.f)
    rep = sendov_margin(inst, crit=crit)
    diag = quantitative_zetas(inst, crit=crit)
    return {
        "n": n,
        "min_margin": rep.min_margin,
        "holds": rep.holds,
        "e_log_inv_zeta": diag.e_log_inv_zeta,
        "e_log_xi_minus_a": diag.e_log_xi_minus_a,
        "n_e_log_inv_zeta": diag.n_e_log_inv_zeta,
        "n_e_log_xi_minus_a": diag.n_e_log_xi_minus_a,
    }


def _run_sweep(cfg, rng):
    fam_cfg = cfg.instance.get("family")
    if not fam_cfg or fam_cfg.get("kind") not in ("circle", "origin", "miller"):
        raise ValueError("sweep needs instance.family with kind circle, origin, or miller")
    n_list = [int(v) for v in cfg.options.get("n_list", [])]
    if not n_list:
        raise ValueError("sweep needs options.n_list")
    theta_grid = int(cfg.options.get("theta_grid", 2048))
    rows = [_sweep_case(fam_cfg, n, theta_grid) for n in n_list]
    return {"kind": fam_cfg.get("kind"), "rows": rows}, True


_RUNNERS = {
    "check": _run_check,
    "identities": _run_identities,
    "balayage": _run_balayage,
    "winding": _run_winding,
    "family": _run_family,
    "fourier": _run_fourier,
    "sweep": _run_sweep,
}


def run(cfg: ExperimentConfig) -> ExperimentRecord:
    """Execute the configured experiment and return its record."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    results, ok = _RUNNERS[cfg.command](cfg, rng)
    return ExperimentRecord(
        config=cfg.as_dict(),
        results=results,
        ok=bool(ok),
        version=__version__,
        wall_time_s=time.perf_counter() - t0,
    )


def _thetas(res: dict) -> list[float]:
    """The sample angles 2 pi k / N of a balayage result's N densities."""
    return CircleDensity(res["R"], res["zero_density"]).thetas.tolist()


def _csv_rows(record: ExperimentRecord) -> tuple[list[str], list[list[str]]]:
    """Flatten the record into a command-appropriate table."""
    cmd = record.config["command"]
    res = record.results
    if cmd == "check":
        header = ["label", "zero_re", "zero_im", "margin"]
        rows = []
        for inst in res["instances"]:
            for (re, im), mg in zip(inst["zeros"], inst["margins"]):
                rows.append([inst["label"], fmt17(re), fmt17(im), fmt17(mg)])
        return header, rows
    if cmd == "identities":
        header = ["label", "identity", "max_residual"]
        rows = [
            [inst["label"], lab, fmt17(v)]
            for inst in res["instances"]
            for lab, v in inst["per_identity_max"].items()
        ]
        return header, rows
    if cmd == "balayage":
        header = ["theta", "zero_density", "crit_density"]
        rows = [
            [fmt17(t), fmt17(z), fmt17(x)]
            for t, z, x in zip(_thetas(res), res["zero_density"], res["crit_density"])
        ]
        return header, rows
    if cmd == "winding":
        header = ["radius", "objective", "winding", "zero_pole_count", "agree"]
        return header, [
            [
                fmt17(res["radius"]),
                fmt17(res["objective"]),
                str(res["winding"]),
                str(res["zero_pole_count"]),
                str(res["agree"]).lower(),
            ]
        ]
    if cmd == "family":
        header = ["theta", "lamin"]
        rows = [
            [fmt17(t), fmt17(v)]
            for t, v in zip(res["lamin_thetas"], res["lamin_values"])
        ]
        return header, rows
    if cmd == "fourier":
        header = ["k", "coeff_re", "coeff_im", "closed_re", "closed_im", "residual"]
        rows = [
            [
                str(r["k"]),
                fmt17(r["coeff"][0]),
                fmt17(r["coeff"][1]),
                fmt17(r["closed_form"][0]),
                fmt17(r["closed_form"][1]),
                fmt17(r["residual"]),
            ]
            for r in res["rows"]
        ]
        return header, rows
    # sweep: union of scalar keys across rows, in first-seen order
    keys: list[str] = []
    for row in res["rows"]:
        for k, v in row.items():
            if isinstance(v, (int, float, bool, str)) and k not in keys:
                keys.append(k)
    rows = []
    for row in res["rows"]:
        out = []
        for k in keys:
            v = row.get(k)
            if isinstance(v, bool):
                out.append(str(v).lower())
            elif isinstance(v, (int, float)):
                out.append(fmt17(v) if isinstance(v, float) else str(v))
            else:
                out.append("" if v is None else str(v))
        rows.append(out)
    return keys, rows


def write_record(record: ExperimentRecord, path: str, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(dumps(record.to_json()))
            fh.write("\n")
        return
    header, rows = _csv_rows(record)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_plot_data(record: ExperimentRecord, kind: str, path: str) -> str:
    """Write one of the plottable slices of a record as CSV.

    kinds: "zeros" (re, im, is_critical), "balayage" (theta, value),
    "dd_curve" (theta, lhs).
    """
    res = record.results
    if kind == "zeros":
        insts = res.get("instances")
        if not insts or "zeros" not in insts[0]:
            raise ValueError("record carries no zero scatter data")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "is_critical"])
            for inst in insts:
                for re, im in inst["zeros"]:
                    writer.writerow([fmt17(re), fmt17(im), "0"])
                for re, im in inst["critical_points"]:
                    writer.writerow([fmt17(re), fmt17(im), "1"])
        return path
    if kind == "balayage":
        if "zero_density" not in res:
            raise ValueError("record carries no balayage density data")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "value"])
            for t, v in zip(_thetas(res), res["zero_density"]):
                writer.writerow([fmt17(t), fmt17(v)])
        return path
    if kind == "dd_curve":
        if "lamin_values" not in res:
            raise ValueError("record carries no dd-curve data")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "lhs"])
            for t, v in zip(res["lamin_thetas"], res["lamin_values"]):
                writer.writerow([fmt17(t), fmt17(v)])
        return path
    raise ValueError(f"unknown plot kind {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sendov-lab",
        description="Numerical experiments on zeros, critical points, and potentials.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--n", type=int, default=None, help="override instance degree")
    parser.add_argument("--seed", type=int, default=None, help="override rng seed")
    parser.add_argument("--out", default=None, help="override output path")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    raw["command"] = args.command
    if args.n is not None:
        inst = raw.get("instance", {})
        for key in ("family", "random"):
            if key in inst:
                inst[key]["n" if key == "family" else "degree"] = args.n
    try:
        cfg = ExperimentConfig.from_json(
            raw, seed=args.seed, out=args.out, format=args.format
        )
        record = run(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        write_record(record, cfg.out, cfg.format)
        print(f"wrote {cfg.out}")
    else:
        print(dumps(record.to_json()))
    print(f"ok={record.ok}")
    return 0 if record.ok else 1


if __name__ == "__main__":
    sys.exit(main())
