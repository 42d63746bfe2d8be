"""Experiment driver: configured runs with reproducible records.

Every experiment is a JSON config naming a command, an instance
source, and numeric options, each declared in one table; a key no
table declares raises.  Running one produces a record whose numeric
payload is a pure function of config and seed: reruns are
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
from dataclasses import asdict, dataclass, fields

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
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        merged = {"command": "", "instance": {}, "options": {}, **obj}
        merged.update((key, val) for key, val in overrides.items() if val is not None)
        if "seed" in merged:
            merged["seed"] = int(merged["seed"])
        return cls(**merged)

    def as_dict(self) -> dict:
        return asdict(self)


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def payload(self) -> str:
        """Canonical text of everything that must reproduce byte-identically."""
        return dumps({k: v for k, v in self.to_json().items() if k != "wall_time_s"})


def _list_of(parse):
    """Parser of a JSON list whose items each go through parse."""
    return lambda values: [parse(v) for v in values]


# Each instance source with its keys as {key: (parser, default)}: random, a
# polynomial (whose keys sit at the instance's top level), and each family kind.
_SOURCES = {
    "random": {"count": (int, 1), "degree": (int, 8)},
    "polynomial": {"polynomial": (poly_from_json, None), "a": (float, None)},
    "circle": {"kind": (str, ""), "n": (int, 0)},
    "origin": {"kind": (str, ""), "n": (int, 0)},
    "miller": {
        "kind": (str, ""),
        "n": (int, 0),
        "c1": (float, 1.0),
        "c2": (float, 1.0),
        "lambdas": (_list_of(from_cpair), ()),
    },
}
_FAMILY_KINDS = ("circle", "origin", "miller")


def _read(spec: dict, given: dict, what: str) -> dict:
    """Parse given by spec's {key: (parser, default)}; an undeclared key or bad value raises."""
    unknown = set(given) - set(spec)
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} in {what}; expected {list(spec)}")
    out = {}
    for key, (parse, default) in spec.items():
        try:
            out[key] = parse(given[key]) if key in given else default
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for {key!r} in {what}: {exc}") from exc
    return out


def _read_instance(instance: dict) -> tuple[str, dict]:
    """The instance's source (random, polynomial, or a family kind) and its parsed keys."""
    keys = [k for k in ("family", "polynomial", "random") if k in instance]
    if len(keys) != 1:
        raise ValueError("instance must have exactly one of: family, polynomial, random")
    (key,) = keys
    if key == "polynomial":
        return key, _read(_SOURCES[key], instance, "polynomial instance")
    given = _read({key: (dict, None)}, instance, "instance")[key]
    kind = key if key == "random" else given.get("kind", "")
    if key == "family" and kind not in _FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected circle, origin, or miller")
    return kind, _read(_SOURCES[kind], given, f"{kind} instance")


def _build_instances(source: tuple[str, dict], rng: np.random.Generator, crit: bool = True):
    """Resolve a parsed instance source into (label, instance, crit_or_None) triples.

    With ``crit``, family members built in coefficient form carry their
    analytic critical points, and the critical points of a record's
    random instances are solved in one batch; everything else leaves
    crit to the generic solver.  Runners that never read crit pass
    ``crit=False`` and get None throughout.  Each crit is certified
    where it is used.
    """
    kind, src = source
    if kind == "polynomial":
        if src["a"] is None:
            raise ValueError("polynomial instances need an explicit 'a'")
        return [("polynomial", SendovInstance(src["polynomial"], src["a"]), None)]
    if kind == "random":
        count, degree = src["count"], src["degree"]
        if count < 1 or degree < 2:
            raise ValueError("random instances need count >= 1 and degree >= 2")
        insts = random_instances(rng, degree, count)
        crits = find_roots_many([derivative(i.f) for i in insts]) if crit else [None] * count
        return [(f"random-{i}", inst, c) for i, (inst, c) in enumerate(zip(insts, crits))]
    if kind == "circle":
        return [("circle", example_circle(src["n"]), None)]
    if kind == "origin":
        return [("origin", example_origin(src["n"]), None)]
    params = _family_params(src, src["n"])
    return [("miller", miller_family(params), family_critical_points(params) if crit else None)]


def _one_instance(source: tuple[str, dict], rng: np.random.Generator, crit: bool = True):
    """The one (label, instance, crit) triple of a command; raises before drawing more."""
    kind, src = source
    if kind == "random" and src["count"] > 1:
        raise ValueError(f"this command reads one instance, not random count {src['count']}")
    return _build_instances(source, rng, crit)[0]


def _family_params(fam: dict, n: int) -> FamilyParams:
    """Parameters of a parsed miller family source at degree n."""
    return FamilyParams(n=n, c1=fam["c1"], c2=fam["c2"], lambdas=fam["lambdas"])


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


def _run_check(source, rng):
    rows = []
    for label, inst, crit in _build_instances(source, rng):
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


def _run_identities(source, rng, tol, points):
    rows = []
    worst = 0.0
    means = []
    for label, inst, crit in _build_instances(source, rng):
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


def _run_balayage(source, rng, R, N):
    label, inst, crit = _one_instance(source, rng)
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


def _run_winding(source, rng, r1, r2):
    label, inst, crit = _one_instance(source, rng)
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


def _run_family(source, rng, theta_grid, tol):
    kind, fam = source
    if kind != "miller":
        raise ValueError("this command needs instance.family of kind 'miller'")
    params = _family_params(fam, fam["n"])
    rep = verify_family(params, theta_grid=theta_grid)
    flat = _family_result(params, rep)
    flat["lamin_thetas"] = [float(t) for t in rep.lamin_thetas]
    flat["lamin_values"] = [float(v) for v in rep.lamin_values]
    ok = bool(rep.arc_argument_ok and rep.ten_residuals.max() < tol)
    return flat, ok


def _run_fourier(source, rng, R, ks, N):
    label, inst, _ = _one_instance(source, rng, crit=False)
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


def _sweep_case(kind: str, fam: dict, n: int, theta_grid: int) -> dict:
    if kind == "miller":
        params = _family_params(fam, n)
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


def _run_sweep(source, rng, n_list, theta_grid):
    kind, fam = source
    if kind not in _FAMILY_KINDS:
        raise ValueError("sweep needs instance.family with kind circle, origin, or miller")
    if not n_list:
        raise ValueError("sweep needs options.n_list")
    rows = [_sweep_case(kind, fam, n, theta_grid) for n in n_list]
    return {"kind": kind, "rows": rows}, True


# Each command once: its runner and its options as {key: (parser, default)}.
_COMMANDS = {
    "check": (_run_check, {}),
    "identities": (_run_identities, {"tol": (float, 1e-8), "points": (int, 20)}),
    "balayage": (
        _run_balayage,
        {"R": (float, 1.5), "N": (lambda v: None if v is None else int(v), None)},
    ),
    "winding": (_run_winding, {"r1": (float, 0.2), "r2": (float, 0.4)}),
    "family": (_run_family, {"theta_grid": (int, 2048), "tol": (float, 1e-9)}),
    "fourier": (
        _run_fourier,
        {"R": (float, 1.0), "ks": (_list_of(int), range(9)), "N": (int, 4096)},
    ),
    "sweep": (_run_sweep, {"n_list": (_list_of(int), ()), "theta_grid": (int, 2048)}),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: ExperimentConfig) -> ExperimentRecord:
    """Execute the configured experiment and return its record."""
    t0 = time.perf_counter()
    runner, spec = _COMMANDS[cfg.command]
    options = _read(spec, cfg.options, f"{cfg.command} options")
    source = _read_instance(cfg.instance)
    results, ok = runner(source, np.random.default_rng(cfg.seed), **options)
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


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_record(record: ExperimentRecord, path: str, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(dumps(record.to_json()))
            fh.write("\n")
        return
    _write_csv(path, *_csv_rows(record))


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
        rows = [
            [fmt17(re), fmt17(im), flag]
            for inst in insts
            for key, flag in (("zeros", "0"), ("critical_points", "1"))
            for re, im in inst[key]
        ]
        _write_csv(path, ["re", "im", "is_critical"], rows)
        return path
    if kind == "balayage":
        if "zero_density" not in res:
            raise ValueError("record carries no balayage density data")
        rows = [[fmt17(t), fmt17(v)] for t, v in zip(_thetas(res), res["zero_density"])]
        _write_csv(path, ["theta", "value"], rows)
        return path
    if kind == "dd_curve":
        if "lamin_values" not in res:
            raise ValueError("record carries no dd-curve data")
        rows = [[fmt17(t), fmt17(v)] for t, v in zip(res["lamin_thetas"], res["lamin_values"])]
        _write_csv(path, ["theta", "lhs"], rows)
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
    try:
        if args.n is not None:
            inst = raw.get("instance", {})
            if "polynomial" in inst:
                raise ValueError("--n does not apply to a polynomial instance")
            for key in ("family", "random"):
                if key in inst:
                    inst[key]["n" if key == "family" else "degree"] = args.n
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
