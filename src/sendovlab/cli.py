"""Experiment driver: configured runs with reproducible records.

Every experiment is a JSON config naming a command, an instance
source, and numeric options, each declared in one table that
:func:`_read` parses; a key no table declares raises.  Running one
produces a record whose numeric payload is a pure function of config
and seed: reruns are byte-identical.  A record is written as JSON or
as one CSV table, each field of which :func:`_cell` formats.

Usage:  sendov-lab <command> --config cfg.json [--n N] [--seed S]
                             [--out PATH [--format json|csv]]
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
    family_zeros,
    miller_family,
    origin_derivative,
    random_instances,
    verify_family,
)
from .measures import empirical_measure, moment, quantitative_zetas
from .poly_core import Polynomial, SendovInstance, derivative
from .potential import (
    IDENTITY_STANDOFF,
    CircleDensity,
    balayage,
    circle_fourier_coeffs,
    verify_basic_identities,
)
# find_roots stays bound here, though the CLI calls family_zeros instead:
# bench/test_smoke.py checks that the tracer rebinds it in this module
from .rootfind import certified, critical_points, find_roots, zero_sets  # noqa: F401
from .sendov_check import sendov_margin
from .serialize import cpair, dumps, finite_float, fmt17, from_cpair

__all__ = ["ExperimentConfig", "ExperimentRecord", "main", "run"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: every field determines the record."""

    command: str
    instance: dict
    options: dict
    seed: int = 0

    def __post_init__(self):
        _read(_CONFIG, vars(self), "config")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """The config of a JSON object, where options may be left out."""
        return cls(**_read(_CONFIG, {"options": {}, **obj}, "config"))


@dataclass(frozen=True)
class ExperimentRecord:
    """Result of one experiment run.

    ``results`` holds only numbers, strings, nested lists and dicts, and
    float64 ndarrays, built deterministically from the config and seed;
    the JSON text carries each array as base64 of its bytes, which
    ``serialize.loads`` decodes bit for bit.  ``wall_time_s`` is the one
    field excluded from reproducibility comparisons.
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


def _of_type(kind):
    """Parser that passes a value of the JSON type kind through and refuses any other.

    JSON true and false are not integers here, although bool is an int.
    """

    def parse(value):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{value!r} is not of type {kind.__name__}")
        return value

    return parse


_int, _list, _object = _of_type(int), _of_type(list), _of_type(dict)


def _list_of(parse):
    """Parser of a JSON list whose items each go through parse."""
    return lambda values: [parse(v) for v in _list(values)]


_pairs = _list_of(from_cpair)


def _optional(parse):
    """Parser of a JSON value that is null or goes through parse."""
    return lambda value: None if value is None else parse(value)


def _command(name):
    if name not in COMMANDS:
        raise ValueError(f"unknown command {name!r}; expected one of {', '.join(COMMANDS)}")
    return name


# The keys of a config and of a polynomial as {key: (parser, default)}; ... marks a required key
_CONFIG = {
    "command": (_command, ...),
    "instance": (_object, ...),
    "options": (_object, ...),
    "seed": (_int, 0),
}
_POLYNOMIAL = {"coeffs": (_pairs, ...), "roots": (_optional(_pairs), None)}


def _polynomial(obj) -> Polynomial:
    """The polynomial of a JSON object: its coefficients and, optionally, its roots."""
    poly = _read(_POLYNOMIAL, _object(obj), "polynomial")
    roots = poly["roots"]
    return Polynomial(np.array(poly["coeffs"]), None if roots is None else np.array(roots))


# Each instance source with its keys as {key: (parser, default)}: random, a
# polynomial (whose keys sit at the instance's top level), and each family kind.
# A family's kind is one of _FAMILY_KINDS by the time its keys are read.
_SOURCES = {
    "random": {"count": (_int, 1), "degree": (_int, 8)},
    "polynomial": {"polynomial": (_polynomial, ...), "a": (finite_float, ...)},
    "circle": {"kind": (str, ""), "n": (_int, 0)},
    "origin": {"kind": (str, ""), "n": (_int, 0)},
    "miller": {
        "kind": (str, ""),
        "n": (_int, 0),
        "c1": (finite_float, 1.0),
        "c2": (finite_float, 1.0),
        "lambdas": (_pairs, ()),
    },
}
_FAMILY_KINDS = ("circle", "origin", "miller")


def _read(spec: dict, given: dict, what: str) -> dict:
    """Parse given by spec's {key: (parser, default)}, where a default of ... marks a required key.

    An undeclared key, a missing required key or a bad value raises.
    """
    unknown = set(given) - set(spec)
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} in {what}; expected {list(spec)}")
    missing = [key for key, (_, default) in spec.items() if default is ... and key not in given]
    if missing:
        raise ValueError(f"missing key(s) {missing} in {what}")
    out = {}
    for key, (parse, default) in spec.items():
        try:
            out[key] = parse(given[key]) if key in given else default
        except (TypeError, ValueError, OverflowError) as exc:
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
    given = _read({key: (_object, None)}, instance, "instance")[key]
    kind = key if key == "random" else given.get("kind", "")
    if key == "family" and kind not in _FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected circle, origin, or miller")
    return kind, _read(_SOURCES[kind], given, f"{kind} instance")


def _build_instances(source: tuple[str, dict], rng: np.random.Generator, crit: bool = True):
    """Resolve a parsed instance source into certified (label, instance, zeros, crit) tuples.

    zeros and crit are root sets, each certified once here.  The miller
    family, which carries no roots, solves its zeros from their predicted
    positions (:func:`family_zeros`) and takes its analytic critical
    points.  Every other source takes its zeros from one
    :func:`zero_sets` call, which evaluates the instances' attached
    zeros in one pass and, for the origin, z**n - z's closed-form
    critical points in the same pass; every other f' comes from one
    :func:`critical_points` call, solved one batch per degree from the
    paired starts of its instance's zeros where they serve and otherwise
    from the Newton polygon.
    Runners that never read crit pass ``crit=False`` and get None.  The
    rules on an instance are the layers': :func:`random_instances` and
    :func:`critical_points` refuse what they cannot draw or solve.
    """
    kind, src = source
    if kind == "miller":
        params = _family_params(src, src["n"])
        inst = miller_family(params)
        fcrit = family_critical_points(params) if crit else None
        rows = [("miller", inst, family_zeros(params, inst.f), fcrit)]
    else:
        if kind == "random":
            insts = random_instances(rng, src["degree"], src["count"])
            labels = [f"random-{i}" for i in range(len(insts))]
        elif kind == "polynomial":
            insts, labels = [SendovInstance(src["polynomial"], src["a"])], [kind]
        else:
            insts = [(example_circle if kind == "circle" else example_origin)(src["n"])]
            labels = [kind]
        fs = [i.f for i in insts]
        if not crit:
            sets, cps = zero_sets(fs), [None] * len(fs)
        elif kind == "origin":
            sets = zero_sets(fs + [origin_derivative(i.n) for i in insts])
            cps = sets[len(fs) :]
        else:
            sets, cps = zero_sets(fs), critical_points(fs)
        rows = zip(labels, insts, sets, cps)
    return [
        (label, inst, certified(zeros), None if cps is None else certified(cps, "critical point"))
        for label, inst, zeros, cps in rows
    ]


def _one_instance(source: tuple[str, dict], rng: np.random.Generator, crit: bool = True):
    """The one (label, instance, zeros, crit) tuple of a command; raises before drawing more."""
    kind, src = source
    if kind == "random" and src["count"] > 1:
        raise ValueError(f"this command reads one instance, not random count {src['count']}")
    return _build_instances(source, rng, crit)[0]


def _family_params(fam: dict, n: int) -> FamilyParams:
    """Parameters of a parsed miller family source at degree n."""
    return FamilyParams(n=n, c1=fam["c1"], c2=fam["c2"], lambdas=fam["lambdas"])


# Candidate-to-avoid distances that one block of :func:`_sample_points`
# forms at most.
_SAMPLE_BLOCK = 1 << 17


def _sample_points(rng: np.random.Generator, count: int, avoid: np.ndarray) -> np.ndarray:
    """Sample points with |z| <= 2 at distance >= IDENTITY_STANDOFF from the avoid set.

    Candidates x + iy, with x and y uniform on [-2, 2], are drawn in
    blocks and the accepted ones kept in order.  A block never holds more
    candidates than points are still missing, and array draws give the
    same doubles as scalar ones, so the points and the state left in rng
    are exactly those of drawing one candidate at a time: later draws
    from rng do not depend on the blocking.  A block is also capped at
    ``_SAMPLE_BLOCK`` candidate-to-avoid distances.
    """
    kept = [np.empty(0, dtype=np.complex128)]
    missing = count
    cap = max(1, _SAMPLE_BLOCK // max(avoid.size, 1))
    while missing > 0:
        z = rng.uniform(-2, 2, (min(missing, cap), 2)).view(np.complex128)[:, 0]
        far = np.all(np.abs(z[:, None] - avoid) >= IDENTITY_STANDOFF, axis=1)
        z = z[(np.abs(z) <= 2.0) & far]
        kept.append(z)
        missing -= z.size
    return np.concatenate(kept)


# Pass bounds: identities' largest residual, family's per-zero log identity, fourier's
_IDENTITY_TOL, _FAMILY_TOL, _FOURIER_TOL = 1e-8, 1e-9, 1e-8


def _run_check(source, rng):
    built = _build_instances(source, rng)
    zsets, csets = [rs for _, _, rs, _ in built], [crit for *_, crit in built]
    reports = sendov_margin(zsets, csets)
    # each instance's points as [re, im] rows: views of one (instances, n, 2) array per set
    count = len(built)
    zeros = np.stack([rs.points for rs in zsets]).view(np.float64).reshape(count, -1, 2)
    crits = np.stack([crit.points for crit in csets]).view(np.float64).reshape(count, -1, 2)
    rows = []
    for (label, inst, _, _), rep, pts, cps in zip(built, reports, zeros, crits):
        rows.append(
            {
                "label": label,
                "n": inst.n,
                "a": inst.a,
                "margins": rep.margins,
                "min_margin": rep.min_margin,
                "holds": rep.holds,
                "zeros": pts,
                "critical_points": cps,
            }
        )
    results = {
        "instances": rows,
        "min_margin": min(r["min_margin"] for r in rows),
        "all_hold": all(r["holds"] for r in rows),
    }
    return results, True


def _run_identities(source, rng, points):
    if points < 1:
        raise ValueError(f"points must be at least 1, not {points}")
    rows = []
    worst = 0.0
    means = []
    for label, inst, rs, crit in _build_instances(source, rng):
        avoid = np.concatenate([rs.points, crit.points])
        zs = _sample_points(rng, points, avoid)
        rep = verify_basic_identities(inst.f, zs, rs, crit)
        maxima = rep.residuals.max(axis=1) if rep.residuals.size else np.zeros(len(rep.labels))
        per = dict(zip(rep.labels, maxima.tolist()))
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
        "mean_residual": float(np.mean(means)),
        "tol": _IDENTITY_TOL,
    }
    return results, worst <= _IDENTITY_TOL


def _run_balayage(source, rng, R, N):
    label, inst, rs, crit = _one_instance(source, rng)
    dz = balayage(empirical_measure(rs.points), R, N, p=inst.f)
    dx = balayage(empirical_measure(crit.points), R, len(dz.samples), p=derivative(inst.f))
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
        "zero_density": dz.samples,
        "crit_density": dx.samples,
        "sup_gap": gap,
        "normalized_gap": normalized,
        "zero_mean": dz.mean(),
        "crit_mean": dx.mean(),
    }
    return results, True


def _run_winding(source, rng, r1, r2):
    label, inst, rs, crit = _one_instance(source, rng)
    sel = select_radius(r1, r2, rs, crit)
    wind = winding_number(inst.f, sel.radius)
    count = zero_pole_count(sel.radius, rs, crit)
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


def _run_family(source, rng, theta_grid):
    kind, fam = source
    if kind != "miller":
        raise ValueError("this command needs instance.family of kind 'miller'")
    params = _family_params(fam, fam["n"])
    rep = verify_family(params, theta_grid=theta_grid)
    flat = _family_result(params, rep)
    flat["lamin_thetas"] = rep.lamin_thetas
    flat["lamin_values"] = rep.lamin_values
    ok = bool(rep.arc_argument_ok and rep.ten_residuals.max() < _FAMILY_TOL)
    return flat, ok


def _run_fourier(source, rng, R, ks, N):
    if not ks:
        raise ValueError("ks must name at least one k")
    label, inst, rs, _ = _one_instance(source, rng, crit=False)
    mz = empirical_measure(rs.points)
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
    return results, worst <= _FOURIER_TOL


def _sweep_case(kind: str, fam: dict, n: int, theta_grid: int) -> dict:
    if kind == "miller":
        params = _family_params(fam, n)
        return _family_result(params, verify_family(params, theta_grid=theta_grid))
    _, inst, rs, crit = _build_instances((kind, {"n": n}), None)[0]
    rep = sendov_margin(rs, crit)
    diag = quantitative_zetas(inst, rs, crit)
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
    "identities": (_run_identities, {"points": (_int, 20)}),
    "balayage": (
        _run_balayage,
        {"R": (finite_float, 1.5), "N": (_optional(_int), None)},
    ),
    "winding": (_run_winding, {"r1": (finite_float, 0.2), "r2": (finite_float, 0.4)}),
    "family": (_run_family, {"theta_grid": (_int, 2048)}),
    "fourier": (
        _run_fourier,
        {"R": (finite_float, 1.0), "ks": (_list_of(_int), range(9)), "N": (_int, 4096)},
    ),
    "sweep": (_run_sweep, {"n_list": (_list_of(_int), ()), "theta_grid": (_int, 2048)}),
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
        config=asdict(cfg),
        results=results,
        ok=bool(ok),
        version=__version__,
        wall_time_s=time.perf_counter() - t0,
    )


def _cell(value) -> str:
    """One CSV field: a float to 17 digits, a bool in lower case, None empty, else str."""
    if isinstance(value, float):
        return fmt17(value)
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)


def _csv_rows(record: ExperimentRecord) -> list[list]:
    """The record as a command-appropriate table of raw values, header row first."""
    cmd = record.config["command"]
    res = record.results
    if cmd == "check":
        rows = [["label", "re", "im", "is_critical", "margin"]]
        for inst in res["instances"]:
            for (re, im), mg in zip(inst["zeros"], inst["margins"]):
                rows.append([inst["label"], re, im, 0, mg])
            for re, im in inst["critical_points"]:
                rows.append([inst["label"], re, im, 1, None])
        return rows
    if cmd == "identities":
        return [["label", "identity", "max_residual"]] + [
            [inst["label"], lab, v]
            for inst in res["instances"]
            for lab, v in inst["per_identity_max"].items()
        ]
    if cmd == "balayage":
        header = ["theta", "zero_density", "crit_density"]
        thetas = CircleDensity(res["R"], res["zero_density"]).thetas
        return [header, *zip(thetas, res["zero_density"], res["crit_density"])]
    if cmd == "winding":
        header = ["radius", "objective", "winding", "zero_pole_count", "agree"]
        return [header, [res[k] for k in header]]
    if cmd == "family":
        return [["theta", "lamin"], *zip(res["lamin_thetas"], res["lamin_values"])]
    if cmd == "fourier":
        header = ["k", "coeff_re", "coeff_im", "closed_re", "closed_im", "residual"]
        rows = [[r["k"], *r["coeff"], *r["closed_form"], r["residual"]] for r in res["rows"]]
        return [header, *rows]
    # sweep: union of scalar keys across rows, in first-seen order
    keys: list[str] = []
    for row in res["rows"]:
        for k, v in row.items():
            if isinstance(v, (int, float, bool, str)) and k not in keys:
                keys.append(k)
    return [keys, *([row.get(k) for k in keys] for row in res["rows"])]


def write_record(record: ExperimentRecord, path: str, fmt: str) -> None:
    with open(path, "w", newline="") as fh:
        if fmt == "json":
            fh.write(dumps(record.to_json()) + "\n")
        else:
            csv.writer(fh).writerows([_cell(v) for v in row] for row in _csv_rows(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sendov-lab",
        description="Numerical experiments on zeros, critical points, and potentials.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--n", type=int, default=None, help="override instance degree")
    parser.add_argument("--seed", type=int, default=None, help="override rng seed")
    parser.add_argument("--out", default=None, help="write the record to this path")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)
    if args.format == "csv" and not args.out:
        parser.error("--format csv needs --out")

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    try:
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        named = raw.setdefault("command", args.command)
        if named != args.command:
            raise ValueError(
                f"config names command {named!r} but the command line runs {args.command!r}"
            )
        if args.seed is not None:
            raw["seed"] = args.seed
        inst = raw.get("instance")
        if args.n is not None and isinstance(inst, dict):
            if "polynomial" in inst:
                raise ValueError("--n does not apply to a polynomial instance")
            for key, degree in (("family", "n"), ("random", "degree")):
                if isinstance(inst.get(key), dict):
                    inst[key][degree] = args.n
        record = run(ExperimentConfig.from_json(raw))
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_record(record, args.out, args.format)
        print(f"wrote {args.out}")
    else:
        print(dumps(record.to_json()))
    print(f"ok={record.ok}")
    return 0 if record.ok else 1


if __name__ == "__main__":
    sys.exit(main())
