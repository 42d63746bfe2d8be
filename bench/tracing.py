"""Per-layer spans recorded from outside the package.

``Tracer.installed()`` replaces every public function of the traced
sendovlab modules with a wrapper that records a span (name, request,
parent, thread, start, end, time spent in child spans, and counts read
off the call's arguments and result).  A module that did
``from .rootfind import find_roots`` holds its own binding of the
function, so the wrapper is written into every sendovlab module that
binds the original object, and every binding is restored on exit.

Spans are kept in memory and folded into ``<module>.<function>.<stat>``
metrics by ``layer_stats``; ``self_s`` is a span's duration minus the
time covered by its child spans in the same thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

TRACED_MODULES = (
    "sendovlab.poly_core",
    "sendovlab.rootfind",
    "sendovlab.sendov_check",
    "sendovlab.measures",
    "sendovlab.potential",
    "sendovlab.contour",
    "sendovlab.families",
    "sendovlab.cli",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _root_counts(args, kwargs, rs):
    degree = _arg(args, kwargs, 0, "p").degree
    return {
        "degree_sum": degree,
        "degree_sq_sum": degree * degree,
        "unconverged": int(not rs.converged),
        "max_backward_error": float(rs.residuals.max()) if rs.residuals.size else 0.0,
    }


# Work counts read at a layer boundary, keyed by span name.  Counts are
# summed over calls, except ``max_*`` counts, which keep the maximum.
COUNTERS = {
    "rootfind.find_roots": _root_counts,
    "poly_core.from_roots": lambda args, kwargs, p: {"degree_sum": p.degree},
    "potential.verify_basic_identities": lambda args, kwargs, rep: {
        "points_evaluated": len(rep.evaluated),
        "points_skipped": len(rep.skipped),
    },
    # nodes x atoms of the direct Poisson-kernel sum, computed from sizes
    "potential.balayage": lambda args, kwargs, d: {
        "kernel_evals": d.samples.size * len(_arg(args, kwargs, 0, "m")),
    },
    "contour.winding_number": lambda args, kwargs, w: {"samples_used": w.samples_used},
}


# The per-layer metrics the benchmark reports, with their units.  A layer
# that a workload never calls reads 0.
LAYER_METRICS = {
    "rootfind.find_roots.calls": "count",
    "rootfind.find_roots.self_s": "s",
    "rootfind.find_roots.degree_sum": "count",
    "rootfind.find_roots.degree_sq_sum": "count",
    "rootfind.find_roots.unconverged": "count",
    "rootfind.find_roots.max_backward_error": "ratio",
    "families.verify_family.calls": "count",
    "families.verify_family.self_s": "s",
    "families.miller_family.self_s": "s",
    "families.family_critical_points.self_s": "s",
    "families.random_instance.self_s": "s",
    "poly_core.from_roots.calls": "count",
    "poly_core.from_roots.self_s": "s",
    "poly_core.from_roots.degree_sum": "count",
    "poly_core.evaluate.calls": "count",
    "poly_core.evaluate.self_s": "s",
    "potential.verify_basic_identities.calls": "count",
    "potential.verify_basic_identities.self_s": "s",
    "potential.verify_basic_identities.points_evaluated": "count",
    "potential.verify_basic_identities.points_skipped": "count",
    "potential.balayage.calls": "count",
    "potential.balayage.self_s": "s",
    "potential.balayage.kernel_evals": "count",
    "potential.circle_fourier_coeff.calls": "count",
    "potential.circle_fourier_coeff.self_s": "s",
    "contour.winding_number.self_s": "s",
    "contour.winding_number.samples_used": "count",
    "contour.select_radius.self_s": "s",
    "contour.zero_pole_count.self_s": "s",
    "sendov_check.critical_points.self_s": "s",
    "sendov_check.sendov_margin.self_s": "s",
    "measures.empirical_measure.calls": "count",
    "measures.empirical_measure.self_s": "s",
    "cli.run.self_s": "s",
    "cli.payload.self_s": "s",
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    request: object
    name: str
    thread: int
    start: float
    end: float
    child_s: float
    counts: dict | None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class _Frame:
    __slots__ = ("id", "child_s")

    def __init__(self, span_id):
        self.id = span_id
        self.child_s = 0.0


class Tracer:
    """Collects spans while installed; ``request`` tags every new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            frame = _Frame(next(self._ids))
            stack.append(frame)
            start = perf_counter()
            result = counts = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += end - start
                if counter is not None and result is not None:
                    counts = counter(args, kwargs, result)
                # list.append is atomic, so sweep worker threads may share the list
                self.spans.append(
                    Span(
                        frame.id,
                        parent.id if parent else None,
                        self.request,
                        name,
                        threading.get_ident(),
                        start,
                        end,
                        frame.child_s,
                        counts,
                    )
                )

        return traced

    @contextmanager
    def installed(self):
        """Wrap the traced functions in every sendovlab module that binds them."""
        from sendovlab.cli import ExperimentRecord

        wrappers = {}
        for modname in TRACED_MODULES:
            module = sys.modules[modname]
            short = modname.rsplit(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        restore = []
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "sendovlab"]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        payload = ExperimentRecord.payload
        restore.append((ExperimentRecord, "payload", payload))
        ExperimentRecord.payload = self._wrap("cli.payload", payload)
        try:
            yield self
        finally:
            for owner, attr, value in restore:
                setattr(owner, attr, value)

    def top_level_s(self, thread: int) -> float:
        """Total duration of the root spans recorded in one thread."""
        return sum(s.end - s.start for s in self.spans if s.parent is None and s.thread == thread)


def layer_stats(spans) -> dict[str, float]:
    """Fold spans into ``<span name>.{calls,self_s,<count>}`` totals."""
    out: dict[str, float] = {}
    for s in spans:
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + s.self_s
        for key, value in (s.counts or {}).items():
            name = f"{s.name}.{key}"
            if key.startswith("max_"):
                out[name] = max(out.get(name, value), value)
            else:
                out[name] = out.get(name, 0) + value
    return out
