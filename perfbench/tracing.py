"""Span tracing around credalmc's public functions, installed from outside.

`Tracer.installed` replaces each boundary below with a wrapper that
records a span (name, start, end, parent span, query id) and restores
the originals on exit.  Module-level functions are replaced under every
name that refers to them, so re-imports such as `credalmc.cli.limit_upper`
are traced too.  Spans stay in memory until `save` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

CREDAL_FAMILIES = (
    "Linear",
    "Vacuous",
    "VertexSet",
    "Contamination",
    "BeliefFunction",
    "ProbInterval",
)

#: (module, function) pairs traced as spans named "<module>.<function>".
FUNCTION_SPANS = (
    ("cli", "scenario_from_json"),
    ("cli", "run"),
    ("limits", "limit_upper"),
    ("oracle", "envelope"),
    ("oracle", "path_probabilities"),
)

#: (module, class, method, span name) traced as spans.
METHOD_SPANS = (
    ("chain", "ImpreciseMarkovChain", "marginal_upper", "chain.marginal_upper"),
    ("chain", "ImpreciseMarkovChain", "joint_upper", "chain.joint_upper"),
    ("chain", "ImpreciseMarkovChain", "path_mass_bounds", "chain.path_mass_bounds"),
    ("transition", "UpperTransitionOperator", "apply", "transition.apply"),
    ("transition", "UpperTransitionOperator", "apply_lower", "transition.apply_lower"),
    ("transition", "UpperTransitionOperator", "is_regular", "transition.is_regular"),
) + tuple(
    ("credal", family, method, f"credal.{family}.{method}")
    for method in ("upper", "vertices")
    for family in CREDAL_FAMILIES
)

#: Boundaries too fine-grained for a span; only their calls are counted.
COUNTED = (
    ("credal", "ProbInterval", "event_upper", "credal.ProbInterval.event_upper"),
    ("states", "Gamble", "__init__", "states.Gamble"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTION_SPANS) + tuple(
    name for *_, name in METHOD_SPANS
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for *_, name in COUNTED:
        units[f"{name}.calls"] = "count"
    units["credal.ProbInterval.event_upper.per_upper"] = "count"
    units["limits.limit_upper.iterations"] = "count"
    units["oracle.assignments_per_s"] = "1/s"
    units["trace.overhead_frac"] = "ratio"
    return units


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    `parent[i]` is the index of span i's parent, or -1 for a root.  The
    children of one span must not overlap each other, which holds for
    spans of nested calls recorded on one thread.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


class Tracer:
    """In-memory span recorder plus call counters."""

    def __init__(self):
        self.names: list[str] = list(SPAN_NAMES)
        self.queries: list[str] = []
        self.query = -1
        self.name = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: 0 for *_, name in COUNTED}
        self.limit_iterations = 0
        self._stack: list[int] = []

    def begin_query(self, qid: str) -> None:
        self.queries.append(qid)
        self.query = len(self.queries) - 1

    # ------------------------------------------------------------------
    # Wrappers

    def _span(self, name: str, fn, after=None):
        nid = self.names.index(name)
        names, parents, qids = self.name, self.parent, self.qid
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            qids.append(tracer.query)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _add_iterations(self, report) -> None:
        self.limit_iterations += report.iterations

    @contextmanager
    def installed(self):
        """Trace every boundary while the block runs; restore on exit."""
        undo = []
        try:
            for mod, fn_name in FUNCTION_SPANS:
                original = getattr(sys.modules[f"credalmc.{mod}"], fn_name)
                after = self._add_iterations if fn_name == "limit_upper" else None
                wrapper = self._span(f"{mod}.{fn_name}", original, after)
                for module in _credalmc_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, value, True))
                            setattr(module, attr, wrapper)
            boundaries = [(m, c, meth, self._span, n) for m, c, meth, n in METHOD_SPANS]
            boundaries += [(m, c, meth, self._counter, n) for m, c, meth, n in COUNTED]
            for mod, cls_name, meth, make, name in boundaries:
                cls = getattr(sys.modules[f"credalmc.{mod}"], cls_name)
                original = getattr(cls, meth)
                undo.append((cls, meth, original, meth in vars(cls)))
                setattr(cls, meth, make(name, original))
            yield self
        finally:
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # ------------------------------------------------------------------
    # Results

    def snapshot(self) -> tuple[int, dict[str, int], int]:
        """Marker for `metrics`: spans, counts and iterations so far."""
        return len(self.start), dict(self.counts), self.limit_iterations

    def metrics(self, since) -> dict[str, float]:
        """Per-layer metrics of the spans recorded after `since`."""
        first, counts0, iterations0 = since
        name = np.array(self.name[first:], dtype=np.int64)
        start = np.array(self.start[first:])
        end = np.array(self.end[first:])
        parent = np.array(self.parent[first:], dtype=np.int64)
        parent = np.where(parent >= 0, parent - first, -1)
        own = self_times(start, end, parent)
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        for counter, total in self.counts.items():
            out[f"{counter}.calls"] = total - counts0[counter]
        uppers = out["credal.ProbInterval.upper.calls"]
        evaluations = out["credal.ProbInterval.event_upper.calls"]
        out["credal.ProbInterval.event_upper.per_upper"] = (
            evaluations / uppers if uppers else 0.0
        )
        out["limits.limit_upper.iterations"] = self.limit_iterations - iterations0
        envelope = name == self.names.index("oracle.envelope")
        envelope_s = float((end[envelope] - start[envelope]).sum())
        assignments = out["oracle.path_probabilities.calls"]
        out["oracle.assignments_per_s"] = assignments / envelope_s if envelope_s else 0.0
        return out

    def save(self, path: Path) -> None:
        """Write every recorded span to a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            query=np.array(self.qid, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            names=np.array(json.dumps(self.names)),
            queries=np.array(json.dumps(self.queries)),
        )


def _credalmc_modules():
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "credalmc" or n.startswith("credalmc."))
    ]
