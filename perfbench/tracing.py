"""Spans and counts at the library's public entry points, for the traced run.

The tracer wraps entry points from the outside and edits no library file.
A module-level function is replaced in every module that holds a binding
of it, because ``from .ordered_group import compare`` copies the name into
the importing module; a method is replaced on its class.  A callable bound
before the tracer is installed (for instance a ``cmp_to_key`` made at
import time) keeps the original and is not seen.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory until the run ends.  A layer's self time is the total duration
of its spans minus the part of that time their child spans cover.
``ordered_group.add`` and ``ordered_group.compare`` are counted only: a
span per call would cost more than the work it measures.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("ordered_group.add.calls", "count", "lower"),
    ("ordered_group.compare.calls", "count", "lower"),
    ("cuts.calls", "count", "lower"),
    ("cuts.self_s", "s", "lower"),
    ("series_field.mul.calls", "count", "lower"),
    ("series_field.mul.self_s", "s", "lower"),
    ("series_field.mul.pairs", "count", "lower"),
    ("series_field.mul.terms_out", "count", "lower"),
    ("series_field.mul.max_terms", "count", "lower"),
    ("series_field.sigma.calls", "count", "lower"),
    ("series_field.sigma.self_s", "s", "lower"),
    ("series_field.sigma.terms_out", "count", "lower"),
    ("series_field.sigma.cache_entries", "count", "lower"),
    ("series_field.field_op.self_s", "s", "lower"),
    ("swan.reduce.calls", "count", "lower"),
    ("swan.reduce.self_s", "s", "lower"),
    ("swan.reduce.steps", "count", "lower"),
    ("swan.reduce.exhausted", "count", "lower"),
    ("swan.galois_image.calls", "count", "lower"),
    ("swan.galois_image.self_s", "s", "lower"),
    ("swan.in_p_multiples.calls", "count", "lower"),
    ("swan.in_p_multiples.self_s", "s", "lower"),
    ("defect_lab.verify_delta.self_s", "s", "lower"),
    ("defect_lab.verify_delta.monomials", "count", "lower"),
    ("defect_lab.build.self_s", "s", "lower"),
    ("defect_lab.limit_check.self_s", "s", "lower"),
    ("separation.self_s", "s", "lower"),
    ("cli.parse.self_s", "s", "lower"),
    ("cli.format.self_s", "s", "lower"),
    ("setup.sympy_import_s", "s", "lower"),
    ("setup.ramify_import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# span names whose calls are reported
_SPAN_CALLS = ("cuts", "series_field.mul", "series_field.sigma", "swan.reduce", "swan.galois_image", "swan.in_p_multiples")
# span names whose self time is reported
_SPAN_SELF = (
    "cuts",
    "series_field.mul",
    "series_field.sigma",
    "series_field.field_op",
    "swan.reduce",
    "swan.galois_image",
    "swan.in_p_multiples",
    "defect_lab.verify_delta",
    "defect_lab.build",
    "defect_lab.limit_check",
    "separation",
    "cli.parse",
    "cli.format",
)


def _size(series) -> int:
    """Number of t-exponents in a series' support (num + den for a quotient)."""
    if hasattr(series, "num"):
        return _size(series.num) + _size(series.den)
    terms = series.terms()
    try:
        return len(terms)
    except TypeError:
        return sum(1 for _ in terms)


def _after_mul(tracer: "Tracer", args, result) -> None:
    a, b = args[0], args[1]
    out = _size(result)
    tracer.counts["series_field.mul.pairs"] += _size(a) * _size(b)
    tracer.counts["series_field.mul.terms_out"] += out
    if out > tracer.counts["series_field.mul.max_terms"]:
        tracer.counts["series_field.mul.max_terms"] = out


def _after_sigma(tracer: "Tracer", args, result) -> None:
    tracer.sigmas[id(args[0])] = args[0]
    tracer.counts["series_field.sigma.terms_out"] += _size(result)


def _after_reduce(tracer: "Tracer", args, result) -> None:
    tracer.counts["swan.reduce.steps"] += result.iterations
    tracer.counts["swan.reduce.exhausted"] += result.status == "exhausted"


def _after_verify(tracer: "Tracer", args, result) -> None:
    tracer.counts["defect_lab.verify_delta.monomials"] += result.monomials_checked


class Tracer:
    """Collects spans and counts inside `span` blocks."""

    def __init__(self) -> None:
        self.active = False
        self.op: Optional[int] = None
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.sigmas: Dict[int, object] = {}
        self._undo: List[tuple] = []

    # -- wrappers

    def _spanned(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        """A span around the benchmark's own unit of work (set-up, one op);
        the tracer records only inside one."""
        self.active, self.op = True, op
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, op)
            self.active, self.op = False, None

    # -- installation

    def _replace_function(self, module, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if not (modname == "ramify" or modname.startswith("ramify.") or modname == "workloads"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _replace_method(self, cls, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        from ramify import cli, cuts, defect_lab, ordered_group, separation, series_field, swan

        for name in ("add", "compare"):
            self._replace_function(ordered_group, name, lambda fn, n=name: self._counted(f"ordered_group.{n}", fn))
        for name in ("subset", "contains", "multiply"):
            self._replace_method(cuts.Cut, name, lambda fn: self._spanned("cuts", fn))
        self._replace_method(series_field.SeriesElement, "__mul__", lambda fn: self._spanned("series_field.mul", fn, _after_mul))
        self._replace_method(series_field.SigmaSpec, "apply", lambda fn: self._spanned("series_field.sigma", fn, _after_sigma))
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__"):
            self._replace_method(series_field.FieldElement, name, lambda fn: self._spanned("series_field.field_op", fn))
        self._replace_function(swan, "artin_schreier_reduce", lambda fn: self._spanned("swan.reduce", fn, _after_reduce))
        self._replace_function(swan, "galois_image", lambda fn: self._spanned("swan.galois_image", fn))
        self._replace_method(swan.EnlargedGroup, "in_p_multiples", lambda fn: self._spanned("swan.in_p_multiples", fn))
        self._replace_function(defect_lab, "verify_delta_bounds", lambda fn: self._spanned("defect_lab.verify_delta", fn, _after_verify))
        self._replace_function(defect_lab, "build_defect_model", lambda fn: self._spanned("defect_lab.build", fn))
        self._replace_function(defect_lab, "conductor_limit_check", lambda fn: self._spanned("defect_lab.limit_check", fn))
        for name in ("separation_bound", "connectivity_threshold"):
            self._replace_function(separation, name, lambda fn: self._spanned("separation", fn))
        for name in ("parse_group", "parse_element", "parse_bound", "parse_cut", "parse_series"):
            self._replace_function(cli, name, lambda fn: self._spanned("cli.parse", fn))
        for name in ("format_element", "format_surd", "format_cut", "format_rsw"):
            self._replace_function(cli, name, lambda fn: self._spanned("cli.format", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results

    def layer_totals(self) -> Tuple[Counter, Dict[str, float]]:
        """Span count and self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Dict[str, float] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
        return calls, self_s

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric the tracer measures itself (all but the
        import times and the overhead, which the caller supplies)."""
        calls, self_s = self.layer_totals()
        out: Dict[str, float] = {
            "ordered_group.add.calls": self.counts["ordered_group.add"],
            "ordered_group.compare.calls": self.counts["ordered_group.compare"],
        }
        for name in _SPAN_CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in _SPAN_SELF:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for key in (
            "series_field.mul.pairs",
            "series_field.mul.terms_out",
            "series_field.mul.max_terms",
            "series_field.sigma.terms_out",
            "swan.reduce.steps",
            "swan.reduce.exhausted",
            "defect_lab.verify_delta.monomials",
        ):
            out[key] = self.counts[key]
        # the expansion cache is private to SigmaSpec; read, never called
        out["series_field.sigma.cache_entries"] = sum(len(getattr(s, "_expansions", ())) for s in self.sigmas.values())
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
