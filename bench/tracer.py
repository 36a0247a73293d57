"""Per-layer tracing of sumprod from outside the package.

`Tracer.install()` wraps the public functions of each layer in every sumprod
module namespace that holds them (`factor.fiber_reducibility` is also bound in
`classify`, for instance), so calls made through any import are seen. Each
wrapped call records a span: name, start, end, parent span and the id of the
CLI call it belongs to. The hot leaf functions of `poly` (products,
evaluation, specialization, Taylor shift) are too frequent for a span each;
they are counted and timed in aggregate on their parent span. A span's self
time is its duration minus the time of its children, leaves included.

Spans stay in memory and are written out once, when the run ends.
`Tracer.uninstall()` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: `attr` of `module`, or `Class.method`."""

    name: str
    module: str
    attr: str
    leaf: bool = False
    note: Callable | None = None  # (args, result) -> number kept on the span


def _cells(args, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


TARGETS = [
    *(Target(f"cli.{f}", "sumprod.cli", f) for f in ("cmd_classify", "cmd_sigma", "cmd_incidence", "cmd_scan")),
    *(Target(f"parsing.{f}", "sumprod.parsing", f)
      for f in ("load_poly", "parse_poly", "poly_from_json", "format_bipoly", "format_unipoly")),
    *(Target(f"classify.{f}", "sumprod.classify", f)
      for f in ("normalize_orientation", "is_degenerate", "is_composite", "decompose_fully", "decompose_chain")),
    Target("factor.fiber_reducibility", "sumprod.factor", "fiber_reducibility"),
    Target("factor.count_abs_factors", "sumprod.factor", "count_abs_factors"),
    Target("factor.squarefree", "sumprod.factor", "is_squarefree"),
    Target("factor.squarefree", "sumprod.factor", "squarefree_part"),
    Target("factor.factor_rational", "sumprod.factor", "factor_rational",
           note=lambda args, r: int(r.nontrivial_pieces() >= 2)),
    Target("factor.factor_univariate", "sumprod.factor", "factor_univariate"),
    Target("factor.rational_roots", "sumprod.factor", "rational_roots"),
    *(Target(f"integers.{f}", "sumprod.integers", f) for f in ("divisors", "factorint", "is_probable_prime")),
    Target("linalg.rank_int", "sumprod.linalg", "rank_int", note=_cells),
    Target("linalg.rank_mod_prime", "sumprod.linalg", "rank_mod_prime", note=_cells),
    *(Target(f"linalg.{f}", "sumprod.linalg", f)
      for f in ("rref", "nullspace_basis", "solve_exact", "det_in_ring", "scale_rows_to_int")),
    *(Target(f"poly.{f}", "sumprod.poly", f)
      for f in ("resultant_eliminating", "bi_gcd", "bi_divexact", "uni_gcd")),
    Target("spectrum.sigma_candidates", "sumprod.spectrum", "sigma_candidates"),
    Target("spectrum.rational_critical_values", "sumprod.spectrum", "rational_critical_values"),
    Target("spectrum.sigma_scan", "sumprod.spectrum", "sigma_scan",
           note=lambda args, r: (len(set(args[1])), len(r.found))),
    Target("spectrum.remove_sigma_rows", "sumprod.spectrum", "remove_sigma_rows"),
    Target("geometry.build_family", "sumprod.geometry", "build_family", note=lambda args, r: r.class_count),
    Target("geometry.incidence_report", "sumprod.geometry", "incidence_report"),
    Target("geometry.check_class_bound", "sumprod.geometry", "check_class_bound"),
    *(Target(f"explorer.{f}", "sumprod.explorer", f) for f in ("generate_set", "sumset", "image_set", "run_scan")),
    *(Target("poly.mul", "sumprod.poly", f"{cls}.{op}", leaf=True)
      for cls in ("UniPoly", "BiPoly") for op in ("__mul__", "__rmul__")),
    Target("poly.uni_eval", "sumprod.poly", "UniPoly.__call__", leaf=True),
    Target("poly.specialize_y", "sumprod.poly", "BiPoly.specialize_y", leaf=True),
    Target("poly.shift", "sumprod.poly", "UniPoly.shift", leaf=True),
]

LAYERS = ("cli", "parsing", "classify", "spectrum", "factor", "integers", "linalg", "poly", "geometry", "explorer")


class Span:
    __slots__ = ("name", "parent", "item", "start", "end", "child", "leaves", "note")

    def __init__(self, name: str, parent: int, item):
        self.name = name
        self.parent = parent
        self.item = item
        self.start = self.end = self.child = 0.0
        self.leaves: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.note = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.root = Span("cli.root", -1, None)  # catches leaves called outside any span
        self.stack: list[tuple[int, Span]] = []
        self.leaf_acc: list[float] = []  # child time of the open leaf calls
        self.item = None  # (item number, subcommand) of the CLI call running now
        self.items = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "sumprod" or n.startswith("sumprod.")]
        for t in targets:
            owner = importlib.import_module(t.module)
            cls_name, _, meth = t.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._leaf(t.name, original) if t.leaf else self._span(t, original))
                continue
            original = getattr(owner, meth)
            wrapped = self._span(t, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording --------------------------------------------------------

    def call(self, main, argv):
        """Run one CLI call, main(argv), as the root span `cli.main` of a new item."""
        self.items += 1
        self.item = (self.items, argv[0])
        try:
            return self._span(Target("cli.main", "", ""), main)(argv)
        finally:
            self.item = None

    def _span(self, target: Target, fn):
        tracer = self
        name, note = target.name, target.note

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_idx, parent = tracer.stack[-1] if tracer.stack else (-1, tracer.root)
            span = Span(name, parent_idx, tracer.item)
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append((idx, span))
            saved, tracer.leaf_acc = tracer.leaf_acc, []
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
                tracer.leaf_acc = saved
                if saved:
                    saved[-1] += span.end - span.start
                else:
                    parent.child += span.end - span.start
            if note is not None:
                span.note = note(args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = tracer.leaf_acc
            acc.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = acc.pop()
                parent = tracer.stack[-1][1] if tracer.stack else tracer.root
                if acc:
                    acc[-1] += dt
                else:
                    parent.child += dt
                stat = parent.leaves.get(name)
                if stat is None:
                    parent.leaves[name] = [1, dt, dt - inner]
                else:
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - inner

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "item": s.item, "leaves": s.leaves, "note": s.note,
                }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, passes: int, classify_items: int) -> dict[str, float]:
    """Aggregate the spans of `passes` traced passes into per-pass metrics."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    notes: dict[str, list] = {}
    evals_under: dict[str, int] = {}
    rank_int_parents: set[int] = set()
    fiber_tests = composite_calls = 0
    spans = tracer.spans
    for s in [tracer.root, *spans]:
        layer = _layer(s.name)
        for leaf, (n, _, own) in s.leaves.items():
            calls[leaf] = calls.get(leaf, 0) + n
            self_s[leaf] = self_s.get(leaf, 0.0) + own
            layer_self[layer] += own
            if leaf == "poly.uni_eval":
                evals_under[layer] = evals_under.get(layer, 0) + n
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        layer_self[_layer(s.name)] += s.self_s
        if s.note is not None:
            notes.setdefault(s.name, []).append(s.note)
        parent = spans[s.parent].name if s.parent >= 0 else ""
        if s.name == "linalg.rank_int":
            rank_int_parents.add(s.parent)
        if s.name == "factor.fiber_reducibility" and parent == "classify.is_composite":
            fiber_tests += 1
        if s.name == "classify.is_composite" and s.item is not None and s.item[1] == "classify":
            composite_calls += 1
    fast = sum(1 for i, s in enumerate(spans) if s.name == "factor.count_abs_factors" and i not in rank_int_parents)
    sigma_notes = notes.get("spectrum.sigma_scan", [])
    candidates = sum(c for c, _ in sigma_notes)
    factor_notes = notes.get("factor.factor_rational", [])
    totals = {
        **{f"{k}.calls": v for k, v in calls.items()},
        **{f"{k}.self_s": v for k, v in self_s.items()},
        **{f"{k}.self_s": v for k, v in layer_self.items()},
        "linalg.matrix_cells": sum(notes.get("linalg.rank_int", []) + notes.get("linalg.rank_mod_prime", [])),
        "spectrum.candidates": candidates,
        "classify.fiber_tests": fiber_tests,
        "geometry.classes": sum(notes.get("geometry.build_family", [])),
        "geometry.curve_evals": evals_under.get("geometry", 0),
        "explorer.image_evals": evals_under.get("explorer", 0),
        "trace.spans": len(spans),
    }
    return {
        **{k: v / passes for k, v in totals.items()},
        "factor.fast_path_ratio": fast / max(calls.get("factor.count_abs_factors", 0), 1),
        "factor.factor_rational.split_ratio": sum(factor_notes) / max(len(factor_notes), 1),
        "spectrum.hit_ratio": sum(h for _, h in sigma_notes) / max(candidates, 1),
        "classify.is_composite.calls": composite_calls / max(classify_items, 1),
    }
