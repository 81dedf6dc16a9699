"""Spans around the calls into each braidrep layer, installed from outside.

``install`` replaces each traced function by a wrapper in every namespace
that holds it: the defining module, every braidrep module that imported the
name, the class dictionary for methods (``CycloNum.__mul__`` together with
its ``__rmul__`` alias) and the ``suites.SUITES`` table.  Only a traced
worker process imports this module, and it exits after one pass, so the
wrappers are never removed.

A span records its name, start, end and the span that caused it.  Spans are
kept in memory and written once by :meth:`Tracer.write`.  The scalar
operations of L0 run millions of times, so their spans are folded into
per-name totals instead of being stored one by one; they still count as
children of the span that called them.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _ctx_key(ctx) -> tuple:
    return (ctx.d, ctx.weights, ctx.k)


def _flag_key(fc) -> tuple:
    return (*_ctx_key(fc.ctx), fc.m)


def targets() -> list[tuple]:
    """(span name, owner, attribute, stored, distinct key, counters) per
    traced function.  ``counters`` maps (args, result) to extra counts."""
    from braidrep import criteria, cyclo, horo, linalg, rep, suites

    num, mat = cyclo.CycloNum, linalg.CycloMatrix
    out = [
        ("cyclo.mul", num, "__mul__", False, None, None),
        ("cyclo.inv", num, "inv", False, lambda a: (a[0].d, a[0].num, a[0].den), None),
        ("cyclo.galois", num, "galois", False, None, None),
        ("linalg.matmul", mat, "__matmul__", True, None, None),
        ("linalg.span_add", linalg.RationalSpan, "add", True, None,
         lambda a, r: {"accepted": int(r)}),
        ("linalg.rank_q", linalg, "rank_over_rationals", True, None, None),
        ("linalg.solve_q", linalg, "solve_rational", True, None, None),
        ("linalg.inertia", linalg, "inertia", True, None, None),
        ("rep.make_context", rep, "make_context", True, None, None),
        ("rep.twist", rep, "pair_twist", True, lambda a: (*_ctx_key(a[0]), "A", *a[1:]), None),
        ("rep.twist", rep, "prefix_twist", True, lambda a: (*_ctx_key(a[0]), "T", *a[1:]), None),
        ("rep.evaluate_word", rep, "evaluate_word", True, None,
         lambda a, r: {"letters": len(a[1].letters)}),
        ("rep.quotient", rep, "quotient_matrix", True, None, None),
        ("horo.make_flag", horo, "make_flag", True, None, None),
        ("horo.orbit", horo, "orbit_vectors", True, lambda a: (*_flag_key(a[0]), a[1]),
         lambda a, r: {"vectors": len(r)}),
        ("horo.center", horo, "center_lattice_vectors", True, None, None),
        ("horo.pairing", horo, "commutator_pairing", True, None, None),
        ("criteria.arithmeticity", criteria, "arithmeticity_verdict", True, None,
         lambda a, r: {"subsets_logged": len(r.diagnostics["subsets"])}),
        ("criteria.density", criteria, "density_verdict", True, None, None),
        ("criteria.signature", criteria, "signature", True, None, None),
        # not a reported metric: keeps the battery's own time out of cli.self_s
        ("suites.horo_report", suites, "horo_report", True, None, None),
    ]
    out += [("linalg.elim_kd", mat, m, True, None, None)
            for m in ("det", "inverse", "solve", "rank", "kernel_basis")]
    out += [(f"suites.{s}", suites, f"suite_{s}", True, None, None) for s in suites.SUITE_NAMES]
    return out


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next_id = 1
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)

    def call(self, name: str, fn, args: tuple, kwargs: dict, stored: bool = True):
        """Run fn(*args, **kwargs) inside a span called name."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]
            if stored:
                self.spans.append((span_id, parent, name, start, end))

    def _wrapper(self, name, fn, stored, key, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, stored)
            if key is not None:
                self.distinct[name].add(key(args))
            if counters is not None:
                for counter, value in counters(args, result).items():
                    self.counts[f"{name}.{counter}"] += value
            return result
        return traced

    def install(self) -> None:
        """Wrap every target in every namespace that refers to it."""
        from braidrep import suites

        tables = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "braidrep"]
        tables.append(suites.SUITES)
        for name, owner, attr, stored, key, counters in targets():
            fn = vars(owner)[attr]
            traced = self._wrapper(name, fn, stored, key, counters)
            if isinstance(owner, type):  # class dictionaries are read-only
                for alias, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, alias, traced)
            for table in tables:
                for alias, value in list(table.items()):
                    if value is fn:
                        table[alias] = traced

    def write(self, path) -> None:
        """Write the stored spans and the per-name totals as one JSON file."""
        doc = {
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "totals": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)



# Per-layer metrics: span name -> fields.  calls, distinct, mean_us (inclusive
# time per call), self_s and s (inclusive seconds) come from the spans; any
# other field is a counter kept by the target's ``counters``.
LAYER_METRICS = {
    "cyclo.inv": ("calls", "distinct", "mean_us", "self_s"),
    "cyclo.mul": ("calls", "mean_us"),
    "cyclo.galois": ("calls", "mean_us"),
    "linalg.matmul": ("calls", "self_s"),
    "linalg.elim_kd": ("calls", "self_s"),
    "linalg.span_add": ("calls", "accepted", "self_s"),
    "linalg.rank_q": ("calls", "self_s"),
    "linalg.solve_q": ("calls", "self_s"),
    "linalg.inertia": ("calls", "self_s"),
    "rep.make_context": ("calls", "self_s"),
    "rep.twist": ("calls", "distinct", "self_s"),
    "rep.evaluate_word": ("calls", "letters", "self_s"),
    "rep.quotient": ("calls", "self_s"),
    "horo.make_flag": ("self_s",),
    "horo.orbit": ("calls", "distinct", "vectors", "self_s"),
    "horo.center": ("self_s",),
    "horo.pairing": ("calls",),
    "criteria.arithmeticity": ("calls", "self_s", "subsets_logged"),
    "criteria.density": ("calls", "self_s"),
    "criteria.signature": ("calls",),
    **{f"suites.{s}": ("s",) for s in ("forms", "relations", "lantern", "galois", "horo", "criteria")},
    "cli": ("self_s",),
}
UNITS = {"mean_us": "us", "self_s": "s", "s": "s"}  # every other field counts


def layer_metrics(t: Tracer) -> dict[str, float]:
    out = {}
    for name, fields in LAYER_METRICS.items():
        calls = t.calls.get(name, 0)
        for f in fields:
            if f == "calls":
                value = calls
            elif f == "distinct":
                value = len(t.distinct.get(name, ()))
            elif f == "mean_us":
                value = 1e6 * t.total_s.get(name, 0.0) / calls if calls else 0.0
            elif f == "self_s":
                value = t.self_s.get(name, 0.0)
            elif f == "s":
                value = t.total_s.get(name, 0.0)
            else:
                value = t.counts.get(f"{name}.{f}", 0)
            out[f"{name}.{f}"] = value
    return out
