"""Spans around the program's layer boundaries, recorded from outside it.

`Tracer.install` replaces each traced function at the name its calling
module looks it up by (``mvsynth.crt.analyze_regions``,
``mvsynth.pwl.lp_optimize``, ...), so every call between layers opens a
span with its name, start, end and parent.  Spans stay in memory; the
worker reduces them to per-layer numbers when its work is done.

A decision call is attributed by its parent span: under `analyze_regions`
it is the range check, under `membership_bound` a membership round, and
directly under `synthesize_crt` the final certificate.

Simplex pivots and `_Split` refinements happen inside single functions and
cannot be seen from here; they wait for in-program tracing.
"""

from __future__ import annotations

import importlib
from time import perf_counter

MODULES = ("crt", "pwl", "geometry", "linear", "cli")
TRACED = (
    "analyze_regions",
    "chinese_glue",
    "combine_pair",
    "membership_bound",
    "linear_term",
    "decide_leq",
    "decide_eq",
    "function_leq",
    "function_eq",
    "enumerate_cells",
    "interior_point",
    "lp_optimize",
    "parse_term",
)
DECISIONS = {"decide_leq", "decide_eq", "function_leq", "function_eq"}
LEQ = {"decide_leq", "function_leq"}

# The six stages of synthesize_crt, in pipeline order.
STAGES = ("range", "cells", "select", "linear", "fold", "cert")


class Tracer:
    def __init__(self):
        # span: [name, parent index, start, end, detail]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.lp_keys: set = set()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        lp_keys = self.lp_keys

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if name in LEQ:
                rec[4] = bool(out)
            elif name == "membership_bound":
                rec[4] = out
            elif name in ("enumerate_cells", "analyze_regions"):
                rec[4] = len(out)
            elif name == "lp_optimize":
                sense = args[2] if len(args) > 2 else kwargs.get("sense", "max")
                lp_keys.add((args[0], args[1], sense))
            return out

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span (the public entry point)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def install(self):
        for short in MODULES:
            module = importlib.import_module(f"mvsynth.{short}")
            for name in TRACED:
                fn = getattr(module, name, None)
                if callable(fn):
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(fn, name))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()


def layer_numbers(spans: list[list], lp_distinct: int) -> dict:
    """Per-layer times and counts over all spans of one process.

    Times are summed over outermost spans of each kind, so nested calls
    of the same layer (decide_eq -> decide_leq) are not counted twice.
    """
    n = len(spans)
    name = [s[0] for s in spans]
    parent = [s[1] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    in_decision = [False] * n
    pname = [""] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            pname[i] = name[p]
            in_decision[i] = in_decision[p] or name[p] in DECISIONS

    out = dict.fromkeys(
        (
            "root_s", "stage.range_s", "stage.cells_s", "stage.select_s",
            "stage.linear_s", "stage.fold_s", "stage.cert_s",
            "crt.member_s", "crt.member_rounds", "crt.member_refuted",
            "crt.m_sum", "crt.m_max", "crt.combines", "crt.groups",
            "geometry.cells_s", "geometry.cells", "geometry.lp_s",
            "geometry.lp_calls", "geometry.interior_calls",
            "linear.term_s", "linear.calls", "pwl.decide_s",
            "pwl.decide_calls", "terms.parse_s",
        ),
        0,
    )
    seen = {stage: 0 for stage in STAGES}
    analyze_children = 0.0
    for i in range(n):
        nm, pn, d = name[i], pname[i], dur[i]
        if pn == "":
            out["root_s"] += d
        if nm in DECISIONS:
            if not in_decision[i]:
                out["pwl.decide_s"] += d
            if nm in LEQ:
                out["pwl.decide_calls"] += 1
            if pn == "analyze_regions":
                out["stage.range_s"] += d
                seen["range"] += 1
                analyze_children += d
            elif pn == "synthesize_crt":
                out["stage.cert_s"] += d
                seen["cert"] += 1
            elif pn == "membership_bound" and nm in LEQ:
                out["crt.member_rounds"] += 1
                out["crt.member_refuted"] += not spans[i][4]
        elif nm == "enumerate_cells":
            out["geometry.cells_s"] += d
            out["geometry.cells"] += spans[i][4] or 0
            if pn == "analyze_regions":
                out["stage.cells_s"] += d
                seen["cells"] += 1
                analyze_children += d
        elif nm == "lp_optimize":
            out["geometry.lp_calls"] += 1
            out["geometry.lp_s"] += d
        elif nm == "interior_point":
            out["geometry.interior_calls"] += 1
        elif nm == "linear_term":
            out["linear.term_s"] += d
            out["linear.calls"] += 1
            if pn in ("analyze_regions", "synthesize_crt"):
                out["stage.linear_s"] += d
                seen["linear"] += 1
                if pn == "analyze_regions":
                    analyze_children += d
        elif nm == "analyze_regions" and pn == "synthesize_crt":
            out["stage.select_s"] += d
            out["crt.groups"] += spans[i][4] or 0
            seen["select"] += 1
        elif nm == "chinese_glue" and pn == "synthesize_crt":
            out["stage.fold_s"] += d
            seen["fold"] += 1
        elif nm == "membership_bound":
            out["crt.member_s"] += d
            m = spans[i][4] or 0
            out["crt.m_sum"] += m
            out["crt.m_max"] = max(out["crt.m_max"], m)
        elif nm == "combine_pair":
            out["crt.combines"] += 1
        elif nm == "parse_term":
            out["terms.parse_s"] += d
    # selection is what region analysis spends outside its child stages
    out["stage.select_s"] -= analyze_children
    out["geometry.lp_distinct"] = lp_distinct
    out["missing"] = [stage for stage in STAGES if not seen[stage]]
    return out
