"""Input generation, run in its own process before any timing.

Usage: python3 perfbench/gen.py --workload corpus|ladder|check --seed N

Prints one JSON document on stdout.  Generation only ever selects or
validates a draw by its shape, by the exact [0, 1] range verdict of the
public `mvsynth.function_leq` (synthesis inputs), or by the benchmark's
own exact evaluation (check inputs).  It never looks at group counts,
term sizes or timings, which a correct change to the program may alter.
Running here, in a separate interpreter, keeps the program's caches cold
for the timed processes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import product

import exact
from worker import to_expr

# The acceptance corpus draws its random part from this seed (the same
# draws, without the group filter, as the test suite's corpus).
CORPUS_SEED = 20240811
CORPUS_SHAPES = [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (2, 4)]
CORPUS_RANDOM = 25
MEMBERSHIP_HEAVY_SEED = 90000 + 41

# One draw per ladder shape, from a fixed seed, so every run times the
# same instances; arity 3 stops at k = 3 (k >= 4 draws ran past 90 s).
LADDER_SEED = 7
LADDER_SHAPES = [(n, k) for n in (1, 2, 3) for k in range(2, 7) if n < 3 or k < 4]

# check: passes over the pair plan per requested second of measurement.
CHECK_CYCLES_PER_SECOND = 1


# --- descriptions (synthesis inputs) -------------------------------------------

def affine_doc(constant: int, coeffs) -> dict:
    return {"affine": {"constant": int(constant), "coeffs": [int(c) for c in coeffs]}}


def clamp_doc(body: dict, arity: int) -> dict:
    zero = affine_doc(0, [0] * arity)
    one = affine_doc(1, [0] * arity)
    return {"min": [{"max": [body, zero]}, one]}


def random_affine(rng: random.Random, arity: int, span: int = 3) -> tuple:
    while True:
        coeffs = tuple(rng.randint(-span, span) for _ in range(arity))
        if any(coeffs):
            return rng.randint(-span, span), coeffs


def in_unit_range(mv, body: dict, arity: int) -> bool:
    """The exact range verdict of the program's public `function_leq`."""
    expr = to_expr(mv, body)
    one = mv.leaf(mv.const_form(arity, 1))
    zero = mv.leaf(mv.const_form(arity, 0))
    return bool(mv.function_leq(expr, one, arity)) and bool(mv.function_leq(zero, expr, arity))


def random_description(rng: random.Random, arity: int, n_forms: int, mv) -> dict:
    """A random lattice tree over n_forms distinct forms, used as-is when
    its range fits [0, 1] and clamped otherwise (the test suite's draw)."""
    forms: list[tuple] = []
    while len(forms) < n_forms:
        g = random_affine(rng, arity)
        if g not in forms:
            forms.append(g)
    nodes = [affine_doc(c, v) for c, v in forms]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        width = rng.randint(2, min(3, len(nodes)))
        picked = [nodes.pop() for _ in range(width)]
        joined = {"min": picked} if rng.random() < 0.5 else {"max": picked}
        nodes.insert(rng.randrange(len(nodes) + 1), joined)
    body = nodes[0]
    if in_unit_range(mv, body, arity):
        return {"vars": arity, "expr": body}
    return {"vars": arity, "expr": clamp_doc(body, arity)}


def curated_corpus() -> list[tuple[str, dict]]:
    def desc(n, expr):
        return {"vars": n, "expr": expr}

    def lf(c, *v):
        return affine_doc(c, v)

    return [
        ("single-leaf-x1", desc(1, lf(0, 1))),
        ("abs-2x-1", desc(1, {"max": [lf(-1, 2), lf(1, -2)]})),
        ("min-x1-x2", desc(2, {"min": [lf(0, 1, 0), lf(0, 0, 1)]})),
        ("max-x1-x2", desc(2, {"max": [lf(0, 1, 0), lf(0, 0, 1)]})),
        ("clamp-x1-plus-x2", desc(2, clamp_doc(lf(0, 1, 1), 2))),
        ("clamp-2x1-minus-x2", desc(2, clamp_doc(lf(0, 2, -1), 2))),
        ("three-lines-1d", desc(1, {"max": [lf(-1, 2), lf(1, -2), lf(0, 1)]})),
    ]


def corpus_items(mv) -> list[dict]:
    items = [{"name": name, "shape": f"n{d['vars']}", "doc": d} for name, d in curated_corpus()]
    rng = random.Random(CORPUS_SEED)
    for i in range(1, CORPUS_RANDOM + 1):
        arity, k = CORPUS_SHAPES[(i - 1) % len(CORPUS_SHAPES)]
        doc = random_description(rng, arity, k, mv)
        items.append({"name": f"random-{i:02d}-n{arity}k{k}", "shape": f"n{arity}k{k}", "doc": doc})
    heavy = random.Random(MEMBERSHIP_HEAVY_SEED)
    arity, k = heavy.choice([1, 2]), heavy.choice([3, 4])
    doc = random_description(heavy, arity, k, mv)
    items.append({"name": "membership-heavy", "shape": f"n{arity}k{k}", "doc": doc})
    return items


def ladder_items(mv) -> list[dict]:
    items = []
    for arity, k in LADDER_SHAPES:
        shape = f"n{arity}k{k}"
        rng = random.Random(f"ladder-{LADDER_SEED}-{shape}")
        items.append({"name": shape, "shape": shape, "doc": random_description(rng, arity, k, mv)})
    return items


# --- check pairs ------------------------------------------------------------------------
#
# Literals are x_i or 1 - x_i.  EQUAL pairs instantiate MV-algebra and
# lattice identities; DIFFER pairs perturb one side and are kept only when
# the exact evaluation here separates the two sides at a grid point.  The
# stream cycles through a fixed plan of (kind, variant, arity, verdict)
# slots, so every seed checks the same mix and only literals and
# coefficients are drawn at random.

def _literal(rng: random.Random, arity: int) -> tuple[int, bool]:
    return rng.randint(1, arity), rng.random() < 0.5


def _lit_text(lit) -> str:
    i, negated = lit
    return f"(neg (var {i}))" if negated else f"(var {i})"


def _lit_affine(lit, arity: int) -> tuple[int, list[int]]:
    i, negated = lit
    coeffs = [0] * arity
    coeffs[i - 1] = -1 if negated else 1
    return (1 if negated else 0), coeffs


def _other_literal(rng: random.Random, lit, arity: int):
    while True:
        new = _literal(rng, arity)
        if new != lit:
            return new


_CONNECTIVES = ("oplus", "otimes", "wedge", "vee")
_SWAP = {"oplus": "otimes", "otimes": "oplus", "wedge": "vee", "vee": "wedge"}


def _sum_pair(rng: random.Random, op: str, arity: int, differ: bool):
    """A connective folded over three literals against its description."""
    lits = [_literal(rng, arity) for _ in range(3)]
    text = _lit_text(lits[0])
    for lit in lits[1:]:
        text = f"({op} {text} {_lit_text(lit)})"
    if differ:
        j = rng.randrange(len(lits))
        lits[j] = _other_literal(rng, lits[j], arity)
    forms = [_lit_affine(lit, arity) for lit in lits]
    zeros = [0] * arity
    if op in ("oplus", "otimes"):
        c = sum(f[0] for f in forms)
        v = [sum(f[1][i] for f in forms) for i in range(arity)]
        if op == "oplus":   # min(1, sum)
            expr = {"min": [affine_doc(c, v), affine_doc(1, zeros)]}
        else:               # max(0, sum - (m - 1))
            expr = {"max": [affine_doc(c - (len(forms) - 1), v), affine_doc(0, zeros)]}
    else:
        expr = {"min" if op == "wedge" else "max": [affine_doc(c, v) for c, v in forms]}
    return {"ext": ".term", "text": text}, {"ext": ".json", "doc": {"vars": arity, "expr": expr}}


def _small_text(rng: random.Random, arity: int) -> str:
    """A connective applied to two literals."""
    a, b = (_lit_text(_literal(rng, arity)) for _ in range(2))
    return f"({rng.choice(_CONNECTIVES)} {a} {b})"


_TERM_IDENTITIES = [
    ("(oplus A B)", "(oplus B A)"),
    ("(wedge (wedge A B) C)", "(wedge A (wedge B C))"),
    ("(oplus (oplus A B) C)", "(oplus A (oplus B C))"),
    ("(wedge A (vee B C))", "(vee (wedge A B) (wedge A C))"),
    ("(vee A (wedge B C))", "(wedge (vee A B) (vee A C))"),
    ("(otimes A (vee B C))", "(vee (otimes A B) (otimes A C))"),
    ("(oplus A (wedge B C))", "(wedge (oplus A B) (oplus A C))"),
    ("(oplus (neg (oplus (neg A) B)) B)", "(oplus (neg (oplus (neg B) A)) A)"),
    ("(neg (oplus A B))", "(otimes (neg A) (neg B))"),
]


def _fill(template: str, subs: dict) -> str:
    for key, value in subs.items():
        template = template.replace(key, value)
    return template


def _term_pair(rng: random.Random, identity: int, arity: int, differ: bool):
    left_t, right_t = _TERM_IDENTITIES[identity]
    subs = {name: _small_text(rng, arity) for name in "ABC"}
    left = _fill(left_t, subs)
    if differ:
        subs[rng.choice([n for n in "ABC" if n in right_t])] = _small_text(rng, arity)
    right = _fill(right_t, subs)
    head = right[1:right.index(" ")]
    if differ and head in _SWAP and rng.random() < 0.5:
        right = "(" + _SWAP[head] + right[1 + len(head):]
    return {"ext": ".term", "text": left}, {"ext": ".term", "text": right}


def _literal_doc(rng: random.Random, arity: int) -> dict:
    c, v = _lit_affine(_literal(rng, arity), arity)
    return affine_doc(c, v)


def _clamped_doc(rng: random.Random, arity: int) -> dict:
    c, v = random_affine(rng, arity, span=1)
    return clamp_doc(affine_doc(c, v), arity)


_DOC_IDENTITIES = [
    (lambda a, b, c, m, w: {m: [a, b]}, lambda a, b, c, m, w: {m: [b, a]}),
    (lambda a, b, c, m, w: {m: [{m: [a, b]}, c]}, lambda a, b, c, m, w: {m: [a, {m: [b, c]}]}),
    (lambda a, b, c, m, w: {m: [a, {w: [b, c]}]},
     lambda a, b, c, m, w: {w: [{m: [a, b]}, {m: [a, c]}]}),
    (lambda a, b, c, m, w: {m: [a, {w: [a, b]}]}, lambda a, b, c, m, w: a),
]


def _doc_pair(rng: random.Random, identity: int, arity: int, differ: bool):
    left_f, right_f = _DOC_IDENTITIES[identity]
    m, w = ("min", "max") if rng.random() < 0.5 else ("max", "min")
    atoms = [_clamped_doc(rng, arity), _literal_doc(rng, arity), _clamped_doc(rng, arity)]
    left = left_f(*atoms, m, w)
    if differ:
        # the absorption identity's right side is the first atom alone
        if identity != len(_DOC_IDENTITIES) - 1 and rng.random() < 0.5:
            m, w = w, m
        else:
            atoms[0] = _clamped_doc(rng, arity)
    right = right_f(*atoms, m, w)
    return (
        {"ext": ".json", "doc": {"vars": arity, "expr": left}},
        {"ext": ".json", "doc": {"vars": arity, "expr": right}},
    )


# (kind, pair maker, variants, arities); one plan cycle holds every
# combination once as EQUAL and once as DIFFER.
CHECK_KINDS = [
    ("term-json", _sum_pair, _CONNECTIVES, (1, 2, 3)),
    ("term-term", _term_pair, range(len(_TERM_IDENTITIES)), (1, 2)),
    ("json-json", _doc_pair, range(len(_DOC_IDENTITIES)), (1, 2)),
]
CHECK_PLAN = [
    (kind, make, variant, arity, differ)
    for kind, make, variants, arities in CHECK_KINDS
    for variant in variants
    for arity in arities
    for differ in (False, True)
]


def _separated(left: dict, right: dict, arity: int) -> bool:
    den = 6 if arity > 2 else exact.GRID_DENOMINATOR
    points = list(product(range(den + 1), repeat=arity))
    return exact.side_values(left, points, den) != exact.side_values(right, points, den)


def check_items(seed: int, cycles: int) -> list[dict]:
    """``cycles`` passes over the plan, each in a seeded order, as
    distinct pairs."""
    rng = random.Random(f"check-{seed}")
    seen: set[str] = set()
    items: list[dict] = []
    for _ in range(cycles):
        plan = list(CHECK_PLAN)
        rng.shuffle(plan)
        for kind, make, variant, arity, differ in plan:
            valid = False
            for _ in range(1000):
                left, right = make(rng, variant, arity, differ)
                if rng.random() < 0.5:
                    left, right = right, left
                key = json.dumps([left, right], sort_keys=True)
                if _separated(left, right, arity) == differ:
                    valid = True
                    if key not in seen:
                        break
            else:
                if not valid:
                    raise RuntimeError(f"no {kind} pair for slot {variant}/{arity}/{differ}")
                continue  # small slots run out of distinct pairs in long streams
            seen.add(key)
            items.append({
                "name": f"{kind}-{len(items):04d}",
                "kind": kind,
                "vars": arity,
                "left": left,
                "right": right,
                "expect": "DIFFER" if differ else "EQUAL",
            })
    return items


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    if args.workload == "check":
        items = check_items(args.seed, max(1, round(CHECK_CYCLES_PER_SECOND * args.seconds)))
    else:
        import mvsynth

        items = corpus_items(mvsynth) if args.workload == "corpus" else ladder_items(mvsynth)
    json.dump({"workload": args.workload, "items": items}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
