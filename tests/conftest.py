"""Shared helpers: random generators, grid points, brute-force oracles,
and the synthesis corpus."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import mvsynth as mv
from mvsynth.cli import description_from_obj


def grid_points(arity: int, denominator: int):
    """All cube points whose coordinates are multiples of 1/denominator."""
    axis = [Fraction(i, denominator) for i in range(denominator + 1)]
    return list(product(axis, repeat=arity))


def farey_values(max_den: int):
    """All rationals in [0, 1] with denominator <= max_den, ascending."""
    vals = {Fraction(p, q) for q in range(1, max_den + 1) for p in range(q + 1)}
    return sorted(vals)


def random_fraction(rng: random.Random, max_den: int = 16) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(0, q), q)


def random_point(rng: random.Random, arity: int, max_den: int = 16):
    return tuple(random_fraction(rng, max_den) for _ in range(arity))


def random_term(rng: random.Random, arity: int, depth: int) -> mv.Term:
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return mv.ZERO
        if kind == 1:
            return mv.ONE
        return mv.var(rng.randint(1, arity))
    kind = rng.randrange(4)
    if kind == 0:
        return mv.var(rng.randint(1, arity))
    if kind == 1:
        return mv.neg(random_term(rng, arity, depth - 1))
    return mv.oplus(
        random_term(rng, arity, depth - 1), random_term(rng, arity, depth - 1)
    )


def random_affine(rng: random.Random, arity: int, span: int = 3) -> mv.AffineForm:
    while True:
        coeffs = [rng.randint(-span, span) for _ in range(arity)]
        if any(coeffs):
            return mv.affine(rng.randint(-span, span), coeffs)


def random_pwl(
    rng: random.Random, arity: int, depth: int, span: int = 3, max_width: int = 3
) -> mv.PwlExpr:
    if depth == 0 or rng.random() < 0.3:
        return mv.leaf(random_affine(rng, arity, span))
    width = rng.randint(2, max_width)
    children = [
        random_pwl(rng, arity, depth - 1, span, max_width) for _ in range(width)
    ]
    return mv.min_of(children) if rng.random() < 0.5 else mv.max_of(children)


def random_pwl_pair(rng: random.Random):
    """A comparison pair sized so the leaf-difference arrangement stays
    tractable: full-depth 1D instances, narrow 2D ones."""
    if rng.random() < 0.7:
        arity = 1
        make = lambda: random_pwl(rng, 1, 2)
    else:
        arity = 2
        make = lambda: random_pwl(rng, 2, rng.choice([1, 2]), max_width=2)
    return arity, make(), make()


def strictly_inside(polytope, point) -> bool:
    """Does the point satisfy every half-space and cube bound strictly?"""
    return all(0 < p < 1 for p in point) and all(
        sum(d_i * p for d_i, p in zip(d, point)) < beta
        for d, beta in polytope.constraints
    )


def random_polytope(rng: random.Random, arity: int, max_constraints: int = 6):
    count = rng.randint(0, max_constraints)
    forms = []
    for _ in range(count):
        coeffs = [rng.randint(-3, 3) for _ in range(arity)]
        constant = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        forms.append(mv.AffineForm(constant, tuple(Fraction(c) for c in coeffs)))
    return mv.cube(arity).with_constraints(forms)


def brute_force_lp(objective, polytope, sense="max"):
    """Vertex-enumeration LP oracle for arity 1 and 2 (test use only)."""
    n = polytope.arity
    boundaries = [mv.affine(-beta, d) for d, beta in polytope.constraints]
    for i in range(n):
        unit = mv.unit_form(n, i + 1)
        boundaries.append(unit)                 # x_i = 0
        boundaries.append(unit.shifted(-1))     # x_i = 1
    candidates = []
    if n == 1:
        for g in boundaries:
            a = g.coeffs[0]
            if a:
                candidates.append((-g.constant / a,))
    else:
        for g, h in combinations(boundaries, 2):
            a, b = g.coeffs
            c, d = h.coeffs
            det = a * d - b * c
            if det:
                x = (-g.constant * d + h.constant * b) / det
                y = (-h.constant * a + g.constant * c) / det
                candidates.append((x, y))
    feasible = [p for p in candidates if polytope.contains(p)]
    if not feasible:
        return None
    values = [objective.evaluate(p) for p in feasible]
    return max(values) if sense == "max" else min(values)


def clamp_description(body: mv.PwlExpr, arity: int) -> mv.PwlExpr:
    zero = mv.leaf(mv.const_form(arity, 0))
    one = mv.leaf(mv.const_form(arity, 1))
    return mv.min_of([mv.max_of([body, zero]), one])


def _in_unit_range(expr: mv.PwlExpr, arity: int) -> bool:
    one = mv.leaf(mv.const_form(arity, 1))
    zero = mv.leaf(mv.const_form(arity, 0))
    return bool(mv.function_leq(expr, one, arity)) and bool(
        mv.function_leq(zero, expr, arity)
    )


def random_description(rng: random.Random, arity: int, n_forms: int) -> mv.PwlExpr:
    """A valid description over n_forms distinct small-coefficient affine
    forms: a random lattice tree, used as-is when its range already fits
    [0, 1] and clamped otherwise."""
    forms = []
    while len(forms) < n_forms:
        g = random_affine(rng, arity)
        if g not in forms:
            forms.append(g)
    nodes = [mv.leaf(g) for g in forms]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        width = rng.randint(2, min(3, len(nodes)))
        picked = [nodes.pop() for _ in range(width)]
        joined = mv.min_of(picked) if rng.random() < 0.5 else mv.max_of(picked)
        nodes.insert(rng.randrange(len(nodes) + 1), joined)
    body = nodes[0]
    if _in_unit_range(body, arity):
        return body
    return clamp_description(body, arity)


def _leaf(constant, *coeffs):
    return mv.leaf(mv.affine(constant, list(coeffs)))


def curated_corpus():
    """Named descriptions exercising every curated acceptance case."""
    entries = [
        ("single-leaf-x1", mv.leaf(mv.unit_form(1, 1))),
        ("abs-2x-1", mv.max_of([_leaf(-1, 2), _leaf(1, -2)])),
        ("min-x1-x2", mv.min_of([_leaf(0, 1, 0), _leaf(0, 0, 1)])),
        ("max-x1-x2", mv.max_of([_leaf(0, 1, 0), _leaf(0, 0, 1)])),
        ("clamp-x1-plus-x2", clamp_description(_leaf(0, 1, 1), 2)),
        ("clamp-2x1-minus-x2", clamp_description(_leaf(0, 2, -1), 2)),
        ("three-lines-1d", mv.max_of([_leaf(-1, 2), _leaf(1, -2), _leaf(0, 1)])),
    ]
    return entries


def build_corpus(seed: int = 20240811, n_random: int = 25, max_groups: int = 8):
    """Curated descriptions plus seeded random ones; >= 30 total.

    Random instances whose region analysis produces more than
    ``max_groups`` ordering groups are skipped: region analysis and the
    pair walks of the gluing grow with the group count, and the corpus
    must stay at desk scale.  Selection is deterministic given the seed.
    """
    rng = random.Random(seed)
    corpus = list(curated_corpus())
    shapes = [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (2, 4)]
    i = 0
    while len(corpus) < len(curated_corpus()) + n_random:
        arity, n_forms = shapes[i % len(shapes)]
        i += 1
        candidate = random_description(rng, arity, n_forms)
        if len(mv.analyze_regions(candidate)) > max_groups:
            continue
        corpus.append((f"random-{i:02d}-n{arity}k{n_forms}", candidate))
    return corpus


def membership_heavy_description():
    """A 2D description with 8 region groups, whose paper-formula halving
    fold needed multipliers up to 3; its 3 arms glue with multiplier 1.
    (Found by seed scan; regenerated deterministically.)"""
    rng = random.Random(90000 + 41)
    arity = rng.choice([1, 2])
    n_forms = rng.choice([3, 4])
    assert (arity, n_forms) == (2, 4)
    return random_description(rng, arity, n_forms)


MULTIPLIER_HEAVY_JSON = {"vars": 2, "expr": {"min": [{"max": [{"max": [{"affine": {"constant": -1, "coeffs": [2, 5]}}, {"max": [{"affine": {"constant": -3, "coeffs": [0, 5]}}, {"affine": {"constant": 0, "coeffs": [-2, 4]}}, {"affine": {"constant": 1, "coeffs": [-1, -2]}}]}]}, {"affine": {"constant": 0, "coeffs": [0, 0]}}]}, {"affine": {"constant": 1, "coeffs": [0, 0]}}]}}


def multiplier_heavy_description():
    """A 2D description whose gluing needs a multiplier above 1: its 17
    region groups merge into 3 arms, and the largest multiplier is 2.

    By the triangle inequality h_p - h_q is at most an ordering's
    generator whenever p precedes q in that ordering, so a pair of groups
    needs m > 1 only when the order of their selected constituents is
    reversed in both orderings, or after merging; random draws almost
    never give that.  Used for the cap-exceeded path and nontrivial
    membership bounds."""
    return description_from_obj(MULTIPLIER_HEAVY_JSON)[1]


def description_to_json(description: mv.PwlExpr) -> dict:
    arity = mv.pwl_arity(description)

    def node(expr):
        if isinstance(expr, mv.Leaf):
            return {
                "affine": {
                    "constant": int(expr.form.constant),
                    "coeffs": [int(c) for c in expr.form.coeffs],
                }
            }
        key = "min" if isinstance(expr, mv.MinOf) else "max"
        return {key: [node(c) for c in expr.children]}

    return {"vars": arity, "expr": node(description)}
