"""Lattice expressions, the decision procedure, and its reference oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvsynth as mv
from mvsynth import pwl
from conftest import (
    grid_points,
    random_point,
    random_pwl,
    random_pwl_pair,
    random_term,
    strictly_inside,
)
from oracles import decide_leq, function_eq_fraction, function_leq_fraction, term_to_pwl

F = Fraction


def L(constant, *coeffs):
    return mv.leaf(mv.affine(constant, list(coeffs)))


ABS_EXPR = mv.max_of([L(-1, 2), L(1, -2)])  # |2x - 1|


def test_eval_pwl_examples():
    assert mv.eval_pwl(L(0, 1), [F(1, 3)]) == F(1, 3)
    assert mv.eval_pwl(ABS_EXPR, [F(1, 4)]) == F(1, 2)
    assert mv.eval_pwl(mv.min_of([L(0, 1, 0), L(0, 0, 1)]), [F(2, 5), F(1, 3)]) == F(1, 3)
    with pytest.raises(mv.DomainError):
        mv.eval_pwl(L(0, 1), [F(1, 2), F(1, 2)])


def test_lattice_nodes_validate():
    with pytest.raises(mv.DomainError):
        mv.MinOf(())
    with pytest.raises(mv.DomainError):
        mv.pwl_arity(mv.min_of([L(0, 1), L(0, 1, 1)]))


def test_truncate_affine():
    tr = mv.truncate_affine(mv.affine(0, [1]))
    for p in grid_points(1, 6):
        assert mv.eval_pwl(tr, p) == p[0]
    assert mv.eval_pwl(mv.truncate_affine(mv.affine(-1, [2])), [F(1, 4)]) == 0
    assert mv.eval_pwl(mv.truncate_affine(mv.affine(2, [0])), [F(1, 2)]) == 1


def test_term_to_pwl_examples():
    x = mv.var(1)
    e = term_to_pwl(mv.oplus(x, x), 1)
    assert mv.eval_pwl(e, [F(1, 3)]) == F(2, 3)
    assert mv.eval_pwl(e, [F(2, 3)]) == 1
    neg = term_to_pwl(mv.neg(x), 1)
    assert neg == mv.leaf(mv.affine(1, [-1]))
    d = term_to_pwl(mv.dist(mv.var(1), mv.var(2)), 2)
    assert mv.eval_pwl(d, [F(1, 3), F(1, 2)]) == F(1, 6)


def test_term_to_pwl_matches_eval_term():
    rng = random.Random(77)
    for _ in range(200):
        t = random_term(rng, 2, rng.randint(0, 5))
        expr = term_to_pwl(t, 2)
        for _ in range(50):
            p = random_point(rng, 2)
            assert mv.eval_pwl(expr, p) == mv.eval_term(t, p)


def test_decide_leq_examples():
    ident = L(0, 1)
    min2x = mv.min_of([L(1, 0), L(0, 2)])
    assert mv.function_leq(ident, min2x, 1)
    verdict = mv.function_leq(min2x, ident, 1)
    assert not verdict
    w = verdict.witness[0]
    assert min(F(1), 2 * w) > w
    max_part = mv.max_of([L(0, 0), L(-1, 2)])
    assert mv.function_leq(max_part, ident, 1)


def test_decide_eq_examples():
    assert mv.function_eq(ABS_EXPR, ABS_EXPR, 1)
    other = mv.min_of([L(-1, 2), L(1, -2)])
    verdict = mv.function_eq(ABS_EXPR, other, 1)
    assert not verdict
    p = verdict.witness
    assert mv.eval_pwl(ABS_EXPR, p) != mv.eval_pwl(other, p)


def test_decide_eq_certifies_max_identity():
    # a (+) (b (-) a) has the same function as max(a, b)
    t = mv.oplus(mv.var(1), mv.ominus(mv.var(2), mv.var(1)))
    expr = term_to_pwl(t, 2)
    target = mv.max_of([L(0, 1, 0), L(0, 0, 1)])
    assert mv.function_eq(expr, target, 2)


def test_decide_leq_on_subregion():
    # 1 - 2x <= x only holds right of x = 1/3
    lhs, rhs = L(1, -2), L(0, 1)
    region = mv.cube(1).with_constraints((mv.affine(1, [-3]),))  # x >= 1/3
    assert mv.function_leq(lhs, rhs, 1, region)
    assert not mv.function_leq(lhs, rhs, 1)


def test_decide_leq_empty_and_degenerate_regions():
    empty = mv.cube(1).with_constraints((mv.affine(1, [1]),))  # x <= -1
    assert mv.function_leq(L(0, 1), L(0, 1), 1, empty)
    line = mv.cube(1).with_constraints((mv.affine(0, [1]), mv.affine(0, [-1])))  # x = 0
    with pytest.raises(mv.DomainError):
        mv.function_leq(L(0, 1), L(0, 1), 1, line)


def test_clamp_commutes_with_lattice():
    # truncate(min(g,h)) == min(truncate g, truncate h), on a grid and
    # symbolically via function_eq
    g = mv.affine(-1, [2])
    h = mv.affine(1, [-1])
    min_form = mv.min_of([mv.leaf(g), mv.leaf(h)])
    lhs = mv.min_of([mv.max_of([min_form, L(0, 0)]), L(1, 0)])
    rhs = mv.min_of([mv.truncate_affine(g), mv.truncate_affine(h)])
    assert mv.function_eq(lhs, rhs, 1)
    for p in grid_points(1, 12):
        assert mv.eval_pwl(lhs, p) == mv.eval_pwl(rhs, p)


def test_decide_leq_agrees_with_grid():
    rng = random.Random(31)
    falses = trues = 0
    for _ in range(60):
        arity, lhs, rhs = random_pwl_pair(rng)
        verdict = decide_leq(lhs, rhs)
        points = grid_points(arity, 12)
        if verdict:
            trues += 1
            assert all(mv.eval_pwl(lhs, p) <= mv.eval_pwl(rhs, p) for p in points)
        else:
            falses += 1
            w = verdict.witness
            assert mv.eval_pwl(lhs, w) > mv.eval_pwl(rhs, w)
    assert trues > 0 and falses > 0


def test_decide_leq_reflexive_and_transitive_samples():
    rng = random.Random(32)
    exprs = [random_pwl(rng, 1, 2) for _ in range(6)]
    for e in exprs:
        assert mv.function_leq(e, e, 1)
    for a in exprs:
        for b in exprs:
            for c in exprs:
                if mv.function_leq(a, b, 1) and mv.function_leq(b, c, 1):
                    assert mv.function_leq(a, c, 1)


def test_function_leq_matches_decide_leq():
    rng = random.Random(55)
    agree_true = agree_false = 0
    for _ in range(60):
        s = random_term(rng, 2, rng.randint(0, 4))
        t = random_term(rng, 2, rng.randint(0, 4))
        spec_route = decide_leq(term_to_pwl(s, 2), term_to_pwl(t, 2))
        dag_route = mv.function_leq(s, t, 2)
        assert bool(spec_route) == bool(dag_route)
        if dag_route:
            agree_true += 1
        else:
            agree_false += 1
            w = dag_route.witness
            assert mv.eval_term(s, w) > mv.eval_term(t, w)
    assert agree_true > 0 and agree_false > 0


def _pwl_trees(arity: int, depth: int, width: int):
    # Integer and rational entries (denominators up to 6), so the common
    # denominator of a comparison ranges from 1 to the lcm of 2..6.
    entries = st.one_of(
        st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(2, 6))
    )
    leaves = st.builds(
        lambda constant, coeffs: L(constant, *coeffs),
        entries,
        st.lists(entries, min_size=arity, max_size=arity),
    )
    trees = leaves
    for _ in range(depth):
        kids = st.lists(trees, min_size=2, max_size=width)
        trees = st.one_of(leaves, st.builds(mv.min_of, kids), st.builds(mv.max_of, kids))
    return trees


# (depth, width) per arity, sized so the oracle's leaf-difference
# arrangement stays small: depth-2 trees at arity 3 take it minutes.
ORACLE_SHAPES = {1: (2, 3), 2: (2, 2), 3: (1, 2)}


@pytest.mark.parametrize("arity", sorted(ORACLE_SHAPES))
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_function_leq_agrees_with_oracle_property(arity, data):
    trees = _pwl_trees(arity, *ORACLE_SHAPES[arity])
    lhs, rhs = data.draw(trees), data.draw(trees)
    verdict = mv.function_leq(lhs, rhs, arity)
    reference = decide_leq(lhs, rhs)
    assert bool(verdict) == bool(reference)
    assert verdict == function_leq_fraction(lhs, rhs, arity)
    for decision in (verdict, reference):
        if not decision:
            w = decision.witness
            assert mv.eval_pwl(lhs, w) > mv.eval_pwl(rhs, w)


def test_function_leq_mixed_operands():
    x = mv.var(1)
    assert mv.function_eq(mv.oplus(x, x), mv.min_of([L(1, 0), L(0, 2)]), 1)
    assert not mv.function_leq(L(1, 0), x, 1)


def test_function_leq_on_subregion():
    x = mv.var(1)
    region = mv.cube(1).with_constraints((mv.affine(1, [-2]),))  # x >= 1/2
    assert mv.function_leq(mv.neg(x), x, 1, region)
    assert not mv.function_leq(mv.neg(x), x, 1)


def test_function_leq_empty_and_degenerate_regions():
    x = mv.var(1)
    empty = mv.cube(1).with_constraints((mv.affine(1, [1]),))  # x <= -1
    assert mv.function_leq(mv.ONE, x, 1, empty)
    line = mv.cube(1).with_constraints((mv.affine(0, [1]), mv.affine(0, [-1])))  # x = 0
    with pytest.raises(mv.DomainError):
        mv.function_leq(x, x, 1, line)


def test_function_leq_deep_shared_term():
    x = mv.var(1)
    t = mv.iterate_oplus(64, mv.otimes(x, x))
    # min(1, 64*max(0, 2x-1)) vs the lattice form directly
    target = mv.min_of([L(1, 0), mv.max_of([L(0, 0), L(-64, 128)])])
    assert mv.function_eq(t, target, 1)


# Each decision walks the cells of its operands; every operand, in either
# position, is checked against the declared arity first.
DECIDERS = {
    "function_leq": lambda a, b, n: mv.function_leq(a, b, n),
    "function_eq": lambda a, b, n: mv.function_eq(a, b, n),
    "membership_bound": lambda a, b, n: mv.membership_bound(a, mv.PrincipalIdeal(b, n)),
}


@pytest.mark.parametrize("decide", DECIDERS.values(), ids=DECIDERS.keys())
def test_decisions_check_operands(decide):
    x = mv.var(1)
    bad = [
        (L(0, 1, 1), 1),  # an expression of arity 2 at arity 1
        (mv.min_of([L(0, 1), L(0, 1, 1)]), 1),  # mixed-arity leaves
        (mv.min_of([L(0, 1), L(0, 1, 1)]), 2),
        (mv.var(3), 2),  # a term variable beyond the arity
    ]
    for operand, arity in bad:
        with pytest.raises(mv.DomainError):
            decide(operand, x, arity)
        if not isinstance(operand, mv.Term):  # the generator is a term
            continue
        with pytest.raises(mv.DomainError):
            decide(x, operand, arity)
    for operand in (F(1, 2), "x", None):
        with pytest.raises(TypeError):
            decide(operand, x, 1)
        with pytest.raises(TypeError):
            decide(x, operand, 1)


def test_operands_checked_before_the_region():
    empty = mv.cube(2).with_constraints((mv.affine(1, [1, 0]),))  # x1 <= -1
    assert mv.function_leq(mv.ONE, mv.var(2), 2, empty)
    with pytest.raises(mv.DomainError):
        mv.function_leq(mv.var(3), mv.var(2), 2, empty)
    with pytest.raises(mv.DomainError):
        mv.function_eq(mv.var(1), L(0, 1), 2, empty)


def test_decisions_over_coprime_denominators():
    x = mv.var(1)
    halves = mv.leaf(mv.affine(0, [F(1, 2)]))
    thirds = mv.leaf(mv.affine(F(1, 5), [F(1, 3)]))
    # x/2 <= 1/5 + x/3 exactly for x <= 6/5, so everywhere on [0, 1]
    assert mv.function_leq(halves, thirds, 1)
    verdict = mv.function_leq(thirds, halves, 1)
    assert verdict == function_leq_fraction(thirds, halves, 1)
    assert verdict.witness == (F(0),)
    assert not mv.function_eq(halves, thirds, 1)
    # x/2 is below both 1/5 + x/3 and x, so the max never picks it
    lower = mv.min_of([thirds, L(0, 1)])
    assert mv.function_eq(mv.max_of([halves, lower]), lower, 1)
    assert mv.function_eq(mv.max_of([halves, lower]), x, 1) == function_eq_fraction(
        mv.max_of([halves, lower]), x, 1
    )
    # min(3x/2, 1/2 + x/3) <= m*x first holds at m = 2 (ratio 3/2 near 0)
    element = mv.min_of(
        [mv.leaf(mv.affine(0, [F(3, 2)])), mv.leaf(mv.affine(F(1, 2), [F(1, 3)]))]
    )
    assert mv.membership_bound(element, mv.PrincipalIdeal(x, 1)) == 2
    assert mv.function_leq(element, mv.oplus(x, x), 1)
    assert not mv.function_leq(element, x, 1)


def test_walks_solve_one_interior_point_lp(monkeypatch):
    # A walk solves the interior-point LP for its region only: a split child
    # keeps its parent's point or takes one toward the vertex of the sign
    # LP that found the cut, and every cell's point is strictly interior.
    calls, cells = [], []
    interior_point = pwl.interior_point

    def counted(polytope):
        calls.append(polytope)
        return interior_point(polytope)

    class Recorded(pwl._CellCtx):
        __slots__ = ()

        def __init__(self, polytope, point, signs):
            cells.append((polytope, point))
            super().__init__(polytope, point, signs)

    monkeypatch.setattr(pwl, "interior_point", counted)
    monkeypatch.setattr(pwl, "_CellCtx", Recorded)
    x1, x2 = mv.var(1), mv.var(2)
    walks = [
        # x1 - x2, the first split form, vanishes at the cube's centre.
        lambda: mv.function_eq(mv.wedge(x1, x2), x1, 2),
        lambda: mv.function_eq(mv.oplus(x1, x2), mv.min_of([L(1, 0, 0), L(0, 1, 1)]), 2),
        lambda: mv.function_leq(
            mv.vee(x1, mv.neg(x2)), mv.ONE, 2,
            mv.cube(2).with_constraints((mv.affine(-1, [1, 1]),)),
        ),
        lambda: mv.membership_bound(mv.ominus(x1, x2), mv.PrincipalIdeal(mv.dist(x1, x2), 2)),
    ]
    rng = random.Random(64)
    for _ in range(30):
        arity = rng.randint(1, 3)
        s, t = (random_term(rng, arity, rng.randint(2, 5)) for _ in range(2))
        walks.append(lambda s=s, t=t, arity=arity: mv.function_eq(s, t, arity))
    splits = 0
    for walk in walks:
        calls.clear()
        cells.clear()
        walk()
        assert len(calls) == 1
        assert all(strictly_inside(poly, point) for poly, point in cells)
        splits += len(cells) > 1
    assert splits > 10
    cells.clear()
    mv.function_eq(mv.wedge(x1, x2), x1, 2)
    assert [point for _, point in cells][0] == (F(1, 2), F(1, 2))
    assert len(cells) == 3
