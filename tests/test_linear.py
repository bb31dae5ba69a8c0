"""Terms for clamped integer affine forms."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest

import mvsynth as mv
from mvsynth.terms import _fold
from conftest import grid_points
from oracles import linear_term_unit_peel

F = Fraction


def test_constant_forms():
    assert mv.linear_term(mv.affine(-1, [0])) is mv.ZERO
    assert mv.linear_term(mv.affine(0, [0, 0])) is mv.ZERO
    assert mv.linear_term(mv.affine(1, [0])) is mv.ONE
    assert mv.linear_term(mv.affine(3, [0, 0])) is mv.ONE


def test_literal_forms():
    assert mv.linear_term(mv.affine(0, [1])) is mv.var(1)
    assert mv.linear_term(mv.affine(0, [0, 1])) is mv.var(2)
    assert mv.linear_term(mv.affine(1, [-1])) is mv.neg(mv.var(1))
    assert mv.linear_term(mv.affine(1, [0, -1])) is mv.neg(mv.var(2))


def test_slope_two_form():
    g = mv.affine(-1, [2])
    term = mv.linear_term(g)
    x = mv.var(1)
    assert mv.function_eq(term, mv.otimes(x, x), 1)
    for p in grid_points(1, 8):
        assert mv.eval_term(term, p) == max(F(0), 2 * p[0] - 1)


def test_output_function_is_clamp():
    rng = random.Random(17)
    for _ in range(25):
        arity = rng.choice([1, 2])
        coeffs = [rng.randint(-3, 3) for _ in range(arity)]
        g = mv.affine(rng.randint(-3, 3), coeffs)
        term = mv.linear_term(g)
        for p in grid_points(arity, 5):
            assert mv.eval_term(term, p) == mv.clamp01(g.evaluate(p))


def test_rejects_non_integer_forms():
    with pytest.raises(mv.DomainError):
        mv.linear_term(mv.AffineForm(F(1, 2), (F(1),)))
    with pytest.raises(mv.DomainError):
        mv.linear_term(mv.AffineForm(F(0), (F(1, 3),)))


def test_memoization_shares_structure():
    g = mv.affine(-1, [2, 1])
    assert mv.linear_term(g) is mv.linear_term(g)


def test_monotone_in_the_constant():
    rng = random.Random(23)
    for _ in range(10):
        arity = rng.choice([1, 2])
        coeffs = [rng.randint(-3, 3) for _ in range(arity)]
        c = rng.randint(-3, 2)
        low = mv.linear_term(mv.affine(c, coeffs))
        high = mv.linear_term(mv.affine(c + 1, coeffs))
        assert mv.function_leq(low, high, arity)


def test_exhaustive_certification_1d():
    # the n=1 slice of the exhaustive acceptance suite
    for c0, c1 in product(range(-3, 4), repeat=2):
        g = mv.affine(c0, [c1])
        term = mv.linear_term(g)
        verdict = mv.function_eq(term, mv.truncate_affine(g), 1)
        assert verdict, (c0, c1, verdict.witness)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_large_coefficient_mass_needs_no_deep_recursion():
    # The construction halves the coefficients and peels at most one unit
    # per odd coefficient between halvings, so mass 10**12 nests a few
    # dozen steps, and none of them as Python calls.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        term = mv.linear_term(mv.affine(0, [10**12]))
    finally:
        sys.setrecursionlimit(limit)
    for p in (F(0), F(1, 2 * 10**12), F(1, 10**12), F(1, 2)):
        assert mv.eval_term(term, [p]) == min(F(1), 10**12 * p)


def _dag_nodes(term) -> int:
    nodes = []
    _fold(term, lambda node, vals: nodes.append(node))
    return len(nodes)


def test_power_of_two_slope_grows_linearly_in_the_mass():
    # clamp(2^k x - 2^(k-1)) halves k times: its DAG grows by one node per
    # halving and its tree about doubles, so the tree stays linear in the
    # mass 2^k; unit peeling doubled it per unit of mass (6,063,840,399
    # nodes at k = 5).
    for k in range(1, 11):
        term = mv.linear_term(mv.affine(-(2 ** (k - 1)), [2**k]))
        assert _dag_nodes(term) <= k + 3, k
        assert mv.term_node_count(term) <= 4 * 2**k, k
    assert mv.term_node_count(mv.linear_term(mv.affine(-5, [10]))) == 58
    assert mv.term_node_count(mv.linear_term(mv.affine(-15, [30]))) == 594


def test_huge_coefficient_keeps_a_small_dag():
    term = mv.linear_term(mv.affine(-(10**12), [2 * 10**12, 1]))
    assert _dag_nodes(term) <= 300
    assert mv.term_node_count(term) > 10**16  # the tree is not printable


def _in_range_forms():
    # Every form whose range over the cube meets [0, 1]: constants from
    # -(positive mass) to 1 + (negative mass).
    for arity, bound in ((1, 12), (2, 6), (3, 3)):
        for coeffs in product(range(-bound, bound + 1), repeat=arity):
            pos = sum(c for c in coeffs if c > 0)
            neg = -sum(c for c in coeffs if c < 0)
            for c0 in range(-pos, neg + 2):
                yield mv.affine(c0, list(coeffs))


def test_never_larger_than_unit_peeling():
    # The oracle is the unit-peeling construction built with the unfolded
    # connectives, so it reproduces the terms the library made before it
    # halved coefficients or folded constants and double negations.
    forms = list(_in_range_forms())
    assert len(forms) == 4086
    new_total = old_total = 0
    for g in forms:
        term = mv.linear_term(g)
        new, old = mv.term_node_count(term), mv.term_node_count(linear_term_unit_peel(g))
        assert new <= old, (g, new, old)
        verdict = mv.function_eq(term, mv.truncate_affine(g), g.arity)
        assert verdict, (g, verdict.witness)
        new_total += new
        old_total += old
    assert 5 * new_total < old_total, (new_total, old_total)
