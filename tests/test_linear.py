"""Terms for clamped integer affine forms."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest

import mvsynth as mv
from conftest import grid_points

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
    # The construction peels one unit of mass per step; mass 300 must
    # not nest 300 Python calls.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        term = mv.linear_term(mv.affine(0, [300]))
    finally:
        sys.setrecursionlimit(limit)
    for p in (F(0), F(1, 600), F(1, 300), F(1, 2)):
        assert mv.eval_term(term, [p]) == min(F(1), 300 * p)
