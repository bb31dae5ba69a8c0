"""The integer decision procedure and integer term evaluation: identical
decisions (verdict and witness) and values to the Fraction versions in
``tests/oracles.py``."""

import random
from fractions import Fraction

import pytest

import mvsynth as mv
from conftest import random_pwl, random_term
from oracles import eval_term_fraction, function_eq_fraction, function_leq_fraction

F = Fraction

_CONNECTIVES = (mv.oplus, mv.otimes, mv.ominus, mv.wedge, mv.vee, mv.dist)


def rich_term(rng: random.Random, arity: int, depth: int) -> mv.Term:
    """A random term over the derived connectives and small multiples, so
    that clamps overlap and cells split in several places."""
    if depth == 0:
        return rng.choice([mv.ZERO, mv.ONE] + [mv.var(i) for i in range(1, arity + 1)])
    kind = rng.randrange(8)
    if kind == 0:
        return mv.neg(rich_term(rng, arity, depth - 1))
    if kind == 1:
        return mv.iterate_oplus(rng.randint(2, 3), rich_term(rng, arity, depth - 1))
    op = rng.choice(_CONNECTIVES)
    return op(rich_term(rng, arity, depth - 1), rich_term(rng, arity, depth - 1))


def rational_pwl(rng: random.Random, arity: int, depth: int) -> mv.PwlExpr:
    """A lattice expression whose leaves have denominators 1 to 6."""
    if depth == 0 or rng.random() < 0.3:
        def q():
            return F(rng.randint(-6, 6), rng.randint(1, 6))

        return mv.leaf(mv.AffineForm(q(), tuple(q() for _ in range(arity))))
    kids = [rational_pwl(rng, arity, depth - 1) for _ in range(rng.randint(2, 3))]
    return mv.min_of(kids) if rng.random() < 0.5 else mv.max_of(kids)


def value(obj, point):
    if isinstance(obj, mv.Term):
        return mv.eval_term(obj, point)
    return mv.eval_pwl(obj, point)


def assert_same_decisions(lhs, rhs, arity):
    for a, b in ((lhs, rhs), (rhs, lhs)):
        verdict = mv.function_leq(a, b, arity)
        assert verdict == function_leq_fraction(a, b, arity)
        if not verdict:
            assert value(a, verdict.witness) > value(b, verdict.witness)
    equal = mv.function_eq(lhs, rhs, arity)
    assert equal == function_eq_fraction(lhs, rhs, arity)
    assert bool(equal) == bool(
        function_leq_fraction(lhs, rhs, arity) and function_leq_fraction(rhs, lhs, arity)
    )
    if not equal:
        assert value(lhs, equal.witness) != value(rhs, equal.witness)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_term_pairs_match_fraction_oracle(arity):
    rng = random.Random(4100 + arity)
    refuted = 0
    for _ in range(60 if arity < 3 else 30):
        s = rich_term(rng, arity, rng.randint(1, 4))
        t = rich_term(rng, arity, rng.randint(1, 4))
        if rng.random() < 0.3:  # a near miss: same term under one more connective
            t = rng.choice(_CONNECTIVES)(s, t)
        assert_same_decisions(s, t, arity)
        refuted += not mv.function_leq(s, t, arity)
    assert refuted > 0


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_term_vs_expression_matches_fraction_oracle(arity):
    rng = random.Random(4200 + arity)
    for _ in range(40 if arity < 3 else 20):
        t = rich_term(rng, arity, rng.randint(1, 3))
        if rng.random() < 0.5:
            e = random_pwl(rng, arity, 2, max_width=2)
        else:
            e = rational_pwl(rng, arity, 2)
        assert_same_decisions(t, e, arity)
        assert_same_decisions(random_term(rng, arity, 3), e, arity)


def test_term_vs_rational_expression():
    x = mv.var(1)
    half = F(1, 2)
    # min(1, 2x) with every coefficient a multiple of 1/2: the last leaf
    # 1/2 + 3x/2 never attains the minimum.
    target = mv.min_of(
        [
            mv.leaf(mv.affine(2 * half, [0])),
            mv.leaf(mv.affine(0, [4 * half])),
            mv.leaf(mv.affine(half, [3 * half])),
        ]
    )
    assert mv.function_eq(mv.oplus(x, x), target, 1)
    # 1/2 + x/2 cuts below min(1, 2x) on (1/3, 1).
    lower = mv.min_of([target, mv.leaf(mv.affine(half, [half]))])
    verdict = mv.function_leq(mv.oplus(x, x), lower, 1)
    assert verdict == function_leq_fraction(mv.oplus(x, x), lower, 1)
    w = verdict.witness
    assert mv.eval_term(mv.oplus(x, x), w) > mv.eval_pwl(lower, w)
    assert mv.function_leq(lower, mv.oplus(x, x), 1)


def test_expressions_with_coprime_denominators():
    # The common denominator is lcm(2, 3) = 6, not either one of them.
    halves = mv.leaf(mv.affine(0, [F(1, 2)]))
    thirds = mv.leaf(mv.affine(0, [F(1, 3)]))
    verdict = mv.function_leq(halves, thirds, 1)
    assert verdict == function_leq_fraction(halves, thirds, 1)
    assert verdict.witness == (1,)
    assert mv.function_leq(thirds, halves, 1)


def test_eval_term_matches_fraction_oracle():
    rng = random.Random(4300)
    for _ in range(300):
        arity = rng.randint(1, 3)
        t = rich_term(rng, arity, rng.randint(0, 5))
        # Mixed denominators, so the common denominator exceeds each one.
        point = [F(0), F(1)] + [
            F(rng.randint(0, q), q) for q in (rng.randint(1, 12) for _ in range(arity))
        ]
        point = rng.sample(point, arity)
        value = mv.eval_term(t, point)
        assert type(value) is Fraction
        assert value == eval_term_fraction(t, point)
