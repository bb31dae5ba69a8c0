"""Term syntax, evaluation, derived connectives, parsing and printing."""

import random
import re
from fractions import Fraction

import pytest

import mvsynth as mv
from conftest import farey_values, random_point, random_term
from oracles import (
    dist_unfolded,
    ominus_unfolded,
    otimes_unfolded,
    vee_unfolded,
    wedge_unfolded,
)

F = Fraction
X, Y, Z = mv.var(1), mv.var(2), mv.var(3)


def test_eval_core_examples():
    assert mv.eval_term(mv.neg(mv.ZERO), [F(1, 2)]) == 1
    assert mv.eval_term(mv.neg(mv.ZERO), [F(0), F(1)]) == 1
    assert mv.eval_term(mv.oplus(X, X), [F(2, 3)]) == 1
    assert mv.eval_term(mv.ominus(X, Y), [F(9, 10), F(1, 2)]) == F(2, 5)


def test_eval_rejects_bad_points():
    with pytest.raises(mv.DomainError):
        mv.eval_term(X, [F(3, 2)])
    with pytest.raises(mv.DomainError):
        mv.eval_term(X, [F(-1, 2)])
    with pytest.raises(mv.DomainError):
        mv.eval_term(Y, [F(1, 2)])  # arity mismatch
    with pytest.raises(mv.DomainError):
        mv.eval_term(X, [0.5])  # floats are not exact


def test_derived_connective_examples():
    assert mv.eval_term(mv.ominus(X, X), [F(1, 3)]) == 0
    assert mv.eval_term(mv.ominus(X, X), [F(7, 8)]) == 0
    assert mv.eval_term(mv.vee(X, mv.neg(X)), [F(1, 3)]) == F(2, 3)
    assert mv.eval_term(mv.dist(X, Y), [F(1, 3), F(1, 2)]) == F(1, 6)


def test_expand_derived_dispatch():
    assert mv.expand_derived("wedge", [X, Y]) is mv.wedge(X, Y)
    with pytest.raises(ValueError):
        mv.expand_derived("nope", [X, Y])
    with pytest.raises(ValueError):
        mv.expand_derived("vee", [X])


def test_derived_expansions_are_core_only():
    for build in (mv.otimes, mv.ominus, mv.wedge, mv.vee, mv.dist):
        text = mv.print_term(build(X, Y))
        for sugar in ("otimes", "ominus", "wedge", "vee", "dist"):
            assert sugar not in text


def _connective_operands():
    # The constants, x, its negation and double negation, and Neg-rooted
    # draws (whose child may itself be a negation or a constant).
    rng = random.Random(34)
    draws = [mv.neg(random_term(rng, 2, rng.randint(0, 3))) for _ in range(6)]
    return [mv.ZERO, mv.ONE, X, mv.neg(X), mv.neg(mv.neg(X))] + draws


@pytest.mark.parametrize(
    "build, unfolded",
    [
        (mv.otimes, otimes_unfolded),
        (mv.ominus, ominus_unfolded),
        (mv.vee, vee_unfolded),
        (mv.wedge, wedge_unfolded),
        (mv.dist, dist_unfolded),
    ],
)
def test_derived_connectives_fold_without_changing_the_function(build, unfolded):
    operands = _connective_operands()
    for a in operands:
        for b in operands:
            folded, reference = build(a, b), unfolded(a, b)
            assert mv.function_eq(folded, reference, 2), (a, b)
            assert mv.term_node_count(folded) <= mv.term_node_count(reference), (a, b)


def test_derived_connectives_fold_constants_and_double_negations():
    assert mv.otimes(X, mv.ONE) is X
    assert mv.otimes(mv.ZERO, X) is mv.ZERO
    assert mv.ominus(mv.ONE, mv.neg(X)) is X
    assert mv.ominus(X, mv.ONE) is mv.ZERO
    assert mv.ominus(mv.neg(X), Y) is mv.neg(mv.oplus(X, Y))
    assert mv.vee(X, mv.ZERO) is X
    assert mv.wedge(mv.neg(X), mv.neg(Y)) is mv.neg(mv.vee(X, Y))


def test_iterate_oplus():
    assert mv.iterate_oplus(1, X) is X
    assert mv.eval_term(mv.iterate_oplus(3, X), [F(1, 4)]) == F(3, 4)
    assert mv.eval_term(mv.iterate_oplus(5, X), [F(1, 4)]) == 1
    with pytest.raises(mv.DomainError):
        mv.iterate_oplus(0, X)


def test_iterate_oplus_matches_scalar_formula():
    rng = random.Random(7)
    t = mv.oplus(X, mv.neg(Y))
    for m in range(1, 9):
        it = mv.iterate_oplus(m, t)
        for _ in range(25):
            p = random_point(rng, 2)
            assert mv.eval_term(it, p) == min(F(1), m * mv.eval_term(t, p))


def test_interning_gives_identity_equality():
    assert mv.var(1) is X
    assert mv.oplus(X, Y) is mv.oplus(X, Y)
    assert mv.neg(mv.oplus(X, Y)) is mv.neg(mv.oplus(X, Y))
    assert mv.oplus(X, Y) is not mv.oplus(Y, X)


def test_terms_are_immutable():
    with pytest.raises(AttributeError):
        mv.var(1).index = 5


def test_var_index_validation():
    with pytest.raises(mv.DomainError):
        mv.var(0)
    with pytest.raises(mv.DomainError):
        mv.var(-2)


def test_parse_print_round_trip():
    text = "(oplus (var 1) (neg (var 2)))"
    t = mv.parse_term(text)
    assert mv.print_term(t) == text
    assert mv.parse_term(mv.print_term(t)) is t


def test_parse_sugar_expands():
    assert mv.parse_term("(wedge (var 1) (var 2))") is mv.wedge(X, Y)
    assert mv.parse_term("(dist (var 1) (var 2))") is mv.dist(X, Y)
    assert mv.parse_term("(neg 0)") is mv.neg(mv.ZERO)


def test_parse_sugar_folds_constants():
    assert mv.parse_term("(ominus (var 1) 0)") is mv.var(1)
    assert mv.parse_term("(wedge (var 1) 1)") is mv.var(1)
    assert mv.parse_term("(vee 0 (var 2))") is mv.var(2)


def test_core_text_is_never_rewritten():
    text = "(neg (neg (var 1)))"
    t = mv.parse_term(text)
    assert t is mv.neg(mv.neg(X)) and t is not X
    assert mv.print_term(t) == text
    assert mv.parse_term("(oplus (var 1) 0)") is mv.oplus(X, mv.ZERO)


def test_parse_whitespace_insensitive():
    assert mv.parse_term("(oplus(var 1)(neg(var 2)))") is mv.parse_term(
        " (oplus  (var 1)\n (neg (var 2)) ) "
    )


@pytest.mark.parametrize(
    "bad",
    [
        "(var 0)",
        "(var x)",
        "(oplus (var 1))",
        "(oplus (var 1) (var 2) (var 3))",
        "(neg)",
        "(frob (var 1))",
        "2",
        "",
        "(oplus 0 1",
        "(oplus 0 1))",
        "(var 1) extra",
        "(neg [var 1])",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(mv.TermSyntaxError):
        mv.parse_term(bad)


def test_parse_error_carries_position():
    try:
        mv.parse_term("(oplus 0 $)")
    except mv.TermSyntaxError as ex:
        assert ex.position == 9
    else:
        pytest.fail("expected a syntax error")


def test_print_parse_structural_identity_random():
    rng = random.Random(42)
    for _ in range(200):
        t = random_term(rng, 3, rng.randint(0, 5))
        assert mv.parse_term(mv.print_term(t)) is t


def test_eval_stays_in_unit_interval():
    rng = random.Random(3)
    for _ in range(300):
        t = random_term(rng, 2, rng.randint(0, 5))
        v = mv.eval_term(t, random_point(rng, 2))
        assert 0 <= v <= 1


def _mv_oplus(a, b):
    return min(F(1), a + b)


def _mv_ominus(a, b):
    return max(F(0), a - b)


def test_residuation_implication_exhaustive_and_random():
    # if a <= b (+) c then a (-) b <= c
    values = farey_values(6)
    triples = [(a, b, c) for a in values for b in values for c in values]
    rng = random.Random(5)
    triples += [
        (random_point(rng, 1)[0], random_point(rng, 1)[0], random_point(rng, 1)[0])
        for _ in range(2000)
    ]
    checked = 0
    for a, b, c in triples:
        lhs = mv.eval_term(mv.ominus(X, Y), [a, b])
        bound = mv.eval_term(mv.oplus(X, Y), [b, c])
        if a <= bound:
            assert lhs <= c
            checked += 1
    assert checked > 1000


def test_difference_plus_meet_identity():
    # (a (-) b) (+) (a /\ b) == a, exhaustively and at random points
    t = mv.oplus(mv.ominus(X, Y), mv.wedge(X, Y))
    values = farey_values(6)
    rng = random.Random(6)
    pairs = [(a, b) for a in values for b in values]
    pairs += [(random_point(rng, 1)[0], random_point(rng, 1)[0]) for _ in range(2000)]
    for a, b in pairs:
        assert mv.eval_term(t, [a, b]) == a


def test_oplus_of_difference_is_max():
    t = mv.oplus(X, mv.ominus(Y, X))
    rng = random.Random(8)
    for _ in range(500):
        a, b = random_point(rng, 2)
        assert mv.eval_term(t, [a, b]) == max(a, b)


def test_dist_is_absolute_difference():
    t = mv.dist(X, Y)
    rng = random.Random(9)
    for _ in range(500):
        a, b = random_point(rng, 2)
        assert mv.eval_term(t, [a, b]) == abs(a - b)


def test_structural_measurements():
    t = mv.oplus(mv.neg(X), mv.oplus(X, Y))
    assert mv.term_node_count(t) == 6
    assert mv.term_oplus_depth(t) == 2
    assert mv.max_var_index(t) == 2
    assert mv.max_var_index(mv.ZERO) == 0


def test_max_var_index_matches_a_walk():
    # The index is kept on each node; a walk over the printed term agrees.
    rng = random.Random(23)
    for _ in range(200):
        t = random_term(rng, rng.randint(1, 5), rng.randint(0, 6))
        indices = [int(v) for v in re.findall(r"\(var (\d+)\)", mv.print_term(t))]
        assert mv.max_var_index(t) == max(indices, default=0)
    assert mv.max_var_index(mv.parse_term("(wedge (var 7) (neg (var 2)))")) == 7
    with pytest.raises(TypeError):
        mv.max_var_index("(var 1)")


def test_deep_terms_do_not_recurse():
    t = mv.iterate_oplus(30_000, X)
    assert mv.eval_term(t, [F(1)]) == 1
    assert mv.term_node_count(t) == 59_999
    text = mv.print_term(t)
    assert mv.parse_term(text) is t
