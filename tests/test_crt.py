"""Ideals, membership, gluing, region analysis, and the synthesizers."""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvsynth as mv
from mvsynth import crt, pwl
from mvsynth.crt import (
    _clamp_on_cell,
    _lattice_pick,
    _least_multipliers,
    _matches_on_zero_set,
)
from mvsynth.geometry import Cell
from mvsynth.terms import Neg, _fold
from conftest import (
    build_corpus,
    clamp_description,
    curated_corpus,
    grid_points,
    membership_heavy_description,
    multiplier_heavy_description,
    random_description,
    random_term,
)
from oracles import (
    chinese_glue_halving,
    membership_bound_doubling,
    select_constituent_lp,
)

F = Fraction
X = mv.var(1)


def L(constant, *coeffs):
    return mv.leaf(mv.affine(constant, list(coeffs)))


ABS_EXPR = mv.max_of([L(-1, 2), L(1, -2)])


def test_ideal_for_order_single():
    ideal = mv.ideal_for_order([1], [X], 1)
    assert ideal.generator is mv.ZERO


def test_ideal_for_order_two_terms():
    h = [X, mv.neg(X)]
    fwd = mv.ideal_for_order([1, 2], h, 1)
    assert fwd.generator is mv.ominus(X, mv.neg(X))
    assert mv.eval_term(fwd.generator, [F(1, 4)]) == 0
    assert mv.eval_term(fwd.generator, [F(3, 4)]) == F(1, 2)
    rev = mv.ideal_for_order([2, 1], h, 1)
    # generator max(0, 1-2x): zero set is [1/2, 1]
    zero_region = mv.cube(1).with_constraints((mv.affine(1, [-2]),))  # x >= 1/2
    zero = L(0, 0)
    assert mv.function_leq(rev.generator, zero, 1, zero_region)
    assert not mv.function_leq(rev.generator, zero, 1)


def test_ideal_for_order_validates_permutation():
    with pytest.raises(mv.DomainError):
        mv.ideal_for_order([1, 1], [X, X], 1)
    with pytest.raises(mv.DomainError):
        mv.ideal_for_order([1, 3], [X, X], 1)


def test_membership_trivial_cases():
    ideal = mv.PrincipalIdeal(X, 1)
    assert mv.membership_bound(mv.ZERO, ideal) == 1
    assert mv.membership_bound(X, ideal) == 1


def test_membership_doubling_example():
    # min(1, 2x) <= min(1, m*x) first holds at m = 2
    ideal = mv.PrincipalIdeal(X, 1)
    assert mv.membership_bound(mv.oplus(X, X), ideal) == 2


def test_membership_refutation():
    ideal = mv.PrincipalIdeal(X, 1)
    with pytest.raises(mv.NotMemberError) as info:
        mv.membership_bound(mv.ONE, ideal)
    w = info.value.witness
    assert mv.eval_term(X, w) == 0 and w == (F(0),)


def test_membership_cap():
    ideal = mv.PrincipalIdeal(X, 1)
    with pytest.raises(mv.CapExceededError):
        mv.membership_bound(mv.oplus(X, X), ideal, cap=1)
    with pytest.raises(mv.DomainError):
        mv.membership_bound(X, ideal, cap=0)


@pytest.mark.parametrize("k", [3, 5, 6, 9])
def test_membership_bound_is_least(k):
    # min(1, kx) <= min(1, m*x) first holds at m = k; doubling overshoots
    element = mv.iterate_oplus(k, X)
    ideal = mv.PrincipalIdeal(X, 1)
    assert mv.membership_bound(element, ideal) == k
    assert not mv.function_leq(element, mv.iterate_oplus(k - 1, X), 1)


def test_membership_cap_bounds_the_least_multiplier():
    ideal = mv.PrincipalIdeal(X, 1)
    assert mv.membership_bound(mv.iterate_oplus(3, X), ideal, cap=3) == 3
    with pytest.raises(mv.CapExceededError):
        mv.membership_bound(mv.iterate_oplus(3, X), ideal, cap=2)


@pytest.fixture(scope="module")
def corpus_entries():
    """The acceptance corpus and the multiplier-heavy input."""
    return build_corpus() + [
        ("membership-heavy", membership_heavy_description()),
        ("multiplier-heavy", multiplier_heavy_description()),
    ]


@pytest.fixture(scope="module")
def corpus_traces(corpus_entries):
    """(term, trace) of every entry of ``corpus_entries``, synthesized."""
    out = []
    for _, description in corpus_entries:
        trace = mv.SynthesisTrace()
        out.append((mv.synthesize_crt(description, trace=trace), trace))
    return out


@pytest.fixture(scope="module")
def corpus_memberships(corpus_traces):
    """(element, joined ideal, multiplier) of every pair check when the
    acceptance corpus and the multiplier-heavy input are synthesized."""
    out = []
    for _, trace in corpus_traces:
        for r in trace.combines:
            join = mv.PrincipalIdeal(
                mv.oplus(r.left_ideal.generator, r.right_ideal.generator),
                r.left_ideal.arity,
            )
            out.append((mv.ominus(r.left, r.right), join, r.bound_left))
            out.append((mv.ominus(r.right, r.left), join, r.bound_right))
    assert max(m for _, _, m in out) > 1
    return out


def test_corpus_combines_match_separate_membership_calls(corpus_memberships):
    # Both multipliers of a pair check come from one walk; each must be
    # the one membership_bound finds alone.
    for element, ideal, m in corpus_memberships:
        assert mv.membership_bound(element, ideal) == m


def test_corpus_multipliers_are_least(corpus_memberships):
    for element, ideal, m in corpus_memberships:
        gen, arity = ideal.generator, ideal.arity
        assert mv.function_leq(element, mv.iterate_oplus(m, gen), arity)
        if m > 1:
            assert not mv.function_leq(element, mv.iterate_oplus(m - 1, gen), arity)


def test_least_multiplier_against_doubling_oracle(corpus_memberships):
    cases = [(e, ideal) for e, ideal, _ in corpus_memberships]
    cases += [(mv.iterate_oplus(k, X), mv.PrincipalIdeal(X, 1)) for k in range(1, 10)]
    for element, ideal in cases:
        exact = mv.membership_bound(element, ideal)
        doubling = membership_bound_doubling(element, ideal)
        assert exact <= doubling < 2 * exact


def test_intersect_principal():
    ix = mv.PrincipalIdeal(X, 1)
    inx = mv.PrincipalIdeal(mv.neg(X), 1)
    both = mv.intersect_principal(ix, inx)
    assert both.generator is mv.wedge(X, mv.neg(X))
    # zero set of min(x, 1-x) is exactly the endpoints
    for p in grid_points(1, 12):
        value = mv.eval_term(both.generator, p)
        if p[0] in (F(0), F(1)):
            assert value == 0
        else:
            assert value > 0
    # doubling the generator stays inside the intersection ideal (m = 2),
    # while something positive at an endpoint is correctly rejected
    assert mv.membership_bound(mv.oplus(both.generator, both.generator), both) == 2
    with pytest.raises(mv.NotMemberError):
        mv.membership_bound(mv.otimes(X, X), both)  # positive at x = 1


def test_intersect_zero_set_is_union_of_zero_sets():
    rng = random.Random(3)
    pairs = [
        (mv.otimes(X, X), mv.neg(mv.oplus(X, X))),
        (X, mv.neg(X)),
        (mv.ominus(X, mv.neg(X)), mv.ominus(mv.neg(X), X)),
    ]
    for g1, g2 in pairs:
        meet = mv.intersect_principal(
            mv.PrincipalIdeal(g1, 1), mv.PrincipalIdeal(g2, 1)
        ).generator
        for p in grid_points(1, 12):
            lhs_zero = mv.eval_term(meet, p) == 0
            rhs_zero = mv.eval_term(g1, p) == 0 or mv.eval_term(g2, p) == 0
            assert lhs_zero == rhs_zero


def test_combine_pair_collapses_when_equal():
    ideal = mv.PrincipalIdeal(mv.otimes(X, X), 1)
    trace = mv.SynthesisTrace()
    assert mv.combine_pair(X, X, ideal, mv.PrincipalIdeal(X, 1), trace=trace) is X
    assert trace.combines == []


def test_combine_pair_worked_example():
    h1 = mv.otimes(X, X)            # max(0, 2x-1)
    h2 = mv.neg(mv.oplus(X, X))     # max(0, 1-2x)
    ideal1 = mv.PrincipalIdeal(mv.ominus(h1, h2), 1)
    ideal2 = mv.PrincipalIdeal(mv.ominus(h2, h1), 1)
    trace = mv.SynthesisTrace()
    glued = mv.combine_pair(h2, h1, ideal1, ideal2, trace=trace)
    record = trace.combines[0]
    assert record.bound_left == 1 and record.bound_right == 1
    assert mv.function_eq(glued, ABS_EXPR, 1)
    # congruences: d(result, a_i) belongs to ideal_i
    assert mv.membership_bound(mv.dist(glued, h2), ideal1) >= 1
    assert mv.membership_bound(mv.dist(glued, h1), ideal2) >= 1


def test_combine_pair_not_congruent():
    zero_ideal = mv.PrincipalIdeal(mv.ZERO, 1)
    with pytest.raises(mv.NotCongruentError) as info:
        mv.combine_pair(X, mv.neg(X), zero_ideal, zero_ideal)
    w = info.value.witness
    assert mv.eval_term(mv.dist(X, mv.neg(X)), w) > 0


@pytest.mark.parametrize("a1, a2", [(X, mv.neg(X)), (mv.neg(X), X)])
def test_combine_pair_first_element_error_wins(a1, a2):
    # Both differences are non-members of the zero ideal; the error is
    # the one of a1 - a2, with the witness membership_bound gives it.
    zero_ideal = mv.PrincipalIdeal(mv.ZERO, 1)
    join = mv.PrincipalIdeal(mv.oplus(mv.ZERO, mv.ZERO), 1)
    with pytest.raises(mv.NotMemberError) as alone:
        mv.membership_bound(mv.ominus(a1, a2), join)
    with pytest.raises(mv.NotCongruentError) as info:
        mv.combine_pair(a1, a2, zero_ideal, zero_ideal)
    assert info.value.witness == alone.value.witness
    assert info.value.witness == ((F(1),) if a1 is X else (F(0),))


def test_combine_pair_second_cap_yields_to_first_non_member():
    # a1 - a2 = max(0, 1 - 2x - min(1, 3x, 3 - 3x)) is positive at x = 0,
    # where the joined generator x vanishes; a2 - a1 needs m = 2 > cap.
    # The walk passes the cap for a2 - a1 on a cell before the one that
    # refutes a1 - a2, and the refutation still wins.
    a1 = mv.neg(mv.oplus(X, X))
    a2 = mv.wedge(mv.iterate_oplus(3, X), mv.iterate_oplus(3, mv.neg(X)))
    ideal1, ideal2 = mv.PrincipalIdeal(X, 1), mv.PrincipalIdeal(mv.ZERO, 1)
    join = mv.PrincipalIdeal(mv.oplus(X, mv.ZERO), 1)
    assert mv.membership_bound(mv.ominus(a2, a1), join) == 2
    with pytest.raises(mv.CapExceededError):
        mv.membership_bound(mv.ominus(a2, a1), join, cap=1)
    with pytest.raises(mv.NotMemberError):
        mv.membership_bound(mv.ominus(a1, a2), join, cap=1)
    with pytest.raises(mv.NotCongruentError):
        mv.combine_pair(a1, a2, ideal1, ideal2, cap=1)


def test_combine_pair_second_element_non_member():
    # a1 - a2 = 0 is a member; a2 - a1 = 1 - x is positive at x = 0,
    # where the joined generator x (+) x vanishes.
    a1, a2 = mv.ZERO, mv.neg(X)
    ideal = mv.PrincipalIdeal(X, 1)
    with pytest.raises(mv.NotCongruentError) as info:
        mv.combine_pair(a1, a2, ideal, ideal)
    w = info.value.witness
    assert mv.eval_term(mv.oplus(X, X), w) == 0
    assert mv.eval_term(mv.ominus(a2, a1), w) > 0


def _separate_outcome(a1, a2, join, cap):
    """What two membership_bound calls in element order give: the pair
    of multipliers, or the first error with its element."""
    ms = []
    for element in (mv.ominus(a1, a2), mv.ominus(a2, a1)):
        try:
            ms.append(mv.membership_bound(element, join, cap))
        except (mv.NotMemberError, mv.CapExceededError) as ex:
            return ex, element
    return tuple(ms), None


def test_combine_pair_matches_separate_calls_on_random_pairs():
    rng = random.Random(9)
    seen = set()
    for _ in range(200):
        arity = rng.randint(1, 3)
        a1 = random_term(rng, arity, rng.randint(1, 4))
        u = random_term(rng, arity, rng.randint(0, 2))
        kind = rng.randrange(3)
        if kind == 0:  # unrelated terms and generator
            a2 = random_term(rng, arity, rng.randint(1, 4))
            gen = random_term(rng, arity, rng.randint(0, 3))
        elif kind == 1:  # a generator below the distance
            a2 = random_term(rng, arity, rng.randint(1, 4))
            gen = mv.wedge(mv.dist(a1, a2), u)
        else:  # a difference of up to k times the generator
            a2 = mv.oplus(a1, mv.iterate_oplus(rng.randint(2, 5), u))
            gen = u
        if rng.random() < 0.5:
            a1, a2 = a2, a1
        other = random_term(rng, arity, rng.randint(0, 2)) if rng.random() < 0.5 else mv.ZERO
        ideal1, ideal2 = mv.PrincipalIdeal(gen, arity), mv.PrincipalIdeal(other, arity)
        join = mv.PrincipalIdeal(mv.oplus(gen, other), arity)
        cap = rng.choice([1, 2, 3, mv.DEFAULT_CAP])
        expected, element = _separate_outcome(a1, a2, join, cap)
        trace = mv.SynthesisTrace()
        if a1 is a2:
            # one arm: no walk, no record, the term itself
            assert mv.combine_pair(a1, a2, ideal1, ideal2, cap, trace) is a1
            assert trace.combines == []
            seen.add("equal")
        elif element is None:
            mv.combine_pair(a1, a2, ideal1, ideal2, cap, trace)
            record = trace.combines[0]
            assert (record.bound_left, record.bound_right) == expected
            seen.add("member" if max(expected) == 1 else "multiple")
        elif isinstance(expected, mv.CapExceededError):
            with pytest.raises(mv.CapExceededError):
                mv.combine_pair(a1, a2, ideal1, ideal2, cap, trace)
            seen.add("cap")
        else:
            with pytest.raises(mv.NotCongruentError) as info:
                mv.combine_pair(a1, a2, ideal1, ideal2, cap, trace)
            w = info.value.witness
            if element is mv.ominus(a1, a2):
                # the first element's cells are its cells alone
                assert w == expected.witness
                seen.add("first refuted")
            else:
                seen.add("second refuted")
            assert mv.eval_term(join.generator, w) == 0
            assert mv.eval_term(element, w) > 0
    assert seen == {"equal", "member", "multiple", "cap", "first refuted", "second refuted"}


def test_chinese_glue_degenerate_cases():
    ideal = mv.PrincipalIdeal(mv.otimes(X, X), 1)
    assert mv.chinese_glue([(X, ideal)]) is X
    h1 = mv.otimes(X, X)
    h2 = mv.neg(mv.oplus(X, X))
    ideal1 = mv.PrincipalIdeal(mv.ominus(h1, h2), 1)
    ideal2 = mv.PrincipalIdeal(mv.ominus(h2, h1), 1)
    two = mv.chinese_glue([(h2, ideal1), (h1, ideal2)])
    assert two is mv.combine_pair(h2, h1, ideal1, ideal2)
    with pytest.raises(mv.DomainError):
        mv.chinese_glue([])


def test_chinese_glue_uses_the_least_multipliers():
    # min(1, 2x) - 0 needs m = 2 in the joined ideal x (+) (x (.) x).  The
    # arm min(1, 2x) - 2x is 0, so the output is 0; with m = 1 the arm
    # min(1, 2x) - x stays positive on (0, 1/2], where the generator
    # x (.) x of the other pair's ideal vanishes.
    a1, a2 = mv.oplus(X, X), mv.ZERO
    ideal1, ideal2 = mv.PrincipalIdeal(X, 1), mv.PrincipalIdeal(mv.otimes(X, X), 1)
    trace = mv.SynthesisTrace()
    glued = mv.chinese_glue([(a1, ideal1), (a2, ideal2)], trace=trace)
    record = trace.combines[0]
    assert (record.bound_left, record.bound_right) == (2, 1)
    assert mv.function_eq(glued, mv.ZERO, 1)
    assert mv.membership_bound(mv.dist(glued, a1), ideal1) == 2
    assert mv.membership_bound(mv.dist(glued, a2), ideal2) == 1


def test_chinese_glue_tags_failing_index():
    zero_ideal = mv.PrincipalIdeal(mv.ZERO, 1)
    pairs = [(X, zero_ideal), (X, zero_ideal), (mv.neg(X), zero_ideal)]
    with pytest.raises(mv.NotCongruentError) as info:
        mv.chinese_glue(pairs)
    assert info.value.index == 3
    # Pairs 1, 2 and 4 merge into the arm X, pair 3 is the arm (-)X; the
    # failing check (X, (-)X) has its later arm first at pair 3.
    pairs = [(X, zero_ideal), (X, zero_ideal), (mv.neg(X), zero_ideal), (X, zero_ideal)]
    with pytest.raises(mv.NotCongruentError) as info:
        mv.chinese_glue(pairs)
    assert info.value.index == 3
    # Arms X, Y, (-)X: (X, Y) passes, (X, (-)X) fails, later arm at pair 4.
    y_ideal = mv.PrincipalIdeal(mv.dist(X, mv.var(2)), 2)
    pairs = [(X, y_ideal), (X, y_ideal), (mv.var(2), y_ideal), (mv.neg(X), y_ideal)]
    with pytest.raises(mv.NotCongruentError) as info:
        mv.chinese_glue(pairs)
    assert info.value.index == 4


def _arms(groups):
    """Each distinct group term with the intersection of its groups'
    ideals, in order of first occurrence."""
    arms = {}
    for g in groups:
        arms[g.term] = mv.intersect_principal(arms[g.term], g.ideal) if g.term in arms else g.ideal
    return arms


def test_chinese_glue_merges_by_term(corpus_traces):
    merged = 0
    for term, trace in corpus_traces:
        arms = _arms(trace.groups)
        if len(arms) == 1:
            assert term is trace.groups[0].term and trace.combines == []
            continue
        merged += len(arms) < len(trace.groups)
        # one record per pair of arms, in (s, t) order, on the merged ideals
        expected = list(combinations(arms.items(), 2))
        assert len(trace.combines) == len(expected)
        for r, ((a_s, i_s), (a_t, i_t)) in zip(trace.combines, expected):
            assert (r.left, r.right, r.left_ideal, r.right_ideal) == (a_s, a_t, i_s, i_t)
            assert r.result is term
    assert merged > 0


def test_glued_size_is_linear_in_the_arms(corpus_traces):
    # a - b is neg(oplus(neg(a), b)) with neg(neg(a)) folded to a, so it
    # adds at most 3 nodes, and an arm a - m*G has at most
    # |a| + m*|G| + m + 2 (the iterate adds m - 1 oplus nodes).  A vee
    # adds at most 4 nodes and its right arm twice, so the join has at
    # most 2 * sum(|arm| + 2) nodes.
    for term, trace in corpus_traces:
        if not trace.combines:
            continue
        bound = {}
        for r in trace.combines:
            bound[r.left] = max(bound.get(r.left, 1), r.bound_left)
            bound[r.right] = max(bound.get(r.right, 1), r.bound_right)
        size = mv.term_node_count
        total = sum(
            size(a) + bound[a] * (size(ideal.generator) + 1) + 4
            for a, ideal in _arms(trace.groups).items()
        )
        assert size(term) <= 2 * total


def _redundant_negations(term):
    """The distinct nodes of ``term`` that negate a negation or a constant."""
    found = []

    def step(node, _):
        if isinstance(node, Neg) and (
            isinstance(node.child, Neg) or node.child in (mv.ZERO, mv.ONE)
        ):
            found.append(node)

    _fold(term, step)
    return found


def test_outputs_fold_double_negations_and_negated_constants(
    corpus_entries, corpus_traces
):
    # The derived connectives fold neg(neg(t)) to t and neg of a constant
    # to the other constant, so no output of either compiler holds one.
    outputs = [term for term, _ in corpus_traces]
    outputs += [mv.synthesize_direct(description) for _, description in corpus_entries]
    for seed in range(6):
        for k in (3, 4):
            description = random_description(random.Random(f"fold-{seed}"), 3, k)
            outputs += [mv.synthesize_crt(description), mv.synthesize_direct(description)]
    for term in outputs:
        assert not _redundant_negations(term), _redundant_negations(term)[0]


def test_glue_matches_paper_reference(corpus_entries, corpus_traces):
    # The paper's formula glued by halving, and the one-level join, are
    # both the described function; the join is no larger in total.
    reference_total = glued_total = 0
    for (name, description), (term, trace) in zip(corpus_entries, corpus_traces):
        arity = mv.pwl_arity(description)
        pairs = [(g.term, g.ideal) for g in trace.groups]
        reference = chinese_glue_halving(pairs)
        assert mv.chinese_glue(pairs) is term
        assert mv.function_eq(reference, description, arity), name
        assert mv.function_eq(term, description, arity), name
        reference_total += mv.term_node_count(reference)
        glued_total += mv.term_node_count(term)
    assert glued_total <= reference_total


def test_chinese_glue_three_ideals_congruences():
    f = mv.max_of([L(-1, 2), L(1, -2), L(0, 1)])
    groups = mv.analyze_regions(f)
    assert len(groups) == 3
    constituents = mv.pwl_leaves(f)
    pairs = [
        (mv.linear_term(constituents[g.selected - 1]), g.ideal) for g in groups
    ]
    glued = mv.chinese_glue(pairs)
    for term, ideal in pairs:
        assert mv.membership_bound(mv.dist(glued, term), ideal) <= mv.DEFAULT_CAP


def test_analyze_regions_single_leaf():
    groups = mv.analyze_regions(mv.leaf(mv.unit_form(1, 1)))
    assert len(groups) == 1
    group = groups[0]
    assert group.ordering == (1,)
    assert group.selected == 1
    assert group.ideal.generator is mv.ZERO


def test_analyze_regions_abs():
    groups = mv.analyze_regions(ABS_EXPR)
    assert len(groups) == 2
    by_ordering = {g.ordering: g for g in groups}
    # left of 1/2 the first constituent (2x-1) clamps to 0: it sorts first
    # and the function equals constituent 2 there
    assert by_ordering[(1, 2)].selected == 2
    assert by_ordering[(2, 1)].selected == 1
    for g in groups:
        assert len(g.cells) == 1
        assert len(g.points) == 1


def test_analyze_regions_min2d():
    f = mv.min_of([L(0, 1, 0), L(0, 0, 1)])
    groups = mv.analyze_regions(f)
    assert len(groups) == 2
    for g in groups:
        # on each side of the diagonal the smaller variable is selected
        point = g.points[0]
        expected = 1 if point[0] <= point[1] else 2
        assert g.selected == expected


def test_description_is_resolved_only_by_tie_tests(monkeypatch, corpus_entries):
    points = []
    resolve = crt._resolve_at

    def counted(description, point):
        points.append(point)
        return resolve(description, point)

    monkeypatch.setattr(crt, "_resolve_at", counted)
    # min(x1, x2) has no lower-index tie: no group reads the description's
    # own form, so no cell resolves it.
    mv.analyze_regions(mv.min_of([L(0, 1, 0), L(0, 0, 1)]))
    assert points == []
    # Where ties are tested, each cell resolves it at most once.
    resolved = 0
    for name, description in corpus_entries:
        points.clear()
        groups = mv.analyze_regions(description)
        assert len(points) == len(set(points)), name
        assert len(points) <= sum(len(g.cells) for g in groups), name
        resolved += len(points)
    assert resolved > 0  # the corpus has ties: the count is not vacuous


def test_analyze_regions_rejects_out_of_range():
    with pytest.raises(mv.InvalidDescriptionError) as info:
        mv.analyze_regions(L(0, 2))  # 2x exceeds 1
    w = info.value.witness
    assert 2 * w[0] > 1
    with pytest.raises(mv.InvalidDescriptionError):
        mv.analyze_regions(L(-1, 1))  # x - 1 drops below 0


def test_region_cells_cover_the_cube():
    for name, description in curated_corpus():
        arity = mv.pwl_arity(description)
        groups = mv.analyze_regions(description)
        cells = [c for g in groups for c in g.cells]
        for p in grid_points(arity, 8):
            assert any(c.contains(p) for c in cells), (name, p)


def test_region_selected_constituent_matches_on_cells():
    for name, description in curated_corpus():
        arity = mv.pwl_arity(description)
        constituents = mv.pwl_leaves(description)
        for g in mv.analyze_regions(description):
            target = mv.truncate_affine(constituents[g.selected - 1])
            for cell in g.cells:
                assert mv.function_eq(description, target, arity, cell), name


def test_lattice_pick_matches_and_selection_equals_lp_search(corpus_entries):
    # The lattice pick's clamp equals the description on the whole zero
    # set of every group (the premise that needs no LP), and the selected
    # constituent is still the LP search's: the lowest-index one equal
    # there.  Clamp-wrapped draws carry constant 0/1 leaves, where ties
    # come from.
    rng = random.Random(1717)
    draws = [
        (f"draw-n{arity}k{k}-{i}", random_description(rng, arity, k))
        for arity, ks in ((1, (2, 3, 4, 5)), (2, (2, 3, 4)), (3, (2, 3)))
        for k in ks
        for i in range(3)
    ]
    for name, description in corpus_entries + draws:
        arity = mv.pwl_arity(description)
        constituents = mv.pwl_leaves(description)
        groups = mv.analyze_regions(description)
        expected = select_constituent_lp(description)
        assert [(g.ordering, g.selected) for g in groups] == list(expected.items()), name
        cell_data = [
            (
                Cell((), polytope, point),
                pwl._resolve_at(description, point),
                [_clamp_on_cell(g, point, arity) for g in constituents],
            )
            for group in groups
            for polytope, point in zip(group.cells, group.points)
        ]
        for group in groups:
            pick = _lattice_pick(description, constituents, group.ordering)
            assert group.selected <= pick, (name, group.ordering)
            for cell, faff, haffs in cell_data:
                diff = faff - haffs[pick - 1]
                assert _matches_on_zero_set(diff, haffs, group.ordering, cell), (
                    name, group.ordering, cell.point,
                )


def test_synthesize_crt_single_leaf():
    term = mv.synthesize_crt(mv.leaf(mv.unit_form(1, 1)))
    assert term is mv.var(1)


def test_synthesize_crt_abs():
    trace = mv.SynthesisTrace()
    term = mv.synthesize_crt(ABS_EXPR, trace=trace)
    assert mv.function_eq(term, ABS_EXPR, 1)
    assert len(trace.groups) == 2
    assert trace.max_bound == 1


def test_synthesize_direct_examples():
    assert mv.synthesize_direct(L(0, 1)) is mv.var(1)
    f = mv.min_of([L(0, 1, 0), L(0, 0, 1)])
    term = mv.synthesize_direct(f)
    assert term is mv.wedge(mv.var(1), mv.var(2))
    assert mv.function_eq(term, f, 2)


def test_synthesize_direct_deep_expression():
    # 1,500 nested min/max nodes, far beyond the recursion limit.
    expr = L(0, 1)
    for i in range(1500):
        expr = mv.max_of([expr, L(1, -1)]) if i % 2 else mv.min_of([expr, L(0, 1)])
    term = mv.synthesize_direct(expr)
    for p in grid_points(1, 8):
        assert mv.eval_term(term, p) == mv.eval_pwl(expr, p)


def test_synthesize_cross_oracle_min():
    f = mv.min_of([L(0, 1, 0), L(0, 0, 1)])
    crt = mv.synthesize_crt(f)
    direct = mv.synthesize_direct(f)
    assert mv.function_eq(crt, direct, 2)


def test_synthesize_deterministic():
    first = mv.synthesize_crt(ABS_EXPR)
    second = mv.synthesize_crt(ABS_EXPR)
    assert first is second
    assert mv.print_term(first) == mv.print_term(second)


def test_synthesize_rejects_invalid():
    with pytest.raises(mv.InvalidDescriptionError):
        mv.synthesize_crt(L(0, 2))
    with pytest.raises(mv.InvalidDescriptionError):
        mv.synthesize_direct(L(0, 2))


def _clamped_descriptions(arity: int):
    """min(1, max(0, E)) for a random integer lattice expression E of depth
    at most 2 (leaves with coefficients in -3..3)."""
    entry = st.integers(-3, 3)
    leaves = st.builds(
        lambda constant, coeffs: L(constant, *coeffs),
        entry,
        st.lists(entry, min_size=arity, max_size=arity),
    )
    trees = leaves
    for _ in range(2):
        kids = st.lists(trees, min_size=2, max_size=2)
        trees = st.one_of(leaves, st.builds(mv.min_of, kids), st.builds(mv.max_of, kids))
    return trees.map(lambda body: clamp_description(body, arity))


@pytest.mark.parametrize("arity", [1, 2, 3])
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_compilers_agree_property(arity, data):
    # Both compilers on random descriptions, arity 3 included: the outputs
    # are function-equal and match the description at random rationals.
    description = data.draw(_clamped_descriptions(arity))
    glued = mv.synthesize_crt(description)
    direct = mv.synthesize_direct(description)
    assert mv.function_eq(glued, direct, arity)
    coordinate = st.fractions(0, 1, max_denominator=24)
    for point in data.draw(st.lists(st.tuples(*[coordinate] * arity), min_size=3, max_size=3)):
        want = mv.eval_pwl(description, point)
        assert mv.eval_term(glued, point) == want
        assert mv.eval_term(direct, point) == want


def test_matches_on_zero_set_constant_differences():
    # A constant difference matches on the zero-set face only when it is 0
    # or the face is empty; the face of ordering (1, 2) is the whole cell.
    cell = mv.enumerate_cells([mv.affine(-1, [2])], 1)[0]  # x <= 1/2
    haffs = [mv.affine(0, [1]), mv.const_form(1, 1)]
    zero, half = mv.const_form(1, 0), mv.const_form(1, F(1, 2))
    assert _matches_on_zero_set(zero, haffs, (1, 2), cell)
    assert not _matches_on_zero_set(half, haffs, (1, 2), cell)
    assert _matches_on_zero_set(half, haffs, (2, 1), cell)  # 1 <= x: empty face
    assert not _matches_on_zero_set(mv.affine(F(-1, 4), [1]), haffs, (1, 2), cell)


# --- certified clamp lemmas ---------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_synthesis_keeps_traced_stage_boundaries(monkeypatch):
    # The benchmark's tracer sees the six synthesis stages only through
    # the module globals it wraps; a stage reached another way goes
    # missing from its per-layer numbers.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    for description in (dict(curated_corpus())["single-leaf-x1"], multiplier_heavy_description()):
        tr = tracer.Tracer()
        tr.install()
        try:
            tr.call("synthesize_crt", mv.synthesize_crt, description)
        finally:
            tr.uninstall()
        assert tracer.layer_numbers(tr.spans, len(tr.lp_keys))["missing"] == []


def _record_cells(monkeypatch) -> list:
    """Every cell a walk visits from now on, as its polytope."""
    cells = []

    class Recorded(pwl._CellCtx):
        __slots__ = ()

        def __init__(self, polytope, point, signs):
            cells.append(polytope)
            super().__init__(polytope, point, signs)

    monkeypatch.setattr(pwl, "_CellCtx", Recorded)
    return cells


def _outcome(elements, ideal):
    try:
        return _least_multipliers(elements, ideal, mv.DEFAULT_CAP)
    except mv.NotMemberError as ex:
        return "not a member", ex.witness


def test_lemma_walks_equal_plain_walks(corpus_entries, corpus_traces, monkeypatch):
    # Resolving certified linear terms as clamps changes the cells a walk
    # visits, never the least multipliers or a refutation's witness.
    pairs = 0
    for (name, description), (_, trace) in zip(corpus_entries, corpus_traces):
        arity = mv.pwl_arity(description)
        checks = []
        for r in trace.combines:
            join = mv.PrincipalIdeal(
                mv.oplus(r.left_ideal.generator, r.right_ideal.generator), arity
            )
            elements = (mv.ominus(r.left, r.right), mv.ominus(r.right, r.left))
            checks.append((elements, join, _outcome(elements, join)))
        with pwl._lemma_scope():
            for form in mv.pwl_leaves(description):
                mv.linear_term(form)
            assert pwl._LEMMAS.get()[arity], name
            for (elements, join, plain), r in zip(checks, trace.combines):
                assert plain == [r.bound_left, r.bound_right], name
                assert _outcome(elements, join) == plain, name
                pairs += 1
    assert pairs > 20

    description = membership_heavy_description()
    arity = mv.pwl_arity(description)
    glued = mv.synthesize_crt(description)
    cells = _record_cells(monkeypatch)
    plain = mv.function_eq(glued, description, arity)
    plain_cells = len(cells)
    with pwl._lemma_scope():
        for form in mv.pwl_leaves(description):
            mv.linear_term(form)
        cells.clear()
        lemma = mv.function_eq(glued, description, arity)
    assert plain == lemma
    assert lemma
    assert len(cells) < plain_cells


def test_public_decisions_see_no_lemmas(corpus_entries, corpus_traces, monkeypatch):
    # A synthesis leaves nothing behind that changes a later decision: the
    # same call walks the same cells and finds the same witness after it.
    cells = _record_cells(monkeypatch)
    refuted = 0
    for (name, description), (glued, _) in zip(corpus_entries, corpus_traces):
        arity = mv.pwl_arity(description)
        half = mv.leaf(mv.const_form(arity, F(1, 2)))
        runs = []
        pwl._TERM_CUBE_CACHE.clear()
        for _ in range(2):
            cells.clear()
            verdict = mv.function_leq(glued, half, arity)
            runs.append((verdict.holds, verdict.witness, len(cells)))
            assert mv.synthesize_crt(description) is glued
            assert pwl._LEMMAS.get() is None
        assert runs[0] == runs[1], name
        refuted += not runs[0][0]
    assert refuted > 25

    for synthesize in (mv.synthesize_crt, mv.synthesize_direct):
        with pytest.raises(mv.InvalidDescriptionError):
            synthesize(L(0, 2))
        assert pwl._LEMMAS.get() is None
    mv.linear_term(mv.affine(-1, [2, 3]))
    assert pwl._LEMMAS.get() is None
