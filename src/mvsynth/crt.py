"""Region analysis, principal ideals, congruence gluing, and synthesis.

The pipeline turns a valid piecewise-linear description into a term with
the same function:

1. `analyze_regions` splits the cube into sign cells of the constituent
   forms, groups the cells by the induced ordering of the clamped
   constituents, and attaches the group's difference ideal.  The
   description's own min/max tree picks the constituent it equals on
   the ideal's whole zero set, which the range check proves; LPs only
   choose the lowest-index constituent equal to that pick there.
2. `chinese_glue` glues the per-group constituent terms in one level:
   groups with the same term merge into one arm (intersecting their
   ideals), one walk per pair of arms s < t finds the least multipliers
   of a_s - a_t and a_t - a_s in the joined ideal G_s (+) G_t, and the
   output is the join over the arms of a_s - M_s * G_s (truncated
   operations), M_s the largest multiplier of a_s, a term linear in the
   arms.
3. The result is certified function-equal to the input before being
   returned; certification failure is a bug, never a silent wrong answer.

`synthesize_direct` is an independent construction (clamp each leaf and
rebuild the lattice with wedge/vee) used to cross-check the glued route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Sequence

from .errors import (
    CapExceededError,
    CertificationError,
    DomainError,
    InvalidDescriptionError,
    NotCongruentError,
    NotMemberError,
)
from .geometry import (
    AffineForm,
    Polytope,
    clamp01,
    const_form,
    dedup_canonical_forms,
    enumerate_cells,
    lp_optimize,
)
from .linear import linear_term
from .pwl import (
    Leaf,
    MinOf,
    PwlExpr,
    _cells,
    _excess,
    _expr_children,
    _lemma_scope,
    _resolve_at,
    function_eq,
    function_leq,
    pwl_arity,
    pwl_leaves,
)
from .terms import (
    Term,
    ZERO,
    _fold,
    iterate_oplus,
    ominus,
    oplus,
    vee,
    wedge,
)

DEFAULT_CAP = 65536


@dataclass(frozen=True)
class PrincipalIdeal:
    """Ideal of term functions generated by one term.

    Membership: e belongs iff e <= m * generator pointwise on the cube
    for some m >= 1; the ideal's zero set is the generator's zero set.
    """

    generator: Term
    arity: int


@dataclass(frozen=True)
class RegionGroup:
    """Cells sharing one ordering of the clamped constituents.

    ordering: 1-based constituent indices, ascending by clamped value on
    every member cell (ties broken by index).  selected: the
    lowest-index constituent whose clamp equals the described function
    on the whole zero set of the group's ideal; the lattice pick
    (`_lattice_pick`) does, by proof.  term: the certified `linear_term`
    of the selected constituent.
    """

    ordering: tuple[int, ...]
    cells: tuple[Polytope, ...]
    points: tuple[tuple[Fraction, ...], ...]
    selected: int
    ideal: PrincipalIdeal
    term: Term


@dataclass
class CombineRecord:
    """One pair check of `chinese_glue`: two arms, their merged ideals, the
    least multipliers of left - right and right - left, and the output."""

    left: Term
    right: Term
    left_ideal: PrincipalIdeal
    right_ideal: PrincipalIdeal
    result: Term
    bound_left: int
    bound_right: int


@dataclass
class SynthesisTrace:
    """Optional instrumentation filled in by the synthesis pipeline."""

    groups: list[RegionGroup] = field(default_factory=list)
    combines: list[CombineRecord] = field(default_factory=list)

    @property
    def max_bound(self) -> int:
        return max(
            (max(r.bound_left, r.bound_right) for r in self.combines), default=0
        )


def ideal_for_order(
    ordering: Sequence[int], constituent_terms: Sequence[Term], arity: int
) -> PrincipalIdeal:
    """The ideal vanishing exactly where the given constituent terms are
    ordered ascending along ``ordering``.

    Generator: the truncated sum of h[o1] - h[o2], ..., h[o(k-1)] - h[ok]
    (truncated differences, left-associated), leaving out the steps that
    are the term 0.  A single constituent, or no nonzero step, gives the
    zero ideal.
    """
    k = len(constituent_terms)
    if sorted(ordering) != list(range(1, k + 1)):
        raise DomainError(
            f"ordering {tuple(ordering)} is not a permutation of 1..{k}"
        )
    steps = [
        ominus(constituent_terms[ordering[i] - 1], constituent_terms[ordering[i + 1] - 1])
        for i in range(k - 1)
    ]
    steps = [s for s in steps if s is not ZERO]
    return PrincipalIdeal(reduce(oplus, steps) if steps else ZERO, arity)


def _least_multipliers(
    elements: Sequence[Term], ideal: PrincipalIdeal, cap: int
) -> list[int]:
    """Least m >= 1 with element <= m * generator everywhere on the cube,
    for every element, from one walk over ``(e1, ..., ek, generator)``.

    Dinkelbach's iteration on integers, per element on each cell where
    all are affine: while e - m * generator is positive at a cell vertex
    x, that element's m rises to the ceiling of e(x) / generator(x), a
    lower bound on every valid m.  A vertex where the generator is 0 and
    the element positive refutes membership (`NotMemberError`); an m
    above the cap raises `CapExceededError`.  The first element's error
    is raised at once; a later element's is remembered, that element is
    no longer tracked, and the earliest remembered error is raised only
    if the first element finishes clean, as separate calls in element
    order would raise.
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise DomainError(f"cap must be an integer >= 1, got {cap!r}")
    ms = [1] * len(elements)
    failed: dict[int, Exception] = {}
    operands = (*elements, ideal.generator)
    for piece, forms, den in _cells(operands, ideal.arity, None):
        fg = forms[-1]
        for i, fe in enumerate(forms[:-1]):
            if i in failed:
                continue
            m = ms[i]
            try:
                while (x := _excess(fe, tuple(m * v for v in fg), piece, den)) is not None:
                    # den times the values at x; den > 0 cancels in the ratio.
                    e = fe[0] + sum(map(mul, fe[1:], x))
                    g = fg[0] + sum(map(mul, fg[1:], x))
                    if g == 0:
                        raise NotMemberError(
                            "element is positive on the generator's zero set", x
                        )
                    m = -(-e // g)
                    if m > cap:
                        raise CapExceededError(cap)
            except (NotMemberError, CapExceededError) as ex:
                if i == 0:
                    raise
                failed[i] = ex
            ms[i] = m
    if failed:
        raise failed[min(failed)]
    return ms


def membership_bound(
    element: Term, ideal: PrincipalIdeal, cap: int = DEFAULT_CAP
) -> int:
    """Least m >= 1 with element <= m * generator everywhere on the cube.

    The one-element case of `_least_multipliers`: Dinkelbach's iteration
    on integers, over the cells where element and generator are
    affine.  Raises `NotMemberError` at a vertex where the generator
    is 0 and the element positive (no m can ever work), and
    `CapExceededError` as soon as m exceeds the cap.
    """
    (m,) = _least_multipliers((element,), ideal, cap)
    return m


def intersect_principal(a: PrincipalIdeal, b: PrincipalIdeal) -> PrincipalIdeal:
    """Ideal intersection: generated by the meet of the two generators
    (membership in the meet's ideal is membership in both)."""
    if a.arity != b.arity:
        raise DomainError("ideal arity mismatch")
    return PrincipalIdeal(wedge(a.generator, b.generator), a.arity)


def combine_pair(
    a1: Term,
    a2: Term,
    ideal1: PrincipalIdeal,
    ideal2: PrincipalIdeal,
    cap: int = DEFAULT_CAP,
    trace: SynthesisTrace | None = None,
) -> Term:
    """The two-pair case of `chinese_glue`: one term congruent to a1
    modulo ideal1 and to a2 modulo ideal2, namely
    ``(a1 - m1 * generator1) \\/ (a2 - m2 * generator2)`` with the least
    multipliers of a1 - a2 and a2 - a1 in the joined ideal (a failure of
    a1 - a2 wins over one of a2 - a1).  Equal terms give a1 itself, with
    no walk and no trace record."""
    return chinese_glue(((a1, ideal1), (a2, ideal2)), cap, trace)


def chinese_glue(
    pairs: Sequence[tuple[Term, PrincipalIdeal]],
    cap: int = DEFAULT_CAP,
    trace: SynthesisTrace | None = None,
) -> Term:
    """Glue (term, ideal) pairs into one term congruent to every input
    term modulo its ideal, in one level of pairwise congruences.

    1. Pairs with the same term merge into one arm, whose ideal is the
       intersection of theirs; arms keep the order of their first pair.
       A single arm is returned unchanged.
    2. For each pair of arms s < t, one walk over the cells of
       ``(a_s - a_t, a_t - a_s, G_s (+) G_t)`` gives the least m_st and
       m_ts with ``a_s - a_t <= m_st * (G_s (+) G_t)`` and the reverse.
    3. M_s is the largest m_st over t.
    4. The output is ``\\/_s (a_s - M_s * G_s)`` joined left to right by
       `vee`, which copies only its right operand: each arm occurs at
       most twice, so the term is linear in the arms.

    Soundness: where G_t = 0, arm t is a_t and every other arm s is at
    most a_t, as a_s - a_t <= m_st * G_s wherever G_t vanishes; so the
    output is a_t on the zero set of G_t, and these zero sets cover the
    cube (that of an intersection is the union of the zero sets).

    With a trace, each pair check appends a `CombineRecord`: the two
    arms, their merged ideals, m_st and m_ts, and the glued output.  A
    congruence failure raises `NotCongruentError` whose ``index`` is the
    1-based position of the first pair holding the later arm of the
    first failing pair check, in (s, t) order.
    """
    arms: dict[Term, PrincipalIdeal] = {}
    for term, ideal in pairs:
        arms[term] = intersect_principal(arms[term], ideal) if term in arms else ideal
    if not arms:
        raise DomainError("at least one (term, ideal) pair is required")
    terms, ideals = list(arms), list(arms.values())
    arity = ideals[0].arity
    if any(ideal.arity != arity for ideal in ideals):
        raise DomainError("ideal arity mismatch")
    if len(terms) == 1:
        return terms[0]
    bounds = [1] * len(terms)
    checks = []
    for s, t in combinations(range(len(terms)), 2):
        a_s, a_t = terms[s], terms[t]
        join = PrincipalIdeal(oplus(ideals[s].generator, ideals[t].generator), arity)
        try:
            m_st, m_ts = _least_multipliers((ominus(a_s, a_t), ominus(a_t, a_s)), join, cap)
        except NotMemberError as ex:
            raise NotCongruentError(
                "sides differ where the joined ideal's generator vanishes",
                ex.witness,
                [term for term, _ in pairs].index(a_t) + 1,
            ) from ex
        bounds[s], bounds[t] = max(bounds[s], m_st), max(bounds[t], m_ts)
        checks.append((s, t, m_st, m_ts))
    glued = reduce(vee, [
        ominus(a, iterate_oplus(m, g.generator)) for a, g, m in zip(terms, ideals, bounds)
    ])
    if trace is not None:
        trace.combines.extend(
            CombineRecord(terms[s], terms[t], ideals[s], ideals[t], glued, m_st, m_ts)
            for s, t, m_st, m_ts in checks
        )
    return glued


def _check_range(description: PwlExpr, arity: int):
    upper = function_leq(description, Leaf(const_form(arity, 1)), arity)
    if not upper:
        raise InvalidDescriptionError(
            "description exceeds 1 on the cube", upper.witness
        )
    lower = function_leq(Leaf(const_form(arity, 0)), description, arity)
    if not lower:
        raise InvalidDescriptionError(
            "description drops below 0 on the cube", lower.witness
        )


def _clamp_on_cell(g: AffineForm, point, arity: int) -> AffineForm:
    """Affine form of median(0, g, 1) on the cell with the given strictly
    interior point (the cell never straddles g = 0 or g = 1)."""
    if g.is_constant:
        return const_form(arity, clamp01(g.constant))
    value = g.evaluate(point)
    if value < 0:
        return const_form(arity, 0)
    if value > 1:
        return const_form(arity, 1)
    return g


def _matches_on_zero_set(
    diff: AffineForm, haffs: list[AffineForm], ordering, cell
) -> bool:
    """Is ``diff`` identically zero on the part of the cell where the
    ordering's ideal generator vanishes?

    The generator vanishes exactly where the clamped constituents are
    ascending along the ordering; on one cell those clamps are the affine
    ``haffs``, so the locus is a polyhedral face and two LPs decide the
    question.  An empty face passes vacuously; an identically zero
    ``diff`` passes without building the face.
    """
    if diff.is_constant and diff.constant == 0:
        return True
    face = cell.polytope.with_constraints(
        tuple(
            haffs[ordering[i] - 1] - haffs[ordering[i + 1] - 1]
            for i in range(len(ordering) - 1)
        )
    )
    if diff.is_constant:
        return lp_optimize(diff, face) is None  # nonzero: face must be empty
    top = lp_optimize(diff, face)
    if top is None:
        return True
    if top.optimum > 0:
        return False
    return lp_optimize(diff, face, "min").optimum >= 0


def _lattice_pick(
    description: PwlExpr, constituents: list[AffineForm], ordering
) -> int:
    """The constituent that the description's own min/max tree picks on
    the zero set of the ordering's ideal: a min node takes its child
    earliest in the ordering, a max node its child latest.

    Proof that the pick's clamp equals the description on that whole
    zero set.  Let h_j = median(0, g_j, 1).  Where the ideal's generator
    vanishes, the h_j ascend along the ordering.  Clamping commutes with
    min and max, so the clamp of the description is the same tree over
    the h_j, and the range check has proved the description equal to
    its clamp.  On the zero set a min node's earliest child is at most
    every other child, so it is their min; a max node's latest child is
    their max.  By induction the tree equals h of the pick there.
    """
    rank = {constituents[j - 1]: r for r, j in enumerate(ordering)}

    def step(node: PwlExpr, ranks: list[int]) -> int:
        if isinstance(node, Leaf):
            return rank[node.form]
        return min(ranks) if isinstance(node, MinOf) else max(ranks)

    return ordering[_fold(description, step, _expr_children)]


def analyze_regions(description: PwlExpr) -> list[RegionGroup]:
    """Decompose the cube into ordering groups for a valid description.

    Checks the [0, 1] range first; then enumerates the sign cells of the
    constituents, their pairwise differences, and their 1-shifts; and
    groups cells by the clamped-constituent ordering at the cell's
    interior point.  The clamp of each group's `_lattice_pick` equals
    the description on the *whole zero set* of the group's ideal (every
    member cell, and every zero-set face the ideal has inside other
    cells; gluing congruences need the faces too), by the range check.
    The group selects the lowest-index constituent equal to it there, so
    groups equal there share one arm: only constituents whose clamp ties
    the pick's at the base point are LP-tested (`_matches_on_zero_set`).
    """
    arity = pwl_arity(description)
    _check_range(description, arity)
    constituents = pwl_leaves(description)
    k = len(constituents)

    collected: list[AffineForm] = []
    for i, g in enumerate(constituents):
        for h in constituents[i + 1:]:
            collected.append(g - h)
        if not g.is_constant:
            collected.append(g)
            collected.append(g.shifted(-1))
    forms = dedup_canonical_forms(collected)
    cells = enumerate_cells(forms, arity)

    cell_data = []  # (cell, clamped constituent forms)
    grouped: dict[tuple[int, ...], list] = {}
    for cell in cells:
        haffs = [_clamp_on_cell(g, cell.point, arity) for g in constituents]
        cell_data.append((cell, haffs))
        values = [h.evaluate(cell.point) for h in haffs]
        ordering = tuple(
            sorted(range(1, k + 1), key=lambda j: (values[j - 1], j))
        )
        grouped.setdefault(ordering, []).append(cell)

    faffs: dict[int, AffineForm] = {}  # f's affine form by cell, on first use

    def faff(n: int) -> AffineForm:
        if n not in faffs:
            faffs[n] = _resolve_at(description, cell_data[n][0].point)
        return faffs[n]

    constituent_terms = [linear_term(g) for g in constituents]
    groups: list[RegionGroup] = []
    for ordering, members in grouped.items():
        selected = pick = _lattice_pick(description, constituents, ordering)
        base_point = members[0].point
        value = clamp01(constituents[pick - 1].evaluate(base_point))
        for j in range(1, pick):
            if clamp01(constituents[j - 1].evaluate(base_point)) == value and all(
                _matches_on_zero_set(faff(n) - haffs[j - 1], haffs, ordering, cell)
                for n, (cell, haffs) in enumerate(cell_data)
            ):
                selected = j
                break
        groups.append(
            RegionGroup(
                ordering,
                tuple(cell.polytope for cell in members),
                tuple(cell.point for cell in members),
                selected,
                ideal_for_order(ordering, constituent_terms, arity),
                constituent_terms[selected - 1],
            )
        )
    return groups


def synthesize_crt(
    description: PwlExpr,
    cap: int = DEFAULT_CAP,
    trace: SynthesisTrace | None = None,
) -> Term:
    """Glued synthesis: region analysis, then `chinese_glue` over the
    groups' (term, ideal) pairs, then a mandatory exact certificate
    against the description.

    Trust base: the `linear_term` certificates proved in this same call.
    Each proves a constituent term equal to the clamp of its form, and
    the cell walks of the call (pair walks and the final certificate)
    take it as a lemma, resolving that term as clamp(g) with at most two
    sign tests instead of walking its syntax.  So the final certificate
    is a complete exact proof given those certificates.  Least
    multipliers are unique, so the lemmas change no output; no lemma
    outlives the call."""
    with _lemma_scope():
        arity = pwl_arity(description)
        groups = analyze_regions(description)
        if trace is not None:
            trace.groups = list(groups)
        pairs = [(group.term, group.ideal) for group in groups]
        result = chinese_glue(pairs, cap=cap, trace=trace)
        verdict = function_eq(result, description, arity)
        if not verdict:
            raise CertificationError(
                "glued term disagrees with the description", verdict.witness
            )
        return result


def synthesize_direct(description: PwlExpr) -> Term:
    """Structural synthesis: clamp every leaf via `linear_term` and fold
    the lattice with wedge/vee.  Sound because clamping commutes with
    min/max and the description's range check makes the outer clamp a
    no-op; certified exactly before returning.

    Trust base, as for `synthesize_crt`: the `linear_term` certificates
    proved in this same call, which the final certificate takes as
    lemmas."""

    def step(expr: PwlExpr, parts: list[Term]) -> Term:
        if isinstance(expr, Leaf):
            return linear_term(expr.form)
        return reduce(wedge if isinstance(expr, MinOf) else vee, parts)

    with _lemma_scope():
        arity = pwl_arity(description)
        _check_range(description, arity)
        result = _fold(description, step, _expr_children)
        verdict = function_eq(result, description, arity)
        if not verdict:
            raise CertificationError(
                "structural term disagrees with the description", verdict.witness
            )
        return result
