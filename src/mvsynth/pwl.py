"""Piecewise-linear function descriptions and the exact order/equality
decision procedure.

A `PwlExpr` is a min/max lattice tree over affine leaves; it describes a
continuous piecewise-linear function on the unit cube.  This module
provides exact evaluation, the clamp-to-[0,1] truncation of an affine
form, and one decision procedure, `function_leq` / `function_eq`.  It
compares term functions and lattice expressions, in any mix, by
resolving the DAG cell by cell and splitting a cell only when some clamp
or min/max choice actually changes sign on it.  One cell walker,
`_cells`, serves both and the membership search of ``crt``: it walks a
tuple of operands, resolving them in tuple order on each cell, and
yields each cell with one affine form per operand.  The decisions walk
``(lhs, rhs)``; ``crt`` finds both multipliers of a pair of arms in one
walk over ``(a1 - a2, a2 - a1, generator)``.  This stays
polynomial-sized on the large shared terms produced by gluing, where an
up-front lattice normal form would explode.

During a synthesis the walker also uses lemmas: each `linear_term`
certified in the same call proves its term equal to median(0, g, 1), so
the walker resolves that term node as 0, 1 or g with at most two sign
tests (g against 0, then g - 1) instead of walking its syntax, whose
partial-sum clamps are sign tests that can split a cell where the clamp
of g does not.  The lemma map lives in a context variable that only a
synthesis call sets (`_lemma_scope`), so the public decisions outside a
synthesis never see a lemma, and no lemma result enters the shared cube
cache.

The procedure runs on integers.  A term function is piecewise linear
with integer coefficients (McNaughton 1951) and a description's leaves
have one common denominator, so every affine form it meets is a tuple of
ints over one positive denominator per call; only the LPs that settle a
sign see an `AffineForm`.  Signs do not change under positive scaling,
so this is exact and makes the same choices as rational arithmetic.

Two references live in ``tests/oracles.py``: the same procedure over
``Fraction`` and an independent one (the leaf-difference arrangement and
the lattice normal form of a term).  The tests check `function_leq`
against both.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, mul, sub
from typing import Sequence, Union

from . import terms
from .errors import DomainError
from .geometry import (
    AffineForm,
    Polytope,
    const_form,
    cube,
    interior_point,
    lp_optimize,
    split_points,
)
from .terms import Term, as_point


class PwlExpr:
    """Base class for lattice-expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(PwlExpr):
    form: AffineForm


@dataclass(frozen=True)
class MinOf(PwlExpr):
    children: tuple[PwlExpr, ...]

    def __post_init__(self):
        if not self.children:
            raise DomainError("min node needs at least one child")


@dataclass(frozen=True)
class MaxOf(PwlExpr):
    children: tuple[PwlExpr, ...]

    def __post_init__(self):
        if not self.children:
            raise DomainError("max node needs at least one child")


def leaf(form: AffineForm) -> Leaf:
    return Leaf(form)


def min_of(children: Sequence[PwlExpr]) -> PwlExpr:
    kids = tuple(children)
    return kids[0] if len(kids) == 1 else MinOf(kids)


def max_of(children: Sequence[PwlExpr]) -> PwlExpr:
    kids = tuple(children)
    return kids[0] if len(kids) == 1 else MaxOf(kids)


def _expr_children(node: PwlExpr) -> tuple[PwlExpr, ...]:
    if isinstance(node, Leaf):
        return ()
    return node.children


def pwl_arity(expr: PwlExpr) -> int:
    """Common arity of all leaves; raises if they disagree."""

    def step(node, arities):
        if isinstance(node, Leaf):
            return node.form.arity
        if len(set(arities)) > 1:
            raise DomainError("leaves of mixed arity in one expression")
        return arities[0]

    return terms._fold(expr, step, _expr_children)


def pwl_leaves(expr: PwlExpr) -> list[AffineForm]:
    """Distinct leaf forms in first-occurrence (depth-first) order."""
    seen: list[AffineForm] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if node.form not in seen:
                seen.append(node.form)
        else:
            stack.extend(reversed(node.children))
    return seen


def eval_pwl(expr: PwlExpr, point: Sequence) -> Fraction:
    """Exact value of the lattice expression at a cube point."""
    pt = as_point(point)
    if pwl_arity(expr) != len(pt):
        raise DomainError("point arity does not match expression arity")
    return _resolve_at(expr, pt).evaluate(pt)


def truncate_affine(form: AffineForm) -> PwlExpr:
    """Clamp of an affine form to [0, 1]: evaluates to median(0, g, 1)."""
    n = form.arity
    return MinOf((MaxOf((Leaf(form), Leaf(const_form(n, 0)))), Leaf(const_form(n, 1))))


# --- decision procedure -------------------------------------------------------

@dataclass(frozen=True)
class Decision:
    """Outcome of an order/equality check; falsy iff refuted, in which
    case `witness` is an exact cube point where the claim fails."""

    holds: bool
    witness: tuple[Fraction, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _check_region(region: Polytope | None, arity: int) -> Polytope:
    if region is None:
        return cube(arity)
    if region.arity != arity:
        raise DomainError("region arity mismatch")
    return region


def _resolve_at(expr: PwlExpr, point: tuple[Fraction, ...]) -> AffineForm:
    """The affine form the expression equals near ``point`` (first child
    attaining the min/max wins ties)."""

    def step(node, resolved):
        if isinstance(node, Leaf):
            return node.form, node.form.evaluate(point)
        pick = min if isinstance(node, MinOf) else max  # first extremum wins
        return pick(resolved, key=itemgetter(1))

    return terms._fold(expr, step, _expr_children)[0]


# --- adaptive comparison on term DAGs ----------------------------------------
#
# Inside the procedure an affine form is a tuple of ints (c, a1, ..., an)
# over a positive denominator fixed for the whole call: 1 for a term (a
# term function is piecewise linear with integer coefficients; McNaughton
# 1951), and for a lattice expression the lcm of its leaves' coefficient
# denominators in this call (1 for every integer description).  Sign
# tests are invariant under positive scaling, so no choice, cell, LP or
# witness depends on the denominator; `AffineForm` objects are built only
# where an LP needs one.

class _Split(Exception):
    """Raised during cell resolution when a form changes sign on the cell.

    Carries the form's primitive representative ``canon``, whether the
    form is a negative multiple of it, and a strictly interior point of
    each side of the cut, ``canon <= 0`` and ``canon >= 0``."""

    def __init__(self, canon: tuple[int, ...], flipped: bool, below, above):
        self.canon = canon
        self.flipped = flipped
        self.below = below
        self.above = above


def _canonical(form: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """Primitive representative of a non-constant int form, with the sign
    convention of `AffineForm.canonical` (first nonzero coefficient
    positive), and whether it is a negative multiple of ``form``."""
    g = gcd(*form)
    for lead in form[1:]:
        if lead:
            break
    if lead < 0:
        g = -g
    if g == 1:
        return form, False
    return tuple(v // g for v in form), g < 0


def _affine(form: tuple[int, ...], den: int = 1) -> AffineForm:
    """The `AffineForm` an int form over ``den`` stands for."""
    return AffineForm(
        Fraction(form[0], den), tuple(Fraction(v, den) for v in form[1:])
    )


def _scaled(form: AffineForm, den: int) -> tuple[int, ...]:
    """``den`` times ``form`` as an int form; ``den`` clears every
    denominator of ``form``."""
    entries = (form.constant, *form.coeffs)
    return tuple(v.numerator * (den // v.denominator) for v in entries)


class _CellCtx:
    __slots__ = ("polytope", "point", "scaled_point", "signs")

    def __init__(self, polytope: Polytope, point: tuple[Fraction, ...], signs: dict):
        self.polytope = polytope
        self.point = point
        den = lcm(*(p.denominator for p in point))
        # (den, den * point): the dot product with an int form is the
        # form's value at the point times den > 0.
        self.scaled_point = (den, *(p.numerator * (den // p.denominator) for p in point))
        self.signs: dict[tuple[int, ...], int] = signs

    def sign(self, form: tuple[int, ...]) -> tuple[int, bool]:
        """Sign of ``form`` on the cell: -1 (<= 0 everywhere) or +1 (>= 0
        everywhere); raises `_Split` when it takes both signs.  Second
        component: True when the answer holds on the whole cube, not just
        this cell."""
        lo = hi = form[0]
        for v in form[1:]:
            if v > 0:
                hi += v
            elif v < 0:
                lo += v
        if lo >= 0:  # first, so a zero constant counts as >= 0
            return 1, True
        if hi <= 0:
            return -1, True
        canon, flipped = _canonical(form)
        sign = self.signs.get(canon)
        if sign is None:
            scaled = self.scaled_point
            value = Fraction(sum(map(mul, canon, scaled)), scaled[0])
            below, above = split_points(_affine(canon), self.polytope, self.point, value)
            if below is not None and above is not None:
                raise _Split(canon, flipped, below, above)
            sign = -1 if above is None else 1
            self.signs[canon] = sign
        return (-sign if flipped else sign), False


# Cube-wide resolutions of interned term nodes: arity -> {node id: int
# form}.  Terms are immortal (the intern table keeps them alive) so
# id-keyed caching is safe; PwlExpr nodes are not interned and must not be
# cached across calls.  An entry is made only when every sign test below
# the node was settled by the cube's box bounds, so a hit skips no test
# that could split a cell: the cache changes no cell and no witness.  A
# node resolved by a lemma (below) never enters it, nor do its ancestors:
# that would let a later decision outside the synthesis skip syntax whose
# clamps split cells, and so walk other cells and find another witness.
_TERM_CUBE_CACHE: dict[int, dict[int, tuple[int, ...]]] = {}

# Certified clamp lemmas of the running synthesis, or None outside one:
# arity -> {id(term): int form g}, each proved by `linear_term` in the
# same call (the term equals median(0, g, 1) on the cube) and recorded by
# `_record_lemma`.  Only `_lemma_scope` sets it, so no lemma outlives its
# synthesis.
_LEMMAS: ContextVar[dict[int, dict[int, tuple[int, ...]]] | None] = ContextVar(
    "_LEMMAS", default=None
)


@contextmanager
def _lemma_scope():
    """Run the body with an empty lemma map of its own."""
    token = _LEMMAS.set({})
    try:
        yield
    finally:
        _LEMMAS.reset(token)


def _record_lemma(term: Term, g: tuple[int, ...]) -> None:
    """Record that ``term`` equals median(0, g, 1) on the cube, for the
    running synthesis; outside one, do nothing."""
    lemmas = _LEMMAS.get()
    if lemmas is not None:
        lemmas.setdefault(len(g) - 1, {})[id(term)] = g


def _clamp(g: tuple[int, ...], ctx: _CellCtx) -> tuple[int, ...]:
    """Int form of median(0, g, 1) on the cell, from at most two sign
    tests: g against 0, then g - 1 against 0."""
    if ctx.sign(g)[0] < 0:
        return (0,) * len(g)
    if ctx.sign((g[0] - 1, *g[1:]))[0] > 0:
        return (1,) + (0,) * (len(g) - 1)
    return g


def _affinize(
    root, arity: int, ctx: _CellCtx, local: dict, den: int, lemmas: dict | None
) -> tuple[int, ...]:
    """Int form equal to the function of ``root`` on the cell, over 1 for
    a term and over ``den`` for a lattice expression.

    Each node is resolved once, with one lookup per child.  Resolutions
    that hold on the whole cube are cached globally (for terms) so
    repeated cells and repeated calls share the work.  A term node with
    a lemma in ``lemmas`` ({id(term): g}, or None) is resolved as
    clamp(g) with at most two sign tests (`_clamp`) instead of walking
    its syntax; it and its ancestors go to ``local`` only, never to the
    cube cache.  Raises `_Split` when some internal choice, or a lemma's
    sign test, changes sign on the cell.
    """
    is_term = isinstance(root, Term)
    children = terms._children if is_term else _expr_children
    # Lattice nodes are never cached across calls: their cube dict is empty.
    cube = _TERM_CUBE_CACHE.setdefault(arity, {}) if is_term else {}
    form = cube.get(id(root))
    if form is None:
        form = local.get(id(root))
    if form is not None:
        return form
    if not is_term:
        lemmas = None
    elif lemmas and (g := lemmas.get(id(root))) is not None:
        form = local[id(root)] = _clamp(g, ctx)
        return form
    one = (1,) + (0,) * arity
    # Frames: [node, children last first, their forms so far, all of them
    # pure].  Children resolve last first: the order fixes which sign test
    # splits a cell first, and so the cells and witnesses.
    stack = [[root, children(root)[::-1], [], True]]
    while True:
        frame = stack[-1]
        node, kids, forms, pure = frame
        if len(forms) < len(kids):
            kid = kids[len(forms)]
            form = cube.get(id(kid))
            if form is None:
                form = local.get(id(kid))
                if form is None:
                    g = lemmas.get(id(kid)) if lemmas else None
                    if g is None:
                        stack.append([kid, children(kid)[::-1], [], True])
                        continue
                    form = local[id(kid)] = _clamp(g, ctx)
                frame[3] = False
            forms.append(form)
            continue

        if isinstance(node, terms.Oplus):
            total = tuple(map(add, forms[0], forms[1]))
            overflow = (total[0] - 1, *total[1:])
            sign, from_box = ctx.sign(overflow)
            form = one if sign > 0 else total
            pure = pure and from_box
        elif isinstance(node, terms.Neg):
            child = forms[0]
            form = (1 - child[0], *(-v for v in child[1:]))
        elif isinstance(node, terms.Var):
            form = tuple(int(i == node.index) for i in range(arity + 1))
        elif isinstance(node, terms.Zero):
            form = (0,) * (arity + 1)
        elif isinstance(node, terms.One):
            form = one
        elif isinstance(node, Leaf):
            form = _scaled(node.form, den)
        else:  # MinOf / MaxOf
            want_min = isinstance(node, MinOf)
            forms.reverse()
            form = forms[0]
            for cand in forms[1:]:
                delta = tuple(map(sub, form, cand))
                if not any(delta[1:]):
                    better = delta[0] > 0 if want_min else delta[0] < 0
                    if better:
                        form = cand
                    continue
                sign, _ = ctx.sign(delta)
                if (want_min and sign > 0) or (not want_min and sign < 0):
                    form = cand

        if pure and is_term:
            cube[id(node)] = form
        else:
            local[id(node)] = form
        stack.pop()
        if not stack:
            return form
        parent = stack[-1]
        parent[2].append(form)
        if not pure:
            parent[3] = False


FunctionLike = Union[Term, PwlExpr]


def _fold_operand(obj: FunctionLike, arity: int) -> int:
    """Check an operand against the declared arity, in one walk, and
    return the common denominator of its leaf coefficients (1 for a
    term)."""
    if isinstance(obj, Term):
        if terms.max_var_index(obj) > arity:
            raise DomainError("term variable index exceeds declared arity")
        return 1
    if not isinstance(obj, PwlExpr):
        raise TypeError(f"expected Term or PwlExpr, got {type(obj).__name__}")

    def step(node, dens):
        if isinstance(node, Leaf):
            form = node.form
            if form.arity != arity:
                raise DomainError("expression arity does not match declared arity")
            return lcm(*(v.denominator for v in (form.constant, *form.coeffs)))
        return lcm(*dens)

    return terms._fold(obj, step, _expr_children)


def _cells(operands: Sequence[FunctionLike], arity: int, region: Polytope | None):
    """Walk the cells of the region on which every operand is affine.

    Yields ``(piece, forms, den)``: a cell, and the int forms over
    ``den`` that the operands equal on it, in operand order.  Operands
    are resolved in tuple order on each cell, so the first one that
    splits a cell decides how; an operand whose sign tests the earlier
    ones have all settled never splits a cell.  A cell is split only
    when some clamp or lattice choice genuinely changes sign on it, so
    the cost tracks the functions' true piecewise structure rather than
    their syntax size.  Cells come depth first; a consumer may stop early.

    Inside a synthesis, the lemmas of its certified linear terms at this
    arity are read once here and passed to `_affinize`; outside one
    there are none.

    Every cell carries a strictly interior point, which picks the LP that
    settles a sign.  Only the region's point comes from an LP
    (`interior_point`, once per walk); a split child either keeps its
    parent's point or takes one toward the vertex that proved the cut.
    """
    dens = [_fold_operand(obj, arity) for obj in operands]
    region = _check_region(region, arity)
    root = interior_point(region)
    if root is None:
        if lp_optimize(const_form(arity, 0), region) is None:
            return  # empty region: no cells
        raise DomainError("region has points but empty interior; not supported")
    den = lcm(*dens)
    # Every form is yielded over den; a term's forms are over 1.
    ups = [den if isinstance(obj, Term) else 1 for obj in operands]
    lemmas = _LEMMAS.get()
    lemmas = lemmas.get(arity) if lemmas else None
    todo: list[tuple[Polytope, tuple, dict, dict]] = [(region, root, {}, {})]
    while todo:
        piece, point, signs, local = todo.pop()
        ctx = _CellCtx(piece, point, signs)
        try:
            forms = [_affinize(obj, arity, ctx, local, den, lemmas) for obj in operands]
        except _Split as split:
            # Everything resolved so far holds on both halves (they are
            # subsets of this piece), so the children inherit the work
            # and the settled signs.  No child needs an interior-point
            # LP: the half the point strictly satisfies inherits it, and
            # the other takes the point toward the vertex of the sign LP
            # that found the cut (`split_points`).  The half where the
            # split form is <= 0 is walked first.
            canon = split.canon
            form = _affine(canon)
            below_signs = dict(ctx.signs)
            below_signs[canon] = -1
            above_signs = ctx.signs
            above_signs[canon] = 1
            below = (piece.with_constraints((form,)), split.below, below_signs, dict(local))
            above = (piece.with_constraints((form.negated(),)), split.above, above_signs, local)
            todo += (below, above) if split.flipped else (above, below)
            continue
        if den > 1:
            forms = [
                form if up == 1 else tuple(up * v for v in form)
                for form, up in zip(forms, ups)
            ]
        yield piece, forms, den


def _excess(fa: tuple, fb: tuple, piece: Polytope, den: int) -> tuple | None:
    """A point of ``piece`` where ``fa - fb`` (int forms over ``den``) is
    largest, if that maximum is positive; otherwise None.  The point is
    an LP optimum on a cell vertex, which membership refutation needs."""
    diff = tuple(map(sub, fa, fb))
    if diff[0] + sum(v for v in diff[1:] if v > 0) <= 0:
        return None
    res = lp_optimize(_affine(diff, den), piece)
    if res is not None and res.optimum > 0:
        return res.witness
    return None


def function_leq(
    lhs: FunctionLike,
    rhs: FunctionLike,
    arity: int,
    region: Polytope | None = None,
) -> Decision:
    """Exact pointwise <= between term functions and/or lattice
    expressions over the region (default: whole cube).

    Works directly on the shared DAG, cell by cell (`_cells`); the
    witness of a refutation is the point of largest violation on the
    first failing cell.  Affine forms are int tuples (see above), so no
    rational arithmetic runs outside the LPs; the tests check that every
    verdict and witness is the one the same procedure over ``Fraction``
    gives.
    """
    for piece, (fa, fb), den in _cells((lhs, rhs), arity, region):
        witness = _excess(fa, fb, piece, den)
        if witness is not None:
            return Decision(False, witness)
    return Decision(True)


def function_eq(
    lhs: FunctionLike,
    rhs: FunctionLike,
    arity: int,
    region: Polytope | None = None,
) -> Decision:
    """Exact function equality over the region: one walk over the cells,
    checking both directions on each (``lhs > rhs`` first)."""
    for piece, (fa, fb), den in _cells((lhs, rhs), arity, region):
        witness = _excess(fa, fb, piece, den)
        if witness is None:
            witness = _excess(fb, fa, piece, den)
        if witness is not None:
            return Decision(False, witness)
    return Decision(True)
