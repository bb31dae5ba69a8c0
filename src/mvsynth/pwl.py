"""Piecewise-linear function descriptions and the exact order/equality
decision procedure.

A `PwlExpr` is a min/max lattice tree over affine leaves; it describes a
continuous piecewise-linear function on the unit cube.  This module
provides exact evaluation, the clamp-to-[0,1] truncation of an affine
form, and one decision procedure, `function_leq` / `function_eq`.  It
compares term functions and lattice expressions, in any mix, by
resolving the DAG cell by cell and splitting a cell only when some clamp
or min/max choice actually changes sign on it.  This stays
polynomial-sized on the large shared terms produced by gluing, where an
up-front lattice normal form would explode.

An independent reference procedure (the leaf-difference arrangement and
the lattice normal form of a term) lives in ``tests/oracles.py``; the
tests check `function_leq` against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    unit_form,
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
    arity = None
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if arity is None:
                arity = node.form.arity
            elif node.form.arity != arity:
                raise DomainError("leaves of mixed arity in one expression")
        else:
            stack.extend(node.children)
    assert arity is not None
    return arity


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
    memo: dict[int, Fraction] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            memo[id(node)] = node.form.evaluate(pt)
            stack.pop()
            continue
        missing = [c for c in node.children if id(c) not in memo]
        if missing:
            stack.extend(missing)
            continue
        values = [memo[id(c)] for c in node.children]
        memo[id(node)] = min(values) if isinstance(node, MinOf) else max(values)
        stack.pop()
    return memo[id(expr)]


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
    memo: dict[int, tuple[AffineForm, Fraction]] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            memo[id(node)] = (node.form, node.form.evaluate(point))
            stack.pop()
            continue
        missing = [c for c in node.children if id(c) not in memo]
        if missing:
            stack.extend(missing)
            continue
        pairs = [memo[id(c)] for c in node.children]
        pick = pairs[0]
        for cand in pairs[1:]:
            if isinstance(node, MinOf):
                if cand[1] < pick[1]:
                    pick = cand
            else:
                if cand[1] > pick[1]:
                    pick = cand
        memo[id(node)] = pick
        stack.pop()
    return memo[id(expr)][0]


# --- adaptive comparison on term DAGs ----------------------------------------

class _Split(Exception):
    """Raised during cell resolution when a form changes sign on the cell."""

    def __init__(self, form: AffineForm):
        self.form = form


class _CellCtx:
    __slots__ = ("polytope", "point", "signs")

    def __init__(self, polytope: Polytope, point: tuple[Fraction, ...]):
        self.polytope = polytope
        self.point = point
        self.signs: dict[AffineForm, int | None] = {}

    def sign(self, form: AffineForm) -> tuple[int | None, bool]:
        """Sign of ``form`` on the cell: -1 (<= 0 everywhere), +1 (>= 0
        everywhere) or None (both).  Second component: True when the
        answer holds on the whole cube, not just this cell."""
        if form.is_constant:
            return (1 if form.constant >= 0 else -1), True
        lo, hi = form.bounds()
        if hi <= 0:
            return -1, True
        if lo >= 0:
            return 1, True
        canon, flipped = form.canonical()
        if canon in self.signs:
            sign = self.signs[canon]
        else:
            value = canon.evaluate(self.point)
            if value > 0:
                res = lp_optimize(canon, self.polytope, "min")
                sign = 1 if res.optimum >= 0 else None
            elif value < 0:
                res = lp_optimize(canon, self.polytope)
                sign = -1 if res.optimum <= 0 else None
            else:
                hi_res = lp_optimize(canon, self.polytope)
                if hi_res.optimum <= 0:
                    sign = -1
                else:
                    lo_res = lp_optimize(canon, self.polytope, "min")
                    sign = 1 if lo_res.optimum >= 0 else None
            self.signs[canon] = sign
        if sign is not None and flipped:
            sign = -sign
        return sign, False


# Cube-wide resolutions of interned term nodes, keyed by (node id, arity).
# Terms are immortal (the intern table keeps them alive) so id-keyed
# caching is safe; PwlExpr nodes are not interned and must not be cached
# across calls.
_TERM_CUBE_CACHE: dict[tuple[int, int], AffineForm] = {}


def _node_children(node) -> tuple:
    if isinstance(node, Term):
        return terms._children(node)
    return _expr_children(node)


def _affinize(root, arity: int, ctx: _CellCtx, local: dict[int, AffineForm]):
    """Affine form equal to the function of ``root`` on the cell.

    Resolutions that hold on the whole cube are cached globally (for
    terms) so repeated cells and repeated calls share the work.  Raises
    `_Split` when some internal choice changes sign on the cell.
    """
    pure_flags: dict[int, bool] = {}

    def lookup(node):
        if isinstance(node, Term):
            form = _TERM_CUBE_CACHE.get((id(node), arity))
            if form is not None:
                return form, True
        got = local.get(id(node))
        if got is not None:
            return got, pure_flags.get(id(node), False)
        return None, False

    stack = [root]
    while stack:
        node = stack[-1]
        found, _ = lookup(node)
        if found is not None:
            stack.pop()
            continue
        kids = _node_children(node)
        missing = [k for k in kids if lookup(k)[0] is None]
        if missing:
            stack.extend(missing)
            continue
        resolved = [lookup(k) for k in kids]
        forms = [r[0] for r in resolved]
        pure = all(r[1] for r in resolved)

        if isinstance(node, terms.Zero):
            form = const_form(arity, 0)
        elif isinstance(node, terms.One):
            form = const_form(arity, 1)
        elif isinstance(node, terms.Var):
            if node.index > arity:
                raise DomainError("term variable index exceeds arity")
            form = unit_form(arity, node.index)
        elif isinstance(node, terms.Neg):
            form = const_form(arity, 1) - forms[0]
        elif isinstance(node, terms.Oplus):
            total = forms[0] + forms[1]
            overflow = total.shifted(-1)
            sign, from_box = ctx.sign(overflow)
            if sign is None:
                raise _Split(overflow)
            form = const_form(arity, 1) if sign > 0 else total
            pure = pure and from_box
        elif isinstance(node, Leaf):
            form = node.form
        else:  # MinOf / MaxOf
            want_min = isinstance(node, MinOf)
            form = forms[0]
            for cand in forms[1:]:
                delta = form - cand
                if delta.is_constant:
                    better = delta.constant > 0 if want_min else delta.constant < 0
                    if better:
                        form = cand
                    continue
                sign, from_box = ctx.sign(delta)
                pure = pure and from_box
                if sign is None:
                    raise _Split(delta)
                if (want_min and sign > 0) or (not want_min and sign < 0):
                    form = cand

        if pure and isinstance(node, Term):
            _TERM_CUBE_CACHE[(id(node), arity)] = form
        else:
            local[id(node)] = form
            pure_flags[id(node)] = pure
        stack.pop()
    return lookup(root)[0]


FunctionLike = Union[Term, PwlExpr]


def _check_operand(obj: FunctionLike, arity: int):
    if isinstance(obj, Term):
        if terms.max_var_index(obj) > arity:
            raise DomainError("term variable index exceeds declared arity")
    elif isinstance(obj, PwlExpr):
        if pwl_arity(obj) != arity:
            raise DomainError("expression arity does not match declared arity")
    else:
        raise TypeError(f"expected Term or PwlExpr, got {type(obj).__name__}")


def function_leq(
    lhs: FunctionLike,
    rhs: FunctionLike,
    arity: int,
    region: Polytope | None = None,
) -> Decision:
    """Exact pointwise <= between term functions and/or lattice
    expressions over the region (default: whole cube).

    Works directly on the shared DAG: each candidate cell is refined only
    when some clamp or lattice choice genuinely changes sign on it, so
    the cost tracks the functions' true piecewise structure rather than
    their syntax size.  The tests check it against the reference
    procedure in ``tests/oracles.py``.
    """
    _check_operand(lhs, arity)
    _check_operand(rhs, arity)
    region = _check_region(region, arity)
    if interior_point(region) is None:
        if lp_optimize(const_form(arity, 0), region) is None:
            return Decision(True)  # empty region: vacuously true
        raise DomainError("region has points but empty interior; not supported")
    todo: list[tuple[Polytope, object, dict, dict]] = [(region, None, {}, {})]
    while todo:
        piece, point, signs, local = todo.pop()
        if point is None:
            point = interior_point(piece)
            if point is None:
                continue  # empty-interior pieces are covered by siblings
        ctx = _CellCtx(piece, point)
        ctx.signs = signs
        try:
            fa = _affinize(lhs, arity, ctx, local)
            fb = _affinize(rhs, arity, ctx, local)
        except _Split as split:
            # Everything resolved so far holds on both halves (they are
            # subsets of this piece), so the children inherit the work;
            # only still-ambiguous sign entries must be dropped.  The
            # interior point is inherited by the half it strictly
            # satisfies.
            canon, flipped = split.form.canonical()
            value = split.form.evaluate(point)
            kept = {k: v for k, v in ctx.signs.items() if v is not None}
            le_signs = dict(kept)
            le_signs[canon] = 1 if flipped else -1
            ge_signs = kept
            ge_signs[canon] = -1 if flipped else 1
            todo.append(
                (
                    piece.with_constraints((split.form.negated(),)),
                    point if value > 0 else None,
                    ge_signs,
                    dict(local),
                )
            )
            todo.append(
                (
                    piece.with_constraints((split.form,)),
                    point if value < 0 else None,
                    le_signs,
                    local,
                )
            )
            continue
        diff = fa - fb
        if diff.bounds()[1] <= 0:
            continue
        # Witness at the maximal violation: such points sit on cell
        # vertices, which is what ideal-membership refutation needs.
        res = lp_optimize(diff, piece)
        if res is not None and res.optimum > 0:
            return Decision(False, res.witness)
    return Decision(True)


def function_eq(
    lhs: FunctionLike,
    rhs: FunctionLike,
    arity: int,
    region: Polytope | None = None,
) -> Decision:
    forward = function_leq(lhs, rhs, arity, region)
    if not forward:
        return forward
    return function_leq(rhs, lhs, arity, region)
