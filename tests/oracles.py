"""Reference implementations that exist only to check the library.

``simplex_max_fraction`` is the dense two-phase simplex over ``Fraction``
that ``mvsynth.geometry`` used before its fraction-free integer kernel.
It takes the same arguments as ``mvsynth.geometry._simplex_max`` and,
pivoting with the same Bland rule and ratio tie-break on the same
variable numbering, must return the identical witness tuple.

``decide_leq`` / ``decide_eq`` are the decision procedure that
``mvsynth.pwl`` shipped beside ``function_leq``.  They work on lattice
expressions only: the sign cells of all leaf forms and their pairwise
differences are enumerated, and inside a cell both expressions are
affine, so one LP settles the cell.  ``term_to_pwl`` translates a term
into an equivalent lattice expression through a max-of-min normal form,
which can grow exponentially; it lets the oracle compare small terms.

``function_leq_fraction`` / ``function_eq_fraction`` and
``eval_term_fraction`` are ``mvsynth.pwl.function_leq`` /
``function_eq`` and ``mvsynth.terms.eval_term`` as they were before the
library moved to integer arithmetic: every affine form is an
`AffineForm` over ``Fraction`` and every value a ``Fraction``.  They make
the same sign tests in the same order, so the library must return the
identical `Decision` (verdict and witness) and the identical value.
``function_eq_fraction`` walks the cells once and checks both directions
on each, as ``mvsynth.pwl.function_eq`` does.

``membership_bound_doubling`` is ``mvsynth.crt.membership_bound`` as it
was before it found the least multiplier in one walk: it tries m = 1, 2,
4, ... with a fresh ``function_leq`` each, so its m is at least the least
one and below twice it.

``settle_forms``, ``lp_rows_fraction`` and ``interior_lp_fraction`` are
how ``mvsynth.geometry`` kept a polytope as `AffineForm` constraints
before it stored settled integer half-spaces: every ``with_constraints``
re-derived the half-space of each form, merged parallel ones and kept the
first violated constant at the end; ``lp_optimize`` and
``interior_point`` built their kernel rows from those forms.  The library
must hand the kernel the same rows in the same order.

``enumerate_cells_lp`` is ``mvsynth.geometry.enumerate_cells`` as it was
before split cells took their points toward the vertex that proved the
cut: every branch is split on every form, and a child that does not
inherit its parent's point solves the uniform-slack interior-point LP,
which prunes it when its interior is empty.  The library must list the
same sign vectors in the same order, with points strictly inside both
cells.

``combine_pair_paper`` and ``chinese_glue_halving`` are the paper's
constructive Chinese-remainder fold as ``mvsynth.crt`` shipped it before
it glued in one level: each combine instantiates the explicit two-ideal
formula ``(a1 - a2 - c1) (+) (a2 - a1 - d2) (+) (a1 /\\ a2)``, and the
pairs are halved recursively into a ceil(log2 n)-deep combine tree.  The
library's output must be function-equal to theirs, and no larger in
total over the corpus.

``select_constituent_lp`` is how ``mvsynth.crt.analyze_regions`` chose
each ordering group's constituent before it took the description's own
min/max-tree pick: on the same sign cells, it LP-tests every constituent
whose clamp equals the function at the group's base point, in index
order, on every cell's zero-set face, and takes the first that passes.
The library must select the same constituent for every group.

``linear_term_unit_peel`` is how ``mvsynth.linear.linear_term`` built
the clamp median(0, g, 1) before it halved even coefficients: it peels
one unit of coefficient mass per step with
``clamp(g + x) = clamp(g) (+) (x (.) clamp(g + 1))`` (and ``-x`` through
``g - x = (g - 1) + (1 - x)``), so its tree roughly doubles with each
unit of mass.  It keeps its own memo and certifies nothing, and it
builds with the unfolded connectives below, so it gives the same terms
it gave as the library's construction.  The library's term must be
function-equal to it and never larger as a tree.

``otimes_unfolded``, ``ominus_unfolded``, ``vee_unfolded``,
``wedge_unfolded`` and ``dist_unfolded`` are the derived connectives of
``mvsynth.terms`` as they expanded before they folded constants and
double negations: ``a (.) b = -(-a (+) -b)``, ``a (-) b = a (.) -b``,
``a \\/ b = (a (-) b) (+) b``, ``a /\\ b = -(-a \\/ -b)`` and
``dist(a, b) = (a (-) b) (+) (b (-) a)``, every node built literally.
The library's connectives must be function-equal to them and never
larger as a tree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from mvsynth import terms
from mvsynth.crt import (
    DEFAULT_CAP,
    CombineRecord,
    PrincipalIdeal,
    SynthesisTrace,
    _clamp_on_cell,
    _least_multipliers,
    _matches_on_zero_set,
    intersect_principal,
)
from mvsynth.errors import (
    CapExceededError,
    DomainError,
    InvalidDescriptionError,
    NotCongruentError,
    NotMemberError,
)
from mvsynth.geometry import (
    SIGN_GE,
    SIGN_LE,
    AffineForm,
    Cell,
    CellDecomposition,
    Polytope,
    clamp01,
    const_form,
    cube,
    dedup_canonical_forms,
    enumerate_cells,
    interior_point,
    lp_optimize,
    unit_form,
)
from mvsynth.pwl import (
    Decision,
    FunctionLike,
    Leaf,
    MaxOf,
    MinOf,
    PwlExpr,
    _check_region,
    _expr_children,
    _resolve_at,
    function_leq,
    max_of,
    min_of,
    pwl_arity,
    pwl_leaves,
)
from mvsynth.terms import (
    ONE,
    ZERO,
    Rational,
    Term,
    eval_term,
    iterate_oplus,
    neg,
    ominus,
    oplus,
    var,
    wedge,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


def simplex_max_fraction(
    c: list[Fraction], rows: list[tuple[list[Fraction], Fraction]], n: int
) -> tuple[Fraction, ...] | None:
    """Maximize c.x subject to rows (a.x <= b) and x >= 0.

    Returns an optimal point or None when infeasible.  Assumes the
    feasible region is bounded.
    """
    Q = Fraction
    _q0, _q1 = Q(0), Q(1)
    m = len(rows)
    art_of_row: dict[int, int] = {}
    body: list[list] = []
    for i, (a, b) in enumerate(rows):
        coeffs = [Q(v.numerator, v.denominator) for v in a]
        b = Q(b.numerator, b.denominator)
        slack = _q1
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
            slack = -_q1
        row = coeffs + [_q0] * m + [b]
        row[n + i] = slack
        if slack < 0:
            art_of_row[i] = n + m + len(art_of_row)
        body.append(row)
    n_art = len(art_of_row)
    width = n + m + n_art
    tableau: list[list] = []
    for i in range(m):
        row = body[i][:-1] + [_q0] * n_art + [body[i][-1]]
        if i in art_of_row:
            row[art_of_row[i]] = _q1
        tableau.append(row)
    basis = [art_of_row.get(i, n + i) for i in range(m)]

    def pivot(r: int, col: int):
        piv = tableau[r][col]
        if piv != 1:
            tableau[r] = [v / piv for v in tableau[r]]
        prow = tableau[r]
        for i in range(m):
            if i != r and tableau[i][col]:
                f = tableau[i][col]
                tableau[i] = [v - f * pv for v, pv in zip(tableau[i], prow)]
        basis[r] = col

    def optimize(cost: list, allowed: int) -> list:
        # reduced-cost row, priced out for the current basis
        red = [-v for v in cost] + [_q0]
        for i, bv in enumerate(basis):
            if red[bv]:
                f = red[bv]
                red = [v - f * pv for v, pv in zip(red, tableau[i])]
        while True:
            enter = next(
                (j for j in range(allowed) if red[j] < 0), None
            )  # Bland: lowest index
            if enter is None:
                return red
            best = None
            for i in range(m):
                coeff = tableau[i][enter]
                if coeff > 0:
                    ratio = tableau[i][-1] / coeff
                    key = (ratio, basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                raise RuntimeError("LP unbounded; impossible inside the cube")
            pivot(best[1], enter)
            f = red[enter]
            if f:
                red = [v - f * pv for v, pv in zip(red, tableau[best[1]])]

    if n_art:
        cost1 = [_q0] * width
        for col in art_of_row.values():
            cost1[col] = -_q1  # maximize -(sum of artificials)
        red = optimize(cost1, width)
        if red[-1] != 0:
            return None
        # Drive leftover artificials out of the basis.
        for i in range(m):
            if basis[i] >= n + m:
                col = next(
                    (j for j in range(n + m) if tableau[i][j]), None
                )
                if col is not None:
                    pivot(i, col)
                # else: the row is redundant (all structural/slack zero);
                # its artificial stays basic at value 0, which is harmless.

    cost2 = [Q(v.numerator, v.denominator) for v in c] + [_q0] * (m + n_art)
    optimize(cost2, n + m)  # artificial columns excluded in phase 2
    x = [_F0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            value = tableau[i][-1]
            x[bv] = Fraction(int(value.numerator), int(value.denominator))
    return tuple(x)


# --- polytopes as AffineForm constraints -------------------------------------

def _halfspace_fraction(g: AffineForm) -> tuple[tuple[Fraction, ...], Fraction]:
    scale = Fraction(lcm(*(c.denominator for c in g.coeffs)))
    ints = [int(c * scale) for c in g.coeffs]
    k = gcd(*ints)
    lam = Fraction(k, 1) / scale
    return tuple(Fraction(v // k) for v in ints), -g.constant / lam


def settle_forms(
    constraints: tuple[AffineForm, ...], extra: Sequence[AffineForm]
) -> tuple[AffineForm, ...]:
    """``with_constraints`` over forms: the tightest form per direction in
    first-occurrence order, then the first violated constant, if any."""
    order: list[tuple] = []
    tightest: dict[tuple, Fraction] = {}
    infeasible: AffineForm | None = None
    for g in (*constraints, *extra):
        if g.is_constant:
            if g.constant > 0 and infeasible is None:
                infeasible = g
            continue
        direction, offset = _halfspace_fraction(g)
        if direction not in tightest:
            order.append(direction)
            tightest[direction] = offset
        elif offset < tightest[direction]:
            tightest[direction] = offset
    merged = [AffineForm(-tightest[d], d) for d in order]
    if infeasible is not None:
        merged.append(infeasible)
    return tuple(merged)


def lp_rows_fraction(
    arity: int, constraints: Sequence[AffineForm]
) -> list[tuple[list[Fraction], Fraction]] | None:
    """The kernel rows of ``lp_optimize`` for ``form <= 0`` constraints and
    the cube; None when a violated constant makes the LP unnecessary."""
    rows = []
    for g in constraints:
        if g.is_constant:
            if g.constant > 0:
                return None
            continue
        rows.append((list(g.coeffs), -g.constant))
    for i in range(arity):
        rows.append(([_F1 if j == i else _F0 for j in range(arity)], _F1))
    return rows


def interior_lp_fraction(arity: int, constraints: Sequence[AffineForm]):
    """The kernel call ``(c, rows, n)`` of the uniform-slack program of
    ``interior_point``; None when no LP is needed."""
    n = arity
    slack_forms = []
    for g in constraints:
        if g.is_constant:
            if g.constant > 0:
                return None
            continue
        slack_forms.append(AffineForm(g.constant, g.coeffs + (_F1,)))
    for i in range(n):
        e = [_F0] * (n + 1)
        e[i] = -_F1
        e[n] = _F1
        slack_forms.append(AffineForm(_F0, tuple(e)))  # s <= x_i
        e = [_F0] * (n + 1)
        e[i] = _F1
        e[n] = _F1
        slack_forms.append(AffineForm(-_F1, tuple(e)))  # x_i + s <= 1
    return [_F0] * n + [_F1], lp_rows_fraction(n + 1, slack_forms), n + 1


# --- term -> lattice expression (the normal-form route) ---------------------

def term_to_pwl(t: Term, arity: int) -> PwlExpr:
    """Lattice expression with the same function as the term.

    Negation is pushed through min/max; a truncated sum distributes the
    two operands' max-of-min normal forms leafwise and re-clamps.  The
    normal form can grow exponentially, so feed it small terms only.
    """
    if terms.max_var_index(t) > arity:
        raise DomainError("term variable index exceeds declared arity")
    memo: dict[int, PwlExpr] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if isinstance(node, terms.Zero):
            memo[id(node)] = Leaf(const_form(arity, 0))
        elif isinstance(node, terms.One):
            memo[id(node)] = Leaf(const_form(arity, 1))
        elif isinstance(node, terms.Var):
            memo[id(node)] = Leaf(unit_form(arity, node.index))
        elif isinstance(node, terms.Neg):
            child = memo.get(id(node.child))
            if child is None:
                stack.append(node.child)
                continue
            memo[id(node)] = _complement(child)
        else:  # Oplus
            left = memo.get(id(node.left))
            right = memo.get(id(node.right))
            if left is None or right is None:
                if right is None:
                    stack.append(node.right)
                if left is None:
                    stack.append(node.left)
                continue
            blocks = _sum_blocks(_blocks(left), _blocks(right))
            body = max_of(
                [min_of([Leaf(g) for g in blk]) for blk in blocks]
            )
            memo[id(node)] = MinOf(
                (
                    MaxOf((body, Leaf(const_form(arity, 0)))),
                    Leaf(const_form(arity, 1)),
                )
            )
        stack.pop()
    return memo[id(t)]


def _complement(expr: PwlExpr) -> PwlExpr:
    """1 - expr, pushed through the lattice structure."""
    memo: dict[int, PwlExpr] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            memo[id(node)] = Leaf(const_form(node.form.arity, 1) - node.form)
            stack.pop()
            continue
        missing = [c for c in node.children if id(c) not in memo]
        if missing:
            stack.extend(missing)
            continue
        kids = tuple(memo[id(c)] for c in node.children)
        memo[id(node)] = MaxOf(kids) if isinstance(node, MinOf) else MinOf(kids)
        stack.pop()
    return memo[id(expr)]


def _form_leq_everywhere(g: AffineForm, h: AffineForm) -> bool:
    """Exact pointwise g <= h over the whole cube (affine, so the box
    bound is the true maximum)."""
    return (g - h).bounds()[1] <= 0


def _prune_min_list(forms: list[AffineForm]) -> list[AffineForm]:
    """Remove forms dominated from below inside one min-list (exact)."""
    kept: list[AffineForm] = []
    for g in forms:
        if any(_form_leq_everywhere(k, g) for k in kept):
            continue
        kept = [k for k in kept if not _form_leq_everywhere(g, k)]
        kept.append(g)
    return kept


def _prune_blocks(blocks: list[list[AffineForm]]) -> list[list[AffineForm]]:
    """Dedup blocks and drop blocks whose min lies below another block's
    min everywhere (the max over blocks is unchanged)."""
    seen = set()
    unique: list[list[AffineForm]] = []
    for blk in blocks:
        key = frozenset(blk)
        if key not in seen:
            seen.add(key)
            unique.append(blk)
    if len(unique) > 220:  # quadratic pass; skip when clearly too wide
        return unique

    def dominated(a: list[AffineForm], b: list[AffineForm]) -> bool:
        # min(a) <= min(b) pointwise: every b-form sits above some a-form
        return all(any(_form_leq_everywhere(ga, gb) for ga in a) for gb in b)

    kept: list[list[AffineForm]] = []
    for blk in unique:
        if any(dominated(blk, other) and not dominated(other, blk) for other in kept):
            continue
        kept = [
            other
            for other in kept
            if not (dominated(other, blk) and not dominated(blk, other))
        ]
        kept.append(blk)
    return kept


def _blocks(expr: PwlExpr) -> list[list[AffineForm]]:
    """Max-of-min normal form: a list of blocks, each block a list of
    forms whose minimum is taken; the maximum is taken over blocks.
    Dominated pieces are pruned (exactly) to curb the distribution
    blowup; the function is unchanged."""
    memo: dict[int, list[list[AffineForm]]] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            memo[id(node)] = [[node.form]]
            stack.pop()
            continue
        missing = [c for c in node.children if id(c) not in memo]
        if missing:
            stack.extend(missing)
            continue
        parts = [memo[id(c)] for c in node.children]
        if isinstance(node, MaxOf):
            out = _prune_blocks([blk for p in parts for blk in p])
        else:
            out = parts[0]
            for p in parts[1:]:
                merged = []
                for a in out:
                    for b in p:
                        blk = list(a)
                        for g in b:
                            if g not in blk:
                                blk.append(g)
                        merged.append(_prune_min_list(blk))
                out = _prune_blocks(merged)
        memo[id(node)] = out
        stack.pop()
    return memo[id(expr)]


def _sum_blocks(
    a: list[list[AffineForm]], b: list[list[AffineForm]]
) -> list[list[AffineForm]]:
    # min-of-forms + min-of-forms = min over pairwise sums, and max
    # distributes over +, so blocks combine pairwise.
    out = []
    for blk_a in a:
        for blk_b in b:
            blk = []
            for ga in blk_a:
                for gb in blk_b:
                    s = ga + gb
                    if s not in blk:
                        blk.append(s)
            out.append(_prune_min_list(blk))
    return _prune_blocks(out)


# --- leaf-difference arrangement decision procedure ---------------------------

def decide_leq(
    lhs: PwlExpr, rhs: PwlExpr, region: Polytope | None = None
) -> Decision:
    """Does lhs <= rhs hold at every point of the region (default: the
    whole cube)?  Exact; a refutation carries a witness point.

    The sign cells of all distinct leaf forms plus all pairwise leaf
    differences are enumerated inside the region; on each cell both
    expressions collapse to single affine forms, compared by LP.
    """
    arity = pwl_arity(lhs)
    if pwl_arity(rhs) != arity:
        raise DomainError("expressions have different arities")
    region = _check_region(region, arity)
    if interior_point(region) is None:
        if lp_optimize(const_form(arity, 0), region) is None:
            return Decision(True)  # empty region: vacuously true
        raise DomainError("region has points but empty interior; not supported")

    leaves = pwl_leaves(lhs)
    for g in pwl_leaves(rhs):
        if g not in leaves:
            leaves.append(g)
    collected = list(leaves)
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            collected.append(leaves[i] - leaves[j])
    forms = dedup_canonical_forms(collected)

    for cell in enumerate_cells(forms, arity, within=region):
        fa = _resolve_at(lhs, cell.point)
        fb = _resolve_at(rhs, cell.point)
        diff = fa - fb
        if diff.bounds()[1] <= 0:
            continue
        res = lp_optimize(diff, cell.polytope)
        if res is not None and res.optimum > 0:
            return Decision(False, res.witness)
    return Decision(True)


def decide_eq(
    lhs: PwlExpr, rhs: PwlExpr, region: Polytope | None = None
) -> Decision:
    """Function equality on the region: decide_leq both ways."""
    forward = decide_leq(lhs, rhs, region)
    if not forward:
        return forward
    return decide_leq(rhs, lhs, region)


# --- the adaptive decision procedure over Fraction ---------------------------

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


def _check_operand(obj: FunctionLike, arity: int):
    if isinstance(obj, Term):
        if terms.max_var_index(obj) > arity:
            raise DomainError("term variable index exceeds declared arity")
    elif isinstance(obj, PwlExpr):
        if pwl_arity(obj) != arity:
            raise DomainError("expression arity does not match declared arity")
    else:
        raise TypeError(f"expected Term or PwlExpr, got {type(obj).__name__}")


def _cells_fraction(
    lhs: FunctionLike,
    rhs: FunctionLike,
    arity: int,
    region: Polytope | None,
):
    """The cells of the region on which both sides are affine, with the
    forms they equal there: ``(piece, fa, fb)``.

    Works directly on the shared DAG: each candidate cell is refined only
    when some clamp or lattice choice genuinely changes sign on it, so
    the cost tracks the functions' true piecewise structure rather than
    their syntax size.
    """
    _check_operand(lhs, arity)
    _check_operand(rhs, arity)
    region = _check_region(region, arity)
    if interior_point(region) is None:
        if lp_optimize(const_form(arity, 0), region) is None:
            return  # empty region: no cells
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
        yield piece, fa, fb


def _excess_fraction(fa: AffineForm, fb: AffineForm, piece: Polytope):
    """The point of largest ``fa - fb`` on the cell when that maximum is
    positive, else None.  Such points sit on cell vertices, which is
    what ideal-membership refutation needs."""
    diff = fa - fb
    if diff.bounds()[1] <= 0:
        return None
    res = lp_optimize(diff, piece)
    if res is not None and res.optimum > 0:
        return res.witness
    return None


def function_leq_fraction(
    lhs: FunctionLike,
    rhs: FunctionLike,
    arity: int,
    region: Polytope | None = None,
) -> Decision:
    """Exact pointwise <= between term functions and/or lattice
    expressions over the region (default: whole cube): the first cell
    where ``lhs - rhs`` has a positive maximum refutes it."""
    for piece, fa, fb in _cells_fraction(lhs, rhs, arity, region):
        witness = _excess_fraction(fa, fb, piece)
        if witness is not None:
            return Decision(False, witness)
    return Decision(True)


def function_eq_fraction(
    lhs: FunctionLike,
    rhs: FunctionLike,
    arity: int,
    region: Polytope | None = None,
) -> Decision:
    """Exact function equality: one walk over the cells, both directions
    on each (``lhs > rhs`` first)."""
    for piece, fa, fb in _cells_fraction(lhs, rhs, arity, region):
        witness = _excess_fraction(fa, fb, piece)
        if witness is None:
            witness = _excess_fraction(fb, fa, piece)
        if witness is not None:
            return Decision(False, witness)
    return Decision(True)


# --- membership by doubling ------------------------------------------------------

def membership_bound_doubling(
    element: Term, ideal: PrincipalIdeal, cap: int = DEFAULT_CAP
) -> int:
    """Smallest tested multiplier m (doubling 1, 2, 4, ...) with
    element <= m * generator everywhere on the cube.

    Raises `NotMemberError` as soon as some failure witness lies in the
    generator's zero set while the element is positive there (no m can
    ever work), and `CapExceededError` when the cap is passed without
    resolution.
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise DomainError(f"cap must be an integer >= 1, got {cap!r}")
    gen = ideal.generator
    m = 1
    while m <= cap:
        verdict = function_leq(element, iterate_oplus(m, gen), ideal.arity)
        if verdict:
            return m
        witness = verdict.witness
        if eval_term(gen, witness) == 0 and eval_term(element, witness) > 0:
            raise NotMemberError(
                "element is positive on the generator's zero set", witness
            )
        m *= 2
    raise CapExceededError(cap)


# --- term evaluation over Fraction ---------------------------------------------

def eval_term_fraction(t: Term, point: Sequence[Rational]) -> Fraction:
    """Evaluate a term at a rational point of the unit cube, exactly.

    Iterative over the term DAG, so arbitrarily deep shared terms are fine.
    """
    terms._require_term(t)
    pt = terms.as_point(point)
    n = len(pt)
    memo: dict[int, Fraction] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in memo:
            stack.pop()
            continue
        if isinstance(node, terms.Zero):
            memo[nid] = _F0
            stack.pop()
        elif isinstance(node, terms.One):
            memo[nid] = _F1
            stack.pop()
        elif isinstance(node, terms.Var):
            if node.index > n:
                raise DomainError(
                    f"term uses (var {node.index}) but the point has {n} coordinates"
                )
            memo[nid] = pt[node.index - 1]
            stack.pop()
        elif isinstance(node, terms.Neg):
            cv = memo.get(id(node.child))
            if cv is None:
                stack.append(node.child)
            else:
                memo[nid] = 1 - cv
                stack.pop()
        else:  # Oplus
            lv = memo.get(id(node.left))
            rv = memo.get(id(node.right))
            if lv is not None and rv is not None:
                s = lv + rv
                memo[nid] = s if s < 1 else _F1
                stack.pop()
            else:
                if rv is None:
                    stack.append(node.right)
                if lv is None:
                    stack.append(node.left)
    return memo[id(t)]


# --- cell enumeration with an interior-point LP per branch ------------------

def enumerate_cells_lp(
    forms: Sequence[AffineForm], arity: int, within: Polytope | None = None
) -> CellDecomposition:
    """All full-dimensional sign cells of a form family inside the cube
    (or inside ``within``), ordered lexicographically with ``<=`` before
    ``>=``.

    Forms must be pairwise distinct and non-constant; branches whose
    polytope has empty interior are pruned, so each listed cell carries a
    strictly interior point.
    """
    base = within if within is not None else cube(arity)
    if base.arity != arity:
        raise DomainError("within-polytope arity mismatch")
    for i, g in enumerate(forms):
        if g.arity != arity:
            raise DomainError("form arity mismatch")
        if g.is_constant:
            raise ValueError("constant forms are not allowed here")
        if g in forms[:i]:
            raise ValueError("duplicate forms are not allowed here")

    cells: list[Cell] = []
    signs: list[str] = []

    def walk(idx: int, poly: Polytope, point):
        # point: strictly interior to poly when inherited from the parent
        # branch; recomputed (one LP) only when inheritance fails.
        if point is None:
            point = interior_point(poly)
            if point is None:
                return
        if idx == len(forms):
            cells.append(Cell(tuple(signs), poly, point))
            return
        g = forms[idx]
        value = g.evaluate(point)
        signs.append(SIGN_LE)
        walk(idx + 1, poly.with_constraints((g,)), point if value < 0 else None)
        signs.pop()
        signs.append(SIGN_GE)
        walk(
            idx + 1,
            poly.with_constraints((g.negated(),)),
            point if value > 0 else None,
        )
        signs.pop()

    walk(0, base, None)
    return cells


def combine_pair_paper(
    a1: Term,
    a2: Term,
    ideal1: PrincipalIdeal,
    ideal2: PrincipalIdeal,
    cap: int = DEFAULT_CAP,
    trace: SynthesisTrace | None = None,
) -> Term:
    """Glue two terms congruent modulo the joined ideal into one term
    congruent to a1 modulo ideal1 and to a2 modulo ideal2.

    Requires both truncated differences of a1 and a2 to be members of
    the ideal generated by generator1 (+) generator2; otherwise raises
    `NotCongruentError` with a witness point.  It finds both multipliers
    of a combine in one walk, over the cells of the operand tuple
    ``(a1 - a2, a2 - a1, generator1 (+) generator2)``: the second
    difference splits no cell, since its only sign test, the sign of
    a1 - a2, is settled by the first.  A failure of a1 - a2 wins over
    one of a2 - a1, as with two separate `membership_bound` calls in
    that order.
    """
    if ideal1.arity != ideal2.arity:
        raise DomainError("ideal arity mismatch")
    join = PrincipalIdeal(oplus(ideal1.generator, ideal2.generator), ideal1.arity)
    try:
        m1, m2 = _least_multipliers((ominus(a1, a2), ominus(a2, a1)), join, cap)
    except NotMemberError as ex:
        raise NotCongruentError(
            "sides differ where the joined ideal's generator vanishes",
            ex.witness,
        ) from ex
    c1 = iterate_oplus(m1, ideal1.generator)
    d2 = iterate_oplus(m2, ideal2.generator)
    glued = oplus(
        oplus(ominus(ominus(a1, a2), c1), ominus(ominus(a2, a1), d2)),
        wedge(a1, a2),
    )
    if trace is not None:
        trace.combines.append(
            CombineRecord(a1, a2, ideal1, ideal2, glued, m1, m2)
        )
    return glued


def chinese_glue_halving(
    pairs: Sequence[tuple[Term, PrincipalIdeal]],
    cap: int = DEFAULT_CAP,
    trace: SynthesisTrace | None = None,
) -> Term:
    """Glue (term, ideal) pairs into one term congruent to every input
    term modulo its ideal.

    The pairs are halved recursively, the left block taking the extra
    pair, and the two blocks' results are joined with `combine_pair_paper`
    and `intersect_principal`.  Any bracketing is sound (the ideal
    lattice of an MV-algebra is distributive); halving keeps the combine
    tree ceil(log2 n) deep, so the glued term is polynomial in n where a
    left fold, copying the accumulated term three times per pair, is
    exponential.  Up to three pairs glue exactly as a left fold.

    A congruence failure re-raises the `NotCongruentError` with ``index``
    set to the 1-based position of the first pair of the right block of
    the failing combine.
    """
    items = list(pairs)
    if not items:
        raise DomainError("at least one (term, ideal) pair is required")

    def glue(lo: int, hi: int) -> tuple[Term, PrincipalIdeal]:
        if hi - lo == 1:
            return items[lo]
        mid = lo + (hi - lo + 1) // 2
        left, left_ideal = glue(lo, mid)
        right, right_ideal = glue(mid, hi)
        try:
            term = combine_pair_paper(left, right, left_ideal, right_ideal, cap, trace)
        except NotCongruentError as ex:
            ex.index = mid + 1
            raise
        return term, intersect_principal(left_ideal, right_ideal)

    return glue(0, len(items))[0]


def select_constituent_lp(description: PwlExpr) -> dict[tuple[int, ...], int]:
    """The selected constituent of every ordering group, in the groups'
    order, by the LP search: the first constituent whose clamp is
    verified equal to the description on the whole zero set of the
    group's ideal (every member cell, and every zero-set face the ideal
    has inside other cells)."""
    arity = pwl_arity(description)
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

    cell_data = []  # (cell, f's affine form, clamped constituent forms)
    grouped: dict[tuple[int, ...], list] = {}
    for cell in cells:
        haffs = [_clamp_on_cell(g, cell.point, arity) for g in constituents]
        faff = _resolve_at(description, cell.point)
        cell_data.append((cell, faff, haffs))
        values = [h.evaluate(cell.point) for h in haffs]
        ordering = tuple(
            sorted(range(1, k + 1), key=lambda j: (values[j - 1], j))
        )
        grouped.setdefault(ordering, []).append((cell, faff))

    selections: dict[tuple[int, ...], int] = {}
    for ordering, members in grouped.items():
        base, base_faff = members[0]
        base_point = base.point
        value = base_faff.evaluate(base_point)
        candidates = [
            j
            for j in range(1, k + 1)
            if clamp01(constituents[j - 1].evaluate(base_point)) == value
        ]
        selected = None
        for j in candidates:
            if all(
                _matches_on_zero_set(faff - haffs[j - 1], haffs, ordering, cell)
                for cell, faff, haffs in cell_data
            ):
                selected = j
                break
        if selected is None:
            raise InvalidDescriptionError(
                f"no constituent matches the function across region {ordering}",
                base_point,
            )
        selections[ordering] = selected
    return selections


def otimes_unfolded(a: Term, b: Term) -> Term:
    return neg(oplus(neg(a), neg(b)))


def ominus_unfolded(a: Term, b: Term) -> Term:
    return otimes_unfolded(a, neg(b))


def vee_unfolded(a: Term, b: Term) -> Term:
    return oplus(ominus_unfolded(a, b), b)


def wedge_unfolded(a: Term, b: Term) -> Term:
    return neg(vee_unfolded(neg(a), neg(b)))


def dist_unfolded(a: Term, b: Term) -> Term:
    return oplus(ominus_unfolded(a, b), ominus_unfolded(b, a))


_UNIT_PEEL_MEMO: dict[tuple, Term] = {}


def linear_term_unit_peel(form: AffineForm) -> Term:
    """A term for median(0, g, 1) of an integer affine form, built by
    peeling one unit of coefficient mass per step (uncertified)."""
    return _build_unit_peel(int(form.constant), tuple(int(c) for c in form.coeffs))


def _build_unit_peel(c0: int, coeffs: tuple[int, ...]) -> Term:
    memo = _UNIT_PEEL_MEMO
    root = (c0, coeffs)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        c0, coeffs = key
        lo = c0 + sum(c for c in coeffs if c < 0)
        hi = c0 + sum(c for c in coeffs if c > 0)
        if hi <= 0:
            term = ZERO
        elif lo >= 1:
            term = ONE
        elif c0 == 0 and sum(map(abs, coeffs)) == 1 and 1 in coeffs:
            term = var(coeffs.index(1) + 1)
        elif c0 == 1 and sum(map(abs, coeffs)) == 1 and -1 in coeffs:
            term = neg(var(coeffs.index(-1) + 1))
        else:
            i = next(k for k, c in enumerate(coeffs) if c)
            step = 1 if coeffs[i] > 0 else -1
            rest = coeffs[:i] + (coeffs[i] - step,) + coeffs[i + 1:]
            base = c0 if step > 0 else c0 - 1
            low, high = (base, rest), (base + 1, rest)
            if low not in memo or high not in memo:
                stack += (high, low)  # low is built first
                continue
            literal = var(i + 1) if step > 0 else neg(var(i + 1))
            term = oplus(memo[low], otimes_unfolded(literal, memo[high]))
        memo[key] = term
        stack.pop()
    return memo[root]
