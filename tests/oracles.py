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
"""

from __future__ import annotations

from fractions import Fraction

from mvsynth import terms
from mvsynth.errors import DomainError
from mvsynth.geometry import (
    AffineForm,
    Polytope,
    const_form,
    dedup_canonical_forms,
    enumerate_cells,
    interior_point,
    lp_optimize,
    unit_form,
)
from mvsynth.pwl import (
    Decision,
    Leaf,
    MaxOf,
    MinOf,
    PwlExpr,
    _check_region,
    _resolve_at,
    max_of,
    min_of,
    pwl_arity,
    pwl_leaves,
)
from mvsynth.terms import Term

_F0 = Fraction(0)


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
