"""Exact rational geometry inside the unit cube.

Affine forms with rational coefficients, polytopes stored as settled
integer half-spaces ``d.x <= beta`` (the cube bounds ``0 <= x_i <= 1``
are always implicit), an exact two-phase simplex with Bland's rule on a
fraction-free integer tableau, and sign-branching cell enumeration for
finite form families.  Everything is deterministic and float-free.

Interior points come from an LP only at the root: a uniform-slack
program gives the region that a cell walk starts from a strictly interior
point.
A form cuts a cell when the LP for its least (or greatest) value finds a
vertex strictly on the other side from the cell's point, and the child on
that side takes a point on the segment toward that vertex, past the cut
(`split_points`); the other child keeps the parent's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import DomainError

Rational = Union[int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)

SIGN_LE = "<="
SIGN_GE = ">="


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise DomainError(f"exact rational required, got {x!r}")
    return Fraction(x)


def clamp01(value: Fraction) -> Fraction:
    """median(0, value, 1)"""
    if value < 0:
        return _F0
    if value > 1:
        return _F1
    return value


@dataclass(frozen=True)
class AffineForm:
    """constant + sum(coeffs[i] * x_{i+1}); exact rational entries."""

    constant: Fraction
    coeffs: tuple[Fraction, ...]

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_integral(self) -> bool:
        return self.constant.denominator == 1 and all(
            c.denominator == 1 for c in self.coeffs
        )

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.coeffs):
            raise DomainError(
                f"form has arity {len(self.coeffs)}, point has {len(point)}"
            )
        return self.constant + sum(
            (c * p for c, p in zip(self.coeffs, point)), _F0
        )

    def __add__(self, other: "AffineForm") -> "AffineForm":
        if len(other.coeffs) != len(self.coeffs):
            raise DomainError("arity mismatch in form addition")
        return AffineForm(
            self.constant + other.constant,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + other.negated()

    def negated(self) -> "AffineForm":
        return AffineForm(-self.constant, tuple(-c for c in self.coeffs))

    def shifted(self, delta: Rational) -> "AffineForm":
        return AffineForm(self.constant + Fraction(delta), self.coeffs)

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Exact (min, max) of the form over the whole unit cube."""
        lo = self.constant + sum((c for c in self.coeffs if c < 0), _F0)
        hi = self.constant + sum((c for c in self.coeffs if c > 0), _F0)
        return lo, hi

    def halfspace(self) -> tuple[tuple[int, ...], Fraction]:
        """(d, beta) with d the primitive integer direction such
        that {self <= 0} equals {d.x <= beta}.  Requires a non-constant
        form (positive rescaling preserves the half-space)."""
        scale = Fraction(lcm(*(c.denominator for c in self.coeffs)))
        ints = [int(c * scale) for c in self.coeffs]
        g = gcd(*ints)
        if g == 0:
            raise DomainError("constant form has no direction")
        lam = Fraction(g, 1) / scale  # positive
        return tuple(v // g for v in ints), -self.constant / lam

    def canonical(self) -> tuple["AffineForm", bool]:
        """Primitive integer representative with positive leading entry.

        Returns (canonical form, flipped); ``flipped`` is True when the
        representative is a negative multiple of this form.  The zero
        form canonicalizes to itself.
        """
        entries = (self.constant, *self.coeffs)
        if not any(entries):
            return self, False
        scale = Fraction(lcm(*(e.denominator for e in entries)))
        ints = [int(e * scale) for e in entries]
        g = gcd(*ints)
        ints = [v // g for v in ints]
        # Sign convention: first nonzero coefficient positive; for
        # constant forms, positive constant.
        leader = next((v for v in ints[1:] if v), ints[0])
        flipped = leader < 0
        if flipped:
            ints = [-v for v in ints]
        canon = AffineForm(
            Fraction(ints[0]), tuple(Fraction(v) for v in ints[1:])
        )
        return canon, flipped


def affine(constant: Rational, coeffs: Iterable[Rational]) -> AffineForm:
    return AffineForm(_as_fraction(constant), tuple(_as_fraction(c) for c in coeffs))


def dedup_canonical_forms(forms: Iterable[AffineForm]) -> list[AffineForm]:
    """Drop constant forms and positive-scale/sign duplicates, keeping the
    first occurrence's canonical representative."""
    out: list[AffineForm] = []
    seen: set[AffineForm] = set()
    for g in forms:
        if g.is_constant:
            continue
        canon, _ = g.canonical()
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def unit_form(arity: int, index: int) -> AffineForm:
    """The coordinate form x_index (1-based)."""
    if not 1 <= index <= arity:
        raise DomainError(f"variable index {index} outside 1..{arity}")
    return AffineForm(_F0, tuple(_F1 if i == index - 1 else _F0 for i in range(arity)))


def const_form(arity: int, value: Rational) -> AffineForm:
    return AffineForm(_as_fraction(value), (_F0,) * arity)


Halfspace = tuple[tuple[int, ...], Fraction]


@dataclass(frozen=True)
class Polytope:
    """Intersection of half-spaces ``(d, beta)``, meaning ``d.x <= beta``,
    with the unit cube.

    ``d`` is a primitive integer direction with one half-space each (the
    tightest), in first-occurrence order; a violated constant constraint
    is the zero direction with ``beta < 0``.  Build polytopes with
    ``cube(n).with_constraints(forms)``.
    """

    arity: int
    constraints: tuple[Halfspace, ...] = ()

    def __post_init__(self):
        for d, _ in self.constraints:
            if len(d) != self.arity:
                raise DomainError("constraint arity mismatch")

    def with_constraints(self, extra: Iterable[AffineForm]) -> "Polytope":
        """Extend by further ``form <= 0`` constraints.  Only the new forms
        are normalized; a parallel half-space keeps the tightest offset,
        which keeps LP row counts and rational magnitudes small when
        constraints pile up during recursive splitting."""
        tightest = dict(self.constraints)
        for g in extra:
            if g.is_constant:
                if g.constant <= 0:
                    continue  # vacuous
                d, beta = (0,) * self.arity, -g.constant
            else:
                d, beta = g.halfspace()
            if d not in tightest or beta < tightest[d]:
                tightest[d] = beta
        return Polytope(self.arity, tuple(tightest.items()))

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.arity:
            raise DomainError("point arity mismatch")
        if any(p < 0 or p > 1 for p in point):
            return False
        return all(sum(map(mul, d, point)) <= beta for d, beta in self.constraints)


def cube(arity: int) -> Polytope:
    if not isinstance(arity, int) or arity < 1:
        raise DomainError(f"arity must be an integer >= 1, got {arity!r}")
    return Polytope(arity)


@dataclass(frozen=True)
class LpResult:
    optimum: Fraction
    witness: tuple[Fraction, ...]


# Results of lp_optimize/interior_point are deterministic, so caching is
# transparent; the same small cells are re-queried many times during
# adaptive comparisons.
_LP_CACHE: dict = {}
_INTERIOR_CACHE: dict = {}
_CACHE_LIMIT = 400_000


def _cache_put(cache: dict, key, value):
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    cache[key] = value


def lp_optimize(
    objective: AffineForm, polytope: Polytope, sense: str = "max"
) -> LpResult | None:
    """Exact optimum of an affine objective over ``polytope`` intersected
    with the unit cube; None when infeasible.

    Deterministic: two-phase simplex on a fraction-free integer tableau
    with Bland's rule and fixed variable order, so repeated calls give
    identical witnesses.  Unboundedness cannot occur (the cube is
    bounded).
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    if objective.arity != polytope.arity:
        raise DomainError("objective arity does not match polytope arity")
    key = (objective, polytope, sense)
    hit = _LP_CACHE.get(key)
    if hit is not None or key in _LP_CACHE:
        return hit

    n = polytope.arity
    rows = _kernel_rows(polytope, ())
    result: LpResult | None = None
    if rows is not None:
        coeffs = list(objective.coeffs)
        if sense == "min":
            coeffs = [-c for c in coeffs]
        x = _simplex_max(coeffs, rows + _cube_rows(n), n)
        if x is not None:
            result = LpResult(objective.evaluate(x), x)
    _cache_put(_LP_CACHE, key, result)
    return result


def _kernel_rows(polytope: Polytope, slack: tuple[int, ...]) -> list | None:
    """Kernel rows ``(d + slack, beta)`` of the half-spaces; None when one
    is a violated constant constraint (the polytope is empty, no LP)."""
    rows = []
    for d, beta in polytope.constraints:
        if not any(d) and beta < 0:
            return None
        rows.append((d + slack, beta))
    return rows


def _cube_rows(n: int) -> list:
    """The cube's upper bounds ``x_i <= 1`` as kernel rows."""
    return [([int(j == i) for j in range(n)], 1) for i in range(n)]


def _simplex_max(
    c: list[Fraction], rows: list[tuple[list[Fraction], Fraction]], n: int
) -> tuple[Fraction, ...] | None:
    """Maximize c.x subject to rows (a.x <= b) and x >= 0.

    Returns an optimal point or None when infeasible.  Assumes the
    feasible region is bounded.

    Two-phase simplex with fraction-free integer pivoting (Edmonds 1967;
    Bareiss 1968): a dictionary tableau of Python ints, one row per
    constraint over the nonbasic columns plus the right-hand side, all
    over one positive common denominator ``d``.  A pivot on ``p`` maps
    entries to ``(t*p - f*pr) // d``, an exact division.

    Variables are numbered structural ``0..n-1``, slack ``n..n+m-1``,
    then one artificial per row with negative right-hand side.  Entering
    is Bland's lowest index with negative reduced cost; the ratio test
    breaks ties by basis index.  Each row is scaled to integers by a
    positive ``s_i``, which scales its slack and artificial with it;
    neither the ratio argmin nor any reduced-cost sign changes, and the
    phase-1 artificial costs ``-L/s_i`` (``L`` the lcm of the ``s_i``)
    keep the unscaled objective.  The pivots, and so the witness, are
    those of the same simplex over rationals.
    """
    m = len(rows)
    table: list[list[int]] = []  # nonbasic columns, then the rhs
    basis: list[int] = []
    art_rows: list[tuple[int, int]] = []  # (row, scale)
    for i, (a, b) in enumerate(rows):
        s = lcm(b.denominator, *(v.denominator for v in a))
        row = [v.numerator * (s // v.denominator) for v in a]
        rhs = b.numerator * (s // b.denominator)
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            art_rows.append((i, s))
            basis.append(n + m + len(art_rows) - 1)
        else:
            basis.append(n + i)
        row.append(rhs)
        table.append(row)
    # Columns: structural, then the slack of each artificial row, whose
    # coefficient is -1 in its own row.
    cols = list(range(n)) + [n + i for i, _ in art_rows]
    n_art = len(art_rows)
    for row in table:
        row[n:n] = [0] * n_art
    for k, (r, _) in enumerate(art_rows):
        table[r][n + k] = -1
    d = 1

    def pivot(r: int, k: int, obj: list[int] | None):
        nonlocal d
        prow = table[r]
        p = prow[k]
        dd = d
        if p < 0:
            prow = [-v for v in prow]
            p = -p
            dd = -d
        for i, row in enumerate(table):
            if i != r:
                table[i] = _pivot_row(row, prow, k, p, d, dd)
        if obj is not None:
            obj = _pivot_row(obj, prow, k, p, d, dd)
        prow[k] = dd
        table[r] = prow
        cols[k], basis[r] = basis[r], cols[k]
        d = p
        return obj

    def optimize(obj: list[int]) -> list[int]:
        while True:
            enter = None
            for k, v in enumerate(obj[:-1]):
                if v < 0 and (enter is None or cols[k] < cols[enter]):
                    enter = k  # Bland: lowest variable index
            if enter is None:
                return obj
            best = -1
            for i, row in enumerate(table):
                a = row[enter]
                if a > 0:
                    if best < 0:
                        best, num, den = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                        best, num, den = i, row[-1], a
            if best < 0:
                raise RuntimeError("LP unbounded; impossible inside the cube")
            obj = pivot(best, enter, obj)

    if n_art:
        big = lcm(*(s for _, s in art_rows))
        obj = [0] * (n + n_art + 1)
        for r, s in art_rows:
            w = big // s  # maximize -(sum of unscaled artificials) * big
            obj = [o - w * v for o, v in zip(obj, table[r])]
        if optimize(obj)[-1] != 0:
            return None
        # Drive leftover artificials (basic at value 0) out of the basis.
        # Every row has its own slack column, so the rows have full rank
        # and such a row always has a nonzero structural or slack entry.
        for i in range(m):
            if basis[i] >= n + m:
                k = min(
                    (k for k, j in enumerate(cols) if j < n + m and table[i][k]),
                    key=cols.__getitem__,
                )
                pivot(i, k, None)
        # Phase 2 never lets an artificial enter: drop their columns.
        keep = [k for k, j in enumerate(cols) if j < n + m] + [len(cols)]
        cols = [cols[k] for k in keep[:-1]]
        table[:] = [[row[k] for k in keep] for row in table]

    scale = lcm(*(v.denominator for v in c))
    cost = [v.numerator * (scale // v.denominator) for v in c]
    # Phase-2 reduced costs, priced out for the current basis.
    obj = [-cost[j] * d if j < n else 0 for j in cols] + [0]
    for bv, row in zip(basis, table):
        if bv < n and cost[bv]:
            w = cost[bv]
            obj = [o + w * v for o, v in zip(obj, row)]
    optimize(obj)
    x = [_F0] * n
    for bv, row in zip(basis, table):
        if bv < n:
            x[bv] = Fraction(row[-1], d)
    return tuple(x)


def _pivot_row(
    row: list[int], prow: list[int], k: int, p: int, d: int, dd: int
) -> list[int]:
    """One non-pivot row after a pivot on column k; ``prow`` is the pivot
    row and ``p`` its pivot element, both sign-normalized so ``p > 0``,
    and ``dd`` is the old denominator ``d`` with the sign of the
    original pivot element."""
    f = row[k]
    if f:
        out = [(v * p - f * w) // d for v, w in zip(row, prow)]
        out[k] = -f if dd > 0 else f
        return out
    if p == d:
        return row
    return [v * p // d for v in row]


def is_feasible(polytope: Polytope) -> bool:
    return lp_optimize(const_form(polytope.arity, 0), polytope) is not None


def interior_point(polytope: Polytope) -> tuple[Fraction, ...] | None:
    """A point satisfying every constraint and every cube bound strictly,
    or None when no such point exists (empty or lower-dimensional body).

    Found by maximizing a uniform slack ``s`` subject to ``d.x + s <=
    beta``, ``s <= x_i`` and ``x_i + s <= 1``; deterministic, exact, and
    square-root free.
    """
    key = polytope
    if key in _INTERIOR_CACHE:
        return _INTERIOR_CACHE[key]
    n = polytope.arity
    rows = _kernel_rows(polytope, (1,))
    result: tuple[Fraction, ...] | None = None
    if rows is not None:
        for unit, _ in _cube_rows(n):
            rows.append(([-v for v in unit] + [1], 0))  # s <= x_i
            rows.append((unit + [1], 1))  # x_i + s <= 1
        x = _simplex_max([0] * n + [1], rows + _cube_rows(n + 1), n + 1)
        if x is not None and x[n] > 0:
            result = x[:n]
    _cache_put(_INTERIOR_CACHE, key, result)
    return result


def split_points(
    form: AffineForm,
    polytope: Polytope,
    point: tuple[Fraction, ...],
    value: Rational,
) -> tuple[tuple[Fraction, ...] | None, tuple[Fraction, ...] | None]:
    """Strictly interior points of the two sides ``form <= 0`` and
    ``form >= 0`` of ``polytope``, each None when that side has empty
    interior.

    ``point`` is strictly interior to the polytope and ``value`` is
    ``form`` at it.  A side that ``point`` is strictly on keeps it.  For
    another side one LP finds the vertex v where the form is least (or
    greatest); the side has interior exactly when v is strictly on it,
    and then it gets ``point + t (v - point)`` with ``t = (1 + t0) / 2``,
    where ``t0 = value / (value - form(v))`` is where the form vanishes
    on the segment.  That point is strictly on v's side, and strictly
    inside the polytope: a point strictly between an interior point and
    a point of a closed convex body is interior.
    """

    def toward(res: LpResult) -> tuple[Fraction, ...]:
        f = res.optimum
        t = (2 * value - f) / (2 * (value - f))
        return tuple(p + t * (v - p) for p, v in zip(point, res.witness))

    below = point if value < 0 else None
    above = point if value > 0 else None
    if value >= 0:
        res = lp_optimize(form, polytope, "min")
        if res.optimum < 0:
            below = toward(res)
    if value <= 0:
        res = lp_optimize(form, polytope)
        if res.optimum > 0:
            above = toward(res)
    return below, above


@dataclass(frozen=True)
class Cell:
    """One full-dimensional sign cell: ``signs[i]`` fixes the sign of the
    i-th input form; ``point`` is strictly interior to ``polytope``.

    ``polytope`` holds only the half-spaces of forms that cut the branch
    it was split from (and those of the ``within`` region); a form that
    has one sign on the branch adds none, so it is the sign cell's point
    set with fewer constraints.  ``point`` is the uniform-slack LP point
    of the root region, kept down every branch that contains it; a branch
    across a cut from its parent's point takes a point toward the LP
    vertex that proved the cut (`split_points`).
    """

    signs: tuple[str, ...]
    polytope: Polytope
    point: tuple[Fraction, ...]


# enumerate_cells output: lexicographic in sign vectors, "<=" before ">=".
CellDecomposition = list[Cell]


def enumerate_cells(
    forms: Sequence[AffineForm], arity: int, within: Polytope | None = None
) -> CellDecomposition:
    """All full-dimensional sign cells of a form family inside the cube
    (or inside ``within``), ordered lexicographically with ``<=`` before
    ``>=``.

    Forms must be pairwise distinct and non-constant.  The branching
    solves an interior-point LP only for the root region.  At each
    branch a form with one sign on the whole cube needs no LP; any other
    form is tested with one LP (two when it vanishes at the branch's
    point), whose vertex gives the far child its interior point
    (`split_points`).  A form that does not cut the branch adds no
    branch and no half-space, so each cell's polytope keeps only the
    half-spaces that cut, and each listed cell carries a strictly
    interior point.
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

    bounds = [g.bounds() for g in forms]
    cells: list[Cell] = []
    signs: list[str] = []

    def walk(idx: int, poly: Polytope, point):
        if idx == len(forms):
            cells.append(Cell(tuple(signs), poly, point))
            return
        g = forms[idx]
        lo, hi = bounds[idx]
        if hi <= 0:
            le_point, ge_point = point, None
        elif lo >= 0:
            le_point, ge_point = None, point
        else:
            le_point, ge_point = split_points(g, poly, point, g.evaluate(point))
        cut = le_point is not None and ge_point is not None
        if le_point is not None:
            signs.append(SIGN_LE)
            walk(idx + 1, poly.with_constraints((g,)) if cut else poly, le_point)
            signs.pop()
        if ge_point is not None:
            signs.append(SIGN_GE)
            walk(idx + 1, poly.with_constraints((g.negated(),)) if cut else poly, ge_point)
            signs.pop()

    root = interior_point(base)
    if root is not None:
        walk(0, base, root)
    return cells
