"""Reference implementations that exist only to check the library.

``simplex_max_fraction`` is the dense two-phase simplex over ``Fraction``
that ``mvsynth.geometry`` used before its fraction-free integer kernel.
It takes the same arguments as ``mvsynth.geometry._simplex_max`` and,
pivoting with the same Bland rule and ratio tie-break on the same
variable numbering, must return the identical witness tuple.
"""

from __future__ import annotations

from fractions import Fraction

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
