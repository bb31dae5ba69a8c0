"""The fraction-free LP kernel: identical witnesses to the Fraction oracle,
optima confirmed by an independent solver beyond arity 2."""

import random
from fractions import Fraction

import pytest

import mvsynth as mv
from mvsynth import geometry
from conftest import random_polytope
from oracles import simplex_max_fraction

F = Fraction


def random_lp(rng: random.Random, n: int):
    """(c, rows, n) in the kernel's input shape: random rows drawn tight or
    near-tight at a random grid point (so degenerate vertices and both
    feasible and infeasible systems occur), then the cube's upper bounds
    x_i <= 1 as lp_optimize appends them."""
    point = [F(rng.randint(0, 4), 4) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(0, 8)):
        a = [F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n)]
        value = sum((x * p for x, p in zip(a, point)), F(0))
        rows.append((a, value + F(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 4))))
    if rows and rng.random() < 0.3:  # a repeated row
        rows.insert(rng.randrange(len(rows)), rows[rng.randrange(len(rows))])
    for i in range(n):
        rows.append(([F(int(j == i)) for j in range(n)], F(1)))
    c = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    return c, rows, n


@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_kernel_matches_oracle_on_random_lps(arity):
    rng = random.Random(7000 + arity)
    feasible = infeasible = 0
    for _ in range(150):
        c, rows, n = random_lp(rng, arity)
        got = geometry._simplex_max(c, rows, n)
        assert got == simplex_max_fraction(c, rows, n)
        if got is None:
            infeasible += 1
        else:
            feasible += 1
    assert feasible > 30 and infeasible > 10


def test_kernel_matches_oracle_on_interior_point_lps(monkeypatch):
    # interior_point solves an (n+1)-variable program: the uniform slack
    # s is the last variable, with rows g + s <= 0, s <= x_i, x_i + s <= 1.
    recorded = []
    kernel = geometry._simplex_max

    def record(c, rows, n):
        recorded.append((list(c), [(list(a), b) for a, b in rows], n))
        return kernel(c, rows, n)

    monkeypatch.setattr(geometry, "_simplex_max", record)
    rng = random.Random(4242)
    for _ in range(120):
        arity = rng.randint(1, 4)
        mv.interior_point(random_polytope(rng, arity))
    assert len(recorded) > 80
    assert {n for _, _, n in recorded} == {2, 3, 4, 5}
    for c, rows, n in recorded:
        assert c == [F(0)] * (n - 1) + [F(1)]
        assert kernel(c, rows, n) == simplex_max_fraction(c, rows, n)


def test_kernel_infeasible_systems():
    # x >= 1/2 and x <= 1/3
    c, rows = [F(1)], [([F(-1)], F(-1, 2)), ([F(1)], F(1, 3)), ([F(1)], F(1))]
    assert geometry._simplex_max(c, rows, 1) is None
    assert simplex_max_fraction(c, rows, 1) is None
    # x1 + x2 + x3 >= 4 inside the cube
    rows3 = [([F(-1)] * 3, F(-4))] + [
        ([F(int(j == i)) for j in range(3)], F(1)) for i in range(3)
    ]
    assert geometry._simplex_max([F(1)] * 3, rows3, 3) is None
    assert simplex_max_fraction([F(1)] * 3, rows3, 3) is None


def test_kernel_redundant_row_drives_out_artificials_left_at_zero():
    # x >= 1 twice (-x <= -1, -2x <= -2) and x <= 1.  A three-way ratio
    # tie puts x in the x <= 1 row, so phase 1 ends with both artificials
    # still basic at value 0; the drive-out has to pivot each away.
    c = [F(0)]
    rows = [([F(-1)], F(-1)), ([F(-2)], F(-2)), ([F(1)], F(1))]
    assert geometry._simplex_max(c, rows, 1) == (F(1),)
    assert simplex_max_fraction(c, rows, 1) == (F(1),)


def test_kernel_negative_drive_out_pivot(monkeypatch):
    # -2x <= -2 and x <= 1: the ratio tie goes to the slack of x <= 1
    # (lower basis index), so the artificial stays basic at 0 and the
    # drive-out pivots on its slack's coefficient -1.  The kernel has to
    # flip the signs of that pivot to keep its denominator positive.
    pivots = []
    pivot_row = geometry._pivot_row

    def record(row, prow, k, p, d, dd):
        pivots.append(dd < 0)
        return pivot_row(row, prow, k, p, d, dd)

    monkeypatch.setattr(geometry, "_pivot_row", record)
    c, rows = [F(0)], [([F(-2)], F(-2)), ([F(1)], F(1))]
    assert geometry._simplex_max(c, rows, 1) == (F(1),)
    assert simplex_max_fraction(c, rows, 1) == (F(1),)
    assert any(pivots)


def test_kernel_degenerate_ratio_tie_follows_basis_index():
    # max y with x + 2y >= 1, x <= 1, y <= 1.  Both (1, 1) and (0, 1) are
    # optimal; the ratio test ties, and breaking it by the lower basis
    # index leads to (1, 1).
    c = [F(0), F(1)]
    rows = [([F(-1), F(-2)], F(-1)), ([F(1), F(0)], F(1)), ([F(0), F(1)], F(1))]
    assert geometry._simplex_max(c, rows, 2) == (F(1), F(1))
    assert simplex_max_fraction(c, rows, 2) == (F(1), F(1))


def polytope_around(rng: random.Random, arity: int, point):
    """Random constraints satisfied at ``point``, often tightly, so the
    polytope is feasible by construction and often degenerate there."""
    forms = []
    for _ in range(rng.randint(1, 6)):
        coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(arity))
        value = mv.AffineForm(F(0), coeffs).evaluate(point)
        slack = F(rng.choice([0, 0, 1, 2]), rng.randint(1, 3))
        forms.append(mv.AffineForm(-value - slack, coeffs))
    return mv.cube(arity).with_constraints(forms)


@pytest.mark.parametrize("arity", [3, 4, 5])
def test_lp_optimum_matches_sympy(arity):
    # sympy 1.14's simplex is exact, but on some infeasible systems it
    # returns a point that violates a constraint, so it only judges
    # polytopes that are feasible by construction here.
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import lpmax, lpmin

    xs = sympy.symbols(f"x1:{arity + 1}")

    def linear(form):
        return sympy.Rational(form.constant.numerator, form.constant.denominator) + sum(
            sympy.Rational(c.numerator, c.denominator) * x
            for c, x in zip(form.coeffs, xs)
        )

    rng = random.Random(3300 + arity)
    for _ in range(16):
        point = tuple(F(rng.randint(0, 6), 6) for _ in range(arity))
        poly = polytope_around(rng, arity, point)
        objective = mv.AffineForm(
            F(rng.randint(-3, 3)), tuple(F(rng.randint(-3, 3)) for _ in range(arity))
        )
        sense = rng.choice(["max", "min"])
        constraints = [
            linear(mv.affine(-beta, d)) <= 0 for d, beta in poly.constraints
        ]
        constraints += [x >= 0 for x in xs] + [x <= 1 for x in xs]
        solve = lpmax if sense == "max" else lpmin
        value, _ = solve(linear(objective), constraints)
        got = mv.lp_optimize(objective, poly, sense)
        assert got is not None
        assert got.optimum == F(int(value.p), int(value.q))
        assert poly.contains(got.witness)
        assert objective.evaluate(got.witness) == got.optimum


@pytest.mark.parametrize("arity", [3, 4, 5])
def test_lp_infeasible_beyond_arity_2(arity):
    # g <= 0 together with g >= delta > 0 is empty whatever else holds.
    rng = random.Random(5500 + arity)
    for _ in range(20):
        poly = random_polytope(rng, arity)
        g = mv.AffineForm(
            F(rng.randint(-3, 3), rng.randint(1, 3)),
            tuple(F(rng.randint(-3, 3)) for _ in range(arity)),
        )
        delta = F(1, rng.randint(1, 5))
        empty = poly.with_constraints((g, g.negated().shifted(delta)))
        for sense in ("max", "min"):
            assert mv.lp_optimize(mv.unit_form(arity, 1), empty, sense) is None
        assert mv.interior_point(empty) is None
