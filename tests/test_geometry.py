"""Exact LP, interior points, and cell enumeration."""

import random
from fractions import Fraction
from operator import mul

import pytest

import mvsynth as mv
from mvsynth import geometry
from conftest import brute_force_lp, grid_points, random_polytope, strictly_inside
from oracles import (
    enumerate_cells_lp,
    interior_lp_fraction,
    lp_rows_fraction,
    settle_forms,
    simplex_max_fraction,
)

F = Fraction


def test_affine_form_basics():
    g = mv.affine(-1, [2, 3])
    assert g.evaluate((F(1, 2), F(1, 3))) == 1
    assert (g - g).is_constant
    assert g.bounds() == (F(-1), F(4))
    assert g.negated().evaluate((F(0), F(0))) == 1
    with pytest.raises(mv.DomainError):
        mv.affine(0.5, [1])


def test_canonical_representatives():
    g = mv.affine(-2, [4])          # 4x - 2
    canon, flipped = g.canonical()
    assert canon == mv.affine(-1, [2]) and not flipped
    h = mv.affine(1, [-2])          # 1 - 2x == -(2x - 1)
    canon2, flipped2 = h.canonical()
    assert canon2 == canon and flipped2
    z = mv.affine(0, [0])
    assert z.canonical() == (z, False)


def test_dedup_canonical_forms():
    forms = [
        mv.affine(-1, [2]),
        mv.affine(-2, [4]),
        mv.affine(1, [-2]),
        mv.affine(3, [0]),   # constant: dropped
        mv.affine(0, [1]),
    ]
    out = mv.dedup_canonical_forms(forms)
    assert out == [mv.affine(-1, [2]), mv.affine(0, [1])]


def test_lp_cube_vertex():
    res = mv.lp_optimize(mv.affine(0, [1, 0]), mv.cube(2))
    assert res.optimum == 1
    assert res.witness[0] == 1


def test_lp_frozen_example():
    # maximize 2x - 1 subject to 3x - 1 <= 0: optimum -1/3 at x = 1/3.
    poly = mv.cube(1).with_constraints((mv.affine(-1, [3]),))
    objective = mv.affine(-1, [2])
    assert brute_force_lp(objective, poly) == F(-1, 3)
    res = mv.lp_optimize(objective, poly)
    assert res.optimum == F(-1, 3)
    assert res.witness == (F(1, 3),)


def test_lp_infeasible():
    poly = mv.cube(1).with_constraints((mv.affine(1, [1]),))  # x <= -1
    assert mv.lp_optimize(mv.affine(0, [1]), poly) is None
    assert not mv.is_feasible(poly)


def test_lp_constant_constraints():
    ok = mv.cube(1).with_constraints((mv.affine(-1, [0]),))   # -1 <= 0: vacuous
    assert mv.lp_optimize(mv.affine(0, [1]), ok).optimum == 1
    bad = mv.cube(1).with_constraints((mv.affine(1, [0]),))   # 1 <= 0: impossible
    assert mv.lp_optimize(mv.affine(0, [1]), bad) is None


def test_lp_minimization():
    poly = mv.cube(2).with_constraints((mv.affine(-1, [1, 1]).negated(),))  # x + y >= 1
    res = mv.lp_optimize(mv.affine(0, [1, 1]), poly, "min")
    assert res.optimum == 1


def test_lp_matches_brute_force_oracle():
    rng = random.Random(1234)
    checked = 0
    for _ in range(120):
        arity = rng.choice([1, 2])
        poly = random_polytope(rng, arity)
        objective = mv.AffineForm(
            F(rng.randint(-3, 3)), tuple(F(rng.randint(-3, 3)) for _ in range(arity))
        )
        sense = rng.choice(["max", "min"])
        expected = brute_force_lp(objective, poly, sense)
        got = mv.lp_optimize(objective, poly, sense)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.optimum == expected
            assert poly.contains(got.witness)
            assert objective.evaluate(got.witness) == expected
            checked += 1
    assert checked > 40


def test_interior_point_cube():
    pt = mv.interior_point(mv.cube(1))
    assert 0 < pt[0] < 1


def test_interior_point_strict():
    poly = mv.cube(2).with_constraints((mv.affine(0, [1, -1]),))  # x1 <= x2
    pt = mv.interior_point(poly)
    assert pt[0] < pt[1]
    assert 0 < pt[0] < 1 and 0 < pt[1] < 1


def test_interior_point_empty():
    poly = mv.cube(1).with_constraints((mv.affine(0, [1]), mv.affine(0, [-1])))  # x = 0
    assert mv.interior_point(poly) is None
    assert mv.interior_point(mv.cube(1).with_constraints((mv.affine(1, [1]),))) is None


def test_enumerate_cells_single_form():
    cells = mv.enumerate_cells([mv.affine(-1, [2])], 1)
    assert [c.signs for c in cells] == [("<=",), (">=",)]
    assert cells[0].point[0] < F(1, 2) < cells[1].point[0]


def test_enumerate_cells_diagonal():
    cells = mv.enumerate_cells([mv.affine(0, [1, -1])], 2)
    assert [c.signs for c in cells] == [("<=",), (">=",)]


def test_enumerate_cells_two_breakpoints():
    # {2x-1, 3x-1}: brute-force over sign vectors says 3 nonempty cells.
    forms = [mv.affine(-1, [2]), mv.affine(-1, [3])]
    expected = []
    for s1 in ("<=", ">="):
        for s2 in ("<=", ">="):
            constrs = tuple(
                g if s == "<=" else g.negated()
                for g, s in zip(forms, (s1, s2))
            )
            if mv.interior_point(mv.cube(1).with_constraints(constrs)) is not None:
                expected.append((s1, s2))
    cells = mv.enumerate_cells(forms, 1)
    assert [c.signs for c in cells] == expected
    assert len(cells) == 3
    # breakpoints 1/3 and 1/2
    assert cells[0].point[0] < F(1, 3)
    assert F(1, 3) < cells[1].point[0] < F(1, 2)
    assert cells[2].point[0] > F(1, 2)


def test_enumerate_cells_rejects_bad_forms():
    with pytest.raises(ValueError):
        mv.enumerate_cells([mv.affine(1, [0])], 1)
    g = mv.affine(-1, [2])
    with pytest.raises(ValueError):
        mv.enumerate_cells([g, g], 1)


def test_enumerate_cells_within_region():
    region = mv.cube(1).with_constraints((mv.affine(-1, [2]),))  # x <= 1/2
    cells = mv.enumerate_cells([mv.affine(-1, [3])], 1, within=region)
    assert [c.signs for c in cells] == [("<=",), (">=",)]
    for cell in cells:
        assert cell.point[0] < F(1, 2)


def test_cells_cover_grid_and_signs_strict():
    rng = random.Random(99)
    for _ in range(18):
        arity = rng.choice([1, 2, 3])
        raw = [
            mv.AffineForm(
                F(rng.randint(-2, 2)),
                tuple(F(rng.randint(-2, 2)) for _ in range(arity)),
            )
            for _ in range(rng.randint(1, 3))
        ]
        forms = mv.dedup_canonical_forms(raw)
        if not forms:
            continue
        cells = mv.enumerate_cells(forms, arity)
        for point in grid_points(arity, 8):
            assert any(c.polytope.contains(point) for c in cells)
        for cell in cells:
            assert strictly_inside(cell.polytope, cell.point)
            for g, s in zip(forms, cell.signs):
                v = g.evaluate(cell.point)
                assert v < 0 if s == "<=" else v > 0


def _reference_family(rng: random.Random, arity: int, within) -> list:
    """A family mixing one-signed forms (some touching 0 on the cube's
    boundary), forms that vanish at the point of the branch they are
    tested on, and general forms."""
    forms: list = []
    for _ in range(rng.randint(2, 5 if arity < 4 else 4)):
        coeffs = [rng.randint(-3, 3) for _ in range(arity)]
        if not any(coeffs):
            continue
        kind = rng.random()
        if kind < 0.3:
            # lo >= 0 or hi <= 0 over the cube, often with equality.
            slack = rng.choice([0, 0, 1])
            if rng.random() < 0.5:
                constant = -sum(c for c in coeffs if c < 0) + slack
            else:
                constant = -sum(c for c in coeffs if c > 0) - slack
        elif kind < 0.65:
            # The next form is tested at each branch point of the family so
            # far, which is that family's cell point: vanish at one of them.
            cells = mv.enumerate_cells(forms, arity, within)
            if not cells:
                continue
            point = rng.choice(cells).point
            constant = -sum(map(mul, coeffs, point))
        else:
            constant = F(rng.randint(-4, 4), rng.randint(1, 3))
        forms = mv.dedup_canonical_forms(forms + [mv.affine(constant, coeffs)])
    return forms


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_enumerate_cells_matches_lp_reference(arity):
    # Same sign vectors in the same order as the enumeration that solves an
    # interior-point LP per branch; each point strictly inside both cells,
    # and the cell's polytope keeps only the half-spaces that cut.
    rng = random.Random(4400 + arity)
    cells_seen = fewer = vanishing = one_signed = 0
    for _ in range(40):
        within = random_polytope(rng, arity, 2) if rng.random() < 0.3 else None
        forms = _reference_family(rng, arity, within)
        if not forms:
            continue
        got = mv.enumerate_cells(forms, arity, within)
        want = enumerate_cells_lp(forms, arity, within)
        assert [c.signs for c in got] == [c.signs for c in want]
        for new, ref in zip(got, want):
            assert strictly_inside(new.polytope, new.point)
            assert strictly_inside(ref.polytope, new.point)
            assert strictly_inside(new.polytope, ref.point)
            fewer += len(new.polytope.constraints) < len(ref.polytope.constraints)
        for i, g in enumerate(forms):
            lo, hi = g.bounds()
            one_signed += lo >= 0 or hi <= 0
            prefix = mv.enumerate_cells(forms[:i], arity, within)
            vanishing += any(g.evaluate(c.point) == 0 for c in prefix)
        cells_seen += len(got)
    assert cells_seen > 80 and fewer > 30 and vanishing > 5 and one_signed > 5


def test_determinism():
    forms = [mv.affine(-1, [2, 1]), mv.affine(0, [1, -1])]
    first = mv.enumerate_cells(forms, 2)
    second = mv.enumerate_cells(forms, 2)
    assert first == second
    obj = mv.affine(0, [1, 1])
    poly = mv.cube(2).with_constraints((forms[0],))
    assert mv.lp_optimize(obj, poly) == mv.lp_optimize(obj, poly)
    assert mv.interior_point(poly) == mv.interior_point(poly)


def _chain_step(rng: random.Random, arity: int, added: list) -> list:
    """One to three new forms: fresh ones with rational offsets, parallel
    copies (positively rescaled, shifted) and flips of earlier ones, and
    now and then a vacuous or violated constant."""
    out = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if added and kind < 0.3:
            g = rng.choice(added)
            scale = F(rng.randint(1, 4), rng.randint(1, 3))
            g = mv.AffineForm(g.constant * scale, tuple(c * scale for c in g.coeffs))
            out.append(g.shifted(F(rng.randint(-2, 2), rng.randint(1, 4))))
        elif added and kind < 0.45:
            out.append(rng.choice(added).negated())
        elif kind < 0.5:
            out.append(mv.const_form(arity, F(-rng.randint(0, 3), rng.randint(1, 3))))
        elif kind < 0.53:
            out.append(mv.const_form(arity, F(rng.randint(1, 3), rng.randint(1, 3))))
        else:
            coeffs = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(arity))
            out.append(mv.AffineForm(F(rng.randint(-4, 4), rng.randint(1, 4)), coeffs))
    return out


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_halfspace_polytopes_match_form_reference(arity, monkeypatch):
    # Polytopes grown by with_constraints hand the LP kernel the rows that
    # the same chain of AffineForm constraints gave, in the same order,
    # and get the same witnesses; contains agrees with the forms.
    calls = []
    kernel = geometry._simplex_max

    def record(c, rows, n):
        calls.append((list(c), [(tuple(a), b) for a, b in rows], n))
        return kernel(c, rows, n)

    def expected_call(call):
        if call is None:
            return []
        c, rows, n = call
        return [(c, [(tuple(a), b) for a, b in rows], n)]

    monkeypatch.setattr(geometry, "_simplex_max", record)
    rng = random.Random(8100 + arity)
    points = grid_points(arity, 4 if arity < 3 else 2)
    lps = empties = 0
    for _ in range(30 if arity < 3 else 15):
        poly, forms, added = mv.cube(arity), (), []
        for _ in range(rng.randint(1, 5)):
            extra = _chain_step(rng, arity, added)
            added += extra
            poly = poly.with_constraints(extra)
            forms = settle_forms(forms, extra)
            for point in points:
                inside = all(g.evaluate(point) <= 0 for g in added)
                assert poly.contains(point) == inside
            objective = mv.AffineForm(
                F(rng.randint(-2, 2)),
                tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(arity)),
            )
            for sense in ("max", "min"):
                geometry._LP_CACHE.clear()
                calls.clear()
                got = mv.lp_optimize(objective, poly, sense)
                rows = lp_rows_fraction(arity, forms)
                c = list(objective.coeffs)
                if sense == "min":
                    c = [-v for v in c]
                call = None if rows is None else (c, rows, arity)
                assert calls == expected_call(call)
                x = None if call is None else simplex_max_fraction(*call)
                want = None if x is None else mv.LpResult(objective.evaluate(x), x)
                assert got == want
                lps += rows is not None
            geometry._INTERIOR_CACHE.clear()
            calls.clear()
            got = mv.interior_point(poly)
            call = interior_lp_fraction(arity, forms)
            assert calls == expected_call(call)
            x = None if call is None else simplex_max_fraction(*call)
            assert got == (x[:arity] if x is not None and x[arity] > 0 else None)
            empties += got is None
    assert lps > 50 and empties > 5
