"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every check is exact (rational arithmetic, no tolerances).
One further test reuses the synthesized corpus to hold the decision
procedure to its Fraction reference.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

import mvsynth as mv
from conftest import (
    brute_force_lp,
    build_corpus,
    curated_corpus,
    description_to_json,
    farey_values,
    grid_points,
    membership_heavy_description,
    random_point,
    random_polytope,
    random_pwl_pair,
)
from oracles import decide_leq, function_eq_fraction, function_leq_fraction

F = Fraction
CAP = 65536


def _report(number: int, label: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {number} ({label}): {status}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def corpus():
    entries = build_corpus()
    entries.append(("membership-heavy", membership_heavy_description()))
    assert len(entries) >= 30
    return entries


@pytest.fixture(scope="module")
def synthesized(corpus):
    results = []
    for name, description in corpus:
        trace = mv.SynthesisTrace()
        crt_term = mv.synthesize_crt(description, trace=trace)
        direct_term = mv.synthesize_direct(description)
        results.append((name, description, crt_term, direct_term, trace))
    return results


def test_criterion_1_linear_term_exhaustive():
    failures = []
    for arity in (1, 2):
        for combo in product(range(-3, 4), repeat=arity + 1):
            g = mv.affine(combo[0], list(combo[1:]))
            term = mv.linear_term(g)  # certifies internally as well
            verdict = mv.function_eq(term, mv.truncate_affine(g), arity)
            if not verdict:
                failures.append((combo, verdict.witness))
    _report(1, "linear-term exhaustive certification", failures)


def test_criterion_2_synthesis_corpus(synthesized):
    failures = []
    if len(synthesized) < 30:
        failures.append(("corpus too small", len(synthesized)))
    for name, description, crt_term, direct_term, _ in synthesized:
        arity = mv.pwl_arity(description)
        crt_ok = mv.function_eq(crt_term, description, arity)
        direct_ok = mv.function_eq(direct_term, description, arity)
        cross_ok = mv.function_eq(crt_term, direct_term, arity)
        if not (crt_ok and direct_ok and cross_ok):
            failures.append((name, bool(crt_ok), bool(direct_ok), bool(cross_ok)))
    _report(2, "end-to-end synthesis corpus", failures)


def test_final_certificate_matches_fraction_oracle(synthesized):
    """The integer decision procedure certifies every corpus output with
    the decisions of the Fraction reference, and compares it with the
    constant 1/2 (a common denominator of 2) with the same verdicts and
    witnesses."""
    for name, description, crt_term, _, _ in synthesized:
        arity = mv.pwl_arity(description)
        certificate = mv.function_eq(crt_term, description, arity)
        assert certificate == function_eq_fraction(crt_term, description, arity), name
        assert certificate, name
        half = mv.leaf(mv.const_form(arity, F(1, 2)))
        for lhs, rhs in ((crt_term, half), (half, crt_term)):
            verdict = mv.function_leq(lhs, rhs, arity)
            assert verdict == function_leq_fraction(lhs, rhs, arity), name


def test_criterion_3_gluing_congruences(synthesized):
    failures = []
    total_records = 0
    for name, _, _, _, trace in synthesized:
        for record in trace.combines:
            total_records += 1
            if max(record.bound_left, record.bound_right) > CAP:
                failures.append((name, "bound exceeds cap"))
                continue
            try:
                m_left = mv.membership_bound(
                    mv.dist(record.result, record.left), record.left_ideal, CAP
                )
                m_right = mv.membership_bound(
                    mv.dist(record.result, record.right), record.right_ideal, CAP
                )
            except (mv.NotMemberError, mv.CapExceededError) as ex:
                failures.append((name, type(ex).__name__))
                continue
            if m_left > CAP or m_right > CAP:
                failures.append((name, "certified bound exceeds cap"))
    if total_records == 0:
        failures.append(("no gluing steps recorded",))

    # Worked 1D example: h1 = max(0, 2x-1), h2 = max(0, 1-2x); bounds are
    # exactly 1 and the glued function is |2x-1|.
    x = mv.var(1)
    h1 = mv.otimes(x, x)
    h2 = mv.neg(mv.oplus(x, x))
    ideal1 = mv.PrincipalIdeal(mv.ominus(h1, h2), 1)
    ideal2 = mv.PrincipalIdeal(mv.ominus(h2, h1), 1)
    trace = mv.SynthesisTrace()
    glued = mv.combine_pair(h2, h1, ideal1, ideal2, trace=trace)
    record = trace.combines[0]
    if (record.bound_left, record.bound_right) != (1, 1):
        failures.append(("worked example bounds", record.bound_left, record.bound_right))
    abs_expr = mv.max_of(
        [mv.leaf(mv.affine(-1, [2])), mv.leaf(mv.affine(1, [-2]))]
    )
    if not mv.function_eq(glued, abs_expr, 1):
        failures.append(("worked example function",))
    _report(3, "pairwise gluing congruences", failures)


def test_criterion_4_multi_ideal_gluing(synthesized):
    failures = []
    multi = 0
    for name, description, _, _, trace in synthesized:
        if len(trace.groups) < 3:
            continue
        multi += 1
        constituents = mv.pwl_leaves(description)
        pairs = [
            (mv.linear_term(constituents[g.selected - 1]), g.ideal)
            for g in trace.groups
        ]
        glued = mv.chinese_glue(pairs, CAP)
        for i, (term, ideal) in enumerate(pairs, start=1):
            try:
                mv.membership_bound(mv.dist(glued, term), ideal, CAP)
            except (mv.NotMemberError, mv.CapExceededError) as ex:
                failures.append((name, i, type(ex).__name__))
    if multi == 0:
        failures.append(("no corpus entry with >= 3 ideals",))

    # degenerate contracts
    x = mv.var(1)
    ideal = mv.PrincipalIdeal(mv.otimes(x, x), 1)
    if mv.chinese_glue([(x, ideal)]) is not x:
        failures.append(("single pair must return the term unchanged",))
    h1 = mv.otimes(x, x)
    h2 = mv.neg(mv.oplus(x, x))
    ideal1 = mv.PrincipalIdeal(mv.ominus(h1, h2), 1)
    ideal2 = mv.PrincipalIdeal(mv.ominus(h2, h1), 1)
    if mv.chinese_glue([(h2, ideal1), (h1, ideal2)]) is not mv.combine_pair(
        h2, h1, ideal1, ideal2
    ):
        failures.append(("two pairs must equal combine_pair",))
    _report(4, "multi-ideal gluing congruences", failures)


def test_criterion_5_mv_identities():
    failures = []
    x, y = mv.var(1), mv.var(2)
    residue = mv.ominus(x, y)          # a (-) b
    bound_term = mv.oplus(x, y)        # b (+) c
    identity = mv.oplus(mv.ominus(x, y), mv.wedge(x, y))

    values = farey_values(6)
    triples = [(a, b, c) for a in values for b in values for c in values]
    rng = random.Random(20240811)
    triples += [
        tuple(random_point(rng, 3, max_den=64)) for _ in range(10_000)
    ]
    for a, b, c in triples:
        if a <= mv.eval_term(bound_term, [b, c]):
            if mv.eval_term(residue, [a, b]) > c:
                failures.append(("residuation", a, b, c))
                break
    pairs = [(a, b) for a in values for b in values]
    pairs += [tuple(random_point(rng, 2, max_den=64)) for _ in range(10_000)]
    for a, b in pairs:
        if mv.eval_term(identity, [a, b]) != a:
            failures.append(("difference+meet identity", a, b))
            break
    _report(5, "exact MV identities", failures)


def test_criterion_6_geometry_oracles():
    failures = []
    rng = random.Random(424242)
    for i in range(200):
        arity = rng.choice([1, 2])
        poly = random_polytope(rng, arity)
        objective = mv.AffineForm(
            F(rng.randint(-3, 3)),
            tuple(F(rng.randint(-3, 3)) for _ in range(arity)),
        )
        sense = rng.choice(["max", "min"])
        expected = brute_force_lp(objective, poly, sense)
        got = mv.lp_optimize(objective, poly, sense)
        if expected is None:
            if got is not None:
                failures.append(("lp feasibility", i))
        elif got is None or got.optimum != expected or not poly.contains(got.witness):
            failures.append(("lp optimum", i))

    rng = random.Random(515151)
    for i in range(200):
        arity, lhs, rhs = random_pwl_pair(rng)
        verdict = mv.function_leq(lhs, rhs, arity)
        if bool(verdict) != bool(decide_leq(lhs, rhs)):
            failures.append(("disagrees with the arrangement oracle", i))
        if verdict:
            for p in grid_points(arity, 12):
                if mv.eval_pwl(lhs, p) > mv.eval_pwl(rhs, p):
                    failures.append(("grid violation on true verdict", i, p))
                    break
        else:
            w = verdict.witness
            if mv.eval_pwl(lhs, w) <= mv.eval_pwl(rhs, w):
                failures.append(("invalid witness", i, w))
    _report(6, "geometry oracle agreement", failures)


def test_criterion_7_cli_determinism(corpus, tmp_path):
    from mvsynth.cli import main

    failures = []
    for index, (name, description) in enumerate(corpus):
        doc = description_to_json(description)
        input_path = tmp_path / f"{index}.json"
        input_path.write_text(json.dumps(doc), encoding="utf-8")
        outputs = []
        for run in (1, 2):
            out_path = tmp_path / f"{index}-{run}.term"
            code = main(
                [
                    "synth",
                    "--input",
                    str(input_path),
                    "--output",
                    str(out_path),
                ]
            )
            if code != 0:
                failures.append((name, "exit", code))
                break
            outputs.append(out_path.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append((name, "outputs differ"))
    _report(7, "synthesis determinism", failures)
