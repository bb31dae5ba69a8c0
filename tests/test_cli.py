"""Command-line interface: exit codes, streams, determinism, round trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mvsynth as mv
from mvsynth.cli import build_parser, main
from conftest import description_to_json, multiplier_heavy_description

F = Fraction

ABS_JSON = {
    "vars": 1,
    "expr": {
        "max": [
            {"affine": {"constant": -1, "coeffs": [2]}},
            {"affine": {"constant": 1, "coeffs": [-2]}},
        ]
    },
}


@pytest.fixture()
def abs_file(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(ABS_JSON), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_success_and_determinism(capsys, abs_file):
    code, out, err = run(capsys, "synth", "--input", abs_file)
    assert code == 0
    assert out.endswith("\n")
    term = mv.parse_term(out)
    target = mv.max_of(
        [mv.leaf(mv.affine(-1, [2])), mv.leaf(mv.affine(1, [-2]))]
    )
    assert mv.function_eq(term, target, 1)
    code2, out2, err2 = run(capsys, "synth", "--input", abs_file)
    assert (code2, out2) == (0, out)


def test_synth_direct_mode(capsys, abs_file):
    code, out, _ = run(capsys, "synth", "--input", abs_file, "--mode", "direct")
    assert code == 0
    term = mv.parse_term(out)
    target = mv.max_of(
        [mv.leaf(mv.affine(-1, [2])), mv.leaf(mv.affine(1, [-2]))]
    )
    assert mv.function_eq(term, target, 1)


def test_synth_stats_on_stderr(capsys, abs_file):
    code, out, err = run(capsys, "synth", "--input", abs_file, "--stats", "--verify")
    assert code == 0
    assert "nodes=" in err and "oplus_depth=" in err
    assert "regions=2" in err
    assert "max_bound=1" in err
    assert "nodes=" not in out


def test_synth_output_file(capsys, abs_file, tmp_path):
    out_path = tmp_path / "result.term"
    code, out, _ = run(capsys, "synth", "--input", abs_file, "--output", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    mv.parse_term(text)


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_synth_unwritable_output_is_malformed(capsys, abs_file, tmp_path, where):
    target = tmp_path / "no" / "such" / "x.term" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "synth", "--input", abs_file, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output:")
    assert "Traceback" not in err


def test_internal_error_exits_5(capsys, abs_file, monkeypatch):
    import mvsynth.cli as cli

    def broken(*args, **kwargs):
        raise mv.CertificationError("final certificate failed")

    monkeypatch.setattr(cli, "synthesize_crt", broken)
    code, out, err = run(capsys, "synth", "--input", abs_file)
    assert code == 5
    assert out == ""
    assert err == "internal error: CertificationError: final certificate failed\n"


def test_synth_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "synth", "--input", str(bad))
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"vars": 1},
        {"vars": 0, "expr": {"affine": {"constant": 0, "coeffs": []}}},
        {"vars": 1, "expr": {"affine": {"constant": 0, "coeffs": [1]}}, "extra": 1},
        {"vars": 1, "expr": {"weird": []}},
        {"vars": 1, "expr": {"min": []}},
        {"vars": 1, "expr": {"affine": {"constant": 0.5, "coeffs": [1]}}},
        {"vars": 1, "expr": {"affine": {"constant": 0, "coeffs": [1, 2]}}},
        {"vars": 2, "expr": {"affine": {"constant": 0, "coeffs": [1]}}},
        {"vars": 1, "expr": {"affine": {"constant": True, "coeffs": [1]}}},
        {"vars": 1, "expr": {"min": [{"affine": {"constant": 0, "coeffs": [1]}}], "max": []}},
    ],
)
def test_synth_schema_violations(capsys, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "synth", "--input", str(path))
    assert code == 2
    assert out == "" and err


def test_synth_invalid_range_with_witness(capsys, tmp_path):
    doc = {"vars": 1, "expr": {"affine": {"constant": 0, "coeffs": [2]}}}
    path = tmp_path / "twox.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "synth", "--input", str(path))
    assert code == 3
    assert "witness" in err
    # the witness is a point where 2x exceeds 1
    point = err.rsplit("witness ", 1)[1].rstrip(")\n")
    assert 2 * F(point) > 1


def test_synth_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "synth", "--input", str(tmp_path / "nope.json"))
    assert code == 2


def test_synth_cap_exceeded(capsys, tmp_path):
    # this description needs a membership multiplier of 2, so a cap of 1
    # aborts the search and the default cap glues it
    doc = description_to_json(multiplier_heavy_description())
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "synth", "--input", str(path), "--cap", "1")
    assert code == 4
    assert "cap" in err
    code, out, err = run(capsys, "synth", "--input", str(path), "--stats")
    assert code == 0 and out
    assert "max_bound=2" in err


def _clamp_json(constant: int, coeffs: list[int]) -> dict:
    zero = {"affine": {"constant": 0, "coeffs": [0] * len(coeffs)}}
    one = {"affine": {"constant": 1, "coeffs": [0] * len(coeffs)}}
    body = {"affine": {"constant": constant, "coeffs": coeffs}}
    return {"vars": len(coeffs), "expr": {"min": [{"max": [body, zero]}, one]}}


def _synth_subprocess(tmp_path, doc: dict) -> subprocess.CompletedProcess:
    # A separate process with a timeout: a term printed in full would
    # take minutes and gigabytes.
    path = tmp_path / "clamp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = Path(mv.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "mvsynth.cli", "synth", "--input", str(path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=30,
    )


def test_synth_large_coefficients_print(tmp_path):
    result = _synth_subprocess(tmp_path, _clamp_json(-15, [30]))
    assert result.returncode == 0 and result.stderr == ""
    assert mv.term_node_count(mv.parse_term(result.stdout)) == 594


def test_synth_refuses_a_term_too_large_to_print(tmp_path):
    # clamp(x + 2*10^12 y - 10^12) is a DAG of about 200 nodes whose tree
    # has about 4*10^16: synth exits 4 before printing anything.
    result = _synth_subprocess(tmp_path, _clamp_json(-(10**12), [1, 2 * 10**12]))
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "tree nodes" in result.stderr


def test_synth_tree_limit_is_inclusive(capsys, abs_file, monkeypatch):
    import mvsynth.cli as cli

    code, out, _ = run(capsys, "synth", "--input", abs_file)
    nodes = mv.term_node_count(mv.parse_term(out))
    monkeypatch.setattr(cli, "MAX_TREE_NODES", nodes)
    assert run(capsys, "synth", "--input", abs_file) == (0, out, "")
    monkeypatch.setattr(cli, "MAX_TREE_NODES", nodes - 1)
    code, out, err = run(capsys, "synth", "--input", abs_file)
    assert (code, out) == (4, "")
    assert err == f"error: the term has {nodes} tree nodes, more than the {nodes - 1} that synth prints\n"


ONE_GROUP_JSON = {"vars": 1, "expr": {"affine": {"constant": 0, "coeffs": [1]}}}


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("doc", [ONE_GROUP_JSON, ABS_JSON], ids=["one-group", "two-group"])
def test_synth_cap_below_one_is_malformed(capsys, tmp_path, doc, cap):
    # The one-group input never reaches a membership search, so only an
    # up-front check rejects its cap.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "synth", "--input", str(path), "--cap", cap)
    assert code == 2
    assert out == "" and "--cap" in err


NOT_UTF8 = b"\xff\xfe(var 1)"


def test_synth_not_utf8_is_malformed(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "synth", "--input", str(path))
    assert code == 2
    assert out == "" and "error:" in err


def _write_deep_description(path, depth=600):
    # Written as text: json.dump cannot encode this depth either.
    leaf = '{"affine": {"constant": 0, "coeffs": [1]}}'
    path.write_text(
        '{"vars": 1, "expr": ' + '{"min": [' * depth + leaf + "]}" * depth + "}",
        encoding="utf-8",
    )


def test_synth_deeply_nested_is_malformed(capsys, tmp_path):
    path = tmp_path / "deep.json"
    _write_deep_description(path)
    code, out, err = run(capsys, "synth", "--input", str(path))
    assert code == 2
    assert out == "" and "nested too deeply" in err


def test_eval_not_utf8_is_malformed(capsys, tmp_path):
    path = tmp_path / "t.term"
    path.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "eval", "--term", str(path), "--point", "0")
    assert code == 2
    assert out == "" and "error:" in err


@pytest.fixture()
def sum_term(tmp_path):
    path = tmp_path / "sum.term"
    path.write_text("(oplus (var 1) (var 2))", encoding="utf-8")
    return str(path)


def test_eval_examples(capsys, tmp_path, sum_term):
    term_path = tmp_path / "t.term"
    term_path.write_text("(oplus (var 1) (var 1))", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--term", str(term_path), "--point", "1/3")
    assert (code, out) == (0, "2/3\n")
    code, out, err = run(capsys, "eval", "--term", str(term_path), "--point", "3/2")
    assert code == 3
    neg_path = tmp_path / "n.term"
    neg_path.write_text("(neg 0)", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--term", str(neg_path), "--point", "1/2")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "eval", "--term", sum_term, "--point", "0.5,1/8")
    assert (code, out) == (0, "5/8\n")


def test_eval_errors(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("(oplus (var 1)", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--term", str(bad), "--point", "0")
    assert code == 2
    ok = tmp_path / "ok.term"
    ok.write_text("(var 2)", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--term", str(ok), "--point", "1/2")
    assert code == 3  # arity mismatch
    code, _, err = run(capsys, "eval", "--term", str(ok), "--point", "a,b")
    assert code == 2


# In the cube, outside it, and in upper case: each is refused before
# Fraction would build 10**5000.
@pytest.mark.parametrize("point", ["1e-5000,0", "1e5000,0", "0,2.5E-1"])
def test_eval_exponent_notation_is_a_bad_point(capsys, sum_term, point):
    code, out, err = run(capsys, "eval", "--term", sum_term, "--point", point)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad point: exponent notation")
    assert err.count("\n") == 1


@pytest.fixture()
def default_int_digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_eval_value_too_long_to_print_is_malformed(capsys, sum_term, default_int_digit_limit):
    # Each coordinate prints, but their sum has a 4,401-digit denominator.
    big = 10**2200
    point = f"1/{big + 1},1/{big + 3}"
    code, out, err = run(capsys, "eval", "--term", sum_term, "--point", point)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot print value:")
    assert err.count("\n") == 1


def test_check_equal_terms(capsys, tmp_path):
    a = tmp_path / "a.term"
    b = tmp_path / "b.term"
    a.write_text("(oplus (var 1) (neg (var 2)))", encoding="utf-8")
    b.write_text("(oplus (var 1) (neg (var 2)))", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--left", str(a), "--right", str(b), "--vars", "2")
    assert (code, out) == (0, "EQUAL\n")


def test_check_term_vs_description(capsys, tmp_path):
    term_path = tmp_path / "v.term"
    term_path.write_text("(vee (var 1) (var 2))", encoding="utf-8")
    desc = {
        "vars": 2,
        "expr": {
            "max": [
                {"affine": {"constant": 0, "coeffs": [1, 0]}},
                {"affine": {"constant": 0, "coeffs": [0, 1]}},
            ]
        },
    }
    desc_path = tmp_path / "maxdesc.json"
    desc_path.write_text(json.dumps(desc), encoding="utf-8")
    code, out, _ = run(
        capsys, "check", "--left", str(term_path), "--right", str(desc_path), "--vars", "2"
    )
    assert (code, out) == (0, "EQUAL\n")


def test_check_differ_with_witness(capsys, tmp_path):
    a = tmp_path / "a.term"
    b = tmp_path / "b.term"
    a.write_text("(var 1)", encoding="utf-8")
    b.write_text("(neg (var 1))", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--left", str(a), "--right", str(b), "--vars", "1")
    assert code == 1
    assert out.startswith("DIFFER at ")
    w = F(out.split("DIFFER at ")[1].strip())
    assert w != 1 - w


def test_check_description_vs_description(capsys, tmp_path):
    doc = {"vars": 1, "expr": {"affine": {"constant": 0, "coeffs": [1]}}}
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    p1.write_text(json.dumps(doc), encoding="utf-8")
    p2.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "check", "--left", str(p1), "--right", str(p2), "--vars", "1")
    assert (code, out) == (0, "EQUAL\n")


def test_check_arity_errors(capsys, tmp_path):
    t = tmp_path / "t.term"
    t.write_text("(var 3)", encoding="utf-8")
    code, _, _ = run(capsys, "check", "--left", str(t), "--right", str(t), "--vars", "2")
    assert code == 2
    d = tmp_path / "d.json"
    d.write_text(
        json.dumps({"vars": 2, "expr": {"affine": {"constant": 0, "coeffs": [1, 0]}}}),
        encoding="utf-8",
    )
    code, _, _ = run(capsys, "check", "--left", str(d), "--right", str(d), "--vars", "1")
    assert code == 2
    other = tmp_path / "t.txt"
    other.write_text("(var 1)", encoding="utf-8")
    code, _, _ = run(capsys, "check", "--left", str(other), "--right", str(other), "--vars", "1")
    assert code == 2


def test_check_not_utf8_is_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_bytes(NOT_UTF8)
    ok = tmp_path / "ok.term"
    ok.write_text("(var 1)", encoding="utf-8")
    code, out, err = run(capsys, "check", "--left", str(bad), "--right", str(ok), "--vars", "1")
    assert code == 2
    assert out == "" and "error:" in err


def test_check_deeply_nested_is_malformed(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    _write_deep_description(deep)
    ok = tmp_path / "ok.term"
    ok.write_text("(var 1)", encoding="utf-8")
    code, out, err = run(capsys, "check", "--left", str(deep), "--right", str(ok), "--vars", "1")
    assert code == 2
    assert out == "" and "nested too deeply" in err


def test_synth_check_round_trip(capsys, tmp_path):
    for name, description in [
        ("abs", None),
        ("min2", mv.min_of([mv.leaf(mv.unit_form(2, 1)), mv.leaf(mv.unit_form(2, 2))])),
    ]:
        if description is None:
            doc = ABS_JSON
        else:
            doc = description_to_json(description)
        desc_path = tmp_path / f"{name}.json"
        desc_path.write_text(json.dumps(doc), encoding="utf-8")
        term_path = tmp_path / f"{name}.term"
        code, _, _ = run(
            capsys, "synth", "--input", str(desc_path), "--output", str(term_path)
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "check",
            "--left",
            str(term_path),
            "--right",
            str(desc_path),
            "--vars",
            str(doc["vars"]),
        )
        assert (code, out) == (0, "EQUAL\n")


@pytest.fixture()
def uncached_parser():
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one ``main`` call; a usage error or
    --help reads as the ``SystemExit`` code."""
    try:
        code = main(argv)
    except SystemExit as ex:
        code = ex.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser(capsys, tmp_path, abs_file, uncached_parser):
    term_path = tmp_path / "t.term"
    term_path.write_text("(oplus (var 1) (var 1))", encoding="utf-8")
    out_path = str(tmp_path / "out.term")
    calls = [
        ["synth", "--input", abs_file, "--stats"],
        ["synth", "--input", abs_file],
        ["synth", "--input", abs_file, "--mode", "direct"],
        ["synth", "--input", abs_file, "--output", out_path],
        ["synth", "--input", abs_file],
        ["eval", "--term", str(term_path), "--point", "1/3"],
        ["check", "--left", str(term_path), "--right", abs_file, "--vars", "1"],
        ["check", "--left", out_path, "--right", abs_file, "--vars", "1"],
        ["synth", "--input", abs_file, "--cap"],
        ["--help"],
        ["synth", "--input", abs_file, "--stats"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    build_parser.cache_clear()
    reused = [outcome(capsys, argv) for argv in calls]
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    assert reused == fresh

    stats, plain, direct, to_file, after_file, evaluated, differ, equal, usage, helped, again = reused
    assert stats[0] == 0 and stats[2].startswith("nodes=")
    assert plain == (0, stats[1], "")  # no stats line leaks into the next call
    assert direct[0] == 0 and direct[2] == ""
    assert to_file == (0, "", "")
    assert after_file == plain  # nor does --output
    assert evaluated == (0, "2/3\n", "")
    assert differ[0] == 1 and differ[1].startswith("DIFFER at ")
    assert equal == (0, "EQUAL\n", "")
    assert usage[0] == 2 and usage[1] == ""
    assert usage[2].startswith("usage: mvsynth synth")
    assert helped[0] == 0 and helped[1].startswith("usage: mvsynth")
    assert again == stats


def test_import_mvsynth_loads_no_cli_modules():
    # The command line's parser and JSON reader stay out of a bare import
    # (-S: what site imports is not the library's doing).
    src = Path(mv.__file__).resolve().parent.parent
    probe = (
        "import sys, mvsynth; "
        "print([m for m in ('mvsynth.cli', 'argparse', 'json') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
