"""Timed work in a fresh interpreter; driven by run.py, not by hand.

``worker.py synth`` synthesizes one description read from stdin (a JSON
job) with the public `mvsynth.synthesize_crt`, then judges the output with
the benchmark's own exact evaluator and prints one JSON result line.

``worker.py check`` is one long-lived process: it feeds a stream of pairs
to the public `mvsynth.cli.main(["check", ...])`, comparing every verdict
with the answer known by construction and every DIFFER witness with exact
evaluation, and prints one JSON result line at the end.

``worker.py import`` times ``import mvsynth`` and nothing else.

Only what happens inside the public call is timed; loading, checking and
counting happen outside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

import exact
import tracer

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_program():
    start = time.perf_counter()
    import mvsynth

    return mvsynth, time.perf_counter() - start


def to_expr(mv, spec: dict):
    (key, value), = spec.items()
    if key == "affine":
        return mv.leaf(mv.affine(value["constant"], value["coeffs"]))
    kids = [to_expr(mv, c) for c in value]
    return mv.min_of(kids) if key == "min" else mv.max_of(kids)


def run_synth(job: dict) -> dict:
    mv, import_s = import_program()
    doc = job["doc"]
    expr = to_expr(mv, doc["expr"])
    base_rss = rss_mb()
    tr = tracer.Tracer() if job["trace"] else None
    if tr is not None:
        tr.install()
    trace = mv.SynthesisTrace()
    start = time.perf_counter()
    if tr is None:
        term = mv.synthesize_crt(expr, trace=trace)
    else:
        term = tr.call("synthesize_crt", mv.synthesize_crt, expr, trace=trace)
    latency = time.perf_counter() - start
    if tr is not None:
        tr.uninstall()
    result = {
        "import_s": import_s,
        "latency_s": latency,
        "peak_rss_mb": peak_rss_mb(),
        "rss_growth_mb": peak_rss_mb() - base_rss,
        "groups": len(trace.groups),
    }
    result.update(exact.term_profile(term, mv.ZERO, mv.ONE))
    points = exact.grid_points(doc["vars"], random.Random(job["points_seed"]))
    den = exact.GRID_DENOMINATOR
    got = exact.term_values(term, mv.ZERO, mv.ONE, points, den)
    want = exact.description_values(doc, points, den)
    bad = [p for p, g, w in zip(points, got, want) if g != w]
    result["points"] = len(points)
    if bad:
        result["error"] = f"output differs from the description at {bad[0]} / {den}"
    if tr is not None:
        result["layers"] = tracer.layer_numbers(tr.spans, len(tr.lp_keys))
    return result


def _write_side(side: dict, path_stem: str) -> str:
    path = path_stem + side["ext"]
    with open(path, "w", encoding="utf-8") as fh:
        if side["ext"] == ".term":
            fh.write(side["text"] + "\n")
        else:
            json.dump(side["doc"], fh)
    return path


def _judge(pair: dict, code: int, stdout: str) -> str | None:
    """None when the verdict is right, else what is wrong with it."""
    if pair["expect"] == "EQUAL":
        if code == 0 and stdout == "EQUAL\n":
            return None
        return f"expected EQUAL, got exit {code}: {stdout.strip()!r}"
    if code != 1 or not stdout.startswith("DIFFER at "):
        return f"expected DIFFER, got exit {code}: {stdout.strip()!r}"
    point = exact.parse_point(stdout[len("DIFFER at "):].strip())
    if len(point) != pair["vars"] or any(x < 0 or x > 1 for x in point):
        return f"witness {point} is not a point of the cube"
    if exact.side_at(pair["left"], point) == exact.side_at(pair["right"], point):
        return f"witness {point} does not separate the two sides"
    return None


def run_check(job: dict) -> dict:
    mv, import_s = import_program()
    import mvsynth.cli as cli

    tr = tracer.Tracer() if job["trace"] else None
    if tr is not None:
        tr.install()
    workdir = job["workdir"]
    base_rss = rss_mb()
    rows = []
    tree_nodes = dag_nodes = 0
    for index, pair in enumerate(job["items"]):
        left = _write_side(pair["left"], os.path.join(workdir, "left"))
        right = _write_side(pair["right"], os.path.join(workdir, "right"))
        argv = ["check", "--left", left, "--right", right, "--vars", str(pair["vars"])]
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tr is None:
                    code = cli.main(argv)
                else:
                    code = tr.call("main", cli.main, argv)
        except Exception as ex:  # a crash is a failed operation, not the end of the run
            code, error = None, f"{type(ex).__name__}: {ex}"
        latency = time.perf_counter() - start
        if error is None:
            error = _judge(pair, code, buf.getvalue())
        for side in (pair["left"], pair["right"]):
            if side["ext"] == ".term":
                profile = exact.term_profile(mv.parse_term(side["text"]), mv.ZERO, mv.ONE)
                tree_nodes += profile["tree_nodes"]
                dag_nodes += profile["dag_nodes"]
        rows.append({"name": pair["name"], "kind": pair["kind"], "latency_s": latency, "error": error})
    result = {
        "import_s": import_s,
        "rows": rows,
        "peak_rss_mb": peak_rss_mb(),
        "rss_growth_mb": rss_mb() - base_rss,
        "tree_nodes": tree_nodes,
        "dag_nodes": dag_nodes,
    }
    if tr is not None:
        tr.uninstall()
        result["layers"] = tracer.layer_numbers(tr.spans, len(tr.lp_keys))
    return result


def main() -> int:
    mode = sys.argv[1]
    if mode == "import":
        _, import_s = import_program()
        print(json.dumps({"import_s": import_s}))
        return 0
    job = json.load(sys.stdin)
    try:
        result = run_synth(job) if mode == "synth" else run_check(job)
    except Exception as ex:  # reported to the parent, which counts the failure
        result = {"error": f"{type(ex).__name__}: {ex}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
