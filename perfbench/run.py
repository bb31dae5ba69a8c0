"""mvsynth benchmark: cold synthesis (corpus, ladder) and a long-lived
check stream (check), with a separate traced run for per-layer numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|ladder|check|all \\
        --seed N --seconds S --trace 0|1

Every synthesis runs in a fresh interpreter, one at a time, and every
output is checked against its description by the benchmark's own exact
evaluator; every check verdict is compared with the answer known by
construction.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Any wrong output, wrong verdict, crash or timeout counts as a failure and
makes the exit code 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_SAMPLES = 15
INSTANCE_LIMIT_S = 60
# Extra samples stop here, so a run ends well inside three minutes.
RUN_LIMIT_S = 120
# Rough cost of starting a worker interpreter, for planning extra samples.
SPAWN_S = 0.15
TAIL_BEYOND = 10


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer"),
    as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


# Stage times reported under a layer's name.
STAGE_METRIC = {
    "range": "crt.range_s",
    "select": "crt.select_s",
    "fold": "crt.fold_s",
    "cert": "crt.cert_s",
}
# Per-layer metrics read straight from the summed span numbers.
_SUMMED = [
    "crt.member_s", "crt.member_rounds", "crt.member_refuted", "crt.m_sum",
    "crt.combines", "crt.groups", "geometry.cells_s", "geometry.cells",
    "geometry.lp_s", "geometry.lp_calls", "geometry.lp_distinct",
    "geometry.interior_calls", "linear.term_s", "linear.calls",
    "pwl.decide_s", "pwl.decide_calls", "terms.parse_s",
]


def layer_metrics(total: dict, oplus_depth: int) -> dict:
    """The declared per-layer metrics from span numbers summed over a
    workload (see tracer.layer_numbers)."""
    metrics = {name: total.get(f"stage.{stage}_s", 0) for stage, name in STAGE_METRIC.items()}
    metrics.update({key: total.get(key, 0) for key in _SUMMED})
    metrics["crt.m_max"] = total.get("crt.m_max", 0)
    calls = metrics["geometry.lp_calls"]
    metrics["geometry.lp_hit_ratio"] = 1 - metrics["geometry.lp_distinct"] / calls if calls else 0
    metrics["terms.oplus_depth_max"] = oplus_depth
    root = total.get("root_s", 0)
    for stage in STAGES:
        metrics[f"stage.{stage}_share"] = total.get(f"stage.{stage}_s", 0) / root if root else 0
    metrics["trace.stage_coverage"] = sum(metrics[f"stage.{s}_share"] for s in STAGES)
    return metrics


class RunError(Exception):
    """The benchmark cannot run here (no program, inputs not generated)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], stdin: str, timeout: float) -> dict:
    """Run a Python child to completion; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=timeout,
            env=child_env(),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def generate(workload: str, seed: int, seconds: int) -> list[dict]:
    args = [str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = run_child(args, "", 300)
    if "error" in out:
        raise RunError(f"input generation failed: {out['error']}")
    return out["items"]


def setup_seconds() -> list[float]:
    """Cold ``import mvsynth`` times, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = run_child([str(HERE / "worker.py"), "import"], "", 60)
        if "error" in out:
            raise RunError(f"import mvsynth failed: {out['error']}")
        samples.append(out["import_s"])
    return samples


def tail_of(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    and that percentile's number."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[0], 0
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], math.floor(100 * rank / len(ordered))


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def latency_metrics(latencies: list[float]) -> dict:
    tail, pct = tail_of(latencies)
    return {
        "latency_s_p50": statistics.median(latencies),
        "latency_s_tail": tail,
        "latency_s_geomean": geomean(latencies),
        "wall_s": sum(latencies),
        "_tail_label": f"p{pct} of {len(latencies)}",
    }


# --- synthesis workloads ---------------------------------------------------------

class SynthRun:
    def __init__(self, items: list[dict], seed: int, seconds: int, trace: bool):
        self.items = items
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.samples: dict[str, list[dict]] = {it["name"]: [] for it in items}
        self.traced: dict[str, list[dict]] = {it["name"]: [] for it in items}
        self.attempted = 0
        self.failures: list[str] = []

    def sample(self, item: dict, traced: bool, draw: int):
        job = {
            "doc": item["doc"],
            "trace": traced,
            "points_seed": f"{self.seed}-{item['name']}-{draw}",
        }
        out = run_child([str(HERE / "worker.py"), "synth"], json.dumps(job), INSTANCE_LIMIT_S)
        self.attempted += 1
        if "error" in out:
            self.failures.append(f"{item['name']}{' (traced)' if traced else ''}: {out['error']}")
            return
        (self.traced if traced else self.samples)[item["name"]].append(out)

    def sample_round(self, item: dict, draw: int):
        if not self.trace:
            self.sample(item, False, draw)
            return
        # untraced and traced back to back, alternating which goes first
        order = (False, True) if (draw + self.seed) % 2 == 0 else (True, False)
        for traced in order:
            self.sample(item, traced, draw)

    def run(self):
        start = time.perf_counter()
        order = list(self.items)
        random.Random(self.seed).shuffle(order)
        for item in order:
            self.sample_round(item, 0)
        # Then --seconds more of repeat samples, spreading the time evenly
        # over the rows, so cheap rows get many samples and dear ones few.
        deadline = min(time.perf_counter() + self.seconds, start + RUN_LIMIT_S)
        factor = 2 if self.trace else 1
        cost = {
            name: (s[0]["latency_s"] + SPAWN_S) * factor if s else math.inf
            for name, s in self.samples.items()
        }
        spent = dict(cost)
        draws = dict.fromkeys(cost, 1)
        while True:
            remaining = deadline - time.perf_counter()
            fits = [it for it in order if cost[it["name"]] <= remaining]
            if not fits:
                break
            item = min(fits, key=lambda it: spent[it["name"]])
            name = item["name"]
            self.sample_round(item, draws[name])
            spent[name] += cost[name]
            draws[name] += 1

    def rows(self) -> list[dict]:
        rows = []
        for item in self.items:
            samples = self.samples[item["name"]]
            every = samples + self.traced[item["name"]]
            if not samples:
                continue
            for key in ("tree_nodes", "dag_nodes", "digest", "groups"):
                values = {s[key] for s in every}
                if len(values) > 1:
                    self.failures.append(f"{item['name']}: {key} differs across repeats: {sorted(map(str, values))}")
            rows.append({
                "name": item["name"],
                "shape": item["shape"],
                "groups": samples[0]["groups"],
                "latency_s": statistics.median(s["latency_s"] for s in samples),
                "samples_s": [s["latency_s"] for s in samples],
                "tree_nodes": samples[0]["tree_nodes"],
                "dag_nodes": samples[0]["dag_nodes"],
                "oplus_depth": samples[0]["oplus_depth"],
                "samples": len(samples),
                "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
                "rss_growth_mb": max(s["rss_growth_mb"] for s in samples),
            })
        return rows

    def end_to_end(self, rows: list[dict]) -> dict:
        metrics = latency_metrics([r["latency_s"] for r in rows])
        metrics["out_tree_nodes"] = sum(r["tree_nodes"] for r in rows)
        metrics["out_dag_nodes"] = sum(r["dag_nodes"] for r in rows)
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in rows)
        metrics["rss_growth_mb"] = max(r["rss_growth_mb"] for r in rows)
        return metrics

    def per_layer(self, rows: list[dict]) -> tuple[dict, list[str]]:
        """Per-layer metrics from the traced samples, taking for each row
        the sample of median latency, and the stages found missing."""
        total: dict[str, float] = {}
        missing: list[str] = []
        absent: set[str] = set()
        traced_wall = untraced_wall = 0.0
        for row in rows:
            samples = sorted(self.traced[row["name"]], key=lambda s: s["latency_s"])
            if not samples:
                missing.append(f"{row['name']}: no traced sample")
                absent.update(STAGES)
                continue
            pick = samples[(len(samples) - 1) // 2]
            for key, value in pick["layers"].items():
                if key == "missing":
                    for stage in value:
                        missing.append(f"{row['name']}: stage {stage} not observed")
                        absent.add(stage)
                elif key == "crt.m_max":
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value
            traced_wall += pick["latency_s"]
            untraced_wall += row["latency_s"]
        metrics = layer_metrics(total, max(r["oplus_depth"] for r in rows))
        metrics["trace.overhead"] = traced_wall / untraced_wall - 1 if untraced_wall else 0
        # a stage that was not seen is reported missing, never as 0
        for stage in absent:
            metrics.pop(f"stage.{stage}_share")
            metrics.pop(STAGE_METRIC.get(stage), None)
            metrics.pop("trace.stage_coverage", None)
        return metrics, missing

    def report_rows(self, rows: list[dict]):
        print(f"{'row':<22} {'shape':<6} {'groups':>6} {'latency_s':>10} {'tree_nodes':>12} {'dag':>6} {'n':>3}")
        for r in rows:
            print(
                f"{r['name']:<22} {r['shape']:<6} {r['groups']:>6} {r['latency_s']:>10.4f} "
                f"{r['tree_nodes']:>12} {r['dag_nodes']:>6} {r['samples']:>3}"
            )


def run_synth_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    items = generate(workload, seed, seconds)
    setup = setup_seconds()
    run = SynthRun(items, seed, seconds, trace)
    run.run()
    rows = run.rows()
    run.report_rows(rows)
    e2e = run.end_to_end(rows) if rows else {}
    e2e["setup_s"] = statistics.median(setup)
    layers, missing = run.per_layer(rows) if trace else ({}, [])
    return {
        "attempted": run.attempted,
        "failures": run.failures,
        "e2e": e2e,
        "layers": layers,
        "missing": missing,
        "detail": {"rows": rows, "setup_s": setup},
    }


# --- check workload ------------------------------------------------------------------

def check_pass(items: list[dict], trace: bool) -> dict:
    job = {"items": items, "trace": trace, "workdir": str(WORK)}
    return run_child([str(HERE / "worker.py"), "check"], json.dumps(job), RUN_LIMIT_S)


def run_check_workload(seed: int, seconds: int, trace: bool) -> dict:
    items = generate("check", seed, seconds)
    setup = setup_seconds()
    passes = {}
    # the traced run also replays the stream untraced, in its own
    # process, for the tracing overhead; which goes first alternates
    order = [False] if not trace else ([False, True] if seed % 2 == 0 else [True, False])
    for traced in order:
        passes[traced] = check_pass(items, traced)
    failures, attempted = [], 0
    for traced, out in passes.items():
        if "error" in out:
            failures.append(f"check stream{' (traced)' if traced else ''}: {out['error']}")
            attempted += len(items)
            continue
        attempted += len(out["rows"])
        failures += [f"{r['name']}: {r['error']}" for r in out["rows"] if r["error"]]
    result = {"attempted": attempted, "failures": failures, "e2e": {}, "layers": {}, "missing": [], "detail": {}}
    plain = passes[False]
    if "error" in plain:
        return result
    latencies = [r["latency_s"] for r in plain["rows"]]
    e2e = latency_metrics(latencies)
    e2e.update({
        "setup_s": statistics.median(setup),
        "out_tree_nodes": plain["tree_nodes"],
        "out_dag_nodes": plain["dag_nodes"],
        "peak_rss_mb": plain["peak_rss_mb"],
        "rss_growth_mb": plain["rss_growth_mb"],
    })
    result["e2e"] = e2e
    by_kind: dict[str, list[float]] = {}
    for r in plain["rows"]:
        by_kind.setdefault(r["kind"], []).append(r["latency_s"])
    for kind, values in sorted(by_kind.items()):
        print(f"{kind:<10} n={len(values):<4} p50={statistics.median(values):.4f} s  sum={sum(values):.3f} s")
    if trace and "error" not in passes[True]:
        layers = layer_metrics(passes[True]["layers"], 0)
        traced_wall = sum(r["latency_s"] for r in passes[True]["rows"])
        layers["trace.overhead"] = traced_wall / e2e["wall_s"] - 1
        result["layers"] = layers
    result["detail"] = {"setup_s": setup, "rows": plain["rows"]}
    return result


# --- reporting ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    print(f"== {workload}  seed={seed} seconds={seconds} trace={int(trace)}")
    if workload == "check":
        res = run_check_workload(seed, seconds, trace)
    else:
        res = run_synth_workload(workload, seed, seconds, trace)
    e2e = res["e2e"]
    e2e_units, layer_units = declared_units("end_to_end"), declared_units("per_layer")
    for name, unit in e2e_units.items():
        if name in e2e:
            print(f"{name:<26} {e2e[name]:>14.6g} {unit}")
    if "latency_s_p50" in e2e:
        # printed, but not in the result: too noisy here to carry a bound
        print(f"{'latency_s_p50':<26} {e2e['latency_s_p50']:>14.6g} s  (not bounded)")
        print(f"{'latency_s_tail':<26} {e2e['latency_s_tail']:>14.6g} s  ({e2e['_tail_label']}, not bounded)")
    if trace:
        for name, unit in layer_units.items():
            value = res["layers"].get(name)
            shown = "MISSING" if value is None else f"{value:.6g}"
            print(f"{name:<26} {shown:>14} {unit}")
    for line in res["missing"]:
        print(f"missing: {line}")
    fails = res["failures"]
    print(f"fail_share {len(fails)}/{res['attempted']}")
    for line in fails[:20]:
        print(f"FAIL {line}")
    detail = dict(res["detail"], e2e=e2e, layers=res["layers"], failures=fails)
    (WORK / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    units = layer_units if trace else e2e_units
    source = res["layers"] if trace else e2e
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in units.items() if name in source}
    return {"attempted": res["attempted"], "failed": len(fails), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="mvsynth benchmark")
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "check", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mvsynth" / "__init__.py").is_file():
        print(f"error: no mvsynth sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workloads = ["corpus", "ladder", "check"] if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except RunError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    finally:
        for stale in WORK.glob("left.*"):
            stale.unlink()
        for stale in WORK.glob("right.*"):
            stale.unlink()
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
