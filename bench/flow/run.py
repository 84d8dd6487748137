#!/usr/bin/env python3
"""Flow performance ledger: build perf_flow, run the workloads, check and
print every metric.

Ledger (all workloads, written to DIR/BENCH_flow.json plus one Perfetto trace
per workload):

    python3 bench/flow/run.py [--reps 5] [--seed 0] [--out DIR] [--smoke]

One run of one workload (the BENCHMARK.json command; prints one JSON object
as its last line):

    python3 bench/flow/run.py --workload NAME --seed N --seconds S --trace 0|1

Every rep is its own perf_flow process, one at a time. The ledger takes reps
round-robin across workloads, so host drift spreads evenly, then makes one
traced run per workload. A single run repeats reps while another one still
fits in S seconds (at least one); with --trace 1 it makes one untraced and
one traced rep instead.

Correctness: every flow's plan must cover all TSVs, every flow's
flow_report_signature must be identical across all reps and the traced run,
and the traced run must drop no span. The ledger exits 2 on a signature
mismatch or dropped span (naming the flow) and 1 on a failed flow. The
per-workload plan_digest is checked against the committed baseline
(baselines/BENCH_flow.json) at seed 0, with a warning when it differs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
BASELINE = HERE / "baselines" / "BENCH_flow.json"
WORKLOADS = ["paper24", "measured-b11", "scale-1e5", "atpg-b20"]

# End-to-end metrics of one rep: name -> (unit, better, exact). Exact metrics
# are deterministic functions of the plans; compare.py gives them bound 0.
E2E = {
    "setup_s": ("s", "lower", False),
    "wall_s": ("s", "lower", False),
    "flow_s_geomean": ("s", "lower", False),
    "slowest_flow_s": ("s", "lower", False),
    "peak_rss_mb": ("MB", "lower", False),
    "flow_fail_ratio": ("ratio", "lower", True),
    "wrapper_cells": ("count", "lower", True),
    "reused_ffs": ("count", "higher", True),
    "violating_flows": ("count", "lower", True),
    "eco_demotions": ("count", "lower", True),
    "sa_test_coverage_min": ("ratio", "higher", True),
    "atpg_patterns": ("count", "lower", True),
    "test_cycles": ("cycles", "lower", True),
}
QUALITY = [name for name, (_, _, exact) in E2E.items() if exact and name != "flow_fail_ratio"]


class BenchError(Exception):
    pass


def layer_unit(name):
    if name in E2E:
        return E2E[name][0]
    if name.endswith("_s"):
        return "s"
    if name == "atpg.sweep_rate":
        return "1/s"
    if name.endswith("_ratio") or name in ("layer_coverage", "trace_overhead"):
        return "ratio"
    return "count"


def build():
    """Configures and builds perf_flow in build-bench/; returns its path."""
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "perf_flow"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}\n{proc.stdout}{proc.stderr}")
    return BUILD / "perf_flow"


def run_rep(perf, workload, seed, smoke, json_path, trace_path=None, timeout=None):
    """One perf_flow process; returns its run document."""
    cmd = [str(perf), "--workload", workload, "--seed", str(seed), "--json", str(json_path)]
    if smoke:
        cmd.append("--smoke")
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    json_path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    # Exit 1 with a document means some flow failed; the document says which.
    if proc.returncode not in (0, 1) or not json_path.exists():
        raise BenchError(f"perf_flow {workload} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(json_path.read_text(encoding="utf-8"))


def rep_metrics(doc):
    secs = [f["seconds"] for f in doc["flows"]]
    failed = sum(not f["ok"] for f in doc["flows"])
    metrics = {
        "setup_s": doc["setup_s"],
        "wall_s": doc["wall_s"],
        "flow_s_geomean": statistics.geometric_mean(secs),
        "slowest_flow_s": max(secs),
        "peak_rss_mb": doc["peak_rss_mb"],
        "flow_fail_ratio": failed / len(secs),
    }
    metrics.update({name: doc["quality"][name] for name in QUALITY})
    return metrics


def layer_metrics(traced, untraced_wall):
    layers = dict(traced["layers"])
    layers.update(traced["counts"])
    layers["trace_overhead"] = traced["wall_s"] / untraced_wall - 1.0
    return layers


def check(workload, docs, traced):
    """Correctness findings of one workload's reps: (failed, problems).
    `problems` names every flow whose signature is not identical across all
    reps, and a traced run that dropped spans."""
    runs = docs + ([traced] if traced else [])
    failed = sum(not f["ok"] for d in runs for f in d["flows"])
    problems = []
    for i, flow in enumerate(runs[0]["flows"]):
        if len({d["flows"][i]["signature"] for d in runs}) > 1:
            problems.append(f"{workload}: flow {flow['label']} signature differs across reps")
    if traced and traced["layers"]["spans_dropped"] != 0:
        problems.append(f"{workload}: traced run dropped "
                        f"{traced['layers']['spans_dropped']:.0f} spans")
    return failed, problems


def check_digest(workload, digest, seed, smoke):
    if seed != 0 or smoke or not BASELINE.exists():
        return
    base = json.loads(BASELINE.read_text(encoding="utf-8"))["workloads"].get(workload)
    if base and base["plan_digest"] != digest:
        sys.stderr.write(f"warning: {workload} plan_digest {digest} differs from the "
                         f"baseline's {base['plan_digest']}: the plans changed\n")


# ------------------------------------------------------------ single run

def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    bench = json.loads(path.read_text(encoding="utf-8"))
    for entry in bench["end_to_end"]:
        if E2E.get(entry["name"], (None,))[0] != entry["unit"]:
            raise BenchError(f"BENCHMARK.json: {entry['name']} is not an end-to-end metric "
                             f"in {entry['unit']}")
    for entry in bench["per_layer"]:
        if layer_unit(entry["name"]) != entry["unit"]:
            raise BenchError(f"BENCHMARK.json: per-layer {entry['name']} unit {entry['unit']}")
    return bench


def single_run(args):
    bench = load_benchmark()
    perf = Path(args.perf_flow) if args.perf_flow else build()
    scratch = BUILD / "runs"
    scratch.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    def rep(i, trace_path=None):
        return run_rep(perf, args.workload, args.seed, False, scratch / f"{stem}-{i}.json",
                       trace_path, timeout=170)

    start = time.monotonic()
    docs, traced = [], None
    if args.trace:
        docs.append(rep(0))
        traced = rep(1, scratch / f"{stem}-trace.json")
    else:
        while True:
            t0 = time.monotonic()
            docs.append(rep(len(docs)))
            if time.monotonic() - start + (time.monotonic() - t0) > args.seconds:
                break
    failed, problems = check(args.workload, docs, traced)
    for problem in problems:
        sys.stderr.write(problem + "\n")
    check_digest(args.workload, docs[0]["plan_digest"], args.seed, False)

    if traced:
        values = layer_metrics(traced, docs[0]["wall_s"])
        values.update(rep_metrics(traced))
        wanted = bench["per_layer"]
    else:
        per_rep = [rep_metrics(d) for d in docs]
        values = {name: statistics.median(m[name] for m in per_rep) for name in E2E}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(len(d["flows"]) for d in docs + ([traced] if traced else []))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------- ledger

def host_block(doc):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": doc["compiler"],
            "simd": doc["simd"], "git_commit": commit or "unknown"}


def ledger(args):
    perf = Path(args.perf_flow) if args.perf_flow else build()
    out = Path(args.out) if args.out else BUILD / "out"
    out.mkdir(parents=True, exist_ok=True)
    reps = args.reps if args.reps is not None else (1 if args.smoke else 5)
    docs = {w: [] for w in WORKLOADS}
    for r in range(reps):
        for w in WORKLOADS:
            docs[w].append(run_rep(perf, w, args.seed, args.smoke, out / f"run-{w}.json"))
            print(f"rep {r + 1}/{reps} {w}: wall {docs[w][-1]['wall_s']:.3f} s", flush=True)
    traced = {w: run_rep(perf, w, args.seed, args.smoke, out / f"run-{w}.json",
                         out / f"trace-{w}.json") for w in WORKLOADS}
    for w in WORKLOADS:
        (out / f"run-{w}.json").unlink()

    ledger_doc = {"bench": "flow", "schema": 1, "seed": args.seed, "smoke": args.smoke,
                  "reps": reps, "host": host_block(traced[WORKLOADS[0]]), "workloads": {}}
    exit_code = 0
    for w in WORKLOADS:
        failed, problems = check(w, docs[w], traced[w])
        for problem in problems:
            sys.stderr.write(f"FAIL {problem}\n")
        if problems:
            exit_code = 2
        elif failed:
            sys.stderr.write(f"FAIL {w}: {failed} flows failed\n")
            exit_code = max(exit_code, 1)
        per_rep = [rep_metrics(d) for d in docs[w]]
        metrics = {}
        for name, (unit, better, exact) in E2E.items():
            metrics[name] = {"unit": unit, "better": better, "exact": exact}
            metrics[name].update(summarize(m[name] for m in per_rep))
        layers = layer_metrics(traced[w], metrics["wall_s"]["median"])
        digest = docs[w][0]["plan_digest"]
        ledger_doc["workloads"][w] = {
            "flows": len(docs[w][0]["flows"]), "threads": docs[w][0]["threads"],
            "plan_digest": digest, "trace": f"trace-{w}.json", "metrics": metrics,
            "layers": {name: {"unit": layer_unit(name), "value": value}
                       for name, value in sorted(layers.items())}}

        print(f"\n== {w}: {len(docs[w][0]['flows'])} flows, threads {docs[w][0]['threads']}, "
              f"plan_digest {digest} ==")
        for name, m in metrics.items():
            print(f"  {name:<24} {m['median']:>14.6g} {m['unit']:<6} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
        print("  per layer (traced run):")
        for name, value in sorted(layers.items()):
            print(f"  {name:<28} {value:>14.6g} {layer_unit(name)}")
        if layers["layer_coverage"] < 0.9:
            sys.stderr.write(f"warning: {w}: named layers cover only "
                             f"{layers['layer_coverage']:.1%} of the traced time\n")
        check_digest(w, digest, args.seed, args.smoke)

    path = out / "BENCH_flow.json"
    path.write_text(json.dumps(ledger_doc, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {path} and {len(WORKLOADS)} traces in {out}")
    return exit_code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload once (the BENCHMARK.json command)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, help="ledger reps per workload (default 5)")
    parser.add_argument("--out", help="ledger output directory (default build-bench/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="ledger on one small flow per workload, 1 rep")
    parser.add_argument("--perf-flow", help="use this perf_flow binary instead of building")
    args = parser.parse_args()
    if args.seed < 0 or (args.reps is not None and args.reps < 1):
        parser.error("--seed must be >= 0 and --reps >= 1")
    try:
        return single_run(args) if args.workload else ledger(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as err:
        sys.stderr.write(f"run.py: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
