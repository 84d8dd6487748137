#!/usr/bin/env python3
"""Compare two flow-ledger documents (BENCH_flow.json) row by row.

Usage:
    python3 bench/flow/compare.py A.json B.json [--benchmark BENCHMARK.json]
    python3 bench/flow/compare.py --merge OUT.json A.json B.json [...]
    python3 bench/flow/compare.py --self-test

A is the reference (the parent commit or the committed baseline), B the
candidate. Each (workload, end-to-end metric) row gets the median and
quartiles of both sides and one verdict:

  better      B's median beats A's by more than the metric's bound, or the
              spread exceeds the bound but every B sample beats every A one
  worse       B's median is worse than A's by more than the bound
  unchanged   the medians differ by no more than the bound
  unresolved  the spread of either side (quartile distance over median)
              exceeds the bound, so the runs cannot tell a change from noise
  missing     the row is in A but not in B (a measurement vanished)

Timing bounds come from the end_to_end entries of BENCHMARK.json. Metrics the
ledger marks "exact" (plan quality, failure ratio) have bound 0: any change
is better or worse. Per-layer values from the traced runs are listed for
attribution only; they carry no verdict.

--merge pools the samples of several ledger documents of the same code into
one (how the committed baseline is made from two full sets of runs).

Exit codes: 0 = no worse or missing end-to-end row, 1 = at least one,
2 = bad input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def summarize(samples):
    """Median, quartiles and count of samples. Inclusive quartiles: with the
    default exclusive method, five reps put the quartiles at the extremes."""
    samples = list(samples)
    if len(samples) > 1:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = med = q3 = samples[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def relative(delta, base):
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def verdict(a, b, better, bound, exact):
    """Verdict of candidate samples `b` against reference samples `a`."""
    sign = 1.0 if better == "lower" else -1.0
    sa, sb = summarize(a), summarize(b)
    worse_by = relative(sign * (sb["median"] - sa["median"]), sa["median"])
    if exact:
        if set(a) == set(b) and len(set(a)) == 1:
            return "unchanged"
        if worse_by == 0:
            return "unresolved"
        return "worse" if worse_by > 0 else "better"
    spread = max(relative(s["q3"] - s["q1"], s["median"]) for s in (sa, sb))
    if spread > bound:
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"compare: cannot read {path}: {err}\n")
        sys.exit(2)


def load_bounds(path):
    bench = load_json(path)
    return {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}


def compare(doc_a, doc_b, bounds):
    """Returns (rows, failures): rows are printable tuples, failures the
    (workload, metric) pairs that are worse or missing."""
    rows, failures = [], []
    for workload, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(workload, {"metrics": {}, "layers": {}})
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None:
                rows.append((workload, name, ma, None, "", "missing"))
                failures.append((workload, name))
                continue
            if ma["exact"]:
                bound = 0.0
            elif name in bounds:
                bound = bounds[name]
            else:
                sys.stderr.write(f"compare: no bound for end-to-end metric {name}\n")
                sys.exit(2)
            v = verdict(ma["samples"], mb["samples"], ma["better"], bound, ma["exact"])
            delta = relative(mb["median"] - ma["median"], ma["median"])
            rows.append((workload, name, ma, mb, f"{delta * 100:+.1f}%", v))
            if v == "worse":
                failures.append((workload, name))
        for name, la in wa.get("layers", {}).items():
            lb = wb.get("layers", {}).get(name)
            if lb is None:
                continue
            delta = relative(lb["value"] - la["value"], la["value"])
            rows.append((workload, name, la, lb, f"{delta * 100:+.1f}%", "info"))
    return rows, failures


def fmt(entry):
    if entry is None:
        return "-"
    if "median" in entry:
        return f"{entry['median']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}] n={entry['n']}"
    return f"{entry['value']:.6g}"


def print_rows(rows):
    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
    table = [header] + [(w, n, fmt(a), fmt(b), d, v) for w, n, a, b, d, v in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())


def merge(docs):
    """Pools the samples of ledger documents made by the same code."""
    out = json.loads(json.dumps(docs[0]))
    out["reps"] = sum(d["reps"] for d in docs)
    for workload, w in out["workloads"].items():
        for d in docs[1:]:
            other = d["workloads"][workload]
            if other["plan_digest"] != w["plan_digest"]:
                raise ValueError(f"{workload}: plan digests differ; not the same code")
            for name, m in w["metrics"].items():
                m["samples"] += other["metrics"][name]["samples"]
        for name, m in w["metrics"].items():
            m.update(summarize(m["samples"]))
        for name, layer in w["layers"].items():
            layer["value"] = statistics.median(
                [d["workloads"][workload]["layers"][name]["value"] for d in docs])
    return out


def self_test():
    def metric(samples, better="lower", exact=False, unit="s"):
        m = {"unit": unit, "better": better, "exact": exact}
        m.update(summarize(samples))
        return m

    def doc(metrics, layers=None, digest="d1"):
        return {"bench": "flow", "reps": 5, "workloads": {"w": {
            "plan_digest": digest, "metrics": metrics,
            "layers": layers or {"core.graph.scan_s": {"unit": "s", "value": 1.0}}}}}

    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    bounds = {"wall_s": 0.10}
    assert verdict(steady, [x * 1.02 for x in steady], "lower", 0.10, False) == "unchanged"
    assert verdict(steady, [x * 1.30 for x in steady], "lower", 0.10, False) == "worse"
    assert verdict(steady, [x * 0.70 for x in steady], "lower", 0.10, False) == "better"
    # Higher-is-better metrics flip the direction.
    assert verdict(steady, [x * 0.70 for x in steady], "higher", 0.10, False) == "worse"
    # Spread wider than the bound: unresolved, unless every B run beats every A run.
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.10, False) == "unresolved"
    assert verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.10, False) == "better"
    # Exact metrics: identical is unchanged, any move is a verdict.
    assert verdict([18888] * 3, [18888] * 3, "lower", 0.0, True) == "unchanged"
    assert verdict([18888] * 3, [18889] * 3, "lower", 0.0, True) == "worse"
    assert verdict([8936] * 3, [8937] * 3, "higher", 0.0, True) == "better"

    base = doc({"wall_s": metric(steady),
                "wrapper_cells": metric([18888] * 5, exact=True, unit="count")})
    rows, failures = compare(base, base, bounds)
    assert failures == [] and all(r[5] in ("unchanged", "info") for r in rows), rows
    slower = doc({"wall_s": metric([x * 1.3 for x in steady]),
                  "wrapper_cells": metric([18888] * 5, exact=True, unit="count")})
    _, failures = compare(base, slower, bounds)
    assert failures == [("w", "wall_s")], failures
    more_cells = doc({"wall_s": metric(steady),
                      "wrapper_cells": metric([18900] * 5, exact=True, unit="count")})
    _, failures = compare(base, more_cells, bounds)
    assert failures == [("w", "wrapper_cells")], failures
    # A vanished metric fails; a new one passes.
    _, failures = compare(base, doc({"wall_s": metric(steady)}), bounds)
    assert failures == [("w", "wrapper_cells")], failures
    _, failures = compare(doc({"wall_s": metric(steady)}), base, bounds)
    assert failures == [], failures

    merged = merge([base, base])
    m = merged["workloads"]["w"]["metrics"]["wall_s"]
    assert m["n"] == 10 and m["median"] == statistics.median(steady * 2), m
    assert merged["reps"] == 10
    try:
        merge([base, doc({"wall_s": metric(steady)}, digest="d2")])
        raise AssertionError("merge accepted different plan digests")
    except ValueError:
        pass
    print("compare self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("docs", nargs="*")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    parser.add_argument("--merge", metavar="OUT")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.merge:
        if len(args.docs) < 2:
            parser.error("--merge needs at least two documents")
        try:
            merged = merge([load_json(p) for p in args.docs])
        except (KeyError, ValueError) as err:
            sys.stderr.write(f"compare: cannot merge: {err}\n")
            return 2
        Path(args.merge).write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.merge}")
        return 0
    if len(args.docs) != 2:
        parser.error("need A.json and B.json")
    doc_a, doc_b = (load_json(p) for p in args.docs)
    rows, failures = compare(doc_a, doc_b, load_bounds(args.benchmark))
    print_rows(rows)
    for workload, name in failures:
        print(f"FAIL {workload} {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
