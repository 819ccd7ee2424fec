#!/usr/bin/env python3
"""Compare two result sets of perfbench/run.py.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each file holds the lines `run.py --out FILE` appends.  For every workload
and metric the report gives each side's median and quartiles
(statistics.quantiles, n=4) and the run count.  An end-to-end metric whose
NEW median is worse than BASE's by more than its bound is flagged
REGRESSION; one whose run-to-run spread (quartile distance over median) on
either side exceeds the bound is marked unresolved instead of unchanged,
unless every NEW run beats every BASE run.  Per-layer metrics (traced
runs) have no bound and are reported without a verdict.  Exit status 1
when any metric regressed or any run failed its output checks.
"""

import argparse
import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r["result"])
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, new):
    bound, lower = metric["bound"], metric["better"] == "lower"
    (b1, bm, b3), (n1, nm, n3) = summary(base), summary(new)
    worse = (nm - bm) / bm if lower else (bm - nm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    beats_all = (max(new) < min(base)) if lower else (min(new) > max(base))
    if worse > bound and spread <= bound:
        return worse, "REGRESSION"
    if spread > bound and not beats_all:
        return worse, "unresolved"
    return worse, "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    a = ap.parse_args()
    with open(a.benchmark) as f:
        spec = json.load(f)
    base, new = load(a.base), load(a.new)
    bad = False
    for (workload, trace) in sorted(set(base) & set(new)):
        b_runs, n_runs = base[(workload, trace)], new[(workload, trace)]
        for side, runs in (("base", b_runs), ("new", n_runs)):
            failed = [r for r in runs if not r["correct"]]
            if failed:
                bad = True
                print(f"{workload}: {len(failed)} {side} run(s) failed their output checks")
        print(f"\n{workload} ({'traced' if trace else 'end to end'}; "
              f"{len(b_runs)} base runs, {len(n_runs)} new runs)")
        print(f"  {'metric':34s} {'unit':6s} {'base q1/median/q3':>30s} "
              f"{'new q1/median/q3':>30s} {'worse':>8s}  verdict")
        for m in spec["per_layer" if trace else "end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b_runs if m["name"] in r["metrics"]]
            nv = [r["metrics"][m["name"]]["value"] for r in n_runs if m["name"] in r["metrics"]]
            if not bv or not nv or (trace and not any(bv + nv)):
                continue  # a layer neither side's workload runs
            bs, ns = summary(bv), summary(nv)
            cells = ["/".join(f"{x:.4g}" for x in s) for s in (bs, ns)]
            if trace:
                print(f"  {m['name']:34s} {m['unit']:6s} {cells[0]:>30s} {cells[1]:>30s}")
                continue
            worse, v = verdict(m, bv, nv)
            bad |= v == "REGRESSION"
            print(f"  {m['name']:34s} {m['unit']:6s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{worse:+8.1%}  {v} (bound {m['bound']:.0%})")
    for (workload, trace) in sorted(set(base) ^ set(new)):
        print(f"\n{workload} ({'traced' if trace else 'end to end'}): only in one result set")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
