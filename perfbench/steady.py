#!/usr/bin/env python3
"""Steadiness check: run workloads N times with distinct seeds, summarise
each end-to-end metric, and compare two such sets against the bounds in
BENCHMARK.json.

    python3 perfbench/steady.py run --runs 10 [--workloads w1,w2] \
        [--first-seed 1] [--seconds S] --out .bench_out/steady-a.json
    python3 perfbench/steady.py compare .bench_out/steady-a.json \
        .bench_out/steady-b.json

`run` prints, per workload and metric, the median, the quartiles and the
spread (Q3 - Q1) / median, and flags a spread above the metric's bound (the
check does not apply to setup_s).  `compare` flags a metric whose median in
the second set is worse than in the first by more than its bound, and a
workload whose share of failed operations differs between the sets.  Both
exit 1 when anything is flagged.  Run from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(args) -> int:
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in SPEC["workloads"]]
    seconds = args.seconds or SPEC["run_seconds"]
    doc = {}
    flagged = 0
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = subprocess.run(SPEC["command"] + [
                "--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "0"], stdout=subprocess.PIPE, text=True)
            if res.returncode != 0:
                print(f"{w} seed {seed}: exit {res.returncode}")
                flagged += 1
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            if not out["correct"]:
                print(f"{w} seed {seed}: outputs incorrect")
                flagged += 1
            runs.append(out)
        doc[w] = runs
        print(f"== {w}: {len(runs)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        for name, m in E2E.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            if len(vals) < 2:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            bad = name != "setup_s" and spread > m["bound"]
            flagged += bad
            print(f"  {name:14s} median {med:12.6g} {m['unit']:8s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                  f"(bound {m['bound']:.0%}){'  <-- over bound' if bad else ''}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1))
    return 1 if flagged else 0


def compare(args) -> int:
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    flagged = 0
    for w in a.keys() & b.keys():
        share = [sorted({r["failed"] / r["attempted"] for r in s})
                 for s in (a[w], b[w])]
        if share[0] != share[1]:
            print(f"{w}: failed share differs: {share[0]} vs {share[1]}")
            flagged += 1
        for name, m in E2E.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[w])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bad = worse > m["bound"]
            flagged += bad
            print(f"{w:14s} {name:14s} {ma:12.6g} -> {mb:12.6g} "
                  f"worse by {worse:7.2%} (bound {m['bound']:.0%})"
                  f"{'  <-- over bound' if bad else ''}")
    return 1 if flagged else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--workloads", default="")
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    return run_set(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
