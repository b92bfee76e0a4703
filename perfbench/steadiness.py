#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of the same build.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]

Run from the repository root. Set k runs every workload --runs times with
seeds k*1000+1, k*1000+2, ... through perfbench/run.py --trace 0. For each
end-to-end metric and workload it prints each set's median, quartiles and
spread (interquartile range over the median), whether each spread is
within the metric's bound, and whether the two sets' medians agree: they
differ by at most the bound, as a share of the first, in either
direction. The spread of setup_s is printed but not gated: the signoff
and fix-loop set-ups take about 2 ms and 40 ms, and at that scale the
median of one run's set-ups moves by +-25% between runs of the same
seed. The share of
failed operations must be the same in both sets. Raw results are kept in
.bench_build/steadiness.jsonl. Exits 1 if any check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(k, workloads, runs, seconds, log):
    out = {}
    for w in workloads:
        out[w] = []
        for i in range(runs):
            seed = k * 1000 + i + 1
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"run failed: set {k} {w} seed {seed}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"set": k, "workload": w, "seed": seed,
                                  "result": res}) + "\n")
            log.flush()
            out[w].append(res)
            print(f"set {k} {w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr)
    return out


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    log_path = ROOT / ".bench_build" / "steadiness.jsonl"
    log_path.parent.mkdir(exist_ok=True)
    with open(log_path, "a") as log:
        sets = [run_set(k, workloads, args.runs, spec["run_seconds"], log)
                for k in range(1, args.sets + 1)]

    ok = True
    for w in workloads:
        for s in sets:
            if not all(r["correct"] for r in s[w]):
                print(f"{w}: a run reported correct=false")
                ok = False
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                  for s in sets]
        if len(set(shares)) > 1:
            print(f"{w}: failed share differs between sets: {shares}")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in s[w]])
                     for s in sets]
            cells = []
            for med, q1, q3, spread in stats:
                steady = name == "setup_s" or spread <= bound
                ok = ok and steady
                cells.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {spread:.3f}{'' if steady else ' (!)'}")
            verdict = ""
            if len(stats) == 2:
                a, b = stats[0][0], stats[1][0]
                diff = (b - a) / a
                agree = abs(diff) <= bound
                ok = ok and agree
                verdict = f" | {'agree' if agree else 'DISAGREE'} ({diff:+.3f} vs bound {bound})"
            print(f"{w:9s} {name:17s} " + " | ".join(cells) + verdict)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
