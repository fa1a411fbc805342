#!/usr/bin/env python3
"""Steadiness check and baseline writer for perfbench.

    python3 perfbench/spread.py [--workload NAME]... [--runs 10] [--out DIR]

Runs `perfbench/run.py --trace 0` for each workload in two sets of RUNS
runs, every run with its own seed and the two sets taking turns, so slow
drift of the host lands in both sets alike.  For each end-to-end
metric it prints the median and spread (interquartile range as a share of
the median) of each set, and how the second set's median compares with
the first under the metric's bound from BENCHMARK.json.  A spread at or
above a third of the bound, or a second median worse than the first by
more than the bound, is flagged (setup_s is exempt from the spread test);
the exit status is 1 when anything is flagged.

With --out DIR it also writes DIR/BENCH_<workload>.json: the v2 envelope
the CLI emits, whose report.summary holds the host, the seeds and, per
metric, the median and quartiles over both sets.  That is how the
committed baselines in perfbench/baseline/ are refreshed.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import platform
import statistics
import subprocess

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def one_run(workload, seed, seconds):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"spread: {workload} seed {seed} exited {r.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread: {workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def host():
    layers = os.path.join(run.BUILD_DIR, "default", "perfbench", "layers.exe")
    info = json.loads(subprocess.run([layers, "host"], stdout=subprocess.PIPE,
                                     check=True, text=True).stdout)
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return {"nproc": os.cpu_count(), **info, "os": platform.platform(),
            "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--out", help="write BENCH_<workload>.json baselines here")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sets = {w: ([], []) for w in workloads}
    for w in workloads:
        for i in range(args.runs):
            for s in (0, 1):
                seed = 1 + i + s * args.runs
                sets[w][s].append(one_run(w, seed, spec["run_seconds"]))
                print(f"spread: {w} set {s + 1} seed {seed}: {json.dumps(sets[w][s][-1])}",
                      file=sys.stderr, flush=True)
    flagged = 0
    for w in workloads:
        print(f"\n{w}: two sets of {args.runs} runs")
        print(f"  {'metric':<16} {'median 1':>12} {'median 2':>12} {'spread 1':>9} {'spread 2':>9} "
              f"{'bound':>6}  verdict")
        summary = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r[name] for r in sets[w][0]]
            b = [r[name] for r in sets[w][1]]
            sa, sb = run.relative_spread(a), run.relative_spread(b)
            v = run.verdict(m["better"], m["bound"], statistics.median(a), statistics.median(b))
            bad = v == "regressed" or (name != "setup_s" and max(sa, sb) >= m["bound"] / 3)
            flagged += bad
            print(f"  {name:<16} {statistics.median(a):>12.6g} {statistics.median(b):>12.6g} "
                  f"{sa:>9.4f} {sb:>9.4f} {m['bound']:>6}  {v}{'  FLAGGED' if bad else ''}")
            q1, _, q3 = statistics.quantiles(a + b, n=4)
            summary[name] = {"unit": m["unit"], "median": statistics.median(a + b),
                             "p25": q1, "p75": q3, "values": a + b}
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            doc = {"v": 2, "request": "perfbench", "ok": True,
                   "report": {"engine": "perfbench", "summary": {
                       "workload": w, "run_seconds": spec["run_seconds"],
                       "seeds": list(range(1, 2 * args.runs + 1)), "host": host(),
                       "metrics": summary}},
                   "diagnostics": []}
            path = os.path.join(args.out, f"BENCH_{w}.json")
            with open(path, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
            print(f"  wrote {path}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
