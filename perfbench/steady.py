#!/usr/bin/env python3
"""Steadiness tool: two sets of runs of one commit, separated in time.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10 --gap 60
    python3 perfbench/steady.py --workloads serve --seeds 5 --sets 1

Each set runs every chosen workload once per seed (seeds 1..N) through
perfbench/run.py. For each workload and end-to-end metric it prints, per
set, the median and quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median, then the drift of the second set's median from
the first's, signed so that positive is worse, next to the metric's bound
in BENCHMARK.json. The share of failed operations must be identical in
both sets. Raw results go to .bench_work/steady-<time>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed (rc %d)" %
                           (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--gap", type=float, default=60.0,
                        help="seconds between the two sets")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    for s in range(args.sets):
        if s > 0:
            time.sleep(args.gap)
        for workload in workloads:
            for seed in range(1, args.seeds + 1):
                result = run_once(workload, seed, args.seconds, 0)
                raw.setdefault(workload, [[] for _ in range(args.sets)])
                raw[workload][s].append(result)
                if not result["correct"]:
                    print("INCORRECT: %s seed %d" % (workload, seed))

    os.makedirs(".bench_work", exist_ok=True)
    path = os.path.join(".bench_work", "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(raw, f)

    print("| workload | metric | set | median | Q1 | Q3 | spread | "
          "drift | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = raw[workload]
        shares = [sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in sets]
        for name, meta in metrics.items():
            summaries = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                summaries.append(summarize(values))
            drift = ""
            if len(summaries) == 2:
                change = (summaries[1]["median"] - summaries[0]["median"]) / \
                    summaries[0]["median"]
                if meta["better"] == "higher":
                    change = -change
                drift = "%+.3f" % change
            for i, summary in enumerate(summaries):
                print("| %s | %s | %d | %.6g | %.6g | %.6g | %.3f | %s | %s |" %
                      (workload, name, i + 1, summary["median"], summary["q1"],
                       summary["q3"], summary["spread"],
                       drift if i == len(summaries) - 1 else "",
                       meta["bound"]))
        print("| %s | failed share | | %s | | | | | |" %
              (workload, " / ".join("%.6g" % x for x in shares)))


if __name__ == "__main__":
    main()
