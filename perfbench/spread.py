#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement between two sets.

    python3 perfbench/spread.py [--workloads cli-cold,sweep,...] [--seeds 1-10] [--seconds 15]
                                [--out FILE] [--load FILE] [--against FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for each metric the median over the runs and the spread: the
distance between the first and the third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median.  A spread of
a third of the metric's bound in BENCHMARK.json or more is marked WIDE.
The runs' JSON lines go to --out (default perfbench/results/spread.jsonl,
overwritten).  --load reads such a file instead of running.

--against FILE compares this set with an earlier one: for every workload
and metric it prints the change of the median, marked WORSE or BETTER
where it differs from the earlier median by more than the bound, and
checks that the share of failed operations is the same.  Exits 1 if
anything is WIDE, WORSE, BETTER or differs.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workloads, seeds, seconds, out_path):
    with open(out_path, "w") as log:
        for workload in workloads:
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
                    capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit("%s seed %d failed" % (workload, seed))
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                log.flush()


def load_set(path):
    runs = collections.OrderedDict()
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(runs):
    """Per metric: (median, spread as a share of the median)."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = (med, (q3 - q1) / med)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="cli-cold,sweep,fine-grid,lab")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default=os.path.join(HERE, "results", "spread.jsonl"))
    ap.add_argument("--load", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()

    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    path = args.load
    if path is None:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        run_set(args.workloads.split(","), args.seeds, seconds, args.out)
        path = args.out
    current = load_set(path)
    earlier = load_set(args.against) if args.against else {}

    bad = 0
    for workload, runs in current.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: %d runs, attempted %s, failed share %s, all correct %s" % (
            workload, len(runs), sorted(r["attempted"] for r in runs), shares, all(r["correct"] for r in runs)))
        stats = summary(runs)
        before = summary(earlier[workload]) if workload in earlier else {}
        if workload in earlier:
            earlier_shares = sorted({r["failed"] / r["attempted"] for r in earlier[workload]})
            if earlier_shares != shares:
                bad += 1
                print("  failed share differs from the earlier set: %s" % earlier_shares)
        for name, (med, spread) in stats.items():
            bound = metrics[name]["bound"]
            line = "  %-14s median %12.6g  spread %6.2f%%  bound %4.0f%%  %-4s" % (
                name, med, 100 * spread, 100 * bound, "ok" if spread < bound / 3 else "WIDE")
            bad += spread >= bound / 3
            if name in before:
                change = med / before[name][0] - 1.0
                worse = change if metrics[name]["better"] == "lower" else -change
                verdict = "ok" if abs(change) <= bound else "WORSE" if worse > 0 else "BETTER"
                line += "  vs earlier %+7.2f%%  %s" % (100 * change, verdict)
                bad += verdict != "ok"
            print(line)
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
