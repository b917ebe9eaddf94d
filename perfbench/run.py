#!/usr/bin/env python3
"""Benchmark of symcrit: four workloads, each in its own fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  `all` runs the four workloads one after another and
prints one such line for each.  Times are normalized to a reference speed
(see harness.py).  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import harness
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("cli-cold", "sweep", "fine-grid", "lab")
SETUP_SAMPLES = 7  # fresh interpreters per run; the timed worker is the last one
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
             "latency_p90_s": "s", "peak_rss_mb": "MB"}


def worker_env():
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env.pop("SYMCRIT_THREADS", None)  # the solver's default of one thread
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A worker process; `ready_s` is the time from launch until it printed READY,
    normalized by reference readings right before the launch and right after."""

    def __init__(self, workload, seed, seconds, mode, trace_file=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
        if trace_file:
            cmd += ["--trace-file", trace_file]
        self.deadline = time.monotonic() + WORKER_TIMEOUT_S
        ref_before = harness.slowdown()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        raw = time.perf_counter() - t0
        self.ready_s = harness.normalize(raw, ref_before, harness.slowdown())
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError("worker for %s did not start: %r" % (workload, line))

    def finish(self):
        """Wait for the worker and return the JSON of its last output line."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker timed out")
        if self.proc.returncode != 0:
            raise RuntimeError("worker exited with code %d" % self.proc.returncode)
        lines = [ln for ln in out.splitlines() if ln.strip()]
        return json.loads(lines[-1]) if lines else None


def trace_file(tag, seed):
    trace_dir = os.path.join(HERE, "results")
    os.makedirs(trace_dir, exist_ok=True)
    return os.path.join(trace_dir, "trace-%s-seed%d.jsonl" % (tag, seed))


def traced_workload(name, seed, seconds, probe_metrics):
    res = Worker(name, seed, seconds, "overhead", trace_file(name, seed)).finish()
    metrics = dict(probe_metrics, **res["metrics"])
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": tracing.per_layer_unit(k)} for k, v in sorted(metrics.items())}}


def run_workload(name, seed, seconds):
    ready = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(name, seed, seconds, "setup")
        ready.append(w.ready_s)
        w.finish()
    w = Worker(name, seed, seconds, "run")
    ready.append(w.ready_s)
    res = w.finish()
    values = dict(res["metrics"], setup_s=statistics.median(ready))
    sys.stderr.write("%s seed %d: %d operations, rounds of %s s (raw), slowdown %.3f, set-up samples %s s\n"
                     % (name, seed, res["attempted"], " ".join("%.2f" % r for r in res["round_walls"]),
                        res["slowdown"], " ".join("%.3f" % r for r in ready)))
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "symcrit", "__init__.py")):
        sys.stderr.write("perfbench: no src/symcrit under %s; run from the repository root\n" % ROOT)
        return 2

    # One CPU for this process and every process it starts, so the reference
    # readings are taken on the CPU the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace:  # the probes run once, whatever the number of workloads
        probes = Worker(names[0], args.seed, args.seconds, "probes", trace_file("probes", args.seed)).finish()
    for name in names:
        if args.trace:
            result = traced_workload(name, args.seed, args.seconds, probes["metrics"])
        else:
            result = run_workload(name, args.seed, args.seconds)
        for key, m in sorted(result["metrics"].items()):
            print("%-10s %-34s %14.6g %s" % (name, key, m["value"], m["unit"]))
        print("%-10s attempted %d, failed %d, correct %s"
              % (name, result["attempted"], result["failed"], result["correct"]))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
