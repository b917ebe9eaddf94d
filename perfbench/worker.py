"""One workload in one fresh process; started by run.py, not by hand.

    worker.py --workload NAME --seed N --seconds S --mode setup|run|overhead|probes

The worker builds its inputs from the seed, imports the program, runs one
warm-up operation and prints READY.  In `setup` mode it stops there (run.py
times that as one set-up sample).  In `run` mode it runs whole rounds for
S seconds untraced, checks every output and prints the result as JSON.
`overhead` and `probes` are the two parts of a traced run (see tracing.py);
`probes` ignores --workload.
"""

import argparse
import importlib
import json
import sys

import harness

MODULES = {"cli-cold": "cli_cold", "sweep": "sweep", "fine-grid": "fine_grid", "lab": "lab"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(MODULES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "overhead", "probes"), required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    if args.mode == "probes":
        import tracing

        print("READY", flush=True)
        print(json.dumps({"metrics": tracing.probe_run(args.seed, args.trace_file)}), flush=True)
        return 0

    module = importlib.import_module("workloads." + MODULES[args.workload])
    workload = module.Workload(args.seed)
    workload.warmup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "overhead":
        import tracing

        result = tracing.overhead_run(workload, args.workload, args.trace_file)
        harness.report_problems(result.pop("problems"))
    else:
        outcome = harness.run_rounds(workload, args.seconds)
        harness.report_problems(outcome.problems)
        metrics = harness.latency_metrics(outcome)
        metrics["peak_rss_mb"] = harness.peak_rss_mb(children=workload.rss_of_children)
        result = {
            "correct": not outcome.problems,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "round_walls": outcome.round_walls,
            "slowdown": outcome.raw_busy_s / outcome.busy_s,  # raw over normalized time
            "metrics": metrics,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
