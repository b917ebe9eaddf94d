"""Closed-loop harness shared by the workloads: one client, whole rounds.

Every operation is timed between two readings of a fixed reference (the
same code on every commit), and its latency is reported at a fixed
reference speed:

    normalized = raw / (mean of the two readings of the slowdown)

The machine's speed drifts by up to a third over minutes and the slowdown
is in the CPU's own speed (CPU time moves with wall time), so raw times of
the same code differ that much between two sets of runs.  The reference,
read right before and right after each operation, follows the drift; the
ratio does not.  See README.md, "Why timings are normalized".
"""

import math
import resource
import statistics
import sys
import time

REF_ITERATIONS = 12000
REF_REPEATS = 3  # each part of a reading is the fastest of three, so an interrupt does not count


def _reference_loop():
    """About 1 ms of a tight integer loop."""
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return s


def _reference_mix():
    """About 0.3 ms of varied interpreter work: arithmetic, a sort, dict and string use."""
    x, data = 12345, []
    for _ in range(400):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        data.append(x / 2147483647.0)
    data.sort()
    sums = {}
    for i, v in enumerate(data):
        key = "k%d" % (i % 50)
        sums[key] = sums.get(key, 0.0) + math.sqrt(v) * 1.5
    return sum(sums.values())


def _reference_alloc():
    """About 0.8 ms of allocating, filling and touching 8 MB, as large solves do."""
    import numpy as np

    a = np.ones(1 << 20)
    a *= 1.5
    return float(a[::4096].sum())


# part -> (code, its time at the reference speed: about this machine's when not slowed down)
REFERENCE = {
    "loop": (_reference_loop, 0.0010),
    "mix": (_reference_mix, 0.0003),
    "alloc": (_reference_alloc, 0.0008),
}
CPU_PARTS = ("loop", "mix")
MEMORY_PARTS = ("loop", "mix", "alloc")


def _fastest(fn):
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown(parts=CPU_PARTS):
    """One reading of the reference: the mean over its parts of each one's
    time over its time at the reference speed (1.0 at that speed).

    Slow phases of the machine do not slow all code alike, so the parts
    cover what the workloads do: interpreter work everywhere, and
    allocation and memory traffic where large solves dominate.
    """
    return sum(_fastest(REFERENCE[p][0]) / REFERENCE[p][1] for p in parts) / len(parts)


def normalize(raw_s, before, after):
    """Seconds at the reference speed, from the readings before and after."""
    return raw_s / (0.5 * (before + after))


class OpFailed(Exception):
    """An operation ended without a result (for example a non-zero exit)."""


class Op:
    """One operation of a round: `run()` does the work, `check(out)` lists problems."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check=None):
        self.label = label
        self.run = run
        self.check = check


class Outcome:
    """What a run measured: per-operation times and check results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rounds = 0
        self.completed = 0
        self.times = {}  # label -> normalized seconds, one per round
        self.raised = set()  # labels of operations that raised at least once
        self.busy_s = 0.0  # normalized seconds spent in all operations
        self.raw_busy_s = 0.0  # the same, unnormalized
        self.round_walls = []  # raw seconds per round, for the log

    def add(self, op, ok, raw, norm):
        self.times.setdefault(op.label, []).append(norm)
        if not ok:
            self.raised.add(op.label)
        self.completed += ok
        self.busy_s += norm
        self.raw_busy_s += raw


def timed(op_run, ref_before, workload):
    """Run one operation between two reference readings.

    Returns (output or the exception among `workload.errors` it raised, ok,
    raw seconds, normalized seconds, the reading after, which serves as the
    next operation's reading before).
    """
    t0 = time.perf_counter()
    try:
        out, ok = op_run(), True
    except workload.errors as exc:
        out, ok = exc, False
    raw = time.perf_counter() - t0
    ref_after = slowdown(workload.reference)
    return out, ok, raw, normalize(raw, ref_before, ref_after), ref_after


def run_rounds(workload, seconds):
    """Repeat whole rounds for about `seconds`: another round starts only
    while at least half of one still fits, so the number of rounds in a
    run does not flip when a round's time is close to `seconds`.

    Only the operations are timed.  Each round's outputs are checked after
    the round and then dropped, so memory does not grow with the run.
    """
    outcome = Outcome()
    t_start = time.perf_counter()
    while True:
        records = []
        t_round = time.perf_counter()
        ref = slowdown(workload.reference)
        for op in workload.round:
            out, ok, raw, norm, ref = timed(op.run, ref, workload)
            records.append((op, out, ok))
            outcome.add(op, ok, raw, norm)
        outcome.rounds += 1
        outcome.round_walls.append(time.perf_counter() - t_round)
        _evaluate_round(workload, records, outcome)
        if time.perf_counter() - t_start + 0.5 * outcome.round_walls[-1] >= seconds:
            return outcome


def _evaluate_round(workload, records, outcome):
    """An operation fails when it raised or when its own check finds a problem.

    Checks that need the whole round (orderings across operations) add
    problems without adding failures.
    """
    done = []
    for op, out, ok in records:
        outcome.attempted += 1
        if not ok:
            outcome.failed += 1
            outcome.problems.append("%s raised %s: %s" % (op.label, type(out).__name__, out))
            continue
        try:
            msgs = op.check(out) if op.check is not None else []
        except (KeyError, IndexError, TypeError, ValueError) as exc:  # unreadable output
            msgs = ["%s: malformed output (%s: %s)" % (op.label, type(exc).__name__, exc)]
        if msgs:
            outcome.failed += 1
            outcome.problems.extend(msgs)
        done.append((op, out))
    outcome.problems.extend(workload.check_round(done))


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_metrics(outcome):
    """Statistics over the round's operations of each one's median time across rounds.

    Every run holds whole rounds of the same operations, so taking each
    operation's median first makes the figures independent of how many
    rounds fit in the run, and keeps a burst of load that hits one
    execution out of them.  ops_per_s is the rate of a round made of those
    medians: operations completed per round over the round's time.
    """
    typical = {label: statistics.median(t) for label, t in outcome.times.items()}
    latencies = [t for label, t in typical.items() if label not in outcome.raised]
    if not latencies:
        return {}
    return {
        "ops_per_s": outcome.completed / outcome.rounds / sum(typical.values()),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": _p90(latencies),
    }


def _p90(values):
    """Linear interpolation between order statistics, as numpy's default percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def report_problems(problems, limit=10):
    for msg in problems[:limit]:
        sys.stderr.write("check failed: %s\n" % msg)
    if len(problems) > limit:
        sys.stderr.write("... and %d more\n" % (len(problems) - limit))
