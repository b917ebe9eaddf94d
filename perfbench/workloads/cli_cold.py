"""cli-cold: every operation is a fresh `python -m symcrit.cli` process.

The round is a fixed list of 18 commands: `interval` for the six
examples at their defaults (JSON) and at one seeded parameter point each
(CSV), `table` as CSV and JSON, a small direct `solve` and a small
`solve --example cylinder-triple`, and `expansion` at dim 6 and dim 4.
The seed picks the parameter points, the solve and expansion alphas and
the order of the round.  The harness process never imports symcrit.
"""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys

import oracle
from harness import CPU_PARTS, Op, OpFailed

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NEWTON_TOL = 1e-10
TWO_PI = 2.0 * math.pi


def _fmt(value):
    return repr(float(value)) if isinstance(value, float) else str(value)


def _param_flags(params):
    out = []
    for name, value in sorted(params.items()):
        out += ["--%s" % name, _fmt(value)]
    return out


def cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "symcrit.cli"] + argv, cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise OpFailed("exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:]))
    return proc.stdout


def _check_interval_json(example, params):
    def check(out):
        iv = json.loads(out)["interval"]
        return oracle.interval_problems(
            example, params, iv["lo"], iv["hi"], iv["lo_strict"], iv["hi_strict"], iv["count"]
        )
    return check


def _check_interval_csv(example, params):
    def check(out):
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != 1 or rows[0]["example"] != example:
            return ["interval csv %s: unexpected rows %r" % (example, rows)]
        row = rows[0]
        return oracle.interval_problems(
            example, params, float(row["lo"]), float(row["hi"]),
            row["lo_strict"] == "true", row["hi_strict"] == "true", int(row["count"]),
        )
    return check


def _check_table(fmt):
    def check(out):
        if fmt == "json":
            rows = json.loads(out)
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            for row in rows:
                row["lo"], row["hi"], row["count"] = float(row["lo"]), float(row["hi"]), int(row["count"])
                row["lo_strict"], row["hi_strict"] = row["lo_strict"] == "true", row["hi_strict"] == "true"
        if sorted(r["example"] for r in rows) != sorted(oracle.EXAMPLE_DEFAULTS):
            return ["table %s: rows do not cover the six examples" % fmt]
        problems = []
        for row in rows:
            ex = row["example"]
            problems += oracle.interval_problems(
                ex, oracle.EXAMPLE_DEFAULTS[ex], row["lo"], row["hi"],
                row["lo_strict"], row["hi_strict"], row["count"],
            )
        return problems
    return check


def _check_solve(tag, length, weight, alpha, p, threshold=None, nonconstant_below=None):
    def check(out):
        rep = json.loads(out)
        u = rep["u"]
        f = [1.0] * len(u)
        problems = []
        pr = rep["problem"]
        for name, want in (("length", length), ("weight", weight), ("alpha", alpha), ("p", p)):
            if not oracle.close(pr[name], want):
                problems.append("%s: problem %s %r != %r" % (tag, name, pr[name], want))
        problems += oracle.solution_problems(tag, u, f, length, weight, alpha, p, rep, NEWTON_TOL)
        if rep["classification"] != "nonconstant":
            problems.append("%s: expected a nonconstant minimizer" % tag)
        elif not rep["quotient_value"] < nonconstant_below:
            problems.append("%s: quotient %r not below the constant level %r"
                            % (tag, rep["quotient_value"], nonconstant_below))
        if threshold is not None:
            if rep["below_threshold"] is not True or not rep["quotient_value"] < threshold:
                problems.append("%s: quotient %r not below the threshold %r"
                                % (tag, rep["quotient_value"], threshold))
            if not oracle.close(rep["threshold"], threshold):
                problems.append("%s: threshold %r != closed form %r" % (tag, rep["threshold"], threshold))
        return problems
    return check


def _check_expansion(dim, alpha):
    def check(out):
        rep = json.loads(out)
        if dim == 4:
            return oracle.log_branch_problems("expansion dim 4", alpha, 0.0, None,
                                              rep["coeff"], rep["consistent"])
        return oracle.expansion_problems(
            "expansion dim %d" % dim, dim, alpha, 0.0, None, 1.0,
            rep["predicted_limit"], rep["predicted_c1"], rep["fitted_limit"], rep["fitted_c1"],
        )
    return check


class Workload:
    errors = (OpFailed,)
    rss_of_children = True
    reference = CPU_PARTS  # what the timing is normalized by (harness.py)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.argv = {}  # label -> argv, also read by the traced run's probes
        ops = []
        for ex, defaults in oracle.EXAMPLE_DEFAULTS.items():
            argv = ["interval", "--example", ex] + _param_flags(defaults)
            ops.append(self._op("interval:" + ex, argv, _check_interval_json(ex, defaults)))
            params = oracle.random_example_params(ex, rng)
            argv = ["interval", "--example", ex, "--format", "csv"] + _param_flags(params)
            ops.append(self._op("interval-point:" + ex, argv, _check_interval_csv(ex, params)))
        for fmt in ("csv", "json"):
            ops.append(self._op("table:" + fmt, ["table", "--format", fmt], _check_table(fmt)))

        alpha = rng.uniform(0.3, 0.45)
        argv = ["solve", "--length", repr(TWO_PI), "--p", "5", "--alpha", repr(alpha),
                "--grid", "128", "--profile"]
        ops.append(self._op("solve:direct", argv, _check_solve(
            "solve direct", TWO_PI, 1.0, alpha, 5.0,
            nonconstant_below=oracle.constant_quotient(TWO_PI, 1.0, alpha, 5.0))))

        n, t = 5, 40.0
        lo, hi = oracle.interval_closed_form("cylinder-triple", oracle.EXAMPLE_DEFAULTS["cylinder-triple"])[:2]
        mid = 0.5 * (lo + hi)
        p = (n + 2.0) / (n - 2.0)
        argv = ["solve", "--example", "cylinder-triple", "--index", "1", "--alpha", repr(mid),
                "--grid", "256", "--profile"]
        weight = oracle.sphere_volume(n - 1)
        ops.append(self._op("solve:cylinder-triple", argv, _check_solve(
            "solve cylinder-triple", TWO_PI * t, weight, mid, p,
            threshold=1.0 / oracle.sobolev_constant(n),
            nonconstant_below=oracle.constant_quotient(TWO_PI * t, weight, mid, p))))

        for dim in (6, 4):
            a = rng.uniform(0.8, 1.2)
            argv = ["expansion", "--dim", str(dim), "--delta", "1.0", "--alpha", repr(a),
                    "--orbit-volume", "1.0"]
            ops.append(self._op("expansion:dim%d" % dim, argv, _check_expansion(dim, a)))

        rng.shuffle(ops)
        self.round = ops

    def _op(self, label, argv, check):
        self.argv[label] = argv
        return Op(label, lambda: cli(argv), check)

    def warmup(self):
        cli(["interval", "--example", "hopf"])

    def check_round(self, done):
        return []
