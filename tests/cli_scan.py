#!/usr/bin/env python3
"""Seeded scan of the command line: every call ends in a named refusal or a finite answer.

    python3 tests/cli_scan.py

Draws CALLS `interval`, `solve` and `expansion` calls from
random.Random(SEED) and runs each through symcrit.cli.main in this
process.  Floats are log-uniform in [1e-8, 1e8], with one in ten drawn
from SPECIAL instead; `solve` runs at grid 64 with p = 1 + 10^U(-4, 2).
A call passes when main returns 0, 2 or 3, or 1 with argparse's usage
message, and when the JSON it prints on exit 0 holds null only in the
fields documented as nullable (NULLABLE).  Exits 1 when any call raises out of main (a traceback) or
prints an undocumented null, listing the first calls of each kind.
Pytest does not collect this file.
"""

import collections
import contextlib
import io
import json
import math
import os
import random
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from symcrit.cli import main  # noqa: E402
from symcrit.geometry import EXAMPLE_IDS  # noqa: E402

CALLS, SEED = 3000, 7

SPECIAL = (0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e300, 1e308)

# fields whose null is documented: an orbit volume not given, the threshold it
# leaves missing and that threshold's verdict, and an unresolved c1's error bar
NULLABLE = frozenset(("orbit_volume", "threshold", "below_threshold", "c1_error"))

# the example flags and the integers each integer flag draws from
INTEGERS = (-1, 0, 1, 2, 3, 4, 5, 6, 7, 10, 50, 343, 401, 10**151)
PARAMS = (("n", int), ("t", float), ("a", float), ("b", float), ("a1", int), ("a2", int))


def real(rng):
    if rng.random() < 0.1:
        return rng.choice(SPECIAL)
    return 10.0 ** rng.uniform(-8.0, 8.0)


def flags(rng, pairs, chance):
    """--name value for each (name, value) pair drawn with probability chance."""
    argv = []
    for name, value in pairs:
        if rng.random() < chance:
            argv += ["--" + name, repr(value())]
    return argv


def example_flags(rng):
    return flags(rng, [(name, (lambda: rng.choice(INTEGERS)) if kind is int else (lambda: real(rng)))
                       for name, kind in PARAMS], 0.3)


def interval_call(rng):
    argv = ["interval", "--example", rng.choice(EXAMPLE_IDS), *example_flags(rng)]
    if rng.random() < 0.3:  # the profile's three values together, or a usage error
        argv += flags(rng, [("f-max", lambda: real(rng)), ("f-min", lambda: real(rng)),
                            ("f-avg", lambda: real(rng))], 0.95)
        argv += flags(rng, [("f-laplacian", lambda: real(rng)), ("f-vanishing-order", lambda: real(rng))], 0.3)
    return argv


def solve_call(rng):
    argv = ["solve", "--grid", "64", "--alpha", repr(real(rng))]
    if rng.random() < 0.3:
        argv += ["--example", rng.choice(EXAMPLE_IDS), "--index", rng.choice("12"), *example_flags(rng)]
    else:
        argv += ["--length", repr(real(rng)), "--p", repr(1.0 + 10.0 ** rng.uniform(-4.0, 2.0))]
        argv += flags(rng, [("weight", lambda: real(rng)), ("orbit-volume", lambda: real(rng))], 0.3)
    argv += flags(rng, [("f-value", lambda: real(rng)), ("newton-tol", lambda: real(rng))], 0.2)
    return argv


def expansion_call(rng):
    argv = ["expansion", "--dim", str(rng.choice((3, 4, 5, 6, 7, 8))), "--delta", repr(real(rng)),
            "--alpha", repr(real(rng)), "--orbit-volume", repr(real(rng))]
    argv += flags(rng, [("q", lambda: real(rng)), ("curvature", lambda: real(rng)),
                        ("f-peak", lambda: real(rng)), ("f-laplacian", lambda: real(rng))], 0.2)
    if rng.random() < 0.1:
        argv += ["--eps-min", repr(real(rng)), "--eps-max", repr(real(rng))]
    return argv


def undocumented_nulls(node, key=None):
    """The keys of the nulls in a parsed JSON value outside NULLABLE."""
    if node is None:
        return [] if key in NULLABLE else [key]
    if isinstance(node, dict):
        return [k for name, value in node.items() for k in undocumented_nulls(value, name)]
    if isinstance(node, list):
        return [k for value in node for k in undocumented_nulls(value, key)]
    return []


def run(argv):
    """(outcome, detail) of one call: ("exit N", None), ("traceback", text) or ("null", keys)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # noqa: BLE001 - any exception out of main is a traceback on the console
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return "traceback", "%s in %s (%s:%d)" % (type(exc).__name__, frame.name, os.path.basename(frame.filename),
                                                  frame.lineno)
    if code == 1 and "usage:" not in err.getvalue():
        return "traceback", "exit 1 without a usage message: %s" % err.getvalue().strip()
    if code not in (0, 1, 2, 3):
        return "traceback", "exit %r" % (code,)
    if code == 0:
        nulls = undocumented_nulls(json.loads(out.getvalue()))
        if nulls:
            return "null", "null in %s" % ", ".join(sorted(set(map(str, nulls))))
    return "exit %d" % code, None


def main_scan():
    rng = random.Random(SEED)
    draws = (interval_call, solve_call, expansion_call)
    counts = collections.Counter()
    bad = collections.defaultdict(list)
    t0 = time.perf_counter()
    with warnings_off():
        for _ in range(CALLS):
            call = rng.choice(draws)(rng)
            outcome, detail = run(call)
            counts[call[0], outcome] += 1
            if detail is not None:
                bad[outcome].append((detail, call))
    for (command, outcome), n in sorted(counts.items()):
        print("%-10s %-10s %5d" % (command, outcome, n))
    for outcome, cases in sorted(bad.items()):
        print("%d %s:" % (len(cases), outcome))
        for detail, call in cases[:10]:
            print("  %s: symcrit %s" % (detail, " ".join(call)))
    print("%d calls, %d tracebacks, %d undocumented nulls in %.1f s"
          % (CALLS, len(bad["traceback"]), len(bad["null"]), time.perf_counter() - t0))
    return 1 if bad else 0


@contextlib.contextmanager
def warnings_off():
    """numpy's floating-point warnings silenced, as a console run prints and ignores them."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


if __name__ == "__main__":
    sys.exit(main_scan())
