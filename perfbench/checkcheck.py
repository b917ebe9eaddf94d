#!/usr/bin/env python3
"""Check of the checks: every workload's output checks reject corrupted outputs.

    python3 perfbench/checkcheck.py

For each workload it produces genuine outputs with the program, confirms
the checks pass them, then corrupts them the way a faulty program might
(a perturbed endpoint, a wrong classification, a swapped energy order,
a wrong coefficient, a flipped verdict, ...) and confirms the checks
reject each one.  Exits 1 if any genuine output is rejected or any
corrupted one passes.  Takes about a minute.
"""

import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
os.environ["PYTHONPATH"] = os.path.join(os.getcwd(), "src")

import harness  # noqa: E402
from workloads import cli_cold, fine_grid, lab, sweep  # noqa: E402

RESULTS = []


def expect(name, problems, should_fail):
    ok = bool(problems) == should_fail
    RESULTS.append(ok)
    verdict = ("rejected" if problems else "accepted") + ("" if ok else "   <-- WRONG")
    print("  %-62s %s" % (name, verdict))


def harness_check(op, out):
    """The problems the harness records for `out`, including unreadable output."""
    outcome = harness.Outcome()
    harness._evaluate_round(NoRoundChecks, [(op, out, True)], outcome)
    return outcome.problems


class NoRoundChecks:
    @staticmethod
    def check_round(done):
        return []


def op_by_label(workload, prefix):
    return next(op for op in workload.round if op.label.startswith(prefix))


def json_edit(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def check_cli_cold():
    print("cli-cold")
    w = cli_cold.Workload(1)
    cases = {
        "interval:hopf": [
            ("hopf lo off by 1e-9", lambda d: d["interval"].update(lo=d["interval"]["lo"] * (1 + 1e-9))),
            ("hopf upper end made closed", lambda d: d["interval"].update(hi_strict=False)),
        ],
        "interval:cylinder-triple": [
            ("cylinder-triple gap dropped from lo",
             lambda d: d["interval"].update(lo=d["interval"]["hi"] + 2.0 ** 2 / (4.0 * 40.0**2))),
        ],
        "table:json": [("table row hi swapped with lo", lambda d: d[0].update(hi=d[0]["lo"]))],
        "solve:direct": [
            ("solve classified constant", lambda d: d.update(classification="constant")),
            ("solve energy off by 1e-6", lambda d: d.update(energy=d["energy"] * (1 + 1e-6))),
            ("solve profile perturbed", lambda d: d["u"].__setitem__(3, d["u"][3] * 1.001)),
            ("solve residual above tolerance", lambda d: d.update(el_residual=1e-8)),
        ],
        "solve:cylinder-triple": [
            ("threshold flag cleared", lambda d: d.update(below_threshold=False)),
        ],
        "expansion:dim6": [
            ("predicted c1 off by 1e-9", lambda d: d.update(predicted_c1=d["predicted_c1"] * (1 + 1e-9))),
            ("fitted c1 off by 20%", lambda d: d.update(fitted_c1=d["fitted_c1"] * 1.2)),
            ("fitted limit off by 1e-2", lambda d: d.update(fitted_limit=d["fitted_limit"] * 1.01)),
        ],
        "expansion:dim4": [("dim-4 marked inconsistent", lambda d: d.update(consistent=False))],
    }
    for label, corruptions in cases.items():
        op = op_by_label(w, label)
        out = op.run()
        expect("genuine " + label, op.check(out), False)
        for name, edit in corruptions:
            expect(name, op.check(json_edit(out, edit)), True)
    op = op_by_label(w, "interval-point:hopf")
    out = op.run()
    expect("genuine interval-point:hopf (csv)", op.check(out), False)
    header, row = out.strip().splitlines()
    cells = row.split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    expect("csv lo off by 1e-9", op.check(header + "\n" + ",".join(cells)), True)
    expect("truncated output", harness_check(op, out[: len(out) // 2]), True)


def check_sweep():
    print("sweep")
    w = sweep.Workload(1)
    high = op_by_label(w, "flat:m96:alpha0.5375")
    low = op_by_label(w, "flat:m96:alpha0.0625")
    weighted = op_by_label(w, "weighted:m128:alpha0.3625")
    reps = {op: op.run() for op in (high, low, weighted)}
    for op, rep in reps.items():
        expect("genuine " + op.label, op.check(rep), False)
    expect("above 1/4 classified constant",
           high.check(dataclasses.replace(reps[high], classification="constant")), True)
    expect("below 1/4 classified nonconstant",
           low.check(dataclasses.replace(reps[low], classification="nonconstant")), True)
    expect("constant branch scaled by 1e-6",
           low.check(dataclasses.replace(reps[low], u=reps[low].u * (1 + 1e-6))), True)
    expect("energy off by 1e-7", high.check(dataclasses.replace(reps[high], energy=reps[high].energy * (1 + 1e-7))), True)
    expect("weighted solve classified constant",
           weighted.check(dataclasses.replace(reps[weighted], classification="constant")), True)
    # round check: the f = 1 labels along alpha must flip once, near 1/4
    done = [(op, op.run()) for op in w.round if op.label.startswith("flat:m96:")]
    expect("genuine flat m=96 sequence", [p for p in w.check_round(done) if "m=96" in p], False)
    flipped = [(op, dataclasses.replace(rep, classification="nonconstant") if rep.problem.alpha < 0.1 else rep)
               for op, rep in done]
    expect("label sequence flipping twice", [p for p in w.check_round(flipped) if "m=96" in p], True)


def check_fine_grid():
    print("fine-grid")
    w = fine_grid.Workload(1)
    done = [(op, op.run()) for op in w.round]
    expect("genuine round", w.check_round(done) + [p for op, rep in done for p in op.check(rep)], False)
    got = {op.label: (op, rep) for op, rep in done}
    op1, rep1 = got["index1:m2048"]
    op2, rep2 = got["index2:m2048"]
    swapped = [(op, dataclasses.replace(rep2, problem=rep1.problem) if op is op1 else
                dataclasses.replace(rep1, problem=rep2.problem) if op is op2 else rep) for op, rep in done]
    expect("first and second energies swapped", w.check_round(swapped), True)
    q1024, q2048 = got["index1:m1024"][1].quotient_value, got["index1:m2048"][1].quotient_value
    first_order = q2048 + (q2048 - q1024) / 2.0  # error shrinking like h, not h^2
    scaled = [(op, dataclasses.replace(rep, quotient_value=first_order) if op.label == "index1:m4096" else rep)
              for op, rep in done]
    expect("quotients converging at first order", w.check_round(scaled), True)
    expect("first solution above its threshold",
           op1.check(dataclasses.replace(rep1, below_threshold=False)), True)
    expect("energy identity broken", op1.check(dataclasses.replace(rep1, energy=rep1.energy * 1.01)), True)


def check_lab():
    print("lab")
    w = lab.Workload(1)
    fit = next(op for op in w.round if op.label.startswith("fit:lab fit dim=6"))
    rep = fit.run()
    expect("genuine " + fit.label, fit.check(rep), False)
    expect("fitted c1 with the wrong sign", fit.check(dataclasses.replace(rep, fitted_c1=-rep.fitted_c1)), True)
    expect("dim-6 fitted c1 off by 20%", fit.check(dataclasses.replace(rep, fitted_c1=1.2 * rep.fitted_c1)), True)
    expect("predicted c1 off by 1e-9",
           fit.check(dataclasses.replace(rep, predicted_c1=rep.predicted_c1 * (1 + 1e-9))), True)
    dim4 = next(op for op in w.round if op.label.startswith("fit:lab fit dim=4"))
    rep4 = dim4.run()
    expect("genuine " + dim4.label, dim4.check(rep4), False)
    expect("dim-4 log coefficient off", dim4.check(dataclasses.replace(rep4, coeff=rep4.coeff + 1e-6)), True)

    scan = next(op for op in w.round if op.label.startswith("scan:"))
    intervals, routes, orderings, ratios = scan.run()
    expect("genuine " + scan.label, scan.check((intervals, routes, orderings, ratios)), False)
    bad = list(intervals)
    bad[7] = dataclasses.replace(bad[7], lo=bad[7].lo * (1 + 1e-10))
    expect("one interval endpoint perturbed by 1e-10", scan.check((bad, routes, orderings, ratios)), True)
    bad = list(intervals)
    bad[3] = dataclasses.replace(bad[3], hi_strict=not bad[3].hi_strict)
    expect("one interval's strictness flipped", scan.check((bad, routes, orderings, ratios)), True)
    g, c, g2, i = routes[0]
    bad_routes = [(g, dataclasses.replace(c, lo=c.lo + 1e-6 * abs(c.lo) + 1e-12), g2, i)] + routes[1:]
    expect("generic and critical routes disagree", scan.check((intervals, bad_routes, orderings, ratios)), True)
    rep = orderings[0]
    verdict = dataclasses.replace(rep.pairs[0], separated=not rep.pairs[0].separated)
    bad_orderings = [dataclasses.replace(rep, pairs=(verdict,))] + orderings[1:]
    expect("energy ordering verdict flipped", scan.check((intervals, routes, bad_orderings, ratios)), True)
    bad_ratios = [dataclasses.replace(ratios[0], holds=not ratios[0].holds)] + ratios[1:]
    expect("peak-ratio verdict flipped", scan.check((intervals, routes, orderings, bad_ratios)), True)


def main():
    check_cli_cold()
    check_sweep()
    check_fine_grid()
    check_lab()
    wrong = RESULTS.count(False)
    print("%d cases, %d wrong" % (len(RESULTS), wrong))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
