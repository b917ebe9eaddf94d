"""sweep: in-process solves of the model circle problem.

Length 2 pi, transverse weight 1, p = 5, starts `constant` and `cos1`.
The round solves 20 alphas (midpoints of 20 equal steps across
[0.05, 0.55]) with f = 1 at grids 96 and 256, and with the smooth weight
f(s) = 1 + 0.15 cos(s) at grid 128.  The seed orders the round.  With
f = 1 the minimizer is the constant alpha^{1/4} below
(p - 1) alpha = (2 pi / L)^2, that is alpha = 1/4, and nonconstant above.

The weight is fixed, not drawn from the seed: across phases and
amplitudes of such weights the cost of the 20 solves varies threefold,
and some of them make the solver fail (see CHANGES.md), so a seeded
weight would make both the figures and the failures depend on the seed.
"""

import math
import random

import oracle
from harness import CPU_PARTS, Op

LENGTH = 2.0 * math.pi
P = 5.0
STEP = 0.025
ALPHAS = tuple(0.05 + (i + 0.5) * STEP for i in range(20))
CASES = (("flat", 96), ("flat", 256), ("weighted", 128))
WEIGHT_AMPLITUDE = 0.15
BIFURCATION = 0.25
NEWTON_TOL = 1e-10


class Workload:
    rss_of_children = False
    reference = CPU_PARTS  # what the timing is normalized by (harness.py)

    def __init__(self, seed):
        import numpy as np
        import symcrit
        from symcrit.errors import ConvergenceError, PreconditionError

        self.sc = symcrit
        self.errors = (ConvergenceError, PreconditionError)
        self.config = symcrit.SolveConfig(seed=seed, starts=("constant", "cos1"), newton_tol=NEWTON_TOL)
        self.warmup_op = self._runner(ALPHAS[0], np.ones(CASES[0][1]))
        ops = []
        for kind, m in CASES:
            if kind == "flat":
                f = np.ones(m)
            else:
                f = 1.0 + WEIGHT_AMPLITUDE * np.cos(np.arange(m) * (LENGTH / m))
            for alpha in ALPHAS:
                ops.append(Op("%s:m%d:alpha%.4f" % (kind, m, alpha),
                              self._runner(alpha, f), self._checker(kind, m, alpha, f)))
        random.Random(seed).shuffle(ops)
        self.round = ops

    def _runner(self, alpha, f):
        sc, config = self.sc, self.config
        return lambda: sc.minimize(sc.ReducedProblem(LENGTH, 1.0, alpha, P, f), config)

    def _checker(self, kind, m, alpha, f):
        f_list = f.tolist()
        tag = "sweep %s m=%d alpha=%.4f" % (kind, m, alpha)

        def check(rep):
            u = rep.u.tolist()
            reported = {
                "quotient_value": rep.quotient_value, "energy": rep.energy,
                "el_residual": rep.el_residual, "classification": rep.classification,
            }
            problems = oracle.solution_problems(tag, u, f_list, LENGTH, 1.0, alpha, P, reported, NEWTON_TOL)
            label = rep.classification
            if kind == "weighted":
                if label != "nonconstant":
                    problems.append("%s: a nonconstant weight has no constant solution" % tag)
            elif alpha < BIFURCATION - STEP:
                c = alpha ** (1.0 / (P - 1.0))
                if label != "constant" or max(abs(x - c) for x in u) > 1e-8 * c:
                    problems.append("%s: expected the constant branch %r" % (tag, c))
            elif alpha > BIFURCATION + STEP:
                level = oracle.constant_quotient(LENGTH, 1.0, alpha, P)
                if label != "nonconstant" or not rep.quotient_value < level:
                    problems.append("%s: expected a nonconstant minimizer below %r" % (tag, level))
            return problems
        return check

    def warmup(self):
        self.warmup_op()

    def check_round(self, done):
        """With f = 1 the labels along alpha flip once, within one step of 1/4."""
        problems = []
        for m in (m for kind, m in CASES if kind == "flat"):
            pts = sorted(
                (rep.problem.alpha, rep.classification)
                for op, rep in done if op.label.startswith("flat:m%d:" % m)
            )
            labels = [lbl for _, lbl in pts]
            if "nonconstant" not in labels or "constant" not in labels:
                problems.append("sweep m=%d: no flip in %r" % (m, labels))
                continue
            first = labels.index("nonconstant")
            if any(lbl != "nonconstant" for lbl in labels[first:]):
                problems.append("sweep m=%d: labels flip more than once: %r" % (m, labels))
            boundary = 0.5 * (pts[first - 1][0] + pts[first][0])
            if abs(boundary - BIFURCATION) > STEP:
                problems.append("sweep m=%d: flip at %r, not within one step of 1/4" % (m, boundary))
        return problems
