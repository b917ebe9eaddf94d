"""fine-grid: in-process solves of `cylinder-triple` at its interval midpoint.

The round solves index 1 at grids 1024, 2048 and 4096 and index 2 at
grids 512, 1024 and 2048, with the default five starts: three grids per
index for the convergence check, two grids with both indices for the
energy ordering.  Index 2 at 4096 is left out so that a 15 s run holds
three rounds, and each solve's time is a median over them.  The seed
sets the order of the round; alpha is the midpoint of the closed-form
interval.  The random start keeps the solver's default seed: its cost
depends on that seed (with seed 1 the round ran 18-22 % faster than
with seeds 2 to 5), so a seeded start would make the figures depend on
the workload seed.
"""

import math
import random

import oracle
from harness import MEMORY_PARTS, Op

EXAMPLE = "cylinder-triple"
GRIDS = {1: (1024, 2048, 4096), 2: (512, 1024, 2048)}  # per index, coarse to fine
NEWTON_TOL = 1e-10


class Workload:
    rss_of_children = False
    reference = MEMORY_PARTS  # large solves: allocation and memory traffic too

    def __init__(self, seed):
        import symcrit
        from symcrit.errors import ConvergenceError, PreconditionError

        self.sc = symcrit
        self.errors = (ConvergenceError, PreconditionError)
        self.config = symcrit.SolveConfig(newton_tol=NEWTON_TOL)
        params = oracle.EXAMPLE_DEFAULTS[EXAMPLE]
        lo, hi = oracle.interval_closed_form(EXAMPLE, params)[:2]
        self.alpha = 0.5 * (lo + hi)
        n, t = params["n"], params["t"]
        self.p = (n + 2.0) / (n - 2.0)
        self.volume = 2.0 * math.pi * t * oracle.sphere_volume(n - 1)
        self.cfg = symcrit.example_configuration(EXAMPLE, **params)
        self.geometry = {}
        for index in (1, 2):
            a = params["a%d" % index]
            # reduction along the circle: length 2 pi t / a, weight a |S^{n-1}|,
            # minimal orbit volume a, so the threshold is a^{2/n} / K_n
            self.geometry[index] = (
                2.0 * math.pi * t / a,
                a * oracle.sphere_volume(n - 1),
                a ** (2.0 / n) / oracle.sobolev_constant(n),
            )
        ops = [
            Op("index%d:m%d" % (index, m), self._runner(index, m), self._checker(index, m))
            for index, grids in GRIDS.items() for m in grids
        ]
        random.Random(seed).shuffle(ops)
        self.round = ops

    def _runner(self, index, m):
        sc, cfg, alpha, config = self.sc, self.cfg, self.alpha, self.config
        return lambda: sc.minimize(sc.circle_reduction(cfg, index, alpha, grid=m), config)

    def _checker(self, index, m):
        length, weight, threshold = self.geometry[index]
        tag = "fine-grid index %d m=%d" % (index, m)

        def check(rep):
            pr = rep.problem
            problems = []
            for name, got, want in (("length", pr.length, length), ("weight", pr.weight, weight)):
                if not oracle.close(got, want):
                    problems.append("%s: reduced %s %r != %r" % (tag, name, got, want))
            reported = {
                "quotient_value": rep.quotient_value, "energy": rep.energy,
                "el_residual": rep.el_residual, "classification": rep.classification,
            }
            problems += oracle.solution_problems(
                tag, rep.u.tolist(), [1.0] * m, length, weight, self.alpha, self.p, reported, NEWTON_TOL
            )
            if rep.classification != "nonconstant":
                problems.append("%s: expected a nonconstant minimizer" % tag)
            if index == 1 and not (rep.below_threshold is True and rep.quotient_value < threshold):
                problems.append("%s: quotient %r not below the threshold %r"
                                % (tag, rep.quotient_value, threshold))
            return problems
        return check

    def warmup(self):
        self._runner(1, 512)()

    def check_round(self, done):
        """Three ordered energy levels per grid; second-order convergence in m."""
        got = {op.label: rep for op, rep in done}
        problems = []
        constant_energy = self.volume * self.alpha ** ((self.p + 1.0) / (self.p - 1.0))
        for m in sorted(set(GRIDS[1]) & set(GRIDS[2])):
            first, second = got.get("index1:m%d" % m), got.get("index2:m%d" % m)
            if first is None or second is None:
                continue
            e1, e2 = first.energy, second.energy
            if not e1 < e2 < constant_energy:
                problems.append("fine-grid m=%d: energies not ordered: %r, %r, constant %r"
                                % (m, e1, e2, constant_energy))
            if not (e2 - e1) / max(e1, e2) > 0.1:
                problems.append("fine-grid m=%d: relative energy gap %r not above 0.1" % (m, (e2 - e1) / e2))
        for index, grids in GRIDS.items():
            q = [got.get("index%d:m%d" % (index, m)) for m in grids]
            if None in q:
                continue
            q = [rep.quotient_value for rep in q]
            ratio = (q[0] - q[1]) / (q[1] - q[2]) if q[1] != q[2] else math.inf
            if not 3.5 < ratio < 4.5:
                problems.append("fine-grid index %d: quotient differences shrink by %r per halving of h, "
                                "not about 4 (second order)" % (index, ratio))
        return problems
