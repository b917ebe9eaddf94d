"""lab: in-process expansion fits and a dense scan of the interval engine.

The round has two kinds of operation.
- `fit`: one `fit_and_compare` for dim 5-8 x three alphas x q in
  {-1, 0, 2} x flat or round curvature (72 fits), plus four
  `log_branch_sign` runs at dim 4.  The seed jitters each alpha by up to
  10 % and picks each round curvature in [0.05, 0.2].
- `scan`: one batch of interval work on seeded inputs: `example_interval`
  at 100 parameter points of each of the six examples, four generic-versus-
  direct route pairs, two `energy_ordering_check` calls and the three
  `f_ratio_condition` examples.
The seed also orders the round.
"""

import math
import random

import oracle
from harness import CPU_PARTS, Op

FIT_DIMS = (5, 6, 7, 8)
FIT_ALPHAS = (0.5, 1.0, 2.0)
FIT_QS = (-1.0, 0.0, 2.0)
SCAN_OPS = 40
POINTS_PER_EXAMPLE = 100
ROUTE_PAIRS = 4
ORDERINGS = 2


def _same_interval(tag, a, b):
    problems = []
    for name in ("lo", "hi"):
        x, y = getattr(a, name), getattr(b, name)
        if not (x == y or math.isclose(x, y, rel_tol=oracle.REL_TIGHT, abs_tol=0.0)):
            problems.append("%s: %s %r != %r" % (tag, name, x, y))
    for name in ("lo_strict", "hi_strict", "count"):
        if getattr(a, name) != getattr(b, name):
            problems.append("%s: %s differs" % (tag, name))
    return problems


def route_inputs(sc, rng):
    """Arguments of generic_interval and of the direct route it specializes to,
    for the critical and for the invariant route, on one random family."""
    orbit1 = 10.0 ** rng.uniform(-1.0, 1.0)
    orbit2 = orbit1 * (1.0 + 10.0 ** rng.uniform(-3.0, 1.0))
    volume = 10.0 ** rng.uniform(0.0, 3.0)
    f = None
    if rng.random() < 0.75:
        f_min = rng.uniform(0.1, 1.0)
        f_avg = f_min * (1.0 + rng.uniform(0.0, 2.0))
        f_max = f_avg * (1.0 + rng.uniform(0.0, 3.0))
        f = sc.FProfile(f_max, f_min, f_avg, f_max, 0.0, math.inf)
    sec_lo = rng.uniform(0.1, 20.0)
    sec = sc.ConstantBound(sec_lo, sec_lo + rng.uniform(0.0, 10.0))
    n = rng.randint(5, 12)
    params = sc.EquationParams(n, rng.randint(0, n - 5))
    amb_lo = rng.uniform(0.1, 20.0)
    amb = sc.ConstantBound(amb_lo, amb_lo + rng.uniform(0.0, 10.0))
    ineq = sc.GenericIneqParams(2.0 * n / (n - 2.0), oracle.sobolev_constant(n), amb.hi)
    n2 = rng.randint(7, 12)
    params2 = sc.EquationParams(n2, rng.randint(0, n2 - 5))
    N2 = n2 - params2.k
    ineq2 = sc.GenericIneqParams(2.0 * N2 / (N2 - 2.0), oracle.sobolev_constant(N2) / orbit2 ** (2.0 / N2), sec.hi)
    family = (orbit1, orbit2, volume, f)
    return (
        (params, ineq, sec) + family,
        (params, amb, sec) + family,
        (params2, ineq2, sec) + family,
        (params2, sec) + family,
        "lab routes n=%d/%d orbits %r, %r" % (n, n2, orbit1, orbit2),
    )


class Workload:
    rss_of_children = False
    reference = CPU_PARTS  # what the timing is normalized by (harness.py)

    def __init__(self, seed):
        import symcrit
        from symcrit.errors import ConvergenceError, PreconditionError

        self.sc = symcrit
        self.errors = (ConvergenceError, PreconditionError)
        rng = random.Random(seed)
        self.scan_inputs = []  # (points, routes) of each scan, also read by the traced run's probes
        ops = []
        for dim in FIT_DIMS:
            for base in FIT_ALPHAS:
                for q in FIT_QS:
                    for curved in (False, True):
                        alpha = base * rng.uniform(0.9, 1.1)
                        curv = rng.uniform(0.05, 0.2) if curved else None
                        ops.append(self._fit_op(dim, alpha, q, curv))
        for q in (-1.0, 0.0):
            for curved in (False, True):
                ops.append(self._fit_op(4, rng.uniform(0.5, 2.0), q, rng.uniform(0.05, 0.2) if curved else None))
        ops += [self._scan_op(i, rng) for i in range(SCAN_OPS)]
        self.warmup_ops = (ops[0], ops[-1])  # one fit and one scan, before shuffling
        rng.shuffle(ops)
        self.round = ops

    # -- expansion -----------------------------------------------------------

    def _fit_op(self, dim, alpha, q, curv):
        sc = self.sc
        config = sc.ExpansionConfig(dim=dim, delta=1.0, alpha=alpha, orbit_volume=1.0,
                                    vh_quadratic_coeff=q, curvature=curv)
        tag = "lab fit dim=%d alpha=%.4f q=%g curvature=%r" % (dim, alpha, q, curv)
        if dim == 4:
            return Op("fit:" + tag, lambda: sc.log_branch_sign(config),
                      lambda rep: oracle.log_branch_problems(tag, alpha, q, curv, rep.coeff, rep.consistent))
        return Op("fit:" + tag, lambda: sc.fit_and_compare(config),
                  lambda rep: oracle.expansion_problems(
                      tag, dim, alpha, q, curv, 1.0, rep.predicted_limit, rep.predicted_c1,
                      rep.fitted_limit, rep.fitted_c1))

    # -- interval engine -------------------------------------------------------

    def _scan_op(self, index, rng):
        sc = self.sc
        points = [
            (ex, oracle.random_example_params(ex, rng))
            for ex in oracle.EXAMPLE_DEFAULTS for _ in range(POINTS_PER_EXAMPLE)
        ]
        routes = [route_inputs(sc, rng) for _ in range(ROUTE_PAIRS)]
        orderings = [self._ordering_inputs(rng) for _ in range(ORDERINGS)]
        ratios = []
        for ex in ("sphere-quotients", "cylinder-weighted", "triple-product"):
            params = oracle.random_example_params(ex, rng)
            f_min = rng.uniform(0.2, 1.0)
            f_avg = f_min * rng.uniform(1.0, 2.0)
            f_max = f_avg * rng.uniform(1.0, 4.0)
            ratios.append((ex, params, sc.FProfile(f_max, f_min, f_avg, f_max, 0.0, math.inf)))
        self.scan_inputs.append((points, routes))

        def run():
            return (
                [sc.example_interval(ex, **params) for ex, params in points],
                [(sc.generic_interval(*gen), sc.critical_interval(*crit), sc.generic_interval(*gen2),
                  sc.invariant_interval(*inv)) for gen, crit, gen2, inv, _ in routes],
                [sc.energy_ordering_check(*args) for args, _ in orderings],
                [sc.f_ratio_condition(ex, f, **params) for ex, params, f in ratios],
            )

        def check(out):
            intervals, route_out, ordering_out, ratio_out = out
            problems = []
            for (ex, params), iv in zip(points, intervals):
                problems += oracle.interval_problems(ex, params, iv.lo, iv.hi, iv.lo_strict, iv.hi_strict, iv.count)
            for (g, c, g2, i), (*_, tag) in zip(route_out, routes):
                problems += _same_interval(tag + " generic vs critical", g, c)
                problems += _same_interval(tag + " generic vs invariant", g2, i)
            for rep, (args, want) in zip(ordering_out, orderings):
                for verdict in rep.pairs:
                    lhs, rhs = want[(verdict.small, verdict.large)]
                    if not (oracle.close(verdict.lhs, lhs) and oracle.close(verdict.rhs, rhs)):
                        problems.append("lab ordering %r: sides %r, %r != %r, %r"
                                        % (args[2], verdict.lhs, verdict.rhs, lhs, rhs))
                    elif verdict.separated != (verdict.lhs > verdict.rhs):
                        problems.append("lab ordering %r: verdict disagrees with its sides" % (args[2],))
            for chk, (ex, params, f) in zip(ratio_out, ratios):
                lhs, rhs = oracle.f_ratio_sides(ex, params, f.f_max / f.f_avg)
                if not (oracle.close(chk.lhs, lhs) and oracle.close(chk.rhs, rhs)):
                    problems.append("lab f-ratio %s %r: sides %r, %r != %r, %r"
                                    % (ex, params, chk.lhs, chk.rhs, lhs, rhs))
                elif chk.holds != (chk.lhs >= chk.rhs):
                    problems.append("lab f-ratio %s: verdict disagrees with its sides" % ex)
            return problems

        return Op("scan:%d" % index, run, check)

    def _ordering_inputs(self, rng):
        """Two cylinder-triple groups at an alpha inside the admissibility window."""
        sc = self.sc
        n = rng.choice((5, 6))
        t = rng.uniform(15.0, 40.0)
        a1, a2 = rng.choice(((1, 2), (2, 3)))
        base = (n - 2.0) ** 2 / 4.0

        def window(r):
            return base, base + 1.0 / (4.0 * r * r)

        floor = n * (n - 4.0) / (n - 2.0) ** 2 * window(t)[1]
        alpha = rng.uniform(floor, base)
        volume = 2.0 * math.pi * t * oracle.sphere_volume(n - 1)
        groups = [(float(a), sc.ConstantBound(*window(t / a))) for a in (a1, a2)]
        args = (sc.EquationParams(n, 0), groups, alpha, sc.ConstantBound(*window(t)), volume)
        want = {(0, 1): oracle.ordering_sides(n, 0, a1, a2, window(t / a2)[1], alpha, volume)}
        return args, want

    def warmup(self):
        for op in self.warmup_ops:
            op.run()

    def check_round(self, done):
        return []
