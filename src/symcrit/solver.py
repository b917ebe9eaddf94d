"""Variational solver for the circle-reduced equation.

Minimizes the scale-invariant quotient

    Q(u) = ( w int |u'|^2 + alpha u^2 ds ) / ( w int f u^{q} ds )^{2/q},
    q = p + 1,

over positive periodic functions on a circle of length `length`, then
rescales the minimizer so it solves  -u'' + alpha u = f u^p  and
polishes it with a damped Newton iteration.  `weight` is the constant
transverse volume carried by the reduction, so all quantities match the
ambient manifold's conventions (w * length = total volume when f = 1).

Discretization on m uniform nodes: forward differences for the
Dirichlet term, nodal quadrature elsewhere.  The discrete
Euler-Lagrange system of this discrete functional has the standard
3-point Laplacian, so the identity  energy = Q^{N/2}  with
N = 2 (p+1)/(p-1) survives discretization exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ._lazy import lazy_import
from .constants import _concentration_threshold
from .errors import ConvergenceError, PreconditionError
from .geometry import _EXAMPLES

__all__ = [
    "ReducedProblem",
    "SolveConfig",
    "SolveReport",
    "BoundCheck",
    "SeparationReport",
    "circle_reduction",
    "quotient_value",
    "quotient_gradient",
    "energy",
    "el_residual",
    "constant_solution",
    "minimize",
    "proof_chain_diagnostics",
    "energy_separation",
]

MIN_GRID = 64

np = lazy_import("numpy")
# scipy.sparse.linalg, bound by the first Newton solve; a module global so that
# perfbench/tracing.py can wrap solver.spla.spsolve by name
spla = None


@dataclass(eq=False)
class ReducedProblem:
    """One circle-reduced equation -u'' + alpha u = f u^p."""

    length: float
    weight: float
    alpha: float
    p: float
    f_samples: np.ndarray
    orbit_volume: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise PreconditionError("circle length must be positive and finite")
        if not (math.isfinite(self.weight) and self.weight > 0.0):
            raise PreconditionError("transverse weight must be positive and finite")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise PreconditionError("alpha must be positive and finite")
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise PreconditionError("exponent p must be > 1 and finite")
        f = np.asarray(self.f_samples, dtype=float)
        if f.ndim != 1 or f.size < MIN_GRID:
            raise PreconditionError("f_samples must be a 1-d array with at least %d nodes" % MIN_GRID)
        if not np.all(np.isfinite(f)) or not np.all(f > 0.0):
            raise PreconditionError("f samples must be positive and finite")
        f = f.copy()
        f.flags.writeable = False
        self.f_samples = f
        if self.orbit_volume is not None and not (
            math.isfinite(self.orbit_volume) and self.orbit_volume > 0.0
        ):
            raise PreconditionError("orbit volume must be positive and finite when given")

    @property
    def m(self):
        return self.f_samples.size

    @property
    def h(self):
        return self.length / self.m

    @property
    def two_sharp(self):
        return self.p + 1.0

    @property
    def reduced_dim(self):
        """Dimension in which the exponent p is critical."""
        return 2.0 * (self.p + 1.0) / (self.p - 1.0)

    @property
    def threshold(self):
        """Quotient level below which minimizing sequences cannot concentrate.

        None when no orbit volume was supplied or the effective
        dimension is not an integer >= 3.
        """
        if self.orbit_volume is None:
            return None
        N = self.reduced_dim
        n_int = round(N)
        if abs(N - n_int) > 1e-9 or n_int < 3:
            return None
        return _concentration_threshold(self.orbit_volume, n_int, float(self.f_samples.max()))

    def grid(self):
        return np.arange(self.m) * self.h

    def to_json(self):
        return {
            "length": self.length,
            "weight": self.weight,
            "alpha": self.alpha,
            "p": self.p,
            "grid": int(self.m),
            "orbit_volume": self.orbit_volume,
        }


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0
    starts: tuple = ("constant", "cos1", "cos2", "cos3", "random")
    descent_max_iter: int = 2000
    descent_tol: float = 1e-6
    newton_max_iter: int = 50
    newton_tol: float = 1e-10
    positivity_floor: float = 1e-12
    oscillation_tol: float = 1e-7

    def __post_init__(self):
        if not self.starts:
            raise PreconditionError("starts needs at least one start label")
        for label in self.starts:
            if label not in ("constant", "random") and not (
                label.startswith("cos") and label[3:].isdigit()
            ):
                raise PreconditionError(
                    "starts has an unknown start label %r (known: constant, cos<mode>, random)"
                    % (label,)
                )
        for name in ("seed", "descent_max_iter", "newton_max_iter"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 0):
                raise PreconditionError("%s must be an integer >= 0, got %r" % (name, value))
        for name in ("descent_tol", "newton_tol", "positivity_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise PreconditionError("%s must be positive and finite, got %r" % (name, value))
        if not (math.isfinite(self.oscillation_tol) and self.oscillation_tol >= 0.0):
            raise PreconditionError(
                "oscillation_tol must be finite and >= 0, got %r" % (self.oscillation_tol,)
            )


def circle_reduction(config, index, alpha, grid=256, f_samples=None):
    """Reduced problem of one packaged example along its circle factor.

    index selects the group (1 or 2).  Only configurations whose
    invariant functions may depend on the circle coordinate reduce; a
    group that forces functions constant along the circle is rejected.
    """
    if index not in (1, 2):
        raise PreconditionError("index must be 1 or 2")
    record = _EXAMPLES.get(config.example)
    if record is None or record.circle is None:
        raise PreconditionError(
            "example %r has no circle factor to reduce along" % (config.example,)
        )
    length, weight, orbit = record.circle(config, index)
    if f_samples is None:
        f_samples = np.ones(int(grid))
    return ReducedProblem(
        length=length,
        weight=weight,
        alpha=alpha,
        p=config.params.exponent,
        f_samples=f_samples,
        orbit_volume=orbit,
    )


def _dirichlet(problem, u):
    du = (np.roll(u, -1) - u) / problem.h
    return problem.weight * problem.h * float(np.dot(du, du))


def _mass2(problem, u):
    return problem.weight * problem.h * float(np.dot(u, u))


def energy(problem, u):
    """w int f u^{p+1} ds; equals Q^{N/2} at a solution."""
    u = np.asarray(u, dtype=float)
    return problem.weight * problem.h * float(
        np.dot(problem.f_samples, np.abs(u) ** problem.two_sharp)
    )


def quotient_value(problem, u):
    u = np.asarray(u, dtype=float)
    den = energy(problem, u)
    if not den > 0.0:
        raise PreconditionError("quotient undefined: f-weighted integral vanishes")
    num = _dirichlet(problem, u) + problem.alpha * _mass2(problem, u)
    return num / den ** (2.0 / problem.two_sharp)


def _lap(u, h):
    return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (h * h)


def quotient_gradient(problem, u):
    """Gradient of quotient_value with respect to the nodal values."""
    u = np.asarray(u, dtype=float)
    h, w, q = problem.h, problem.weight, problem.two_sharp
    den = energy(problem, u)
    num = _dirichlet(problem, u) + problem.alpha * _mass2(problem, u)
    gnum = 2.0 * w * h * (-_lap(u, h) + problem.alpha * u)
    gden = q * w * h * problem.f_samples * np.abs(u) ** (q - 2.0) * u
    return (gnum - (2.0 / q) * (num / den) * gden) / den ** (2.0 / q)


def el_residual(problem, u):
    """sup | -u'' + alpha u - f u^p | on the nodes."""
    u = np.asarray(u, dtype=float)
    r = -_lap(u, problem.h) + problem.alpha * u - problem.f_samples * np.abs(u) ** (
        problem.p - 1.0
    ) * u
    return float(np.max(np.abs(r)))


def _classify(u, tol):
    lo, hi = float(u.min()), float(u.max())
    return "nonconstant" if (hi - lo) > tol * hi else "constant"


def _report(problem, u, label, iters, config):
    u = np.asarray(u, dtype=float)
    q = quotient_value(problem, u)
    thr = problem.threshold
    return SolveReport(
        problem=problem,
        u=u,
        quotient_value=q,
        energy=energy(problem, u),
        el_residual=el_residual(problem, u),
        classification=_classify(u, config.oscillation_tol),
        newton_iterations=iters,
        start_label=label,
        threshold=thr,
        below_threshold=None if thr is None else q < thr,
    )


@dataclass(eq=False)
class SolveReport:
    problem: ReducedProblem
    u: np.ndarray
    quotient_value: float
    energy: float
    el_residual: float
    classification: str
    newton_iterations: int
    start_label: str
    threshold: float | None
    below_threshold: bool | None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).copy()
        u.flags.writeable = False
        self.u = u

    def to_json(self, include_profile=False):
        d = {
            "problem": self.problem.to_json(),
            "quotient_value": self.quotient_value,
            "energy": self.energy,
            "el_residual": self.el_residual,
            "classification": self.classification,
            "newton_iterations": self.newton_iterations,
            "start_label": self.start_label,
            "threshold": self.threshold,
            "below_threshold": self.below_threshold,
        }
        if include_profile:
            d["s"] = list(self.problem.grid())
            d["u"] = list(self.u)
        return d


def constant_solution(problem, config=None):
    """Closed-form constant solution (alpha/f)^{1/(p-1)}; needs constant f."""
    config = config or SolveConfig()
    f = problem.f_samples
    if float(f.max() - f.min()) != 0.0:
        raise PreconditionError("the constant solution needs a constant weight f")
    c = (problem.alpha / float(f[0])) ** (1.0 / (problem.p - 1.0))
    return _report(problem, np.full(problem.m, c), "closed-form", 0, config)


def _normalize(problem, u):
    return u / energy(problem, u) ** (1.0 / problem.two_sharp)


def _starts(problem, config):
    s = problem.grid()
    fbar = float(problem.f_samples.mean())
    c = (problem.alpha / fbar) ** (1.0 / (problem.p - 1.0))
    out = []
    for idx, label in enumerate(config.starts):
        if label == "constant":
            u0 = np.full(problem.m, c)
        elif label == "random":
            rng = np.random.default_rng([config.seed, idx])
            u0 = c * (0.5 + rng.random(problem.m))
        else:  # "cos<mode>", checked by SolveConfig
            mode = int(label[3:])
            u0 = c * (1.0 + 0.3 * np.cos(2.0 * math.pi * mode * s / problem.length))
        out.append((label, u0))
    return out


def _descend(problem, u, config):
    """Projected gradient descent on Q with BB steps and backtracking."""
    floor = config.positivity_floor
    u = _normalize(problem, np.maximum(u, floor))
    qv = quotient_value(problem, u)
    g = quotient_gradient(problem, u)
    step = 1.0
    u_prev = g_prev = None
    scale = 2.0 * problem.weight * problem.h  # gradient per unit EL residual
    for _ in range(config.descent_max_iter):
        if float(np.max(np.abs(g))) <= config.descent_tol * scale * max(1.0, qv):
            break
        if u_prev is not None:
            dz = u - u_prev
            dg = g - g_prev
            denom = float(np.dot(dg, dg))
            step = abs(float(np.dot(dz, dg))) / denom if denom > 0.0 else 1.0
            step = min(max(step, 1e-12), 1e3)
        gnorm2 = float(np.dot(g, g))
        trial_step = step
        for _ in range(30):
            cand = _normalize(problem, np.maximum(u - trial_step * g, floor))
            q_cand = quotient_value(problem, cand)
            if q_cand <= qv - 1e-4 * trial_step * gnorm2:
                break
            trial_step *= 0.5
        else:
            break  # no descent direction left at this resolution
        u_prev, g_prev = u, g
        u, qv = cand, q_cand
        g = quotient_gradient(problem, u)
    return u


def _newton(problem, v, config):
    """Damped Newton for -v'' + alpha v = f v^p.

    With constant f the equation is translation invariant and its
    Jacobian is singular along tau = v', so the step is bordered with
    tau.  A nonconstant f breaks that symmetry, and the border would
    only keep Newton from converging quadratically.
    """
    global spla
    import scipy.sparse as sp

    if spla is None:
        import scipy.sparse.linalg as spla
    m, h = problem.m, problem.h
    floor = config.positivity_floor
    f = problem.f_samples
    invariant = float(f.max() - f.min()) == 0.0

    def residual(x):
        return -_lap(x, h) + problem.alpha * x - f * x**problem.p

    v = np.maximum(v, floor)
    r = residual(v)
    rn = float(np.max(np.abs(r)))
    iters = 0
    inv_h2 = 1.0 / (h * h)
    off = np.full(m - 1, -inv_h2)
    for iters in range(1, config.newton_max_iter + 1):
        if rn <= config.newton_tol:
            return v, iters - 1, rn, True
        main = 2.0 * inv_h2 + problem.alpha - problem.p * f * v ** (problem.p - 1.0)
        J = sp.diags([main, off, off, off[:1], off[:1]], [0, 1, -1, m - 1, 1 - m], format="csc")
        rhs = -r
        tau = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h)
        if invariant and float(np.max(np.abs(tau))) > 1e-13 * float(np.max(np.abs(v))):
            J = sp.bmat([[J, tau.reshape(-1, 1)], [tau.reshape(1, -1), None]], format="csc")
            rhs = np.append(rhs, 0.0)
        # the natural order keeps the dense border column last; COLAMD moves it
        # early and fills the LU far more.  A singular system only warns and
        # returns NaN, caught below.
        delta = spla.spsolve(J, rhs, permc_spec="NATURAL")[:m]
        if not np.all(np.isfinite(delta)):
            return v, iters, rn, False
        theta = 1.0
        while theta > 1e-6:
            cand = np.maximum(v + theta * delta, floor)
            rc = residual(cand)
            rcn = float(np.max(np.abs(rc)))
            if rcn <= (1.0 - 1e-4 * theta) * rn:
                v, r, rn = cand, rc, rcn
                break
            theta *= 0.5
        else:
            return v, iters, rn, False
    return v, iters, rn, rn <= config.newton_tol


def _solve_one(problem, label, u0, config):
    u = _descend(problem, u0, config)
    v = quotient_value(problem, u) ** (1.0 / (problem.p - 1.0)) * u
    v, iters, rn, ok = _newton(problem, v, config)
    return label, v, iters, rn, ok


def minimize(problem, config=None):
    """Multi-start minimization of the quotient; returns the best solution.

    Raises ConvergenceError (with the best partial result attached as
    .best) when no start reaches the Newton tolerance.
    """
    config = config or SolveConfig()
    results = [_solve_one(problem, label, u0, config) for label, u0 in _starts(problem, config)]
    converged = [(label, v, iters) for label, v, iters, rn, ok in results if ok]
    if not converged:
        label, v, iters, rn, _ = min(results, key=lambda r: r[3])
        best = _report(problem, v, label, iters, config)
        raise ConvergenceError(
            "no start reached the Newton tolerance (best residual %.3e from %r)" % (rn, label),
            best=best,
        )
    # deterministic pick: smallest quotient, ties to the earlier start
    scored = [
        (quotient_value(problem, v), idx, label, v, iters)
        for idx, (label, v, iters) in enumerate(converged)
    ]
    _, _, label, v, iters = min(scored, key=lambda r: (r[0], r[1]))
    return _report(problem, v, label, iters, config)


@dataclass(frozen=True)
class BoundCheck:
    label: str
    status: str  # "checked" | "not-applicable"
    bound: float | None = None
    value: float | None = None
    holds: bool | None = None

    def to_json(self):
        return {
            "label": self.label,
            "status": self.status,
            "bound": self.bound,
            "value": self.value,
            "holds": self.holds,
        }


def proof_chain_diagnostics(report, ineq=None, rel_slack=1e-9):
    """A-priori mass bounds the solution must satisfy.

    mass-via-min-f:  int u^2 <= Q^{(N-2)/2} (int f)^{2/N} / min f,
    exactly tight at constant solutions with f = 1.

    mass-via-band-inequality (with ineq = GenericIneqParams, applicable
    when alpha >= band_factor * D):
    int u^2 <= (4 P / ((4-crit) crit))^{crit/2} Q^{(crit-2+N)/2} (int f)^{(crit-2)/q}.
    """
    pr = report.problem
    u = report.u
    N = pr.reduced_dim
    mass = _mass2(pr, u)
    f_int = pr.weight * pr.h * float(pr.f_samples.sum())
    f_min = float(pr.f_samples.min())
    q_val = report.quotient_value
    checks = []
    bound = q_val ** ((N - 2.0) / 2.0) * f_int ** (2.0 / N) / f_min
    checks.append(
        BoundCheck(
            "mass-via-min-f",
            "checked",
            bound,
            mass,
            mass <= bound * (1.0 + rel_slack),
        )
    )
    if ineq is not None:
        floor = ineq.band_factor * ineq.D
        if pr.alpha >= floor:
            crit = ineq.crit
            bound = (
                (4.0 * ineq.P / ((4.0 - crit) * crit)) ** (crit / 2.0)
                * q_val ** ((crit - 2.0 + N) / 2.0)
                * f_int ** ((crit - 2.0) / pr.two_sharp)
            )
            checks.append(
                BoundCheck(
                    "mass-via-band-inequality",
                    "checked",
                    bound,
                    mass,
                    mass <= bound * (1.0 + rel_slack),
                )
            )
        else:
            checks.append(BoundCheck("mass-via-band-inequality", "not-applicable"))
    return checks


@dataclass(frozen=True)
class SeparationReport:
    energy_a: float
    energy_b: float
    rel_gap: float
    distinct: bool
    lower: str | None
    a_below_threshold: bool | None
    b_below_threshold: bool | None

    def to_json(self):
        return {
            "energy_a": self.energy_a,
            "energy_b": self.energy_b,
            "rel_gap": self.rel_gap,
            "distinct": self.distinct,
            "lower": self.lower,
            "a_below_threshold": self.a_below_threshold,
            "b_below_threshold": self.b_below_threshold,
        }


def energy_separation(a, b, rel_tol=1e-10):
    """Compare the energies of two solve reports of the same equation."""
    if a.problem.alpha != b.problem.alpha:
        raise PreconditionError("the reports solve different equations (alpha differs)")
    if a.problem.p != b.problem.p:
        raise PreconditionError("the reports solve different equations (p differs)")
    ea, eb = a.energy, b.energy
    gap = abs(ea - eb) / max(abs(ea), abs(eb))
    distinct = gap > rel_tol
    lower = None
    if distinct:
        lower = "a" if ea < eb else "b"
    return SeparationReport(
        energy_a=ea,
        energy_b=eb,
        rel_gap=gap,
        distinct=distinct,
        lower=lower,
        a_below_threshold=a.below_threshold,
        b_below_threshold=b.below_threshold,
    )
