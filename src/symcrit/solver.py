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
N = 2 (p+1)/(p-1) survives discretization exactly.  _stencil holds that
operator's coefficients, its Fourier symbol and its norm, once.

The descent takes its gradient in the H^1 inner product
<(-Delta_h + alpha) ., .> of Q's numerator (a Sobolev gradient), so its
iteration count does not grow with m; one real FFT pair applies the
inverse of that circulant operator, once per step the descent takes.
The default nonconstant start is the line soliton
A sech^{2/(p-1)}((p-1) sqrt(alpha) x / 2), with A^{p-1} = (p+1) alpha /
(2 f), centred where f peaks: on a long circle (sqrt(alpha) length >> 1)
it is the minimizer up to O(e^{-sqrt(alpha) length}), so the descent
takes a handful of steps before Newton.

Each Newton step solves with the cyclic tridiagonal Jacobian J, cut
open at the node where |v'| is largest (see _cut): the rest of J is a
plain tridiagonal block T, so one LAPACK tridiagonal solve (gtsv) with T
and a Schur complement for the cut node give the step.  That solve,
_cut_solve, is shared with the Morse count.  With constant f,
J is singular along the translation tau = v' at a solution, and the step
is bordered with tau; the Schur system is then 2x2 (Govaerts & Pryce
1990).  The cut keeps T away from that singularity, since tau is largest
at the cut node.

Every report carries a second-order certificate: the Morse index of the
solution, the number of negative eigenvalues of J, counted by Sturm
bisection and one Schur complement (see _morse_counts).  A positive
solution has <Jv, v> = -(p-1) int f v^{p+1} < 0, so a constrained local
minimizer of Q has index exactly 1; a larger index marks a saddle.
A report's quotient and residual are the ones minimize ranked the starts
by and Newton stopped at, not a second computation.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import flapack, lazy_import
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

# Eigenvalues of J within ZERO_MODE_TOL * max(1, alpha) of 0 count as zero
# modes.  J's low eigenvalues scale with alpha, because f v^{p-1} is of
# order alpha at a solution; the Sturm count resolves eigenvalues to about
# eps |J| = eps 4/h^2, under 1e-8 for h >= 4e-4, and a Newton residual of
# 1e-10 moves them far less than the tolerance.  A coarse grid breaks the
# translation symmetry of a constant-f problem: its translation eigenvalue
# is 0.0175 at m = 512 on cylinder-triple and 1.3e-12 at m = 2048, so it
# counts as a zero mode only on a resolving grid.
ZERO_MODE_TOL = 1e-6

# Converged starts whose quotients lie within max(TIE_ULPS, ceil(sqrt(m)))
# ulps of the least one, with the same classification, reached the same
# solution.  Q is a ratio of m-term sums, whose rounding grows like sqrt(m)
# ulps: starts that converge to one solution differ by 0-3 ulps on coarse
# grids, and by 35 on cylinder-weighted's constant at m = 8192.
TIE_ULPS = 4

# The descent stops at an EL residual of about DESCENT_TOL, where Newton takes over.
DESCENT_TOL = 1e-6

# A guard only: the H^1 descent meets DESCENT_TOL within 100 evaluations, even at the bifurcation.
DESCENT_MAX_ITER = 2000

# A guard only: from the descent's output Newton converges, or stagnates, within a few steps.
NEWTON_MAX_ITER = 50

# Descent and Newton iterates are clipped to nodal values >= POSITIVITY_FLOOR.  The
# clamp's kink adds up to floor/h^2 to the residual, 2e-46 at m = 16384, far below
# newton_tol, and floor^{p+1} stays a normal double for p <= 5, clear of subnormal
# arithmetic; at 1e-12 the kink stalled Newton on fine grids.
POSITIVITY_FLOOR = 1e-50

# A solution whose range max - min exceeds OSCILLATION_TOL * max is nonconstant.
OSCILLATION_TOL = 1e-7

# Relative slack of proof_chain_diagnostics' mass bounds, for rounding.
MASS_BOUND_SLACK = 1e-9

# energy_separation calls two energies distinct above this relative gap.
ENERGY_GAP_TOL = 1e-10

np = lazy_import("numpy")


def _reduce_by_fields(self):
    """Pickle and copy a record through its constructor, so __post_init__ freezes its arrays again."""
    return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))


@dataclass(eq=False, slots=True)
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

    __reduce__ = _reduce_by_fields

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


@dataclass(frozen=True, slots=True)
class SolveConfig:
    seed: int = 0  # of the opt-in "random" start
    starts: tuple = ("constant", "soliton")
    newton_tol: float = 1e-10

    def __post_init__(self):
        if isinstance(self.starts, str):
            raise PreconditionError("starts must be a tuple of labels, got %r" % (self.starts,))
        if not self.starts:
            raise PreconditionError("starts needs at least one start label")
        for label in self.starts:
            if not isinstance(label, str) or label not in ("constant", "soliton", "random") and not (
                label.startswith("cos") and label[3:].isdigit()
            ):
                raise PreconditionError(
                    "starts has an unknown start label %r (known: constant, soliton, cos<mode>, random)"
                    % (label,)
                )
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise PreconditionError("seed must be an integer >= 0, got %r" % (self.seed,))
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise PreconditionError("newton_tol must be positive and finite, got %r" % (self.newton_tol,))


def _check_grid(grid):
    """grid as an int; a PreconditionError unless it is an integer >= MIN_GRID."""
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral) or grid < MIN_GRID:
        raise PreconditionError("grid must be an integer >= %d, got %r" % (MIN_GRID, grid))
    return int(grid)


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
    grid = _check_grid(grid)
    if f_samples is None:
        f_samples = np.ones(grid)
    elif np.size(f_samples) != grid:
        raise PreconditionError("grid %d disagrees with the %d f_samples" % (grid, np.size(f_samples)))
    return ReducedProblem(
        length=length,
        weight=weight,
        alpha=alpha,
        p=config.params.exponent,
        f_samples=f_samples,
        orbit_volume=orbit,
    )


def _stencil(h):
    """-Delta_h's 3-point stencil on the circle: (diagonal d, off-diagonal off) = (2/h^2, -1/h^2).

    -Delta_h is circulant, so its eigenvalue at Fourier mode k is its
    symbol (d - 2 off) sin^2(pi k / m), and its inf-norm is d - 2 off =
    4/h^2.  The other operator formulas read this one: J's tridiagonal
    (_cut), the descent's symbol of P^{-1} (_descend) and Newton's
    rounding level (_newton).
    """
    return 2.0 / (h * h), -1.0 / (h * h)


def _dirichlet(problem, u):
    """w int |u'|^2 by forward differences; its gradient is 2 w h (-Delta_h) u, _stencil's operator."""
    du = np.empty_like(u)
    np.subtract(u[1:], u[:-1], out=du[:-1])
    du[-1] = u[0] - u[-1]
    du /= problem.h
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
    """Delta_h u, _stencil's operator negated: ((u[i+1] - 2 u[i]) + u[i-1]) / h^2, rounded in that order."""
    out = -2.0 * u
    out[:-1] += u[1:]
    out[-1] += u[0]
    out[1:] += u[:-1]
    out[0] += u[-1]
    out /= h * h
    return out


def quotient_gradient(problem, u):
    """Gradient of quotient_value with respect to the nodal values.

    Q is scale-invariant, so grad Q(x) = s grad Q(s x), with s x the
    unit-energy point where the descent's _evaluate works.
    """
    x = np.asarray(u, dtype=float)
    g = _evaluate(problem, x)[2]
    return energy(problem, x) ** (-1.0 / problem.two_sharp) * g


def _residual(problem, u):
    return -_lap(u, problem.h) + problem.alpha * u - problem.f_samples * np.abs(u) ** (
        problem.p - 1.0
    ) * u


def el_residual(problem, u):
    """sup | -u'' + alpha u - f u^p | on the nodes."""
    return float(np.max(np.abs(_residual(problem, np.asarray(u, dtype=float)))))


def _constant_weight(problem):
    f = problem.f_samples
    return float(f.max() - f.min()) == 0.0


def _classify(u):
    lo, hi = float(u.min()), float(u.max())
    return "nonconstant" if (hi - lo) > OSCILLATION_TOL * hi else "constant"


def _cut(problem, v):
    """J = -Delta_h + diag(alpha - p f v^{p-1}) cut open at k = argmax |tau|.

    tau = v' is formed once, by central differences.  Returns the ring
    order k+1, ..., m-1, 0, ..., k, J's diagonal and tau in that order, and
    the coupling off of _stencil.  In the ring order J = [[T, w], [w', c]]:
    T is plain tridiagonal and w holds the coupling in its first and last
    entries.  T's eigenvalues interlace
    J's; cutting where tau, J's null direction at a constant-f solution,
    is largest keeps T well away from singular.
    """
    m, h = problem.m, problem.h
    d, off = _stencil(h)
    tau = np.empty(m)
    np.subtract(v[2:], v[:-2], out=tau[1:-1])
    tau[0] = v[1] - v[-1]
    tau[-1] = v[0] - v[-2]
    tau /= 2.0 * h
    order = np.roll(np.arange(m), -1 - int(np.argmax(np.abs(tau))))
    diag = d + problem.alpha - problem.p * problem.f_samples * v ** (problem.p - 1.0)
    return order, diag[order], tau[order], off


def _cut_solve(diag, off, shift, *cols):
    """(T - shift)^{-1} [cols, w] and w' times it, for J cut open by _cut; None on a zero pivot.

    T has the diagonal diag[:-1] and the off-diagonal off, and w holds off
    in its first and last entries, so w' x = off (x[0] + x[-1]): the cut
    node's Schur term.  One LAPACK tridiagonal solve (dgtsv) takes every
    column; it comes from scipy's LAPACK extension, loaded by itself
    (_lazy.flapack), not through scipy.linalg's package.
    """
    n = diag.size - 1
    b = np.zeros((n, len(cols) + 1), order="F")  # in dgtsv's column order, so f2py passes it uncopied
    for j, col in enumerate(cols):
        b[:, j] = col
    b[0, -1] = b[-1, -1] = off
    e = np.full(n - 1, off)
    x, info = flapack().dgtsv(e, diag[:-1] - shift, e, b, overwrite_b=1)[3:]
    return None if info else (x, off * (x[0] + x[-1]))


def _morse_counts(problem, v):
    """(Morse index, zero modes) of J = -Delta_h + diag(alpha - p f v^{p-1}).

    The index counts eigenvalues of J below -tol, the zero modes those in
    [-tol, tol], with tol = ZERO_MODE_TOL * max(1, alpha).  Cut open
    (_cut), J = [[T, w], [w', c]] with T plain tridiagonal, and by
    Haynsworth's inertia additivity J - s has as many negative
    eigenvalues as T - s, counted by Sturm bisection (dstebz), plus one
    if the Schur complement c - s - w' (T - s)^{-1} w is negative (one
    _cut_solve).  The inertia does not depend on where J is cut.  dstebz
    comes from scipy's LAPACK extension, loaded by itself (_lazy.flapack).
    """
    _, diag, _, off = _cut(problem, v)
    t, e = diag[:-1], np.full(problem.m - 2, off)

    def below(shift):
        # eigenvalues of T in (-inf, shift]; dstebz clips the interval to
        # T's Gershgorin bounds, and the huge tolerance stops its bisection
        # at the two Sturm counts
        n = flapack().dstebz(t, e, 1, -math.inf, shift, 0, 0, 1e300, b"B")[0]
        solved = _cut_solve(diag, off, shift)
        if solved is None:  # shift is an eigenvalue of T to working precision: widen the band by 1 %
            return below(1.01 * shift)
        return n + int(diag[-1] - shift - solved[1][0] < 0.0)

    tol = ZERO_MODE_TOL * max(1.0, problem.alpha)
    index = below(-tol)
    return index, below(tol) - index


def _report(problem, u, q, residual, label, iters, winning_starts=(), descent_capped=()):
    """The report of solution u, whose quotient_value q and el_residual its caller has computed."""
    thr = problem.threshold
    morse_index, zero_modes = _morse_counts(problem, u)
    return SolveReport(
        problem=problem,
        u=u,
        quotient_value=q,
        energy=energy(problem, u),
        el_residual=residual,
        classification=_classify(u),
        newton_iterations=iters,
        start_label=label,
        threshold=thr,
        below_threshold=None if thr is None else q < thr,
        winning_starts=winning_starts,
        descent_capped=descent_capped,
        morse_index=morse_index,
        zero_modes=zero_modes,
    )


@dataclass(eq=False, slots=True)
class SolveReport:
    """One solution with how it was obtained and its Morse certificate.

    winning_starts: the converged starts that reached this solution (same
    classification, quotient within max(TIE_ULPS, ceil(sqrt(m))) ulps of
    the least); the earliest is start_label.  Empty for the closed form and
    for the best partial result of a ConvergenceError.
    descent_capped: the starts whose descent used all of DESCENT_MAX_ITER
    iterations without meeting its stopping test (DESCENT_TOL).
    morse_index, zero_modes: eigenvalues of the Newton Jacobian J below
    -tol and within [-tol, tol] (tol = ZERO_MODE_TOL * max(1, alpha)).
    A minimizer of Q has index 1; a larger index marks a saddle.
    """

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
    winning_starts: tuple
    descent_capped: tuple
    morse_index: int
    zero_modes: int

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).copy()
        u.flags.writeable = False
        self.u = u

    __reduce__ = _reduce_by_fields

    def to_json(self, include_profile=False):
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "u"}
        if include_profile:
            d["s"] = list(self.problem.grid())
            d["u"] = list(self.u)
        return d


def constant_solution(problem):
    """Closed-form constant solution (alpha/f)^{1/(p-1)}; needs constant f."""
    if not _constant_weight(problem):
        raise PreconditionError("the constant solution needs a constant weight f")
    u = np.full(problem.m, (problem.alpha / float(problem.f_samples[0])) ** (1.0 / (problem.p - 1.0)))
    return _report(problem, u, quotient_value(problem, u), el_residual(problem, u), "closed-form", 0)


def _soliton(problem):
    """Line soliton A sech^{2/(p-1)}((p-1) sqrt(alpha) x / 2) at the first node k where f peaks.

    A^{p-1} = (p+1) alpha / (2 f_k), and x = (s - s_k + L/2) mod L - L/2.
    """
    m, p, k = problem.m, problem.p, int(np.argmax(problem.f_samples))
    x = ((np.arange(m) - k + m // 2) % m - m // 2) * problem.h
    e = np.exp(-0.5 * (p - 1.0) * math.sqrt(problem.alpha) * np.abs(x))
    amplitude = ((p + 1.0) * problem.alpha / (2.0 * float(problem.f_samples[k]))) ** (1.0 / (p - 1.0))
    return amplitude * (2.0 * e / (1.0 + e * e)) ** (2.0 / (p - 1.0))  # sech, without cosh's overflow


def _starts(problem, config):
    s = problem.grid()
    fbar = float(problem.f_samples.mean())
    c = (problem.alpha / fbar) ** (1.0 / (problem.p - 1.0))
    out = []
    for idx, label in enumerate(config.starts):
        if label == "constant":
            u0 = np.full(problem.m, c)
        elif label == "soliton":
            u0 = _soliton(problem)
        elif label == "random":
            rng = np.random.default_rng([config.seed, idx])
            u0 = c * (0.5 + rng.random(problem.m))
        else:  # "cos<mode>", checked by SolveConfig
            mode = int(label[3:])
            u0 = c * (1.0 + 0.3 * np.cos(2.0 * math.pi * mode * s / problem.length))
        out.append((label, u0))
    return out


def _evaluate(problem, x):
    """x scaled to unit energy, with Q and grad Q at that point.

    Q is scale-invariant, so Q(x) is Q at the scaled point, and
    f |x|^{q-2} x, computed once and in place, serves the energy, the scale
    and the gradient's weighted term.
    """
    h, w, q = problem.h, problem.weight, problem.two_sharp
    fa = np.abs(x)
    fa **= q - 2.0
    fa *= x
    fa *= problem.f_samples
    den = w * h * float(np.dot(fa, x))
    if not 0.0 < den < math.inf:
        raise PreconditionError("quotient undefined: f-weighted integral vanishes")
    scale = den ** (-1.0 / q)
    u = scale * x
    qv = _dirichlet(problem, u) + problem.alpha * _mass2(problem, u)
    g = -_lap(u, h)
    g += problem.alpha * u
    g -= (qv * scale ** (q - 1.0)) * fa
    g *= 2.0 * w * h
    return u, qv, g


def _descend(problem, u):
    """Projected H^1 gradient descent on Q with BB steps and backtracking.

    The direction is the gradient in the inner product <P ., .> with
    P = -Delta_h + alpha, the one Q's numerator defines: d = P^{-1} g.
    The cyclic Laplacian is circulant, so P^{-1} is one real FFT pair
    times fixed symbols, and the iteration count no longer grows with
    the conditioning of -Delta_h, O(m^2) (Neuberger 1997).  The
    Barzilai-Borwein step |<du, dg>| / <dg, dd> is taken in the same
    metric (Barzilai & Borwein 1988).  The stopping test is on g itself,
    at DESCENT_TOL.

    P^{-1} is applied, and its symbol built, only once the stopping test
    has failed: an iterate that passes it, such as the constant start on a
    constant f, needs no direction, so a descent of k steps applies P^{-1}
    k times.

    Returns the last iterate, its quotient, and whether the descent used
    all of DESCENT_MAX_ITER iterations without meeting its stopping test.
    """
    floor = POSITIVITY_FLOOR
    m, h = problem.m, problem.h
    u, qv, g = _evaluate(problem, np.maximum(u, floor))
    scale = 2.0 * problem.weight * h  # gradient per unit EL residual

    def stationary():
        return float(np.abs(g).max()) <= DESCENT_TOL * scale * max(1.0, qv)

    if stationary():
        return u, qv, False
    d, off = _stencil(h)
    sin2 = np.sin(math.pi / m * np.arange(m // 2 + 1)) ** 2
    symbol = 1.0 / ((d - 2.0 * off) * sin2 + problem.alpha)  # of P^{-1}, per rfft mode
    step = 1.0
    u_prev = g_prev = d_prev = None
    for _ in range(DESCENT_MAX_ITER):
        d = np.fft.irfft(np.fft.rfft(g) * symbol, m)
        if u_prev is not None:
            dg = g - g_prev
            denom = float(np.dot(dg, d - d_prev))
            step = abs(float(np.dot(u - u_prev, dg))) / denom if denom > 0.0 else 1.0
            step = min(max(step, 1e-12), 1e3)
        slope = float(np.dot(g, d))
        trial_step = step
        for _ in range(30):
            cand, q_cand, g_cand = _evaluate(problem, np.maximum(u - trial_step * d, floor))
            if q_cand <= qv - 1e-4 * trial_step * slope:
                break
            trial_step *= 0.5
        else:
            return u, qv, False  # no descent direction left at this resolution
        u_prev, g_prev, d_prev = u, g, d
        u, qv, g = cand, q_cand, g_cand
        if stationary():
            return u, qv, False
    return u, qv, True


def _newton_step(problem, v, r, constant_f):
    """Newton step delta solving J delta = -r at v; None on a zero pivot of T.

    With J cut open at node k (_cut), one _cut_solve gives T^{-1} b_T
    (and T^{-1} tau_T) beside T^{-1} w, and a Schur system for the cut
    node closes the step.  With constant f the equation is
    translation invariant and J is singular along tau = v' at a solution,
    so the step is bordered with tau: [J tau; tau' 0] [delta; mu] =
    [-r; 0], and the Schur system is the symmetric 2x2 one in
    (delta_k, mu).  A nonconstant f breaks that symmetry, and the border
    would only keep Newton from converging quadratically.  A zero Schur
    pivot leaves the step non-finite, which _newton rejects.  constant_f
    is _constant_weight(problem), which _newton tests once per start.
    """
    m = problem.m
    order, diag, t, off = _cut(problem, v)
    bordered = constant_f and np.abs(t).max() > 1e-13 * np.abs(v).max()
    b = -r[order]
    solved = _cut_solve(diag, off, 0.0, b[:-1], *((t[:-1],) if bordered else ()))
    if solved is None:
        return None
    x, wx = solved  # T^{-1} [b_T, (tau_T,) w] and w' times it
    s = diag[-1] - wx[-1]
    if bordered:
        tx = t[:-1] @ x
        c = t[-1] - wx[1]  # = t[-1] - tx[2], as T is symmetric
        det = -s * tx[1] - c * c
        gk, gm = b[-1] - wx[0], -tx[0]
        dk = (-tx[1] * gk - c * gm) / det
        mu = (s * gm - c * gk) / det
        y = x[:, 0] - dk * x[:, -1] - mu * x[:, 1]
    else:
        dk = (b[-1] - wx[0]) / s
        y = x[:, 0] - dk * x[:, -1]
    delta = np.empty(m)
    delta[order[:-1]] = y
    delta[order[-1]] = dk
    return delta


def _newton(problem, v, config):
    """Damped Newton for -v'' + alpha v = f v^p, stepping by _newton_step.

    It has converged once the residual's max norm is at most max(newton_tol,
    eps |J|_inf |v|_inf), |J|_inf <= |-Delta_h|_inf + alpha + p max f max v^{p-1}
    with -Delta_h's norm d - 2 off from _stencil; the
    second term is the residual's rounding level, which passes 1e-10 on fine
    grids (m >= 2048 on cylinder-weighted).
    A zero pivot or a non-finite step ends the iteration unconverged.
    It also ends after NEWTON_MAX_ITER steps, and after two consecutive
    steps accepted only with theta < 1/8: such a start sits by a saddle
    whose null modes the border does not remove (e.g. the relative
    positions of several bumps), where damped Newton would grind to its
    cap.
    """
    f_max = float(problem.f_samples.max())
    constant_f = _constant_weight(problem)
    d, off = _stencil(problem.h)

    def converged(v, rn):
        v_max = float(v.max())
        jac = d - 2.0 * off + problem.alpha + problem.p * f_max * v_max ** (problem.p - 1.0)
        return rn <= max(config.newton_tol, math.ulp(1.0) * jac * v_max)

    v = np.maximum(v, POSITIVITY_FLOOR)
    r = _residual(problem, v)
    rn = float(np.abs(r).max())
    iters = 0
    short_steps = 0
    for iters in range(1, NEWTON_MAX_ITER + 1):
        if converged(v, rn):
            return v, iters - 1, rn, True
        delta = _newton_step(problem, v, r, constant_f)
        if delta is None or not np.all(np.isfinite(delta)):
            return v, iters, rn, False
        theta = 1.0
        while theta > 1e-6:
            cand = np.maximum(v + theta * delta, POSITIVITY_FLOOR)
            rc = _residual(problem, cand)
            rcn = float(np.abs(rc).max())
            if rcn <= (1.0 - 1e-4 * theta) * rn:
                v, r, rn = cand, rc, rcn
                break
            theta *= 0.5
        else:
            return v, iters, rn, False
        short_steps = short_steps + 1 if theta < 0.125 else 0
        if short_steps == 2:
            break
    return v, iters, rn, converged(v, rn)


class _StartResult(NamedTuple):
    label: str
    v: np.ndarray
    iters: int
    residual: float
    converged: bool
    descent_capped: bool


def _solve_one(problem, label, u0, config):
    """Descent from u0, then Newton from its rescaled result.

    The descent's qv is the numerator of quotient_value(u), so qv / energy^{2/q}
    is that quotient without a second pass over u.
    """
    u, qv, capped = _descend(problem, u0)
    quotient = qv / energy(problem, u) ** (2.0 / problem.two_sharp)
    v = quotient ** (1.0 / (problem.p - 1.0)) * u
    v, iters, rn, ok = _newton(problem, v, config)
    return _StartResult(label, v, iters, rn, ok, capped)


def minimize(problem, config=None):
    """Multi-start minimization of the quotient; returns the best solution.

    The converged start with the least quotient wins.  Starts that reached
    the same solution (same classification, quotient within
    max(TIE_ULPS, ceil(sqrt(m))) ulps) are reported as winning_starts, and
    the earliest of them gives the report, so rounding noise between them
    does not pick the label.

    Raises ConvergenceError (with the best partial result attached as
    .best) when no start reaches the Newton tolerance.
    """
    config = config or SolveConfig()
    results = [_solve_one(problem, label, u0, config) for label, u0 in _starts(problem, config)]
    capped = tuple(r.label for r in results if r.descent_capped)
    converged = [r for r in results if r.converged]
    if not converged:
        best = min(results, key=lambda r: r.residual)
        raise ConvergenceError(
            "no start reached the Newton tolerance (best residual %.3e from %r)"
            % (best.residual, best.label),
            best=_report(
                problem, best.v, quotient_value(problem, best.v), best.residual, best.label, best.iters,
                descent_capped=capped,
            ),
        )
    scored = [(quotient_value(problem, r.v), _classify(r.v), r) for r in converged]
    q_min, kind, _ = min(scored, key=lambda s: s[0])  # the first of equal minima
    tie = max(TIE_ULPS, math.ceil(math.sqrt(problem.m))) * math.ulp(q_min)
    tied = [(q, r) for q, c, r in scored if c == kind and q - q_min <= tie]
    q, first = tied[0]
    return _report(
        problem, first.v, q, first.residual, first.label, first.iters,
        winning_starts=tuple(r.label for _, r in tied), descent_capped=capped,
    )


@dataclass(frozen=True, slots=True)
class BoundCheck:
    label: str
    status: str  # "checked" | "not-applicable"
    bound: float | None = None
    value: float | None = None
    holds: bool | None = None


def proof_chain_diagnostics(report, ineq=None):
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
            mass <= bound * (1.0 + MASS_BOUND_SLACK),
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
                    mass <= bound * (1.0 + MASS_BOUND_SLACK),
                )
            )
        else:
            checks.append(BoundCheck("mass-via-band-inequality", "not-applicable"))
    return checks


@dataclass(frozen=True, slots=True)
class SeparationReport:
    energy_a: float
    energy_b: float
    rel_gap: float
    distinct: bool
    lower: str | None
    a_below_threshold: bool | None
    b_below_threshold: bool | None


def energy_separation(a, b):
    """Compare the energies of two solve reports of the same equation."""
    if a.problem.alpha != b.problem.alpha:
        raise PreconditionError("the reports solve different equations (alpha differs)")
    if a.problem.p != b.problem.p:
        raise PreconditionError("the reports solve different equations (p differs)")
    ea, eb = a.energy, b.energy
    gap = abs(ea - eb) / max(abs(ea), abs(eb))
    distinct = gap > ENERGY_GAP_TOL
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
