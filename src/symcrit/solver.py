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
operator's coefficients, its Fourier symbol and its norm, once, and
_neg_laplacian applies it from the forward differences.

The descent takes its gradient in the H^1 inner product
<(-Delta_h + alpha) ., .> of Q's numerator (a Sobolev gradient), so its
iteration count does not grow with m.  That operator P is cut open at
one node like J below; its tridiagonal block is factored once (LAPACK's
Cholesky pttrf), and each step the descent takes costs one O(m)
solve (pttrs) and a scalar Schur closure (see _p_inverse).
The default nonconstant start is the line soliton
A sech^{2/(p-1)}((p-1) sqrt(alpha) x / 2), with A^{p-1} = (p+1) alpha /
(2 f), centred where f peaks: on a long circle (sqrt(alpha) length >> 1)
it is the minimizer up to O(e^{-sqrt(alpha) length}), so the descent
takes a handful of steps before Newton.

With a constant f and m even, J commutes with the reflection about a
node, and Newton's start from the soliton is even about its peak node k
to rounding; _even_about_peak makes it exactly even there.  Each step
then solves on J's even half: one LAPACK tridiagonal solve (gtsv) with
J's even block on the m/2 + 1 nodes k, ..., k+m/2 (_even_step), and
every iterate stays bitwise even.  J's translation mode v' is odd, so
the even block needs no border (Golubitsky, Stewart & Schaeffer 1988,
vol. II).  Any other start, an odd m or a nonconstant f solves with all
of the cyclic tridiagonal J, cut open at the node where |v'| is largest
(see _cut): the rest of J is a plain tridiagonal block T, so one gtsv
with T and a Schur complement for the cut node give the step
(_cut_solve).
With constant f, J is singular along the translation tau = v' at a
solution, and that step is bordered with tau; the Schur system is then
2x2 (Govaerts & Pryce 1990).  The cut keeps T away from that
singularity, since tau is largest at the cut node.  Each iterate's power
a = v^{p-1} is evaluated once (_power), by its residual (_residual): the
nonlinearity f a v, the Newton step's diagonal of J, and for the last
iterate the Morse count and the energy w h <f a v, v> read that array.
A descent iterate's one power likewise gives its energy, scale and
gradient (_evaluate).

Every report carries a second-order certificate: the Morse index of the
solution, the number of negative eigenvalues of J, counted from the
pivots of one LDL' factor per shift (LAPACK's pttrf; see _morse_counts).
For a solution Newton found on J's even half, the factor is that of J's
even and odd blocks about k, one tridiagonal of m rows, since J's
inertia is the sum of theirs (Sylvester's law of inertia).  Otherwise it
is the factor of T, with one Schur complement for the cut node.  A
positive solution has <Jv, v> = -(p-1) int f v^{p+1} < 0, so a
constrained local minimizer of Q has index exactly 1; a larger index
marks a saddle.
A report's quotient, energy, classification and residual are the ones
minimize ranked the starts by and Newton stopped at, not a second
computation.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import flapack, lazy_import
from .best_constants import _finite, _integer
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
# order alpha at a solution; the LDL' count resolves eigenvalues to about
# eps |J| = eps 4/h^2, under 1e-8 for h >= 4e-4, and a Newton residual of
# 1e-10 moves them far less than the tolerance.  A coarse grid breaks the
# translation symmetry of a constant-f problem: its translation eigenvalue
# is 0.0175 at m = 512 on cylinder-triple and 1.3e-12 at m = 2048, so it
# counts as a zero mode only on a resolving grid.
ZERO_MODE_TOL = 1e-6

# The descent stops at an EL residual of about DESCENT_TOL, where Newton takes over:
# from there Newton takes at most 2 steps on cylinder-triple at m = 512-16384.  Handed
# over at 1e-3, the default solves of index 1 at m = 1024 and 2048 and of index 2 at
# m = 512 and 1024 take 3.
DESCENT_TOL = 1e-4

# With a nonconstant f, Newton has no border, and its basin along the translation of
# a bump narrows as f flattens, while the descent's gradient along it, of order
# (max f - min f) times the offset, falls under the tolerance: so the descent stops
# at WEIGHTED_DESCENT_TOL instead.  At DESCENT_TOL, some default solves on
# f = 1 + a (cos(s - phi) + 0.4 cos(2 s - psi)) with a = 3e-3 to 3e-2 raise
# ConvergenceError, and on f = 1 + a cos(s - phi) with a = 5e-6 to 5e-4 the
# constant start's saddle wins.
WEIGHTED_DESCENT_TOL = 1e-6

# Not only a guard: the H^1 descent meets its tolerance within 100 evaluations on the
# model problem at its bifurcation, but on a nearly constant weight it crawls.  The cos1
# start on f = 1 + 1e-3 cos(s - 1), alpha = 1.5, m = 128 uses all 2000 steps and raises
# ConvergenceError, and with 5e-3 cos(s - 2), alpha = 1.3 it takes about 1500
# evaluations (ROADMAP item 20).
DESCENT_MAX_ITER = 2000

# A guard only: from the descent's output Newton converges, or stagnates, within a few steps.
NEWTON_MAX_ITER = 50

# Descent and Newton iterates are clipped to nodal values >= POSITIVITY_FLOOR.  The
# clamp's kink adds up to floor/h^2 to the residual, 2e-46 at m = 16384, far below
# newton_tol, and floor^{p+1} stays a normal double for p <= 5, clear of subnormal
# arithmetic; at 1e-12 the kink stalled Newton on fine grids.
POSITIVITY_FLOOR = 1e-50

# Newton solves on J's even half about the peak node k of its start v when
# |v[k+j] - v[k-j]| <= EVEN_START_ULPS ulp(v[k]) for every j (_even_about_peak).
# From the soliton start the descent's rounding leaves at most 12.5 ulps on
# every packaged example's solves at its interval ends and midpoint, m = 256
# to 16384; a random start is about 1e13 ulps off.
EVEN_START_ULPS = 64

# A solution whose range max - min exceeds OSCILLATION_TOL * max is nonconstant.
OSCILLATION_TOL = 1e-7

# Relative slack of proof_chain_diagnostics' mass bounds, for rounding.
MASS_BOUND_SLACK = 1e-9

# energy_separation calls two energies distinct above this relative gap.
ENERGY_GAP_TOL = 1e-10

# The start labels SolveConfig accepts.  A k-bump start is left out: on the circle
# of the order-a rotations a k-bump function is invariant under the order-k a
# rotations, so the k-bump solution is that group's minimizer, which the order-k a
# problem on m/k nodes finds from the default starts.
_START_LABELS = ("constant", "soliton", "cos1", "random")

np = lazy_import("numpy")


def _above(x, what, floor):
    """x as a finite float above floor (best_constants._finite); what names it."""
    x = _finite(x, what)
    if not x > floor:
        raise PreconditionError("%s must be > %r, got %r" % (what, floor, x))
    return x


def _reduce_by_fields(self):
    """Pickle and copy a record through its constructor, so __post_init__ freezes its arrays again."""
    return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self) if f.init)


@dataclass(eq=False, frozen=True, slots=True)
class ReducedProblem:
    """One circle-reduced equation -u'' + alpha u = f u^p; frozen, so h stays length / m."""

    length: float
    weight: float
    alpha: float
    p: float
    f_samples: np.ndarray
    orbit_volume: float | None = None
    h: float = dataclasses.field(init=False, repr=False)  # the node spacing length / m, set once

    def __post_init__(self):
        for name, what, floor in (
            ("length", "circle length", 0.0),
            ("weight", "transverse weight", 0.0),
            ("alpha", "alpha", 0.0),
            ("p", "exponent p", 1.0),
        ):
            object.__setattr__(self, name, _above(getattr(self, name), what, floor))
        f = np.asarray(self.f_samples, dtype=float)
        if f.ndim != 1 or f.size < MIN_GRID:
            raise PreconditionError("f_samples must be a 1-d array with at least %d nodes" % MIN_GRID)
        if not np.all(np.isfinite(f)) or not np.all(f > 0.0):
            raise PreconditionError("f samples must be positive and finite")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "f_samples", f)
        object.__setattr__(self, "h", self.length / f.size)
        if self.orbit_volume is not None:
            object.__setattr__(self, "orbit_volume", _above(self.orbit_volume, "orbit volume", 0.0))

    __reduce__ = _reduce_by_fields

    @property
    def m(self):
        return self.f_samples.size

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
        if not isinstance(self.starts, (tuple, list)):
            raise PreconditionError("starts must be a tuple of labels, got %r" % (self.starts,))
        if not self.starts:
            raise PreconditionError("starts needs at least one start label")
        for label in self.starts:
            if not isinstance(label, str) or label not in _START_LABELS:
                raise PreconditionError(
                    "starts has an unknown start label %r (known: %s)" % (label, ", ".join(_START_LABELS))
                )
        object.__setattr__(self, "starts", tuple(self.starts))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", least=0))
        object.__setattr__(self, "newton_tol", _above(self.newton_tol, "newton_tol", 0.0))


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
    (_cut) and its even block (_even_block), the descent's factored
    P = -Delta_h + alpha (_p_inverse) and Newton's rounding level
    (_newton).  _neg_laplacian applies it.
    """
    return 2.0 / (h * h), -1.0 / (h * h)


def _differences(u, h):
    """Forward differences (u[i+1] - u[i]) / h on the circle."""
    du = np.empty_like(u)
    np.subtract(u[1:], u[:-1], out=du[:-1])
    du[-1] = u[0] - u[-1]
    du /= h
    return du


def _neg_laplacian(du, h):
    """-Delta_h u = (du[i-1] - du[i]) / h, _stencil's operator, from u's forward differences du."""
    g = np.empty_like(du)
    np.subtract(du[:-1], du[1:], out=g[1:])
    g[0] = du[-1] - du[0]
    g /= h
    return g


def _dirichlet(problem, u):
    """w int |u'|^2 by forward differences; its gradient is 2 w h (-Delta_h) u, _stencil's operator."""
    du = _differences(u, problem.h)
    return problem.weight * problem.h * float(np.dot(du, du))


def _mass2(problem, u):
    return problem.weight * problem.h * float(np.dot(u, u))


def _power(problem, u):
    """a = |u|^{p-1}, u's one non-integer power; the nonlinearity, the energy and J's diagonal read it."""
    return np.abs(u) ** (problem.p - 1.0)


def _nonlinearity(problem, u, a):
    """f |u|^{p-1} u = f a u, from u's power a = _power(problem, u)."""
    return problem.f_samples * a * u


def _energy(problem, u, fau):
    """w int f |u|^{p+1} ds = w h <f a u, u>, from u's nonlinearity fau = _nonlinearity(problem, u, a)."""
    return problem.weight * problem.h * float(np.dot(fau, u))


def energy(problem, u):
    """w int f u^{p+1} ds; equals Q^{N/2} at a solution."""
    u = np.asarray(u, dtype=float)
    return _energy(problem, u, _nonlinearity(problem, u, _power(problem, u)))


def _quotient(problem, u, den):
    """Q(u) from u's energy den, the base of Q's denominator."""
    if not den > 0.0:
        raise PreconditionError("quotient undefined: f-weighted integral vanishes")
    num = _dirichlet(problem, u) + problem.alpha * _mass2(problem, u)
    return num / den ** (2.0 / problem.two_sharp)


def quotient_value(problem, u):
    u = np.asarray(u, dtype=float)
    return _quotient(problem, u, energy(problem, u))


def quotient_gradient(problem, u):
    """Gradient of quotient_value with respect to the nodal values.

    Q is scale-invariant, so grad Q(x) = s grad Q(s x), with s x the
    unit-energy point where the descent's _evaluate works.
    """
    _, _, g, scale = _evaluate(problem, np.asarray(u, dtype=float))
    return scale * g


def _residual(problem, u):
    """(-Delta_h u + alpha u - f a u, a), a = _power(problem, u): J's diagonal and the energy read a too."""
    a = _power(problem, u)
    r = _neg_laplacian(_differences(u, problem.h), problem.h)
    r += problem.alpha * u
    r -= _nonlinearity(problem, u, a)
    return r, a


def el_residual(problem, u):
    """sup | -u'' + alpha u - f u^p | on the nodes."""
    return float(np.max(np.abs(_residual(problem, np.asarray(u, dtype=float))[0])))


def _constant_weight(problem):
    f = problem.f_samples
    return float(f.max() - f.min()) == 0.0


def _classify(u):
    lo, hi = float(u.min()), float(u.max())
    return "nonconstant" if (hi - lo) > OSCILLATION_TOL * hi else "constant"


def _ring(x, k):
    """x in the ring order k+1, ..., m-1, 0, ..., k of J cut open at node k."""
    return np.concatenate((x[k + 1:], x[:k + 1]))


def _cut(problem, v, a):
    """J = -Delta_h + diag(alpha - p f a) cut open at k = argmax |tau|, a = v^{p-1} from _residual.

    tau = v' is formed once, by central differences.  Returns k, J's
    diagonal and tau in the ring order (_ring), and the coupling off of
    _stencil.  In the ring order J = [[T, w], [w', c]]: T is plain
    tridiagonal and w holds the coupling in its first and last entries.
    T's eigenvalues interlace J's; cutting where tau, J's null direction
    at a constant-f solution, is largest keeps T well away from singular.
    """
    m, h = problem.m, problem.h
    d, off = _stencil(h)
    tau = np.empty(m)
    np.subtract(v[2:], v[:-2], out=tau[1:-1])
    tau[0] = v[1] - v[-1]
    tau[-1] = v[0] - v[-2]
    tau /= 2.0 * h
    k = int(np.argmax(np.abs(tau)))
    diag = d + problem.alpha - problem.p * problem.f_samples * a
    return k, _ring(diag, k), _ring(tau, k), off


def _cut_solve(diag, off, *cols):
    """T^{-1} [cols, w] and w' times it, for J cut open by _cut; None on a zero pivot.

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
    x, info = flapack().dgtsv(e, diag[:-1], e, b, overwrite_b=1)[3:]
    return None if info else (x, off * (x[0] + x[-1]))


def _even_half(x, k):
    """x at the nodes k, k+1, ..., k+m/2, for x even about node k and m even: one slice, no copy.

    Where those nodes wrap past m - 1 the slice runs back from k instead,
    over k, k-1, ..., k-m/2, which holds the same values.
    """
    half = x.size // 2
    return x[k:k + half + 1] if k < half else x[k - half:k + 1][::-1]


def _mirror(y, k):
    """The vector on m = 2 (y.size - 1) nodes that is even about node k and equals y on nodes k, ..., k+m/2."""
    ring = np.concatenate((y, y[-2:0:-1]))  # nodes k, k+1, ..., k+m-1
    m = ring.size
    x = np.empty(m)
    x[k:] = ring[:m - k]
    x[:k] = ring[m - k:]
    return x


def _even_block(problem, a, k):
    """(diag, off): J's even block about node k for a even about k, m even and f constant.

    An even vector is fixed by its values y on the m/2 + 1 nodes k, ...,
    k+m/2 (_even_half), and J maps it to the even vector whose values there
    are off y[j-1] + diag[j] y[j] + off y[j+1], with y[-1] = y[1] and
    y[m/2+1] = y[m/2-1]: a tridiagonal block whose two end rows couple
    with 2 off.  diag = d + alpha - p f a at those nodes, and off is
    _stencil's coupling.
    """
    d, off = _stencil(problem.h)
    return d + problem.alpha - problem.p * problem.f_samples[k] * _even_half(a, k), off


def _ldl_count(t, off, shift):
    """(count, d, e): T's eigenvalues below shift and the LDL' factor of T - shift; None on a zero pivot.

    T has the diagonal t and the off-diagonal off, one entry per row or
    one value for every row.  LAPACK's dpttrf
    factors T - shift = L diag(d) L', L unit lower bidiagonal with e below
    its diagonal, while the pivots stay positive, and stops at the first
    pivot <= 0.  The count takes that pivot, eliminates its row by hand
    (e[k] = off[k] / d[k], d[k+1] -= e[k] off[k], as dpttrf does) and factors
    the rest in place.  An exactly zero pivot means shift is an eigenvalue
    of T or of a leading block of it, and the factor cannot solve.  By
    Sylvester's law of inertia the pivots <= 0 are as many as T's
    eigenvalues below shift: this is the Sturm count that bisection
    (dstebz) evaluates (Kahan 1966; Demmel, Dhillon & Ren 1995).  dpttrf
    comes from scipy's LAPACK extension, loaded by itself (_lazy.flapack).
    """
    n = t.size
    off = np.full(n - 1, off)
    d = t - shift
    e = off.copy()
    count = k = 0
    while k < n - 1:  # the wrapper takes no one-row tail: its off-diagonal would be empty
        info = flapack().dpttrf(d[k:], e[k:], overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            return count, d, e
        k += info - 1  # d[k] is the first pivot <= 0 from row k on
        if k == n - 1:
            break
        if d[k] == 0.0:
            return None
        count += 1
        e[k] = off[k] / d[k]
        d[k + 1] -= e[k] * off[k]
        k += 1
    if d[-1] == 0.0:
        return None
    return count + int(d[-1] < 0.0), d, e


def _morse_counts(problem, v, a, k=None):
    """(Morse index, zero modes) of J = -Delta_h + diag(alpha - p f a), a = v^{p-1} from _residual.

    The index counts eigenvalues of J below -tol, the zero modes those in
    [-tol, tol], with tol = ZERO_MODE_TOL * max(1, alpha).  When v is
    exactly even about node k (m even, constant f: the solution Newton
    found on J's even half), J commutes with the reflection about k, so
    its spectrum is that of its even block, _even_block made symmetric by
    scaling its two end couplings by sqrt(2), together with that of its
    odd block, the plain tridiagonal on nodes k+1, ..., k+m/2-1 with
    Dirichlet ends (Golubitsky, Stewart & Schaeffer 1988, vol. II).  Both
    blocks sit in one tridiagonal of m rows, joined by a zero coupling, so
    each shift takes one LDL' count (_ldl_count).  Otherwise (k None) J
    is cut open (_cut), J = [[T, w], [w', c]] with T plain tridiagonal,
    and by Haynsworth's inertia additivity J - s has as many negative
    eigenvalues as T - s, counted from one LDL' factor of T - s, plus one
    if the Schur complement c - s - w' (T - s)^{-1} w is negative: one
    dpttrs column with the same factor.  The inertia does not depend on
    where J is cut.  When a factor meets a zero pivot, s moves 1 % further
    from 0.
    """
    if k is None:
        _, diag, _, off = _cut(problem, v, a)
        t = diag[:-1]
        w = np.zeros(problem.m - 1)
        w[0] = w[-1] = off
    else:
        even, coupling = _even_block(problem, a, k)
        half = even.size - 1
        t = np.concatenate((even, even[1:-1]))  # the even block, then the odd one
        off = np.full(t.size - 1, coupling)
        off[0] = off[half - 1] = math.sqrt(2.0) * coupling
        off[half] = 0.0

    def below(shift):
        factor = _ldl_count(t, off, shift)
        if factor is None:  # shift is an eigenvalue of T or of a leading block of it
            return below(1.01 * shift)
        n, d, e = factor
        if k is not None:
            return n
        x = flapack().dpttrs(d, e, w)[0]
        return n + int(diag[-1] - shift - off * (x[0] + x[-1]) < 0.0)

    tol = ZERO_MODE_TOL * max(1.0, problem.alpha)
    index = below(-tol)
    return index, below(tol) - index


class _Score(NamedTuple):
    """What minimize ranks a converged start by: Q, its denominator's energy and the classification."""

    quotient: float
    energy: float
    classification: str


def _score(problem, run):
    """run's _Score, its energy from the power of Newton's last residual (run.power)."""
    v = run.v
    e = _energy(problem, v, _nonlinearity(problem, v, run.power))
    return _Score(_quotient(problem, v, e), e, _classify(v))


class _StartResult(NamedTuple):
    label: str
    v: np.ndarray
    power: np.ndarray  # v^{p-1}, from Newton's last residual
    peak: int | None  # the node v is even about when Newton solved on J's even half, else None
    iters: int
    residual: float
    converged: bool
    descent_capped: bool


def _report(problem, run, score, winning_starts=(), descent_capped=()):
    """The report of run's solution, from the score and residual its caller has computed."""
    thr = problem.threshold
    q = score.quotient
    morse_index, zero_modes = _morse_counts(problem, run.v, run.power, run.peak)
    return SolveReport(
        problem=problem,
        u=run.v,
        quotient_value=q,
        energy=score.energy,
        el_residual=run.residual,
        classification=score.classification,
        newton_iterations=run.iters,
        start_label=run.label,
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
    classification, quotient within ceil(sqrt(m)) ulps of the least); the
    earliest is start_label.  Empty for the closed form and for the best
    partial result of a ConvergenceError.
    descent_capped: the starts whose descent used all of DESCENT_MAX_ITER
    iterations without meeting its stopping test (DESCENT_TOL, or
    WEIGHTED_DESCENT_TOL for a nonconstant f).
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
    r, a = _residual(problem, u)
    peak = None if problem.m % 2 else 0  # a constant is even about every node
    run = _StartResult("closed-form", u, a, peak, 0, float(np.max(np.abs(r))), True, False)
    return _report(problem, run, _score(problem, run))


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
        else:  # "cos1", checked by SolveConfig
            u0 = c * (1.0 + 0.3 * np.cos(2.0 * math.pi * problem.grid() / problem.length))
        out.append((label, u0))
    return out


def _evaluate(problem, x):
    """x scaled to unit energy, with Q and grad Q at that point, and the scale.

    Q is scale-invariant, so Q(x) is Q at the scaled point, and x's
    nonlinearity f |x|^{p-1} x, from one power, serves the energy, the
    scale and the gradient's weighted term.  The forward differences du
    serve both Q's numerator, bitwise _dirichlet's, and -Delta_h u.
    The scale is energy(problem, x)^{-1/two_sharp}, bitwise.
    """
    h, w, q = problem.h, problem.weight, problem.two_sharp
    fa = _nonlinearity(problem, x, _power(problem, x))
    den = _energy(problem, x, fa)
    if not 0.0 < den < math.inf:
        raise PreconditionError("quotient undefined: f-weighted integral vanishes")
    scale = den ** (-1.0 / q)
    u = scale * x
    du = _differences(u, h)
    qv = w * h * float(np.dot(du, du)) + problem.alpha * _mass2(problem, u)
    g = _neg_laplacian(du, h)
    g += problem.alpha * u
    g -= (qv * scale ** (q - 1.0)) * fa
    g *= 2.0 * w * h
    return u, qv, g, scale


def _p_inverse(problem):
    """x = P^{-1} g for P = -Delta_h + alpha, as a function of g, factored once.

    P is _stencil's circulant, and every node is alike; cut open at node 0,
    P = [[c, w'], [w, T]] with c = d + alpha, T plain tridiagonal and w
    holding off in its first and last entries, as J in _cut.  T is
    positive definite (every principal block of P is), so LAPACK factors it
    once (dpttrf, Golub & Van Loan 4.3.6); z = T^{-1} w and the cut node's
    Schur scalar s = c - w' z > 0 come with the factor.  Each application
    takes one dpttrs column y = T^{-1} g[1:] and closes it:
    x[0] = (g[0] - w' y) / s and x[1:] = y - x[0] z, that is
    x = [0, y] + x[0] [1, -z].  Both routines come from scipy's LAPACK
    extension, loaded by itself (_lazy.flapack).
    """
    m, alpha = problem.m, problem.alpha
    d, off = _stencil(problem.h)
    lapack = flapack()
    # T is diagonally dominant, so no pivot of dpttrf can vanish
    diag, sub = lapack.dpttrf(np.full(m - 1, d + alpha), np.full(m - 2, off))[:2]
    w = np.zeros(m - 1)
    w[0] = w[-1] = off  # w' y = off (y[0] + y[-1]), as in _cut_solve
    z = lapack.dpttrs(diag, sub, w)[0]
    s = d + alpha - off * (z[0] + z[-1])
    closure = np.append(1.0, -z)

    def solve(g):
        y = lapack.dpttrs(diag, sub, g[1:])[0]
        x = ((g[0] - off * (y[0] + y[-1])) / s) * closure
        x[1:] += y
        return x

    return solve


def _descend(problem, u):
    """Projected H^1 gradient descent on Q with BB steps and backtracking.

    The direction is the gradient in the inner product <P ., .> with
    P = -Delta_h + alpha, the one Q's numerator defines: d = P^{-1} g,
    applied by _p_inverse's factored solve in O(m).  The iteration count
    no longer grows with the conditioning of -Delta_h, O(m^2) (Neuberger
    1997).  The Barzilai-Borwein step |<du, dg>| / <dg, dd> is taken in
    the same metric (Barzilai & Borwein 1988).  The first trial step is
    1/(2 w h), g's scale per unit EL residual: from the unit-energy point
    u, u - P^{-1} g / (2 w h) = lambda P^{-1}(f u^{q-1}) is the Picard
    iterate of the Euler-Lagrange equation, so that step rarely
    backtracks.  The stopping test is on g itself, at DESCENT_TOL for a
    constant f, whose Newton step does not move along the translation
    (it is bordered, or even about the peak node), and at
    WEIGHTED_DESCENT_TOL otherwise.

    P is factored only once the stopping test has failed, and P^{-1}
    applied once per step taken: an iterate that passes the test, such as
    the constant start on a constant f, needs no direction, so a descent
    of k steps applies P^{-1} k times.

    Returns the last iterate, its quotient, and whether the descent used
    all of DESCENT_MAX_ITER iterations without meeting its stopping test.
    """
    floor = POSITIVITY_FLOOR
    u, qv, g, _ = _evaluate(problem, np.maximum(u, floor))
    scale = 2.0 * problem.weight * problem.h  # gradient per unit EL residual
    tol = DESCENT_TOL if _constant_weight(problem) else WEIGHTED_DESCENT_TOL

    def stationary():
        return float(np.abs(g).max()) <= tol * scale * max(1.0, qv)

    if stationary():
        return u, qv, False
    p_inverse = _p_inverse(problem)
    step = 1.0 / scale
    u_prev = g_prev = d_prev = None
    for _ in range(DESCENT_MAX_ITER):
        d = p_inverse(g)
        if u_prev is not None:
            dg = g - g_prev
            denom = float(np.dot(dg, d - d_prev))
            step = abs(float(np.dot(u - u_prev, dg))) / denom if denom > 0.0 else 1.0
            step = min(max(step, 1e-12), 1e3)
        slope = float(np.dot(g, d))
        trial_step = step
        for _ in range(30):
            cand, q_cand, g_cand, _ = _evaluate(problem, np.maximum(u - trial_step * d, floor))
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


def _newton_step(problem, v, r, a, constant_f):
    """Newton step delta solving J delta = -r at v, a = v^{p-1}; None on a zero pivot of T.

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
    k, diag, t, off = _cut(problem, v, a)
    bordered = constant_f and np.abs(t).max() > 1e-13 * np.abs(v).max()
    b = -_ring(r, k)
    solved = _cut_solve(diag, off, b[:-1], *((t[:-1],) if bordered else ()))
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
    n = m - 1 - k  # y holds nodes k+1, ..., m-1, then 0, ..., k-1
    delta = np.empty(m)
    delta[k + 1:] = y[:n]
    delta[:k] = y[n:]
    delta[k] = dk
    return delta


def _even_step(problem, r, a, k):
    """Newton step delta solving J delta = -r for r and a = v^{p-1} even about node k; None on a zero pivot.

    m is even and f constant, so J commutes with the reflection about k,
    and for an even r the step is even: one LAPACK tridiagonal solve
    (dgtsv) with J's even block (_even_block) on the m/2 + 1 nodes k, ...,
    k+m/2 gives it.  J's translation mode, v' at a solution, is odd, so
    the even block needs no border, and an even delta meets the border's
    constraint <v', delta> = 0: on an even r this is _newton_step's
    bordered step.
    """
    diag, off = _even_block(problem, a, k)
    lower = np.full(diag.size - 1, off)
    upper = lower.copy()
    lower[-1] = upper[0] = 2.0 * off
    y, info = flapack().dgtsv(lower, diag, upper, -_even_half(r, k), overwrite_b=1)[3:]
    return None if info else _mirror(y, k)


def _even_about_peak(problem, v):
    """(k, (v + Rv) / 2), R the reflection about v's peak node k, if Newton may solve on J's even half.

    Else (None, v).  f must be constant, and it needs m even and v even
    about k up to rounding: |v[k+j] - v[k-j]| <= EVEN_START_ULPS ulp(v[k])
    for every j.  The average is bitwise even, and so are the residual of an even vector
    (its stencil's two differences trade places under R) and the steps
    _even_step takes, so every iterate after it is too.
    """
    m = problem.m
    if m % 2:
        return None, v
    k = int(np.argmax(v))
    half = m // 2
    ring = np.concatenate((v[k:], v[:k]))  # nodes k, k+1, ..., k+m-1
    ahead, behind = ring[1:half], ring[:half:-1]  # nodes k+j and k-j, 0 < j < m/2
    if not float(np.abs(ahead - behind).max()) <= EVEN_START_ULPS * math.ulp(float(ring[0])):
        return None, v
    y = ring[:half + 1]
    y[1:half] = (ahead + behind) / 2.0
    return k, _mirror(y, k)


def _newton(problem, v, config):
    """Damped Newton for -v'' + alpha v = f v^p, stepping by _newton_step or _even_step.

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
    With constant f, a start that _even_about_peak finds even about its
    peak node k steps by _even_step on J's even half instead, and k is
    returned beside the last iterate and its power (None otherwise).
    """
    f_max = float(problem.f_samples.max())
    constant_f = _constant_weight(problem)
    d, off = _stencil(problem.h)

    def converged(v, rn):
        v_max = float(v.max())
        jac = d - 2.0 * off + problem.alpha + problem.p * f_max * v_max ** (problem.p - 1.0)
        return rn <= max(config.newton_tol, math.ulp(1.0) * jac * v_max)

    v = np.maximum(v, POSITIVITY_FLOOR)
    k, v = _even_about_peak(problem, v) if constant_f else (None, v)
    r, a = _residual(problem, v)
    rn = float(np.abs(r).max())
    iters = 0
    short_steps = 0
    for iters in range(1, NEWTON_MAX_ITER + 1):
        if converged(v, rn):
            return v, a, k, iters - 1, rn, True
        if k is None:
            delta = _newton_step(problem, v, r, a, constant_f)
        else:
            delta = _even_step(problem, r, a, k)
        if delta is None or not np.all(np.isfinite(delta)):
            return v, a, k, iters, rn, False
        theta = 1.0
        while theta > 1e-6:
            cand = np.maximum(v + theta * delta, POSITIVITY_FLOOR)
            rc, ac = _residual(problem, cand)
            rcn = float(np.abs(rc).max())
            if rcn <= (1.0 - 1e-4 * theta) * rn:
                v, r, a, rn = cand, rc, ac, rcn
                break
            theta *= 0.5
        else:
            return v, a, k, iters, rn, False
        short_steps = short_steps + 1 if theta < 0.125 else 0
        if short_steps == 2:
            break
    return v, a, k, iters, rn, converged(v, rn)


def _solve_one(problem, label, u0, config):
    """Descent from u0, then Newton from its rescaled result.

    The descent returns u at unit energy, where its qv is Q(u), so
    v = qv^{1/(p-1)} u solves the equation when u minimizes Q.
    """
    u, qv, capped = _descend(problem, u0)
    v = qv ** (1.0 / (problem.p - 1.0)) * u
    return _StartResult(label, *_newton(problem, v, config), capped)


def minimize(problem, config=None):
    """Multi-start minimization of the quotient; returns the best solution.

    The converged start with the least quotient wins.  Starts that reached
    the same solution (same classification, quotient within ceil(sqrt(m))
    ulps) are reported as winning_starts, and the earliest of them gives
    the report, so rounding noise between them does not pick the label.
    Q is a ratio of m-term sums, whose rounding grows like sqrt(m) ulps:
    starts that converge to one solution differ by 0-3 ulps on coarse
    grids, and by 35 on cylinder-weighted's constant at m = 8192.

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
            best=_report(problem, best, _score(problem, best), descent_capped=capped),
        )
    scored = [(_score(problem, r), r) for r in converged]
    least, _ = min(scored, key=lambda s: s[0].quotient)  # the first of equal minima
    tie = math.ceil(math.sqrt(problem.m)) * math.ulp(least.quotient)
    tied = [
        (s, r) for s, r in scored
        if s.classification == least.classification and s.quotient - least.quotient <= tie
    ]
    score, first = tied[0]
    return _report(
        problem, first, score, winning_starts=tuple(r.label for _, r in tied), descent_capped=capped
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

    def checked(label, bound):
        return BoundCheck(label, "checked", bound, mass, mass <= bound * (1.0 + MASS_BOUND_SLACK))

    checks = [checked("mass-via-min-f", q_val ** ((N - 2.0) / 2.0) * f_int ** (2.0 / N) / f_min)]
    if ineq is not None:
        floor = ineq.band_factor * ineq.D
        if pr.alpha >= floor:
            crit = ineq.crit
            bound = (
                (4.0 * ineq.P / ((4.0 - crit) * crit)) ** (crit / 2.0)
                * q_val ** ((crit - 2.0 + N) / 2.0)
                * f_int ** ((crit - 2.0) / pr.two_sharp)
            )
            checks.append(checked("mass-via-band-inequality", bound))
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
