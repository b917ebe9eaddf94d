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
iteration count does not grow with m.  That operator P is cut open
like J below, at node k = 0; its tridiagonal block is factored once
(LAPACK's Cholesky pttrf), and each step the descent takes costs one
O(m) solve (pttrs) and a scalar Schur closure (see _p_inverse).
The default nonconstant start is the line soliton
A sech^{2/(p-1)}((p-1) sqrt(alpha) x / 2), with A^{p-1} = (p+1) alpha /
(2 f), centred where f peaks: on a long circle (sqrt(alpha) length >> 1)
it is the minimizer up to O(e^{-sqrt(alpha) length}), so the descent
takes a handful of steps before Newton.  The descent's last evaluation
hands Newton its first iterate with that iterate's residual and power
(_handoff): at the unit-energy point Q's gradient g, from which the
descent forms its Sobolev direction P^{-1} g (Neuberger 1997), is the
rescaled iterate's residual times a scalar, so Newton's first iterate
evaluates neither.  The constant start on a constant f is the exact solution
c = (alpha/f)^{1/(p-1)}, the level from which the invariant solutions'
energies are told apart: minimize scores it in closed form
(_closed_form), with no descent and no Newton, and constant_solution
reports that same result.

With a constant f (ReducedProblem.constant_weight, decided once per
problem) and m even, the reflection about node 0 maps the grid to itself
and commutes with -Delta_h, P and J, and the constant, soliton and cos1
starts are even about node 0 by construction (the soliton peaks at
argmax f = 0).  Such a start solves on the half grid from start to
report (_on_half_grid): each vector holds only its values at the m/2 + 1
nodes 0, ..., m/2, and its length says so (_half): only the array
kernels and P's factor are told the grid.  A sum over the circle's nodes
weighs nodes 0 and m/2 once and every node between twice (_dot), a sum
over its forward differences weighs each of the m/2 within those nodes
twice (_edge_dot), -Delta_h reflects at both ends (_neg_laplacian), and
the descent's P^{-1} is P's even block, one plain tridiagonal factored
once (_p_inverse), with no Schur closure.  Each Newton step is one
LAPACK tridiagonal solve (gtsv) with J's even block (_even_step).  J's
translation mode v' is odd, so the even block needs no border
(Golubitsky, Stewart & Schaeffer 1988, vol. II).  The report mirrors
the solution onto all m nodes once (_mirror).  A random start, an odd m
or a nonconstant f solves with all of the cyclic tridiagonal J, cut open
at the node k where |v'| is largest (see _cut).  Both cuts, J's at k and
P's at k = 0, are taken in one ring order about k, nodes k+1, ..., m-1,
0, ..., k (_ring): the operator is [[T, w], [w', c]], T a plain
tridiagonal block and w the coupling of T's two ends to the cut node,
and one Schur term c - w' z (_schur) closes every solve and count with
T.  One gtsv with T takes the step's two columns (_newton_step).
With constant f, J is nearly singular along the translation v' near a
solution, and the step may move the iterate along it.  The cut keeps T
away from that near-singularity, since |v'| is largest at the cut node,
and leaves it to the cut node's Schur complement.  Each Newton iterate's
power a = v^{p-1} is computed once: the first iterate's by _handoff from
the descent's last power, each later one's by its residual (_residual).
The nonlinearity f a v, the Newton step's diagonal of J, and for the last
iterate the Morse count and the energy w h <f a v, v> read that array.
A descent iterate's one power (_power) likewise gives its energy, scale
and gradient (_evaluate).

Every report carries a second-order certificate: the Morse index of the
solution, the number of negative eigenvalues of J, counted from the
pivots of one LDL' factor per shift (LAPACK's pttrf; see _morse_counts).
For a solution found on the half grid, the factor is that of J's even
and odd blocks about node 0, one tridiagonal of m rows, since J's
inertia is the sum of theirs (Sylvester's law of inertia).  Otherwise it
is the factor of T, with the cut node's Schur term (_schur).  A
positive solution has <Jv, v> = -(p-1) int f v^{p+1} < 0, so a
constrained local minimizer of Q has index exactly 1; a larger index
marks a saddle.
A report's quotient, energy, classification and residual are the ones
minimize ranked the starts by and Newton stopped at, or the closed
form's, not a second computation.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import flapack, lazy_import
from .constants import _above, _concentration_threshold, _integer, _real_array
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

# The Morse count takes at most this many factors per shift.  A zero pivot
# means the shift is an eigenvalue of T or of a leading block of it, in
# floating point, and the next factor moves it 1 % further from 0; where the
# shift is below J's rounding level, as with J's diagonal about 9e17 against
# a shift of 1e-6, every factor meets the same pivot.
_SHIFT_TRIES = 4

# The descent stops at an EL residual of about DESCENT_TOL, where Newton takes over:
# from there Newton takes at most 2 steps on cylinder-triple at m = 512-16384.  Handed
# over at 1e-3, the default solves of index 1 at m = 1024 and 2048 and of index 2 at
# m = 512 and 1024 take 3.
DESCENT_TOL = 1e-4

# With a nonconstant f a translated bump is no solution, and Newton's basin along the
# bump's translation narrows as f flattens, while the descent's gradient along it, of
# order (max f - min f) times the offset, falls under the tolerance: so the descent stops
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


def _reduce_by_fields(self):
    """Pickle and copy a record through its constructor, so __post_init__ freezes its arrays again."""
    return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self) if f.init)


@dataclass(eq=False, frozen=True, slots=True)
class ReducedProblem:
    """One circle-reduced equation -u'' + alpha u = f u^p; frozen, so h and constant_weight stay as set."""

    length: float
    weight: float
    alpha: float
    p: float
    f_samples: np.ndarray
    orbit_volume: float | None = None
    h: float = dataclasses.field(init=False, repr=False)  # the node spacing length / m, set once
    constant_weight: bool = dataclasses.field(init=False, repr=False)  # whether f is constant, decided once

    def __post_init__(self):
        for name, what, floor in (
            ("length", "circle length", 0.0),
            ("weight", "transverse weight", 0.0),
            ("alpha", "alpha", 0.0),
            ("p", "exponent p", 1.0),
        ):
            object.__setattr__(self, name, _above(getattr(self, name), what, floor))
        f = _real_array(self.f_samples)
        if f is None or f.ndim != 1 or f.size < MIN_GRID:
            raise PreconditionError(
                "f_samples must be a 1-d array of real numbers with at least %d nodes" % MIN_GRID
            )
        if not np.all(np.isfinite(f)) or not np.all(f > 0.0):
            raise PreconditionError("f samples must be positive and finite")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "f_samples", f)
        object.__setattr__(self, "h", self.length / f.size)
        object.__setattr__(self, "constant_weight", bool(f.max() == f.min()))
        if self.orbit_volume is not None:
            object.__setattr__(self, "orbit_volume", _above(self.orbit_volume, "orbit volume", 0.0))
        try:  # a stencil that underflows to 0 leaves -Delta_h at 0 to rounding, and solves
            finite = _stencil(self.h)[0] < math.inf
        except ZeroDivisionError:  # h^2 underflows to 0
            finite = False
        if not finite:
            raise PreconditionError(
                "the stencil 2/h^2 of the node spacing h = length / grid = %r overflows a float" % (self.h,)
            )

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
            if label != "random" and self.starts.count(label) > 1:  # each random position draws its own vector
                raise PreconditionError("starts repeats the start label %r" % (label,))
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
    index = _integer(index, "index")
    if index not in (1, 2):
        raise PreconditionError("index must be 1 or 2, got %r" % (index,))
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


def _differences(u, h, half=False):
    """Forward differences (u[i+1] - u[i]) / h on the circle, or the m/2 on the half grid.

    On the half grid (half) u holds nodes 0, ..., m/2 of a vector even
    about node 0: the difference on each edge i, i+1 with i >= m/2 is the
    negative of the one on its mirror image m-i-1, m-i, so the m/2 edges
    within nodes 0, ..., m/2 give every difference.
    """
    if half:
        du = np.subtract(u[1:], u[:-1])
    else:
        du = np.empty_like(u)
        np.subtract(u[1:], u[:-1], out=du[:-1])
        du[-1] = u[0] - u[-1]
    du /= h
    return du


def _neg_laplacian(du, h, half=False):
    """-Delta_h u = (du[i-1] - du[i]) / h, _stencil's operator, from u's forward differences du.

    On the half grid (half) the ends reflect: the difference before node 0
    is -du[0] and the one after node m/2 is -du[-1], so each entry is the
    circle's, bitwise.
    """
    if half:
        g = np.empty(du.size + 1)
        np.subtract(du[:-1], du[1:], out=g[1:-1])
        g[0] = -2.0 * du[0]
        g[-1] = 2.0 * du[-1]
    else:
        g = np.empty_like(du)
        np.subtract(du[:-1], du[1:], out=g[1:])
        g[0] = du[-1] - du[0]
    g /= h
    return g


def _dot(x, y, half=False):
    """The sum of x y over the circle's nodes; on the half grid nodes 0 and m/2 weigh 1 and each node between 2.

    Those weights come as the sum over nodes 0, ..., m/2-1 plus the one
    over nodes 1, ..., m/2: two dots of m/2 terms, which round like the
    circle's one dot of m.  Summing a constant, a doubled dot of the
    m/2 - 1 nodes between was 2-3 ulps off on average at m = 96 to 1024,
    against under 1 ulp this way, and split the tie of the constant and
    cos1 starts below the model's bifurcation at m = 96.  ndarray.dot is
    np.dot without its dispatch.
    """
    if not half:
        return float(x.dot(y))
    return float(x[:-1].dot(y[:-1])) + float(x[1:].dot(y[1:]))


def _edge_dot(du, half=False):
    """The sum of du^2 over the circle's m edges; on the half grid each of its m/2 edges weighs 2."""
    return 2.0 * float(du.dot(du)) if half else float(du.dot(du))


def _half(problem, u):
    """Whether u holds the half grid's m/2 + 1 nodes (_on_half_grid), not the circle's m: its length says."""
    return u.size < problem.m


def _mass2(problem, u):
    return problem.weight * problem.h * _dot(u, u, _half(problem, u))


def _numerator(problem, u, du):
    """Q's numerator w int |u'|^2 + alpha u^2 ds from u's forward differences du; its gradient is 2 w h P u."""
    return problem.weight * problem.h * _edge_dot(du, _half(problem, u)) + problem.alpha * _mass2(problem, u)


def _power(problem, u):
    """a = |u|^{p-1}, u's one non-integer power; the nonlinearity, the energy and J's diagonal read it."""
    return np.abs(u) ** (problem.p - 1.0)


def _nonlinearity(problem, u, a):
    """f |u|^{p-1} u = f a u, from u's power a = _power(problem, u); on the half grid f[:m/2 + 1] serves."""
    return problem.f_samples[:u.size] * a * u


def _energy(problem, u, fau):
    """w int f |u|^{p+1} ds = w h <f a u, u>, from u's nonlinearity fau = _nonlinearity(problem, u, a)."""
    return problem.weight * problem.h * _dot(fau, u, _half(problem, u))


def _circle_vector(problem, u):
    """u as a float array; a PreconditionError naming u unless it is 1-d with the circle's m nodes, all finite."""
    u = _real_array(u)
    if u is None or u.shape != (problem.m,) or not np.all(np.isfinite(u)):
        raise PreconditionError("u must be a 1-d array of %d finite values, one per node" % problem.m)
    return u


def energy(problem, u):
    """w int f u^{p+1} ds; equals Q^{N/2} at a solution."""
    u = _circle_vector(problem, u)
    return _energy(problem, u, _nonlinearity(problem, u, _power(problem, u)))


def _quotient(problem, u, den):
    """Q(u) from u's energy den, the base of Q's denominator; a PreconditionError unless 0 < den < inf."""
    if not 0.0 < den < math.inf:
        raise PreconditionError("quotient undefined: f-weighted integral vanishes or overflows")
    num = _numerator(problem, u, _differences(u, problem.h, _half(problem, u)))
    return num / den ** (2.0 / problem.two_sharp)


def quotient_value(problem, u):
    u = _circle_vector(problem, u)
    return _quotient(problem, u, energy(problem, u))


def quotient_gradient(problem, u):
    """Gradient of quotient_value with respect to the nodal values.

    Q is scale-invariant, so grad Q(x) = s grad Q(s x), with s x the
    unit-energy point where the descent's _evaluate works.
    """
    _, _, g, scale, _ = _evaluate(problem, _circle_vector(problem, u))
    return scale * g


def _residual(problem, u):
    """(-Delta_h u + alpha u - f a u, a), a = _power(problem, u): J's diagonal and the energy read a too."""
    half = _half(problem, u)
    a = _power(problem, u)
    r = _neg_laplacian(_differences(u, problem.h, half), problem.h, half)
    r += problem.alpha * u
    r -= _nonlinearity(problem, u, a)
    return r, a


def el_residual(problem, u):
    """sup | -u'' + alpha u - f u^p | on the nodes."""
    return float(np.max(np.abs(_residual(problem, _circle_vector(problem, u))[0])))


def _classify(u):
    lo, hi = float(u.min()), float(u.max())
    return "nonconstant" if (hi - lo) > OSCILLATION_TOL * hi else "constant"


def _ring(x, k):
    """x in the ring order k+1, ..., m-1, 0, ..., k of the circle cut open at node k: the cut node last."""
    return np.concatenate((x[k + 1:], x[:k + 1]))


def _unring(y, k):
    """y, in the ring order of the cut at node k (_ring), back in node order."""
    n = y.size - 1 - k  # y holds nodes k+1, ..., m-1, then 0, ..., k
    return np.concatenate((y[n:], y[:n]))


def _schur(c, off, z):
    """c - w' z, with w holding off in its first and last entries: the cut node's Schur term.

    An operator with _stencil's coupling off, cut open at a node and taken
    in the ring order (_ring), is [[T, w], [w', c]]: T is plain tridiagonal
    and w couples T's two ends to the cut node, so w' z = off (z[0] + z[-1]).
    With z = T^{-1} w this is the cut node's Schur complement; with
    z = T^{-1} b_T, the numerator of a solve's value at the cut node.  The
    descent's P (_p_inverse), the Newton step (_newton_step) and the Morse
    count (_morse_counts) close their cuts by it.
    """
    return c - off * (z[0] + z[-1])


def _diagonal(problem, a):
    """(diag, off): J's diagonal d + alpha - p f a at the nodes a = v^{p-1} holds, and _stencil's coupling off.

    a holds the circle's m nodes, or the half grid's m/2 + 1, where f is
    constant.  A constant f enters as its one value f[0], so the diagonal
    takes one array product and fits either grid.
    """
    d, off = _stencil(problem.h)
    f = problem.f_samples[0] if problem.constant_weight else problem.f_samples
    return d + problem.alpha - problem.p * f * a, off


def _cut(problem, v, a):
    """J = -Delta_h + diag(alpha - p f a) cut open at k = argmax |v'|, a = v^{p-1} from _residual.

    tau = 2 h v', by central differences, only picks k.  Returns k, J's
    diagonal (_diagonal) in the ring order (_ring), and the coupling off
    of _stencil.  In the ring order J = [[T, w], [w', c]] (_schur): T is
    plain tridiagonal and c is J's diagonal at node k.  T's eigenvalues
    interlace J's.  With constant f, J is nearly singular along v' near a
    solution; cutting where |v'| is largest keeps T well away from
    singular.
    """
    m = problem.m
    tau = np.empty(m)
    np.subtract(v[2:], v[:-2], out=tau[1:-1])
    tau[0] = v[1] - v[-1]
    tau[-1] = v[0] - v[-2]
    k = int(np.argmax(np.abs(tau)))
    diag, off = _diagonal(problem, a)
    return k, _ring(diag, k), off


def _mirror(y):
    """The vector on m = 2 (y.size - 1) nodes that is even about node 0 and equals y on nodes 0, ..., m/2."""
    return np.concatenate((y, y[-2:0:-1]))


def _even_block(problem, a):
    """(diag, off): J's even block about node 0 on the half grid, a = v^{p-1} there and f constant.

    An even vector is fixed by its values y on the m/2 + 1 nodes 0, ...,
    m/2, and J maps it to the even vector whose values there are
    off y[j-1] + diag[j] y[j] + off y[j+1], with y[-1] = y[1] and
    y[m/2+1] = y[m/2-1]: a tridiagonal block whose two end rows couple
    with 2 off.  diag is J's diagonal there (_diagonal), and off is
    _stencil's coupling.
    """
    return _diagonal(problem, a)


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


def _morse_counts(problem, v, a):
    """(Morse index, zero modes) of J = -Delta_h + diag(alpha - p f a), a = v^{p-1} from _residual.

    The index counts eigenvalues of J below -tol, the zero modes those in
    [-tol, tol], with tol = ZERO_MODE_TOL * max(1, alpha).  On the half
    grid (m even, constant f, v and a at nodes 0, ..., m/2), J
    commutes with the reflection about node 0, so its spectrum is that of
    its even block, _even_block made symmetric by scaling its two end
    couplings by sqrt(2), together with that of its odd block, the plain
    tridiagonal on nodes 1, ..., m/2-1 with Dirichlet ends (Golubitsky,
    Stewart & Schaeffer 1988, vol. II).  Both blocks sit in one
    tridiagonal of m rows, joined by a zero coupling, so each shift takes
    one LDL' count (_ldl_count).  Otherwise J is cut open (_cut),
    J = [[T, w], [w', c]] with T plain tridiagonal, and by Haynsworth's
    inertia additivity J - s has as many negative eigenvalues as T - s,
    counted from one LDL' factor of T - s, plus one if the Schur complement
    c - s - w' (T - s)^{-1} w is negative (_schur): one dpttrs column with
    the same factor.  The inertia does not depend on where J is cut.  When
    a factor meets a zero pivot, s moves 1 % further from 0, up to
    _SHIFT_TRIES factors in all; a shift lost in J's rounding meets the
    same pivot every time, and the count refuses it by name.
    """
    half = _half(problem, v)
    if half:
        diag, coupling = _even_block(problem, a)
        mid = diag.size - 1  # node m/2
        t = np.concatenate((diag, diag[1:-1]))  # the even block, then the odd one
        off = np.full(t.size - 1, coupling)
        off[0] = off[mid - 1] = math.sqrt(2.0) * coupling
        off[mid] = 0.0
    else:
        _, diag, coupling = _cut(problem, v, a)
        t, off = diag[:-1], coupling
        w = np.zeros(problem.m - 1)
        w[0] = w[-1] = coupling
    tol = ZERO_MODE_TOL * max(1.0, problem.alpha)

    def below(shift):
        for _ in range(_SHIFT_TRIES):
            factor = _ldl_count(t, off, shift)
            if factor is not None:
                break
            shift *= 1.01  # shift is an eigenvalue of T or of a leading block of it
        else:
            rounding = math.ulp(1.0) * (float(np.abs(diag).max()) - 2.0 * coupling)
            raise PreconditionError(
                "the Morse count's zero-mode tolerance ZERO_MODE_TOL * max(1, alpha) = %.3g is lost in J's"
                " rounding level eps |J|_inf = %.3g" % (tol, rounding)
            )
        n, d, e = factor
        if half:
            return n
        x = flapack().dpttrs(d, e, w)[0]
        return n + int(_schur(diag[-1] - shift, coupling, x) < 0.0)

    index = below(-tol)
    return index, below(tol) - index


class _StartResult(NamedTuple):
    """One start's solution and what minimize ranks it by: Q, its denominator's energy and the classification."""

    label: str
    v: np.ndarray  # nodes 0, ..., m/2 for a start on the half grid (_on_half_grid), else all m
    power: np.ndarray  # v^{p-1}, from Newton's last residual
    iters: int
    residual: float
    converged: bool
    descent_capped: bool
    quotient: float
    energy: float
    classification: str


def _start_result(problem, label, v, power, iters, residual, converged, descent_capped):
    """The _StartResult of v, its energy from the power of Newton's last residual."""
    e = _energy(problem, v, _nonlinearity(problem, v, power))
    q = _quotient(problem, v, e)
    return _StartResult(label, v, power, iters, residual, converged, descent_capped, q, e, _classify(v))


def _report(problem, run, winning_starts=(), descent_capped=()):
    """The report of run's solution, from the score and residual its start has computed."""
    thr, q = problem.threshold, run.quotient
    morse_index, zero_modes = _morse_counts(problem, run.v, run.power)
    return SolveReport(
        problem=problem,
        u=_mirror(run.v) if _half(problem, run.v) else run.v,
        quotient_value=q,
        energy=run.energy,
        el_residual=run.residual,
        classification=run.classification,
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


def _closed_form(problem, label):
    """The _StartResult of the constant solution c = (alpha/f)^{1/(p-1)} of a constant f, with 0 Newton steps.

    -Delta_h c = 0, so c's residual alpha c - f c^{p-1} c is one scalar
    at every node: rounding alone, below Newton's rounding floor
    eps |J|_inf c, since |J|_inf > (p+1) alpha.  A constant is even about
    node 0, so on an even grid it holds nodes 0, ..., m/2 (_on_half_grid)
    and its sums and Morse count are the half grid's.  minimize scores a
    constant start on a constant f by it, and constant_solution reports
    it, so the two agree bitwise.
    """
    f = float(problem.f_samples[0])
    c = _level(problem, problem.alpha, f)
    a = c ** (problem.p - 1.0)
    n = _start_nodes(problem, label)
    residual = abs(problem.alpha * c - f * a * c)
    return _start_result(problem, label, np.full(n, c), np.full(n, a), 0, residual, True, False)


def constant_solution(problem):
    """Closed-form constant solution (alpha/f)^{1/(p-1)}; needs constant f.

    Its fields are those of minimize's constant start on the same problem,
    bitwise (_closed_form), with the label "closed-form".
    """
    if not problem.constant_weight:
        raise PreconditionError("the constant solution needs a constant weight f")
    return _report(problem, _closed_form(problem, "closed-form"))


def _on_half_grid(problem, label):
    """Whether the start label solves on the half grid: nodes 0, ..., m/2 of vectors even about node 0.

    With m even and f constant the reflection about node 0 maps the grid
    to itself, leaves Q invariant and commutes with the descent's P and
    Newton's J, so the solve keeps an even vector even.  The constant,
    soliton and cos1 starts are even about node 0 by construction (the
    soliton peaks at argmax f, node 0); a random start is not even.
    """
    return label != "random" and problem.m % 2 == 0 and problem.constant_weight


def _start_nodes(problem, label):
    """How many nodes a start with this label holds: m/2 + 1 on the half grid (_on_half_grid), else m."""
    return problem.m // 2 + 1 if _on_half_grid(problem, label) else problem.m


def _level(problem, alpha, f, what="the constant level (alpha/f)^{1/(p-1)}"):
    """(alpha / f)^{1/(p-1)}, a level; a PreconditionError naming what unless it is a finite float.

    The constant starts take it with alpha and their f (_starts,
    _closed_form), the soliton its amplitude, with (p+1) alpha and 2 f at
    the peak, and Newton's first iterate its level s = Q^{1/(p-1)}, with Q
    and 1 (_handoff).  Float ** raises OverflowError where the level passes
    the float range, and an overflowing alpha / f makes it inf.
    """
    try:
        level = (alpha / f) ** (1.0 / (problem.p - 1.0))
    except OverflowError:
        level = math.inf
    if not level < math.inf:
        raise PreconditionError("%s overflows a float at alpha = %r, p = %r" % (what, problem.alpha, problem.p))
    return level


def _soliton(problem, n):
    """Line soliton A sech^{2/(p-1)}((p-1) sqrt(alpha) x / 2) at the first node k where f peaks, on nodes 0, ..., n-1.

    A^{p-1} = (p+1) alpha / (2 f_k) (_level), and x = (s - s_k + L/2) mod L - L/2,
    the periodic distance.  On the half grid (n = m/2 + 1) f is constant,
    so k = 0, and the formula gives |x| = s at nodes 0, ..., m/2, bitwise.
    """
    m, p = problem.m, problem.p
    k = int(np.argmax(problem.f_samples))
    distance = np.abs(((np.arange(n) - k + m // 2) % m - m // 2) * problem.h)
    e = np.exp(-0.5 * (p - 1.0) * math.sqrt(problem.alpha) * distance)
    amplitude = _level(problem, (p + 1.0) * problem.alpha, 2.0 * float(problem.f_samples[k]),
                       "the soliton amplitude ((p+1) alpha/(2 f))^{1/(p-1)}")
    return amplitude * (2.0 * e / (1.0 + e * e)) ** (2.0 / (p - 1.0))  # sech, without cosh's overflow


def _starts(problem, config):
    """(label, start) pairs; a start that solves on the half grid (_on_half_grid) holds nodes 0, ..., m/2 only."""
    if any(label != "soliton" for label in config.starts):  # the soliton forms its own level
        c = _level(problem, problem.alpha, float(problem.f_samples.mean()))
    out = []
    for idx, label in enumerate(config.starts):
        n = _start_nodes(problem, label)
        if label == "constant":
            u0 = np.full(n, c)
        elif label == "soliton":
            u0 = _soliton(problem, n)
        elif label == "random":
            rng = np.random.default_rng([config.seed, idx])
            u0 = c * (0.5 + rng.random(problem.m))
        else:  # "cos1", checked by SolveConfig
            u0 = c * (1.0 + 0.3 * np.cos(2.0 * math.pi * (np.arange(n) * problem.h) / problem.length))
        out.append((label, u0))
    return out


def _evaluate(problem, x):
    """(u, qv, g, scale, a): x scaled to unit energy, Q and grad Q at that point, the scale and x's power.

    Q is scale-invariant, so Q(x) is Q at the scaled point, and x's
    nonlinearity f |x|^{p-1} x, from its one power a = |x|^{p-1}, serves
    the energy, the scale and the gradient's weighted term; _handoff
    rescales a for Newton.  The forward differences du serve both Q's
    numerator (_numerator) and -Delta_h u.
    The scale is energy(problem, x)^{-1/two_sharp}, bitwise.  On the half
    grid the gradient is the full circle's at nodes 0, ..., m/2.
    """
    h, w, q = problem.h, problem.weight, problem.two_sharp
    half = _half(problem, x)
    a = _power(problem, x)
    fa = _nonlinearity(problem, x, a)
    den = _energy(problem, x, fa)
    if not 0.0 < den < math.inf:
        raise PreconditionError("quotient undefined: f-weighted integral vanishes or overflows")
    scale = den ** (-1.0 / q)
    u = scale * x
    du = _differences(u, h, half)
    qv = _numerator(problem, u, du)
    g = _neg_laplacian(du, h, half)
    g += problem.alpha * u
    try:
        pull = scale ** (q - 1.0)  # den^{-p/(p+1)}
    except OverflowError:
        raise PreconditionError(
            "quotient gradient undefined: the f-weighted integral %.3g is too small for den^{-p/(p+1)}"
            " to be a float" % den
        ) from None
    g -= (qv * pull) * fa
    g *= 2.0 * w * h
    return u, qv, g, scale, a


def _p_inverse(problem, half=False):
    """x = P^{-1} g for P = -Delta_h + alpha, as a function of g, factored once.

    P is _stencil's circulant, and every node is alike, so it is cut open
    at k = 0 like J in _cut: in the ring order 1, ..., m-1, 0 (_ring),
    P = [[T, w], [w', c]] with c = d + alpha, T plain tridiagonal on nodes
    1, ..., m-1 and w holding off in its first and last entries.  T is
    positive definite (every principal block of P is), so LAPACK factors it
    once (dpttrf, Golub & Van Loan 4.3.6); z = T^{-1} w and the cut node's
    Schur complement s = _schur(c, off, z) > 0 come with the factor.  Each
    application takes one dpttrs column y = T^{-1} g[1:] and closes it:
    x[0] = _schur(g[0], off, y) / s and x[1:] = y - x[0] z.  At k = 0 node
    order is the ring order with the cut node moved first, so the closure
    writes x = x[0] [1, -z] + [0, y] in node order, with no _unring.
    On the half grid (half) P acts on an even vector by its even block E,
    whose two end rows couple with 2 off, as J's (_even_block).  Scaled by
    the half grid's node weights W = diag(1, 2, ..., 2, 1) (_dot), W E is
    symmetric, P's quadratic form on even vectors: diagonal 2 c, c at the
    two end nodes, and coupling 2 off.  It is positive definite, so dpttrf
    factors it once and each application is one dpttrs column,
    x = (W E)^{-1} W g, with no Schur closure.  Both routines come from
    scipy's LAPACK extension, loaded by itself (_lazy.flapack).
    """
    m, alpha = problem.m, problem.alpha
    d, off = _stencil(problem.h)
    lapack = flapack()
    if half:
        n = m // 2 + 1
        diag = np.full(n, 2.0 * (d + alpha))
        diag[0] = diag[-1] = d + alpha
        diag, sub = lapack.dpttrf(diag, np.full(n - 1, 2.0 * off))[:2]

        def solve_even(g):
            wg = 2.0 * g
            wg[0], wg[-1] = g[0], g[-1]
            return lapack.dpttrs(diag, sub, wg, overwrite_b=1)[0]

        return solve_even
    # T is diagonally dominant, so no pivot of dpttrf can vanish
    diag, sub = lapack.dpttrf(np.full(m - 1, d + alpha), np.full(m - 2, off))[:2]
    w = np.zeros(m - 1)
    w[0] = w[-1] = off
    z = lapack.dpttrs(diag, sub, w)[0]
    s = _schur(d + alpha, off, z)
    closure = np.append(1.0, -z)

    def solve(g):
        y = lapack.dpttrs(diag, sub, g[1:])[0]
        x = (_schur(g[0], off, y) / s) * closure
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
    constant f, where every translate of a solution is one, so Newton
    need not settle the bump's position, and at WEIGHTED_DESCENT_TOL
    otherwise.

    P is factored only once the stopping test has failed, and P^{-1}
    applied once per step taken: an iterate that passes the test, such as
    a constant on a constant f (where minimize takes the closed form and
    does not descend), needs no direction, so a descent of k steps
    applies P^{-1} k times.

    On the half grid u holds nodes 0, ..., m/2, and so does every iterate,
    gradient and direction; the inner products weigh the nodes as _dot
    does.

    Returns the last iterate's evaluation, the tuple (u, qv, g, scale, a)
    of _evaluate, which _handoff turns into Newton's first iterate, and
    whether the descent used all of DESCENT_MAX_ITER iterations without
    meeting its stopping test.
    """
    floor = POSITIVITY_FLOOR
    half = _half(problem, u)
    last = _evaluate(problem, np.maximum(u, floor))
    u, qv, g = last[:3]
    scale = 2.0 * problem.weight * problem.h  # gradient per unit EL residual
    tol = DESCENT_TOL if problem.constant_weight else WEIGHTED_DESCENT_TOL

    def stationary():
        return float(np.abs(g).max()) <= tol * scale * max(1.0, qv)

    if stationary():
        return last, False
    p_inverse = _p_inverse(problem, half)
    step = 1.0 / scale
    u_prev = g_prev = d_prev = None
    for _ in range(DESCENT_MAX_ITER):
        d = p_inverse(g)
        if u_prev is not None:
            dg = g - g_prev
            denom = _dot(dg, d - d_prev, half)
            step = abs(_dot(u - u_prev, dg, half)) / denom if denom > 0.0 else 1.0
            step = min(max(step, 1e-12), 1e3)
        slope = _dot(g, d, half)
        trial_step = step
        for _ in range(30):
            cand = _evaluate(problem, np.maximum(u - trial_step * d, floor))
            if cand[1] <= qv - 1e-4 * trial_step * slope:  # cand[1] is its quotient
                break
            trial_step *= 0.5
        else:
            return last, False  # no descent direction left at this resolution
        u_prev, g_prev, d_prev = u, g, d
        last = cand
        u, qv, g = last[:3]
        if stationary():
            return last, False
    return last, True


def _handoff(problem, u, qv, g, scale, a):
    """(v, r, a_v): the descent's last evaluation (_evaluate's tuple) as Newton's first iterate, its residual and power.

    The descent stops at the unit-energy point u = scale x, where qv is
    Q(u), so v = s u with s = qv^{1/(p-1)} solves the equation when u
    minimizes Q.  Its residual and power follow from what the evaluation
    holds, by two identities exact up to rounding: with q - 1 = p,
    f v^p = s qv scale^p f x^p, so r(v) = s (-Delta_h u + alpha u - qv
    scale^p f a x) = (s / (2 w h)) g, and v^{p-1} = qv scale^{p-1} a,
    a = x^{p-1}.  Newton's first iterate thus takes no residual and no
    power of its own.  Its level s is _level's, refused by name where it
    passes the float range.
    """
    s = _level(problem, qv, 1.0, "the solution's level Q^{1/(p-1)}")
    r = (s / (2.0 * problem.weight * problem.h)) * g
    return s * u, r, (qv * scale ** (problem.p - 1.0)) * a


def _newton_step(problem, v, r, a):
    """Newton step delta solving J delta = -r at v, a = v^{p-1}; None on a zero pivot of T.

    With J cut open at node k (_cut), J = [[T, w], [w', c]] in the ring
    order (_ring), and b = -r in that order is [b_T, b_k].  One LAPACK
    tridiagonal solve (dgtsv) takes the two columns T^{-1} [b_T, w], and
    the cut node's Schur complement s = _schur(c, off, T^{-1} w) closes the
    step: delta_k = _schur(b_k, off, T^{-1} b_T) / s and the rest is
    T^{-1} b_T - delta_k T^{-1} w; _unring puts it in node order.  A zero s
    leaves the step non-finite, which _newton rejects.  dgtsv comes from
    scipy's LAPACK extension, loaded by itself (_lazy.flapack), not through
    scipy.linalg's package.
    """
    k, diag, off = _cut(problem, v, a)
    b = -_ring(r, k)
    n = b.size - 1
    rhs = np.zeros((n, 2), order="F")  # in dgtsv's column order, so f2py passes it uncopied
    rhs[:, 0] = b[:-1]
    rhs[0, 1] = rhs[-1, 1] = off  # w
    e = np.full(n - 1, off)
    x, info = flapack().dgtsv(e, diag[:-1], e, rhs, overwrite_b=1)[3:]
    if info:
        return None
    dk = _schur(b[-1], off, x[:, 0]) / _schur(diag[-1], off, x[:, 1])
    return _unring(np.append(x[:, 0] - dk * x[:, 1], dk), k)


def _even_step(problem, r, a):
    """Newton step delta solving J delta = -r on the half grid, a = v^{p-1} there; None on a zero pivot.

    m is even and f constant, so J commutes with the reflection about node
    0, and for an even r the step is even: one LAPACK tridiagonal solve
    (dgtsv) with J's even block (_even_block) on the m/2 + 1 nodes 0, ...,
    m/2 gives it.  J's translation mode, v' at a solution, is odd, so the
    even block needs no border: an even delta is orthogonal to v'.  On an
    even r this is _newton_step's cut step.
    """
    diag, off = _even_block(problem, a)
    lower = np.full(diag.size - 1, off)
    upper = lower.copy()
    lower[-1] = upper[0] = 2.0 * off
    y, info = flapack().dgtsv(lower, diag, upper, -r, overwrite_b=1)[3:]
    return None if info else y


def _newton(problem, v, config, handed=None):
    """Damped Newton for -v'' + alpha v = f v^p, stepping by _newton_step or, on the half grid, _even_step.

    handed, when given, is v's (residual, power) from _handoff, _residual's
    up to rounding under the floor eps |J|_inf |v|_inf below.  Newton
    takes it for its first iterate unless the positivity floor would move
    v, and then evaluates the clamped v as it does without it; each later
    iterate's residual and power come from _residual.

    It has converged once the residual's max norm is at most max(newton_tol,
    eps |J|_inf |v|_inf), |J|_inf <= |-Delta_h|_inf + alpha + p max f max v^{p-1}
    with -Delta_h's norm d - 2 off from _stencil; the
    second term is the residual's rounding level, which passes 1e-10 on fine
    grids (m >= 2048 on cylinder-weighted).
    A zero pivot or a non-finite step ends the iteration unconverged.
    It also ends after NEWTON_MAX_ITER steps, and after two consecutive
    steps accepted only with theta < 1/8: such a start sits by a saddle
    with near-null modes (e.g. the relative positions of several bumps),
    where damped Newton would grind to its cap.
    On the half grid v and every iterate hold nodes 0, ..., m/2.
    Returns the last iterate, its power, the steps taken, the residual's
    max norm and whether it converged.
    """
    f_max = float(problem.f_samples.max())
    d, off = _stencil(problem.h)

    def converged(v, rn):
        v_max = float(v.max())
        jac = d - 2.0 * off + problem.alpha + problem.p * f_max * v_max ** (problem.p - 1.0)
        return rn <= max(config.newton_tol, math.ulp(1.0) * jac * v_max)

    if handed is not None and v.min() >= POSITIVITY_FLOOR:  # the floor would leave v as it is
        r, a = handed
    else:
        v = np.maximum(v, POSITIVITY_FLOOR)
        r, a = _residual(problem, v)
    rn = float(np.abs(r).max())
    iters = 0
    short_steps = 0
    for iters in range(1, NEWTON_MAX_ITER + 1):
        if converged(v, rn):
            return v, a, iters - 1, rn, True
        delta = _even_step(problem, r, a) if _half(problem, v) else _newton_step(problem, v, r, a)
        if delta is None or not np.all(np.isfinite(delta)):
            return v, a, iters, rn, False
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
            return v, a, iters, rn, False
        short_steps = short_steps + 1 if theta < 0.125 else 0
        if short_steps == 2:
            break
    return v, a, iters, rn, converged(v, rn)


def _solve_one(problem, label, u0, config):
    """Descent from u0, then Newton from its rescaled result.

    A u0 on m/2 + 1 nodes solves on the half grid (_starts).  The descent
    returns its last evaluation at unit energy, and _handoff rescales it
    to Newton's first iterate v = qv^{1/(p-1)} u with v's residual and
    power, which Newton takes instead of evaluating them again.
    """
    last, capped = _descend(problem, u0)
    v, r, a = _handoff(problem, *last)
    return _start_result(problem, label, *_newton(problem, v, config, (r, a)), capped)


def minimize(problem, config=None):
    """Multi-start minimization of the quotient; returns the best solution.

    The converged start with the least quotient wins.  Starts that reached
    the same solution (same classification, quotient within ceil(sqrt(m))
    ulps) are reported as winning_starts, and the earliest of them gives
    the report, so rounding noise between them does not pick the label.
    Q is a ratio of m-term sums, whose rounding grows like sqrt(m) ulps:
    starts that converge to one solution differ by 0-3 ulps on coarse
    grids, and by 35 on cylinder-weighted's constant at m = 8192.

    A constant start on a constant f is the closed form (_closed_form), the
    report constant_solution gives; every other start descends and runs
    Newton (_solve_one).

    Raises ConvergenceError (with the best partial result attached as
    .best) when no start reaches the Newton tolerance.
    """
    config = SolveConfig() if config is None else config
    if not isinstance(config, SolveConfig):
        raise PreconditionError("config must be a SolveConfig or None, got %r" % (config,))
    results = [
        _closed_form(problem, label) if label == "constant" and problem.constant_weight
        else _solve_one(problem, label, u0, config)
        for label, u0 in _starts(problem, config)
    ]
    capped = tuple(r.label for r in results if r.descent_capped)
    converged = [r for r in results if r.converged]
    if not converged:
        best = min(results, key=lambda r: r.residual)
        raise ConvergenceError(
            "no start reached the Newton tolerance (best residual %.3e from %r)"
            % (best.residual, best.label),
            best=_report(problem, best, descent_capped=capped),
        )
    least = min(converged, key=lambda r: r.quotient)  # the first of equal minima
    tie = math.ceil(math.sqrt(problem.m)) * math.ulp(least.quotient)
    tied = [
        r for r in converged
        if r.classification == least.classification and r.quotient - least.quotient <= tie
    ]
    return _report(problem, tied[0], winning_starts=tuple(r.label for r in tied), descent_capped=capped)


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
    lower = ("a" if ea < eb else "b") if distinct else None
    return SeparationReport(
        energy_a=ea,
        energy_b=eb,
        rel_gap=gap,
        distinct=distinct,
        lower=lower,
        a_below_threshold=a.below_threshold,
        b_below_threshold=b.below_threshold,
    )
