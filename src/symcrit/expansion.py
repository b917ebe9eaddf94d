"""Concentration laboratory: radial test functions on the reduced space.

Evaluates the quotient

    I(u_eps) = ( int (u' ^2 + alpha u^2) rho dr ) /
               ( int f u^{two_sharp} rho dr )^{2/two_sharp}

for the truncated bubbles u_eps(r) = (eps + r^2)^{1-N/2} - (eps + delta^2)^{1-N/2}
supported in [0, delta], against the second-order model

    I(eps) = limit (1 + c1 eps + o(eps)),          N >= 5,
    I(eps) = limit (1 + coeff eps ln eps + ...),   N = 4,

with limit = A^{2/N} / (K_N f_peak^{2/two_sharp}).  The density

    rho(r) = A (1 - q r^2 / (2N)) sigma(r)

carries the orbit volume A, the relative quadratic decay q of the
orbit-volume function at its peak, and the area element sigma of a
space form (Euclidean for curvature None, round of curvature c > 0
otherwise).  The weight is expanded as f_peak - f_laplacian r^2/(2N).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

from ._lazy import lazy_import
from .best_constants import _concentration_ceiling
from .constants import _above, _concentration_threshold, _finite, _integer, _real_array, sphere_volume
from .errors import PreconditionError

__all__ = [
    "ExpansionConfig",
    "ExpansionReport",
    "LogBranchReport",
    "density",
    "rayleigh_quotient",
    "fit_and_compare",
    "log_branch_sign",
]

np = lazy_import("numpy")

_GAUSS_NODES = 20  # Gauss-Legendre points per panel
_GRADING = 3.0  # width ratio of neighbouring panels
_RIGHT_PANELS = 8  # panels shrinking toward the upper endpoint
_EPS_COUNT = 7  # eps samples when none are given


@dataclass(frozen=True, slots=True)
class ExpansionConfig:
    dim: int
    delta: float
    alpha: float
    orbit_volume: float
    vh_quadratic_coeff: float = 0.0
    curvature: float | None = None
    f_peak: float = 1.0
    f_laplacian: float = 0.0
    epsilons: tuple = ()

    def __post_init__(self):
        if not isinstance(self.dim, numbers.Integral):  # numpy's too, but no integral float
            raise PreconditionError("reduced dimension dim must be an integer, got %r" % (self.dim,))
        object.__setattr__(self, "dim", _integer(self.dim, "reduced dimension dim", least=4))
        for name, what in (
            ("delta", "support radius delta"),
            ("alpha", "alpha"),
            ("orbit_volume", "orbit_volume"),
            ("f_peak", "peak value f_peak"),
        ):
            object.__setattr__(self, name, _above(getattr(self, name), what, 0.0))
        for name, what in (
            ("vh_quadratic_coeff", "orbit-volume decay vh_quadratic_coeff"),
            ("f_laplacian", "f_laplacian"),
        ):
            object.__setattr__(self, name, _finite(getattr(self, name), what))
        d2 = self.delta * self.delta
        if self.vh_quadratic_coeff * d2 >= 2.0 * self.dim:
            raise PreconditionError("density not positive on [0, delta]: shrink delta")
        if self.f_peak - self.f_laplacian * d2 / (2.0 * self.dim) <= 0.0:
            raise PreconditionError("weight not positive on [0, delta]: shrink delta")
        if self.curvature is not None:  # None is flat
            object.__setattr__(self, "curvature", _above(self.curvature, "curvature", 0.0))
            if math.sqrt(self.curvature) * self.delta >= math.pi:
                raise PreconditionError("delta exceeds the injectivity scale of the curvature")
            try:
                scale = math.sqrt(self.curvature) ** (self.dim - 1.0)  # _density divides by it
            except OverflowError:
                scale = math.inf
            if not 0.0 < scale < math.inf:
                raise PreconditionError(
                    "the area element's scale sqrt(curvature)^{N-1} = sqrt(%r)^%d must be a finite positive float"
                    % (self.curvature, self.dim - 1)
                )
        eps = _real_array(self.epsilons)
        if eps is None or eps.ndim != 1:
            raise PreconditionError("epsilons must be a 1-d sequence of numbers")
        if not eps.size:
            if not 1e-6 * d2 > 0.0:
                raise PreconditionError(
                    "the default eps ladder 1e-3 delta^2 to 1e-6 delta^2 underflows to 0 at delta = %r" % (self.delta,)
                )
            eps = np.geomspace(1e-3 * d2, 1e-6 * d2, _EPS_COUNT)
        eps = tuple(_above(e, "each of epsilons", 0.0) for e in eps.tolist())
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise PreconditionError("epsilons must be strictly decreasing")
        if eps[0] > d2 / 4.0:
            raise PreconditionError("largest eps must not exceed delta^2 / 4")
        object.__setattr__(self, "epsilons", eps)

    @property
    def two_sharp(self):
        return 2.0 * self.dim / (self.dim - 2.0)

    @property
    def scal(self):
        """Scalar curvature of the model space."""
        if self.curvature is None:
            return 0.0
        return self.dim * (self.dim - 1.0) * self.curvature

    @property
    def predicted_limit(self):
        return _concentration_threshold(self.orbit_volume, self.dim, self.f_peak)

    @property
    def predicted_c1(self):
        """First-order coefficient of the eps-expansion; needs dim >= 5.

        c1 = (4 (N-1)/(N-2) (alpha - ceiling) + (N-4) lap f / (2 f)) / (N (N-4)).
        """
        N = self.dim
        if N == 4:
            raise PreconditionError("dim 4 has a logarithmic branch; use log_branch_sign")
        ceiling = _concentration_ceiling(N, self.scal, self.vh_quadratic_coeff)
        return (
            4.0 * (N - 1.0) / (N - 2.0) * (self.alpha - ceiling)
            + (N - 4.0) * self.f_laplacian / (2.0 * self.f_peak)
        ) / (N * (N - 4.0))


def density(config, r):
    """rho(r) at radii r >= 0: orbit volume times quadratic correction times area element."""
    r = np.asarray(r, dtype=float)
    return _density(config, r, r * r)


def _density(config, r, r2):
    """rho at r, given r2 = r * r; the flat area element r^{N-1} is read as r2^{(N-1)/2}."""
    N = config.dim
    scale = config.orbit_volume * sphere_volume(N - 1)  # A omega_{N-1}
    if config.curvature is None:
        area = r2 ** ((N - 1.0) / 2.0)
    else:
        rc = math.sqrt(config.curvature)
        area = np.sin(rc * r) ** (N - 1.0)
        scale /= rc ** (N - 1.0)
    area *= scale - scale * config.vh_quadratic_coeff / (2.0 * N) * r2
    return area


def _weight(config, r2):
    """f at the radius whose square is r2."""
    return config.f_peak - config.f_laplacian / (2.0 * config.dim) * r2


@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(_GAUSS_NODES)


def _edges(a, b, scales):
    """Panel edges of quad's rule on [a, b], one row per scale, shape (rows, panels + 1).

    Row i has edges a + scales[i] _GRADING^j toward a, which resolve a peak
    of width scales[i] at a, and toward b, where u^{two_sharp} has an
    algebraic singularity, _RIGHT_PANELS panels shrinking by _GRADING.
    All rows share one edge array: a row that needs fewer inner panels than
    the widest is padded with zero-width panels at a, which add exactly 0
    where the integrand is finite at a.
    """
    scales = np.asarray(scales, dtype=float)
    half = 0.5 * (b - a)
    counts = np.array([max(0, math.ceil(math.log(half / s, _GRADING))) for s in scales.tolist()], dtype=int)
    width = counts.max(initial=0)
    j = np.arange(-1, width) - (width - counts)[:, None]  # index of the inner edges, < 0 at a
    edges = np.full((len(scales), width + _RIGHT_PANELS + 2), float(b))
    edges[:, : width + 1] = np.where(j < 0, a, a + scales[:, None] * _GRADING**j)
    edges[:, width + 1 : -1] = b - half * _GRADING ** -np.arange(_RIGHT_PANELS)
    return edges


@functools.lru_cache(maxsize=16)
def _rule(a, b, scales):
    """quad's rule: nodes (rows, nodes per panel, panels) and half-widths (rows, panels).

    It depends on (a, b, scales) alone, a tuple of floats, so it is built
    once per key, and both arrays are read-only: an integrand that writes
    into its argument cannot spoil the next call's rule.
    """
    edges = _edges(a, b, scales)
    mid, rad = 0.5 * (edges[:, 1:] + edges[:, :-1]), 0.5 * (edges[:, 1:] - edges[:, :-1])
    nodes = mid[:, None, :] + rad[:, None, :] * _gauss_legendre()[0][:, None]
    nodes.flags.writeable = rad.flags.writeable = False
    return nodes, rad


def quad(fn, a, b, scales):
    """int_a^b fn for a batch of scales, one graded Gauss-Legendre rule each.

    The rule (_rule) depends only on (a, b, scales), for a fit on (0,
    delta, sqrt of the eps ladder), and is built once per ladder in a
    bounded cache; repeated fits on one ladder reuse it.  fn is called
    once, on the read-only nodes of every row (shape (rows, nodes per
    panel, panels)), and may return several integrands along leading axes
    of one array; the result has fn's leading shape and one integral per
    row.
    perfbench/tracing.py wraps this function by name.
    """
    nodes, rad = _rule(float(a), float(b), tuple(np.asarray(scales, dtype=float).tolist()))
    panels = _gauss_legendre()[1] @ fn(nodes)  # (..., rows, panels)
    return (panels[..., None, :] @ rad[..., None])[..., 0, 0]


def rayleigh_quotient(config, eps):
    """I(u_eps) by graded Gauss-Legendre quadrature, at one eps or at each of a 1-d sequence.

    Like a ufunc: a float for a number, an array for a sequence.  Every
    sample goes through one quad call, whose integrand writes the
    numerator and denominator integrands into one array and multiplies
    it by rho once.  On the nodes r, with s = eps + r^2, it computes r^2
    and s^{1-N/2} once each: u = s^{1-N/2} - tail and
    u' = (2 - N) r s^{1-N/2} / s.  It refuses, by name, eps whose panel
    count leaves the float range and an I that is not a finite positive float.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim > 1:
        raise PreconditionError("eps must be a number or a 1-d sequence")
    least = eps.min(initial=math.inf)
    if not least > 0.0:
        raise PreconditionError("eps must be positive")
    samples = eps.reshape(-1)
    N = config.dim
    delta = config.delta
    if not 0.5 * delta / math.sqrt(least) < math.inf:  # quad grades its panels from sqrt(eps) to delta
        raise PreconditionError(
            "the rule's panel count log_3(delta / (2 sqrt(eps))) must be finite, got delta = %r and eps = %r"
            % (delta, float(least))
        )
    power = 1.0 - N / 2.0
    e = samples[:, None, None]
    tail = (e + delta * delta) ** power

    def integrands(r):
        # each pass writes into an array it owns: u overwrites s^{1-N/2},
        # and s, once read, holds alpha u^2
        r2 = r * r
        s = e + r2
        u = s**power  # s^{1-N/2}
        out = np.empty((2,) + s.shape)
        num, den = out
        np.divide(u, s, out=num)  # s^{-N/2}
        num *= num
        num *= r2
        num *= 4.0 * power * power  # u'^2 = (2 - N)^2 r^2 s^{-N}
        u -= tail
        np.power(u, config.two_sharp, out=den)
        np.square(u, out=s)
        s *= config.alpha
        num += s
        den *= _weight(config, r2)
        out *= _density(config, r, r2)
        return out

    num, den = quad(integrands, 0.0, delta, np.sqrt(samples))
    if not den.min(initial=math.inf) > 0.0:
        raise PreconditionError("degenerate test function: zero denominator")
    values = num / den ** (2.0 / config.two_sharp)
    if not all(0.0 < value < math.inf for value in values.tolist()):
        raise PreconditionError("I(u_eps) must be a finite positive float: the quotient's integrals overflow or vanish")
    return float(values[0]) if eps.ndim == 0 else values


@dataclass(frozen=True, slots=True)
class ExpansionReport:
    config: ExpansionConfig
    samples: tuple  # ((eps, value), ...) in decreasing eps
    predicted_limit: float
    predicted_c1: float
    fitted_limit: float
    fitted_c1: float  # extrapolated when c1_resolved, else secant_c1
    secant_c1: float
    c1_error: float  # inf when not c1_resolved
    c1_resolved: bool
    pair_slopes: tuple

    def to_json(self):
        return {
            "samples": [{"eps": e, "value": v} for e, v in self.samples],
            "predicted_limit": self.predicted_limit,
            "predicted_c1": self.predicted_c1,
            "fitted_limit": self.fitted_limit,
            "fitted_c1": self.fitted_c1,
            "secant_c1": self.secant_c1,
            "c1_error": self.c1_error,
            "c1_resolved": self.c1_resolved,
            "pair_slopes": list(self.pair_slopes),
        }


def _aitken(slopes):
    """Aitken's Delta^2 limit of three consecutive pair slopes, else None.

    On a geometric eps ladder the leading remainder of the slopes shrinks
    by one ratio per step, and Delta^2 removes it.  None when fewer than
    three slopes are given or their two differences do not shrink, that
    is, when the ratio of the second to the first lies outside (0, 1).
    """
    if len(slopes) == 3:
        a, b, c = slopes
        d1, d2 = b - a, c - b
        if d1 != 0.0 and 0.0 < d2 / d1 < 1.0:
            return c - d2 * d2 / (d2 - d1)
    return None


def fit_and_compare(config):
    """Sample I(u_eps) along config.epsilons and fit the linear model.

    The fitted limit and secant_c1 come from the secant through the two
    smallest eps.  fitted_c1 extrapolates the slope by Aitken's Delta^2 on
    the last three pair_slopes.  Its error bar c1_error is |fitted_c1 -
    secant_c1|, or, when larger, the change from Delta^2 on the three
    slopes before: where two remainder terms of different order nearly
    cancel at the smallest eps, the secant is close to Delta^2 while both
    are still off.  When the last slopes do not settle, fitted_c1 is the
    secant's, c1_resolved is False and c1_error is inf.  pair_slopes
    lists all consecutive secant slopes so a caller can judge whether the
    linear regime was reached.
    """
    if config.dim < 5:
        raise PreconditionError("the linear model needs dim >= 5")
    if len(config.epsilons) < 2:
        raise PreconditionError("need at least two eps samples to fit")
    samples = tuple(zip(config.epsilons, rayleigh_quotient(config, config.epsilons).tolist()))
    slopes = tuple(
        (v1 - v2) / (e1 - e2)
        for (e1, v1), (e2, v2) in zip(samples, samples[1:])
    )
    e2, v2 = samples[-1]
    fitted_limit = v2 - slopes[-1] * e2
    secant_c1 = slopes[-1] / fitted_limit
    last, before = _aitken(slopes[-3:]), _aitken(slopes[-4:-1])
    if last is None:
        fitted_c1, c1_error = secant_c1, math.inf
    else:
        fitted_c1 = last / fitted_limit
        c1_error = abs(fitted_c1 - secant_c1)
        if before is not None:
            c1_error = max(c1_error, abs(last - before) / fitted_limit)
    predicted_limit, predicted_c1 = config.predicted_limit, config.predicted_c1
    fit = (predicted_limit, predicted_c1, fitted_limit, fitted_c1, secant_c1, *slopes)
    if not all(map(math.isfinite, fit)):
        raise PreconditionError(
            "the linear fit of I(u_eps) must give finite floats: its slopes, limit or extrapolated c1 overflow"
        )
    return ExpansionReport(
        config=config,
        samples=samples,
        predicted_limit=predicted_limit,
        predicted_c1=predicted_c1,
        fitted_limit=fitted_limit,
        fitted_c1=fitted_c1,
        secant_c1=secant_c1,
        c1_error=c1_error,
        c1_resolved=last is not None,
        pair_slopes=slopes,
    )


@dataclass(frozen=True, slots=True)
class LogBranchReport:
    config: ExpansionConfig
    coeff: float
    samples: tuple
    consistent: bool

    def to_json(self):
        return {
            "coeff": self.coeff,
            "samples": [{"eps": e, "value": v} for e, v in self.samples],
            "consistent": self.consistent,
        }


def log_branch_sign(config):
    """Dim-4 check: sign of I - limit matches the eps ln(eps) model.

    coeff = 3 (ceiling - alpha) / 4 = (scal + 3 q - 6 alpha) / 8; since
    ln(eps) < 0 for small eps, I - limit and coeff must have opposite signs
    near zero.
    """
    if config.dim != 4:
        raise PreconditionError("the logarithmic branch exists only in dimension 4")
    coeff = 0.75 * (_concentration_ceiling(4, config.scal, config.vh_quadratic_coeff) - config.alpha)
    samples = tuple(zip(config.epsilons, rayleigh_quotient(config, config.epsilons).tolist()))
    limit = config.predicted_limit
    ok = True
    for e, v in samples[-2:]:
        model = coeff * e * math.log(e)
        if model != 0.0 and (v - limit) * model <= 0.0:
            ok = False
    return LogBranchReport(config=config, coeff=coeff, samples=samples, consistent=ok)
