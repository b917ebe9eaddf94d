"""Guaranteed coefficient intervals for existence and multiplicity.

All machinery here answers one question: for which alpha does
Delta u + alpha u = f u^p admit invariant solutions whose energies are
provably distinct?  Sufficient conditions come in three shapes,

    stay-below       alpha <= B2       (below the second invariant constant)
    dominate-defect  alpha >= c(crit) D  with c(crit) = crit (4 - crit) / 4
    energy-gap       alpha >  B2 - gap

combined with an existence ceiling obtained from concentrating test
functions along a minimal orbit.  Unknown constants enter as
ConstantBound windows and every returned interval is conservative with
respect to them: stay-below uses the window's lower end, the other two
its upper end.

The subcritical band inequality behind dominate-defect reads

    ||u||_{crit}^2  <=  P ( ||grad u||_2^2 + D ||u||_2^2 ),   2 < crit < 4,

restricted to the invariant functions at hand; P and D are any
constants for which it is known to hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .best_constants import _curvature_term, _volume_term
from .constants import _concentration_threshold, sobolev_constant
from .errors import PreconditionError
from .geometry import _EXAMPLES, example_configuration

__all__ = [
    "FProfile",
    "GenericIneqParams",
    "ConditionReport",
    "GuaranteedInterval",
    "ExistenceBound",
    "FRatioCheck",
    "OrderingVerdict",
    "OrderingReport",
    "existence_threshold",
    "existence_alpha_bound",
    "generic_interval",
    "critical_interval",
    "invariant_interval",
    "minf_interval",
    "constant_f_intervals",
    "energy_ordering_check",
    "f_ratio_condition",
    "example_interval",
]


@dataclass(frozen=True)
class FProfile:
    """Scalar data of the positive weight f at and around its peak.

    vanishing_order is the largest m such that all derivatives of f at
    the peak vanish up to order m (None when nothing beyond the listed
    Laplacian is known; math.inf for a constant weight).
    """

    f_max: float
    f_min: float
    f_avg: float
    f_at_peak: float
    laplacian_at_peak: float = 0.0
    vanishing_order: float | None = None

    def __post_init__(self):
        if not (0.0 < self.f_min <= self.f_avg <= self.f_max < math.inf):
            raise PreconditionError(
                "need 0 < f_min <= f_avg <= f_max < inf, got min=%r avg=%r max=%r"
                % (self.f_min, self.f_avg, self.f_max)
            )
        if self.f_at_peak != self.f_max:
            raise PreconditionError("the peak value must be the maximum of f")
        if not math.isfinite(self.laplacian_at_peak):
            raise PreconditionError("Laplacian of f at the peak must be finite")
        if self.vanishing_order is not None and not self.vanishing_order >= 1:
            raise PreconditionError("vanishing order must be >= 1 when given")

    @classmethod
    def constant(cls, value=1.0):
        v = float(value)
        return cls(v, v, v, v, 0.0, math.inf)

    @property
    def peak_ratio(self):
        return self.f_max / self.f_avg


@dataclass(frozen=True)
class GenericIneqParams:
    """Constants (crit, P, D) of one valid band inequality; see module docstring."""

    crit: float
    P: float
    D: float

    def __post_init__(self):
        if not (2.0 < self.crit < 4.0):
            raise PreconditionError("the band exponent must satisfy 2 < crit < 4, got %r" % (self.crit,))
        if not (math.isfinite(self.P) and self.P > 0.0):
            raise PreconditionError("gradient constant P must be positive and finite")
        if not (math.isfinite(self.D) and self.D >= 0.0):
            raise PreconditionError("zero-order constant D must be finite and >= 0")

    @property
    def band_factor(self):
        """c(crit) = crit (4 - crit) / 4, the defect-domination coefficient."""
        return self.crit * (4.0 - self.crit) / 4.0


@dataclass(frozen=True)
class ConditionReport:
    label: str
    status: str  # "satisfied" | "unsatisfiable" | "needs-unknown-constant" | "assumed"
    value: float | None = None

    def to_json(self):
        d = {"label": self.label, "status": self.status}
        if self.value is not None and math.isfinite(self.value):
            d["value"] = self.value
        return d


@dataclass(frozen=True)
class GuaranteedInterval:
    """Alpha interval on which the advertised conclusion is guaranteed.

    count is the number of solutions with pairwise distinct energies.
    """

    lo: float
    hi: float
    lo_strict: bool = False
    hi_strict: bool = False
    count: int = 2
    conditions: tuple = ()

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise PreconditionError("interval endpoints must not be NaN")

    @property
    def empty(self):
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_strict or self.hi_strict)

    @property
    def midpoint(self):
        if self.empty:
            raise PreconditionError("an empty interval has no midpoint")
        return 0.5 * (self.lo + self.hi)

    def contains(self, alpha):
        return (self.lo < alpha or (alpha == self.lo and not self.lo_strict)) and (
            alpha < self.hi or (alpha == self.hi and not self.hi_strict)
        )

    def to_json(self):
        return {
            "lo": self.lo,
            "hi": self.hi,
            "lo_strict": self.lo_strict,
            "hi_strict": self.hi_strict,
            "empty": self.empty,
            "count": self.count,
            "conditions": [c.to_json() for c in self.conditions],
        }


@dataclass(frozen=True)
class ExistenceBound:
    """Ceiling below which an invariant minimizing solution exists."""

    ceiling: float
    flatness_ok: bool
    strict: bool = True


def existence_threshold(params, orbit_volume, f_max=1.0):
    """Energy level strictly below which invariant minimizing sequences converge.

    threshold = A^{2/N} / ( K_N (max f)^{2/two_sharp} ),  N = n - k.
    """
    N = params.reduced_dim
    if N < 3:
        raise PreconditionError("threshold needs n - k >= 3")
    if not orbit_volume > 0.0:
        raise PreconditionError("orbit volume must be positive")
    if not f_max > 0.0:
        raise PreconditionError("max f must be positive")
    return _concentration_threshold(orbit_volume, N, f_max)


def existence_alpha_bound(params, action, f=None):
    """Alpha range on which concentration yields an invariant minimizer.

    Requires N = n - k >= 4.  The weight must be peak-flat
    (zero Laplacian at its maximum) unless N = 4; then

        alpha < (n-2-k)/(4 (n-1-k)) ( S_quotient + 3 lap(v_H)/A )

    is sufficient, evaluated here with certified lower bounds.
    """
    N = params.reduced_dim
    if N < 4:
        raise PreconditionError("the concentration bound needs n - k >= 4, got %d" % N)
    if params.k != action.k:
        raise PreconditionError("action orbit dimension does not match the parameters")
    flat = True
    if f is not None and N > 4:
        flat = f.laplacian_at_peak == 0.0
    return ExistenceBound(ceiling=_curvature_term(params, action), flatness_ok=flat, strict=True)


def _check_family(params, orbit1, orbit2, volume):
    if not (orbit1 > 0.0 and orbit2 > 0.0):
        raise PreconditionError("orbit volumes must be positive")
    if not orbit1 < orbit2:
        raise PreconditionError(
            "orbit volumes must satisfy orbit1 < orbit2, got %r >= %r" % (orbit1, orbit2)
        )
    if not volume > 0.0:
        raise PreconditionError("manifold volume must be positive")
    if params.reduced_dim < 3:
        raise PreconditionError("need n - k >= 3")


def _gap_lower(hi, term1, term2):
    # hi - (term2 - term1), grouped so hi cancels term2 first: for the
    # circle-fibre examples hi equals term2 analytically and the naive
    # grouping loses ~20x precision at large t
    return (hi - term2) + term1


def _merge_lo(floor, lo3, gap_strict):
    """Combine  alpha >= floor  with  alpha > lo3  (strict per gap_strict).

    On a tie the value is floor's, and so is its sign of zero.
    """
    return (lo3, gap_strict) if lo3 > floor else (floor, gap_strict and lo3 == floor)


def _band_interval(params, crit, c, P, D, bound_second, orbit1, orbit2, volume, f, gap_strict):
    """The interval of generic_interval for the band inequality (crit, P, D).

    c = c(crit) is passed in, not recomputed: crit (4 - crit) / 4 and a
    route's closed form differ by an ulp at some n, and the floor c D
    must be the one that route displays.  D = inf marks an unknown
    constant.
    """
    _check_family(params, orbit1, orbit2, volume)
    N = params.reduced_dim
    hi = bound_second.lo
    if math.isinf(D):
        floor = math.inf
        defect = ConditionReport("dominate-defect", "needs-unknown-constant")
    else:
        floor = c * D
        defect = ConditionReport("dominate-defect", "satisfied", floor)
    conds = [ConditionReport("stay-below", "satisfied", hi), defect]
    if f is None:
        lo, lo_strict = floor, False
        conds.append(ConditionReport("energy-gap", "assumed"))
    elif math.isinf(bound_second.hi):
        lo, lo_strict = math.inf, True
        conds.append(ConditionReport("energy-gap", "needs-unknown-constant"))
    else:
        mass_exp = (crit - 2.0) * (params.n - 2 - params.k) / (2.0 * N)
        rho = (orbit2 / orbit1) ** (2.0 / N) - 1.0
        gap = (
            rho
            * orbit2 ** ((2.0 - crit) / N)
            * sobolev_constant(N) ** ((crit - 2.0) / 2.0)
            * c ** (crit / 2.0)
            * f.peak_ratio**mass_exp
            / (volume**mass_exp * P ** (crit / 2.0))
        )
        lo3 = bound_second.hi - gap
        conds.append(ConditionReport("energy-gap", "satisfied", lo3))
        lo, lo_strict = _merge_lo(floor, lo3, gap_strict)
    return GuaranteedInterval(lo, hi, lo_strict, False, 2, tuple(conds))


def generic_interval(params, ineq, bound_second, orbit1, orbit2, volume, f=None, *, gap_strict=True):
    """Distinct-energy interval from one band inequality (crit, P, D).

    Conditions, conservative through bound_second:

        stay-below       alpha <= bound_second.lo
        dominate-defect  alpha >= c(crit) D
        energy-gap       alpha >  bound_second.hi - gap(f)

    With f None the energy-gap condition is assumed to be implied by the
    other two (the weight is admissible) and the floor is the returned
    lower endpoint.
    """
    return _band_interval(
        params, ineq.crit, ineq.band_factor, ineq.P, ineq.D,
        bound_second, orbit1, orbit2, volume, f, gap_strict,
    )


def critical_interval(
    params, bound_ambient, bound_second, orbit1, orbit2, volume, f=None, *, gap_strict=True
):
    """Distinct-energy interval built on the ambient sharp inequality.

    generic_interval at crit = 2n/(n-2), P = K_n and D = bound_ambient.hi,
    with c(crit) = n(n-4)/(n-2)^2; an infinite bound_ambient.hi leaves
    dominate-defect unknown.  Needs n > 4.
    """
    n = params.n
    if n <= 4:
        raise PreconditionError("the ambient route needs n > 4, got n=%d" % n)
    return _band_interval(
        params, 2.0 * n / (n - 2.0), n * (n - 4.0) / (n - 2.0) ** 2, sobolev_constant(n),
        bound_ambient.hi, bound_second, orbit1, orbit2, volume, f, gap_strict,
    )


def invariant_interval(params, bound_second, orbit1, orbit2, volume, f=None, *, gap_strict=True):
    """Distinct-energy interval built on the invariant sharp inequality.

    generic_interval at crit = two_sharp, P = K_N / orbit2^{2/N} and
    D = bound_second.hi, with c(crit) = N(N-4)/(N-2)^2; an infinite
    bound_second.hi leaves dominate-defect unknown.  Needs n - k > 4.
    """
    N = params.reduced_dim
    if N <= 4:
        raise PreconditionError("the invariant route needs n - k > 4, got %d" % N)
    return _band_interval(
        params, params.two_sharp, N * (N - 4.0) / (N - 2.0) ** 2,
        sobolev_constant(N) / orbit2 ** (2.0 / N), bound_second.hi,
        bound_second, orbit1, orbit2, volume, f, gap_strict,
    )


def _orbit_gap(params, bound_second, orbit1, orbit2, volume, scale=1.0):
    """Orbit terms t_i = scale A_i^{2/N} / (K_N V^{2/N}) and the energy-gap
    condition alpha >= bound_second.hi - (t2 - t1); its endpoint is inf
    when bound_second.hi is unknown.

    Returns (t1, t2, endpoint, condition report).
    """
    _check_family(params, orbit1, orbit2, volume)
    N = params.reduced_dim
    t1 = _volume_term(N, orbit1, volume) * scale
    t2 = _volume_term(N, orbit2, volume) * scale
    if math.isinf(bound_second.hi):
        return t1, t2, math.inf, ConditionReport("energy-gap", "needs-unknown-constant")
    lo = _gap_lower(bound_second.hi, t1, t2)
    return t1, t2, lo, ConditionReport("energy-gap", "satisfied", lo)


def minf_interval(params, bound_second, orbit1, orbit2, volume, f, *, gap_strict=True):
    """Distinct-energy interval from the minimum of the weight alone.

    Valid for every n - k >= 3; no band inequality enters:

        gap = (A2^{2/N} - A1^{2/N}) / (K_N V^{2/N})
              * f_min / ( f_max^{2/two_sharp} f_avg^{2/N} ).
    """
    ffac = f.f_min / (f.f_max ** (2.0 / params.two_sharp) * f.f_avg ** (2.0 / params.reduced_dim))
    _, _, lo, gap = _orbit_gap(params, bound_second, orbit1, orbit2, volume, ffac)
    hi = bound_second.lo
    conds = (ConditionReport("stay-below", "satisfied", hi), gap)
    return GuaranteedInterval(lo, hi, gap_strict or math.isinf(lo), False, 2, conds)


def constant_f_intervals(params, bound_first, bound_second, orbit1, orbit2, volume):
    """Multiplicity intervals for constant weight f = 1.

    Returns (double, triple).  On double the two invariant minimizers
    have distinct energies; on triple both also differ from the constant
    solution alpha^{(n-2-k)/4}.  Both are closed at the lower endpoint
    and open at the upper endpoint min of the windows' lower ends.
    """
    a1t, a2t, lo, gap = _orbit_gap(params, bound_second, orbit1, orbit2, volume)
    hi = min(bound_first.lo, bound_second.lo)
    sep_ok = bound_second.hi - a2t < bound_first.lo - a1t
    conds = [
        ConditionReport("stay-below", "satisfied", hi),
        ConditionReport(
            "separation-window", "satisfied" if sep_ok else "unsatisfiable"
        ),
        gap,
    ]
    double = GuaranteedInterval(lo, hi, False, True, 2, tuple(conds))
    if math.isinf(lo):
        return double, replace(double, count=3)
    cs_ok = a2t < hi
    tconds = conds + [
        ConditionReport(
            "constant-dominated", "satisfied" if cs_ok else "unsatisfiable", a2t
        )
    ]
    triple = GuaranteedInterval(max(lo, a2t), hi, False, True, 3, tuple(tconds))
    return double, triple


@dataclass(frozen=True)
class OrderingVerdict:
    """Outcome of one pairwise energy comparison.

    separated True means the minimizer of the smaller-orbit group has
    strictly smaller energy; None means the needed constant is unknown.
    """

    small: int
    large: int
    lhs: float
    rhs: float | None
    separated: bool | None

    def to_json(self):
        return {
            "small": self.small,
            "large": self.large,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "separated": self.separated,
        }


@dataclass(frozen=True)
class OrderingReport:
    alpha: float
    pairs: tuple

    @property
    def all_separated(self):
        return all(v.separated for v in self.pairs)

    def to_json(self):
        return {"alpha": self.alpha, "pairs": [v.to_json() for v in self.pairs]}


def energy_ordering_check(params, groups, alpha, bound_ambient, volume, f=None):
    """Pairwise energy comparison across a family of invariant minimizers.

    groups: sequence of (orbit_volume, ConstantBound).  Requires n > 4
    and alpha inside the window where every group admits a minimizer,

        n(n-4)/(n-2)^2 * ambient_hi  <=  alpha  <=  min_i lower_i.

    For a pair with orbit volumes a < b the smaller-orbit energy is
    strictly below the larger one when (b/a)^{2/N} > 1 + (B_b - alpha) C_b.
    """
    n, k, N = params.n, params.k, params.reduced_dim
    if n <= 4:
        raise PreconditionError("the pairwise comparison needs n > 4")
    if len(groups) < 2:
        raise PreconditionError("need at least two groups to compare")
    if not volume > 0.0:
        raise PreconditionError("manifold volume must be positive")
    if f is None:
        f = FProfile.constant()
    if math.isinf(bound_ambient.hi):
        raise PreconditionError("the admissibility window needs a finite ambient upper bound")
    floor = n * (n - 4.0) / (n - 2.0) ** 2 * bound_ambient.hi
    ceiling = min(b.lo for _, b in groups)
    if not (floor <= alpha <= ceiling):
        raise PreconditionError(
            "alpha=%r outside the admissibility window [%r, %r]" % (alpha, floor, ceiling)
        )
    f_int = f.f_avg * volume
    mass_exp = 2.0 * (n - 2 - k) / (N * (n - 2.0))
    cinv = ((n - 2.0) ** 2 / (n * (n - 4.0))) ** (n / (n - 2.0))
    verdicts = []
    for i in range(len(groups)):
        for j in range(len(groups)):
            if i == j:
                continue
            a_small, _ = groups[i]
            a_large, bound_large = groups[j]
            if not a_small < a_large:
                continue
            lhs = (a_large / a_small) ** (2.0 / N)
            if math.isinf(bound_large.hi):
                verdicts.append(OrderingVerdict(i, j, lhs, None, None))
                continue
            c_large = (
                sobolev_constant(n) ** (n / (n - 2.0))
                * sobolev_constant(N) ** (-2.0 / (n - 2.0))
                * a_large ** (4.0 / (N * (n - 2.0)))
                * cinv
                * (f_int / f.f_max) ** mass_exp
            )
            rhs = 1.0 + (bound_large.hi - alpha) * c_large
            verdicts.append(OrderingVerdict(i, j, lhs, rhs, lhs > rhs))
    return OrderingReport(alpha=alpha, pairs=tuple(verdicts))


@dataclass(frozen=True)
class FRatioCheck:
    """Displayed peak-ratio condition of a packaged example."""

    example: str
    lhs: float
    rhs: float
    holds: bool

    def to_json(self):
        return {"example": self.example, "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


def f_ratio_condition(example, f, **params):
    """Evaluate the sufficient peak-ratio condition of one weighted example.

    When it holds, the energy-gap condition is implied by the other two
    and example_interval(f=...) collapses to the closed form it has for
    an admissible weight.
    """
    cfg = example_configuration(example, **params)
    if f is None:
        raise PreconditionError("the peak-ratio condition needs an explicit weight profile")
    ratio = _EXAMPLES[example].ratio
    if ratio is None:
        raise PreconditionError(
            "example %r fixes a constant weight; no peak-ratio condition applies" % (example,)
        )
    lhs, rhs = ratio(cfg, f)
    return FRatioCheck(example=example, lhs=lhs, rhs=rhs, holds=lhs >= rhs)


def _cap(interval, ceiling, closed, label):
    """Intersect with an existence ceiling alpha <= / < ceiling."""
    conds = interval.conditions + (
        ConditionReport(label, "satisfied", ceiling),
    )
    hi, hi_strict = interval.hi, interval.hi_strict
    if ceiling < hi or (ceiling == hi and not closed and not hi_strict):
        hi, hi_strict = ceiling, not closed
    return replace(interval, hi=hi, hi_strict=hi_strict, conditions=conds)


def _endpoint_flatness(f, required_order):
    """Whether the closed right endpoint is certified for this weight."""
    if f is None:
        return True
    if f.vanishing_order is None:
        return False
    return f.vanishing_order >= required_order


def example_interval(example, f=None, **params):
    """Guaranteed multiplicity interval of one packaged example.

    f applies to the weighted examples only (those on the critical or
    invariant route); None means any admissible weight, i.e. one that
    is peak-flat to the documented order and satisfies the example's
    peak-ratio condition.
    """
    cfg = example_configuration(example, **params)
    recipe = _EXAMPLES[example]
    p = cfg.params
    family = (cfg.first.orbit_volume, cfg.second.orbit_volume, cfg.volume)
    if recipe.route in ("double", "triple"):
        if f is not None:
            raise PreconditionError("example %r fixes the constant weight f = 1" % (example,))
        double, triple = constant_f_intervals(p, *recipe.windows(cfg), *family)
        if recipe.route == "double":
            return double
        # the upper endpoint is attained: at alpha = hi the equation is the
        # scalar-curvature one and the same three solutions persist
        return replace(triple, hi_strict=False)
    bounds = [(existence_alpha_bound(p, getattr(cfg, a), f), label) for a, label in recipe.ceilings]
    if not all(bound.flatness_ok for bound, _ in bounds):
        raise PreconditionError(
            "example %r requires a peak-flat weight (zero Laplacian at the maximum)" % (example,)
        )
    route = critical_interval if recipe.route == "critical" else invariant_interval
    out = route(p, *recipe.windows(cfg), *family, f, gap_strict=False)
    closed = recipe.flatness is not None and _endpoint_flatness(f, recipe.flatness(p.n))
    for bound, label in bounds:
        out = _cap(out, bound.ceiling, closed, label)
    return out
