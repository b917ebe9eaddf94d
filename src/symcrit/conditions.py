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

from ._record import record
from .best_constants import _curvature_term
from .constants import _above, _concentration_threshold, _finite, _real, sobolev_constant
from .errors import PreconditionError
from .geometry import _EXAMPLES, _configuration_numbers, example_configuration

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


@record
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
        for name in ("f_max", "f_min", "f_avg", "f_at_peak"):
            object.__setattr__(self, name, _above(getattr(self, name), name, 0.0))
        if not self.f_min <= self.f_avg <= self.f_max:
            raise PreconditionError(
                "need 0 < f_min <= f_avg <= f_max < inf, got min=%r avg=%r max=%r"
                % (self.f_min, self.f_avg, self.f_max)
            )
        if self.f_at_peak != self.f_max:
            raise PreconditionError("the peak value f_at_peak must be the maximum of f")
        object.__setattr__(self, "laplacian_at_peak", _finite(self.laplacian_at_peak, "laplacian_at_peak"))
        if self.vanishing_order is not None:
            order = float(_real(self.vanishing_order, "vanishing_order"))
            if not order >= 1.0:
                raise PreconditionError("vanishing_order must be >= 1 when given, got %r" % (order,))
            object.__setattr__(self, "vanishing_order", order)

    @classmethod
    def constant(cls, value=1.0):
        v = float(value)
        return cls(v, v, v, v, 0.0, math.inf)

    @property
    def peak_ratio(self):
        return self.f_max / self.f_avg


@record
class GenericIneqParams:
    """Constants (crit, P, D) of one valid band inequality; see module docstring."""

    crit: float
    P: float
    D: float

    def __post_init__(self):
        crit = _finite(self.crit, "band exponent crit")
        if not 2.0 < crit < 4.0:
            raise PreconditionError("the band exponent crit must satisfy 2 < crit < 4, got %r" % (crit,))
        object.__setattr__(self, "crit", crit)
        object.__setattr__(self, "P", _above(self.P, "gradient constant P", 0.0))
        D = _finite(self.D, "zero-order constant D")
        if not D >= 0.0:
            raise PreconditionError("zero-order constant D must be >= 0, got %r" % (D,))
        object.__setattr__(self, "D", D)

    @property
    def band_factor(self):
        """c(crit) = crit (4 - crit) / 4, the defect-domination coefficient."""
        return self.crit * (4.0 - self.crit) / 4.0


# ConditionReport and GuaranteedInterval are built on every example_interval
# call, so each has a hand-written __init__ with fixed parameters that stores
# its fields through their slot descriptors, bound once below each class: the
# shared record __init__ takes *args and **kwargs and binds them in Python.


@record
class ConditionReport:
    """One sufficient condition behind an interval, with its verdict and the
    alpha endpoint it imposes (None when it imposes none)."""

    label: str
    status: str  # "satisfied" | "unsatisfiable" | "needs-unknown-constant" | "assumed"
    value: float | None = None

    def __init__(self, label, status, value=None):
        _set_label(self, label)
        _set_status(self, status)
        _set_value(self, value)

    def to_json(self):
        d = {"label": self.label, "status": self.status}
        if self.value is not None and math.isfinite(self.value):
            d["value"] = self.value
        return d


_set_label = ConditionReport.label.__set__
_set_status = ConditionReport.status.__set__
_set_value = ConditionReport.value.__set__

# The condition reports that carry no value, built once and shared: they are frozen.
_ASSUMED_GAP = ConditionReport("energy-gap", "assumed")
_UNKNOWN_GAP = ConditionReport("energy-gap", "needs-unknown-constant")
_UNKNOWN_DEFECT = ConditionReport("dominate-defect", "needs-unknown-constant")
_SEPARATED = ConditionReport("separation-window", "satisfied")
_NOT_SEPARATED = ConditionReport("separation-window", "unsatisfiable")


@record
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

    def __init__(self, lo, hi, lo_strict=False, hi_strict=False, count=2, conditions=()):
        if math.isnan(lo) or math.isnan(hi):
            raise PreconditionError("interval endpoints must not be NaN")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_lo_strict(self, lo_strict)
        _set_hi_strict(self, hi_strict)
        _set_count(self, count)
        _set_conditions(self, conditions)

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
            "conditions": list(self.conditions),
        }


_set_lo = GuaranteedInterval.lo.__set__
_set_hi = GuaranteedInterval.hi.__set__
_set_lo_strict = GuaranteedInterval.lo_strict.__set__
_set_hi_strict = GuaranteedInterval.hi_strict.__set__
_set_count = GuaranteedInterval.count.__set__
_set_conditions = GuaranteedInterval.conditions.__set__


@record
class ExistenceBound:
    """Ceiling below which an invariant minimizing solution exists."""

    ceiling: float
    flatness_ok: bool


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
    numbers = (action.orbit_volume, action.quotient_scal_lower, action.vh_laplacian_lower)
    return ExistenceBound(*_existence_ceiling(params, action.k, numbers, f))


def _existence_ceiling(params, k, numbers, f):
    """(ceiling, flatness_ok) of existence_alpha_bound, with no record built,
    for an action with k-dimensional orbits and the numbers (orbit volume,
    scal lower bound, orbit-volume Laplacian lower bound)."""
    N = params.reduced_dim
    if N < 4:
        raise PreconditionError("the concentration bound needs n - k >= 4, got %d" % N)
    if params.k != k:
        raise PreconditionError("action orbit dimension does not match the parameters")
    flat = True
    if f is not None and N > 4:
        flat = f.laplacian_at_peak == 0.0
    return _curvature_term(N, *numbers), flat


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


def _energy_gap(params, crit, c, P, rho, orbit2, volume, f):
    """gap of the condition alpha > bound_second.hi - gap for the band
    inequality (crit, P), with c = c(crit); it is linear in rho = (A2/A1)^{2/N} - 1."""
    N = params.reduced_dim
    mass_exp = (crit - 2.0) * (params.n - 2 - params.k) / (2.0 * N)
    return (
        rho
        * orbit2 ** ((2.0 - crit) / N)
        * sobolev_constant(N) ** ((crit - 2.0) / 2.0)
        * c ** (crit / 2.0)
        * f.peak_ratio**mass_exp
        / (volume**mass_exp * P ** (crit / 2.0))
    )


def _band(params, crit, c, P, D, second_lo, second_hi, orbit1, orbit2, volume, f, gap_strict):
    """(lo, hi, lo_strict, conditions) of generic_interval for the band
    inequality (crit, P, D) and the window [second_lo, second_hi] of the
    second constant; its upper endpoint hi is closed.

    c = c(crit) is passed in, not recomputed: crit (4 - crit) / 4 and a
    route's closed form differ by an ulp at some n, and the floor c D
    must be the one that route displays.  D = inf marks an unknown
    constant.  conditions is a list, so example_interval can append its
    existence ceilings before it builds the one interval it returns.
    """
    _check_family(params, orbit1, orbit2, volume)
    hi = second_lo
    if math.isinf(D):
        floor, defect = math.inf, _UNKNOWN_DEFECT
    else:
        floor = c * D
        defect = ConditionReport("dominate-defect", "satisfied", floor)
    if f is None:
        lo, lo_strict, gap = floor, False, _ASSUMED_GAP
    elif math.isinf(second_hi):
        lo, lo_strict, gap = math.inf, True, _UNKNOWN_GAP
    else:
        rho = (orbit2 / orbit1) ** (2.0 / params.reduced_dim) - 1.0
        lo3 = second_hi - _energy_gap(params, crit, c, P, rho, orbit2, volume, f)
        gap = ConditionReport("energy-gap", "satisfied", lo3)
        lo, lo_strict = _merge_lo(floor, lo3, gap_strict)
    return lo, hi, lo_strict, [ConditionReport("stay-below", "satisfied", hi), defect, gap]


def _band_interval(lo, hi, lo_strict, conditions):
    """The interval of one band's (lo, hi, lo_strict, conditions)."""
    return GuaranteedInterval(lo, hi, lo_strict, False, 2, tuple(conditions))


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
    return _band_interval(*_band(
        params, ineq.crit, ineq.band_factor, ineq.P, ineq.D,
        bound_second.lo, bound_second.hi, orbit1, orbit2, volume, f, gap_strict,
    ))


def _ambient_band(n):
    """(crit, c(crit), P) of the ambient sharp inequality: 2n/(n-2), n(n-4)/(n-2)^2, K_n."""
    return 2.0 * n / (n - 2.0), n * (n - 4.0) / (n - 2.0) ** 2, sobolev_constant(n)


def critical_interval(
    params, bound_ambient, bound_second, orbit1, orbit2, volume, f=None, *, gap_strict=True
):
    """Distinct-energy interval built on the ambient sharp inequality.

    generic_interval at crit = 2n/(n-2), P = K_n and D = bound_ambient.hi,
    with c(crit) = n(n-4)/(n-2)^2; an infinite bound_ambient.hi leaves
    dominate-defect unknown.  Needs n > 4.
    """
    return _band_interval(*_critical_band(
        params, bound_ambient.hi, bound_second.lo, bound_second.hi, orbit1, orbit2, volume, f, gap_strict,
    ))


def _critical_band(params, ambient_hi, second_lo, second_hi, orbit1, orbit2, volume, f, gap_strict):
    """critical_interval's (lo, hi, lo_strict, conditions) from the window
    ends it reads; see _band."""
    n = params.n
    if n <= 4:
        raise PreconditionError("the ambient route needs n > 4, got n=%d" % n)
    return _band(
        params, *_ambient_band(n), ambient_hi, second_lo, second_hi, orbit1, orbit2, volume, f, gap_strict,
    )


def invariant_interval(params, bound_second, orbit1, orbit2, volume, f=None, *, gap_strict=True):
    """Distinct-energy interval built on the invariant sharp inequality.

    generic_interval at crit = two_sharp, P = K_N / orbit2^{2/N} and
    D = bound_second.hi, with c(crit) = N(N-4)/(N-2)^2; an infinite
    bound_second.hi leaves dominate-defect unknown.  Needs n - k > 4.
    """
    return _band_interval(*_invariant_band(
        params, bound_second.lo, bound_second.hi, orbit1, orbit2, volume, f, gap_strict,
    ))


def _invariant_band(params, second_lo, second_hi, orbit1, orbit2, volume, f, gap_strict):
    """invariant_interval's (lo, hi, lo_strict, conditions) from the window
    ends it reads; see _band."""
    N = params.reduced_dim
    if N <= 4:
        raise PreconditionError("the invariant route needs n - k > 4, got %d" % N)
    return _band(
        params, params.two_sharp, N * (N - 4.0) / (N - 2.0) ** 2,
        sobolev_constant(N) / orbit2 ** (2.0 / N), second_hi,
        second_lo, second_hi, orbit1, orbit2, volume, f, gap_strict,
    )


def _orbit_gap(params, second_hi, orbit1, orbit2, volume, scale=1.0):
    """Orbit terms t_i = scale A_i^{2/N} / (K_N V^{2/N}) and the energy-gap
    condition alpha >= second_hi - (t2 - t1), second_hi the second
    window's upper end; its endpoint is inf when second_hi is unknown.

    Returns (t1, t2, endpoint, condition report).
    """
    _check_family(params, orbit1, orbit2, volume)
    N = params.reduced_dim
    # best_constants._volume_term's float operations, with its denominator formed once
    denominator = sobolev_constant(N) * volume ** (2.0 / N)
    t1 = orbit1 ** (2.0 / N) / denominator * scale
    t2 = orbit2 ** (2.0 / N) / denominator * scale
    if math.isinf(second_hi):
        return t1, t2, math.inf, _UNKNOWN_GAP
    lo = _gap_lower(second_hi, t1, t2)
    return t1, t2, lo, ConditionReport("energy-gap", "satisfied", lo)


def minf_interval(params, bound_second, orbit1, orbit2, volume, f, *, gap_strict=True):
    """Distinct-energy interval from the minimum of the weight alone.

    Valid for every n - k >= 3; no band inequality enters:

        gap = (A2^{2/N} - A1^{2/N}) / (K_N V^{2/N})
              * f_min / ( f_max^{2/two_sharp} f_avg^{2/N} ).
    """
    ffac = f.f_min / (f.f_max ** (2.0 / params.two_sharp) * f.f_avg ** (2.0 / params.reduced_dim))
    _, _, lo, gap = _orbit_gap(params, bound_second.hi, orbit1, orbit2, volume, ffac)
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
    band = _constant_f_band(
        params, bound_first.lo, bound_second.lo, bound_second.hi, orbit1, orbit2, volume
    )
    return _double(*band), _triple(*band, True)


def _constant_f_band(params, first_lo, second_lo, second_hi, orbit1, orbit2, volume):
    """(lo, hi, a2t, conditions) that double and triple share, a2t the
    second orbit term, from the window ends they read; example_interval
    builds only the one it returns."""
    a1t, a2t, lo, gap = _orbit_gap(params, second_hi, orbit1, orbit2, volume)
    hi = min(first_lo, second_lo)
    sep = _SEPARATED if second_hi - a2t < first_lo - a1t else _NOT_SEPARATED
    return lo, hi, a2t, (ConditionReport("stay-below", "satisfied", hi), sep, gap)


def _double(lo, hi, _a2t, conditions):
    """constant_f_intervals' double from _constant_f_band."""
    return GuaranteedInterval(lo, hi, False, True, 2, conditions)


def _triple(lo, hi, a2t, conditions, hi_strict):
    """constant_f_intervals' triple from _constant_f_band, open or closed at its upper endpoint."""
    if math.isinf(lo):
        return GuaranteedInterval(lo, hi, False, hi_strict, 3, conditions)
    dominated = ConditionReport("constant-dominated", "satisfied" if a2t < hi else "unsatisfiable", a2t)
    return GuaranteedInterval(max(lo, a2t), hi, False, hi_strict, 3, conditions + (dominated,))


@record
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


@record
class OrderingReport:
    """energy_ordering_check's verdicts at one alpha, one OrderingVerdict per
    pair of groups with orbit volumes a_small < a_large."""

    alpha: float
    pairs: tuple

    @property
    def all_separated(self):
        return all(v.separated for v in self.pairs)


def energy_ordering_check(params, groups, alpha, bound_ambient, volume, f=None):
    """Pairwise energy comparison across a family of invariant minimizers.

    groups: sequence of (orbit_volume, ConstantBound).  Requires n > 4
    and alpha inside the window where every group admits a minimizer,

        n(n-4)/(n-2)^2 * ambient_hi  <=  alpha  <=  min_i lower_i.

    For a pair with orbit volumes a < b the smaller-orbit energy is
    strictly below the larger one when lhs = (b/a)^{2/N} exceeds
    rhs = 1 + (B_b - alpha) (lhs - 1) / gap, with gap critical_interval's
    for the pair: that is, when alpha > B_b - gap.  (lhs - 1) / gap is
    1 / gap at rho = 1, finite even where lhs rounds to 1.
    """
    n, N = params.n, params.reduced_dim
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
    crit, c, P = _ambient_band(n)
    floor = c * bound_ambient.hi
    ceiling = min(b.lo for _, b in groups)
    if not (floor <= alpha <= ceiling):
        raise PreconditionError(
            "alpha=%r outside the admissibility window [%r, %r]" % (alpha, floor, ceiling)
        )
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
            rhs = 1.0 + (bound_large.hi - alpha) / _energy_gap(params, crit, c, P, 1.0, a_large, volume, f)
            verdicts.append(OrderingVerdict(i, j, lhs, rhs, lhs > rhs))
    return OrderingReport(alpha=alpha, pairs=tuple(verdicts))


@record
class FRatioCheck:
    """Displayed peak-ratio condition of a packaged example."""

    example: str
    lhs: float
    rhs: float
    holds: bool


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


def _cap(hi, conditions, bounds, closed):
    """(hi, hi_strict) of alpha <= hi once intersected with the existence
    ceilings alpha <= / < ceiling of the ((ceiling, flatness_ok), condition
    label) pairs in bounds; appends each ceiling's condition to conditions."""
    hi_strict = False
    for (ceiling, _), label in bounds:
        conditions.append(ConditionReport(label, "satisfied", ceiling))
        if ceiling < hi or (ceiling == hi and not closed and not hi_strict):
            hi, hi_strict = ceiling, not closed
    return hi, hi_strict


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
    recipe, inputs, x = _configuration_numbers(example, params)
    p = x.params
    family = (x.first[0], x.second[0], x.volume)
    if recipe.route in ("double", "triple"):
        if f is not None:
            raise PreconditionError("example %r fixes the constant weight f = 1" % (example,))
        band = _constant_f_band(p, *recipe.windows(inputs, x), *family)
        if recipe.route == "double":
            return _double(*band)
        # triple's upper endpoint is attained: at alpha = hi the equation is
        # the scalar-curvature one and the same three solutions persist
        return _triple(*band, False)
    bounds = [(_existence_ceiling(p, p.k, getattr(x, a), f), label) for a, label in recipe.ceilings]
    if not all(flat for (_, flat), _ in bounds):
        raise PreconditionError(
            "example %r requires a peak-flat weight (zero Laplacian at the maximum)" % (example,)
        )
    route = _critical_band if recipe.route == "critical" else _invariant_band
    lo, hi, lo_strict, conds = route(p, *recipe.windows(inputs, x), *family, f, False)
    closed = recipe.flatness is not None and _endpoint_flatness(f, recipe.flatness(p.n))
    hi, hi_strict = _cap(hi, conds, bounds, closed)
    return GuaranteedInterval(lo, hi, lo_strict, hi_strict, 2, tuple(conds))
