"""Independent oracle for the two sharp-inequality interval routes.

Direct closed-form evaluation of the band-inequality interval at
crit = 2n/(n-2), P = K_n, D = ambient constant (critical) and at
crit = two_sharp, P = K_N / orbit2^{2/N}, D = second invariant constant
(invariant), written out without the shared engine in
symcrit.conditions.  Only finite windows are covered; how the engine
treats an unknown constant is pinned by the tests themselves.
"""

import math

from symcrit import GuaranteedInterval, sobolev_constant


def _merge_lo(floor, lo3, gap_strict):
    if lo3 > floor:
        return lo3, gap_strict
    if lo3 == floor:
        return floor, gap_strict
    return floor, False


def _finish(floor, bound_second, gap, f, gap_strict):
    hi = bound_second.lo
    if f is None:
        return GuaranteedInterval(floor, hi, False, False, 2)
    lo, lo_strict = _merge_lo(floor, bound_second.hi - gap, gap_strict)
    return GuaranteedInterval(lo, hi, lo_strict, False, 2)


def critical_interval(params, bound_ambient, bound_second, orbit1, orbit2, volume, f=None,
                      *, gap_strict=True):
    n, k, N = params.n, params.k, params.reduced_dim
    assert n > 4 and math.isfinite(bound_ambient.hi) and math.isfinite(bound_second.hi)
    c = n * (n - 4.0) / (n - 2.0) ** 2
    gap = None
    if f is not None:
        mass_exp = 2.0 * (n - 2 - k) / (N * (n - 2.0))
        rho = (orbit2 / orbit1) ** (2.0 / N) - 1.0
        gap = (
            rho
            * sobolev_constant(N) ** (2.0 / (n - 2.0))
            * c ** (n / (n - 2.0))
            * f.peak_ratio**mass_exp
            / (
                orbit2 ** (4.0 / (N * (n - 2.0)))
                * volume**mass_exp
                * sobolev_constant(n) ** (n / (n - 2.0))
            )
        )
    return _finish(c * bound_ambient.hi, bound_second, gap, f, gap_strict)


def invariant_interval(params, bound_second, orbit1, orbit2, volume, f=None, *, gap_strict=True):
    N = params.reduced_dim
    assert N > 4 and math.isfinite(bound_second.hi)
    c = N * (N - 4.0) / (N - 2.0) ** 2
    gap = None
    if f is not None:
        rho = (orbit2 / orbit1) ** (2.0 / N) - 1.0
        gap = (
            rho
            * orbit2 ** (2.0 / N)
            * c ** (N / (N - 2.0))
            * f.peak_ratio ** (2.0 / N)
            / (sobolev_constant(N) * volume ** (2.0 / N))
        )
    return _finish(c * bound_second.hi, bound_second, gap, f, gap_strict)
