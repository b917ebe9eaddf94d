import math

import direct_routes
import pytest
from hypothesis import given, strategies as st

from symcrit import conditions
from symcrit import (
    ConstantBound,
    EquationParams,
    FProfile,
    GenericIneqParams,
    GuaranteedInterval,
    PreconditionError,
    b0_quotient_sphere,
    b0_sphere,
    constant_f_intervals,
    critical_interval,
    energy_ordering_check,
    example_interval,
    existence_alpha_bound,
    existence_threshold,
    example_configuration,
    f_ratio_condition,
    generic_interval,
    invariant_interval,
    minf_interval,
    sobolev_constant,
    sphere_volume,
)

REL = 1e-12


def _flat_profile(ratio):
    """Peak-flat weight with prescribed max/avg ratio, flat to every order."""
    return FProfile(float(ratio), 1.0, 1.0, float(ratio), 0.0, math.inf)


# ---------------------------------------------------------------------------
# interval container semantics


def test_interval_emptiness_and_midpoint():
    assert GuaranteedInterval(2.0, 1.0).empty
    assert GuaranteedInterval(1.0, 1.0, lo_strict=True).empty
    assert GuaranteedInterval(1.0, 1.0, hi_strict=True).empty
    degenerate = GuaranteedInterval(1.0, 1.0)
    assert not degenerate.empty
    assert degenerate.midpoint == 1.0
    with pytest.raises(PreconditionError):
        _ = GuaranteedInterval(2.0, 1.0).midpoint
    with pytest.raises(PreconditionError):
        GuaranteedInterval(math.nan, 1.0)


def test_interval_contains_respects_strictness():
    iv = GuaranteedInterval(1.0, 2.0, lo_strict=True, hi_strict=False)
    assert not iv.contains(1.0)
    assert iv.contains(1.5)
    assert iv.contains(2.0)
    assert not iv.contains(2.5)
    closed = GuaranteedInterval(1.0, 2.0)
    assert closed.contains(1.0) and closed.contains(2.0)


@given(
    lo=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-4.0, 4.0),
    hi=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-4.0, 4.0),
    lo_strict=st.booleans(),
    hi_strict=st.booleans(),
)
def test_contains_agrees_with_empty_and_endpoint_strictness(lo, hi, lo_strict, hi_strict):
    iv = GuaranteedInterval(lo, hi, lo_strict, hi_strict)
    below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    mid = 0.5 * (lo + hi)
    assert not iv.contains(below) and not iv.contains(above)
    if iv.empty:
        assert not any(iv.contains(a) for a in (lo, hi, mid))
    else:
        assert iv.contains(lo) == (not lo_strict)
        assert iv.contains(hi) == (not hi_strict)
        if lo < mid < hi:
            assert iv.contains(mid)


@given(
    floor=st.sampled_from([-0.0, 0.0, math.inf]) | st.floats(-2.0, 2.0),
    lo3=st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]) | st.floats(-2.0, 2.0),
    gap_strict=st.booleans(),
)
def test_merge_lo_matches_the_oracle_and_keeps_the_floors_zero(floor, lo3, gap_strict):
    got = conditions._merge_lo(floor, lo3, gap_strict)
    want = direct_routes._merge_lo(floor, lo3, gap_strict)
    assert got == want
    assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])


def test_interval_to_json_shape():
    iv = GuaranteedInterval(0.5, 1.5, count=3)
    d = iv.to_json()
    assert d["lo"] == 0.5 and d["hi"] == 1.5
    assert d["count"] == 3 and d["empty"] is False
    assert d["conditions"] == []


# ---------------------------------------------------------------------------
# displayed closed forms of the packaged examples


def test_sphere_quotients_display():
    n = 5
    iv = example_interval("sphere-quotients")  # defaults n=5, orders 2 < 4
    assert iv.lo == pytest.approx(n**2 * (n - 4.0) / (4.0 * (n - 2.0)), rel=REL)
    assert iv.hi == pytest.approx(n * (n - 2.0) / 4.0, rel=REL)
    assert not iv.lo_strict and not iv.hi_strict
    assert iv.count == 2 and not iv.empty


def test_cylinder_weighted_display():
    n, t = 6, 1.0
    iv = example_interval("cylinder-weighted")
    hi_window = (n - 2.0) ** 2 / 4.0 + 1.0 / (4.0 * t * t)
    assert iv.lo == pytest.approx(n * (n - 4.0) / (n - 2.0) ** 2 * hi_window, rel=REL)
    assert iv.hi == pytest.approx((n - 2.0) ** 2 / 4.0, rel=REL)
    assert not iv.lo_strict and not iv.hi_strict


def test_triple_product_display():
    n, b = 10, 0.28
    m = n - 3
    iv = example_interval("triple-product")
    assert iv.lo == pytest.approx(m**2 * (m - 4.0) / (4.0 * (m - 2.0)), rel=REL)
    # the binding ceiling comes from the smaller-orbit action
    ceil1 = (n - 5.0) / (4.0 * (n - 4.0)) * (2.0 / b**2 + (n - 6.0) * (n - 7.0))
    assert iv.hi == pytest.approx(ceil1, rel=REL)
    assert iv.hi_strict and not iv.lo_strict
    assert not iv.empty


def test_cylinder_triple_display():
    n, t, a1, a2 = 5, 40.0, 1, 2
    iv = example_interval("cylinder-triple")
    vol = 2.0 * math.pi * t * sphere_volume(n - 1)
    gap = (a2 ** (2.0 / n) - a1 ** (2.0 / n)) / (
        sobolev_constant(n) * vol ** (2.0 / n)
    )
    lo = (n - 2.0) ** 2 / 4.0 + a2**2 / (4.0 * t * t) - gap
    assert iv.lo == pytest.approx(lo, rel=REL)
    assert iv.hi == pytest.approx((n - 2.0) ** 2 / 4.0, rel=REL)
    assert iv.count == 3
    assert not iv.lo_strict and not iv.hi_strict


@pytest.mark.parametrize("t", [1.5, 2.0, 8.0, 100.0])
def test_hopf_display(t):
    iv = example_interval("hopf", t=t)
    # rel 5e-15, abs 0: the lower endpoint is ~20x smaller than the pair
    # of volume terms it comes from, so a few ulp of pow noise amplify
    assert iv.lo == pytest.approx(0.75 / t ** (2.0 / 3.0), rel=5e-15, abs=0.0)
    assert iv.hi == 0.75
    assert iv.hi_strict and not iv.lo_strict
    assert iv.count == 2 and not iv.empty


@pytest.mark.parametrize("n,t", [(5, 8.0), (5, 100.0), (7, 12.0)])
def test_cylinder_overcritical_display(n, t):
    iv = example_interval("cylinder-overcritical", n=n, t=t)
    assert iv.lo == pytest.approx(
        (n - 1.0) * (n - 3.0) / (4.0 * t ** (2.0 / (n - 1.0))), rel=REL, abs=0.0
    )
    assert iv.hi == pytest.approx((n - 3.0) ** 2 / 4.0, rel=REL, abs=0.0)
    assert iv.hi_strict and not iv.empty


# ---------------------------------------------------------------------------
# out-of-window behavior


def test_triple_product_small_sphere_empties_the_interval():
    iv = example_interval("triple-product", b=0.3)
    assert iv.empty
    with pytest.raises(PreconditionError, match=r"4 a b\^2"):
        example_interval("triple-product", b=0.2)


def test_cylinder_triple_short_circle_empties_the_interval():
    iv = example_interval("cylinder-triple", t=1.0)
    assert iv.empty
    assert iv.lo > iv.hi


def test_cylinder_overcritical_below_volume_threshold():
    # at t = 3 < ((n-1)/(n-3))^{(n-1)/2} the endpoints collide (equal in
    # exact arithmetic), so the interval is empty or degenerate
    iv = example_interval("cylinder-overcritical", n=5, t=3.0)
    assert iv.empty or (iv.hi - iv.lo) <= 1e-12


# ---------------------------------------------------------------------------
# generic engine and the two sharp-inequality routes vs the direct
# closed forms kept in tests/direct_routes.py


def _random_family(rng):
    orbit1 = float(10.0 ** rng.uniform(-1.0, 1.0))
    orbit2 = orbit1 * (1.0 + float(10.0 ** rng.uniform(-3.0, 1.0)))
    volume = float(10.0 ** rng.uniform(0.0, 3.0))
    return orbit1, orbit2, volume


def _random_profile(rng):
    f_min = float(rng.uniform(0.1, 1.0))
    f_avg = f_min * (1.0 + float(rng.uniform(0.0, 2.0)))
    f_max = f_avg * (1.0 + float(rng.uniform(0.0, 3.0)))
    return FProfile(f_max, f_min, f_avg, f_max, 0.0, math.inf)


def _assert_same_interval(a, b):
    for x, y in ((a.lo, b.lo), (a.hi, b.hi)):
        assert math.isclose(x, y, rel_tol=REL, abs_tol=1e-12)
    assert a.lo_strict == b.lo_strict
    assert a.hi_strict == b.hi_strict
    assert a.count == b.count


def test_generic_engine_matches_ambient_route():
    import numpy as np

    rng = np.random.default_rng(20240811)
    for trial in range(100):
        n = int(rng.integers(5, 13))
        k = int(rng.integers(0, n - 4))  # keep n - k >= 5
        params = EquationParams(n, k)
        orbit1, orbit2, volume = _random_family(rng)
        amb_lo = float(rng.uniform(0.1, 20.0))
        amb = ConstantBound(amb_lo, amb_lo + float(rng.uniform(0.0, 10.0)))
        sec_lo = float(rng.uniform(0.1, 20.0))
        sec = ConstantBound(sec_lo, sec_lo + float(rng.uniform(0.0, 10.0)))
        f = None if trial % 5 == 0 else _random_profile(rng)
        crit = 2.0 * n / (n - 2.0)
        ineq = GenericIneqParams(crit, sobolev_constant(n), amb.hi)
        direct = direct_routes.critical_interval(params, amb, sec, orbit1, orbit2, volume, f)
        _assert_same_interval(generic_interval(params, ineq, sec, orbit1, orbit2, volume, f), direct)
        _assert_same_interval(critical_interval(params, amb, sec, orbit1, orbit2, volume, f), direct)


def test_generic_engine_matches_invariant_route():
    import numpy as np

    rng = np.random.default_rng(20240812)
    for trial in range(100):
        n = int(rng.integers(7, 13))
        k = int(rng.integers(0, n - 4))  # keep n - k >= 5
        params = EquationParams(n, k)
        N = params.reduced_dim
        orbit1, orbit2, volume = _random_family(rng)
        sec_lo = float(rng.uniform(0.1, 20.0))
        sec = ConstantBound(sec_lo, sec_lo + float(rng.uniform(0.0, 10.0)))
        f = None if trial % 5 == 0 else _random_profile(rng)
        ineq = GenericIneqParams(
            params.two_sharp, sobolev_constant(N) / orbit2 ** (2.0 / N), sec.hi
        )
        direct = direct_routes.invariant_interval(params, sec, orbit1, orbit2, volume, f)
        _assert_same_interval(generic_interval(params, ineq, sec, orbit1, orbit2, volume, f), direct)
        _assert_same_interval(invariant_interval(params, sec, orbit1, orbit2, volume, f), direct)


def test_minf_route_at_constant_weight_matches_constant_route():
    import numpy as np

    rng = np.random.default_rng(20240813)
    for _ in range(100):
        n = int(rng.integers(5, 11))
        k = int(rng.integers(0, n - 2))
        params = EquationParams(n, k)
        orbit1, orbit2, volume = _random_family(rng)
        lo1 = float(rng.uniform(0.1, 20.0))
        lo2 = float(rng.uniform(0.1, 20.0))
        b1 = ConstantBound(lo1, lo1 + float(rng.uniform(0.0, 10.0)))
        b2 = ConstantBound(lo2, lo2 + float(rng.uniform(0.0, 10.0)))
        via_minf = minf_interval(
            params, b2, orbit1, orbit2, volume, FProfile.constant()
        )
        double, _ = constant_f_intervals(params, b1, b2, orbit1, orbit2, volume)
        assert via_minf.lo == double.lo  # bitwise: the weight factor is exactly 1


# ---------------------------------------------------------------------------
# unknown upper estimates propagate as empty / needs-unknown-constant


def test_unbounded_window_gives_empty_interval():
    params = EquationParams(6)
    open_bound = ConstantBound(5.0)  # hi = inf
    f = _flat_profile(2.0)
    for iv in (
        generic_interval(params, GenericIneqParams(3.0, 1.0, 1.0), open_bound, 1.0, 2.0, 10.0, f),
        critical_interval(params, b0_sphere(6), open_bound, 1.0, 2.0, 10.0, f),
        invariant_interval(params, open_bound, 1.0, 2.0, 10.0, f),
        minf_interval(params, open_bound, 1.0, 2.0, 10.0, f),
    ):
        assert math.isinf(iv.lo) and iv.empty
        assert any(c.status == "needs-unknown-constant" for c in iv.conditions)
    double, triple = constant_f_intervals(params, b0_sphere(6), open_bound, 1.0, 2.0, 10.0)
    assert double.empty and triple.empty
    assert triple.count == 3


def test_unknown_defect_constant_with_assumed_weight_is_closed_and_empty():
    # with f None both sharp-inequality routes follow generic_interval:
    # an unknown D gives the floor inf, closed, and the gap stays assumed
    params = EquationParams(6)
    open_bound = ConstantBound(5.0)  # hi = inf
    for iv in (
        critical_interval(params, open_bound, ConstantBound(5.5, 6.0), 1.0, 2.0, 10.0, None),
        invariant_interval(params, open_bound, 1.0, 2.0, 10.0, None),
    ):
        assert math.isinf(iv.lo) and not iv.lo_strict and iv.empty
        assert [c.status for c in iv.conditions] == [
            "satisfied", "needs-unknown-constant", "assumed",
        ]


def test_assumed_weight_keeps_the_floor():
    params = EquationParams(6)
    sec = ConstantBound(5.5, 6.0)
    iv = critical_interval(params, b0_sphere(6), sec, 1.0, 2.0, 10.0, None)
    assert iv.lo == pytest.approx(0.75 * 6.0, rel=REL)
    assert iv.conditions[2].status == "assumed"


# ---------------------------------------------------------------------------
# hypothesis: conservativeness and monotonicity


@given(
    n=st.integers(5, 12),
    sec_lo=st.floats(0.5, 10.0),
    width=st.floats(0.0, 5.0),
    widen=st.floats(1e-3, 5.0),
    orbit1=st.floats(0.1, 5.0),
    factor=st.floats(1.01, 10.0),
    volume=st.floats(0.5, 50.0),
    ratio=st.floats(1.0, 50.0),
)
def test_widening_the_unknown_window_never_grows_the_interval(
    n, sec_lo, width, widen, orbit1, factor, volume, ratio
):
    params = EquationParams(n)
    f = _flat_profile(ratio)
    orbit2 = orbit1 * factor
    tight = ConstantBound(sec_lo, sec_lo + width)
    loose = ConstantBound(sec_lo - widen, sec_lo + width + widen)
    a = critical_interval(params, b0_sphere(n), tight, orbit1, orbit2, volume, f)
    b = critical_interval(params, b0_sphere(n), loose, orbit1, orbit2, volume, f)
    assert b.hi <= a.hi
    assert b.lo >= a.lo


@given(
    n=st.integers(5, 12),
    sec_lo=st.floats(0.5, 10.0),
    width=st.floats(0.0, 5.0),
    orbit1=st.floats(0.1, 5.0),
    factor=st.floats(1.01, 10.0),
    volume=st.floats(0.5, 50.0),
    ratio=st.floats(1.0, 40.0),
    bump=st.floats(1.0, 5.0),
)
def test_peakier_weight_weakly_lowers_the_gap_endpoint(
    n, sec_lo, width, orbit1, factor, volume, ratio, bump
):
    params = EquationParams(n)
    sec = ConstantBound(sec_lo, sec_lo + width)
    orbit2 = orbit1 * factor
    a = critical_interval(
        params, b0_sphere(n), sec, orbit1, orbit2, volume, _flat_profile(ratio)
    )
    b = critical_interval(
        params, b0_sphere(n), sec, orbit1, orbit2, volume, _flat_profile(ratio * bump)
    )
    assert b.lo <= a.lo + 1e-9 * max(1.0, abs(a.lo))


@given(
    n=st.integers(5, 11),
    lo1=st.floats(0.5, 10.0),
    lo2=st.floats(0.5, 10.0),
    w1=st.floats(0.0, 5.0),
    w2=st.floats(0.0, 5.0),
    orbit1=st.floats(0.1, 5.0),
    factor=st.floats(1.01, 10.0),
    volume=st.floats(0.5, 50.0),
)
def test_triple_interval_sits_inside_double(n, lo1, lo2, w1, w2, orbit1, factor, volume):
    params = EquationParams(n)
    double, triple = constant_f_intervals(
        params,
        ConstantBound(lo1, lo1 + w1),
        ConstantBound(lo2, lo2 + w2),
        orbit1,
        orbit1 * factor,
        volume,
    )
    assert triple.hi == double.hi
    assert triple.lo >= double.lo
    assert double.count == 2 and triple.count == 3


# ---------------------------------------------------------------------------
# existence ceilings and thresholds


def test_existence_threshold_spot_value():
    params = EquationParams(6)
    assert existence_threshold(params, 1.0) == 1.0 / sobolev_constant(6)
    # scaling in the orbit volume
    assert existence_threshold(params, 8.0) == pytest.approx(
        2.0 / sobolev_constant(6), rel=REL
    )
    with pytest.raises(PreconditionError):
        existence_threshold(params, 0.0)
    with pytest.raises(PreconditionError):
        existence_threshold(params, 1.0, f_max=0.0)


def test_existence_alpha_bound_spots():
    cfg = example_configuration("sphere-quotients")  # n = 5
    b = existence_alpha_bound(cfg.params, cfg.second)
    assert b.ceiling == pytest.approx(5.0 * 3.0 / 4.0, rel=REL)
    assert b.flatness_ok and b.strict
    # a curved peak is flagged, not rejected, at this level
    bad = FProfile(2.0, 1.0, 1.5, 2.0, laplacian_at_peak=-1.0)
    assert not existence_alpha_bound(cfg.params, cfg.second, bad).flatness_ok
    # reduced dimension 4 never needs the flatness hypothesis
    oc = example_configuration("cylinder-overcritical")
    b4 = existence_alpha_bound(oc.params, oc.first, bad)
    assert b4.flatness_ok
    assert b4.ceiling == pytest.approx(1.0, rel=REL)


def test_existence_alpha_bound_preconditions():
    hopf = example_configuration("hopf")
    with pytest.raises(PreconditionError):
        existence_alpha_bound(hopf.params, hopf.first)  # n - k = 3
    cfg = example_configuration("sphere-quotients")
    with pytest.raises(PreconditionError):
        existence_alpha_bound(EquationParams(6, 1), cfg.second)  # k mismatch


# ---------------------------------------------------------------------------
# peak-ratio conditions of the weighted examples


def test_sphere_quotients_ratio_condition_is_sharp():
    n = 5
    rhs = f_ratio_condition("sphere-quotients", FProfile.constant()).rhs
    boundary = rhs ** (n / 2.0)
    floor = n * (n - 4.0) / (n - 2.0) ** 2 * b0_sphere(n).hi
    above = example_interval("sphere-quotients", f=_flat_profile(boundary * (1 + 1e-6)))
    below = example_interval("sphere-quotients", f=_flat_profile(boundary * (1 - 1e-6)))
    assert f_ratio_condition("sphere-quotients", _flat_profile(boundary * (1 + 1e-6))).holds
    assert not f_ratio_condition("sphere-quotients", _flat_profile(boundary * (1 - 1e-6))).holds
    assert above.lo == floor
    assert below.lo > floor


def test_cylinder_weighted_ratio_condition_is_sufficient():
    n = 6
    rhs = f_ratio_condition("cylinder-weighted", FProfile.constant()).rhs
    good = _flat_profile(rhs ** (n / 2.0) * 1.001)
    check = f_ratio_condition("cylinder-weighted", good)
    assert check.holds
    iv = example_interval("cylinder-weighted", f=good)
    floor = n * (n - 4.0) / (n - 2.0) ** 2 * ((n - 2.0) ** 2 / 4.0 + 0.25)
    assert iv.lo == pytest.approx(floor, rel=REL)
    # a flat weight misses the condition and pays with a shorter interval
    flat = f_ratio_condition("cylinder-weighted", FProfile.constant())
    assert not flat.holds
    assert example_interval("cylinder-weighted", f=_flat_profile(1.0)).lo > floor


def test_triple_product_ratio_condition_is_sufficient():
    rhs = f_ratio_condition("triple-product", FProfile.constant()).rhs
    good = _flat_profile(rhs * 1.001)
    assert f_ratio_condition("triple-product", good).holds
    iv = example_interval("triple-product", f=good)
    m = 7
    assert iv.lo == pytest.approx(m**2 * (m - 4.0) / (4.0 * (m - 2.0)), rel=REL)
    # a mild weight leaves a gap endpoint above the ceiling here
    assert example_interval("triple-product", f=_flat_profile(2.0)).empty


def test_ratio_condition_rejects_constant_weight_examples():
    with pytest.raises(PreconditionError):
        f_ratio_condition("hopf", FProfile.constant())
    with pytest.raises(PreconditionError):
        f_ratio_condition("cylinder-triple", FProfile.constant(), t=10.0)


# ---------------------------------------------------------------------------
# weight admissibility on the packaged examples


def test_weighted_examples_require_peak_flat_weights():
    curved = FProfile(2.0, 1.0, 1.5, 2.0, laplacian_at_peak=-0.5)
    for example in ("sphere-quotients", "cylinder-weighted", "triple-product"):
        with pytest.raises(PreconditionError):
            example_interval(example, f=curved)


def test_constant_weight_examples_reject_profiles():
    for example in ("hopf", "cylinder-triple", "cylinder-overcritical"):
        with pytest.raises(PreconditionError):
            example_interval(example, f=FProfile.constant())


def test_endpoint_flatness_controls_ceiling_strictness():
    r = 50.0
    unknown = FProfile(r, 1.0, 1.0, r, 0.0, vanishing_order=None)
    shallow = FProfile(r, 1.0, 1.0, r, 0.0, vanishing_order=1.0)
    deep = FProfile(r, 1.0, 1.0, r, 0.0, vanishing_order=2.0)  # n - 3 at n = 5
    assert example_interval("sphere-quotients", f=unknown).hi_strict
    assert example_interval("sphere-quotients", f=shallow).hi_strict
    assert not example_interval("sphere-quotients", f=deep).hi_strict


# ---------------------------------------------------------------------------
# pairwise energy ordering


def _ordering_setup():
    params = EquationParams(6)
    volume = sphere_volume(6)
    sec = ConstantBound(5.9, 6.5)
    groups = ((1.0, ConstantBound(12.0, 12.0)), (2.0, sec))
    gap_iv = critical_interval(
        params, b0_sphere(6), sec, 1.0, 2.0, volume, FProfile.constant()
    )
    boundary = gap_iv.conditions[2].value  # the energy-gap endpoint
    return params, volume, sec, groups, boundary


def test_ordering_verdict_matches_gap_endpoint():
    params, volume, _, groups, boundary = _ordering_setup()
    assert 4.5 < boundary < 5.9  # the comparison window is [4.5, 5.9]
    for alpha in (4.6, 5.0, boundary - 1e-3, boundary + 1e-3, 5.8, 5.9):
        report = energy_ordering_check(params, groups, alpha, b0_sphere(6), volume)
        (verdict,) = report.pairs
        assert verdict.separated == (alpha > boundary)
        assert report.all_separated == (alpha > boundary)
        assert verdict.small == 0 and verdict.large == 1


def test_ordering_window_and_input_preconditions():
    params, volume, _, groups, _ = _ordering_setup()
    with pytest.raises(PreconditionError):
        energy_ordering_check(params, groups, 4.0, b0_sphere(6), volume)  # below floor
    with pytest.raises(PreconditionError):
        energy_ordering_check(params, groups, 6.2, b0_sphere(6), volume)  # above ceiling
    with pytest.raises(PreconditionError):
        energy_ordering_check(params, groups[:1], 5.0, b0_sphere(6), volume)
    with pytest.raises(PreconditionError):
        energy_ordering_check(
            EquationParams(4), groups, 5.0, ConstantBound(2.0, 2.0), volume
        )
    with pytest.raises(PreconditionError):
        energy_ordering_check(params, groups, 5.0, ConstantBound(6.0), volume)


def test_ordering_unknown_constant_gives_none():
    params, volume, _, _, _ = _ordering_setup()
    groups = ((1.0, ConstantBound(12.0, 12.0)), (2.0, ConstantBound(5.9)))
    report = energy_ordering_check(params, groups, 5.5, b0_sphere(6), volume)
    (verdict,) = report.pairs
    assert verdict.separated is None and verdict.rhs is None
    assert not report.all_separated


# ---------------------------------------------------------------------------
# argument validation


def test_profile_validation():
    with pytest.raises(PreconditionError):
        FProfile(1.0, 2.0, 1.5, 1.0)  # min > avg
    with pytest.raises(PreconditionError):
        FProfile(2.0, 1.0, 1.5, 1.9)  # peak below max
    with pytest.raises(PreconditionError):
        FProfile(2.0, 1.0, 1.5, 2.0, vanishing_order=0.5)
    assert FProfile.constant(3.0).peak_ratio == 1.0


def test_band_inequality_validation():
    with pytest.raises(PreconditionError):
        GenericIneqParams(2.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        GenericIneqParams(4.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        GenericIneqParams(3.0, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        GenericIneqParams(3.0, 1.0, -1.0)
    assert GenericIneqParams(3.0, 1.0, 1.0).band_factor == 0.75


def test_family_and_dimension_preconditions():
    params = EquationParams(6)
    ineq = GenericIneqParams(3.0, 1.0, 1.0)
    sec = ConstantBound(1.0, 2.0)
    with pytest.raises(PreconditionError):
        generic_interval(params, ineq, sec, 2.0, 1.0, 10.0)  # orbits out of order
    with pytest.raises(PreconditionError):
        generic_interval(params, ineq, sec, 1.0, 2.0, -1.0)
    with pytest.raises(PreconditionError):
        critical_interval(EquationParams(4), b0_sphere(4), sec, 1.0, 2.0, 10.0)
    with pytest.raises(PreconditionError):
        invariant_interval(EquationParams(6, 2), sec, 1.0, 2.0, 10.0)  # n - k = 4
    with pytest.raises(PreconditionError):
        EquationParams(5, 3)  # no finite exponent


def test_quotient_window_feeds_the_ambient_route():
    # consistency of the packaged sphere example with a manual assembly
    n, a2 = 5, 4
    cfg = example_configuration("sphere-quotients")
    manual = critical_interval(
        cfg.params,
        b0_sphere(n),
        b0_quotient_sphere(n, a2),
        cfg.first.orbit_volume,
        cfg.second.orbit_volume,
        cfg.volume,
        None,
        gap_strict=False,
    )
    packaged = example_interval("sphere-quotients")
    assert manual.lo == packaged.lo
    assert packaged.hi <= manual.hi  # existence ceiling can only cut
