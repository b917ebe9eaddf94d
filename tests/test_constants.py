import math

import numpy as np
import pytest
from scipy.integrate import quad

from symcrit import (
    ConstantBound,
    EquationParams,
    PreconditionError,
    b0_quotient_sphere,
    b0_sphere,
    clean,
    sobolev_constant,
    sphere_volume,
)
from symcrit import best_constants, constants
from symcrit.constants import MAX_SPHERE_DIM

DIMENSION_CACHES = (
    constants._sphere_volume,
    constants._sobolev_constant,
    best_constants._b0_sphere,
    best_constants._b0_quotient_sphere,
)


# Oracle: omega_N = omega_{N-1} * int_0^pi sin^{N-1}, starting from
# omega_1 = 2 pi, evaluated by quadrature.  Independent of the Gamma
# closed form used by the implementation.
def _omega_by_recursion(n):
    v = 2.0 * math.pi
    for m in range(2, n + 1):
        integral, _ = quad(lambda x, mm=m: math.sin(x) ** (mm - 1), 0.0, math.pi, epsrel=1e-13)
        v *= integral
    return v


@pytest.mark.parametrize("n", range(1, 13))
def test_sphere_volume_matches_recursion(n):
    assert sphere_volume(n) == pytest.approx(_omega_by_recursion(n), rel=1e-12, abs=0.0)


def test_sphere_volume_known_values():
    assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15, abs=0.0)
    assert sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15, abs=0.0)
    assert sphere_volume(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15, abs=0.0)
    assert sphere_volume(4) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-15, abs=0.0)
    assert sphere_volume(5) == pytest.approx(math.pi**3, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_sphere_volume_rejects_bad_dimension(bad):
    with pytest.raises(PreconditionError):
        sphere_volume(bad)


@pytest.mark.parametrize("bad", [343, 401, 1239, 10**6, math.inf])
def test_sphere_volume_names_the_dimension_past_which_gamma_overflows(bad):
    # Gamma((N+1)/2) overflows from N = 343 on, pi^{(N+1)/2} from about
    # N = 1238; each call raises again, none is cached
    for _ in range(3):
        with pytest.raises(PreconditionError, match=r"\[1, 342\], past which .* got N=%r$" % bad):
            sphere_volume(bad)
        with pytest.raises(PreconditionError, match=r"\[3, 342\], got N=%r$" % bad):
            sobolev_constant(bad)


def test_the_largest_dimension_has_a_positive_finite_volume():
    assert MAX_SPHERE_DIM == 342
    assert 0.0 < sphere_volume(342) < math.inf and 0.0 < sobolev_constant(342) < math.inf


def _closed_forms(n):
    """omega_N, K_N and the round window's n(n-2)/4 (n >= 3), evaluated without a cache."""
    omega = 2.0 * math.pi ** (0.5 * (n + 1)) / math.gamma(0.5 * (n + 1))
    if n < 3:
        return omega, None, None
    return omega, 4.0 / (n * (n - 2) * omega ** (2.0 / n)), n * (n - 2) / 4.0


def test_memoized_constants_equal_the_closed_forms_bitwise():
    for cache in DIMENSION_CACHES:
        cache.cache_clear()
    for n in range(1, MAX_SPHERE_DIM + 1):
        omega, K, b0 = _closed_forms(n)
        for dim in (n, float(n), n):  # a first call, then repeated ones, also as an integral float
            assert sphere_volume(dim).hex() == omega.hex()
            if n >= 3:
                assert sobolev_constant(dim).hex() == K.hex()
                window = b0_sphere(dim)
                assert window.lo.hex() == window.hi.hex() == b0.hex()


def test_memoized_constants_raise_on_every_repeated_invalid_call():
    calls = [
        (sphere_volume, (0,)), (sphere_volume, (2.5,)), (sphere_volume, (343,)),
        (sobolev_constant, (2,)), (sobolev_constant, (3.5,)), (sobolev_constant, (401,)),
        (b0_sphere, (2,)), (b0_sphere, (4.5,)),
        (b0_quotient_sphere, (2, 3)), (b0_quotient_sphere, (5, 0)), (b0_quotient_sphere, (5, 1.5)),
        # past MAX_INTEGER_INPUT, or not finite: range-checked before float() or int() sees it
        (b0_sphere, (math.inf,)), (b0_sphere, (math.nan,)), (b0_quotient_sphere, (5, 10**151)),
        (b0_quotient_sphere, (5, 10**400)), (b0_quotient_sphere, (5, math.inf)), (b0_quotient_sphere, (10**400, 2)),
    ]
    for fn, args in calls:
        for _ in range(3):
            with pytest.raises(PreconditionError):
                fn(*args)


@pytest.mark.parametrize("cache", DIMENSION_CACHES, ids=lambda c: c.__name__)
def test_dimension_caches_are_bounded(cache):
    assert 0 < cache.cache_info().maxsize < math.inf


def test_the_largest_group_order_keeps_a_finite_window():
    # at order MAX_INTEGER_INPUT, a * a = 1e300: the window stays finite up to the largest dimension
    window = b0_quotient_sphere(MAX_SPHERE_DIM, constants.MAX_INTEGER_INPUT)
    assert math.isfinite(window.lo) and math.isfinite(window.hi)


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("lo", "hi") for v in (None, "1", True, math.nan)] + [("lo", math.inf), ("lo", -math.inf)],
)
def test_a_bad_bound_endpoint_is_rejected_by_name(field, value):
    # ConstantBound("1", "2") was accepted, and None raised a bare TypeError
    with pytest.raises(PreconditionError, match=r"\b%s\b" % field):
        ConstantBound(**dict({"lo": 1.0, "hi": 2.0}, **{field: value}))


def test_a_bound_keeps_its_endpoints_as_floats():
    bound = ConstantBound(np.int64(1), np.float32(2.0))
    assert (bound.lo, bound.hi, type(bound.lo), type(bound.hi)) == (1.0, 2.0, float, float)
    assert ConstantBound(1).hi == math.inf
    with pytest.raises(PreconditionError, match=r"\bhi\b"):
        ConstantBound(2.0, 1.0)


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("n", "k") for v in (None, "6", True, math.nan, math.inf, 2.5)] + [("n", 2), ("k", -1)],
)
def test_a_bad_equation_dimension_is_rejected_by_name(field, value):
    # nan raised a ValueError and inf an OverflowError; k = True passed as 1
    with pytest.raises(PreconditionError, match=r"\b%s\b" % field):
        EquationParams(**dict({"n": 6, "k": 1}, **{field: value}))


def test_equation_dimensions_take_any_integer():
    params = EquationParams(np.int64(6), 1.0)
    assert params == EquationParams(6, 1) and (type(params.n), type(params.k)) == (int, int)


def test_a_memoized_window_is_shared_and_frozen():
    assert b0_quotient_sphere(5, 4) is b0_quotient_sphere(5.0, 4.0)
    with pytest.raises(AttributeError):
        b0_quotient_sphere(5, 4).lo = 0.0


@pytest.mark.parametrize("n", range(3, 12))
def test_sobolev_constant_identity(n):
    # defining identity K_N * N (N-2) omega_N^{2/N} = 4; abs=0, since
    # approx's default abs=1e-12 would hide a relative error of 2.5e-13
    assert sobolev_constant(n) * n * (n - 2) * sphere_volume(n) ** (2.0 / n) == pytest.approx(
        4.0, rel=1e-14, abs=0.0
    )


def test_sobolev_constant_decreases_with_dimension():
    vals = [sobolev_constant(n) for n in range(3, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [2, 1, 3.5, -3])
def test_sobolev_constant_rejects_bad_dimension(bad):
    with pytest.raises(PreconditionError):
        sobolev_constant(bad)


def test_bound_exact_and_contains():
    b = ConstantBound.exact(0.75)
    assert b.lo == b.hi == 0.75
    assert b.contains(0.75) and not b.contains(0.76)
    assert ConstantBound(1.0).hi == math.inf


def test_bound_validation():
    with pytest.raises(PreconditionError):
        ConstantBound(2.0, 1.0)
    with pytest.raises(PreconditionError):
        ConstantBound(math.nan, 1.0)
    with pytest.raises(PreconditionError):
        ConstantBound(math.inf, math.inf)


def test_bound_json_maps_infinity_to_null():
    assert clean(ConstantBound(1.5)) == {"lo": 1.5, "hi": None}
    assert clean(ConstantBound(1.5, 2.0)) == {"lo": 1.5, "hi": 2.0}


def test_equation_params_exponents():
    assert EquationParams(n=6).two_sharp == 3.0
    assert EquationParams(n=4, k=1).two_sharp == 6.0
    assert EquationParams(n=4, k=1).exponent == 5.0
    assert EquationParams(n=10, k=3).two_sharp == pytest.approx(2.8, rel=1e-15, abs=0.0)
    assert EquationParams(n=5, k=1).reduced_dim == 4
    assert EquationParams(n=5).exponent == pytest.approx(7.0 / 3.0, rel=1e-15, abs=0.0)


def test_equation_params_validation():
    with pytest.raises(PreconditionError):
        EquationParams(n=2)
    with pytest.raises(PreconditionError):
        EquationParams(n=5, k=3)  # n - k = 2
    with pytest.raises(PreconditionError):
        EquationParams(n=5, k=-1)
