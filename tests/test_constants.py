import math

import pytest
from scipy.integrate import quad

from symcrit import (
    ConstantBound,
    EquationParams,
    PreconditionError,
    clean,
    sobolev_constant,
    sphere_volume,
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
    assert sphere_volume(n) == pytest.approx(_omega_by_recursion(n), rel=1e-12)


def test_sphere_volume_known_values():
    assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert sphere_volume(4) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-15)
    assert sphere_volume(5) == pytest.approx(math.pi**3, rel=1e-15)


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_sphere_volume_rejects_bad_dimension(bad):
    with pytest.raises(PreconditionError):
        sphere_volume(bad)


@pytest.mark.parametrize("n", range(3, 12))
def test_sobolev_constant_identity(n):
    # defining identity K_N * N (N-2) omega_N^{2/N} = 4
    assert sobolev_constant(n) * n * (n - 2) * sphere_volume(n) ** (2.0 / n) == pytest.approx(
        4.0, rel=1e-14
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
    assert EquationParams(n=10, k=3).two_sharp == pytest.approx(2.8, rel=1e-15)
    assert EquationParams(n=5, k=1).reduced_dim == 4
    assert EquationParams(n=5).exponent == pytest.approx(7.0 / 3.0, rel=1e-15)


def test_equation_params_validation():
    with pytest.raises(PreconditionError):
        EquationParams(n=2)
    with pytest.raises(PreconditionError):
        EquationParams(n=5, k=3)  # n - k = 2
    with pytest.raises(PreconditionError):
        EquationParams(n=5, k=-1)
