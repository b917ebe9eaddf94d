import math

import pytest

from symcrit import (
    ConstantBound,
    EquationParams,
    PreconditionError,
    b0_circle_sphere,
    b0_lower_general,
    b0_quotient_sphere,
    b0_sphere,
    b0_transfer_principal,
    example_configuration,
    sobolev_constant,
)


def test_round_sphere_exact():
    assert b0_sphere(3) == ConstantBound.exact(0.75)
    assert b0_sphere(4) == ConstantBound.exact(2.0)
    assert b0_sphere(5) == ConstantBound.exact(3.75)
    assert b0_sphere(9) == ConstantBound.exact(15.75)
    with pytest.raises(PreconditionError):
        b0_sphere(2)


def test_circle_sphere_window():
    w = b0_circle_sphere(2.0, 6)
    assert w.lo == 4.0
    assert w.hi == pytest.approx(4.0 + 1.0 / 16.0, rel=1e-15, abs=0.0)
    assert b0_circle_sphere(1e6, 5).hi == pytest.approx(2.25, rel=1e-10, abs=0.0)
    with pytest.raises(PreconditionError):
        b0_circle_sphere(0.0, 6)


@pytest.mark.parametrize("t", [1e-300, 2e-162, 1e-160, 3e-155])
def test_a_radius_whose_window_overflows_is_rejected_by_name(t):
    # 4 t^2 is 0 below about 1e-162; 1/(4 t^2) is inf up to about 3.7e-155
    with pytest.raises(PreconditionError) as err:
        b0_circle_sphere(t, 6)
    assert str(err.value) == (
        "the product constant's circle radius t must keep 1/(4 t^2) a finite float, got %r" % (t,)
    )
    w = b0_circle_sphere(4e-155, 6)
    assert w.lo == 4.0 and math.isfinite(w.hi)


@pytest.mark.parametrize("bad", [None, "2", True, math.nan, math.inf], ids=repr)
def test_a_bad_radius_or_volume_is_rejected_by_name(bad):
    with pytest.raises(PreconditionError, match="circle radius t"):
        b0_circle_sphere(bad, 5)
    cfg = example_configuration("hopf")
    with pytest.raises(PreconditionError, match="manifold volume"):
        b0_lower_general(cfg.params, bad, cfg.first)


def test_quotient_sphere_window():
    w = b0_quotient_sphere(5, 4)
    assert w.lo == pytest.approx(4.0 ** 0.4 * 3.75, rel=1e-15, abs=0.0)
    assert w.hi == pytest.approx((1.0 + 4.0) * 3.0 - 1.0 + 3.75, rel=1e-15, abs=0.0)
    assert b0_quotient_sphere(5, 1).lo == 3.75  # trivial group: round value
    with pytest.raises(PreconditionError):
        b0_quotient_sphere(5, 0)


def test_lower_general_volume_term_dominates():
    # cylinder-overcritical at t below the display threshold: the volume
    # term (n-1)(n-3) / (4 t^{2/(n-1)}) wins over (n-3)^2/4
    cfg = example_configuration("cylinder-overcritical", n=5, t=3.0)
    b = b0_lower_general(cfg.params, cfg.volume, cfg.first)
    assert b.lo == pytest.approx(8.0 / (4.0 * 3.0 ** 0.5), rel=1e-13, abs=0.0)
    assert math.isinf(b.hi)


def test_lower_general_curvature_term_dominates():
    # same example at large t: (n-3)^2/4 = 1
    cfg = example_configuration("cylinder-overcritical", n=5, t=8.0)
    b = b0_lower_general(cfg.params, cfg.volume, cfg.first)
    assert b.lo == pytest.approx(1.0, rel=1e-13, abs=0.0)


def test_lower_general_hopf_closed_form():
    # max{ 3/(4 t^{2/3}), 1 } = 1 for every t > 1
    for t in (1.5, 2.0, 8.0, 100.0):
        cfg = example_configuration("hopf", t=t)
        b = b0_lower_general(cfg.params, cfg.volume, cfg.first)
        assert b.lo == pytest.approx(1.0, rel=1e-13, abs=0.0)
        # the volume contribution alone
        vol_term = cfg.first.orbit_volume ** (2.0 / 3.0) / (
            cfg.volume ** (2.0 / 3.0) * sobolev_constant(3)
        )
        assert vol_term == pytest.approx(3.0 / (4.0 * t ** (2.0 / 3.0)), rel=1e-13, abs=0.0)


def test_lower_general_preconditions():
    cfg = example_configuration("hopf")
    with pytest.raises(PreconditionError):
        b0_lower_general(EquationParams(n=4, k=0), cfg.volume, cfg.first)  # k mismatch
    with pytest.raises(PreconditionError):
        b0_lower_general(cfg.params, -1.0, cfg.first)


def test_transfer_requires_principal_constant_volume():
    cfg = example_configuration("cylinder-overcritical", n=5, t=8.0)
    w = b0_sphere(4)
    out = b0_transfer_principal(cfg.second, w)
    assert out == ConstantBound.exact(2.0)  # (n-1)(n-3)/4 at n = 5
    assert out is w  # the window passes through as it is, not as a copy
    with pytest.raises(PreconditionError):
        b0_transfer_principal(cfg.first, w)


def test_transfer_matches_displayed_values():
    # hopf second group: round 3-sphere value 3/4
    hopf = example_configuration("hopf")
    assert b0_transfer_principal(hopf.second, b0_sphere(3)) == ConstantBound.exact(0.75)
    # triple product second group: (n-3)(n-5)/4 at n = 10
    tp = example_configuration("triple-product")
    assert b0_transfer_principal(tp.second, b0_sphere(7)) == ConstantBound.exact(35.0 / 4.0)
