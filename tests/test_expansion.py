import math

import numpy as np
import pytest

from symcrit import (
    ExpansionConfig,
    PreconditionError,
    density,
    fit_and_compare,
    log_branch_sign,
    rayleigh_quotient,
    sphere_volume,
)
from symcrit import test_function as bubble  # name clashes with pytest collection


def _config(**kw):
    base = dict(dim=6, delta=1.0, alpha=1.0, orbit_volume=1.0)
    base.update(kw)
    return ExpansionConfig(**base)


# ---------------------------------------------------------------------------
# the bubble itself


def test_bubble_spot_value_and_support():
    assert bubble(1.0, 1.0, 6, 0.0) == 0.75  # 1 - 2^{-2}
    r = np.array([0.0, 0.5, 1.0, 1.5])
    vals = bubble(0.01, 1.0, 6, r)
    assert vals[2] == 0.0  # vanishes at the cutoff
    assert vals[3] == 0.0  # and beyond it
    assert np.all(vals >= 0.0)
    assert vals[0] > vals[1] > 0.0
    with pytest.raises(PreconditionError):
        bubble(0.0, 1.0, 6, r)


def test_density_round_area_element_series():
    # (sin(sqrt(c) r)/(sqrt(c) r))^{N-1} ~ 1 - (N-1) c r^2 / 6
    flat = _config(dim=5)
    curved = _config(dim=5, curvature=1.0)
    r = 1e-3
    ratio = density(curved, r) / density(flat, r)
    assert ratio == pytest.approx(1.0 - 4.0 * r * r / 6.0, abs=1e-10)


def test_density_carries_orbit_volume_and_quadratic_decay():
    cfg = _config(dim=5, orbit_volume=3.0, vh_quadratic_coeff=2.0)
    r = 0.5
    expected = 3.0 * (1.0 - 2.0 * r * r / 10.0) * sphere_volume(4) * r**4
    assert density(cfg, r) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# quadrature cross-checks


def test_quotient_against_trapezoid_rebuild():
    # independent route: analytic derivative in simplified form plus a
    # dense trapezoid; eps is large so nothing concentrates
    cfg = _config(
        dim=5, delta=1.0, alpha=0.8, orbit_volume=1.3,
        vh_quadratic_coeff=0.3, f_peak=1.2, f_laplacian=0.4,
    )
    eps = 0.2
    r = np.linspace(0.0, 1.0, 200001)
    u = bubble(eps, 1.0, 5, r)
    du = (2.0 - 5.0) * r * (eps + r * r) ** (-5.0 / 2.0)
    rho = density(cfg, r)
    f = 1.2 - 0.4 * r * r / 10.0
    num = np.trapezoid((du**2 + 0.8 * u**2) * rho, r)
    den = np.trapezoid(f * u ** cfg.two_sharp * rho, r)
    manual = num / den ** (2.0 / cfg.two_sharp)
    assert rayleigh_quotient(cfg, eps) == pytest.approx(manual, rel=1e-7)


def test_quotient_scaling_invariances():
    base = _config(dim=6)
    eps = 1e-4
    v = rayleigh_quotient(base, eps)
    # orbit volume enters as A^{2/N}
    doubled = _config(dim=6, orbit_volume=2.0)
    assert rayleigh_quotient(doubled, eps) == pytest.approx(
        2.0 ** (2.0 / 6.0) * v, rel=1e-11
    )
    # constant f enters as f^{-2/two_sharp}
    weighted = _config(dim=6, f_peak=3.0)
    assert rayleigh_quotient(weighted, eps) == pytest.approx(
        3.0 ** (-2.0 / 3.0) * v, rel=1e-11
    )


def test_quotient_is_affine_in_alpha():
    vals = [rayleigh_quotient(_config(dim=6, alpha=a), 1e-3) for a in (1.0, 2.0, 3.0)]
    assert vals[1] - vals[0] == pytest.approx(vals[2] - vals[1], rel=1e-8)


# ---------------------------------------------------------------------------
# the linear model in dimension >= 5


def test_dim_six_flat_recovers_limit_and_slope():
    report = fit_and_compare(_config(dim=6))
    assert report.predicted_c1 == pytest.approx(5.0 / 12.0, rel=1e-14)
    assert report.fitted_limit == pytest.approx(report.predicted_limit, rel=1e-6)
    assert report.fitted_c1 == pytest.approx(5.0 / 12.0, rel=1e-2)
    assert len(report.pair_slopes) == len(report.config.epsilons) - 1


def test_sign_grid_matches_prediction():
    # c1 = (5 alpha - 3 q) / 12 in dimension 6 with a flat weight
    for alpha in (0.5, 1.0, 2.0):
        for q in (-1.0, 0.0, 2.0):
            report = fit_and_compare(_config(dim=6, alpha=alpha, vh_quadratic_coeff=q))
            predicted = (5.0 * alpha - 3.0 * q) / 12.0
            assert report.predicted_c1 == pytest.approx(predicted, rel=1e-12)
            assert (report.fitted_c1 > 0.0) == (predicted > 0.0)


def test_curved_model_shifts_the_slope():
    cfg = _config(dim=5, curvature=1.0)
    # (16/3 - scal) / 5 with scal = 20
    assert cfg.predicted_c1 == pytest.approx((16.0 / 3.0 - 20.0) / 5.0, rel=1e-13)
    report = fit_and_compare(cfg)
    assert report.fitted_c1 == pytest.approx(report.predicted_c1, rel=5e-2)
    assert report.fitted_limit == pytest.approx(report.predicted_limit, rel=1e-4)


def test_weight_curvature_enters_for_dim_above_four():
    cfg = _config(dim=6, f_laplacian=3.0)
    bare = _config(dim=6)
    assert cfg.predicted_c1 - bare.predicted_c1 == pytest.approx(
        (6.0 - 4.0) * 3.0 / (2.0 * 1.0) / (6.0 * 2.0), rel=1e-13
    )


# ---------------------------------------------------------------------------
# the logarithmic branch in dimension 4


def test_dim_four_log_branch_both_signs():
    below = log_branch_sign(_config(dim=4))  # coeff = -6/8
    assert below.coeff == pytest.approx(-0.75, rel=1e-15)
    assert below.consistent
    above = log_branch_sign(_config(dim=4, vh_quadratic_coeff=4.0))  # coeff = +6/8
    assert above.coeff == pytest.approx(0.75, rel=1e-15)
    assert above.consistent
    assert below.to_json()["consistent"] is True


# ---------------------------------------------------------------------------
# validation


def test_config_validation():
    with pytest.raises(PreconditionError):
        _config(dim=3)
    with pytest.raises(PreconditionError):
        ExpansionConfig(dim=5.0, delta=1.0, alpha=1.0, orbit_volume=1.0)  # non-int
    with pytest.raises(PreconditionError):
        _config(delta=0.0)
    with pytest.raises(PreconditionError):
        _config(alpha=-1.0)
    with pytest.raises(PreconditionError):
        _config(orbit_volume=0.0)
    for field in ("orbit_volume", "f_peak", "vh_quadratic_coeff", "f_laplacian"):
        for value in (math.nan, math.inf):
            with pytest.raises(PreconditionError):
                _config(**{field: value})
    with pytest.raises(PreconditionError):
        _config(dim=4, vh_quadratic_coeff=8.0)  # density sign flips on [0, 1]
    with pytest.raises(PreconditionError):
        _config(dim=4, f_laplacian=20.0)  # weight sign flips on [0, 1]
    with pytest.raises(PreconditionError):
        _config(curvature=-1.0)
    with pytest.raises(PreconditionError):
        _config(curvature=11.0)  # sqrt(c) delta >= pi
    with pytest.raises(PreconditionError):
        _config(epsilons=(1e-4, 1e-3))  # increasing
    with pytest.raises(PreconditionError):
        _config(epsilons=(0.5, 1e-3))  # largest above delta^2/4
    with pytest.raises(PreconditionError):
        _config(epsilons=(1e-3, 0.0))


def test_branch_dispatch_validation():
    with pytest.raises(PreconditionError):
        fit_and_compare(_config(dim=4))
    with pytest.raises(PreconditionError):
        log_branch_sign(_config(dim=6))
    with pytest.raises(PreconditionError):
        _ = _config(dim=4).predicted_c1
    with pytest.raises(PreconditionError):
        rayleigh_quotient(_config(dim=6), 0.0)
    with pytest.raises(PreconditionError):
        fit_and_compare(_config(dim=6, epsilons=(1e-3,)))


def test_default_epsilons_span_three_decades():
    cfg = _config(dim=6, delta=2.0)
    eps = cfg.epsilons
    assert len(eps) == 7
    assert eps[0] == pytest.approx(1e-3 * 4.0, rel=1e-12)
    assert eps[-1] == pytest.approx(1e-6 * 4.0, rel=1e-12)
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_report_json_shape():
    report = fit_and_compare(_config(dim=6, epsilons=(1e-4, 1e-5)))
    d = report.to_json()
    assert len(d["samples"]) == 2
    assert set(d) == {
        "samples", "predicted_limit", "predicted_c1",
        "fitted_limit", "fitted_c1", "pair_slopes",
    }
