import json
import math
import re

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from symcrit import (
    EquationParams,
    ExpansionConfig,
    GroupActionSpec,
    PreconditionError,
    density,
    existence_alpha_bound,
    fit_and_compare,
    log_branch_sign,
    rayleigh_quotient,
    sphere_volume,
)
from symcrit import expansion
from symcrit.cli import main
from symcrit.jsonio import canonical_json


def _config(**kw):
    base = dict(dim=6, delta=1.0, alpha=1.0, orbit_volume=1.0)
    base.update(kw)
    return ExpansionConfig(**base)


# ---------------------------------------------------------------------------
# the density


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
    assert density(cfg, r) == pytest.approx(expected, rel=1e-14, abs=0.0)


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
    u = (eps + r * r) ** -1.5 - (eps + 1.0) ** -1.5  # the truncated bubble on [0, delta]
    du = (2.0 - 5.0) * r * (eps + r * r) ** (-5.0 / 2.0)
    rho = density(cfg, r)
    f = 1.2 - 0.4 * r * r / 10.0
    num = np.trapezoid((du**2 + 0.8 * u**2) * rho, r)
    den = np.trapezoid(f * u ** cfg.two_sharp * rho, r)
    manual = num / den ** (2.0 / cfg.two_sharp)
    assert rayleigh_quotient(cfg, eps) == pytest.approx(manual, rel=1e-7, abs=0.0)


# Oracle: each integral as a sum of adaptive scipy quad calls on explicit
# panels, halving toward r = 0 from sqrt(eps) and toward r = delta, at a
# tolerance tighter than the rule under test, with the density written out
# in plain floats.  Test-only, like the sphere volume recursion in
# test_constants.py.
def _tight_quotient(cfg, eps):
    N, delta = cfg.dim, cfg.delta
    power = 1.0 - N / 2.0
    tail = (eps + delta * delta) ** power

    def u(r):
        return (eps + r * r) ** power - tail

    def rho(r):
        radius = r if cfg.curvature is None else math.sin(math.sqrt(cfg.curvature) * r) / math.sqrt(cfg.curvature)
        decay = 1.0 - cfg.vh_quadratic_coeff * r * r / (2.0 * N)
        return cfg.orbit_volume * decay * sphere_volume(N - 1) * radius ** (N - 1)

    def num(r):
        du = 2.0 * power * r * (eps + r * r) ** (power - 1.0)
        return (du * du + cfg.alpha * u(r) ** 2) * rho(r)

    def den(r):
        weight = cfg.f_peak - cfg.f_laplacian * r * r / (2.0 * N)
        return weight * u(r) ** cfg.two_sharp * rho(r)

    half = 0.5 * delta
    left = [0.0] + [math.sqrt(eps) * 2.0**j for j in range(60) if math.sqrt(eps) * 2.0**j < half]
    right = [delta - half * 2.0**-j for j in range(12)]
    edges = left + right + [delta]

    def integral(fn):
        return math.fsum(
            quad(fn, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
            for a, b in zip(edges, edges[1:])
        )

    return integral(num) / integral(den) ** (2.0 / cfg.two_sharp)


@pytest.mark.parametrize("dim", [4, 5, 6, 7, 8, 11])
@pytest.mark.parametrize("delta", [0.3, 2.0])
@pytest.mark.parametrize("curved", [False, True], ids=["flat", "round"])
def test_quotient_against_tight_panel_reference(dim, delta, curved):
    # both area elements at both parities of N (the flat one is r^2 to a
    # half-integer power at even N), and eps from delta^2 / 4 (the largest
    # allowed) down to 1e-16 delta^2
    cfg = _config(
        dim=dim, delta=delta, alpha=1.3, orbit_volume=0.7,
        vh_quadratic_coeff=-1.0 if curved else 1.0, f_peak=1.1, f_laplacian=0.5,
        curvature=0.5 if curved else None,
    )
    for eps in (delta * delta / 4.0, 1e-4 * delta * delta, 1e-10 * delta * delta,
                1e-16 * delta * delta):
        assert rayleigh_quotient(cfg, eps) == pytest.approx(_tight_quotient(cfg, eps), rel=1e-13, abs=0.0)


def test_quotient_scaling_invariances():
    base = _config(dim=6)
    eps = 1e-4
    v = rayleigh_quotient(base, eps)
    # orbit volume enters as A^{2/N}
    doubled = _config(dim=6, orbit_volume=2.0)
    assert rayleigh_quotient(doubled, eps) == pytest.approx(
        2.0 ** (2.0 / 6.0) * v, rel=1e-11, abs=0.0
    )
    # constant f enters as f^{-2/two_sharp}
    weighted = _config(dim=6, f_peak=3.0)
    assert rayleigh_quotient(weighted, eps) == pytest.approx(
        3.0 ** (-2.0 / 3.0) * v, rel=1e-11, abs=0.0
    )


def test_quotient_is_affine_in_alpha():
    vals = [rayleigh_quotient(_config(dim=6, alpha=a), 1e-3) for a in (1.0, 2.0, 3.0)]
    assert vals[1] - vals[0] == pytest.approx(vals[2] - vals[1], rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------------
# one batched quadrature for many eps


@pytest.mark.parametrize("dim", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("curvature", [None, 0.5])
def test_batch_equals_the_scalar_call_at_each_eps(dim, curvature):
    # eps over ten decades: the rows of the large eps need fewer inner panels
    # than the smallest and are padded with zero-width panels at r = 0
    cfg = _config(dim=dim, delta=0.8, alpha=1.3, vh_quadratic_coeff=0.5, f_laplacian=0.4,
                  curvature=curvature)
    eps = np.geomspace(0.16, 1.6e-11, 9)
    batch = rayleigh_quotient(cfg, eps)
    assert isinstance(batch, np.ndarray) and batch.shape == (9,)
    for e, value in zip(eps, batch):
        single = rayleigh_quotient(cfg, float(e))
        assert isinstance(single, float)
        assert value == pytest.approx(single, rel=1e-15, abs=0.0)
    assert rayleigh_quotient(cfg, list(eps[:1])).shape == (1,)


def test_a_fit_makes_one_quadrature_call(monkeypatch):
    calls = []  # integrand evaluations of each quad call
    quad_ = expansion.quad

    def counted(fn, *args):
        calls.append(0)

        def integrand(r):
            calls[-1] += 1
            return fn(r)

        return quad_(integrand, *args)

    monkeypatch.setattr(expansion, "quad", counted)
    report = fit_and_compare(_config(dim=6))
    assert calls == [1] and len(report.samples) == 7
    calls.clear()
    log_branch_sign(_config(dim=4))
    assert calls == [1]


# ---------------------------------------------------------------------------
# the graded rule, built once per (a, b, scales)


def _reference_edges(a, b, scales):
    # the rule's edges by plain float loops: a padding of a, then a + s 3^j
    # for 3^j s < (b - a) / 2, then b - ((b - a) / 2) / 3^k for k < 8, then b
    half = 0.5 * (b - a)
    inner = []
    for s in scales:
        row = []
        while s * 3.0 ** len(row) < half:
            row.append(a + s * 3.0 ** len(row))
        inner.append(row)
    width = max(len(row) for row in inner)
    right = [b - half / 3.0**k for k in range(8)] + [b]
    return [[a] * (width - len(row) + 1) + row + right for row in inner]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 0.8), (0.5, 2.0)])
def test_the_rule_matches_an_independent_construction(a, b):
    # 20 Gauss-Legendre points on panels graded by 3 from each scale at a
    # and in eight panels toward b; the scales sit away from the powers of
    # 3 where the number of inner panels steps
    scales = (0.1 * (b - a), 1.3e-3 * (b - a), 0.02 * (b - a), 7e-7 * (b - a))
    reference = np.array(_reference_edges(a, b, scales))
    edges = expansion._edges(a, b, scales)
    assert edges.shape == reference.shape
    np.testing.assert_allclose(edges, reference, rtol=1e-15, atol=0.0)
    nodes, rad = expansion._rule(a, b, scales)
    panels = reference.shape[1] - 1
    assert nodes.shape == (len(scales), 20, panels) and rad.shape == (len(scales), panels)
    mid, half = 0.5 * (reference[:, 1:] + reference[:, :-1]), 0.5 * (reference[:, 1:] - reference[:, :-1])
    np.testing.assert_allclose(rad, half, rtol=1e-12, atol=1e-15 * (b - a))
    x = scipy.special.roots_legendre(20)[0]
    reference_nodes = mid[:, None, :] + half[:, None, :] * x[:, None]
    np.testing.assert_allclose(nodes, reference_nodes, rtol=1e-13, atol=1e-15 * (b - a))


def test_fits_on_one_ladder_build_one_rule():
    expansion._rule.cache_clear()
    for dim in (5, 6, 7, 8):
        for curvature in (None, 0.1):
            fit_and_compare(_config(dim=dim, alpha=0.7 * dim, vh_quadratic_coeff=0.5, curvature=curvature))
    log_branch_sign(_config(dim=4))
    info = expansion._rule.cache_info()
    assert (info.misses, info.hits) == (1, 8)
    fit_and_compare(_config(dim=6, delta=0.8))  # another delta, so another default ladder
    fit_and_compare(_config(dim=6, epsilons=(1e-3, 1e-4, 1e-5)))
    assert expansion._rule.cache_info().misses == 3


def test_the_rule_cache_is_bounded():
    maxsize = expansion._rule.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 64


def test_a_cleared_rule_gives_bitwise_the_same_fit():
    cfg = _config(dim=7, alpha=1.4, vh_quadratic_coeff=-1.0, curvature=0.15)
    warm = fit_and_compare(cfg)
    again = fit_and_compare(cfg)
    expansion._rule.cache_clear()
    fresh = fit_and_compare(cfg)
    assert expansion._rule.cache_info().misses == 1
    assert warm.samples == again.samples == fresh.samples
    assert (warm.fitted_limit, warm.fitted_c1) == (fresh.fitted_limit, fresh.fitted_c1)


def test_an_integrand_cannot_write_into_the_cached_rule():
    cfg = _config(dim=6)
    before = fit_and_compare(cfg).samples
    scales = tuple(math.sqrt(e) for e in cfg.epsilons)
    nodes, rad = expansion._rule(0.0, cfg.delta, scales)
    assert not nodes.flags.writeable and not rad.flags.writeable

    def writes(r):
        r *= 2.0
        return r

    with pytest.raises(ValueError):
        expansion.quad(writes, 0.0, cfg.delta, scales)
    assert fit_and_compare(cfg).samples == before


@pytest.mark.parametrize("bad", [0.0, -1e-4, math.nan])
def test_a_non_positive_eps_in_a_sequence_is_rejected(bad):
    with pytest.raises(PreconditionError):
        rayleigh_quotient(_config(dim=6), [1e-3, bad, 1e-5])
    with pytest.raises(PreconditionError):
        rayleigh_quotient(_config(dim=6), [[1e-3, 1e-4]])  # not 1-d


# ---------------------------------------------------------------------------
# the linear model in dimension >= 5


def test_dim_six_flat_recovers_limit_and_slope():
    report = fit_and_compare(_config(dim=6))
    assert report.predicted_c1 == pytest.approx(5.0 / 12.0, rel=1e-14, abs=0.0)
    assert report.fitted_limit == pytest.approx(report.predicted_limit, rel=1e-6, abs=0.0)
    assert report.fitted_c1 == pytest.approx(5.0 / 12.0, rel=1e-2, abs=0.0)
    assert len(report.pair_slopes) == len(report.config.epsilons) - 1


def test_sign_grid_matches_prediction():
    # c1 = (5 alpha - 3 q) / 12 in dimension 6 with a flat weight
    for alpha in (0.5, 1.0, 2.0):
        for q in (-1.0, 0.0, 2.0):
            report = fit_and_compare(_config(dim=6, alpha=alpha, vh_quadratic_coeff=q))
            predicted = (5.0 * alpha - 3.0 * q) / 12.0
            assert report.predicted_c1 == pytest.approx(predicted, rel=1e-12, abs=0.0)
            assert (report.fitted_c1 > 0.0) == (predicted > 0.0)


def test_curved_model_shifts_the_slope():
    cfg = _config(dim=5, curvature=1.0)
    # (16/3 - scal) / 5 with scal = 20
    assert cfg.predicted_c1 == pytest.approx((16.0 / 3.0 - 20.0) / 5.0, rel=1e-13, abs=0.0)
    report = fit_and_compare(cfg)
    assert report.fitted_c1 == pytest.approx(report.predicted_c1, rel=5e-2, abs=0.0)
    assert report.fitted_limit == pytest.approx(report.predicted_limit, rel=1e-4, abs=0.0)


def test_fit_error_near_a_cancelling_c1_shrinks_with_eps():
    # 5 alpha and scal = 30 curvature nearly cancel in c1 = (5 alpha - scal) / 12,
    # so the secant's relative error, of order eps_min / |c1|, is large at
    # the default eps (outside a 10 % band) and shrinks tenfold per decade of
    # eps; the extrapolated c1 is within 1e-3 already at the default eps
    kw = dict(dim=6, alpha=1.0373, curvature=0.1728)
    default = _config(**kw).epsilons
    errors = []
    for scale in (1.0, 0.1, 0.01):
        report = fit_and_compare(_config(epsilons=tuple(scale * e for e in default), **kw))
        assert report.predicted_c1 == pytest.approx((5.0 * 1.0373 - 30.0 * 0.1728) / 12.0, rel=1e-12, abs=0.0)
        errors.append(abs(report.secant_c1 / report.predicted_c1 - 1.0))
        assert report.c1_resolved
        assert report.fitted_c1 == pytest.approx(report.predicted_c1, rel=1e-3, abs=0.0)
        assert abs(report.fitted_c1 - report.predicted_c1) <= report.c1_error
    assert 0.15 < errors[0] < 0.25
    for coarse, fine in zip(errors, errors[1:]):
        assert 9.0 < coarse / fine < 11.0
    assert errors[-1] < 2.5e-3


@pytest.mark.parametrize("dim", [5, 6, 7, 8])
@pytest.mark.parametrize("curvature", [None, 0.1], ids=["flat", "round"])
def test_the_error_bar_covers_the_predicted_c1(dim, curvature):
    # the lab's grid: three alphas around the ceiling's scale and three
    # orbit-volume decays; a fit whose slopes settle brackets the true c1
    resolved = 0
    for alpha in (0.5, 1.0, 2.0):
        for q in (-1.0, 0.0, 2.0):
            report = fit_and_compare(_config(dim=dim, alpha=alpha, vh_quadratic_coeff=q, curvature=curvature))
            if report.c1_resolved:
                resolved += 1
                assert 0.0 < report.c1_error < 0.02  # the secant's own error at dim 5, eps^{1/2}
                assert abs(report.fitted_c1 - report.predicted_c1) <= report.c1_error
            else:
                assert report.fitted_c1 == report.secant_c1 and report.c1_error == math.inf
    assert resolved >= 7


def test_the_error_bar_holds_where_the_secant_agrees_with_the_extrapolation():
    # at dim 7 the slopes carry remainders of two orders in eps that nearly
    # cancel at the smallest eps (the last ratio of slope differences is
    # 0.03, the one before 0.12): |fitted - secant| is 1.5e-9 while
    # fitted_c1 is 1e-7 off, which the change from the extrapolation of
    # the three slopes before covers
    report = fit_and_compare(_config(dim=7, alpha=1.0879964157305164, vh_quadratic_coeff=-1.0,
                                     curvature=0.05347541255917548))
    assert report.c1_resolved
    assert abs(report.fitted_c1 - report.secant_c1) < abs(report.fitted_c1 - report.predicted_c1)
    assert abs(report.fitted_c1 - report.predicted_c1) <= report.c1_error < 1e-5 * abs(report.predicted_c1)


def test_aitken_removes_a_geometric_remainder():
    # slopes 1 + 2^-k: Delta^2 recovers 1 exactly
    assert expansion._aitken((1.5, 1.25, 1.125)) == 1.0
    assert expansion._aitken((0.5, 0.75, 0.875)) == 1.0


@pytest.mark.parametrize(
    "slopes",
    [(1.0, 2.0, 4.0), (1.0, 2.0, 1.5), (1.0, 1.0, 1.5), (1.0, 2.0, 2.0), (1.0, 2.0)],
    ids=["growing", "alternating", "flat-then-moving", "settled", "two-slopes"],
)
def test_aitken_refuses_slopes_whose_differences_do_not_shrink(slopes):
    # the second difference over the first must lie in (0, 1)
    assert expansion._aitken(slopes) is None


def test_a_fit_without_three_settling_slopes_is_the_secant_and_unresolved():
    report = fit_and_compare(_config(dim=6, epsilons=(1e-3, 1e-4, 1e-5)))
    assert not report.c1_resolved
    assert report.fitted_c1 == report.secant_c1 == report.pair_slopes[-1] / report.fitted_limit
    assert report.c1_error == math.inf
    assert json.loads(canonical_json(report))["c1_error"] is None


def test_weight_curvature_enters_for_dim_above_four():
    cfg = _config(dim=6, f_laplacian=3.0)
    bare = _config(dim=6)
    assert cfg.predicted_c1 - bare.predicted_c1 == pytest.approx(
        (6.0 - 4.0) * 3.0 / (2.0 * 1.0) / (6.0 * 2.0), rel=1e-13, abs=0.0
    )


# ---------------------------------------------------------------------------
# the existence ceiling is where the expansion changes sign


def _first_order_term(cfg):
    """c1 for N >= 5; for N = 4, -coeff, the sign of I - limit = coeff eps ln(eps)."""
    return -log_branch_sign(cfg).coeff if cfg.dim == 4 else cfg.predicted_c1


@pytest.mark.parametrize("dim", [4, 5, 6, 7, 8])
def test_the_first_order_term_has_the_sign_of_alpha_minus_the_ceiling(dim):
    # peak-flat weight: (N-2)/(4 (N-1)) (scal + 3 q) is the only zero
    kw = dict(dim=dim, curvature=0.3, vh_quadratic_coeff=0.5)
    ceiling = (dim - 2.0) * (dim * (dim - 1.0) * 0.3 + 1.5) / (4.0 * (dim - 1.0))
    assert _first_order_term(_config(alpha=ceiling, **kw)) == pytest.approx(0.0, abs=1e-14 * ceiling)
    assert _first_order_term(_config(alpha=0.9 * ceiling, **kw)) < 0.0
    assert _first_order_term(_config(alpha=1.1 * ceiling, **kw)) > 0.0


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("value", [-0.5, 2.0])
def test_the_ceiling_reads_the_orbit_volume_laplacian_as_q_times_the_orbit_volume(n, value):
    # the geometer's lap(v_H) at a peak of v_H is + q A: existence_alpha_bound's
    # ceiling is the zero of the expansion built with q = value / A
    area, scal = 2.0 * math.pi, 30.0
    action = GroupActionSpec("circle", 1, area, scal, vh_laplacian_lower=value)
    ceiling = existence_alpha_bound(EquationParams(n, 1), action).ceiling
    N = n - 1
    kw = dict(dim=N, orbit_volume=area, curvature=scal / (N * (N - 1.0)), vh_quadratic_coeff=value / area)
    assert _first_order_term(_config(alpha=ceiling, **kw)) == pytest.approx(0.0, abs=1e-14 * ceiling)
    assert _first_order_term(_config(alpha=1.1 * ceiling, **kw)) > 0.0


# ---------------------------------------------------------------------------
# the logarithmic branch in dimension 4


def test_dim_four_log_branch_both_signs():
    below = log_branch_sign(_config(dim=4))  # coeff = -6/8
    assert below.coeff == pytest.approx(-0.75, rel=1e-15, abs=0.0)
    assert below.consistent
    above = log_branch_sign(_config(dim=4, vh_quadratic_coeff=4.0))  # coeff = +6/8
    assert above.coeff == pytest.approx(0.75, rel=1e-15, abs=0.0)
    assert above.consistent
    assert below.to_json()["consistent"] is True


def test_dim_four_log_branch_at_tiny_eps(capsys):
    # down to eps = 1e-16 delta^2 the samples must stay on the limit; the
    # tight panel reference gives 10.2603986413 at both small eps
    argv = ["expansion", "--dim", "4", "--delta", "2", "--alpha", "1.3", "--orbit-volume", "1",
            "--q", "-1", "--f-laplacian", "0.5", "--eps-max", "4e-8", "--eps-min", "4e-16",
            "--eps-count", "3"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is True
    for sample in report["samples"][1:]:
        assert sample["value"] == pytest.approx(10.2603986413, rel=1e-9, abs=0.0)


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


_EXPANSION_FIELDS = ("dim", "delta", "alpha", "orbit_volume", "f_peak", "vh_quadratic_coeff", "f_laplacian", "curvature")


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in _EXPANSION_FIELDS for v in ("1", True, math.nan, math.inf) + ((None,) if f != "curvature" else ())],
)
def test_a_bad_expansion_field_is_rejected_by_name(field, value):
    # None or a str raised a bare TypeError, and a bool passed as 1
    with pytest.raises(PreconditionError, match=r"\b%s\b" % field):
        _config(**{field: value})


def test_an_expansion_config_keeps_its_inputs_as_the_types_it_checked():
    # a numpy integer dimension was rejected, while every other integer input took one
    config = _config(dim=np.int64(5), delta=np.float64(1.0), alpha=1, orbit_volume=np.float32(2.0), curvature=1)
    assert config == _config(dim=5, delta=1.0, alpha=1.0, orbit_volume=2.0, curvature=1.0)
    assert type(config.dim) is int
    assert {type(getattr(config, f)) for f in _EXPANSION_FIELDS[1:]} == {float}


def test_epsilons_take_a_1d_array_and_keep_tuples_and_the_default():
    ladder = np.geomspace(1e-3, 1e-6, 5)
    from_array = _config(epsilons=ladder).epsilons
    assert from_array == tuple(float(e) for e in ladder)
    assert all(type(e) is float for e in from_array)
    assert _config(epsilons=list(ladder)).epsilons == from_array
    assert _config(epsilons=(1e-3, 1e-4, 1e-5)).epsilons == (1e-3, 1e-4, 1e-5)
    assert _config(delta=3.0, epsilons=(2, 1)).epsilons == (2.0, 1.0)
    d2 = 0.7**2
    default = tuple(float(e) for e in np.geomspace(1e-3 * d2, 1e-6 * d2, 7))
    assert _config(delta=0.7).epsilons == default
    assert _config(delta=0.7, epsilons=np.array([])).epsilons == default


@pytest.mark.parametrize(
    "bad", [("x", 1e-4), (1e-3, object()), [[1e-3], [1e-4]], np.array([[1e-3, 1e-4]]), 1e-3, None, (10**400,)]
)
def test_epsilons_that_are_no_1d_sequence_of_numbers_are_rejected(bad):
    with pytest.raises(PreconditionError, match="epsilons"):
        _config(epsilons=bad)


@pytest.mark.parametrize(
    "bad", [("1e-3", "1e-4"), np.array(["1e-3", "1e-4"]), np.array([1e-3, 1e-4], dtype=object), (1e-3 + 0j, 1e-4 + 0j)],
    ids=["text", "text-array", "objects", "complex"],
)
def test_epsilons_of_no_real_numbers_are_rejected_by_name(bad):
    # numpy parsed "1e-3", so a ladder of text became (0.001, 0.0001)
    with pytest.raises(PreconditionError, match="^epsilons must be a 1-d sequence of numbers"):
        _config(epsilons=bad)


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


def test_a_delta_whose_default_ladder_underflows_is_refused_by_name():
    # the ladder's last eps, 1e-6 delta^2, is 1e-322 at delta = 1e-158 and
    # rounds to 0 at 1e-160, where np.geomspace could not start it
    assert ExpansionConfig(dim=6, delta=1e-158, alpha=1.0, orbit_volume=1.0).epsilons[-1] > 0.0
    with pytest.raises(PreconditionError, match=r"^the default eps ladder 1e-3 delta\^2 to 1e-6 delta\^2 underflows"
                                                r" to 0 at delta = 1e-160$"):
        ExpansionConfig(dim=6, delta=1e-160, alpha=1.0, orbit_volume=1.0)


@pytest.mark.parametrize("curvature, delta", [(1e-130, 1.0), (1e300, 1e-151)])
def test_a_curvature_whose_area_element_scale_leaves_the_float_range_is_refused_by_name(curvature, delta):
    # sqrt(c)^5 at dim 6: 1e-320 at c = 1e-128, which _density divides by,
    # 0 at c = 1e-130, and past the float range (float ** raises) at c = 1e300
    assert ExpansionConfig(dim=6, delta=1.0, alpha=1.0, orbit_volume=1.0, curvature=1e-128).curvature == 1e-128
    message = "the area element's scale sqrt(curvature)^{N-1} = sqrt(%r)^5 must be a finite positive float" % curvature
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        ExpansionConfig(dim=6, delta=delta, alpha=1.0, orbit_volume=1.0, curvature=curvature)


@pytest.mark.parametrize("kwargs, fine, bad", [
    # I = num / den^{2/3} passes the float range at alpha = 1e100 where f_peak is 1e-320
    (dict(dim=6, delta=1.0, alpha=1.0, orbit_volume=1.0, f_peak=1e-320), dict(alpha=1e90), dict(alpha=1e100)),
    # alpha u^2 passes it on the nodes, and rho's zero at r = 0 makes the integrand nan
    (dict(dim=6, delta=5.923371299533323, alpha=1.0, orbit_volume=248.1959638703932), dict(alpha=1e200),
     dict(alpha=1e300)),
    # I, near 1e-299 at an orbit volume of 1e-300, rounds to 0 at 1e-310
    (dict(dim=7, delta=52874.16684497661, alpha=6.098460738608095e-07, orbit_volume=1.0, f_peak=1e300,
          f_laplacian=0.00043594509483381027), dict(orbit_volume=1e-300), dict(orbit_volume=1e-310)),
], ids=["inf", "nan", "zero"])
def test_a_quotient_whose_integrals_overflow_or_vanish_is_refused_by_name(kwargs, fine, bad):
    # each once reached the fit: the first two printed null, the last divided by a limit of 0
    config = ExpansionConfig(**{**kwargs, **fine})
    values = rayleigh_quotient(config, config.epsilons)
    assert np.all((0.0 < values) & (values < math.inf))
    config = ExpansionConfig(**{**kwargs, **bad})
    refusal = r"^I\(u_eps\) must be a finite positive float: the quotient's integrals overflow or vanish$"
    with np.errstate(all="ignore"), pytest.raises(PreconditionError, match=refusal):
        rayleigh_quotient(config, config.epsilons)


def test_a_panel_count_past_the_float_range_is_refused_by_name():
    # quad grades its panels by 3 from sqrt(eps) to delta: delta / (2 sqrt(eps))
    # is 5e307 at delta = 1e308 and eps = 1, where a later check refuses the
    # integrals, and inf at eps = 0.01
    config = ExpansionConfig(dim=6, delta=1e308, alpha=1.0, orbit_volume=1.0, epsilons=(1.0, 0.01))
    with np.errstate(all="ignore"):
        with pytest.raises(PreconditionError, match="^degenerate test function: zero denominator$"):
            rayleigh_quotient(config, 1.0)
        with pytest.raises(PreconditionError, match=r"^the rule's panel count log_3\(delta / \(2 sqrt\(eps\)\)\) must"
                                                    r" be finite, got delta = 1e\+308 and eps = 0.01$"):
            rayleigh_quotient(config, config.epsilons)


@pytest.mark.parametrize("kwargs, fine, bad", [
    # finite samples of order 1e200 give slope differences whose square, in
    # Aitken's Delta^2, passes the float range; samples of order 1e100 do not
    (dict(dim=6, delta=5.923371299533323, orbit_volume=248.1959638703932), dict(alpha=1e100), dict(alpha=1e200)),
    # the predicted c1's (N - 4) lap f / (2 f) is -8.3e306 at lap f = -1e8 and f = 1e-300, and -inf at -1e9
    (dict(dim=6, delta=1.0, alpha=1.0, orbit_volume=1.0, f_peak=1e-300), dict(f_laplacian=-1e8),
     dict(f_laplacian=-1e9)),
], ids=["extrapolated", "predicted"])
def test_a_fit_whose_numbers_overflow_is_refused_by_name(kwargs, fine, bad):
    report = fit_and_compare(ExpansionConfig(**{**kwargs, **fine}))
    assert math.isfinite(report.fitted_c1) and math.isfinite(report.predicted_c1)
    with np.errstate(all="ignore"), pytest.raises(
        PreconditionError, match=r"^the linear fit of I\(u_eps\) must give finite floats: its slopes, limit or"
                                 r" extrapolated c1 overflow$"
    ):
        fit_and_compare(ExpansionConfig(**{**kwargs, **bad}))


def test_default_epsilons_span_three_decades():
    cfg = _config(dim=6, delta=2.0)
    eps = cfg.epsilons
    assert len(eps) == 7
    assert eps[0] == pytest.approx(1e-3 * 4.0, rel=1e-12, abs=0.0)
    assert eps[-1] == pytest.approx(1e-6 * 4.0, rel=1e-12, abs=0.0)
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_report_json_shape():
    report = fit_and_compare(_config(dim=6, epsilons=(1e-4, 1e-5)))
    d = report.to_json()
    assert len(d["samples"]) == 2
    assert set(d) == {
        "samples", "predicted_limit", "predicted_c1",
        "fitted_limit", "fitted_c1", "secant_c1", "c1_error", "c1_resolved", "pair_slopes",
    }
