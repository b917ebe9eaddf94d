import math

import numpy as np
import pytest

from symcrit import (
    ConvergenceError,
    GenericIneqParams,
    PreconditionError,
    ReducedProblem,
    SolveConfig,
    circle_reduction,
    constant_solution,
    el_residual,
    energy,
    energy_separation,
    example_configuration,
    existence_threshold,
    minimize,
    proof_chain_diagnostics,
    quotient_gradient,
    quotient_value,
)

# 1-D ground state of -u'' + u = u^5 on the line: u = 3^{1/4} sech^{1/2}(2s),
# with int u^6 = 3^{3/2} pi / 4, so the limiting quotient is
SOLITON_QUOTIENT = 3.0 * math.pi ** (2.0 / 3.0) / 2.0 ** (4.0 / 3.0)


def _problem(length=2.0 * math.pi, weight=1.0, alpha=1.0, p=5.0, m=96, f=None):
    f_samples = np.ones(m) if f is None else f
    return ReducedProblem(length=length, weight=weight, alpha=alpha, p=p, f_samples=f_samples)


def _fd_gradient(problem, u, eps=1e-5):
    g = np.zeros_like(u)
    for i in range(u.size):
        up = u.copy()
        up[i] += eps
        dn = u.copy()
        dn[i] -= eps
        g[i] = (quotient_value(problem, up) - quotient_value(problem, dn)) / (2.0 * eps)
    return g


# ---------------------------------------------------------------------------
# quotient and gradient


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = 64
        problem = ReducedProblem(
            length=float(rng.uniform(3.0, 20.0)),
            weight=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.1, 2.0)),
            p=float(rng.choice([5.0, 3.0, 7.0 / 3.0])),
            f_samples=rng.uniform(0.5, 2.0, m),
        )
        u = rng.uniform(0.5, 2.0, m)
        g = quotient_gradient(problem, u)
        g_fd = _fd_gradient(problem, u)
        rel = float(np.max(np.abs(g - g_fd))) / float(np.max(np.abs(g)))
        assert rel < 1e-6


def test_quotient_scale_invariance():
    rng = np.random.default_rng(11)
    problem = _problem(alpha=0.7, m=64)
    u = rng.uniform(0.5, 2.0, 64)
    q = quotient_value(problem, u)
    for c in (1e-3, 0.5, 7.0, 1e4):
        assert quotient_value(problem, c * u) == pytest.approx(q, rel=1e-12)


def test_quotient_translation_invariance():
    rng = np.random.default_rng(12)
    problem = _problem(m=64)
    u = rng.uniform(0.5, 2.0, 64)
    assert quotient_value(problem, np.roll(u, 17)) == pytest.approx(
        quotient_value(problem, u), rel=1e-12
    )


def test_quotient_rejects_vanishing_denominator():
    problem = _problem(m=64)
    with pytest.raises(PreconditionError):
        quotient_value(problem, np.zeros(64))


# ---------------------------------------------------------------------------
# constant branch


def test_constant_solution_below_bifurcation():
    # bifurcation at alpha = (2 pi / length)^2 / (p - 1) = 0.25 here
    problem = _problem(weight=2.0 * math.pi**2, alpha=0.1, p=5.0, m=96)
    report = minimize(problem, SolveConfig(starts=("constant", "cos1")))
    assert report.classification == "constant"
    assert report.el_residual < 1e-10
    wl = problem.weight * problem.length
    assert report.quotient_value == pytest.approx(0.1 * wl ** (2.0 / 3.0), rel=1e-10)
    closed = constant_solution(problem)
    assert closed.quotient_value == pytest.approx(report.quotient_value, rel=1e-12)
    assert closed.newton_iterations == 0


def test_constant_solution_needs_constant_weight():
    f = np.ones(96)
    f[3] = 1.5
    with pytest.raises(PreconditionError):
        constant_solution(_problem(m=96, f=f))


def test_nonconstant_branch_above_bifurcation():
    problem = _problem(weight=2.0 * math.pi**2, alpha=0.3, p=5.0, m=96)
    report = minimize(problem, SolveConfig(starts=("constant", "cos1")))
    assert report.classification == "nonconstant"
    assert report.quotient_value < constant_solution(problem).quotient_value
    assert report.el_residual < 1e-8


def test_energy_equals_quotient_power_identity():
    # energy = Q^{N/2} holds exactly for the discrete system
    for alpha in (0.1, 0.3, 1.0):
        problem = _problem(weight=2.0 * math.pi**2, alpha=alpha, p=5.0, m=96)
        report = minimize(problem, SolveConfig(starts=("constant", "cos1")))
        N = problem.reduced_dim
        assert report.energy == pytest.approx(report.quotient_value ** (N / 2.0), rel=1e-8)


# ---------------------------------------------------------------------------
# soliton limit and grid convergence


@pytest.fixture(scope="module")
def soliton_report():
    problem = _problem(length=60.0, weight=1.0, alpha=1.0, p=5.0, m=1024)
    return problem, minimize(problem, SolveConfig(starts=("cos1",)))


def test_long_circle_recovers_the_line_soliton(soliton_report):
    _, report = soliton_report
    assert report.classification == "nonconstant"
    assert report.quotient_value == pytest.approx(SOLITON_QUOTIENT, rel=5e-3)


def test_grid_convergence_is_second_order():
    ref = minimize(
        _problem(length=30.0, m=4096), SolveConfig(starts=("cos1",))
    ).quotient_value
    errs = []
    for m in (128, 256, 512):
        q = minimize(_problem(length=30.0, m=m), SolveConfig(starts=("cos1",))).quotient_value
        errs.append(abs(q - ref))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(order >= 1.8 for order in orders)


# ---------------------------------------------------------------------------
# a-priori bound audit


def test_mass_bounds_hold_on_the_soliton(soliton_report):
    problem, report = soliton_report
    # band inequality on the circle: Hoelder from L^6 down to L^3 plus the
    # 1-d Agmon bound ||u||_inf^2 <= (1/w)((1 + 1/l)<u^2> + <u'^2>)
    ineq = GenericIneqParams(
        3.0, (problem.length / problem.weight) ** (1.0 / 3.0), 1.0 + 1.0 / problem.length
    )
    checks = proof_chain_diagnostics(report, ineq)
    assert [c.label for c in checks] == ["mass-via-min-f", "mass-via-band-inequality"]
    assert all(c.status == "checked" and c.holds for c in checks)


def test_min_f_mass_bound_is_tight_on_constants():
    problem = _problem(weight=2.0, alpha=0.7, p=5.0, m=128)
    report = constant_solution(problem)
    (check,) = proof_chain_diagnostics(report)
    assert check.holds
    assert abs(check.value - check.bound) <= 1e-9 * check.bound


def test_band_bound_reports_not_applicable_below_its_floor():
    problem = _problem(weight=2.0, alpha=0.7, p=5.0, m=128)
    report = constant_solution(problem)
    checks = proof_chain_diagnostics(report, GenericIneqParams(3.0, 1.0, 10.0))
    assert checks[1].status == "not-applicable"
    assert checks[1].bound is None and checks[1].holds is None


# ---------------------------------------------------------------------------
# separation of energies


def test_energy_separation_orders_reports():
    a = constant_solution(_problem(length=4.0, weight=1.0, alpha=0.5))
    b = constant_solution(_problem(length=9.0, weight=1.0, alpha=0.5))
    sep = energy_separation(a, b)
    assert sep.distinct and sep.lower == "a"
    assert sep.energy_a < sep.energy_b
    assert 0.0 < sep.rel_gap <= 1.0
    same = energy_separation(a, a)
    assert not same.distinct and same.lower is None


def test_energy_separation_rejects_mismatched_equations():
    a = constant_solution(_problem(alpha=0.5))
    with pytest.raises(PreconditionError):
        energy_separation(a, constant_solution(_problem(alpha=0.6)))
    with pytest.raises(PreconditionError):
        energy_separation(a, constant_solution(_problem(alpha=0.5, p=3.0)))


# ---------------------------------------------------------------------------
# convergence failure carries the best partial result


def test_failed_solve_raises_with_partial_report():
    problem = _problem(m=64, alpha=1.0)
    config = SolveConfig(starts=("cos1",), descent_max_iter=0, newton_max_iter=1)
    with pytest.raises(ConvergenceError) as err:
        minimize(problem, config)
    best = err.value.best
    assert best.start_label == "cos1"
    assert best.el_residual > 0.0


_BAD_CONFIG_VALUES = {
    "starts": [(), ("cos1", "sine"), ("cos",), ("cosx",)],
    "descent_tol": [0.0, -1.0, math.nan, math.inf],
    "newton_tol": [0.0, math.nan, math.inf],
    "positivity_floor": [0.0, -1e-12, math.nan, math.inf],
    "oscillation_tol": [-1e-7, math.nan, math.inf],
    "seed": [-1, 0.5],
    "descent_max_iter": [-1, 10.0],
    "newton_max_iter": [-1, 2.5],
}


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param(field, value, id="%s%d" % (field, i))
        for field, values in _BAD_CONFIG_VALUES.items()
        for i, value in enumerate(values)
    ],
)
def test_start_labels_are_checked_before_any_work(field, value):
    """Every SolveConfig field is checked when the config is built."""
    with pytest.raises(PreconditionError, match=field):
        SolveConfig(**{field: value})


@pytest.mark.parametrize(
    "m, amplitude, phase, alpha",
    [
        (96, 0.2, math.pi / 6.0, 0.05 + 19.5 * 0.025),
        (128, 0.15, math.pi / 3.0, 0.05 + 17.5 * 0.025),
    ],
    ids=["m96", "m128"],
)
def test_newton_converges_with_a_nonconstant_weight(m, amplitude, phase, alpha):
    # a translation border here would force every step orthogonal to u'
    # and leave Newton stalled just above its tolerance
    s = np.arange(m) * (2.0 * math.pi / m)
    problem = _problem(alpha=alpha, m=m, f=1.0 + amplitude * np.cos(s - phase))
    report = minimize(problem, SolveConfig(starts=("constant", "cos1")))
    assert report.el_residual <= 1e-10
    assert report.classification == "nonconstant"


# ---------------------------------------------------------------------------
# packaged reductions


def _reducible():
    yield example_configuration("cylinder-weighted"), 1
    yield example_configuration("cylinder-weighted"), 2
    yield example_configuration("cylinder-triple"), 1
    yield example_configuration("cylinder-triple"), 2
    yield example_configuration("hopf"), 1
    yield example_configuration("cylinder-overcritical"), 1


def test_circle_reduction_preserves_volume_and_exponent():
    for cfg, index in _reducible():
        red = circle_reduction(cfg, index, alpha=1.0, grid=64)
        assert red.weight * red.length == pytest.approx(cfg.volume, rel=1e-13)
        assert red.p == cfg.params.exponent
        assert red.alpha == 1.0 and red.m == 64


def test_circle_reduction_orbit_volumes():
    cw = example_configuration("cylinder-triple")  # orders 1 < 2
    assert circle_reduction(cw, 1, 1.0, grid=64).orbit_volume == 1.0
    assert circle_reduction(cw, 2, 1.0, grid=64).orbit_volume == 2.0
    hopf = example_configuration("hopf")
    assert circle_reduction(hopf, 1, 1.0, grid=64).orbit_volume == pytest.approx(
        2.0 * math.pi, rel=1e-15
    )


def test_circle_reduction_threshold_matches_existence_threshold():
    for cfg, index in _reducible():
        red = circle_reduction(cfg, index, alpha=1.0, grid=64)
        assert red.threshold == existence_threshold(cfg.params, red.orbit_volume)


def test_circle_reduction_rejections():
    with pytest.raises(PreconditionError):
        circle_reduction(example_configuration("hopf"), 2, 1.0)
    with pytest.raises(PreconditionError):
        circle_reduction(example_configuration("cylinder-overcritical"), 2, 1.0)
    with pytest.raises(PreconditionError):
        circle_reduction(example_configuration("sphere-quotients"), 1, 1.0)
    with pytest.raises(PreconditionError):
        circle_reduction(example_configuration("triple-product"), 1, 1.0)
    with pytest.raises(PreconditionError):
        circle_reduction(example_configuration("hopf"), 3, 1.0)


# ---------------------------------------------------------------------------
# problem container


def test_problem_validation_and_grid():
    with pytest.raises(PreconditionError):
        _problem(m=32)
    with pytest.raises(PreconditionError):
        _problem(m=96, f=-np.ones(96))
    with pytest.raises(PreconditionError):
        _problem(alpha=0.0)
    with pytest.raises(PreconditionError):
        _problem(p=1.0)
    with pytest.raises(PreconditionError, match="orbit volume"):
        ReducedProblem(2.0, 1.0, 1.0, 5.0, np.ones(64), orbit_volume=math.inf)
    problem = _problem(length=6.4, m=64)
    s = problem.grid()
    assert s.size == 64 and s[0] == 0.0
    assert s[1] == pytest.approx(0.1, rel=1e-15)
    assert problem.two_sharp == 6.0 and problem.reduced_dim == 3.0


def test_threshold_requires_integer_dimension_and_orbit():
    assert _problem().threshold is None  # no orbit volume
    frac = ReducedProblem(
        length=5.0, weight=1.0, alpha=1.0, p=2.5, f_samples=np.ones(64), orbit_volume=1.0
    )
    assert frac.threshold is None  # reduced dimension 14/3
    ok = ReducedProblem(
        length=5.0, weight=1.0, alpha=1.0, p=2.0, f_samples=np.ones(64), orbit_volume=1.0
    )
    assert ok.threshold is not None


def test_reports_and_problems_are_read_only():
    problem = _problem(m=64)
    with pytest.raises(ValueError):
        problem.f_samples[0] = 2.0
    report = constant_solution(problem)
    with pytest.raises(ValueError):
        report.u[0] = 2.0


def test_report_json_shape():
    report = constant_solution(_problem(m=64))
    d = report.to_json()
    assert d["classification"] == "constant"
    assert "u" not in d
    with_profile = report.to_json(include_profile=True)
    assert len(with_profile["u"]) == 64
