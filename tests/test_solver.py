import functools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
import quotient_oracle
import sparse_newton

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
    example_interval,
    existence_threshold,
    minimize,
    proof_chain_diagnostics,
    quotient_gradient,
    quotient_value,
)
from symcrit import _lazy, solver
from symcrit.solver import MIN_GRID

# An in-place kernel that starts producing inf or NaN fails here, not quietly.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
# kernels and the fused descent evaluation


@pytest.mark.parametrize("m", [64, 97])
def test_periodic_differences_equal_the_roll_formulas(m):
    rng = np.random.default_rng(m)
    problem = _problem(length=float(rng.uniform(3.0, 20.0)), weight=float(rng.uniform(0.5, 3.0)), m=m)
    u = rng.uniform(0.5, 2.0, m)
    h = problem.h
    lap = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (h * h)
    du = (np.roll(u, -1) - u) / h
    assert np.array_equal(solver._lap(u, h), lap)
    assert solver._dirichlet(problem, u) == problem.weight * h * float(np.dot(du, du))


@pytest.mark.parametrize("m", [64, 97])
def test_the_operator_pieces_agree_with_one_stencil(m):
    # _lap, the descent's symbol, Newton's norm bound and the cut Jacobian
    # all read solver._stencil; a piece that drifts from it fails here
    rng = np.random.default_rng(m)
    problem = _problem(length=float(rng.uniform(3.0, 20.0)), alpha=0.7, m=m,
                       f=rng.uniform(0.5, 1.5, m))
    h = problem.h
    d, off = solver._stencil(h)
    assert (d, off) == (2.0 / (h * h), -1.0 / (h * h)) and d - 2.0 * off == 4.0 / (h * h)
    neg_lap = -np.column_stack([solver._lap(col, h) for col in np.eye(m)])
    symbol = (d - 2.0 * off) * np.sin(math.pi * np.arange(m) / m) ** 2
    assert np.linalg.eigvalsh(neg_lap) == pytest.approx(np.sort(symbol), abs=1e-12 * d)
    assert np.abs(neg_lap).sum(axis=1).max() == pytest.approx(d - 2.0 * off, rel=1e-15)

    v = rng.uniform(0.5, 2.0, m)
    dense = neg_lap.copy()  # J, with its diagonal rounded in _cut's order
    potential = problem.p * problem.f_samples * v ** (problem.p - 1.0)
    np.fill_diagonal(dense, np.diag(neg_lap) + problem.alpha - potential)
    order, diag, _, coupling = solver._cut(problem, v)
    ring = dense[np.ix_(order, order)]
    cut = np.diag(diag) + coupling * (np.eye(m, k=1) + np.eye(m, k=-1))
    cut[0, -1] = cut[-1, 0] = coupling  # w's first entry; its last is the band's
    assert np.array_equal(ring, cut)


@pytest.mark.parametrize("m", [64, 97])
def test_fused_evaluation_matches_quotient_and_gradient(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(10):
        problem = ReducedProblem(
            length=float(rng.uniform(3.0, 20.0)),
            weight=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.1, 2.0)),
            p=float(rng.choice([5.0, 3.0, 7.0 / 3.0])),
            f_samples=rng.uniform(0.5, 2.0, m),
        )
        x = float(rng.uniform(0.1, 10.0)) * rng.uniform(0.5, 2.0, m)
        u, q, g = solver._evaluate(problem, x)
        normalized = x / energy(problem, x) ** (1.0 / problem.two_sharp)
        g_ref = quotient_oracle.quotient_gradient(problem, normalized)
        assert float(np.max(np.abs(u - normalized))) <= 1e-13 * float(np.max(normalized))
        assert q == pytest.approx(quotient_value(problem, normalized), rel=1e-13)
        assert float(np.max(np.abs(g - g_ref))) <= 1e-13 * float(np.max(np.abs(g_ref)))


@pytest.mark.parametrize("m", [64, 97, 1024, 4096])
@pytest.mark.parametrize("p", [5.0, 3.0, 5.0 / 3.0, 7.0 / 3.0])
def test_quotient_gradient_is_the_scaled_fused_gradient(m, p):
    rng = np.random.default_rng(m)
    for _ in range(3):
        problem = ReducedProblem(
            length=float(rng.uniform(3.0, 20.0)),
            weight=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.1, 2.0)),
            p=p,
            f_samples=rng.uniform(0.5, 2.0, m),
        )
        x = float(rng.uniform(0.01, 100.0)) * rng.uniform(0.5, 2.0, m)
        g = quotient_gradient(problem, x)
        g_ref = quotient_oracle.quotient_gradient(problem, x)
        assert float(np.max(np.abs(g - g_ref))) <= 1e-14 * float(np.max(np.abs(g_ref)))


# ---------------------------------------------------------------------------
# the cut-ring Newton step


@functools.lru_cache(maxsize=None)
def _triple_solution(m):
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 1, alpha, grid=m)
    return problem, minimize(problem, SolveConfig(starts=("cos1",))).u


def _near_converged_triple(m, noise=1e-3):
    problem, u = _triple_solution(m)
    return problem, u * (1.0 + noise * np.random.default_rng(6).standard_normal(m))


def _cos_iterate(m, f=None):
    problem = _problem(alpha=0.4, m=m, f=f)
    c = 0.4 ** 0.25
    noise = np.random.default_rng(m).standard_normal(m)
    return problem, c * (1.0 + 0.3 * np.cos(problem.grid()) + 1e-2 * noise)


# The far-from-converged cos iterates stay at small m: at m = 1024 the
# bordered system has condition number 4.7e5 there, and the sparse oracle
# itself is 6.6e-12 from a dense LU solve.  The near-converged c6 iterate
# agrees to 1e-15 at m = 1024.
@pytest.mark.parametrize(
    "case", ["constant-m64", "constant-m65", "triple-m1024", "weighted-m64", "weighted-m65"]
)
def test_newton_step_matches_the_sparse_oracle(case):
    kind, m = case.split("-m")
    m = int(m)
    if kind == "triple":
        problem, v = _near_converged_triple(m)
    elif kind == "weighted":
        s = np.arange(m) * (2.0 * math.pi / m)
        problem, v = _cos_iterate(m, f=1.0 + 0.15 * np.cos(s))
    else:
        problem, v = _cos_iterate(m)
    r = solver._residual(problem, v)
    delta = solver._newton_step(problem, v, r, solver._constant_weight(problem))
    ref = sparse_newton.newton_step(problem, v, r)
    assert float(np.max(np.abs(delta - ref))) <= 1e-12 * float(np.max(np.abs(ref)))


def _bordered_residual(problem, v, r, delta):
    """Residuals of the two rows of [J tau; tau' 0] [delta; mu] = [-r; 0].

    mu is the least-squares fit of the first row; both are relative, to |r|
    and to |tau| |delta|.
    """
    h = problem.h
    tau = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h)
    diag = problem.alpha - problem.p * problem.f_samples * v ** (problem.p - 1.0)
    j_delta = -(np.roll(delta, -1) - 2.0 * delta + np.roll(delta, 1)) / (h * h) + diag * delta
    mu = float(np.dot(tau, -r - j_delta)) / float(np.dot(tau, tau))
    return (
        float(np.max(np.abs(r + j_delta + mu * tau))) / float(np.max(np.abs(r))),
        abs(float(np.dot(tau, delta))) / float(np.linalg.norm(tau) * np.linalg.norm(delta)),
    )


@pytest.mark.parametrize("noise", [1e-3, 1e-9])
def test_bordered_step_residual_is_at_rounding_level(noise):
    # Near a solution J is singular along tau; the Schur system in
    # (delta_k, mu) carries that near-singularity, and T, cut where tau is
    # largest, stays well conditioned
    problem, v = _near_converged_triple(4096, noise)
    r = solver._residual(problem, v)
    delta = solver._newton_step(problem, v, r, solver._constant_weight(problem))
    assert max(_bordered_residual(problem, v, r, delta)) <= 1e-14


def _peak_shifts(m, v):
    # rolls that put the peak of v beside node m - 1 (shifts -4..4 around
    # it) and at every m/16-th node
    to_last = m - 1 - int(np.argmax(v))
    return [to_last + j for j in range(-4, 5)] + [j * (m // 16) for j in range(16)]


@pytest.mark.parametrize("case", ["triple-m1024", "triple-m4096", "weighted-m65"])
def test_newton_step_is_accurate_wherever_the_peak_sits(case):
    # A cut at a fixed node leaves T nearly singular when the peak sits
    # beside it (tau, J's null direction, is then small at the cut).  Cut
    # at node m - 1, the c6 steps on these rolls are up to 3.5e-12 from
    # the oracle, with bordered residuals up to 1.3e-13 |r| and 8.8e-12;
    # cut where |tau| is largest, 7.5e-15, 2.0e-16 and 5.8e-16
    kind, m = case.split("-m")
    m = int(m)
    if kind == "triple":
        problem, v0 = _near_converged_triple(m)
    else:
        s = np.arange(m) * (2.0 * math.pi / m)
        problem, v0 = _cos_iterate(m, f=1.0 + 0.15 * np.cos(s))
    for shift in _peak_shifts(m, v0):
        v = np.roll(v0, shift)
        r = solver._residual(problem, v)
        delta = solver._newton_step(problem, v, r, solver._constant_weight(problem))
        ref = sparse_newton.newton_step(problem, v, r)
        assert float(np.max(np.abs(delta - ref))) <= 1e-12 * float(np.max(np.abs(ref)))
        if kind == "triple":
            assert max(_bordered_residual(problem, v, r, delta)) <= 1e-14


def test_zero_pivot_ends_newton_unconverged():
    # h = 1 and alpha - p v^{p-1} = -2 leave J = -(cycle adjacency); cut
    # open, T = -(path adjacency on 63 nodes) has the eigenvalue
    # 2 cos(32 pi / 64) = 0, and dgtsv, in exact arithmetic here, meets a
    # zero pivot
    problem = _problem(length=64.0, alpha=3.0, p=5.0, m=64)
    v = np.ones(64)
    assert solver._newton_step(problem, v, solver._residual(problem, v), True) is None
    _, iters, rn, ok = solver._newton(problem, v, SolveConfig())
    assert (iters, ok) == (1, False)
    assert rn == 2.0


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


def test_quotient_gradient_rejects_vanishing_denominator():
    with pytest.raises(PreconditionError):
        quotient_gradient(_problem(m=64), np.zeros(64))


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
# iteration counts of the descent and of Newton


@pytest.mark.parametrize("alpha", [0.2462, 0.2525])
def test_descent_stops_by_its_tolerance_near_the_bifurcation(monkeypatch, alpha):
    # the Euclidean descent ran into its 2000-iteration cap here (2155 and
    # 2124 evaluations); the H^1 direction meets the stopping test early
    problem = _problem(alpha=alpha)
    config = SolveConfig(starts=("cos1",))
    (_, u0), = solver._starts(problem, config)
    calls = []
    evaluate = solver._evaluate
    monkeypatch.setattr(solver, "_evaluate", lambda pr, x: calls.append(1) or evaluate(pr, x))
    u, _, capped = solver._descend(problem, u0)
    assert len(calls) <= 100 < solver.DESCENT_MAX_ITER
    assert not capped
    _, q, g = evaluate(problem, u)
    scale = 2.0 * problem.weight * problem.h
    assert float(np.abs(g).max()) <= solver.DESCENT_TOL * scale * max(1.0, q)


def _counted_rfft_descent(monkeypatch, problem, u0, cap=solver.DESCENT_MAX_ITER):
    """(rfft calls, capped) of one descent from u0 with DESCENT_MAX_ITER = cap."""
    calls = []
    rfft = np.fft.rfft
    with monkeypatch.context() as patch:
        patch.setattr(solver, "DESCENT_MAX_ITER", cap)
        patch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        capped = solver._descend(problem, u0)[2]
    return len(calls), capped


def test_the_descent_applies_p_inverse_once_per_accepted_step(monkeypatch):
    # a start that passes the stopping test needs no direction
    problem = _problem(alpha=0.3)
    (_, u0), = solver._starts(problem, SolveConfig(starts=("constant",)))
    assert _counted_rfft_descent(monkeypatch, problem, u0) == (0, False)
    # a capped descent accepts a step in each of its DESCENT_MAX_ITER iterations
    (_, u0), = solver._starts(problem, SolveConfig(starts=("cos1",)))
    for cap in (1, 2, 5):
        assert _counted_rfft_descent(monkeypatch, problem, u0, cap) == (cap, True)
    # a descent that meets its stopping test after k steps: capped at k - 1
    # it is one step short of the test
    k, capped = _counted_rfft_descent(monkeypatch, problem, u0)
    assert not capped and k > 5
    assert _counted_rfft_descent(monkeypatch, problem, u0, k) == (k, False)
    assert _counted_rfft_descent(monkeypatch, problem, u0, k - 1) == (k - 1, True)


def test_rescaling_by_the_descent_numerator_is_quotient_value_bitwise():
    # _solve_one rescales by qv / energy^{2/q}, bitwise quotient_value(u)
    problem = _problem(alpha=0.4, m=128, f=1.0 + 0.15 * np.cos(np.arange(128) * (2.0 * math.pi / 128)))
    (_, u0), = solver._starts(problem, SolveConfig(starts=("cos1",)))
    u, qv, _ = solver._descend(problem, u0)
    assert qv / energy(problem, u) ** (2.0 / problem.two_sharp) == quotient_value(problem, u)


def _assert_fields_are_their_recomputation(report):
    problem, u = report.problem, report.u
    assert report.quotient_value == quotient_value(problem, u)
    assert report.energy == energy(problem, u)
    assert report.el_residual == el_residual(problem, u)
    assert report.classification == solver._classify(u)
    assert (report.morse_index, report.zero_modes) == solver._morse_counts(problem, u)


@pytest.mark.parametrize(
    "case", ["model-m96-a0.15", "model-m96-a0.4", "model-m256-a0.15", "model-m256-a0.4", "triple-m1024"]
)
def test_report_fields_equal_their_recomputation_from_u(case):
    # minimize hands _report the quotient it ranked the starts by and
    # Newton's last residual instead of computing them again
    if case.startswith("model"):
        m, alpha = case.split("-")[1:]
        problem = _problem(alpha=float(alpha[1:]), m=int(m[1:]))
    else:
        alpha = example_interval("cylinder-triple").midpoint
        problem = circle_reduction(example_configuration("cylinder-triple"), 1, alpha, grid=1024)
    _assert_fields_are_their_recomputation(minimize(problem))


def test_convergence_error_best_fields_equal_their_recomputation_from_u():
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 2, alpha, grid=512)
    with pytest.raises(ConvergenceError) as err:
        minimize(problem, SolveConfig(starts=("cos3",)))
    _assert_fields_are_their_recomputation(err.value.best)


def test_newton_leaves_a_stagnating_saddle_start_early():
    # cos3 descends to near the symmetric three-bump saddle, whose relative
    # bump positions are null modes of J besides the bordered translation
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 2, alpha, grid=512)
    config = SolveConfig(starts=("cos3",))
    (_, u0), = solver._starts(problem, config)
    run = solver._solve_one(problem, "cos3", u0, config)
    assert not run.converged and run.iters <= 5
    report = minimize(problem)
    assert report.classification == "nonconstant"
    assert report.quotient_value == pytest.approx(19.01756946164605, rel=1e-14)


def test_newton_stops_at_the_residual_rounding_floor():
    # On fine grids the residual of cylinder-weighted's index-1 minimizer
    # cannot get below 1e-10 in floating point (1.7e-10 at m = 2048); an
    # absolute test judged every start unconverged and returned the constant
    # saddle (Q = 20.8333, index 3).  Newton converges at
    # max(newton_tol, eps |J|_inf |v|_inf) instead.
    cfg = example_configuration("cylinder-weighted")
    alpha = example_interval("cylinder-weighted").midpoint
    quotients = []
    for m in (2048, 4096, 8192):
        report = minimize(circle_reduction(cfg, 1, alpha, grid=m))
        problem, v = report.problem, report.u
        jac = 4.0 / problem.h**2 + alpha + problem.p * problem.f_samples.max() * v.max() ** (problem.p - 1.0)
        assert SolveConfig().newton_tol < report.el_residual <= math.ulp(1.0) * jac * v.max()
        assert (report.classification, report.morse_index) == ("nonconstant", 1)
        assert report.quotient_value == pytest.approx(17.61268, abs=1e-5)
        quotients.append(report.quotient_value)
    # second order in h: the quotient differences shrink by 4 per halving
    assert 3.9 < (quotients[1] - quotients[0]) / (quotients[2] - quotients[1]) < 4.1


# ---------------------------------------------------------------------------
# the soliton start


def _counted_solve(monkeypatch, index, m, config=None):
    """Solve of cylinder-triple at c6's alpha, with the grid size of each _evaluate call."""
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), index, alpha, grid=m)
    calls = []
    evaluate = solver._evaluate
    monkeypatch.setattr(solver, "_evaluate", lambda pr, x: calls.append(pr.m) or evaluate(pr, x))
    report = minimize(problem, config)
    monkeypatch.setattr(solver, "_evaluate", evaluate)
    return problem, report, calls


@pytest.mark.parametrize(
    "index, m",
    [(1, m) for m in (1024, 2048, 4096, 8192, 16384)] + [(2, m) for m in (512, 1024, 2048, 4096, 8192, 16384)],
)
def test_the_soliton_start_descends_in_a_handful_of_evaluations(monkeypatch, index, m):
    # a cos1 start makes more than 100 on each of these problems
    _, report, calls = _counted_solve(monkeypatch, index, m)
    assert len(calls) <= 12
    assert (report.start_label, report.classification, report.morse_index) == ("soliton", "nonconstant", 1)


@pytest.mark.parametrize("m", [256, 512, 768, 1024, 2048, 4096])
def test_every_grid_descends_on_itself_alone(monkeypatch, m):
    config = SolveConfig(starts=("soliton",))
    problem, _, calls = _counted_solve(monkeypatch, 1, m, config)
    assert set(calls) == {m}
    (label, u0), = solver._starts(problem, config)
    run = solver._solve_one(problem, label, u0, config)
    u, _, capped = solver._descend(problem, u0)
    v = quotient_value(problem, u) ** (1.0 / (problem.p - 1.0)) * u
    v, iters, rn, ok = solver._newton(problem, v, config)
    assert np.array_equal(run.v, v)
    assert (run.iters, run.residual, run.converged, run.descent_capped) == (iters, rn, ok, capped)


@pytest.mark.parametrize("phase", [0.0, 1.0, math.pi, 5.5])
def test_the_soliton_start_peaks_where_the_weight_does(phase):
    m = 256
    s = np.arange(m) * (2.0 * math.pi / m)
    f = 1.0 + 0.15 * np.cos(s - phase)
    problem = _problem(alpha=3.0, m=m, f=f)
    (_, u0), = solver._starts(problem, SolveConfig(starts=("soliton",)))
    k = int(np.argmax(f))
    assert int(np.argmax(u0)) == k
    # the line soliton's amplitude, A^{p-1} = (p+1) alpha / (2 f_k), and its
    # evenness about s_k in the periodic distance
    assert u0[k] == pytest.approx((6.0 * 3.0 / (2.0 * f[k])) ** 0.25, rel=1e-15)
    assert np.array_equal(np.roll(u0, -k)[1:], np.roll(u0, -k)[:0:-1])


def test_the_soliton_start_of_a_constant_weight_peaks_where_cos1_does():
    problem = _problem(alpha=0.3, m=128)
    starts = dict(solver._starts(problem, SolveConfig(starts=("soliton", "cos1"))))
    assert int(np.argmax(starts["soliton"])) == int(np.argmax(starts["cos1"])) == 0


# ---------------------------------------------------------------------------
# convergence failure carries the best partial result


def test_failed_solve_raises_with_partial_report(monkeypatch):
    problem = _problem(m=64, alpha=1.0)
    monkeypatch.setattr(solver, "DESCENT_MAX_ITER", 0)
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        minimize(problem, SolveConfig(starts=("cos1",)))
    best = err.value.best
    assert best.start_label == "cos1"
    assert best.el_residual > 0.0
    assert best.winning_starts == () and best.descent_capped == ("cos1",)


def test_convergence_error_best_carries_the_morse_certificate():
    # cos3 alone descends to the symmetric three-bump saddle of index 2's
    # problem, where Newton stagnates; its index and its three near-zero modes
    # (the bumps' positions) say which critical point it is
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 2, alpha, grid=512)
    with pytest.raises(ConvergenceError) as err:
        minimize(problem, SolveConfig(starts=("cos3",)))
    best = err.value.best
    assert best.quotient_value == pytest.approx(29.5123, abs=1e-4)
    assert (best.morse_index, best.zero_modes) == (3, 3)


def test_a_cos3_start_at_2048_converges_to_the_three_bump_saddle():
    # on a resolving grid the opt-in cos3 start's Newton converges to the
    # symmetric three-bump saddle; its three near-zero modes are the bumps'
    # positions, which the translation border alone does not remove
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 2, alpha, grid=2048)
    report = minimize(problem, SolveConfig(starts=("cos3",)))
    assert report.classification == "nonconstant" and report.el_residual <= 1e-10
    assert (report.morse_index, report.zero_modes) == (3, 3)
    assert report.quotient_value == pytest.approx(29.5709200274, abs=1e-9)


def test_index_2_at_16384_returns_the_minimizer():
    # the positivity floor's kink, up to floor / h^2 in the residual, once
    # stalled the soliton start's Newton here, and the constant (index 69) won
    alpha = example_interval("cylinder-triple").midpoint
    report = minimize(circle_reduction(example_configuration("cylinder-triple"), 2, alpha, grid=16384))
    assert report.classification == "nonconstant" and report.el_residual <= 1e-10
    assert report.morse_index == 1 and report.below_threshold is True


def _assert_a_capped_descent_is_reported(monkeypatch, m):
    problem = _problem(alpha=0.3, m=m)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "DESCENT_MAX_ITER", 5)
        capped = minimize(problem)
    assert capped.descent_capped == ("soliton",)  # the constant start is stationary at once
    assert capped.el_residual <= 1e-10
    assert minimize(problem).descent_capped == ()


def test_a_capped_descent_is_reported(monkeypatch):
    _assert_a_capped_descent_is_reported(monkeypatch, 96)


def test_a_capped_finest_level_is_reported(monkeypatch):
    # the same cap on a fine grid, where the soliton start needs many steps
    _assert_a_capped_descent_is_reported(monkeypatch, 1024)


_BAD_CONFIG_VALUES = {
    "starts": [(), ("cos1", "sine"), ("cos",), ("cosx",), "cos1", (1,)],
    "newton_tol": [0.0, math.nan, math.inf],
    "seed": [-1, 0.5],
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


def test_an_unknown_start_label_error_lists_the_known_ones():
    with pytest.raises(PreconditionError, match="known: constant, soliton, cos<mode>, random"):
        SolveConfig(starts=("sine",))
    assert SolveConfig().starts == ("constant", "soliton")


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
# the starts and the Morse certificate

FIVE_STARTS = ("constant", "cos1", "cos2", "cos3", "random")


def test_starts_that_reach_one_solution_all_win_and_the_earliest_is_named():
    # below the bifurcation constant and soliton both reach the constant;
    # above it cos1 and random reach the one-bump minimizer, 0-3 ulps apart
    below = minimize(_problem(alpha=0.1))
    assert below.winning_starts == ("constant", "soliton") and below.start_label == "constant"
    above = minimize(_problem(alpha=0.3), SolveConfig(starts=FIVE_STARTS))
    assert above.winning_starts == ("cos1", "random") and above.start_label == "cos1"


@pytest.mark.parametrize("m", [2048, 4096, 8192])
def test_starts_that_reach_one_solution_tie_on_fine_grids(m):
    # cylinder-weighted index 2 has the constant as its minimizer; the soliton
    # start's nearly constant result has a quotient 2, 3 and 35 ulps below the
    # exact constant's at these grids, within sqrt(m) ulps of Q's rounding
    cfg = example_configuration("cylinder-weighted")
    report = minimize(circle_reduction(cfg, 2, example_interval("cylinder-weighted").midpoint, grid=m))
    assert report.classification == "constant"
    assert report.start_label == "constant" and report.winning_starts == ("constant", "soliton")
    assert report.el_residual < 1e-12


def _dense_morse_counts(problem, v):
    h = problem.h
    jac = np.diag(2.0 / (h * h) + problem.alpha - problem.p * problem.f_samples * v ** (problem.p - 1.0))
    jac -= (np.eye(problem.m, k=1) + np.eye(problem.m, k=-1) + np.eye(problem.m, k=problem.m - 1)
            + np.eye(problem.m, k=1 - problem.m)) / (h * h)
    eig = np.linalg.eigvalsh(jac)
    tol = solver.ZERO_MODE_TOL * max(1.0, problem.alpha)
    return int(np.sum(eig < -tol)), int(np.sum(np.abs(eig) <= tol))


@pytest.mark.parametrize("m", [64, 97])
def test_morse_counts_match_dense_eigenvalues(m):
    s = np.arange(m) * (2.0 * math.pi / m)
    rng = np.random.default_rng(m)
    cases = [
        (_problem(alpha=0.3, m=m), minimize(_problem(alpha=0.3, m=m)).u),
        (_problem(alpha=0.3, m=m), constant_solution(_problem(alpha=0.3, m=m)).u),
        (_problem(alpha=0.1, m=m), constant_solution(_problem(alpha=0.1, m=m)).u),
    ]
    weighted = _problem(alpha=0.5, m=m, f=1.0 + 0.15 * np.cos(s - 1.0))
    cases.append((weighted, minimize(weighted).u))
    for alpha in (0.2, 1.5, 40.0):
        cases.append((_problem(alpha=alpha, m=m), alpha ** 0.25 * rng.uniform(0.5, 1.5, m)))
    seen = set()
    for problem, v in cases:
        counts = solver._morse_counts(problem, v)
        assert counts == _dense_morse_counts(problem, v)
        seen.add(counts)
    assert len(seen) >= 4  # the cases span several indices and zero-mode counts


def test_morse_count_moves_its_shift_off_an_eigenvalue_of_the_leading_block(monkeypatch):
    # dgtsv reports a zero pivot when the shift is an eigenvalue of T in
    # floating point; the count is then taken at a shift 1 % further from 0
    problem = _problem(alpha=0.3)
    v = minimize(problem).u
    expected = solver._morse_counts(problem, v)
    lapack = _lazy.flapack()  # the module the solver takes dgtsv from
    dgtsv, shifts = lapack.dgtsv, []

    def singular_once(dl, d, du, b, **kwargs):
        shifts.append(float(d[0]))
        out = dgtsv(dl, d, du, b, **kwargs)
        return out[:4] + ((1,) if len(shifts) == 1 else out[4:])

    monkeypatch.setattr(lapack, "dgtsv", singular_once)
    assert solver._morse_counts(problem, v) == expected
    tol = solver.ZERO_MODE_TOL  # alpha < 1
    assert len(shifts) == 3 and shifts[1] - shifts[0] == pytest.approx(0.01 * tol, rel=1e-3)


# One fresh interpreter per route to scipy's LAPACK wrappers, so that no
# earlier import of scipy.linalg in the test process decides the route: the
# extension loaded by itself, or scipy.linalg.lapack when the file lookup
# finds nothing.  It prints the route, then Newton steps (bordered for
# constant f, plain for a weighted f) and Morse counts at m = 64 and 4096.
_ROUTE_PROBE = """
import json, sys
import numpy as np
from symcrit import _lazy, solver
if sys.argv[1] == "fallback":
    _lazy._flapack_file = lambda: None
route = _lazy.flapack().__name__
results = []
for m in (64, 4096):
    s = np.arange(m) * (2.0 * np.pi / m)
    v = 0.4 ** 0.25 * (1.0 + 0.3 * np.cos(s) + 1e-2 * np.random.default_rng(m).standard_normal(m))
    for f in (np.ones(m), 1.0 + 0.15 * np.cos(s)):
        problem = solver.ReducedProblem(length=2.0 * np.pi, weight=1.0, alpha=0.4, p=5.0, f_samples=f)
        delta = solver._newton_step(problem, v, solver._residual(problem, v), solver._constant_weight(problem))
        results.append([delta.tobytes().hex(), solver._morse_counts(problem, v)])
print(json.dumps({"route": route, "results": results}))
"""


def _route_results(route):
    proc = subprocess.run(
        [sys.executable, "-c", _ROUTE_PROBE, route], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_direct_and_fallback_lapack_routes_agree_bitwise():
    direct, fallback = _route_results("direct"), _route_results("fallback")
    assert direct["route"] == "scipy.linalg._flapack"
    assert fallback["route"] == "scipy.linalg.lapack"
    assert len(direct["results"]) == 4
    assert direct["results"] == fallback["results"]


# The extension initialises numpy's C API as it loads.  Loaded while numpy
# is still an unexecuted lazy module, it would leave numpy half-initialised,
# and the later `import scipy.linalg` would fail with an AttributeError.
_LATE_SCIPY_PROBE = """
import sys
from symcrit import _lazy, solver
assert "numpy._core" not in sys.modules  # numpy is bound but not executed
lapack = _lazy.flapack()
assert lapack.__name__ == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules
import scipy.linalg
print(scipy.linalg.lapack.dgtsv is lapack.dgtsv)
"""


def test_scipy_linalg_imported_after_the_direct_load_reuses_its_extension():
    proc = subprocess.run(
        [sys.executable, "-c", _LATE_SCIPY_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def _two_versus_five_problems():
    for m in (96, 256):
        for alpha in np.linspace(0.05, 0.55, 21):
            yield "flat m%d alpha%.3f" % (m, alpha), _problem(alpha=float(alpha), m=m)
    s = np.arange(96) * (2.0 * math.pi / 96)
    for amplitude in (0.1, 0.15, 0.2):
        for phase in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            for alpha in (0.15, 0.3, 0.5):
                f = 1.0 + amplitude * np.cos(s - phase)
                yield "weight %g %g alpha%g" % (amplitude, phase, alpha), _problem(alpha=alpha, f=f)
    config = example_configuration("cylinder-triple")
    alpha = example_interval("cylinder-triple").midpoint
    for index in (1, 2):
        for m in (256, 512, 1024):
            yield "c6 index%d m%d" % (index, m), circle_reduction(config, index, alpha, grid=m)


def test_two_default_starts_find_the_five_start_minimum():
    # At the bifurcation point of the m = 256 model, alpha = 0.25 lies 1.2e-5
    # above lambda_1,h / (p - 1): the bifurcated one-bump branch is 7.6e-10
    # below the constant, only random finds it, and the two-start winner is
    # the constant, whose Morse index 3 flags it as a saddle.
    mismatches = []
    for name, problem in _two_versus_five_problems():
        two = minimize(problem)
        five = minimize(problem, SolveConfig(starts=FIVE_STARTS + ("soliton",)))
        if name == "flat m256 alpha0.250":
            assert (two.classification, two.morse_index) == ("constant", 3)
            assert (five.classification, five.morse_index) == ("nonconstant", 1)
            assert five.quotient_value < two.quotient_value
            continue
        rel = abs(two.quotient_value - five.quotient_value) / five.quotient_value
        if rel > 1e-9 or two.classification != five.classification or two.morse_index != 1:
            mismatches.append((name, rel, two.classification, five.classification, two.morse_index))
    assert mismatches == []


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


@pytest.mark.parametrize("grid", [-3, 0, MIN_GRID - 1, 2.7e3, 1024.0, "512", True, None])
def test_circle_reduction_rejects_a_bad_grid(grid):
    cfg = example_configuration("cylinder-triple")
    with pytest.raises(PreconditionError, match="grid"):
        circle_reduction(cfg, 1, 1.0, grid=grid)
    with pytest.raises(PreconditionError, match="grid"):
        circle_reduction(cfg, 1, 1.0, grid=grid, f_samples=np.ones(MIN_GRID))


def test_circle_reduction_rejects_f_samples_of_another_size():
    cfg = example_configuration("cylinder-triple")
    with pytest.raises(PreconditionError, match="grid 4096 disagrees with the 512 f_samples"):
        circle_reduction(cfg, 1, 2.18, grid=4096, f_samples=np.ones(512))
    assert circle_reduction(cfg, 1, 2.18, grid=512, f_samples=np.ones(512)).m == 512


def test_circle_reduction_takes_any_integer_grid():
    cfg = example_configuration("cylinder-triple")
    assert circle_reduction(cfg, 1, 1.0, grid=np.int64(MIN_GRID)).m == MIN_GRID


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
