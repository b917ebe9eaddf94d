"""Release gates, one test per gate.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per gate.
Gates with a wall-clock budget time themselves; solver runs produced by
the c5/c6 gates are shared with the proof-chain audit in c7 through
module fixtures so the audited set is exactly what those gates computed.
"""

import json
import math
import subprocess
import sys
import time

import direct_routes
import numpy as np
import pytest

from symcrit import (
    ConstantBound,
    EquationParams,
    ExpansionConfig,
    FProfile,
    GenericIneqParams,
    PreconditionError,
    ReducedProblem,
    SolveConfig,
    b0_circle_sphere,
    circle_reduction,
    constant_f_intervals,
    constant_solution,
    critical_interval,
    energy_separation,
    example_configuration,
    example_interval,
    fit_and_compare,
    generic_interval,
    invariant_interval,
    minf_interval,
    minimize,
    proof_chain_diagnostics,
    quotient_gradient,
    quotient_value,
    sobolev_constant,
    sphere_volume,
)

# An in-place kernel that starts producing inf or NaN fails a gate, not quietly.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _tight(x):
    return pytest.approx(x, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# c1: the circle-fibre sphere example, pinned point and parameter sweep


def test_c1_hopf_interval_closed_form():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "symcrit.cli", "interval", "--example", "hopf", "--t", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    iv = json.loads(proc.stdout)["interval"]
    assert iv["lo"] == pytest.approx(3.0 / 16.0, rel=1e-15, abs=0.0)
    assert iv["hi"] == 0.75
    assert iv["lo_strict"] is False and iv["hi_strict"] is True
    for t in (1.5, 2.0, 8.0, 100.0):
        got = example_interval("hopf", t=t)
        assert got.lo == _tight(3.0 / (4.0 * t ** (2.0 / 3.0)))
        assert got.hi == 0.75 and got.hi_strict
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# c2: every packaged example against its displayed closed form


def test_c2_all_examples_match_closed_forms():
    t0 = time.perf_counter()

    for n, a1, a2 in ((5, 2, 4), (7, 2, 3), (9, 3, 5)):
        iv = example_interval("sphere-quotients", n=n, a1=a1, a2=a2)
        assert iv.lo == _tight(n * n * (n - 4.0) / (4.0 * (n - 2.0)))
        assert iv.hi == _tight(n * (n - 2.0) / 4.0)
        assert not iv.lo_strict and not iv.hi_strict and iv.count == 2

    for n, t in ((6, 1.0), (5, 2.0), (8, 0.7)):
        iv = example_interval("cylinder-weighted", n=n, t=t, a1=1, a2=2)
        assert iv.lo == _tight(
            n * (n - 4.0) / (n - 2.0) ** 2 * ((n - 2.0) ** 2 / 4.0 + 1.0 / (4.0 * t * t))
        )
        assert iv.hi == _tight((n - 2.0) ** 2 / 4.0)
        assert not iv.empty

    for n, a, b in ((10, 4, 0.28), (10, 5, 0.25), (12, 7, 0.2)):
        iv = example_interval("triple-product", n=n, a=a, b=b)
        m = n - 3.0
        ceiling = (n - 5.0) / (4.0 * (n - 4.0)) * (2.0 / b**2 + (n - 6.0) * (n - 7.0))
        assert iv.lo == _tight(m * m * (m - 4.0) / (4.0 * (m - 2.0)))
        assert iv.hi == _tight(min(m * (m - 2.0) / 4.0, ceiling))
        assert iv.hi_strict and not iv.empty

    for n, t, a1, a2 in ((5, 40.0, 1, 2), (5, 15.0, 1, 2), (6, 25.0, 2, 3)):
        iv = example_interval("cylinder-triple", n=n, t=t, a1=a1, a2=a2)
        volume = 2.0 * math.pi * t * sphere_volume(n - 1)
        gap = (a2 ** (2.0 / n) - a1 ** (2.0 / n)) / (
            sobolev_constant(n) * volume ** (2.0 / n)
        )
        assert iv.lo == _tight((n - 2.0) ** 2 / 4.0 + a2 * a2 / (4.0 * t * t) - gap)
        assert iv.hi == _tight((n - 2.0) ** 2 / 4.0)
        assert iv.count == 3 and not iv.empty

    for t in (1.5, 2.0, 100.0):
        iv = example_interval("hopf", t=t)
        assert iv.lo == _tight(0.75 / t ** (2.0 / 3.0))
        assert iv.hi == 0.75 and iv.hi_strict

    for n, t in ((5, 8.0), (5, 100.0), (7, 12.0)):
        iv = example_interval("cylinder-overcritical", n=n, t=t)
        assert iv.lo == _tight((n - 1.0) * (n - 3.0) / (4.0 * t ** (2.0 / (n - 1.0))))
        assert iv.hi == _tight((n - 3.0) ** 2 / 4.0)
        assert iv.hi_strict

    # outside the displayed windows: empty or rejected
    assert example_interval("triple-product", b=0.3).empty
    with pytest.raises(PreconditionError):
        example_interval("triple-product", b=0.2)  # 4 a b^2 <= 1
    assert example_interval("cylinder-triple", t=1.0).empty
    short = example_interval("cylinder-overcritical", n=5, t=3.0)
    assert short.empty or short.hi - short.lo <= 1e-12
    with pytest.raises(PreconditionError):
        example_interval("hopf", t=1.0)

    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# c3/c4: route equivalences on randomized inputs


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


def _same_endpoints(a, b):
    for x, y in ((a.lo, b.lo), (a.hi, b.hi)):
        assert math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0)
    assert a.lo_strict == b.lo_strict and a.hi_strict == b.hi_strict
    assert a.count == b.count


def test_c3_generic_engine_equals_both_direct_routes():
    rng = np.random.default_rng(1789)
    for trial in range(100):
        orbit1, orbit2, volume = _random_family(rng)
        f = None if trial % 4 == 0 else _random_profile(rng)
        sec_lo = float(rng.uniform(0.1, 20.0))
        sec = ConstantBound(sec_lo, sec_lo + float(rng.uniform(0.0, 10.0)))

        n = int(rng.integers(5, 13))
        params = EquationParams(n, int(rng.integers(0, n - 4)))
        amb_lo = float(rng.uniform(0.1, 20.0))
        amb = ConstantBound(amb_lo, amb_lo + float(rng.uniform(0.0, 10.0)))
        ineq = GenericIneqParams(2.0 * n / (n - 2.0), sobolev_constant(n), amb.hi)
        oracle = direct_routes.critical_interval(params, amb, sec, orbit1, orbit2, volume, f)
        _same_endpoints(generic_interval(params, ineq, sec, orbit1, orbit2, volume, f), oracle)
        _same_endpoints(critical_interval(params, amb, sec, orbit1, orbit2, volume, f), oracle)

        n2 = int(rng.integers(7, 13))
        params2 = EquationParams(n2, int(rng.integers(0, n2 - 4)))
        nred = params2.reduced_dim
        ineq2 = GenericIneqParams(
            params2.two_sharp, sobolev_constant(nred) / orbit2 ** (2.0 / nred), sec.hi
        )
        oracle = direct_routes.invariant_interval(params2, sec, orbit1, orbit2, volume, f)
        _same_endpoints(generic_interval(params2, ineq2, sec, orbit1, orbit2, volume, f), oracle)
        _same_endpoints(invariant_interval(params2, sec, orbit1, orbit2, volume, f), oracle)


def test_c4_weighted_route_collapses_to_constant_route_bitwise():
    rng = np.random.default_rng(31415)
    for _ in range(100):
        n = int(rng.integers(5, 11))
        params = EquationParams(n, int(rng.integers(0, n - 2)))
        orbit1, orbit2, volume = _random_family(rng)
        lo1 = float(rng.uniform(0.1, 20.0))
        lo2 = float(rng.uniform(0.1, 20.0))
        b1 = ConstantBound(lo1, lo1 + float(rng.uniform(0.0, 10.0)))
        b2 = ConstantBound(lo2, lo2 + float(rng.uniform(0.0, 10.0)))
        via = minf_interval(params, b2, orbit1, orbit2, volume, FProfile.constant())
        double, _ = constant_f_intervals(params, b1, b2, orbit1, orbit2, volume)
        assert via.lo == double.lo  # exact: the weight factor is exactly 1.0


# ---------------------------------------------------------------------------
# c5: solver correctness on the model circle problem


SWEEP_ALPHAS = np.linspace(0.05, 0.55, 80)


@pytest.fixture(scope="module")
def sweep_runs():
    t0 = time.perf_counter()
    config = SolveConfig(starts=("constant", "cos1"))
    f = np.ones(96)
    runs = [
        minimize(ReducedProblem(2.0 * math.pi, 1.0, float(a), 5.0, f), config)
        for a in SWEEP_ALPHAS
    ]
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def recovery_run():
    t0 = time.perf_counter()
    problem = ReducedProblem(2.0 * math.pi, 2.0 * math.pi**2, 0.1, 5.0, np.ones(96))
    report = minimize(problem, SolveConfig(starts=("constant", "cos1")))
    return {"report": report, "elapsed": time.perf_counter() - t0}


def _fd_gradient(problem, u, eps=1e-5):
    g = np.zeros_like(u)
    for i in range(u.size):
        up = u.copy()
        up[i] += eps
        dn = u.copy()
        dn[i] -= eps
        g[i] = (quotient_value(problem, up) - quotient_value(problem, dn)) / (2.0 * eps)
    return g


def test_c5_solver_recovery_identity_gradient_bifurcation(sweep_runs, recovery_run):
    t0 = time.perf_counter()

    # (a) the constant solution is recovered to solver precision
    recovered = recovery_run["report"]
    assert recovered.classification == "constant"
    assert recovered.el_residual < 1e-10

    # (b) energy identity on every converged run
    for rep in sweep_runs["runs"] + [recovered]:
        half_dim = rep.problem.reduced_dim / 2.0
        assert rep.energy == pytest.approx(rep.quotient_value**half_dim, rel=1e-8)

    # (c) analytic gradient against central differences
    rng = np.random.default_rng(99)
    for _ in range(3):
        problem = ReducedProblem(
            length=float(rng.uniform(3.0, 9.0)),
            weight=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.2, 2.0)),
            p=5.0,
            f_samples=rng.uniform(0.5, 2.0, 64),
        )
        u = rng.uniform(0.5, 2.0, 64)
        g = quotient_gradient(problem, u)
        rel = float(np.max(np.abs(g - _fd_gradient(problem, u)))) / float(np.max(np.abs(g)))
        assert rel < 1e-6

    # (d) classification flips at (p-1) alpha = (2 pi / length)^2, here 1/4
    labels = [r.classification for r in sweep_runs["runs"]]
    first = labels.index("nonconstant")
    assert first > 0
    assert all(lbl == "constant" for lbl in labels[:first])
    assert all(lbl == "nonconstant" for lbl in labels[first:])
    step = float(SWEEP_ALPHAS[1] - SWEEP_ALPHAS[0])
    boundary = 0.5 * float(SWEEP_ALPHAS[first - 1] + SWEEP_ALPHAS[first])
    assert abs(boundary - 0.25) <= step

    # (e) second-order certificate: every winner has Morse index 1, and the
    # constant solution's index goes from 1 to 3 as alpha crosses
    # lambda_1,h / (p - 1), where the one-bump branch bifurcates from it
    h = 2.0 * math.pi / 96
    crossing = (4.0 / (h * h)) * math.sin(math.pi / 96) ** 2 / 4.0
    for rep in sweep_runs["runs"] + [recovered]:
        assert rep.morse_index == 1
    for rep in sweep_runs["runs"]:
        assert constant_solution(rep.problem).morse_index == (1 if rep.problem.alpha < crossing else 3)

    total = sweep_runs["elapsed"] + recovery_run["elapsed"] + (time.perf_counter() - t0)
    assert total < 10.0


# ---------------------------------------------------------------------------
# c6: three ordered energy levels on the two-action cylinder


@pytest.fixture(scope="module")
def triple_runs():
    t0 = time.perf_counter()
    alpha = example_interval("cylinder-triple").midpoint
    config = example_configuration("cylinder-triple")
    problem1 = circle_reduction(config, 1, alpha, grid=4096)
    problem2 = circle_reduction(config, 2, alpha, grid=2048)
    return {
        "first": minimize(problem1),
        "second": minimize(problem2),
        "constant": constant_solution(problem1),
        "t": config.inputs["t"],
        "elapsed": time.perf_counter() - t0,
    }


def test_c6_energy_ordering_and_threshold(triple_runs):
    t0 = time.perf_counter()
    first, second = triple_runs["first"], triple_runs["second"]
    background = triple_runs["constant"]

    assert first.classification == "nonconstant"
    assert second.classification == "nonconstant"
    sep = energy_separation(first, second)
    assert sep.distinct and sep.lower == "a"
    assert sep.rel_gap > 0.1  # a genuine gap, not a rounding artifact
    assert first.energy < second.energy < background.energy
    assert second.energy < 0.1 * background.energy
    assert first.below_threshold is True
    assert first.quotient_value < first.threshold
    for rep in (first, second):
        assert rep.energy == pytest.approx(rep.quotient_value**2.5, rel=1e-8)
        assert rep.morse_index == 1  # a minimizer, not a saddle

    assert triple_runs["elapsed"] + (time.perf_counter() - t0) < 30.0


# ---------------------------------------------------------------------------
# c7: a-priori mass bounds on every run the gates above produced


def test_c7_mass_bounds_hold_on_every_run(sweep_runs, recovery_run, triple_runs):
    band_checked = 0

    # circle problems: Hoelder gives P = (length/weight)^{1/3} for the
    # intermediate norm, the 1-d Agmon inequality gives D = 1 + 1/length
    for rep in sweep_runs["runs"] + [recovery_run["report"]]:
        length, weight = rep.problem.length, rep.problem.weight
        ineq = GenericIneqParams(3.0, (length / weight) ** (1.0 / 3.0), 1.0 + 1.0 / length)
        checks = proof_chain_diagnostics(rep, ineq)
        assert checks[0].label == "mass-via-min-f" and checks[0].status == "checked"
        for chk in checks:
            if chk.status == "checked":
                assert chk.holds, (chk.label, chk.value, chk.bound)
                band_checked += chk.label == "mass-via-band-inequality"

    # cylinder reductions: the invariant inequality of the quotient
    # cylinder supplies (crit, P, D) for each action
    t = triple_runs["t"]
    for rep, orbit in (
        (triple_runs["first"], 1.0),
        (triple_runs["second"], 2.0),
        (triple_runs["constant"], 1.0),
    ):
        ineq = GenericIneqParams(
            10.0 / 3.0,
            sobolev_constant(5) / orbit ** 0.4,
            b0_circle_sphere(t / orbit, 5).hi,
        )
        checks = proof_chain_diagnostics(rep, ineq)
        assert [c.status for c in checks] == ["checked", "checked"]
        for chk in checks:
            assert chk.holds, (chk.label, chk.value, chk.bound)
            band_checked += chk.label == "mass-via-band-inequality"

    assert band_checked >= 3  # the band bound was genuinely exercised


# ---------------------------------------------------------------------------
# c8: flat expansion laboratory, dimension 6


def test_c8_expansion_fit_matches_prediction():
    t0 = time.perf_counter()

    report = fit_and_compare(ExpansionConfig(dim=6, delta=1.0, alpha=1.0, orbit_volume=1.0))
    assert report.predicted_c1 == _tight(5.0 / 12.0)
    assert report.fitted_c1 == pytest.approx(5.0 / 12.0, rel=0.10)
    assert report.predicted_limit == _tight(1.0 / sobolev_constant(6))
    assert report.fitted_limit == pytest.approx(1.0 / sobolev_constant(6), rel=1e-3)

    for alpha in (0.5, 1.0, 2.0):
        for q in (-1.0, 0.0, 2.0):
            config = ExpansionConfig(
                dim=6, delta=1.0, alpha=alpha, orbit_volume=1.0, vh_quadratic_coeff=q
            )
            rep = fit_and_compare(config)
            predicted = (5.0 * alpha - 3.0 * q) / 12.0
            assert rep.predicted_c1 == _tight(predicted)
            assert math.copysign(1.0, rep.fitted_c1) == math.copysign(1.0, predicted)

    assert time.perf_counter() - t0 < 20.0
