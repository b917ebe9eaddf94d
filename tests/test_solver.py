import copy
import dataclasses
import functools
import json
import math
import pickle
import re
import subprocess
import sys

import circulant_oracle
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
    sobolev_constant,
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
    du = (np.roll(u, -1) - u) / h
    assert np.array_equal(solver._differences(u, h), du)
    assert np.array_equal(solver._neg_laplacian(du, h), (np.roll(du, 1) - du) / h)
    assert solver._numerator(problem, u, du) == (
        problem.weight * h * float(np.dot(du, du)) + problem.alpha * solver._mass2(problem, u)
    )


_KERNELS = (quotient_value, quotient_gradient, energy, el_residual)


@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda k: k.__name__)
@pytest.mark.parametrize(
    "bad",
    ["short", "half-grid", "long", "2-d", "column", "scalar", "empty", None, "text", "ragged", "nan", "inf", "-inf"],
)
def test_the_public_kernels_reject_any_u_but_the_circles_finite_vector_by_name(kernel, bad):
    # a vector of m/2 + 1 entries would otherwise be read as a half-grid one
    m = 64
    problem = _problem(m=m)
    u = np.linspace(0.5, 1.5, m)
    finite = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    bad_u = {
        "short": u[:-1], "half-grid": u[:m // 2 + 1], "long": np.append(u, 1.0), "2-d": u.reshape(8, 8),
        "column": u.reshape(-1, 1), "scalar": 1.0, "empty": np.array([]), None: None, "text": "u",
        "ragged": [1.0, [2.0]],
    }.get(bad)
    if bad in finite:
        bad_u = u.copy()
        bad_u[5] = finite[bad]
    with pytest.raises(PreconditionError, match="^u must be a 1-d array of 64 finite values"):
        kernel(problem, bad_u)


_NOT_REAL = {
    "text": ["1.0"] * 64, "text-array": np.full(64, "1.0"), "bools": [True] * 64,
    "complex": np.ones(64, dtype=complex), "objects": np.ones(64, dtype=object),
}


@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("bad", sorted(_NOT_REAL))
def test_the_public_kernels_reject_a_u_of_no_real_numbers_by_name(kernel, bad):
    # numpy parsed "1.0" and read True as 1.0, so such a u was evaluated
    with pytest.raises(PreconditionError, match="^u must be a 1-d array of 64 finite values"):
        kernel(_problem(m=64), _NOT_REAL[bad])


@pytest.mark.parametrize("bad", sorted(_NOT_REAL))
def test_f_samples_of_no_real_numbers_are_rejected_by_name(bad):
    with pytest.raises(PreconditionError, match="^f_samples must be a 1-d array of real numbers"):
        _problem(m=64, f=_NOT_REAL[bad])


@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda k: k.__name__)
def test_the_public_kernels_take_any_sequence_of_the_circles_m_values(kernel):
    problem = _problem(m=97, f=np.linspace(0.5, 1.5, 97))
    u = np.arange(97) % 5 + 1.0
    want = kernel(problem, u)
    for same in (list(u), tuple(u), u.astype(int)):
        assert np.array_equal(kernel(problem, same), want)


@pytest.mark.parametrize("m", [64, 97])
def test_the_operator_pieces_agree_with_one_stencil(m):
    # Newton's norm bound and the cut Jacobian read solver._stencil, and the
    # residual's and the descent's -Delta_h (_neg_laplacian) is its operator;
    # a piece that drifts from it fails here (the descent's P^{-1}, which
    # reads it too, in test_the_descent_p_inverse_inverts_the_circulant_p)
    rng = np.random.default_rng(m)
    problem = _problem(length=float(rng.uniform(3.0, 20.0)), alpha=0.7, m=m,
                       f=rng.uniform(0.5, 1.5, m))
    h = problem.h
    d, off = solver._stencil(h)
    assert (d, off) == (2.0 / (h * h), -1.0 / (h * h)) and d - 2.0 * off == 4.0 / (h * h)
    circulant = d * np.eye(m) + off * (np.roll(np.eye(m), 1, axis=1) + np.roll(np.eye(m), -1, axis=1))
    neg_lap = np.column_stack([solver._neg_laplacian(solver._differences(col, h), h) for col in np.eye(m)])
    # each entry of either matrix is 1/h^2 or 2/h^2 rounded twice, so they
    # agree to 2 eps relative, eps d
    assert float(np.abs(neg_lap - circulant).max()) <= math.ulp(1.0) * d
    symbol = (d - 2.0 * off) * np.sin(math.pi * np.arange(m) / m) ** 2
    assert np.linalg.eigvalsh(circulant) == pytest.approx(np.sort(symbol), abs=1e-12 * d)
    assert np.abs(circulant).sum(axis=1).max() == pytest.approx(d - 2.0 * off, rel=1e-15, abs=0.0)

    v = rng.uniform(0.5, 2.0, m)
    dense = circulant.copy()  # J, with its diagonal rounded in _cut's order
    potential = problem.p * problem.f_samples * v ** (problem.p - 1.0)
    np.fill_diagonal(dense, d + problem.alpha - potential)
    k, diag, coupling = solver._cut(problem, v, v ** (problem.p - 1.0))
    order = np.concatenate((np.arange(k + 1, m), np.arange(k + 1)))  # the ring order
    assert np.array_equal(solver._ring(v, k), v[order])
    ring = dense[np.ix_(order, order)]
    cut = np.diag(diag) + coupling * (np.eye(m, k=1) + np.eye(m, k=-1))
    cut[0, -1] = cut[-1, 0] = coupling  # w's first entry; its last is the band's
    assert np.array_equal(ring, cut)


def test_the_node_spacing_is_set_once_on_a_frozen_problem():
    problem = _problem(length=7.0, m=97)
    assert problem.h == 7.0 / 97
    for copied in (pickle.loads(pickle.dumps(problem)), copy.deepcopy(problem), copy.copy(problem)):
        assert copied.h == problem.h
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.length = 14.0


def test_a_node_spacing_whose_stencil_overflows_is_refused_by_name():
    # 2/h^2 is finite at h = 1.1e-154 (1.65e308) and inf at h = 1e-154 (h^2
    # is 1e-308); at h = 1.6e-322, h^2 underflows to 0 and 2/h^2 would divide
    # by zero.  length / 64 is exact, so the boundary sits where h says.
    assert _problem(length=64 * 1.1e-154, m=64).h == 1.1e-154
    for length in (64 * 1e-154, 1e-300, 1e-320):
        with pytest.raises(PreconditionError, match=r"^the stencil 2/h\^2 of the node spacing h = length / grid = "
                                                    r"[0-9.e+-]+ overflows a float$"):
            _problem(length=length, m=64)
    # a stencil that underflows to 0 leaves -Delta_h at 0 to rounding, and solves
    assert solver._stencil(_problem(length=1e308, m=64).h)[0] == 0.0


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
        u, q, g, scale, a = solver._evaluate(problem, x)
        normalized = x / energy(problem, x) ** (1.0 / problem.two_sharp)
        g_ref = quotient_oracle.quotient_gradient(problem, normalized)
        assert float(np.max(np.abs(u - normalized))) <= 1e-13 * float(np.max(normalized))
        assert q == pytest.approx(quotient_value(problem, normalized), rel=1e-13, abs=0.0)
        assert float(np.max(np.abs(g - g_ref))) <= 1e-13 * float(np.max(np.abs(g_ref)))
        # the numerator shares the gradient's differences and stays quotient_value's, bitwise
        assert q == solver._numerator(problem, u, solver._differences(u, problem.h))
        # the scale is energy(x)^{-1/two_sharp}, bitwise, from the same power,
        # which the evaluation hands back
        assert scale == energy(problem, x) ** (-1.0 / problem.two_sharp)
        assert np.array_equal(a, solver._power(problem, x))


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


@pytest.mark.parametrize("m", [64, 4096])
def test_quotient_gradient_takes_one_power(monkeypatch, m):
    # _evaluate hands back its scale, so the gradient takes x's power once
    # and equals the energy-rescaled fused gradient bitwise
    problem = _problem(length=12.0, alpha=0.7, p=7.0 / 3.0, m=m)
    x = 1.0 + 0.4 * np.cos(problem.grid() * (2.0 * math.pi / problem.length))
    power, calls = solver._power, []
    monkeypatch.setattr(solver, "_power", lambda pr, u: calls.append(1) or power(pr, u))
    g = quotient_gradient(problem, x)
    assert len(calls) == 1
    monkeypatch.setattr(solver, "_power", power)
    expected = energy(problem, x) ** (-1.0 / problem.two_sharp) * solver._evaluate(problem, x)[2]
    assert np.array_equal(g, expected)


def test_a_gradient_whose_energy_power_overflows_is_refused_by_name():
    # The gradient's weighted term takes den^{-p/(p+1)}, den = w h sum f x^{p+1}.
    # With h = 1 and x = 1, den = 64 w: at p = 40, w = 2^-1050 gives 2^1018.5
    # and w = 2^-1060 passes the float range, where float ** raises
    x = np.ones(64)
    assert np.all(np.isfinite(quotient_gradient(_problem(length=64.0, weight=2.0**-1050, p=40.0, m=64), x)))
    with pytest.raises(PreconditionError, match=r"^quotient gradient undefined: the f-weighted integral 5.18e-318 is"
                                                r" too small for den\^\{-p/\(p\+1\)\} to be a float$"):
        quotient_gradient(_problem(length=64.0, weight=2.0**-1060, p=40.0, m=64), x)


@pytest.mark.parametrize("m", [64, 97, 1024, 16384])
@pytest.mark.parametrize("alpha", [0.05, 2.25, 40.0])
def test_the_descent_p_inverse_inverts_the_circulant_p(m, alpha):
    rng = np.random.default_rng(m)
    length = float(rng.uniform(3.0, 20.0))
    problem = _problem(length=length, alpha=alpha, m=m)
    h, eps = problem.h, math.ulp(1.0)
    norm = 4.0 / (h * h) + alpha  # |P|_inf
    solve = solver._p_inverse(problem)
    s = problem.grid() * (2.0 * math.pi / length)
    rough, smooth = rng.standard_normal(m), np.exp(np.cos(s - 1.0)) + 0.3 * np.sin(3.0 * s)
    for g in (rough, smooth):
        before = g.copy()
        x = solve(g)
        assert np.array_equal(g, before)
        # backward stable: P x gives back g to eps |P| |x|, counting the
        # rounding of applying P here
        px = (2.0 / (h * h) + alpha) * x - (np.roll(x, 1) + np.roll(x, -1)) / (h * h)
        assert float(np.abs(px - g).max()) <= 4.0 * eps * norm * float(np.abs(x).max())
    # both solves are backward stable, so they agree to eps times P's
    # condition number |P| / alpha
    x_ref = circulant_oracle.p_inverse(h, alpha, smooth)
    assert float(np.abs(x - x_ref).max()) <= 4.0 * eps * (norm / alpha) * float(np.abs(x).max())


# ---------------------------------------------------------------------------
# the cut-ring Newton step


@functools.lru_cache(maxsize=None)
def _triple_solution(m):
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 1, alpha, grid=m)
    return problem, minimize(problem, SolveConfig(starts=("cos1",))).u


def _stalled_random_start():
    """cylinder-triple index 1 at c6's alpha on 512 nodes, and a seeded random start on it that fails.

    Its descent ends at a one-bump iterate where J has Morse index 2 and
    no zero mode, and Newton stops after 2 steps at a residual of 4.5e-3:
    from the start times 1 + 2^-50 and from the start rolled by 1 or by 7
    nodes alike.
    """
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 1, alpha, grid=512)
    return problem, SolveConfig(starts=("random",), seed=2)


def _near_converged_triple(m, noise=1e-3):
    problem, u = _triple_solution(m)
    return problem, u * (1.0 + noise * np.random.default_rng(6).standard_normal(m))


def _cos_iterate(m, f=None):
    problem = _problem(alpha=0.4, m=m, f=f)
    c = 0.4 ** 0.25
    noise = np.random.default_rng(m).standard_normal(m)
    return problem, c * (1.0 + 0.3 * np.cos(problem.grid()) + 1e-2 * noise)


# The far-from-converged cos iterates stay at small m: at m = 1024 J has
# condition number 4.7e5 there, the sparse oracle itself is 7.3e-13 from a
# dense LU solve, and the step 2.3e-12 from the oracle.  The near-converged
# c6 iterate agrees to 8.2e-13 at m = 1024.
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
    r, a = solver._residual(problem, v)
    delta = solver._newton_step(problem, v, r, a)
    ref = sparse_newton.newton_step(problem, v, r)
    assert float(np.max(np.abs(delta - ref))) <= 1e-12 * float(np.max(np.abs(ref)))


def _backward_error(problem, v, r, delta):
    """|r + J delta| / (|J| |delta| + |r|) in the inf-norm: delta's normwise backward error as a solution of J delta = -r."""
    h = problem.h
    diag = problem.alpha - problem.p * problem.f_samples * v ** (problem.p - 1.0)
    j_delta = -(np.roll(delta, -1) - 2.0 * delta + np.roll(delta, 1)) / (h * h) + diag * delta
    j_norm = float(np.max(np.abs(2.0 / (h * h) + diag))) + 2.0 / (h * h)
    scale = j_norm * float(np.max(np.abs(delta))) + float(np.max(np.abs(r)))
    return float(np.max(np.abs(r + j_delta))) / scale


@pytest.mark.parametrize("noise", [1e-3, 1e-9])
def test_cut_step_backward_error_is_at_rounding_level(noise):
    # Near a solution J is nearly singular along tau = v', so the step's
    # forward error grows as the noise shrinks (3.7e-6 to 3.3e-5 from the
    # sparse oracle at noise 1e-9), but the cut step solves J delta = -r
    # backward stably: T, cut where tau is largest, stays well conditioned,
    # and the near-singularity sits in the cut node's Schur complement.
    # Measured: 0.25 eps and 0.65 eps
    problem, v = _near_converged_triple(4096, noise)
    r, a = solver._residual(problem, v)
    delta = solver._newton_step(problem, v, r, a)
    assert _backward_error(problem, v, r, delta) <= 2.0 * math.ulp(1.0)


def _peak_shifts(m, v):
    # rolls that put the peak of v beside node m - 1 (shifts -4..4 around
    # it) and at every m/16-th node
    to_last = m - 1 - int(np.argmax(v))
    return [to_last + j for j in range(-4, 5)] + [j * (m // 16) for j in range(16)]


@pytest.mark.parametrize("case", ["triple-m1024", "triple-m4096", "weighted-m65"])
def test_newton_step_is_accurate_wherever_the_peak_sits(case):
    # A cut at a fixed node leaves T nearly singular when the peak sits
    # beside it (tau, J's near-null direction at a constant-f solution, is
    # then small at the cut).  Cut at node m - 1, the c6 steps on these
    # rolls have backward errors up to 111 eps (m = 1024) and 273 eps
    # (m = 4096); cut where |tau| is largest, 0.18 eps and 0.26 eps.  The
    # c6 steps are compared by backward error, since J's near-singularity
    # leaves their forward gap to the oracle anywhere from 1.6e-14 to 1e-11;
    # the weighted steps, with J well conditioned, are compared with the
    # oracle (at most 4.6e-14 apart).
    kind, m = case.split("-m")
    m = int(m)
    if kind == "triple":
        problem, v0 = _near_converged_triple(m)
    else:
        s = np.arange(m) * (2.0 * math.pi / m)
        problem, v0 = _cos_iterate(m, f=1.0 + 0.15 * np.cos(s))
    for shift in _peak_shifts(m, v0):
        v = np.roll(v0, shift)
        r, a = solver._residual(problem, v)
        delta = solver._newton_step(problem, v, r, a)
        if kind == "triple":
            assert _backward_error(problem, v, r, delta) <= 2.0 * math.ulp(1.0)
        else:
            ref = sparse_newton.newton_step(problem, v, r)
            assert float(np.max(np.abs(delta - ref))) <= 1e-12 * float(np.max(np.abs(ref)))


def test_zero_pivot_ends_newton_unconverged():
    # h = 1 and alpha - p v^{p-1} = -2 leave J = -(cycle adjacency); cut
    # open, T = -(path adjacency on 63 nodes) has the eigenvalue
    # 2 cos(32 pi / 64) = 0, and so has J's even block about node 0, with
    # the even eigenvector cos(pi i / 2); dgtsv, in exact arithmetic here,
    # meets a zero pivot in either.  Newton stops there, on the whole circle
    # and on the half grid of this constant start alike.
    problem = _problem(length=64.0, alpha=3.0, p=5.0, m=64)
    v = np.ones(64)
    r, a = solver._residual(problem, v)
    assert solver._newton_step(problem, v, r, a) is None
    y = v[:33]
    r, a = solver._residual(problem, y)
    assert solver._even_step(problem, r, a) is None
    for start in (v, y):
        _, _, iters, rn, ok = solver._newton(problem, start, SolveConfig())
        assert (iters, ok) == (1, False)
        assert rn == 2.0


def test_each_newton_iterate_power_is_computed_once(monkeypatch):
    # J's diagonal, in each Newton step and in the report's Morse count,
    # reads the array v^{p-1} that was computed once for its iterate: for
    # Newton's first iterate the one _handoff derived from the descent's
    # last evaluation, for each later one the one its residual evaluated.
    # No power is taken but by an evaluation or a residual, and no residual
    # is taken of the first iterate.  Through J's even block on the half
    # grid of an even start, through the cut J on an odd grid; the constant
    # start is the closed form and takes no power array.
    alpha = example_interval("cylinder-triple").midpoint
    config = example_configuration("cylinder-triple")
    power, evaluate, residual = solver._power, solver._evaluate, solver._residual
    handoff, cut, even_block = solver._handoff, solver._cut, solver._even_block
    for grid, path in ((1024, "_even_block"), (1025, "_cut")):
        powers, evaluations, residuals, handed = [], [], [], []
        read = {"_cut": [], "_even_block": []}

        def counted_residual(pr, u):
            r, a = residual(pr, u)
            residuals.append((u, a))
            return r, a

        def counted_handoff(pr, *last):
            v, r, a = handoff(pr, *last)
            handed.append((v, a))
            return v, r, a

        def counted_cut(pr, v, a):
            read["_cut"].append(a)
            return cut(pr, v, a)

        def counted_even_block(pr, a):
            read["_even_block"].append(a)
            return even_block(pr, a)

        monkeypatch.setattr(solver, "_power", lambda pr, u: powers.append(1) or power(pr, u))
        monkeypatch.setattr(solver, "_evaluate", lambda pr, x: evaluations.append(1) or evaluate(pr, x))
        monkeypatch.setattr(solver, "_residual", counted_residual)
        monkeypatch.setattr(solver, "_handoff", counted_handoff)
        monkeypatch.setattr(solver, "_cut", counted_cut)
        monkeypatch.setattr(solver, "_even_block", counted_even_block)
        report = minimize(circle_reduction(config, 1, alpha, grid=grid))
        assert report.start_label == "soliton" and report.newton_iterations >= 1
        assert len(read[path]) >= 2  # a Newton step and the Morse count
        assert sum(map(len, read.values())) == len(read[path])  # one path throughout
        (v0, a0), = handed  # the soliton's; the constant start hands nothing off
        assert read[path][0] is a0
        assert all(any(a is b for _, b in residuals) for a in read[path][1:])
        assert len(powers) == len(evaluations) + len(residuals)
        assert not any(np.array_equal(u, v0) for u, _ in residuals)


@pytest.mark.parametrize("p", [5.0, 3.0, 7.0 / 3.0])
@pytest.mark.parametrize("path", ["half", "full", "cut"])
def test_the_handoff_is_the_rescaled_points_residual_and_power(path, p):
    # r(v) = (s / (2 w h)) g and v^{p-1} = qv scale^{p-1} x^{p-1}, with
    # v = s u and s = qv^{1/(p-1)}, hold to rounding: the residual to
    # Newton's rounding floor eps |J|_inf |v|_inf (within 0.8 of it over 200
    # draws of each case), the power to 3 p ulps, since the reference power
    # raises v's own few ulps of rounding to p - 1 (at most 10 ulps at p = 5
    # over those draws).  On the half grid of a constant f, on its whole
    # circle and on the cut path of a nonconstant f alike.
    m = 256
    rng = np.random.default_rng([m, int(3 * p)])
    n = m // 2 + 1 if path == "half" else m
    for _ in range(10):
        problem = _problem(
            length=float(rng.uniform(3.0, 20.0)), weight=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.1, 3.0)), p=p, m=m,
            f=rng.uniform(0.5, 2.0, m) if path == "cut" else np.full(m, float(rng.uniform(0.5, 2.0))),
        )
        x = float(rng.uniform(0.01, 100.0)) * rng.uniform(0.5, 2.0, n)
        v, r, a = solver._handoff(problem, *solver._evaluate(problem, x))
        r_ref, a_ref = solver._residual(problem, v)
        jac = 4.0 / problem.h**2 + problem.alpha + p * problem.f_samples.max() * v.max() ** (p - 1.0)
        assert float(np.abs(r - r_ref).max()) <= math.ulp(1.0) * jac * v.max()
        assert np.all(np.abs(a - a_ref) <= 3.0 * p * np.spacing(a_ref))


def test_newton_evaluates_a_start_that_the_floor_would_move(monkeypatch):
    # a handed residual and power hold for v as given; where the positivity
    # floor clamps v, Newton evaluates the clamped v's own, as without them
    problem = _problem(alpha=0.7, m=64)
    v = 0.7 ** 0.25 * (1.0 + 0.1 * np.cos(problem.grid()))
    bogus = (np.zeros(64), np.ones(64))
    calls = []
    residual = solver._residual
    monkeypatch.setattr(solver, "_residual", lambda pr, u: calls.append(u) or residual(pr, u))
    # above the floor the handed pair is taken: a zero residual has converged
    assert solver._newton(problem, v, SolveConfig(), bogus)[2:] == (0, 0.0, True) and not calls
    v[5] = 0.5 * solver.POSITIVITY_FLOOR
    want = solver._newton(problem, v, SolveConfig())
    calls.clear()
    got = solver._newton(problem, v, SolveConfig(), bogus)
    assert calls[0][5] == solver.POSITIVITY_FLOOR
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2:] == want[2:]


def test_newton_has_converged_at_a_residual_equal_to_its_tolerance():
    # the soliton start's residual is far above the rounding floor, so at
    # newton_tol equal to it Newton has converged with 0 steps, and one
    # float below it Newton steps; the start's tail is clamped beforehand,
    # as Newton would clamp it
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 1, alpha, grid=512)
    soliton = np.maximum(solver._soliton(problem, problem.m // 2 + 1), solver.POSITIVITY_FLOOR)
    rn = float(np.abs(solver._residual(problem, soliton)[0]).max())
    assert rn > 1e-3
    v, _, iters, residual, converged = solver._newton(problem, soliton, SolveConfig(newton_tol=rn))
    assert (iters, residual, converged) == (0, rn, True) and np.array_equal(v, soliton)
    below = SolveConfig(newton_tol=math.nextafter(rn, 0.0))
    assert solver._newton(problem, soliton, below)[2] >= 1


@pytest.mark.parametrize(
    "case", ["triple-default", "model-a0.15", "model-a0.4", "weighted", "closed-form", "random-failure"]
)
def test_a_solve_reads_its_energies_from_the_powers_it_took(monkeypatch, case):
    # the ranking and the report, a ConvergenceError's too, read the energy
    # w h <f a v, v> from Newton's last power a, and the Newton start is the
    # descent's qv: no solve calls the public energy(), which takes a power
    # of its own.  The model and weighted cases take sweep's starts; the
    # triple and model cases solve on the half grid, whose energy weighs its
    # nodes as the solve did (_recomputed).
    def energy_raises(pr, u):
        raise AssertionError("solver.energy evaluated a power the solve already had")

    monkeypatch.setattr(solver, "energy", energy_raises)
    sweep = SolveConfig(starts=("constant", "cos1"))
    alpha = example_interval("cylinder-triple").midpoint
    if case == "triple-default":
        report = minimize(circle_reduction(example_configuration("cylinder-triple"), 1, alpha, grid=1024))
    elif case == "closed-form":
        report = constant_solution(_problem(alpha=0.3))
    elif case == "weighted":
        s = np.arange(128) * (2.0 * math.pi / 128)
        report = minimize(_problem(alpha=0.4, m=128, f=1.0 + 0.15 * np.cos(s)), sweep)
    elif case == "random-failure":
        with pytest.raises(ConvergenceError) as err:
            minimize(*_stalled_random_start())
        report = err.value.best
    else:
        report = minimize(_problem(alpha=float(case[len("model-a"):])), sweep)
    monkeypatch.undo()
    assert report.energy == _recomputed(report)[1]


def _recomputed(report):
    """(Q, energy) of report.u, computed as its solve computed them: on the half grid for a start that solved there."""
    problem = report.problem
    half = solver._on_half_grid(problem, report.start_label)
    u = report.u[:problem.m // 2 + 1] if half else report.u
    e = solver._energy(problem, u, solver._nonlinearity(problem, u, solver._power(problem, u)))
    return solver._quotient(problem, u, e), e


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
        assert quotient_value(problem, c * u) == pytest.approx(q, rel=1e-12, abs=0.0)


def test_quotient_translation_invariance():
    rng = np.random.default_rng(12)
    problem = _problem(m=64)
    u = rng.uniform(0.5, 2.0, 64)
    assert quotient_value(problem, np.roll(u, 17)) == pytest.approx(
        quotient_value(problem, u), rel=1e-12, abs=0.0
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
    assert report.quotient_value == pytest.approx(0.1 * wl ** (2.0 / 3.0), rel=1e-10, abs=0.0)
    closed = constant_solution(problem)
    assert closed.quotient_value == pytest.approx(report.quotient_value, rel=1e-12, abs=0.0)
    assert closed.newton_iterations == 0


def test_constant_solution_needs_constant_weight():
    f = np.ones(96)
    f[3] = 1.5
    with pytest.raises(PreconditionError):
        constant_solution(_problem(m=96, f=f))


_CLOSED_FORM_FIELDS = ("quotient_value", "energy", "el_residual", "morse_index", "zero_modes", "classification")


@pytest.mark.parametrize("m", [64, 65, 96, 97, 1024, 1025])
def test_a_constant_start_on_a_constant_weight_is_the_closed_form_bitwise(m):
    # minimize scores the constant start by the closed form that
    # constant_solution reports, so the two agree in every bit; before, the
    # constant start descended and Newton-polished its own copy, whose Q
    # and energy differed in the last bits on most such problems.  The
    # closed form's residual is rounding alone, below Newton's floor.
    eps = math.ulp(1.0)
    for length in (2.0 * math.pi, 9.0):
        for f in (1.0, 2.5):
            for p in (5.0, 7.0 / 3.0):
                for alpha in (0.05, 0.3, 1.0, 2.18, 7.5):
                    problem = _problem(length=length, alpha=alpha, p=p, m=m, f=np.full(m, f))
                    closed = constant_solution(problem)
                    report = minimize(problem, SolveConfig(starts=("constant",)))
                    assert np.array_equal(report.u, closed.u)
                    for name in _CLOSED_FORM_FIELDS:
                        assert getattr(report, name) == getattr(closed, name), name
                    assert (report.newton_iterations, report.winning_starts) == (0, ("constant",))
                    c = closed.u[0]
                    jac = 4.0 / problem.h**2 + (p + 1.0) * alpha
                    assert closed.el_residual <= eps * jac * c


def test_a_constant_start_on_a_constant_weight_neither_descends_nor_runs_newton(monkeypatch):
    # the closed form takes no descent, no P^{-1}, no Newton and no
    # residual; on a nonconstant weight the constant start descends
    def raises(*args):
        raise AssertionError("the closed form computed what it knows")

    descend, calls = solver._descend, []
    for name in ("_descend", "_p_inverse", "_newton", "_residual"):
        monkeypatch.setattr(solver, name, raises)
    for m in (96, 97):
        problem = _problem(alpha=0.3, m=m)
        assert minimize(problem, SolveConfig(starts=("constant",))).start_label == "constant"
        assert constant_solution(problem).start_label == "closed-form"
    monkeypatch.undo()
    monkeypatch.setattr(solver, "_descend", lambda pr, u: calls.append(1) or descend(pr, u))
    s = np.arange(128) * (2.0 * math.pi / 128)
    minimize(_problem(alpha=0.4, m=128, f=1.0 + 0.15 * np.cos(s)), SolveConfig(starts=("constant",)))
    assert calls == [1]


def test_a_constant_whose_energy_overflows_is_refused_by_name():
    # c = 1e3^{100} has c^{p+1} = inf: the closed form raises where the
    # descent of the constant start raised, and reports no Q of nan
    problem = _problem(length=6.0, alpha=1e3, p=1.01, m=64)
    for solve in (constant_solution, lambda pr: minimize(pr, SolveConfig(starts=("constant",)))):
        with np.errstate(over="ignore"), pytest.raises(
            PreconditionError, match="^quotient undefined: f-weighted integral vanishes or overflows"
        ):
            solve(problem)


@pytest.mark.parametrize("starts", [("constant",), ("soliton",), ("cos1",)])
def test_a_level_that_overflows_is_refused_by_name(starts):
    # At p = 1.5 the constant level (alpha/f)^{1/(p-1)} is (alpha/f)^2: 1.69e308
    # at alpha = 1.3e154 and past the float range at 2e154, where float **
    # raises OverflowError.  The soliton's amplitude ((p+1) alpha/(2 f))^2 is
    # 1.5625 times the level, so at 1.3e154 it has passed the range already.
    fine, over = _problem(alpha=1.3e154, p=1.5, m=64), _problem(alpha=2e154, p=1.5, m=64)
    assert solver._level(fine, fine.alpha, 1.0) == 1.3e154 ** 2
    for alpha, f in ((over.alpha, 1.0), (1e308, 1e-300)):  # float ** overflows; alpha / f is inf
        with pytest.raises(PreconditionError, match=r"^the constant level \(alpha/f\)\^\{1/\(p-1\)\} overflows"):
            solver._level(over, alpha, f)
    config = SolveConfig(starts=starts)
    soliton = starts == ("soliton",)  # it forms its own level, and no other
    what = "the soliton amplitude ((p+1) alpha/(2 f))" if soliton else "the constant level (alpha/f)"
    with pytest.raises(PreconditionError,
                       match="^" + re.escape(what + "^{1/(p-1)} overflows a float at alpha = 2e+154, p = 1.5") + "$"):
        minimize(over, config)
    with np.errstate(over="ignore"), pytest.raises(PreconditionError) as refused:
        minimize(fine, config)
    if soliton:
        assert str(refused.value).startswith("the soliton amplitude ((p+1) alpha/(2 f))^{1/(p-1)} overflows")
    else:  # the level is finite; its energy is not
        assert str(refused.value).startswith("quotient undefined")
    with pytest.raises(PreconditionError, match=r"^the constant level"):
        constant_solution(over)
    # At p = 1.0001 a level is (alpha/f)^{1/(p-1)}, about (alpha/f)^{1e4}.  With
    # f = 1/4 off a peak of (p+1)/2, the mean-f level (about 3.9^{1e4})
    # overflows, while the soliton's amplitude ((p+1) alpha/(2 f_max))^{1e4} is
    # 1.  The soliton descends, and the level Q^{1e4} that rescales its
    # minimizer into a solution overflows
    p = 1.0001
    weighted = _problem(alpha=1.0, p=p, m=64, f=np.where(np.arange(64) == 5, 0.5 * (p + 1.0), 0.25))
    if soliton:
        ((_, start),) = solver._starts(weighted, config)
        assert start[5] == start.max() == 1.0
        level = "the solution's level Q^{1/(p-1)} overflows a float"
        with pytest.raises(PreconditionError, match="^" + re.escape(level)):
            minimize(weighted, config)
    else:
        with pytest.raises(PreconditionError, match=r"^the constant level \(alpha/f\)"):
            solver._starts(weighted, config)


def test_the_closed_form_is_alpha_over_f_to_the_one_over_p_minus_1():
    for m, p in ((96, 5.0), (97, 7.0 / 3.0)):
        report = constant_solution(_problem(alpha=0.3, p=p, m=m, f=np.full(m, 2.5)))
        assert np.all(report.u == (0.3 / 2.5) ** (1.0 / (p - 1.0)))


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
        assert report.energy == pytest.approx(report.quotient_value ** (N / 2.0), rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------------
# soliton limit and grid convergence


@pytest.fixture(scope="module")
def soliton_report():
    problem = _problem(length=60.0, weight=1.0, alpha=1.0, p=5.0, m=1024)
    return problem, minimize(problem, SolveConfig(starts=("cos1",)))


def test_long_circle_recovers_the_line_soliton(soliton_report):
    _, report = soliton_report
    assert report.classification == "nonconstant"
    assert report.quotient_value == pytest.approx(SOLITON_QUOTIENT, rel=5e-3, abs=0.0)


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
    # so a quotient 1e-6 too low puts the mass 5e-7 over its bound, past the slack
    low = dataclasses.replace(report, quotient_value=report.quotient_value * (1.0 - 1e-6))
    (check,) = proof_chain_diagnostics(low)
    assert not check.holds


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
    # a relative gap of 1e-3 is resolved
    near = energy_separation(a, constant_solution(_problem(length=4.004, weight=1.0, alpha=0.5)))
    assert near.distinct and near.lower == "a"


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
    assert u0.size == problem.m // 2 + 1  # the half grid's
    calls = []
    evaluate = solver._evaluate
    monkeypatch.setattr(solver, "_evaluate", lambda pr, x: calls.append(1) or evaluate(pr, x))
    (u, *_), capped = solver._descend(problem, u0)
    assert len(calls) <= 100 < solver.DESCENT_MAX_ITER
    assert not capped
    _, q, g, _, _ = evaluate(problem, u)
    scale = 2.0 * problem.weight * problem.h
    assert float(np.abs(g).max()) <= solver.DESCENT_TOL * scale * max(1.0, q)


def test_the_descent_cap_binds_on_a_nearly_constant_weight():
    # DESCENT_MAX_ITER is reached here, and the report says so (ROADMAP item 20)
    m = 128
    f = 1.0 + 1e-3 * np.cos(np.arange(m) * (2.0 * math.pi / m) - 1.0)
    problem = _problem(alpha=1.5, m=m, f=f)
    with pytest.raises(ConvergenceError) as err:
        minimize(problem, SolveConfig(starts=("cos1",)))
    assert err.value.best.descent_capped == ("cos1",)


def test_the_descent_cap_leaves_room_for_a_slow_descent():
    # the cos1 descent on this weight takes more than 1000 steps and at
    # most 1500, so DESCENT_MAX_ITER = 2000 lets it converge
    m = 128
    f = 1.0 + 5e-3 * np.cos(np.arange(m) * (2.0 * math.pi / m) - 2.0)
    report = minimize(_problem(alpha=1.3, m=m, f=f), SolveConfig(starts=("cos1",)))
    assert report.descent_capped == () and report.morse_index == 1


def _count_p_inverse(patch, applications, factors):
    """Count each application of the descent's P^{-1} and each factorization (dpttrf) of P."""
    p_inverse, lapack = solver._p_inverse, _lazy.flapack()
    dpttrf = lapack.dpttrf

    def counted(problem, half):
        solve = p_inverse(problem, half)
        return lambda g: applications.append(1) or solve(g)

    patch.setattr(solver, "_p_inverse", counted)
    patch.setattr(lapack, "dpttrf", lambda *a, **k: factors.append(1) or dpttrf(*a, **k))


def _counted_p_inverse_descent(monkeypatch, problem, u0, cap=solver.DESCENT_MAX_ITER):
    """(P^{-1} applications, capped) of one descent from u0, on the half grid, with DESCENT_MAX_ITER = cap."""
    assert u0.size == problem.m // 2 + 1
    applications, factors = [], []
    with monkeypatch.context() as patch:
        patch.setattr(solver, "DESCENT_MAX_ITER", cap)
        _count_p_inverse(patch, applications, factors)
        capped = solver._descend(problem, u0)[1]
    assert len(factors) == (1 if applications else 0)  # P is factored once, and only if used
    return len(applications), capped


def test_the_descent_applies_p_inverse_once_per_accepted_step(monkeypatch):
    # a start that passes the stopping test needs no direction
    problem = _problem(alpha=0.3)
    (_, u0), = solver._starts(problem, SolveConfig(starts=("constant",)))
    assert _counted_p_inverse_descent(monkeypatch, problem, u0) == (0, False)
    # a capped descent accepts a step in each of its DESCENT_MAX_ITER iterations
    (_, u0), = solver._starts(problem, SolveConfig(starts=("cos1",)))
    for cap in (1, 2, 5):
        assert _counted_p_inverse_descent(monkeypatch, problem, u0, cap) == (cap, True)
    # a descent that meets its stopping test after k steps: capped at k - 1
    # it is one step short of the test
    k, capped = _counted_p_inverse_descent(monkeypatch, problem, u0)
    assert not capped and k > 5
    assert _counted_p_inverse_descent(monkeypatch, problem, u0, k) == (k, False)
    assert _counted_p_inverse_descent(monkeypatch, problem, u0, k - 1) == (k - 1, True)


def test_rescaling_by_the_descent_numerator_is_quotient_value_bitwise():
    # the descent's qv is quotient_value's numerator bitwise, and its u has
    # unit energy up to the rounding of an m-term dot product, about
    # sqrt(m) eps: so _solve_one rescales by qv, Q(u) to that rounding
    problem = _problem(alpha=0.4, m=128, f=1.0 + 0.15 * np.cos(np.arange(128) * (2.0 * math.pi / 128)))
    (_, u0), = solver._starts(problem, SolveConfig(starts=("cos1",)))
    (u, qv, *_), _ = solver._descend(problem, u0)
    assert qv / energy(problem, u) ** (2.0 / problem.two_sharp) == quotient_value(problem, u)
    assert energy(problem, u) == pytest.approx(1.0, rel=0.0, abs=math.sqrt(problem.m) * math.ulp(1.0))


def _assert_fields_are_their_recomputation(report):
    problem, u = report.problem, report.u
    assert (report.quotient_value, report.energy) == _recomputed(report)
    # and within Q's tie of the circle's sums, which the half grid orders otherwise
    tie = math.ceil(math.sqrt(problem.m))
    assert report.quotient_value == pytest.approx(quotient_value(problem, u), rel=0.0,
                                                  abs=tie * math.ulp(report.quotient_value))
    assert report.energy == pytest.approx(energy(problem, u), rel=0.0, abs=tie * math.ulp(report.energy))
    assert report.el_residual == el_residual(problem, u)
    assert report.classification == solver._classify(u)
    power = solver._residual(problem, u)[1]
    assert (report.morse_index, report.zero_modes) == solver._morse_counts(problem, u, power)


@pytest.mark.parametrize(
    "case",
    ["model-m96-a0.15", "model-m96-a0.4", "model-m256-a0.15", "model-m256-a0.4", "triple-m1024",
     "weighted-m128", "closed-form-m96", "closed-form-m1024"],
)
def test_report_fields_equal_their_recomputation_from_u(case):
    # minimize hands _report the quotient, energy and classification it
    # ranked the starts by, and Newton's last residual and power v^{p-1},
    # instead of computing them again; constant_solution hands over its own.
    # The model, triple and closed-form Morse counts read J's even and odd
    # blocks, and _morse_counts here cuts J open.
    # The weighted f takes the cut Newton step.
    kind, _, rest = case.partition("-m")
    m = int(rest.split("-")[0])
    if kind == "model":
        report = minimize(_problem(alpha=float(rest.split("-a")[1]), m=m))
    elif kind == "triple":
        alpha = example_interval("cylinder-triple").midpoint
        report = minimize(circle_reduction(example_configuration("cylinder-triple"), 1, alpha, grid=m))
    elif kind == "weighted":
        s = np.arange(m) * (2.0 * math.pi / m)
        report = minimize(_problem(alpha=0.4, m=m, f=1.0 + 0.15 * np.cos(s)))
        assert report.classification == "nonconstant"
    else:
        report = constant_solution(_problem(alpha=0.3, m=m))
    _assert_fields_are_their_recomputation(report)


def test_convergence_error_best_fields_equal_their_recomputation_from_u():
    with pytest.raises(ConvergenceError) as err:
        minimize(*_stalled_random_start())
    _assert_fields_are_their_recomputation(err.value.best)


def test_newton_leaves_a_stagnating_saddle_start_early():
    # the stall holds for the start's rounding variants too: the step bound
    # and the residual floor are pinned, not the bits
    problem, config = _stalled_random_start()
    (label, u0), = solver._starts(problem, config)
    for start in (u0, u0 * (1.0 + 2.0**-50), np.roll(u0, 1), np.roll(u0, 7)):
        run = solver._solve_one(problem, label, start, config)
        assert not run.converged and run.iters <= 5 and run.residual >= 1e-4
    report = minimize(problem)
    assert (report.classification, report.morse_index) == ("nonconstant", 1)
    assert report.quotient_value == pytest.approx(14.311234187568346, rel=1e-14, abs=0.0)


def test_newton_stops_after_two_consecutive_short_steps(monkeypatch):
    # Each step is made 20 times Newton's, so the line search rejects
    # theta = 1/8, where the residual's linear part changes by the factor
    # 1 - 20/8 = -3/2, and accepts theta = 1/16, where it changes by -1/4.
    # Two such steps end the iteration unconverged; without that exit it
    # converges in 16 steps.
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 2, alpha, grid=512)
    for name in ("_even_step", "_newton_step"):
        step = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *args, step=step: 20.0 * step(*args))
    soliton = solver._soliton(problem, problem.m // 2 + 1)  # on the half grid
    _, _, iters, residual, converged = solver._newton(problem, soliton, SolveConfig())
    assert (iters, converged) == (2, False) and residual > 1e-3


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
    # a cos1 start makes more than 100 on each of these problems.  Newton's
    # at most 2 steps are DESCENT_TOL's reason: handed over at 1e-3, index 1
    # at m = 1024 and 2048 and index 2 at m = 512 and 1024 take 3.  The
    # constant start is the closed form, so every evaluation is the soliton's.
    _, report, calls = _counted_solve(monkeypatch, index, m)
    assert len(calls) <= 3
    assert report.newton_iterations <= 2
    assert (report.start_label, report.classification, report.morse_index) == ("soliton", "nonconstant", 1)


@pytest.mark.parametrize("m", [512, 1024])
def test_the_first_descent_step_needs_no_backtrack(monkeypatch, m):
    # The first trial step 1/(2 w h) is the Picard step, which the Armijo
    # test accepts: every _evaluate after the initial one is a step taken,
    # one per application of P^{-1}.
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 2, alpha, grid=m)
    (_, u0), = solver._starts(problem, SolveConfig(starts=("soliton",)))
    assert u0.size == m // 2 + 1
    evaluations, inverses, factors = [], [], []
    evaluate = solver._evaluate
    monkeypatch.setattr(solver, "_evaluate", lambda pr, x: evaluations.append(1) or evaluate(pr, x))
    _count_p_inverse(monkeypatch, inverses, factors)
    solver._descend(problem, u0)
    assert inverses and len(evaluations) == len(inverses) + 1
    assert len(factors) == 1


@pytest.mark.parametrize("m", [256, 512, 768, 1024, 2048, 4096])
def test_every_grid_descends_on_itself_alone(monkeypatch, m):
    config = SolveConfig(starts=("soliton",))
    problem, _, calls = _counted_solve(monkeypatch, 1, m, config)
    assert set(calls) == {m}
    (label, u0), = solver._starts(problem, config)
    run = solver._solve_one(problem, label, u0, config)
    last, capped = solver._descend(problem, u0)
    v, r, a = solver._handoff(problem, *last)
    v, power, iters, rn, ok = solver._newton(problem, v, config, (r, a))
    assert np.array_equal(run.v, v) and np.array_equal(run.power, power)
    assert (run.v.size, run.iters, run.residual) == (m // 2 + 1, iters, rn)
    assert (run.converged, run.descent_capped) == (ok, capped)


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
    assert u0[k] == pytest.approx((6.0 * 3.0 / (2.0 * f[k])) ** 0.25, rel=1e-15, abs=0.0)
    assert np.array_equal(np.roll(u0, -k)[1:], np.roll(u0, -k)[:0:-1])


@pytest.mark.parametrize("m", [64, 1024, 4096])
def test_the_half_grid_soliton_is_the_circle_solitons_first_half(m):
    # on the half grid the distance from the peak is s itself, with no argmax
    # and no periodic modulo; it must give the circle formula's nodes bitwise
    for alpha in (0.3, 2.5):
        problem = _problem(alpha=alpha, m=m)
        assert np.array_equal(solver._soliton(problem, m // 2 + 1), solver._soliton(problem, m)[:m // 2 + 1])


@pytest.mark.parametrize("weighted", [False, True])
def test_the_soliton_start_is_the_line_soliton_in_the_periodic_distance(weighted):
    # A cosh((p-1) sqrt(alpha) x / 2)^{-2/(p-1)} with x the distance to the
    # peak of f around the circle, formed here independently of _soliton
    m, alpha, p = 256, 3.0, 5.0
    s = np.arange(m) * (2.0 * math.pi / m)
    f = 1.0 + 0.15 * np.cos(s - 2.0) if weighted else None
    problem = _problem(alpha=alpha, p=p, m=m, f=f)
    k = int(np.argmax(problem.f_samples))
    x = np.abs(s - s[k])
    x = np.minimum(x, 2.0 * math.pi - x)
    amplitude = ((p + 1.0) * alpha / (2.0 * problem.f_samples[k])) ** (1.0 / (p - 1.0))
    expected = amplitude / np.cosh(0.5 * (p - 1.0) * math.sqrt(alpha) * x) ** (2.0 / (p - 1.0))
    (_, u0), = solver._starts(problem, SolveConfig(starts=("soliton",)))
    full = u0 if weighted else solver._mirror(u0)
    assert full == pytest.approx(expected, rel=1e-13, abs=0.0)


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
    # the seeded random start stalls where J has two negative eigenvalues;
    # the best partial result's index says it is no minimizer
    with pytest.raises(ConvergenceError) as err:
        minimize(*_stalled_random_start())
    best = err.value.best
    assert best.classification == "nonconstant" and best.el_residual >= 1e-4
    assert (best.morse_index, best.zero_modes) == (2, 0)


def test_a_cos3_start_at_2048_converges_to_the_three_bump_saddle():
    # on a resolving grid Newton from the three-bump vector
    # c (1 + 0.3 cos(6 pi s / L)) converges to the symmetric three-bump
    # saddle; its three near-zero modes are the bumps' positions
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), 2, alpha, grid=2048)
    three_bumps = 1.0 + 0.3 * np.cos(6.0 * math.pi * problem.grid() / problem.length)
    u0 = alpha ** (1.0 / (problem.p - 1.0)) * three_bumps
    run = solver._solve_one(problem, "cos3", u0, SolveConfig())
    report = solver._report(problem, run)
    assert report.classification == "nonconstant" and report.el_residual <= 1e-10
    assert (report.morse_index, report.zero_modes) == (3, 3)
    assert report.quotient_value == pytest.approx(29.5709200274, abs=1e-9)


@pytest.mark.parametrize("k, k_bump_quotient", [(2, 25.13384180161184), (3, 29.567937621476478)])
def test_a_k_bump_solution_is_the_order_k_a_minimizer(k, k_bump_quotient):
    # On the circle of cylinder-triple's second group, the order-a rotations
    # (a = 2), a k-bump function is invariant under the order-k a rotations.
    # The order-k a problem's minimizer on 512 nodes has the quotient that
    # Newton from c (1 + 0.3 cos(2 pi k s / L)) reaches on the order-a problem
    # on 512 k nodes, and tiled k times it solves that problem, where it is
    # an index-k saddle with k near-zero modes (the bumps' positions).
    alpha = example_interval("cylinder-triple").midpoint
    order_a = example_configuration("cylinder-triple")
    order_ka = example_configuration("cylinder-triple", a2=k * order_a.inputs["a2"])
    report = minimize(circle_reduction(order_ka, 2, alpha, grid=512))
    assert report.quotient_value == pytest.approx(
        k_bump_quotient, rel=0.0, abs=math.ceil(math.sqrt(512)) * math.ulp(k_bump_quotient)
    )
    assert (report.classification, report.morse_index, report.below_threshold) == ("nonconstant", 1, True)
    problem = circle_reduction(order_a, 2, alpha, grid=512 * k)
    tiled = np.tile(report.u, k)
    assert el_residual(problem, tiled) <= 1e-10
    assert quotient_value(problem, tiled) == pytest.approx(
        k_bump_quotient, rel=0.0, abs=math.ceil(math.sqrt(problem.m)) * math.ulp(k_bump_quotient)
    )
    assert solver._morse_counts(problem, tiled, solver._residual(problem, tiled)[1]) == (k, k)


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
    "starts": [(), ("cos1", "sine"), ("cos",), ("cosx",), "cos1", (1,), None, 5],
    "newton_tol": [0.0, math.nan, math.inf, "1e-10", True, None, -1e-10],
    "seed": [-1, 0.5, True, "1", None],
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
    with pytest.raises(PreconditionError, match="known: constant, soliton, cos1, random"):
        SolveConfig(starts=("sine",))
    assert SolveConfig().starts == ("constant", "soliton")


@pytest.mark.parametrize("label", ["cos0", "cos2", "cos3", "cos01"])
def test_a_cos_label_other_than_cos1_is_unknown(label):
    # a k-bump start for k >= 2 is the order-k a group's business
    with pytest.raises(PreconditionError, match="known: constant, soliton, cos1, random"):
        SolveConfig(starts=(label,))


@pytest.mark.parametrize("label", ["constant", "soliton", "cos1"])
def test_a_repeated_start_label_is_rejected_unless_random(label):
    # a deterministic start solved twice would only report itself twice;
    # each random position draws its own vector
    with pytest.raises(PreconditionError, match="starts repeats the start label %r" % label):
        SolveConfig(starts=(label, "random", label))
    config = SolveConfig(starts=("random", label, "random"))
    starts = solver._starts(_problem(alpha=0.4, m=96), config)
    assert not np.array_equal(starts[0][1], starts[2][1])


def test_a_config_keeps_its_inputs_as_the_types_it_checked():
    config = SolveConfig(seed=np.int64(3), starts=["constant", "cos1"], newton_tol=np.float64(1e-11))
    assert config == SolveConfig(seed=3, starts=("constant", "cos1"), newton_tol=1e-11)
    assert (type(config.seed), type(config.starts), type(config.newton_tol)) == (int, tuple, float)


@pytest.mark.parametrize(
    "config", [{}, 0, "", (), [], 1, "constant", ("constant",), {"starts": ("constant",)}], ids=repr
)
def test_minimize_rejects_a_config_that_is_no_solve_config_by_name(config):
    # a falsy one once ran the defaults, and a truthy one failed later with an AttributeError
    with pytest.raises(PreconditionError, match="^config must be a SolveConfig or None"):
        minimize(_problem(alpha=0.3, m=64), config)


def test_minimize_reads_a_config_of_none_as_the_defaults():
    problem = _problem(alpha=0.4, m=64)
    default, given = minimize(problem), minimize(problem, SolveConfig())
    assert np.array_equal(default.u, given.u) and default.to_json() == given.to_json()


@pytest.mark.parametrize(
    "m, amplitude, phase, alpha",
    [
        (96, 0.2, math.pi / 6.0, 0.05 + 19.5 * 0.025),
        (128, 0.15, math.pi / 3.0, 0.05 + 17.5 * 0.025),
    ],
    ids=["m96", "m128"],
)
def test_newton_converges_with_a_nonconstant_weight(m, amplitude, phase, alpha):
    # the weight breaks the translation symmetry and pins the bump; Newton's
    # step, free to move it along u', brings it there within its tolerance
    s = np.arange(m) * (2.0 * math.pi / m)
    problem = _problem(alpha=alpha, m=m, f=1.0 + amplitude * np.cos(s - phase))
    report = minimize(problem, SolveConfig(starts=("constant", "cos1")))
    assert report.el_residual <= 1e-10
    assert report.classification == "nonconstant"


# ---------------------------------------------------------------------------
# the starts and the Morse certificate

THREE_STARTS = ("constant", "cos1", "random")


def test_starts_that_reach_one_solution_all_win_and_the_earliest_is_named():
    # below the bifurcation constant and soliton both reach the constant;
    # above it cos1 and random reach the one-bump minimizer, 0-3 ulps apart
    below = minimize(_problem(alpha=0.1))
    assert below.winning_starts == ("constant", "soliton") and below.start_label == "constant"
    above = minimize(_problem(alpha=0.3), SolveConfig(starts=THREE_STARTS))
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
        counts = solver._morse_counts(problem, v, v ** (problem.p - 1.0))
        assert counts == _dense_morse_counts(problem, v)
        seen.add(counts)
    assert len(seen) >= 4  # the cases span several indices and zero-mode counts


def test_morse_count_moves_its_shift_off_an_eigenvalue_of_the_leading_block(monkeypatch):
    # a zero last pivot of the LDL' factor means the shift is an eigenvalue
    # of T in floating point; the count is then taken at a shift 1 % further
    # from 0.  The first factorization is made to end on that pivot.
    problem = _problem(alpha=0.3)
    v = minimize(problem).u
    power = v ** (problem.p - 1.0)
    expected = solver._morse_counts(problem, v, power)
    lapack = _lazy.flapack()  # the module the solver takes dpttrf from
    dpttrf, calls, shifts = lapack.dpttrf, [], []

    def singular_once(d, e, **kwargs):
        calls.append(d.size)
        if d.size == problem.m - 1:  # a factorization's first call, on all of T - shift
            shifts.append(float(d[0]))
        d, e, info = dpttrf(d, e, **kwargs)
        if len(calls) == 1:
            d[-1], info = 0.0, d.size
        return d, e, info

    monkeypatch.setattr(lapack, "dpttrf", singular_once)
    assert solver._morse_counts(problem, v, power) == expected
    tol = solver.ZERO_MODE_TOL  # alpha < 1
    assert len(shifts) == 3 and shifts[1] - shifts[0] == pytest.approx(0.01 * tol, rel=1e-3, abs=0.0)


def test_morse_count_moves_its_shift_off_a_zero_middle_pivot(monkeypatch):
    # J cut open is T = tridiag(1, 1 - tol, 1) of size 63 with the cut
    # node's c = -1 and coupling 1, so at the shift -tol T - shift has
    # diagonal exactly 1 and its second pivot is exactly 0.  That factor
    # cannot solve for the Schur term c - shift - w' (T - shift)^{-1} w, so
    # there is none, and the count is taken at a shift 1 % further from 0.
    tol = 2.0**-20  # (1 - tol) + tol is exactly 1
    monkeypatch.setattr(solver, "ZERO_MODE_TOL", tol)
    m = 64
    diag = np.append(np.full(m - 1, 1.0 - tol), -1.0)
    monkeypatch.setattr(solver, "_cut", lambda problem, v, a: (None, diag, 1.0))
    assert solver._ldl_count(diag[:-1], 1.0, -tol) is None
    jac = np.diag(diag) + np.eye(m, k=1) + np.eye(m, k=-1) + np.eye(m, k=m - 1) + np.eye(m, k=1 - m)
    eig = np.linalg.eigvalsh(jac)
    expected = (int(np.sum(eig < -tol)), int(np.sum(np.abs(eig) <= tol)))
    assert solver._morse_counts(_problem(alpha=0.5, m=m), np.ones(m), None) == expected  # the circle's length


@pytest.mark.parametrize("path", ["cut", "half"])
def test_the_morse_count_refuses_a_shift_that_meets_a_zero_pivot_on_every_try(monkeypatch, path):
    # Each shift takes up to _SHIFT_TRIES factors, moving 1 % further from 0
    # after each zero pivot: with one factor fewer singular the count is the
    # one without any, and with every one singular it refuses by name
    problem = _problem(alpha=0.3, m=64)
    v = constant_solution(problem).u
    if path == "half":
        v = v[:33]
    power = v ** (problem.p - 1.0)
    expected = solver._morse_counts(problem, v, power)
    ldl_count = solver._ldl_count
    for singular in (solver._SHIFT_TRIES - 1, solver._SHIFT_TRIES):
        calls = []

        def singular_first(t, off, shift):
            calls.append(shift)
            return None if len(calls) <= singular else ldl_count(t, off, shift)

        monkeypatch.setattr(solver, "_ldl_count", singular_first)
        if singular < solver._SHIFT_TRIES:
            assert solver._morse_counts(problem, v, power) == expected
            assert calls[singular] == pytest.approx(-solver.ZERO_MODE_TOL * 1.01 ** singular, rel=1e-12, abs=0.0)
        else:
            with pytest.raises(PreconditionError, match=r"^the Morse count's zero-mode tolerance ZERO_MODE_TOL"
                                                        r" \* max\(1, alpha\) = 1e-06 is lost in J's rounding level"
                                                        r" eps \|J\|_inf = "):
                solver._morse_counts(problem, v, power)
            assert len(calls) == solver._SHIFT_TRIES


def test_a_zero_mode_tolerance_below_j_rounding_is_refused_by_name():
    # J's diagonal is about 9.2e17 here, so a shift of 1e-6 is lost in its
    # rounding and every factor meets the same zero pivot: the count refuses
    # after _SHIFT_TRIES factors, where it once recursed without end
    problem = ReducedProblem(length=9.417435721214023e-08, weight=528.7711818319289, alpha=3.29460598250793e-08,
                             p=60.13990317699089, f_samples=np.ones(64))
    with pytest.raises(PreconditionError, match=r"^the Morse count's zero-mode tolerance .* = 1e-06 is lost in J's"
                                                r" rounding level eps \|J\|_inf = 4[0-9]{2}$"):
        minimize(problem)


@pytest.mark.parametrize("n, count", [(4, 1), (6, 2), (7, 2)])
def test_ldl_count_takes_an_exactly_zero_middle_pivot(n, count):
    # diagonal 1 and off-diagonal 1: d[0] = 1, and d[1] = 1 - 1 * (1 / 1) is
    # exactly 0, so 0 is an eigenvalue of the leading 2 x 2 block and the
    # factor has no d[1] to solve with: there is none.  n + 1 is not a
    # multiple of 3, so 0 is not an eigenvalue of T, and the count at a
    # shift next to 0 is T's count below 0.
    t = np.ones(n)
    assert int(np.sum(np.linalg.eigvalsh(np.diag(t) + np.eye(n, k=1) + np.eye(n, k=-1)) < 0.0)) == count
    assert solver._ldl_count(t, 1.0, 0.0) is None
    assert solver._ldl_count(t, 1.0, -1e-9)[0] == solver._ldl_count(t, 1.0, 1e-9)[0] == count


@pytest.mark.parametrize("n", [2, 5])
def test_ldl_count_reports_a_zero_last_pivot_as_singular(n):
    # diagonal (1, 2, ..., 2, 1) and off-diagonal 1: every pivot is exactly
    # 1 but the last, which is exactly 0; (1, -1, 1, ...) spans T's kernel
    t = np.full(n, 2.0)
    t[0] = t[-1] = 1.0
    assert np.allclose(np.linalg.eigvalsh(np.diag(t) + np.eye(n, k=1) + np.eye(n, k=-1))[0], 0.0, rtol=0.0, atol=1e-12)
    assert solver._ldl_count(t, 1.0, 0.0) is None


def test_ldl_count_factors_t_minus_the_shift():
    rng = np.random.default_rng(5)
    n = 40
    for _ in range(20):
        t, off = rng.uniform(-3.0, 3.0, n), float(rng.uniform(0.5, 2.0))
        tri = np.diag(t) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
        shift = float(rng.uniform(-2.0, 2.0))
        count, d, e = solver._ldl_count(t, off, shift)
        assert count == int(np.sum(np.linalg.eigvalsh(tri) < shift))
        lower = np.eye(n) + np.diag(e, k=-1)
        assert lower @ np.diag(d) @ lower.T == pytest.approx(tri - shift * np.eye(n), abs=1e-9)


@pytest.mark.parametrize("m", [512, 1024, 2048, 4096, 8192, 16384])
def test_cylinder_triple_morse_counts_at_c6_alpha(m):
    # (morse_index, zero_modes) of each group's minimizer and constant, as
    # the Sturm bisection (dstebz) counted them before the LDL' count; the
    # translation eigenvalue is a zero mode from m = 1024 on (ZERO_MODE_TOL)
    config = example_configuration("cylinder-triple")
    alpha = example_interval("cylinder-triple").midpoint
    expected = {
        1: ((1, 0) if m == 512 else (1, 1), (141, 0) if m == 512 else (137, 0)),
        2: ((1, 1), (69, 0)),
    }
    for index, (minimizer, constant) in expected.items():
        problem = circle_reduction(config, index, alpha, grid=m)
        report = minimize(problem)
        assert report.classification == "nonconstant"
        assert (report.morse_index, report.zero_modes) == minimizer
        closed = constant_solution(problem)
        assert (closed.morse_index, closed.zero_modes) == constant


# J's even and odd blocks about node 0, and the half grid


def _is_even(u):
    """Whether u is bitwise even about node 0: u[j] == u[m-j] for 0 < j < m/2."""
    mid = u.size // 2
    return np.array_equal(u[1:mid], u[:mid:-1])


@pytest.mark.parametrize("m", [64, 128, 256, 512])
def test_split_morse_counts_equal_the_cut_counts_and_dense_eigenvalues(m):
    # With a constant weight and m even, the default starts solve on the half
    # grid, so each solution is bitwise even about node 0, and the report's
    # count adds the even block's count to the odd block's.  At the last
    # model alpha the constant's cos 1 and sin 1 modes, one even and one
    # odd, are J's zero modes.
    cases = []
    for alpha in (0.4, 1.5):
        problem = _problem(alpha=alpha, m=m)
        cases.append((problem, minimize(problem).u))
    for alpha in (0.15, 0.4, 1.5, (math.sin(math.pi / m) * m / (2.0 * math.pi)) ** 2):
        problem = _problem(alpha=alpha, m=m)
        cases.append((problem, constant_solution(problem).u))
    if m == 512:
        alpha = example_interval("cylinder-triple").midpoint
        for index in (1, 2):
            problem = circle_reduction(example_configuration("cylinder-triple"), index, alpha, grid=m)
            cases.append((problem, minimize(problem).u))
    seen = set()
    for problem, u in cases:
        assert _is_even(u)
        power = solver._residual(problem, u)[1]
        counts = solver._morse_counts(problem, u[:m // 2 + 1], power[:m // 2 + 1])
        assert counts == solver._morse_counts(problem, u, power) == _dense_morse_counts(problem, u)
        seen.add(counts)
    assert (1, 2) in seen and len(seen) >= 4


@pytest.mark.parametrize("index", [1, 2])
def test_the_even_step_is_the_cut_step_on_an_even_residual(index):
    # Newton's start from the soliton on the half grid, at m = 512: its
    # residual is the circle's at nodes 0, ..., m/2, bitwise, and its even
    # step, mirrored, is the cut step of the whole circle, wherever the cut
    # falls (the start rolled to either side of m/2): an even r has an even
    # step, orthogonal to the odd translation mode v'
    m = 512
    alpha = example_interval("cylinder-triple").midpoint
    problem = circle_reduction(example_configuration("cylinder-triple"), index, alpha, grid=m)
    (_, u0), = solver._starts(problem, SolveConfig(starts=("soliton",)))
    assert u0.size == m // 2 + 1
    y = solver._handoff(problem, *solver._descend(problem, u0)[0])[0]
    r_half, a_half = solver._residual(problem, y)
    even = solver._mirror(solver._even_step(problem, r_half, a_half))
    v = solver._mirror(y)
    assert _is_even(v) and _is_even(even)
    r, a = solver._residual(problem, v)
    assert np.array_equal(r[:m // 2 + 1], r_half) and np.array_equal(a[:m // 2 + 1], a_half)
    for shift in (0, 1, m // 2 - 1, m // 2, m // 2 + 1, m - 1):
        rolled = np.roll(v, shift)
        r, a = solver._residual(problem, rolled)
        cut = solver._newton_step(problem, rolled, r, a)
        delta = np.roll(even, shift)
        assert float(np.max(np.abs(delta - cut))) <= 1e-12 * float(np.max(np.abs(cut)))


@pytest.mark.parametrize("case", ["random-m256", "odd-m1025", "weighted-m512"])
def test_a_start_off_the_even_path_keeps_the_cut_path_bitwise(monkeypatch, case):
    # A random start is not even, an odd grid has no reflection about a node
    # that maps the grid to itself, and a nonconstant weight breaks it: none
    # solves on the half grid or takes the even step, and each report is
    # bitwise the one of the cut path alone
    kind, m = case.split("-m")
    m = int(m)
    config = SolveConfig(starts=("random",)) if kind == "random" else SolveConfig()
    if kind == "weighted":
        problem = _problem(alpha=0.4, m=m, f=1.0 + 0.15 * np.cos(np.arange(m) * (2.0 * math.pi / m)))
    elif kind == "random":
        problem = _problem(alpha=0.4, m=m)
    else:
        alpha = example_interval("cylinder-triple").midpoint
        problem = circle_reduction(example_configuration("cylinder-triple"), 1, alpha, grid=m)
    assert not any(solver._on_half_grid(problem, label) for label in config.starts)
    assert all(u0.size == m for _, u0 in solver._starts(problem, config))

    def no_even_step(*args):
        raise AssertionError("the even step ran")

    monkeypatch.setattr(solver, "_even_step", no_even_step)
    report = minimize(problem, config)
    monkeypatch.setattr(solver, "_on_half_grid", lambda pr, label: False)
    cut = minimize(problem, config)
    assert report.newton_iterations >= 1
    assert report.u.tobytes() == cut.u.tobytes() and report.to_json() == cut.to_json()


_HALF_PATH_FIELDS = ("classification", "morse_index", "zero_modes", "newton_iterations", "winning_starts",
                     "descent_capped", "below_threshold")


@pytest.mark.parametrize("m", [64, 96, 256, 1024, 4096])
@pytest.mark.parametrize("label", ["constant", "soliton", "cos1"])
def test_an_even_start_reports_on_the_half_grid_what_the_cut_path_reports(monkeypatch, label, m):
    # The model problem on either side of its bifurcation at alpha = 1/4 and
    # both groups of cylinder-triple, each solved from one even start on the
    # half grid and again on the whole circle with J cut open.
    # Q is stationary at a solution, so it agrees to its tie, ceil(sqrt(m))
    # ulps.  The energy is not: it moves with the iterate Newton stops at,
    # and on coarse cylinder-triple grids the cut step stops at
    # residuals up to 2e-11 where the even step reaches 1e-14 (cos1 at
    # m = 256, index 1: energies 5.4e-12 apart, relative).  So the energies
    # agree within the tie plus the larger residual, relative.
    alpha = example_interval("cylinder-triple").midpoint
    problems = [_problem(alpha=a, m=m) for a in (0.15, 0.4)]
    problems += [circle_reduction(example_configuration("cylinder-triple"), i, alpha, grid=m) for i in (1, 2)]
    config = SolveConfig(starts=(label,))
    tie = math.ceil(math.sqrt(m))
    for problem in problems:
        (_, u0), = solver._starts(problem, config)
        assert u0.size == m // 2 + 1
        half = minimize(problem, config)
        assert _is_even(half.u)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_on_half_grid", lambda pr, label: False)
            cut = minimize(problem, config)
        assert [getattr(half, f) for f in _HALF_PATH_FIELDS] == [getattr(cut, f) for f in _HALF_PATH_FIELDS]
        assert abs(half.quotient_value - cut.quotient_value) <= tie * math.ulp(cut.quotient_value)
        slack = tie * math.ulp(cut.energy) + max(half.el_residual, cut.el_residual) * cut.energy
        assert abs(half.energy - cut.energy) <= slack


@pytest.mark.parametrize("m", [64, 96, 1024])
def test_the_half_grid_kernels_are_the_circle_kernels_on_even_vectors(m):
    # On a vector even about node 0 the half grid's residual, power and
    # -Delta_h are the circle's at nodes 0, ..., m/2, bitwise; its weighted
    # sums (nodes 0 and m/2 once, the others twice; each difference twice)
    # are the circle's sums to rounding, and so are Q, its gradient and the
    # unit-energy scale of the descent's evaluation
    rng = np.random.default_rng(m)
    problem = _problem(length=float(rng.uniform(3.0, 20.0)), weight=float(rng.uniform(0.5, 3.0)), alpha=0.7, m=m)
    h, mid, eps = problem.h, m // 2, math.ulp(1.0)
    for _ in range(5):
        y, z = rng.uniform(0.5, 2.0, mid + 1), rng.uniform(-1.0, 1.0, mid + 1)
        u, w = solver._mirror(y), solver._mirror(z)
        assert u.size == m and _is_even(u) and np.array_equal(u[:mid + 1], y)
        du, dy = solver._differences(u, h), solver._differences(y, h, True)
        assert np.array_equal(du[:mid], dy) and np.array_equal(du[mid:], -dy[::-1])
        assert np.array_equal(solver._neg_laplacian(du, h)[:mid + 1], solver._neg_laplacian(dy, h, True))
        r, a = solver._residual(problem, u)
        r_half, a_half = solver._residual(problem, y)
        assert np.array_equal(r[:mid + 1], r_half) and np.array_equal(a[:mid + 1], a_half)
        for full, on_half in (
            (solver._dot(u, w), solver._dot(y, z, True)),
            (solver._edge_dot(du), solver._edge_dot(dy, True)),
            (energy(problem, u), solver._energy(problem, y, solver._nonlinearity(problem, y, a_half))),
        ):
            assert on_half == pytest.approx(full, rel=0.0, abs=m * eps * solver._dot(np.abs(u), np.abs(w)))
        x_full, q_full, g_full, s_full, a_full = solver._evaluate(problem, u)
        x_half, q_half, g_half, s_half, a_half = solver._evaluate(problem, y)
        assert np.abs(x_half - x_full[:mid + 1]).max() <= 1e-13 * np.abs(x_full).max()
        assert q_half == pytest.approx(q_full, rel=1e-13, abs=0.0)
        assert s_half == pytest.approx(s_full, rel=1e-13, abs=0.0)
        assert np.abs(g_half - g_full[:mid + 1]).max() <= 1e-12 * np.abs(g_full).max()
        assert np.array_equal(a_half, a_full[:mid + 1])


@pytest.mark.parametrize("m", [64, 96, 1024, 16384])
@pytest.mark.parametrize("alpha", [0.05, 2.25, 40.0])
def test_the_half_grid_p_inverse_is_the_circulant_p_inverse_on_even_vectors(m, alpha):
    # P's even block, factored on the half grid, gives back P's solve of an
    # even right-hand side, mirrored, to P's condition number |P| / alpha
    rng = np.random.default_rng(m)
    length = float(rng.uniform(3.0, 20.0))
    problem = _problem(length=length, alpha=alpha, m=m)
    h, eps, mid = problem.h, math.ulp(1.0), m // 2
    norm = 4.0 / (h * h) + alpha  # |P|_inf
    solve, solve_half = solver._p_inverse(problem), solver._p_inverse(problem, True)
    s = np.arange(mid + 1) * h * (2.0 * math.pi / length)
    for g in (rng.standard_normal(mid + 1), np.exp(np.cos(s)) + 0.3 * np.cos(3.0 * s)):
        before = g.copy()
        x = solver._mirror(solve_half(g))
        assert np.array_equal(g, before) and _is_even(x)
        px = (2.0 / (h * h) + alpha) * x - (np.roll(x, 1) + np.roll(x, -1)) / (h * h)
        assert float(np.abs(px - solver._mirror(g)).max()) <= 4.0 * eps * norm * float(np.abs(x).max())
        x_full = solve(solver._mirror(g))
        assert float(np.abs(x - x_full).max()) <= 4.0 * eps * (norm / alpha) * float(np.abs(x).max())


def test_ldl_count_takes_one_coupling_per_row():
    # blocks joined by zero couplings: the count is the sum of the blocks'
    rng = np.random.default_rng(8)
    n = 40
    for _ in range(20):
        t, off = rng.uniform(-3.0, 3.0, n), rng.uniform(-2.0, 2.0, n - 1)
        off[rng.integers(0, n - 1, 2)] = 0.0
        tri = np.diag(t) + np.diag(off, k=1) + np.diag(off, k=-1)
        shift = float(rng.uniform(-2.0, 2.0))
        count, d, e = solver._ldl_count(t, off, shift)
        assert count == int(np.sum(np.linalg.eigvalsh(tri) < shift))
        lower = np.eye(n) + np.diag(e, k=-1)
        assert lower @ np.diag(d) @ lower.T == pytest.approx(tri - shift * np.eye(n), abs=1e-9)


# One fresh interpreter per route to scipy's LAPACK wrappers, so that no
# earlier import of scipy.linalg in the test process decides the route: the
# extension loaded by itself, or scipy.linalg.lapack when the file lookup
# finds nothing.  It prints the route, then Newton steps (for a constant
# and a weighted f), Morse counts and the descent's
# P^{-1} at m = 64 and 4096.
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
        r, a = solver._residual(problem, v)
        delta = solver._newton_step(problem, v, r, a)
        direction = solver._p_inverse(problem)(v)
        results.append([delta.tobytes().hex(), solver._morse_counts(problem, v, a), direction.tobytes().hex()])
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


def _two_versus_four_problems():
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


def test_two_default_starts_find_the_four_start_minimum():
    # The bifurcation point of the m = 256 model is included: alpha = 0.25
    # lies 1.2e-5 above lambda_1,h / (p - 1), and the one-bump minimizer is
    # 7.6e-10 below the constant saddle (Morse index 3).  The soliton start
    # reaches it: the descent hands over to Newton at DESCENT_TOL while its
    # iterate is still a clear bump (range 0.04); polished on to 1e-6 it
    # creeps to a range of 0.01 by the constant, where Newton stagnates.
    mismatches = []
    for name, problem in _two_versus_four_problems():
        two = minimize(problem)
        four = minimize(problem, SolveConfig(starts=THREE_STARTS + ("soliton",)))
        rel = abs(two.quotient_value - four.quotient_value) / four.quotient_value
        if rel > 1e-9 or two.classification != four.classification or two.morse_index != 1:
            mismatches.append((name, rel, two.classification, four.classification, two.morse_index))
    assert mismatches == []


@pytest.mark.parametrize("amplitude", [1e-5, 1e-4, 3e-4])
def test_a_nearly_constant_weight_still_gives_the_one_bump_minimizer(amplitude):
    # So flat a weight leaves the constant start by a saddle, and the soliton
    # start's bump up to h/2 off the minimizer along a translation that the
    # Newton cannot make; descending to WEIGHTED_DESCENT_TOL takes
    # the constant start off the saddle.  At DESCENT_TOL it stays there, and
    # that saddle (index 5 or 7) wins.
    m = 128
    f = 1.0 + amplitude * np.cos(np.arange(m) * (2.0 * math.pi / m) - 1.0)
    for alpha in (1.0, 3.0):
        report = minimize(_problem(alpha=alpha, m=m, f=f))
        assert (report.classification, report.morse_index) == ("nonconstant", 1)


def test_the_constant_just_past_the_bifurcation_is_an_index_3_saddle():
    # At m = 256, alpha = 0.25 lies 1.25e-5 above lambda_1,h / (p - 1), so J's
    # cos1 and sin1 eigenvalues at the constant are lambda_1,h - (p - 1) alpha
    # = -5.0e-5: negative beyond ZERO_MODE_TOL, not zero modes.
    problem = _problem(alpha=0.25, m=256)
    constant = constant_solution(problem)
    assert (constant.classification, constant.morse_index, constant.zero_modes) == ("constant", 3, 0)
    assert minimize(problem).quotient_value < constant.quotient_value


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
        assert red.weight * red.length == pytest.approx(cfg.volume, rel=1e-13, abs=0.0)
        assert red.p == cfg.params.exponent
        assert red.alpha == 1.0 and red.m == 64


def test_circle_reduction_orbit_volumes():
    cw = example_configuration("cylinder-triple")  # orders 1 < 2
    assert circle_reduction(cw, 1, 1.0, grid=64).orbit_volume == 1.0
    assert circle_reduction(cw, 2, 1.0, grid=64).orbit_volume == 2.0
    hopf = example_configuration("hopf")
    assert circle_reduction(hopf, 1, 1.0, grid=64).orbit_volume == pytest.approx(
        2.0 * math.pi, rel=1e-15, abs=0.0
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


@pytest.mark.parametrize("index", [True, False, 0, 3, 1.5, -1, math.nan, math.inf, None, "1"], ids=repr)
def test_circle_reduction_rejects_an_index_other_than_1_or_2_by_name(index):
    # True once solved group 1 quietly; an index goes through _integer, then (1, 2)
    with pytest.raises(PreconditionError, match="index"):
        circle_reduction(example_configuration("cylinder-triple"), index, 2.18)


def test_circle_reduction_takes_any_integer_index():
    cfg = example_configuration("cylinder-triple")
    for index in (1, 2):
        problem = circle_reduction(cfg, index, 2.18)
        for same in (np.int64(index), float(index)):
            assert circle_reduction(cfg, same, 2.18).length == problem.length


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
    assert s[1] == pytest.approx(0.1, rel=1e-15, abs=0.0)
    assert problem.two_sharp == 6.0 and problem.reduced_dim == 3.0


_BAD_PROBLEM_VALUES = {
    "circle length": ("length", [None, "6.28", True, 0.0, -1.0, math.nan, math.inf]),
    "transverse weight": ("weight", [None, "1", True, 0.0, math.inf]),
    "alpha": ("alpha", [None, "0.3", True, 0.0, -0.3, math.nan]),
    "exponent p": ("p", [None, "5", True, 1.0, math.inf]),
    "orbit volume": ("orbit_volume", ["1", True, 0.0, math.nan]),
}


@pytest.mark.parametrize(
    "what, field, value",
    [
        pytest.param(what, field, value, id="%s%d" % (field, i))
        for what, (field, values) in _BAD_PROBLEM_VALUES.items()
        for i, value in enumerate(values)
    ],
)
def test_problem_fields_are_checked_by_name(what, field, value):
    fields = dict(length=2.0 * math.pi, weight=1.0, alpha=0.3, p=5.0, f_samples=np.ones(64), orbit_volume=1.0)
    with pytest.raises(PreconditionError, match=what):
        ReducedProblem(**{**fields, field: value})


def test_problem_fields_keep_the_bits_of_their_floats():
    fields = dict(length=2.0 * math.pi, weight=0.1, alpha=1.0 / 3.0, p=7.0 / 3.0, orbit_volume=math.e)
    problem = ReducedProblem(f_samples=np.ones(64), **{k: np.float64(v) for k, v in fields.items()})
    for name, value in fields.items():
        got = getattr(problem, name)
        assert type(got) is float and got.hex() == value.hex()
    assert type(ReducedProblem(length=6, weight=1, alpha=1, p=5, f_samples=np.ones(64)).alpha) is float


@pytest.mark.parametrize("offset, below", [(1e-4, True), (-1e-4, False)])
def test_below_threshold_is_strict_at_a_relative_offset_of_1e_4(offset, below):
    # threshold = A^{2/3} / K_3 at p = 5 and f = 1: choose A to put it at Q (1 + offset)
    q = constant_solution(_problem(alpha=0.7)).quotient_value
    area = (q * (1.0 + offset) * sobolev_constant(3)) ** 1.5
    problem = ReducedProblem(length=2.0 * math.pi, weight=1.0, alpha=0.7, p=5.0, f_samples=np.ones(96),
                             orbit_volume=area)
    report = constant_solution(problem)
    assert report.threshold == pytest.approx(q * (1.0 + offset), rel=1e-12, abs=0.0)
    assert report.below_threshold is below


def test_classify_resolves_a_relative_range_of_1e_5_but_not_1e_9():
    s = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
    assert solver._classify(1.0 + 5e-6 * np.cos(s)) == "nonconstant"
    assert solver._classify(1.0 + 5e-10 * np.cos(s)) == "constant"


def test_classify_calls_a_range_of_exactly_oscillation_tol_times_the_max_constant():
    # nonconstant only above the bound: find hi in [1, 2) whose range
    # x = OSCILLATION_TOL * hi is a multiple of hi's ulp, so that lo = hi - x
    # and hi - lo = x hold exactly
    tol = solver.OSCILLATION_TOL
    for k in range(math.ceil(tol * 2.0**52), math.ceil(tol * 2.0**52) + 1000):
        x = k * 2.0**-52
        hi = x / tol
        if tol * hi == x:
            break
    lo = hi - x
    assert hi - lo == tol * hi
    assert solver._classify(np.array([lo, hi])) == "constant"
    assert solver._classify(np.array([math.nextafter(lo, 0.0), hi])) == "nonconstant"


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
