"""Independent oracle for one Newton step of the circle-reduced solver.

The bordered step written with scipy.sparse: the cyclic tridiagonal
Jacobian J from one `sp.diags` call (corner offsets +-(m-1)), bordered
with tau = v' through `sp.bmat` when f is constant and tau does not
vanish, and solved by SuperLU in the natural order, which keeps the
dense border column last.  It shares no code with symcrit's banded
solve.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def newton_step(problem, v, r):
    m, h = problem.m, problem.h
    f = problem.f_samples
    inv_h2 = 1.0 / (h * h)
    off = np.full(m - 1, -inv_h2)
    main = 2.0 * inv_h2 + problem.alpha - problem.p * f * v ** (problem.p - 1.0)
    J = sp.diags([main, off, off, off[:1], off[:1]], [0, 1, -1, m - 1, 1 - m], format="csc")
    rhs = -r
    tau = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h)
    if float(f.max() - f.min()) == 0.0 and float(np.max(np.abs(tau))) > 1e-13 * float(np.max(np.abs(v))):
        J = sp.bmat([[J, tau.reshape(-1, 1)], [tau.reshape(1, -1), None]], format="csc")
        rhs = np.append(rhs, 0.0)
    return spla.spsolve(J, rhs, permc_spec="NATURAL")[:m]
