"""Independent oracle for one Newton step of the circle-reduced solver.

The step written with scipy.sparse: the cyclic tridiagonal Jacobian J from
one `sp.diags` call (corner offsets +-(m-1)), solved by SuperLU in the
natural order.  It shares no code with symcrit's banded solve.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def newton_step(problem, v, r):
    m, h = problem.m, problem.h
    inv_h2 = 1.0 / (h * h)
    off = np.full(m - 1, -inv_h2)
    main = 2.0 * inv_h2 + problem.alpha - problem.p * problem.f_samples * v ** (problem.p - 1.0)
    J = sp.diags([main, off, off, off[:1], off[:1]], [0, 1, -1, m - 1, 1 - m], format="csc")
    return spla.spsolve(J, -r, permc_spec="NATURAL")
