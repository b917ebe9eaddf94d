"""Independent oracle for the gradient of the circle-reduced quotient.

The direct quotient rule: with N(u) = w int |u'|^2 + alpha u^2 ds and
D(u) = w int f |u|^q ds,

    grad Q = (grad N - (2/q) (N/D) grad D) / D^{2/q},

written with np.roll differences.  It shares no code with symcrit's
fused evaluation, which works at the unit-energy point instead.
"""

import numpy as np


def quotient_gradient(problem, u):
    u = np.asarray(u, dtype=float)
    h, w, q, alpha = problem.h, problem.weight, problem.two_sharp, problem.alpha
    f = problem.f_samples
    du = (np.roll(u, -1) - u) / h
    lap = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (h * h)
    num = w * h * float(np.dot(du, du)) + alpha * w * h * float(np.dot(u, u))
    den = w * h * float(np.dot(f, np.abs(u) ** q))
    gnum = 2.0 * w * h * (-lap + alpha * u)
    gden = q * w * h * f * np.abs(u) ** (q - 2.0) * u
    return (gnum - (2.0 / q) * (num / den) * gden) / den ** (2.0 / q)
