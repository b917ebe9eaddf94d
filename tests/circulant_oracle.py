"""Independent oracle for the inverse of P = -Delta_h + alpha on the circle.

P is circulant, so the discrete Fourier transform diagonalizes it: its
eigenvalue at mode k is 4/h^2 sin^2(pi k / m) + alpha, and P^{-1} g is one
real FFT pair with the reciprocal symbol in between (Neuberger's Sobolev
gradient).  It shares no code with symcrit's factored solve.
"""

import numpy as np


def p_inverse(h, alpha, g):
    m = g.size
    symbol = 4.0 / (h * h) * np.sin(np.pi * np.arange(m // 2 + 1) / m) ** 2 + alpha
    return np.fft.irfft(np.fft.rfft(g) / symbol, m)
