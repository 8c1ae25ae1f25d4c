"""Per-mode reference formulas for the angular-spectrum machinery.

A test helper, not a test module: pytest does not collect it.  The traction
of one upward mode is differentiated by hand, and a trace is rebuilt from its
P/S amplitudes by the mode superposition itself, so the DtN symbol and the
decomposition are checked by routes they do not use.  No run path calls
either.
"""

import numpy as np

from elastrip.dtn import BoundaryTrace, ModeAmplitudes
from elastrip.params import ElasticParams, vertical_wavenumber_grid


def mode_traction(xi, amps_p: complex, amps_s: np.ndarray, params: ElasticParams) -> np.ndarray:
    """Surface traction of a single upward mode, by analytic differentiation.

    The mode field is u = [A_p (xi, beta)^T e^{i beta t} + A_s e^{i gamma t}]
    e^{i xi.x'} with t = x3 - h; traction with nu = e3 is
    T u = 2 mu d3 u + lam (div u) e3 + mu e3 x (curl u), evaluated at t = 0
    with d_j -> i xi_j and d3 -> i beta (P part) or i gamma (S part).
    """
    xi = np.asarray(xi, dtype=float)
    beta = complex(vertical_wavenumber_grid(params.k_p, xi @ xi))
    gamma = complex(vertical_wavenumber_grid(params.k_s, xi @ xi))
    lam, mu = params.lam, params.mu
    kp_vec = np.array([xi[0], xi[1], beta], dtype=complex)

    def traction_of(U, d3):
        # U: amplitude 3-vector, derivative d_j = i*q_j with q = (xi1, xi2, d3)
        q = np.array([xi[0], xi[1], d3], dtype=complex)
        div = 1j * (q @ U)
        curl = 1j * np.cross(q, U)
        e3 = np.array([0, 0, 1.0])
        return 2 * mu * 1j * d3 * U + lam * div * e3 + mu * np.cross(e3, curl)

    t_p = traction_of(amps_p * kp_vec, beta)
    t_s = traction_of(np.asarray(amps_s, dtype=complex), gamma)
    return t_p + t_s


def reconstruct_trace(amps: ModeAmplitudes, params: ElasticParams) -> BoundaryTrace:
    """Inverse of decompose_trace: boundary values from (A_p, A_s)."""
    grid = amps.grid
    xi1, xi2 = grid.frequencies()
    _, _, xi_sq = grid.frequency_mesh()
    beta = vertical_wavenumber_grid(params.k_p, xi_sq)
    coeff = np.empty((3, grid.n1, grid.n2), dtype=complex)
    coeff[0] = amps.A_p * xi1[:, None] + amps.A_s[0]
    coeff[1] = amps.A_p * xi2[None, :] + amps.A_s[1]
    coeff[2] = amps.A_p * beta + amps.A_s[2]
    return BoundaryTrace(coeff, grid)
