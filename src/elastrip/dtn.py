"""Angular-spectrum machinery: mode decomposition and the DtN symbol.

The field above the artificial plane x3 = h is a superposition of upward P and
S modes.  Per horizontal frequency xi that superposition determines a 3x3
symbol M(xi) mapping boundary displacement to surface traction; applying it
mode by mode realizes the transparent boundary condition.

Fields are cell-periodic: the continuum Fourier integral is replaced by a
lattice sum over xi = 2*pi*(j1/Lambda1, j2/Lambda2).  DFT convention: plain
forward sum, 1/N inverse, composed pairs are normalization free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintError, ElastripError
from .params import ElasticParams, stability_constants, vertical_wavenumber_grid


@dataclass(frozen=True)
class SpectralGrid:
    """Symmetric frequency lattice xi = 2*pi*(j1/L1, j2/L2), |j_i| <= N_i.

    Frequencies are stored in FFT order so lattice arrays align with numpy
    FFT axes.  The collocation grid has n_i = 2*N_i + 1 points per direction.
    """

    N1: int
    N2: int
    cell: tuple[float, float]

    def __post_init__(self):
        if self.N1 < 0 or self.N2 < 0:
            raise ConstraintError("mode counts must be nonnegative")
        if len(self.cell) != 2 or not all(math.isfinite(L) and L > 0 for L in self.cell):
            raise ConstraintError(
                f"cell lengths must be two finite positive numbers, got {self.cell}")

    @property
    def n1(self) -> int:
        return 2 * self.N1 + 1

    @property
    def n2(self) -> int:
        return 2 * self.N2 + 1

    @property
    def cell_area(self) -> float:
        return self.cell[0] * self.cell[1]

    def mode_indices(self):
        """Integer lattice indices (j1, j2) in FFT order, read-only.

        The grid is frozen, so they are built once per grid, at the first call.
        """
        return self._mode_indices

    @cached_property
    def _mode_indices(self):
        out = tuple(np.fft.fftfreq(n, d=1.0 / n).round().astype(int) for n in (self.n1, self.n2))
        for j in out:
            j.flags.writeable = False
        return out

    def frequencies(self):
        """xi1[n1], xi2[n2] in FFT order."""
        j1, j2 = self.mode_indices()
        return 2 * np.pi * j1 / self.cell[0], 2 * np.pi * j2 / self.cell[1]

    def frequency_mesh(self):
        """Broadcast xi arrays XI1[n1,1], XI2[1,n2] and |xi|^2."""
        xi1, xi2 = self.frequencies()
        XI1 = xi1[:, None]
        XI2 = xi2[None, :]
        return XI1, XI2, XI1**2 + XI2**2


class BoundaryTrace:
    """Complex 3-vector data on the horizontal grid at x3 = h.

    ``coefficients`` has shape (3, n1, n2), the lattice coefficients per
    component, so that values = sum_j coeff_j exp(i xi_j . x').  A trace
    is built from its coefficients, as a solve leaves them, and forms
    ``values`` by one inverse FFT at its first access.  ``modes``, the
    FFT-order flat indices m1 n2 + m2 of some modes, says that every other
    coefficient is zero, so the mode sums of :func:`decompose_trace` and
    :func:`energy_flux` run over those modes only; None stands for every
    mode.
    """

    def __init__(self, coefficients: np.ndarray, grid: SpectralGrid,
                 modes: np.ndarray | None = None):
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.shape != (3, grid.n1, grid.n2):
            raise ConstraintError(
                f"coefficient shape {coefficients.shape} != (3, {grid.n1}, {grid.n2})")
        self.coefficients, self.grid, self.modes = coefficients, grid, modes

    @cached_property
    def values(self) -> np.ndarray:
        return np.fft.ifft2(self.coefficients, axes=(1, 2)) * (self.grid.n1 * self.grid.n2)


@dataclass
class ModeAmplitudes:
    """P/S amplitudes per lattice point: A_p scalar, A_s and A_s_tilde 3-vectors.

    A_s is orthogonal to (xi, gamma) in the unconjugated sense, and
    A_s = (xi, gamma) x A_s_tilde with |A_s|^2 = k_s^2 |A_s_tilde|^2.
    """

    A_p: np.ndarray        # (n1, n2)
    A_s: np.ndarray        # (3, n1, n2)
    A_s_tilde: np.ndarray  # (3, n1, n2)
    grid: SpectralGrid


def _wavenumbers(params: ElasticParams, xi_sq):
    """The vertical wavenumbers beta (P) and gamma (S) at |xi|^2 = ``xi_sq``
    and rho = |xi|^2 + beta gamma: (beta, gamma, rho)."""
    beta = vertical_wavenumber_grid(params.k_p, xi_sq)
    gamma = vertical_wavenumber_grid(params.k_s, xi_sq)
    return beta, gamma, xi_sq + beta * gamma


def decomposition_matrices(xi, params: ElasticParams):
    """The 4x4 system matrix D_tilde and its restricted inverse D (4x3).

    D_tilde stacks the mode-superposition rows against the orthogonality row;
    D solves D_tilde @ (D @ v) = (v, 0) for every 3-vector v.  D is obtained
    by a numerical 4x4 solve rather than transcribing the closed form (the
    printed closed form has an ambiguous entry).  ``xi`` of shape (..., 2)
    gives D_tilde (..., 4, 4) and D (..., 4, 3).
    """
    xi = np.asarray(xi, dtype=float)
    xi1, xi2 = xi[..., 0], xi[..., 1]
    beta, gamma, rho = _wavenumbers(params, xi1**2 + xi2**2)
    D_tilde = np.zeros(xi.shape[:-1] + (4, 4), dtype=complex)
    for row, col, val in ((0, 0, xi1), (0, 1, 1), (1, 0, xi2), (1, 2, 1), (2, 0, beta),
                          (2, 3, 1), (3, 1, xi1), (3, 2, xi2), (3, 3, gamma)):
        D_tilde[..., row, col] = val
    singular = np.abs(rho) < 1e-14 * max(1.0, params.k_s**2)
    if singular.any():
        bad = xi.reshape(-1, 2)[np.argmax(singular.ravel())]
        raise ElastripError(f"decomposition matrix singular at xi={tuple(map(float, bad))}")
    rhs = np.eye(4, 3, dtype=complex)
    D = np.linalg.solve(D_tilde, np.broadcast_to(rhs, D_tilde.shape[:-1] + (3,)))
    return D_tilde, D


def dtn_symbol_grid(XI1: np.ndarray, XI2: np.ndarray, params: ElasticParams) -> np.ndarray:
    """DtN symbol on broadcastable frequency arrays; returns shape (3, 3, ...).

    Traction coefficients are i*M(xi)*u_hat; numpy scalars give one 3x3 M.
    Entry structure: symmetric in the upper-left 2x2 block, antisymmetric in
    the third row/column pair, gamma*omega^2/rho in the corner.
    """
    mu, w = params.mu, params.omega
    xi_sq = XI1**2 + XI2**2
    beta, gamma, rho = _wavenumbers(params, xi_sq)
    ks2 = params.k_s**2
    gmb = gamma - beta
    c = 2 * mu * xi_sq - w * w + 2 * mu * beta * gamma
    shape = np.broadcast_shapes(XI1.shape, XI2.shape)
    M = np.zeros((3, 3) + shape, dtype=complex)
    M[0, 0] = mu * (gmb * XI2**2 + ks2 * beta)
    M[0, 1] = -mu * XI1 * XI2 * gmb
    M[0, 2] = c * XI1
    M[1, 0] = M[0, 1]
    M[1, 1] = mu * (gmb * XI1**2 + ks2 * beta)
    M[1, 2] = c * XI2
    M[2, 0] = -c * XI1
    M[2, 1] = -c * XI2
    M[2, 2] = gamma * w * w
    return M / rho


def _every(modes: np.ndarray | None):
    """An index over a flat mode axis: ``modes``, or every mode for None."""
    return slice(None) if modes is None else modes


def decompose_trace(trace: BoundaryTrace, params: ElasticParams) -> ModeAmplitudes:
    """Split a boundary trace into P and S amplitudes per lattice mode.

    Only the trace's ``modes`` are decomposed; the amplitudes of the
    others, whose coefficients are zero, are zero."""
    grid = trace.grid
    n, live = grid.n1 * grid.n2, _every(trace.modes)
    XI1, XI2, xi_sq = (np.broadcast_to(a, (grid.n1, grid.n2)).reshape(n)[live]
                       for a in grid.frequency_mesh())
    _, D = decomposition_matrices(np.stack([XI1, XI2], axis=-1), params)  # (m, 4, 3)
    A = np.zeros((7, n), dtype=complex)  # A_p, A_s, A_s_tilde
    A[:4, live] = np.einsum("mij,jm->im", D, trace.coefficients.reshape(3, n)[:, live])
    kvec = np.stack([XI1, XI2, _wavenumbers(params, xi_sq)[1]])
    A[4:, live] = -np.cross(kvec, A[1:4, live], axis=0) / params.k_s**2
    A = A.reshape(7, grid.n1, grid.n2)
    return ModeAmplitudes(A_p=A[0], A_s=A[1:4], A_s_tilde=A[4:], grid=grid)


def extend_field(trace: BoundaryTrace, x3: float, params: ElasticParams) -> np.ndarray:
    """Evaluate the upward representation at height x3 >= h (relative offset).

    ``x3`` is the offset t = x3 - h above the boundary plane; it must be finite
    and nonnegative.  Per mode the coefficients c propagate by
    (M_p e^{i beta t} + M_s e^{i gamma t}) c / rho, where M_p = a b^T with
    a = (xi, beta), b = (xi, gamma) and M_s = rho I - M_p, so they become
    e^{i gamma t} c + (e^{i beta t} - e^{i gamma t}) a (b . c) / rho, evaluated
    on the whole frequency mesh at once.  Returns the 3-vector field on the
    collocation grid.
    """
    if not (math.isfinite(x3) and x3 >= 0):
        raise ConstraintError(f"extension needs a finite offset >= 0 above the plane, got {x3}")
    XI1, XI2, xi_sq = trace.grid.frequency_mesh()
    beta, gamma, rho = _wavenumbers(params, xi_sq)
    a = np.stack(np.broadcast_arrays(XI1, XI2, beta))
    c = trace.coefficients
    e_s = np.exp(1j * gamma * x3)
    p = (np.exp(1j * beta * x3) - e_s) * (XI1 * c[0] + XI2 * c[1] + gamma * c[2]) / rho
    out = e_s * c + a * p
    return BoundaryTrace(out, trace.grid).values


def energy_flux(trace: BoundaryTrace, params: ElasticParams,
                symbol: np.ndarray) -> tuple[float, float]:
    """Both sides of the boundary power identity for a trace.

    Returns (flux, power): flux = Im of the cell integral of conj(u).(DtN u),
    power = w^2 * sum over propagating modes of (beta|A_p|^2 + gamma|A_s~|^2)
    times the cell area.  The two agree mode by mode.  ``symbol`` is the
    :func:`dtn_symbol_grid` of the trace's frequency mesh.  The terms are
    formed on the trace's ``modes`` and summed over every mode, zeros
    included.
    """
    grid = trace.grid
    n, live = grid.n1 * grid.n2, _every(trace.modes)
    coeff = trace.coefficients.reshape(3, n)[:, live]
    pairing = np.zeros((3, n), dtype=complex)
    pairing[:, live] = np.conj(coeff) * (
        1j * np.einsum("ijm,jm->im", symbol.reshape(3, 3, n)[:, :, live], coeff))
    flux = grid.cell_area * float(np.imag(np.sum(pairing)))
    amps = decompose_trace(trace, params)
    _, _, xi_sq = grid.frequency_mesh()
    beta, gamma, _ = _wavenumbers(params, xi_sq)
    w2 = params.omega**2
    p_term = np.where(xi_sq < params.k_p**2, np.real(beta) * np.abs(amps.A_p) ** 2, 0.0)
    s_term = np.where(xi_sq < params.k_s**2,
                      np.real(gamma) * np.sum(np.abs(amps.A_s_tilde) ** 2, axis=0), 0.0)
    power = grid.cell_area * w2 * float(np.sum(p_term) + np.sum(s_term))
    return flux, power


# the roundoff that each check of verify_symbol_properties forgives
_SYMBOL_TOL = 1e-12


def verify_symbol_properties(params: ElasticParams, n_samples: int = 10_000,
                             seed: int = 0) -> dict:
    """Sampled numerical check of the symbol band properties.

    Draws |xi| in (K w, 10 K w] and checks min eig Re(-iM) > 0; draws
    |xi| <= K w and checks max |M_ij| <= C_K w; checks the |rho| band bounds
    and the |gamma - beta| bound.  Each check forgives ``_SYMBOL_TOL`` of
    roundoff: absolute on the eigenvalue, relative on the bounds.
    Violations are collected, not raised, each as (check name, xi, value).
    """
    if n_samples <= 0:
        raise ConstraintError("n_samples must be positive")
    sc = stability_constants(params)
    w = params.omega
    rng = np.random.default_rng(seed)
    violations = []

    def flag(name, x1, x2, values, idx):  # the violation at sample idx
        violations.append((name, (float(x1[idx]), float(x2[idx])), float(values[idx])))

    def sample_xi(r_lo, r_hi, n):
        r = np.sqrt(rng.uniform(r_lo**2, r_hi**2, size=n))
        th = rng.uniform(0, 2 * np.pi, size=n)
        return r * np.cos(th), r * np.sin(th), r

    # High band: positive definite Re(-iM)
    x1, x2, _ = sample_xi(sc.K * w * (1 + 1e-9), 10 * sc.K * w, n_samples)
    M = dtn_symbol_grid(x1, x2, params)
    Mh = np.moveaxis(M, (0, 1), (-2, -1))
    ReNeg = (-1j * Mh + np.conj(np.swapaxes(-1j * Mh, -2, -1))) / 2
    eigs = np.linalg.eigvalsh(ReNeg)
    min_eig = float(eigs[..., 0].min())
    if min_eig <= -_SYMBOL_TOL:
        flag("high_band_definiteness", x1, x2, eigs[..., 0], int(np.argmin(eigs[..., 0])))

    # Low band: entry bound
    x1, x2, _ = sample_xi(0.0, sc.K * w, n_samples)
    M = dtn_symbol_grid(x1, x2, params)
    entry_max = np.abs(M).max(axis=(0, 1))
    max_ratio = float(entry_max.max() / (sc.C_K * w))
    if max_ratio > 1 + _SYMBOL_TOL:
        flag("low_band_entry_bound", x1, x2, entry_max / (sc.C_K * w), int(np.argmax(entry_max)))

    # rho band bounds and |gamma - beta|
    x1, x2, r = sample_xi(0.0, sc.K * w, n_samples)
    beta, gamma, rho = _wavenumbers(params, x1**2 + x2**2)
    rho = np.abs(rho)
    kp, ks = params.k_p, params.k_s
    lo = np.where(r <= ks, kp**2, sc.c_K * w**2)
    hi = np.where(r <= kp, kp * ks, ks**2)
    bad = (rho < lo * (1 - _SYMBOL_TOL)) | (rho > hi * (1 + _SYMBOL_TOL))
    if bad.any():
        flag("rho_band", x1, x2, rho, int(np.argmax(bad)))
    gb = np.abs(gamma - beta)
    if (gb > math.sqrt(ks**2 - kp**2) * (1 + _SYMBOL_TOL)).any():
        flag("gamma_minus_beta", x1, x2, gb, int(np.argmax(gb)))

    return {
        "n_samples": n_samples,
        "seed": seed,
        "K": sc.K,
        "C_K": sc.C_K,
        "c_K": sc.c_K,
        "min_eig_high_band": min_eig,
        "max_entry_ratio_low_band": max_ratio,
        "violations": violations,
    }


def verify_symbol_suite(seed: int = 0, n_materials: int = 10,
                        n_xi: int = 10_000) -> dict:
    """Run the symbol checks (:func:`verify_symbol_properties`) over
    randomized admissible material parameters."""
    if n_materials <= 0:
        raise ConstraintError("n_materials must be positive")
    rng = np.random.default_rng(seed)
    reports = []
    n_violations = 0
    for k in range(n_materials):
        mu = float(rng.uniform(0.2, 4.0))
        lam = float(rng.uniform(-0.5 * mu, 5.0))   # keeps lam + 2mu/3 > 0
        omega = float(rng.uniform(0.1, 8.0))
        params = ElasticParams(lam=lam, mu=mu, omega=omega)
        rep = verify_symbol_properties(params, n_samples=n_xi, seed=seed + 1000 + k)
        rep["material"] = {"lam": lam, "mu": mu, "omega": omega}
        n_violations += len(rep["violations"])
        reports.append(rep)
    return {
        "n_materials": n_materials,
        "n_xi": n_xi,
        "n_checks": 4 * n_materials,
        "n_violations": n_violations,
        "reports": reports,
    }
