import dataclasses
import math
import sys

import numpy as np
import pytest

from elastrip import dtn
from elastrip.dtn import (BoundaryTrace, SpectralGrid,
                          decompose_trace, decomposition_matrices,
                          dtn_symbol_grid, energy_flux, extend_field,
                          verify_symbol_properties, verify_symbol_suite)
from elastrip.errors import ConstraintError, ElastripError
from elastrip.params import ElasticParams, vertical_wavenumber_grid
from mode_oracles import mode_traction, reconstruct_trace

P = ElasticParams(lam=1.0, mu=1.0, omega=2.0)
CELL = (2 * np.pi, 2 * np.pi)


def random_trace(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((3, grid.n1, grid.n2)) \
        + 1j * rng.standard_normal((3, grid.n1, grid.n2))
    return BoundaryTrace(np.fft.fft2(v, axes=(1, 2)) / (grid.n1 * grid.n2), grid)


def test_symbol_at_zero_frequency():
    """M(0) is diagonal with the two wave impedances."""
    M = dtn_symbol_grid(np.float64(0.0), np.float64(0.0), P)
    w, lam, mu = P.omega, P.lam, P.mu
    expect = np.diag([w * math.sqrt(mu), w * math.sqrt(mu),
                      w * math.sqrt(lam + 2 * mu)])
    np.testing.assert_allclose(M, expect, atol=1e-13)


def test_symbol_entry_structure():
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi = rng.normal(scale=2.0, size=2)
        M = dtn_symbol_grid(xi[0], xi[1], P)
        assert M[0, 1] == pytest.approx(M[1, 0], rel=1e-13)
        assert M[0, 2] == pytest.approx(-M[2, 0], rel=1e-13)
        assert M[1, 2] == pytest.approx(-M[2, 1], rel=1e-13)


def test_symbol_grid_matches_pointwise():
    """i M(xi) e_j on the lattice = the hand-differentiated traction of D(xi) e_j.

    omega = 2, mu = 1 and cell 2 pi put (+-2, 0) and (0, +-2) exactly on
    |xi| = k_s, where gamma = 0.
    """
    grid = SpectralGrid(N1=2, N2=2, cell=CELL)
    XI1, XI2, xi_sq = grid.frequency_mesh()
    assert np.count_nonzero(xi_sq == P.k_s**2) == 4
    Mg = dtn_symbol_grid(XI1, XI2, P)
    xi1, xi2 = grid.frequencies()
    for i1, i2 in np.ndindex(grid.n1, grid.n2):
        xi = np.array([xi1[i1], xi2[i2]])
        _, D = decomposition_matrices(xi, P)
        for j in range(3):
            t_sym = 1j * Mg[:, j, i1, i2]
            t_dir = mode_traction(xi, D[0, j], D[1:, j], P)
            np.testing.assert_allclose(t_sym, t_dir, rtol=1e-13, atol=1e-13)


def test_decomposition_inverse_relation():
    """D solves the 4x4 system: D_tilde @ D stacks the identity over a zero row."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        xi = rng.normal(scale=2.5, size=2)
        Dt, D = decomposition_matrices(xi, P)
        DtD = Dt @ D
        np.testing.assert_allclose(DtD[:3], np.eye(3), atol=1e-11)
        np.testing.assert_allclose(DtD[3], 0.0, atol=1e-11)


def test_decomposition_matrices_broadcast_over_xi(monkeypatch):
    """One call over an xi array = the per-xi systems; decompose_trace = a per-mode loop."""
    rng = np.random.default_rng(8)
    XI = rng.normal(scale=2.5, size=(4, 5, 2))
    Dt, D = decomposition_matrices(XI, P)
    assert Dt.shape == (4, 5, 4, 4) and D.shape == (4, 5, 4, 3)
    for idx in np.ndindex(4, 5):
        x1, x2 = XI[idx]
        beta = vertical_wavenumber_grid(P.k_p, x1**2 + x2**2)
        gamma = vertical_wavenumber_grid(P.k_s, x1**2 + x2**2)
        Dt1 = np.array([[x1, 1, 0, 0], [x2, 0, 1, 0], [beta, 0, 0, 1], [0, x1, x2, gamma]])
        np.testing.assert_allclose(Dt[idx], Dt1, rtol=1e-15, atol=0)
        np.testing.assert_allclose(D[idx], np.linalg.solve(Dt1, np.eye(4, 3)), atol=1e-13)

    grid = SpectralGrid(N1=3, N2=2, cell=(3.0, 5.0))
    trace = random_trace(grid, seed=4)
    amps = decompose_trace(trace, P)
    xi1, xi2 = grid.frequencies()
    for i1, i2 in np.ndindex(grid.n1, grid.n2):
        xi = np.array([xi1[i1], xi2[i2]])
        A = decomposition_matrices(xi, P)[1] @ trace.coefficients[:, i1, i2]
        kvec = np.array([xi[0], xi[1], vertical_wavenumber_grid(P.k_s, xi @ xi)])
        np.testing.assert_allclose(amps.A_p[i1, i2], A[0], rtol=1e-13)
        np.testing.assert_allclose(amps.A_s[:, i1, i2], A[1:], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(amps.A_s_tilde[:, i1, i2], -np.cross(kvec, A[1:]) / P.k_s**2,
                                   rtol=1e-13, atol=1e-15)

    # with both wavenumbers forced to 0, rho = |xi|^2 vanishes at xi = 0 only
    monkeypatch.setattr("elastrip.dtn.vertical_wavenumber_grid", lambda k, xi_sq: 0 * xi_sq)
    XI[2, 3] = 0.0
    with pytest.raises(ElastripError, match=r"xi=\(0\.0, 0\.0\)"):
        decomposition_matrices(XI, P)


def test_decompose_reconstruct_roundtrip():
    grid = SpectralGrid(N1=2, N2=2, cell=CELL)
    trace = random_trace(grid, seed=5)
    amps = decompose_trace(trace, P)
    back = reconstruct_trace(amps, P)
    np.testing.assert_allclose(back.values, trace.values, atol=1e-10)


def test_shear_amplitude_identities():
    """A_s = k x A_s_tilde with k = (xi, gamma), hence k . A_s = 0 per mode."""
    grid = SpectralGrid(N1=2, N2=2, cell=CELL)
    amps = decompose_trace(random_trace(grid, seed=11), P)
    xi1, xi2 = grid.frequencies()
    for i1 in range(grid.n1):
        for i2 in range(grid.n2):
            xi = np.array([xi1[i1], xi2[i2]])
            gamma = vertical_wavenumber_grid(P.k_s, xi @ xi)
            kvec = np.array([xi[0], xi[1], gamma])
            As = amps.A_s[:, i1, i2]
            Ast = amps.A_s_tilde[:, i1, i2]
            # unconjugated orthogonality of the shear part
            assert abs(kvec @ As) < 1e-10 * max(1.0, np.abs(As).max())
            np.testing.assert_allclose(np.cross(kvec, Ast), As, atol=1e-10)


def test_extend_field_at_zero_offset():
    """At t = 0 the propagator is the identity, and a trace built from its
    coefficients takes the one inverse FFT that forms its values, so the
    extension is those values exactly, with no FFT round trip."""
    grid = SpectralGrid(N1=24, N2=24, cell=CELL)
    trace = random_trace(grid, seed=2)
    vals = extend_field(trace, 0.0, ElasticParams(lam=1.0, mu=1.0, omega=1.0))
    assert np.array_equal(vals, trace.values)


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_extend_field_matches_mode_superposition(t):
    """Closed form = decompose, then A_p (xi, beta) e^{i beta t} + A_s e^{i gamma t}."""
    grid = SpectralGrid(N1=4, N2=3, cell=(5.0, 7.0))
    trace = random_trace(grid, seed=6)
    amps = decompose_trace(trace, P)
    XI1, XI2, xi_sq = grid.frequency_mesh()
    beta = vertical_wavenumber_grid(P.k_p, xi_sq)
    gamma = vertical_wavenumber_grid(P.k_s, xi_sq)
    a = np.stack(np.broadcast_arrays(XI1, XI2, beta))
    coeff = amps.A_p * a * np.exp(1j * beta * t) + amps.A_s * np.exp(1j * gamma * t)
    expect = BoundaryTrace(coeff, grid).values
    vals = extend_field(trace, t, P)
    assert np.abs(vals - expect).max() <= 1e-12 * np.abs(expect).max()


def test_extend_field_rejects_downward():
    """Below the plane, and at a non-finite offset, extension is a typed error."""
    trace = random_trace(SpectralGrid(N1=1, N2=1, cell=CELL))
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ConstraintError, match="finite offset"):
            extend_field(trace, t, P)


def test_extend_field_evanescent_decay():
    # single evanescent mode decays monotonically with height
    grid = SpectralGrid(N1=2, N2=0, cell=CELL)
    coeff = np.zeros((3, grid.n1, grid.n2), dtype=complex)
    i1 = list(grid.mode_indices()[0]).index(2)   # |xi| = 2 = k_s, use 2,0 -> on axis
    coeff[2, i1, 0] = 1.0
    trace = BoundaryTrace(coeff, grid)
    params = ElasticParams(lam=1.0, mu=1.0, omega=1.0)   # k_s = 1 < |xi| = 2
    n0 = np.abs(extend_field(trace, 0.0, params)).max()
    n1 = np.abs(extend_field(trace, 0.5, params)).max()
    n2 = np.abs(extend_field(trace, 1.0, params)).max()
    assert n0 > n1 > n2


def test_traction_oracle_equivalence():
    """Analytic mode traction agrees with i M(xi) u_hat for random triples."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        mu = rng.uniform(0.2, 3.0)
        lam = rng.uniform(-0.5 * mu, 4.0)
        params = ElasticParams(lam=lam, mu=mu, omega=rng.uniform(0.2, 5.0))
        xi = rng.normal(size=2) * params.omega
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        t_sym = 1j * dtn_symbol_grid(xi[0], xi[1], params) @ u
        _, D = decomposition_matrices(xi, params)
        amps = D @ u
        t_dir = mode_traction(xi, amps[0], amps[1:], params)
        assert np.linalg.norm(t_dir - t_sym) <= 1e-10 * np.linalg.norm(t_sym)


def test_energy_flux_two_evaluations_agree():
    """Symbol pairing and propagating mode sum give the same boundary power."""
    grid = SpectralGrid(N1=3, N2=3, cell=CELL)
    XI1, XI2, _ = grid.frequency_mesh()
    symbol = dtn_symbol_grid(XI1, XI2, P)
    for seed in range(5):
        trace = random_trace(grid, seed=seed)
        flux, power = energy_flux(trace, P, symbol)
        assert power >= -1e-12
        assert flux == pytest.approx(power, rel=1e-10, abs=1e-10)


def test_symbol_properties_no_violations():
    rep = verify_symbol_properties(P, n_samples=2000, seed=1)
    assert rep["violations"] == []
    assert rep["min_eig_high_band"] > 0
    assert rep["max_entry_ratio_low_band"] <= 1 + 1e-12


def test_symbol_suite_runs_clean():
    rep = verify_symbol_suite(seed=3, n_materials=3, n_xi=500)
    assert rep["n_violations"] == 0
    assert rep["n_checks"] == 12


TOL = dtn._SYMBOL_TOL


def _violations():
    return [v[0] for v in verify_symbol_properties(P, n_samples=500, seed=2)["violations"]]


@pytest.mark.parametrize("past", [False, True])
def test_definiteness_is_flagged_past_the_tolerance(monkeypatch, past):
    """Re(-iM) shifted so that its smallest sampled eigenvalue is -2 TOL is
    flagged by name, at -TOL / 2 it is not."""
    min_eig = verify_symbol_properties(P, n_samples=500, seed=2)["min_eig_high_band"]
    target = -2 * TOL if past else -TOL / 2
    real, K = dtn.dtn_symbol_grid, dtn.stability_constants(P).K

    def shifted(XI1, XI2, params):  # -i (M + i t) = -iM + t: every eigenvalue moves by t
        M = real(XI1, XI2, params)
        if np.min(XI1**2 + XI2**2) > (K * params.omega) ** 2:  # the high band's samples
            M = M + 1j * (target - min_eig) * np.eye(3)[:, :, None]
        return M

    monkeypatch.setattr(dtn, "dtn_symbol_grid", shifted)
    assert _violations() == (["high_band_definiteness"] if past else [])


@pytest.mark.parametrize("past", [False, True])
def test_entry_bound_is_flagged_past_the_tolerance(monkeypatch, past):
    """C_K lowered so that the largest sampled entry ratio is 1 + 2 TOL is
    flagged by name, at 1 + TOL / 2 it is not."""
    ratio = verify_symbol_properties(P, n_samples=500, seed=2)["max_entry_ratio_low_band"]
    sc = dtn.stability_constants(P)
    lowered = dataclasses.replace(sc, C_K=sc.C_K * ratio / (1 + (2 if past else 0.5) * TOL))
    monkeypatch.setattr(dtn, "stability_constants", lambda params: lowered)
    assert _violations() == (["low_band_entry_bound"] if past else [])


def _pushed_wavenumbers(monkeypatch, push):
    """_wavenumbers as verify_symbol_properties reads it, with sample 0's
    (beta, gamma, rho) replaced by push(|xi|, beta, gamma, rho); the
    symbol's own reads are untouched."""
    real = dtn._wavenumbers

    def pushed(params, xi_sq):
        beta, gamma, rho = real(params, xi_sq)
        if sys._getframe(1).f_code.co_name == "verify_symbol_properties":
            beta, gamma, rho = beta.copy(), gamma.copy(), rho.copy()
            beta[0], gamma[0], rho[0] = push(math.sqrt(xi_sq[0]), beta[0], gamma[0], rho[0])
        return beta, gamma, rho

    monkeypatch.setattr(dtn, "_wavenumbers", pushed)


@pytest.mark.parametrize("side, past", [("above", False), ("above", True),
                                        ("below", False), ("below", True)])
def test_rho_band_is_flagged_past_the_tolerance(monkeypatch, side, past):
    """|rho| of one sample at 2 TOL above its upper band bound or below its
    lower one is flagged by name, at TOL / 2 it is not."""
    kp, ks, c_K = P.k_p, P.k_s, dtn.stability_constants(P).c_K
    step = (2 if past else 0.5) * TOL

    def push(r, beta, gamma, rho):
        if side == "above":
            return beta, gamma, (kp * ks if r <= kp else ks**2) * (1 + step)
        return beta, gamma, (kp**2 if r <= ks else c_K * P.omega**2) * (1 - step)

    _pushed_wavenumbers(monkeypatch, push)
    assert _violations() == (["rho_band"] if past else [])


@pytest.mark.parametrize("past", [False, True])
def test_gamma_minus_beta_is_flagged_past_the_tolerance(monkeypatch, past):
    """|gamma - beta| of one sample at 2 TOL above sqrt(k_s^2 - k_p^2) is
    flagged by name, at TOL / 2 it is not."""
    bound = math.sqrt(P.k_s**2 - P.k_p**2)
    step = (2 if past else 0.5) * TOL
    _pushed_wavenumbers(monkeypatch, lambda r, beta, gamma, rho:
                        (0.0, bound * (1 + step), rho))
    assert _violations() == (["gamma_minus_beta"] if past else [])


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="rho = |xi|^2 + beta gamma cancels where both waves are evanescent "
                          "(ROADMAP item 8(c))")
@pytest.mark.parametrize("omega", [1e-4, 1e-6])
def test_rho_keeps_its_digits_at_low_frequency(omega):
    """Where |xi| > k_s, rho = |xi|^2 - |beta| |gamma| equals
    (|xi|^2 (k_p^2 + k_s^2) - k_p^2 k_s^2) / (|xi|^2 + |beta| |gamma|), a
    form that does not cancel.  On the N = 8 lattice of the default cell
    the direct form's largest relative error is 2.3e-14 at omega = 1, and
    4.2e-6 and 2.3e-2 at omega = 1e-4 and 1e-6."""
    params = ElasticParams(lam=1.0, mu=1.0, omega=omega)
    _, _, xi_sq = SpectralGrid(N1=8, N2=8, cell=CELL).frequency_mesh()
    beta, gamma, rho = dtn._wavenumbers(params, xi_sq)
    kp2, ks2 = params.k_p**2, params.k_s**2
    evanescent = xi_sq > ks2
    exact = (xi_sq * (kp2 + ks2) - kp2 * ks2) / (xi_sq + np.abs(beta) * np.abs(gamma))
    assert evanescent.sum() == 288
    np.testing.assert_allclose(rho[evanescent], exact[evanescent], rtol=1e-12, atol=0)


def test_mode_indices_are_built_once_per_grid(monkeypatch):
    """A flat run builds the FFT-order indices of its one grid once, two
    fftfreq calls, however often the frequencies are asked for; the arrays
    are read-only and equal fftfreq's."""
    from elastrip import harness
    from elastrip.config import from_dict

    fftfreq, calls = np.fft.fftfreq, []

    def counted(n, d=1.0):
        calls.append(n)
        return fftfreq(n, d)

    monkeypatch.setattr(np.fft, "fftfreq", counted)
    harness.deterministic_run(from_dict({"surface": {"delta": 0.25},
                                         "discretization": {"N1": 2, "N2": 3, "n_z": 8}}))
    assert calls == [5, 7]
    grid = SpectralGrid(N1=1, N2=2, cell=CELL)
    j1, j2 = grid.mode_indices()
    assert grid.mode_indices()[0] is j1
    assert j1.tolist() == [0, 1, -1] and j2.tolist() == [0, 1, 2, -2, -1]
    with pytest.raises(ValueError):
        j1[0] = 5
