import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from elastrip.dtn import SpectralGrid
from elastrip.errors import ConstraintError
from elastrip.geometry import CutoffFn, make_profile
from elastrip.mesh import StripMesh
from elastrip.params import ElasticParams, StripGeometry
from elastrip.solver import SolverContext, StripOperator, TransformCoefficients
from elastrip.sources import BumpSource, HarmonicFactor
from flat_oracles import dense_1d

CELL = (2 * np.pi, 2 * np.pi)


def mesh(nz=8, N=2):
    return StripMesh(grid=SpectralGrid(N1=N, N2=N, cell=CELL),
                     bottom=0.0, top=1.0, n_elements=nz)


def test_one_element_mass_matrix():
    """Hand-integrated linear-element mass matrix on a single element."""
    m = StripMesh(grid=SpectralGrid(N1=0, N2=0, cell=CELL),
                  bottom=0.0, top=1.0, n_elements=1)
    Mz, Sz, Dz = dense_1d(m)
    np.testing.assert_allclose(Mz, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14)
    np.testing.assert_allclose(Sz, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(Dz, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-14)


def test_1d_matrices_exact_on_linears():
    """2-point Gauss is exact for the cubic integrands of linear data."""
    m = mesh(nz=7)
    Mz, Sz, Dz = dense_1d(m)
    u = 2.0 * m.nodes + 0.3      # u(z) = 2z + 0.3
    v = -m.nodes + 1.1           # v(z) = 1.1 - z
    # int_0^1 u v dz = int (-2z^2 + 1.9z + 0.33) dz
    assert u @ Mz @ v == pytest.approx(-2 / 3 + 0.95 + 0.33, rel=1e-13)
    # int u' v' dz = 2 * (-1)
    assert u @ Sz @ v == pytest.approx(-2.0, rel=1e-13)
    # int u v' dz = -int (2z + 0.3) dz = -1.3
    assert u @ Dz @ v == pytest.approx(-1.3, rel=1e-13)


def test_padded_transform_adjoint_pair():
    """<to_physical(C), W> = <C, to_modes_adjoint(W)> exactly."""
    m = mesh(nz=4, N=2)
    rng = np.random.default_rng(0)
    g = m.grid
    C = rng.standard_normal((3, g.n1, g.n2, 2, 2)) + 1j * rng.standard_normal((3, g.n1, g.n2, 2, 2))
    W = rng.standard_normal((3, m.P1, m.P2, 2, 2)) + 1j * rng.standard_normal((3, m.P1, m.P2, 2, 2))
    lhs = np.vdot(W, m.to_physical(C, ax1=1, ax2=2))
    rhs = np.vdot(m.to_modes_adjoint(W, ax1=1, ax2=2), C)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_physical_roundtrip_recovers_lattice_modes():
    m = mesh(nz=3, N=2)
    g = m.grid
    rng = np.random.default_rng(1)
    C = rng.standard_normal((g.n1, g.n2, 3, 2)) + 1j * rng.standard_normal((g.n1, g.n2, 3, 2))
    phys = m.to_physical(C, ax1=0, ax2=1)
    back = m.to_modes_adjoint(phys, ax1=0, ax2=1) / (m.P1 * m.P2)
    np.testing.assert_allclose(back, C, atol=1e-12)


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _zero_pad_ifft2(m, C, ax1):
    """Oracle of to_physical: modes into a zeroed padded spectrum, then np.fft.ifft2."""
    j1, j2 = m.grid.mode_indices()
    X = np.moveaxis(C, (ax1, ax1 + 1), (0, 1))
    padded = np.zeros((m.P1, m.P2) + X.shape[2:], dtype=complex)
    padded[np.ix_(j1 % m.P1, j2 % m.P2)] = X
    phys = np.fft.ifft2(padded, axes=(0, 1)) * (m.P1 * m.P2)
    return np.moveaxis(phys, (0, 1), (ax1, ax1 + 1))


transform_cases = settings(max_examples=40, deadline=None)(given(
    N1=st.integers(0, 4), N2=st.integers(0, 4), nz=st.integers(1, 8),
    ax1=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2**32 - 1)))


def _transform_case(N1, N2, nz, ax1, seed):
    """Mesh, random modes C with horizontal axes (ax1, ax1 + 1), matching W."""
    m = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=(2.0, 3.0)),
                  bottom=0.0, top=1.0, n_elements=nz)
    lead = (3, 2)[:ax1]
    rng = np.random.default_rng(seed)
    C = _random(rng, lead + (m.grid.n1, m.grid.n2, nz, 2))
    W = _random(rng, lead + (m.P1, m.P2, nz, 2))
    return m, C, W, rng


@transform_cases
def test_to_physical_matches_zero_pad_ifft(N1, N2, nz, ax1, seed):
    """DFT-matrix products = zero padding + inverse FFT; derivative rows = i xi C0."""
    assume(N1 != N2)
    m, C, _, _ = _transform_case(N1, N2, nz, ax1, seed)
    ref = _zero_pad_ifft2(m, C, ax1)
    np.testing.assert_allclose(m.to_physical(C, ax1=ax1, ax2=ax1 + 1), ref,
                               rtol=0, atol=1e-12 * np.abs(ref).max())
    if ax1 == 0:
        with pytest.raises(ConstraintError):
            m.to_physical(C, ax1=0, ax2=1, gradient=True)
        return
    xi = np.meshgrid(*m.grid.frequencies(), indexing="ij")
    C0 = np.take(C, 0, axis=ax1 - 1)
    expand = (slice(None), slice(None)) + (None,) * (C0.ndim - ax1 - 1)
    derivs = [_zero_pad_ifft2(m, 1j * x[expand] * C0, ax1 - 1) for x in xi]
    rest = [_zero_pad_ifft2(m, np.take(C, k, axis=ax1 - 1), ax1 - 1)
            for k in range(1, C.shape[ax1 - 1])]
    F = m.to_physical(C, ax1=ax1, ax2=ax1 + 1, gradient=True)
    ref = np.stack([np.take(ref, 0, axis=ax1 - 1)] + derivs + rest, axis=ax1 - 1)
    np.testing.assert_allclose(F, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@transform_cases
def test_padded_transforms_are_adjoint(N1, N2, nz, ax1, seed):
    """<W, to_physical(C)> = <to_modes_adjoint(W), C>, also for the gradient pair."""
    m, C, W, rng = _transform_case(N1, N2, nz, ax1, seed)
    pairs = [(W, False)]
    if ax1 > 0:  # the gradient adds two fields to axis ax1 - 1
        pairs.append((_random(rng, W.shape[:ax1 - 1] + (W.shape[ax1 - 1] + 2,) + W.shape[ax1:]),
                      True))
    for Wx, gradient in pairs:
        phys = m.to_physical(C, ax1=ax1, ax2=ax1 + 1, gradient=gradient)
        back = m.to_modes_adjoint(Wx, ax1=ax1, ax2=ax1 + 1, gradient=gradient)
        assert back.shape == C.shape
        lhs, rhs = np.vdot(Wx, phys), np.vdot(back, C)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(Wx) * np.linalg.norm(phys)


@settings(max_examples=40, deadline=None)
@given(nz=st.integers(1, 8), lead=st.lists(st.integers(1, 3), max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_quad_evaluation_is_adjoint_to_scatter(nz, lead, seed):
    """<W, eval U> = <scatter(W), U>."""
    m = StripMesh(grid=SpectralGrid(N1=0, N2=0, cell=CELL), bottom=-0.5, top=1.5,
                  n_elements=nz)
    rng = np.random.default_rng(seed)
    U = _random(rng, tuple(lead) + (m.n_nodes,))
    W = _random(rng, tuple(lead) + m.zq.shape)
    lhs = np.vdot(W, m.eval_at_quad(U))
    rhs = np.vdot(m.scatter_from_quad(W), U)
    scale = np.linalg.norm(W) * np.linalg.norm(U) * nz
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=10, deadline=None)
@given(N1=st.integers(0, 5), N2=st.integers(0, 5), nz=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_rough_matvec_repeats_bit_for_bit(N1, N2, nz, seed):
    """Two applications of one rough operator give the same bits (BLAS threading)."""
    geom = StripGeometry(m=-0.3, M_sup=0.3, h=1.0, cell=CELL)
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=CELL), bottom=0.0, top=1.0,
                     n_elements=4 * nz)
    coeffs = TransformCoefficients(mesh, make_profile(0.0, ((1, 1, 0.05, 0.02),), geom),
                                   CutoffFn(0.25, 1.0))
    op = StripOperator(SolverContext(mesh, ElasticParams(lam=1.0, mu=1.0, omega=2.0)), coeffs)
    x = _random(np.random.default_rng(seed), op.shape[0])
    assert np.array_equal(op.matvec(x), op.matvec(x))


def test_quadrature_eval_and_scatter_adjoint():
    m = mesh(nz=6, N=0)
    rng = np.random.default_rng(2)
    U = rng.standard_normal((1, 1, 1, m.n_nodes)) + 0j
    W = rng.standard_normal((1, 1, 1, m.n_elements, 2)) + 0j
    lhs = np.vdot(W, m.eval_at_quad(U))
    rhs = np.vdot(m.scatter_from_quad(W), U)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_bump_source_smooth_compact_support():
    geom = StripGeometry(m=-0.2, M_sup=0.25, h=1.0, cell=CELL)
    src = BumpSource.centered(geom, 0.3, amplitude=1.0, component=2, j1=1)
    lo, hi = src.support()
    z = np.array([lo - 1e-9, hi + 1e-9])
    assert np.all(src.values(0.1, 0.2, z) == 0)
    inside = src.values(0.1, 0.2, np.array([0.5 * (lo + hi)]))
    assert np.abs(inside).max() > 0


def test_bump_gradients_match_finite_differences():
    src = BumpSource(factors=(HarmonicFactor(0, 1, 1, 0.8, 0.4),
                              HarmonicFactor(2, 0, 1, 1.2, 0.0)),
                     z0=0.6, sigma=0.25, cell=CELL)
    x1, x2, z = 0.7, 1.9, 0.52
    g = src.gradients(x1, x2, z)
    eps = 1e-6
    for axis, dx in enumerate([(eps, 0, 0), (0, eps, 0), (0, 0, eps)]):
        up = src.values(x1 + dx[0], x2 + dx[1], z + dx[2])
        dn = src.values(x1 - dx[0], x2 - dx[1], z - dx[2])
        np.testing.assert_allclose(g[:, axis], (up - dn) / (2 * eps),
                                   rtol=1e-5, atol=1e-8)


def test_mesh_invariants():
    m = mesh(nz=5)
    assert m.nodes[0] == 0.0 and m.nodes[-1] == 1.0
    assert np.all(np.diff(m.nodes) > 0)
    with pytest.raises(Exception):
        StripMesh(grid=SpectralGrid(N1=0, N2=0, cell=CELL),
                  bottom=1.0, top=0.0, n_elements=4)
