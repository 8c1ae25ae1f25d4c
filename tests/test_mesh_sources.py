import numpy as np
import pytest

from elastrip.dtn import SpectralGrid
from elastrip.mesh import StripMesh
from elastrip.params import StripGeometry
from elastrip.sources import BumpSource, HarmonicFactor

CELL = (2 * np.pi, 2 * np.pi)


def mesh(nz=8, N=2):
    return StripMesh(grid=SpectralGrid(N1=N, N2=N, cell=CELL),
                     bottom=0.0, top=1.0, n_elements=nz)


def test_one_element_mass_matrix():
    """Hand-integrated linear-element mass matrix on a single element."""
    m = StripMesh(grid=SpectralGrid(N1=0, N2=0, cell=CELL),
                  bottom=0.0, top=1.0, n_elements=1)
    np.testing.assert_allclose(m.Mz, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14)
    np.testing.assert_allclose(m.Sz, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(m.Dz, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-14)


def test_1d_matrices_exact_on_linears():
    """2-point Gauss is exact for the cubic integrands of linear data."""
    m = mesh(nz=7)
    u = 2.0 * m.nodes + 0.3      # u(z) = 2z + 0.3
    v = -m.nodes + 1.1           # v(z) = 1.1 - z
    # int_0^1 u v dz = int (-2z^2 + 1.9z + 0.33) dz
    assert u @ m.Mz @ v == pytest.approx(-2 / 3 + 0.95 + 0.33, rel=1e-13)
    # int u' v' dz = 2 * (-1)
    assert u @ m.Sz @ v == pytest.approx(-2.0, rel=1e-13)
    # int u v' dz = -int (2z + 0.3) dz = -1.3
    assert u @ m.Dz @ v == pytest.approx(-1.3, rel=1e-13)


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
