import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import elastrip.mesh
from elastrip import harness
from elastrip.config import from_dict
from elastrip.dtn import SpectralGrid
from elastrip.geometry import CutoffFn, make_profile
from elastrip.mesh import StripMesh, Workspace
from elastrip.params import ElasticParams, StripGeometry
from elastrip.solver import SolverContext, StripOperator, TransformCoefficients
from elastrip.sources import BumpSource, HarmonicFactor
from flat_oracles import dense_1d
from matvec_oracle import i_xi, zero_pad_ifft2

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


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _values_and_tail(m, rng, dtype=complex):
    """Random values C (3, 1, n1, n2, e, q) and tail (3, n1, n2, e) on mesh m."""
    g = m.grid
    C = _random(rng, (3, 1, g.n1, g.n2, m.n_elements, 2)).astype(dtype)
    tail = _random(rng, (3, g.n1, g.n2, m.n_elements)).astype(dtype)
    return C, tail


def test_padded_transform_adjoint_pair():
    """<to_physical(C, tail), W> = <C, gradient adjoint of W's first three
    fields> + <tail, plain adjoint of W's last, summed over the Gauss points>."""
    m = mesh(nz=4, N=2)
    rng = np.random.default_rng(0)
    C, tail = _values_and_tail(m, rng)
    W = _random(rng, (3, 4, m.P1, m.P2, m.n_elements, 2))
    lhs = np.vdot(W, m.to_physical(C, tail, Workspace()))
    rhs = (np.vdot(m.to_modes_adjoint(W[:, :3], gradient=True), C)
           + np.vdot(m.to_modes_adjoint(W[:, 3]).sum(axis=-1), tail))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_physical_roundtrip_recovers_lattice_modes():
    """The plain adjoint over P1 P2 inverts the transform of the values and of the tail."""
    m = mesh(nz=3, N=2)
    C, tail = _values_and_tail(m, np.random.default_rng(1))
    F = m.to_physical(C, tail, Workspace())
    back = m.to_modes_adjoint(F[:, [0, 3]]) / (m.P1 * m.P2)
    np.testing.assert_allclose(back[:, 0], C[:, 0], atol=1e-12)
    np.testing.assert_allclose(back[:, 1], np.repeat(tail[..., None], 2, axis=-1), atol=1e-12)


def _transform_mesh(N1, N2, nz):
    return StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=(2.0, 3.0)),
                     bottom=0.0, top=1.0, n_elements=nz)


@settings(max_examples=40, deadline=None)
@given(N1=st.integers(0, 4), N2=st.integers(0, 4), nz=st.integers(1, 8),
       dtype=st.sampled_from([np.complex128, np.complex64]), seed=st.integers(0, 2**32 - 1))
def test_to_physical_matches_zero_pad_ifft(N1, N2, nz, dtype, seed):
    """All four outputs of the transform equal zero padding + inverse FFT
    of C, i xi1 C, i xi2 C and the tail, each Gauss point of an element
    taking the element's tail: to 1e-12 of the largest value in complex128,
    and within the rounding bound of the two products, (n1 + n2 + 2) eps
    times the sum of the terms' moduli, in complex64."""
    assume(N1 != N2)
    m = _transform_mesh(N1, N2, nz)
    C, tail = _values_and_tail(m, np.random.default_rng(seed), dtype)
    F = m.to_physical(C, tail, Workspace())
    assert F.dtype == dtype and F.shape == (3, 4, m.P1, m.P2, nz, 2)
    d1, d2 = i_xi(m)
    C0, repeated = C[:, 0].astype(complex), np.repeat(tail[..., None], 2, axis=-1)
    for j, X in enumerate((C0, d1 * C0, d2 * C0, repeated.astype(complex))):
        ref = zero_pad_ifft2(m, X)
        if dtype == np.complex128:
            atol = 1e-12 * np.abs(ref).max()
        else:
            terms = np.abs(X).sum(axis=(1, 2)).max()
            atol = 2 * (m.grid.n1 + m.grid.n2 + 2) * np.finfo(np.float32).eps * terms
        np.testing.assert_allclose(F[:, j], ref, rtol=0, atol=atol, err_msg=f"field {j}")


@settings(max_examples=40, deadline=None)
@given(N1=st.integers(0, 4), N2=st.integers(0, 4), nz=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_padded_transforms_are_adjoint(N1, N2, nz, seed):
    """<W, to_physical(C, tail)> = <to_modes_adjoint(W), (C, tail)>: the
    gradient pair on the first three fields and the plain adjoint, summed
    over each element's Gauss points, on the tail."""
    m = _transform_mesh(N1, N2, nz)
    rng = np.random.default_rng(seed)
    C, tail = _values_and_tail(m, rng)
    W = _random(rng, (3, 4, m.P1, m.P2, nz, 2))
    phys = m.to_physical(C, tail, Workspace())
    back = m.to_modes_adjoint(W[:, :3], gradient=True)
    back_tail = m.to_modes_adjoint(W[:, 3]).sum(axis=-1)
    assert back.shape == C.shape and back_tail.shape == tail.shape
    lhs, rhs = np.vdot(W, phys), np.vdot(back, C) + np.vdot(back_tail, tail)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(W) * np.linalg.norm(phys)


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


def test_dft_matrices_are_built_at_first_use_once_per_mesh(monkeypatch):
    """A flat run builds no DFT matrix.  A rough run builds those of its
    mesh (14 x 14 points at N = 4) and of its complex64 operator's coarser
    mesh (12 x 9 for a (1, 0) term) once each, whatever the number of
    its transforms."""
    built, real = [], elastrip.mesh._dft_matrices

    def spy(j, xi, P):
        built.append(P)
        return real(j, xi, P)

    monkeypatch.setattr(elastrip.mesh, "_dft_matrices", spy)
    disc = {"N1": 4, "N2": 4, "n_z": 8}
    report, _ = harness.deterministic_run(from_dict({"surface": {"delta": 0.25},
                                                     "discretization": disc}))
    assert report.diagnostics["solve_method"] == "direct" and built == []
    report, _ = harness.deterministic_run(from_dict(
        {"surface": {"delta": 0.25, "terms": [[1, 0, 0.05, 0.0]]}, "discretization": disc}))
    assert report.diagnostics["solve_method"] == "gmres"
    assert report.diagnostics["solve_iterations"] > 1
    assert sorted(built) == [9, 12, 14, 14]


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
