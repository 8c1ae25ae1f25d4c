import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import elastrip
from elastrip import harness, solver
from elastrip.config import from_dict
from elastrip.dtn import BoundaryTrace, SpectralGrid, dtn_symbol_grid, energy_flux
from elastrip.errors import ConstraintError, NonConvergenceError, SingularTransformError
from elastrip.geometry import CutoffFn, HarmonicTerm, SurfaceProfile, make_profile
from elastrip.harness import solve_surface
from elastrip.mesh import StripMesh, Workspace
from elastrip.params import ElasticParams, StripGeometry
from elastrip.solver import (
    DiscreteField,
    StripOperator,
    assemble_flat_blocks,
    assemble_rhs,
    banded_matvec,
    block_lu_solver,
    energy_balance,
    every_class,
    flat_load,
    gmres,
    physical_quad_fields,
    poincare_slack,
    solve_field,
    SolverContext,
    TransformCoefficients,
)
from elastrip.sources import BumpSource, HarmonicFactor
from flat_oracles import (coercivity_probe, dense_1d, dense_blocks, einsum_bands,
                          expand_mirrors, flat_mode_oracle, full_mode_quadratics,
                          mode_banded_matvec, mode_block_lu_solver, mode_flat_blocks,
                          norms_sq)
from geometry_oracles import full_coefficients
from matvec_oracle import two_point_matvec
from rellich_oracle import ModeFieldSmooth, rellich_identity_residual, rellich_residual

CELL = (2 * np.pi, 2 * np.pi)
P = ElasticParams(lam=1.0, mu=1.0, omega=2.0)
GEOM = StripGeometry(m=-0.3, M_sup=0.3, h=1.0, cell=CELL)


def flat_mesh(N=1, nz=8, bottom=0.0, top=1.0):
    return StripMesh(grid=SpectralGrid(N1=N, N2=N, cell=CELL),
                     bottom=bottom, top=top, n_elements=nz)


def identity_transform(mesh):
    """The flattening map of the flat surface f = c, the mesh bottom: the
    identity, whose operator is the flat strip's."""
    depth = mesh.top - mesh.bottom
    flat = SurfaceProfile(offset=mesh.bottom, terms=(), cell=mesh.grid.cell)
    return TransformCoefficients(mesh, flat, CutoffFn(depth / 4, depth))


def bump(z0=0.55, sigma=0.3):
    return BumpSource(factors=(HarmonicFactor(2, 1, 0, 1.0, 0.3),),
                      z0=z0, sigma=sigma, cell=CELL)


def test_operator_matches_flat_blocks():
    """Matrix-free application reproduces the dense expansion of the bands."""
    mesh = flat_mesh(N=2, nz=5)
    blocks = dense_blocks(assemble_flat_blocks(mesh, P, every_class(mesh)), mesh.grid)
    op = StripOperator(SolverContext(mesh, P), identity_transform(mesh))
    g = mesh.grid
    nfree = mesh.n_nodes - 1
    rng = np.random.default_rng(3)
    v = rng.standard_normal(3 * g.n1 * g.n2 * nfree) + \
        1j * rng.standard_normal(3 * g.n1 * g.n2 * nfree)
    direct = op.matvec(v)
    V = v.reshape(3, g.n1, g.n2, nfree)
    ref = np.empty_like(V)
    for i1 in range(g.n1):
        for i2 in range(g.n2):
            ref[:, i1, i2, :] = (blocks[i1, i2] @ V[:, i1, i2, :].ravel()).reshape(3, nfree)
    np.testing.assert_allclose(direct, ref.ravel(), rtol=1e-11, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       terms=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
                      min_size=1, max_size=3),
       N=st.integers(1, 2), nz=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_rough_operator_matches_its_form(mu, lam_frac, omega, terms, N, nz, seed):
    """vdot(y, op.matvec(x)) = B(u_x, u_y), the curl-form density at the quad points."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = flat_mesh(N=N, nz=nz)
    coeffs = TransformCoefficients(mesh, make_profile(0.0, terms, GEOM), CutoffFn(0.25, 1.0))
    op = StripOperator(SolverContext(mesh, params), coeffs)
    rng = np.random.default_rng(seed)
    x, y = (rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
            for _ in range(2))
    fx, fy = (DiscreteField.from_free_vector(v, mesh) for v in (x, y))

    def curl(G):
        return np.stack([G[2, 1] - G[1, 2], G[0, 2] - G[2, 0], G[1, 0] - G[0, 1]])

    planes = coeffs.block(slice(None), Workspace())
    Fx, Fy = (physical_quad_fields(mesh, f.coeff, planes, slice(None), Workspace())
              for f in (fx, fy))
    (ux, Gx), (uy, Gy) = ((F[:, 0], F[:, 1:]) for F in (Fx, Fy))
    density = (2 * mu * np.sum(Gx * np.conj(Gy), axis=(0, 1))
               + params.lam * np.trace(Gx) * np.conj(np.trace(Gy))
               - mu * np.sum(curl(Gx) * np.conj(curl(Gy)), axis=0)
               - omega ** 2 * np.sum(ux * np.conj(uy), axis=0))
    XI1, XI2, _ = mesh.grid.frequency_mesh()
    Msym = dtn_symbol_grid(XI1, XI2, params)
    top_x, top_y = fx.coeff[..., -1], fy.coeff[..., -1]
    dtn = 1j * mesh.grid.cell_area * np.einsum("kab,kjab,jab->", np.conj(top_y), Msym, top_x)
    form = np.sum(planes.wgt * density) - dtn
    Ax = op.matvec(x)
    assert abs(np.vdot(y, Ax) - form) <= 1e-10 * np.linalg.norm(y) * np.linalg.norm(Ax)


@settings(max_examples=40, deadline=None)
@given(N1=st.integers(0, 3), N2=st.integers(0, 3), nz=st.integers(2, 12),
       cell=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
       c=st.floats(-0.2, 0.2), shift=st.floats(-0.05, 0.05), omega=st.floats(0.1, 15.0),
       terms=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)), max_size=3),
       data=st.data())
def test_block_planes_equal_the_full_size_arrays(N1, N2, nz, cell, c, shift, omega, terms, data):
    """Every plane of TransformCoefficients.block, at float64 and float32,
    and the heights equal (np.array_equal) the full-size array of the
    general map over the flat reference f0 = c, sliced to the block; a
    float32 plane is the cast of that array.  The cutoff kink falls between the two Gauss points of an element, and
    the blocks of both precisions and one arbitrary slice share one
    workspace."""
    kink = data.draw(st.integers(0, nz // 2 - 1)) + data.draw(st.floats(0.25, 0.75))
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=cell), bottom=c, top=c + 1.0,
                     n_elements=nz)
    cutoff = CutoffFn(kink / nz, 1.0)
    f = SurfaceProfile(offset=c + shift, terms=tuple(HarmonicTerm(*t) for t in terms), cell=cell)
    coeffs = TransformCoefficients(mesh, f, cutoff)
    full = full_coefficients(mesh, SurfaceProfile(offset=c, terms=(), cell=cell), f, cutoff)
    full["mass_wgt"] = -(omega * omega) * full["wgt"]
    start = data.draw(st.integers(0, nz - 1))
    extra = slice(start, data.draw(st.integers(start + 1, nz)))
    work = Workspace()
    for dtype in (np.complex128, np.complex64):
        real = np.finfo(dtype).dtype
        for b in solver.element_blocks(mesh, work, dtype) + [extra]:
            planes = coeffs.block(b, work, real, omega)
            for name, plane in planes._asdict().items():
                assert plane.dtype == real, name
                assert np.array_equal(plane, full[name][..., b, :].astype(real)), name
            x3 = coeffs.heights(b, work)
            assert x3.dtype == np.float64 and np.array_equal(x3, full["x3"][..., b, :])


def test_rough_solve_holds_no_full_size_coefficient_array(monkeypatch):
    """After a rough solve, neither its transform nor either of its
    operators holds an array with both a horizontal axis (P1 or P2 long)
    and a quad-point axis (n_z long): the transform keeps (P1, P2) fields
    and (n_z, 2) profiles, and a block's planes live in the context's
    workspace."""
    operators = []
    init = StripOperator.__init__

    def recorded(self, *args, **kwargs):
        operators.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StripOperator, "__init__", recorded)
    mesh = flat_mesh(N=3, nz=16)
    assert mesh.n_elements not in (mesh.P1, mesh.P2)
    _, info, _, coeffs = surface_solve(SolverContext(mesh, P),
                                       make_profile(0.0, ((1, 0, 0.08, 0.0),), GEOM))
    assert info.method == "gmres"
    assert {op.dtype for op in operators} == {np.dtype(np.complex64), np.dtype(np.complex128)}
    for holder in [coeffs] + operators:
        for name, value in vars(holder).items():
            if isinstance(value, np.ndarray):
                horizontal = mesh.P1 in value.shape or mesh.P2 in value.shape
                assert not (horizontal and mesh.n_elements in value.shape), (name, value.shape)


def test_rough_matvec_transforms_once(monkeypatch):
    """One rough matvec is one inverse and one forward stacked transform."""
    mesh = flat_mesh(N=2, nz=6)
    coeffs = TransformCoefficients(mesh, make_profile(0.0, ((1, 0, 0.08, 0.0),), GEOM),
                                   CutoffFn(0.25, 1.0))
    op = StripOperator(SolverContext(mesh, P), coeffs)
    calls = {"to_physical": 0, "to_modes_adjoint": 0}
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(StripMesh, name), **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(StripMesh, name, counted)
    op.matvec(np.ones(op.shape[0], dtype=complex))
    assert calls == {"to_physical": 1, "to_modes_adjoint": 1}


def _rough_setup(N, nz, amplitude=0.08):
    mesh = flat_mesh(N=N, nz=nz)
    coeffs = TransformCoefficients(mesh, make_profile(0.0, ((1, 0, amplitude, 0.0),
                                                            (1, 1, 0.0, 0.03)), GEOM),
                                   CutoffFn(0.25, 1.0))
    return mesh, coeffs


def test_element_blocks_do_not_change_results(monkeypatch):
    """A matvec, the physical norms, the source norms and the load vector
    give the one-block results to 1e-13 when the budget splits the
    elements into uneven blocks, and a matvec gives its bits when every
    block but the last holds whole granules."""
    mesh, coeffs = _rough_setup(N=2, nz=10)
    src = bump()
    rng = np.random.default_rng(5)
    n = 3 * mesh.grid.n1 * mesh.grid.n2 * mesh.n_elements
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    field = DiscreteField.from_free_vector(x, mesh)

    def stages():
        ctx = SolverContext(mesh, P)
        return [StripOperator(ctx, coeffs).matvec(x),
                np.array(harness.field_physical_norms(field, coeffs, ctx.work)),
                np.array(harness.source_norms(src, mesh, coeffs, ctx.work)),
                assemble_rhs(mesh, src, coeffs, physical=True)]

    assert solver.element_blocks(mesh, Workspace()) == [slice(0, 10)]
    one_block = stages()
    one_block_matvecs = {dtype: StripOperator(SolverContext(mesh, P), coeffs, dtype).matvec(x)
                         for dtype in (complex, np.complex64)}
    per_element = 3 * 4 * mesh.P1 * mesh.P2 * 2 * 16
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 3 * per_element + 1)
    assert [b.stop - b.start for b in solver.element_blocks(mesh, Workspace())] == [3, 3, 3, 1]
    for blocked, ref in zip(stages(), one_block):
        assert np.linalg.norm(blocked - ref) <= 1e-13 * np.linalg.norm(ref)
    # a block of whole granules and the rest keep the one-block bits, in each precision
    for dtype, budget in ((complex, 8 * per_element), (np.complex64, 4 * per_element)):
        monkeypatch.setattr(solver, "_BLOCK_BYTES", budget)
        assert [b.stop - b.start
                for b in solver.element_blocks(mesh, Workspace(), dtype)] == [8, 2]
        blocked = StripOperator(SolverContext(mesh, P), coeffs, dtype).matvec(x)
        assert np.array_equal(blocked, one_block_matvecs[dtype])


def test_blocked_stages_hold_a_bounded_working_set():
    """The memory a rough matvec and the physical norms allocate grows by
    less than 2x from n_z = 32 to 128 at N=8: they hold one block of
    elements on the collocation grid at a time, not the whole strip."""
    peaks = []
    for nz in (32, 128):
        mesh, coeffs = _rough_setup(N=8, nz=nz, amplitude=0.05)
        op = StripOperator(SolverContext(mesh, P), coeffs)
        x = np.ones(op.shape[0], dtype=complex)
        field = DiscreteField.from_free_vector(x, mesh)
        row = []
        for stage in (lambda: op.matvec(x),
                      lambda: harness.field_physical_norms(field, coeffs, Workspace())):
            tracemalloc.start()
            try:
                stage()
                row.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(row)
    small, large = peaks
    assert all(b < 2 * a for a, b in zip(small, large)), peaks


def test_flat_blocks_storage_is_linear_in_nz():
    """Bands of shape (3, (N1 + 1)(N2 + 1), n_z, 3, 3), one per mirror
    class: doubling n_z doubles the bytes."""
    small, large = (assemble_flat_blocks(m, P, every_class(m))
                    for m in (flat_mesh(N=1, nz=32), flat_mesh(N=1, nz=64)))
    assert small.shape == (3, 4, 32, 3, 3)
    assert large.nbytes == 2 * small.nbytes


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       N1=st.integers(0, 3), N2=st.integers(0, 3), nz=st.integers(1, 12))
def test_flat_bands_are_stored_mode_last(mu, lam_frac, omega, N1, N2, nz):
    """The class bands are a view of [d, i, k, j, c1, c2] storage, the
    layout the block-LU's class-last views read, and equal the dense einsum
    assembly bit for bit."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=(2.0, 3.0)),
                     bottom=-0.5, top=0.5, n_elements=nz)
    bands = assemble_flat_blocks(mesh, params, every_class(mesh))
    assert bands.shape == (3, (N1 + 1) * (N2 + 1), nz, 3, 3)
    assert bands.transpose(0, 2, 3, 4, 1).flags.c_contiguous
    K = solver._mode_density(*solver._class_frequencies(mesh.grid), 2 * mu, params.lam, -mu,
                             -omega * omega)
    bands, ref = solver._assemble_bands(mesh, K), einsum_bands(mesh, K)
    assert np.array_equal(bands, ref)


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       cell=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
       N1=st.integers(0, 4), N2=st.integers(0, 4), nz=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
@example(mu=0.3, lam_frac=0.59, omega=3.69, cell=(1.5, 2.2), N1=1, N2=1, nz=4,
         seed=0)  # the expansion cancels at node 2 of 4: the factor fits that determinant
def test_mirror_classes_give_the_bits_of_every_mode(mu, lam_frac, omega, cell, N1, N2, nz, seed):
    """The class bands, expanded with their mirror signs, equal the bands
    assembled mode by mode, and the class solve and residual multiply equal
    the per-mode block-LU and matmul multiply, all bit for bit.  Both
    factors check the cancellation at each node."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=cell),
                     bottom=-1.0, top=0.0, n_elements=nz)
    every = every_class(mesh)
    bands, mode_bands = assemble_flat_blocks(mesh, params, every), mode_flat_blocks(mesh, params)
    assert np.array_equal(expand_mirrors(bands, mesh.grid), mode_bands)
    rng = np.random.default_rng(seed)
    n = 3 * mesh.grid.n1 * mesh.grid.n2 * nz
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = block_lu_solver(bands, every)(rhs)
    assert np.array_equal(x, mode_block_lu_solver(mode_bands)(rhs))
    assert np.array_equal(banded_matvec(bands, x, every), mode_banded_matvec(mode_bands, x))


def test_1d_matrices_match_the_element_loop():
    """The pair-at-a-time assembly of the diagonals of Mz, Sz, Dz has the
    bits of a dense loop over elements, and holds 3 n_nodes numbers each."""
    for nz in (1, 7, 96):
        mesh = StripMesh(grid=SpectralGrid(N1=1, N2=1, cell=CELL), bottom=-0.37, top=1.3,
                         n_elements=nz)
        n = mesh.n_nodes
        Mz, Sz, Dz = (np.zeros((n, n)) for _ in range(3))
        for e in range(nz):
            idx = (e, e + 1)
            for a in range(2):
                for b in range(2):
                    Mz[idx[a], idx[b]] += np.sum(mesh.wq[e] * mesh.phi[a] * mesh.phi[b])
                    Sz[idx[a], idx[b]] += np.sum(mesh.wq[e] * mesh.dphi[a, e] * mesh.dphi[b, e])
                    Dz[idx[a], idx[b]] += np.sum(mesh.wq[e] * mesh.phi[a] * mesh.dphi[b, e])
        for got, want in zip(dense_1d(mesh), (Mz, Sz, Dz)):
            assert np.array_equal(got, want)
        assert all(d.shape == (3, n) for d in (mesh.Mz_diags, mesh.Sz_diags, mesh.Dz_diags))


def test_direct_solve_raises_above_tolerance():
    """The direct path checks its residual like GMRES does."""
    mesh = flat_mesh(N=1, nz=8)
    with pytest.raises(NonConvergenceError):
        solve_field(SolverContext(mesh, P), assemble_rhs(mesh, bump()), tol=1e-30)


@settings(max_examples=20, deadline=None)
@given(N1=st.integers(0, 2), N2=st.integers(0, 2), nz=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1))
def test_banded_matvec_matches_dense_and_operator(N1, N2, nz, seed):
    """The direct path's residual multiply: bands = dense expansion = flat operator."""
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=(2.0, 3.0)),
                     bottom=-0.5, top=0.5, n_elements=nz)
    every = every_class(mesh)
    bands = assemble_flat_blocks(mesh, P, every)
    op = StripOperator(SolverContext(mesh, P), identity_transform(mesh))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    y = banded_matvec(bands, x, every)
    blocks = dense_blocks(bands, mesh.grid)
    n1, n2, n = blocks.shape[:3]
    X = np.moveaxis(x.reshape(3, n1, n2, nz), 0, 2).reshape(n1, n2, n, 1)
    ref = np.moveaxis((blocks @ X).reshape(n1, n2, 3, nz), 2, 0).ravel()
    assert np.linalg.norm(y - ref) <= 1e-11 * np.linalg.norm(ref)
    assert np.linalg.norm(y - op.matvec(x)) <= 1e-11 * np.linalg.norm(y)


def test_direct_solve_builds_no_operator(monkeypatch):
    """The flat residual comes from the bands, not from a matrix-free operator."""
    def no_operator(*args, **kwargs):
        raise AssertionError("StripOperator built on the direct path")

    monkeypatch.setattr("elastrip.solver.StripOperator", no_operator)
    mesh = flat_mesh(N=1, nz=8)
    _, info = solve_field(SolverContext(mesh, P), assemble_rhs(mesh, bump()))
    assert info.method == "direct" and 0 < info.residual <= 1e-9


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       depth=st.floats(0.2, 3.0), cell=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
       N=st.integers(0, 2), nz=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_block_lu_matches_dense_solve(mu, lam_frac, omega, depth, cell, N, nz, seed):
    """Banded solve = dense solve of the expanded bands, and it inverts the operator."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = StripMesh(grid=SpectralGrid(N1=N, N2=N, cell=cell),
                     bottom=-depth, top=0.0, n_elements=nz)
    every = every_class(mesh)
    bands = assemble_flat_blocks(mesh, params, every)
    op = StripOperator(SolverContext(mesh, params), identity_transform(mesh))
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    x = block_lu_solver(bands, every)(rhs)
    blocks = dense_blocks(bands, mesh.grid)
    n1, n2, n = blocks.shape[:3]
    R = np.moveaxis(rhs.reshape(3, n1, n2, nz), 0, 2).reshape(n1, n2, n, 1)
    ref = np.moveaxis(np.linalg.solve(blocks, R).reshape(n1, n2, 3, nz), 2, 0).ravel()
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
    assert np.linalg.norm(op.matvec(x) - rhs) <= 1e-10 * np.linalg.norm(rhs)


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       depth=st.floats(0.2, 3.0), cell=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
       N=st.integers(0, 2), nz=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_cyclic_reduction_matches_dense_solve(mu, lam_frac, omega, depth, cell, N, nz, seed):
    """Every class the cyclic reduction does not refuse has the dense
    solve of its expanded bands to 1e-9 relative, slots summed (4.7e-12 at
    worst over 3,000 examples of these strategies)."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = StripMesh(grid=SpectralGrid(N1=N, N2=N, cell=cell),
                     bottom=-depth, top=0.0, n_elements=nz)
    every = every_class(mesh)
    bands = assemble_flat_blocks(mesh, params, every)
    rng = np.random.default_rng(seed)
    n = 3 * mesh.grid.n1 * mesh.grid.n2 * nz
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, refused = solver._cyclic_reduction(bands, solver._to_classes(rhs, every.gather))
    blocks = dense_blocks(bands, mesh.grid)
    n1, n2, n = blocks.shape[:3]
    R = np.moveaxis(rhs.reshape(3, n1, n2, nz), 0, 2).reshape(n1, n2, n, 1)
    ref = np.moveaxis(np.linalg.solve(blocks, R).reshape(n1, n2, 3, nz), 2, 0).ravel()
    ref = solver._to_classes(ref, every.gather)  # [node, k, slot, class], as x
    err, size = (np.sqrt(np.sum(abs(v) ** 2, axis=(0, 1, 2))) for v in (x - ref, ref))
    assert np.all(err[~refused] <= 1e-9 * size[~refused])


# (mu, lam, depth, omega, n_z) at N = 2 and cell 2 pi where the plain cyclic
# reduction fails: a reduced pivot is singular (the first four), or the
# field of two classes is 1e15 times too large (the last)
RESONANT = [(0.5, 1.0, 2.0, 2.0, 2), (1.0, 1.0, 1.2, 5.0, 2), (1.0, 1.0, 1.2, 7.5, 3),
            (4.0, 2.0, 0.5, 14.0, 2), (0.5, 1.0, 2.0, 4.0, 3)]


@pytest.mark.parametrize("mu, lam, depth, omega, nz", RESONANT)
def test_resonant_reductions_fall_back_to_the_block_lu(mu, lam, depth, omega, nz):
    """On a strip whose reduced pivots resonate, the direct solve of every
    class meets tol; the classes whose reduction refuses, and only those,
    are solved by the block-LU and have its bits, and the others have the
    reduction's."""
    params = ElasticParams(lam=lam, mu=mu, omega=omega)
    mesh = StripMesh(grid=SpectralGrid(N1=2, N2=2, cell=CELL), bottom=-depth, top=0.0,
                     n_elements=nz)
    every = every_class(mesh)
    bands = assemble_flat_blocks(mesh, params, every)
    rng = np.random.default_rng(0)
    n = 3 * mesh.grid.n1 * mesh.grid.n2 * nz
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        reduced, refused = solver._cyclic_reduction(bands, solver._to_classes(rhs, every.gather))
    assert refused.any()
    x, rel = _all_class_solve(mesh, params, rhs)
    assert rel <= 1e-9
    got = solver._to_classes(x, every.gather)
    lu = solver._to_classes(block_lu_solver(bands, every)(rhs), every.gather)
    assert np.array_equal(got[..., refused], lu[..., refused])
    assert np.array_equal(got[..., ~refused], reduced[..., ~refused])


def test_a_class_whose_residual_misses_tol_falls_back(monkeypatch):
    """A class whose reduction passes its pivot checks but whose own
    relative residual misses tol, here a reduction spoiled by 1e-6 in class
    (1, 0), takes the block-LU's solution, and only that class: the other
    classes keep the reduction's bits.  Kept at tol = inf, the spoiled solve's residual
    lies between 1e-9 and 1e-4."""
    mesh = flat_mesh(N=1, nz=8)
    every = every_class(mesh)
    rng = np.random.default_rng(3)
    n = 3 * mesh.grid.n1 * mesh.grid.n2 * 8
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    clean, spoilt = _all_class_solve(mesh, P, rhs)[0], 2  # class (1, 0) is the third
    reduction = solver._cyclic_reduction

    def spoil(*args):
        y, refused = reduction(*args)
        y[..., spoilt] *= 1 + 1e-6
        return y, refused

    monkeypatch.setattr(solver, "_cyclic_reduction", spoil)
    x, rel = _all_class_solve(mesh, P, rhs)
    assert rel <= 1e-9
    got, before = (solver._to_classes(v, every.gather) for v in (x, clean))
    lu = solver._to_classes(block_lu_solver(assemble_flat_blocks(mesh, P, every), every)(rhs),
                            every.gather)
    assert (every.c1[spoilt], every.c2[spoilt]) == (1, 0)
    assert np.array_equal(got[..., spoilt], lu[..., spoilt])
    others = np.arange(len(every.c1)) != spoilt
    assert np.array_equal(got[..., others], before[..., others])
    _, spoilt_rel = _all_class_solve(mesh, P, rhs, tol=np.inf)
    assert 1e-9 < spoilt_rel <= 1e-4


def test_a_class_whose_expansion_cancels_refuses_the_reduction(monkeypatch):
    """On the pinned example of test_mirror_classes_give_the_bits_of_every_mode
    the reduction refuses class (1, 1), and only that class, on a
    cancelling row expansion alone: at each level where _adjugate3 reports
    the cancellation, the class's pivots are finite and nonzero, and with
    the check off the reduction refuses no class.  The direct solve gives
    that class the block-LU's bits and the other classes the reduction's."""
    mu, lam_frac = 0.3, 0.59
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=3.69)
    mesh = StripMesh(grid=SpectralGrid(N1=1, N2=1, cell=(1.5, 2.2)),
                     bottom=-1.0, top=0.0, n_elements=4)
    every = every_class(mesh)
    bands = assemble_flat_blocks(mesh, params, every)
    rng = np.random.default_rng(0)
    n = 3 * mesh.grid.n1 * mesh.grid.n2 * 4
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = solver._to_classes(rhs, every.gather)
    levels, adjugate3 = [], solver._adjugate3

    def spy(a):
        adj, det, cancels = adjugate3(a)
        levels.append((a, cancels))
        return adj, det, cancels

    monkeypatch.setattr(solver, "_adjugate3", spy)
    reduced, refused = solver._cyclic_reduction(bands, y.copy())
    monkeypatch.setattr(solver, "_CANCELLATION", np.inf)
    assert not solver._cyclic_reduction(bands, y.copy())[1].any()
    monkeypatch.undo()
    assert (every.c1[refused].tolist(), every.c2[refused].tolist()) == ([1], [1])
    cancelling = [(a, cancels) for a, cancels in levels if cancels.any()]
    assert cancelling
    for a, cancels in cancelling:
        assert not cancels[..., ~refused].any()
        pivots = np.moveaxis(a[..., refused], (0, 1), (-2, -1))  # [m, class, k, j]
        det = np.linalg.det(pivots)
        assert np.all(np.isfinite(det) & (det != 0))
    x, rel = _all_class_solve(mesh, params, rhs)
    assert rel <= 1e-9
    got = solver._to_classes(x, every.gather)
    lu = solver._to_classes(block_lu_solver(bands, every)(rhs), every.gather)
    assert np.array_equal(got[..., refused], lu[..., refused])
    assert np.array_equal(got[..., ~refused], reduced[..., ~refused])


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(0.3, 3.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.5, 6.0),
       N=st.integers(0, 3), nz=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_complex64_block_lu_matches_the_complex128_factor(mu, lam_frac, omega, N, nz, seed):
    """The factor kept in complex64, the rough preconditioner's, solves as
    the complex128 one to complex64 accuracy, on a complex64 b and on a
    complex128 b, and returns the precision it swept in, b's: the sign
    flips of the mirror slots act on the complex64 data's float32 parts."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = flat_mesh(N=N, nz=nz)
    every = every_class(mesh)
    bands = assemble_flat_blocks(mesh, params, every)
    rng = np.random.default_rng(seed)
    n = 3 * (2 * N + 1) ** 2 * nz
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = block_lu_solver(bands, every)(b)
    single = block_lu_solver(bands, every, np.complex64)
    for v in (b.astype(np.complex64), b):
        x = single(v)
        assert x.dtype == v.dtype
        assert np.linalg.norm(x - ref) <= 1e-5 * np.linalg.norm(ref)


@pytest.mark.parametrize("N, nz, steps", [(2, 16, 9), (8, 64, 10)])
def test_rough_solve_takes_no_more_steps_than_a_fine_complex128_preconditioner(N, nz, steps):
    """The one-term rough solve meets tol in 2 rounds and at most the
    Arnoldi steps it took with its complex64 rounds on the 3/2-rule grid
    and a complex128 block-LU: a coarser inner grid or a complex64
    preconditioner that lost accuracy would take more."""
    mesh, rhs, coeffs = rough_system(N=N, nz=nz)
    _, info = solve_field(SolverContext(mesh, P), rhs, coeffs)
    assert info.method == "gmres" and info.residual <= 1e-9
    assert info.iterations <= steps and len(info.history) - info.iterations == 2


@settings(max_examples=60, deadline=None)
@given(log_cond=st.floats(0.0, 6.0), middle=st.floats(0.0, 1.0),
       log_scale=st.floats(-4.0, 4.0), batch=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_closed_form_pivot_inverse_matches_lapack(log_cond, middle, log_scale, batch, seed):
    """Adjugate over determinant = np.linalg.inv to a few cond eps, for
    condition numbers up to 1e6, also with two small singular values."""
    rng = np.random.default_rng(seed)

    def unitary():
        z = rng.standard_normal((batch, 3, 3)) + 1j * rng.standard_normal((batch, 3, 3))
        return np.linalg.qr(z)[0]

    sv = 10.0 ** (log_scale - log_cond * np.array([0.0, middle, 1.0]))
    A = (unitary() * sv) @ unitary().conj().swapaxes(1, 2)
    adj, det, _ = solver._adjugate3(np.moveaxis(A, 0, -1))
    X = np.moveaxis(adj / det, -1, 0)
    ref = np.linalg.inv(A)
    err = np.linalg.norm(X - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert np.all(err <= 10 * np.linalg.cond(A) * np.finfo(float).eps)


def test_block_lu_calls_no_lapack_or_matmul_and_copies_no_band(monkeypatch):
    """Factor and apply run with np.linalg.inv/solve and np.matmul disabled,
    and so does the direct path's cyclic reduction; the factor allocates
    the pivots and C (2/3 of the class bands) and the determinants, no
    band copy.  The bounds are shares of the bands of
    every mode, which the factor stored before the mirror classes."""
    mesh = flat_mesh(N=2, nz=128)
    every = every_class(mesh)
    bands = assemble_flat_blocks(mesh, P, every)
    mode_bytes = expand_mirrors(bands, mesh.grid).nbytes
    rhs = assemble_rhs(mesh, bump())

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK or matmul call in the block-LU")

    for owner, name in ((np.linalg, "inv"), (np.linalg, "solve"), (np, "matmul")):
        monkeypatch.setattr(owner, name, forbidden)
    tracemalloc.start()
    try:
        solve = block_lu_solver(bands, every)
        factor_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        x = solve(rhs)
        apply_peak = tracemalloc.get_traced_memory()[1] - held
        reduced, refused = solver._cyclic_reduction(bands, solver._to_classes(rhs, every.gather))
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert factor_peak < 0.75 * mode_bytes
    assert apply_peak < 0.3 * mode_bytes
    assert not refused.any()
    for y in (x, solver._from_classes(reduced, every.scatter)):
        assert np.linalg.norm(banded_matvec(bands, y, every) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_singular_pivot_raises_typed_error_naming_mode_and_node():
    """A zero or non-finite pivot determinant raises NonConvergenceError,
    without a RuntimeWarning, at the first mirror class (+-|j1|, +-|j2|)
    and node the top-down elimination meets."""
    every = every_class(flat_mesh(N=1, nz=8))
    bands = assemble_flat_blocks(flat_mesh(N=1, nz=8), P, every)
    bad = bands.copy()
    bad[:, 3, 3] = np.inf  # class (|j1|, |j2|) = (1, 1), the fourth, free node 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match=r"mode \(±0, ±0\), mesh node 8 of 8"):
            block_lu_solver(np.zeros_like(bands), every)
        with pytest.raises(NonConvergenceError, match=r"mode \(±1, ±1\), mesh node 4 of 8"):
            block_lu_solver(bad, every)


def test_zero_source_gives_zero_field():
    mesh = flat_mesh(N=1, nz=6)
    field, info = solve_field(SolverContext(mesh, P),
                              np.zeros(3 * 9 * (mesh.n_nodes - 1), dtype=complex))
    assert np.all(field.coeff == 0)
    assert info.residual == 0.0


def test_solution_is_linear_in_data():
    mesh = flat_mesh(N=1, nz=10)
    rhs = assemble_rhs(mesh, bump())
    ctx = SolverContext(mesh, P)
    u1, _ = solve_field(ctx, rhs)
    u2, _ = solve_field(ctx, 2.0 * rhs)
    np.testing.assert_allclose(u2.coeff, 2.0 * u1.coeff, rtol=1e-10, atol=1e-13)


def test_flat_solve_matches_independent_oracle():
    """Galerkin modes converge at second order to the FD boundary-value solve."""
    src = bump()
    amp, phase = 1.0, 0.3
    xi = np.array([1.0, 0.0])

    def g_profile(z):
        # +(1, 0) mode coefficient of the source: (amp/2) e^{i phase} bump(z)
        v = src.values(0.0, 0.0, np.atleast_1d(z))[:, 0]
        # the x-dependence cos(x1 + phase) factors out; values at x=0 give
        # cos(phase) * bump, so rescale to the complex mode coefficient
        return v / np.cos(phase) * 0.5 * np.exp(1j * phase)

    z_ref, u_ref = flat_mode_oracle(xi, P, g_profile, h=1.0, m_ref=0.0, n_fine=2048)
    errs = []
    for nz in (16, 32):
        mesh = flat_mesh(N=1, nz=nz)
        rhs = assemble_rhs(mesh, src)
        field, _ = solve_field(SolverContext(mesh, P), rhs)
        u_mode = field.coeff[:, 1, 0, :]            # +(1, 0) in FFT order
        u_orc = np.stack([np.interp(mesh.nodes, z_ref, u_ref[c].real)
                          + 1j * np.interp(mesh.nodes, z_ref, u_ref[c].imag)
                          for c in range(3)])
        errs.append(np.abs(u_mode - u_orc).max() / np.abs(u_orc).max())
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 5e-3


def test_vh_norm_exact_for_linear_mode_profile():
    """One mode with u3(z) = z: norm integrals are exact, also with one
    element (one off-diagonal entry) and one mode.  At n_z = 400 the
    stiffness quadratic's two-diagonal form would lose 1.5e-11 to
    cancellation, the dense product 7e-13."""
    for N, nz in ((1, 9), (0, 1), (0, 400)):
        mesh = flat_mesh(N=N, nz=nz)
        field = DiscreteField.zeros(mesh)
        xi_sq = 1.0 if N else 0.0  # mode (1, 0), or (0, 0) alone
        field.coeff[2, N, 0, :] = mesh.nodes
        area = mesh.grid.cell_area
        l2_sq, dz_sq, grad_sq = norms_sq(field)
        assert l2_sq == pytest.approx(area / 3, rel=1e-13)
        assert dz_sq == pytest.approx(area, rel=1e-13)
        # |grad|^2 adds |xi|^2 |u|^2
        assert grad_sq == pytest.approx(area * (1 + xi_sq / 3), rel=1e-13)
        assert field.vh_norm() == pytest.approx(np.sqrt(area * (4 + xi_sq) / 3), rel=1e-13)
        # a random field: the per-mode quadratics match the dense contraction
        rng = np.random.default_rng(4)
        c = rng.standard_normal(field.coeff.shape) + 1j * rng.standard_normal(field.coeff.shape)
        field.coeff[:] = c
        Mz, Sz, _ = dense_1d(mesh)
        for norm_sq, M in zip(norms_sq(field), (Mz, Sz)):
            dense = area * np.einsum("cabm,mn,cabn->ab", np.conj(c), M, c).real.sum()
            assert norm_sq == pytest.approx(dense, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(N1=st.integers(0, 3), N2=st.integers(0, 3), nz=st.integers(1, 12),
       cell=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
       seed=st.integers(0, 2**32 - 1))
def test_flat_physical_norms_need_no_transform(N1, N2, nz, cell, seed):
    """Flat physical norms are the mode-space quadratics: no transform to the
    collocation grid, and the pseudospectral quadrature's values to 1e-13."""
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=cell),
                     bottom=-0.4, top=0.6, n_elements=nz)
    rng = np.random.default_rng(seed)
    shape = (3, mesh.grid.n1, mesh.grid.n2, mesh.n_nodes)
    field = DiscreteField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), mesh)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        def counted(self, *args, _fn=StripMesh.to_physical, **kwargs):
            calls.append(1)
            return _fn(self, *args, **kwargs)
        mp.setattr(StripMesh, "to_physical", counted)
        norms = harness.field_physical_norms(field, None, Workspace())
    assert not calls
    F = physical_quad_fields(mesh, field.coeff,
                             identity_transform(mesh).block(slice(None), Workspace()),
                             slice(None), Workspace())
    plain = mesh.wq[None, None] * mesh.point_weight
    sums = [np.sum(plain * np.abs(F[:, j]) ** 2) for j in range(4)]
    ref = (sums[0], sum(sums[1:]))
    assert norms == pytest.approx(ref, rel=1e-13)


@st.composite
def _source_on_mesh(draw):
    """A flat mesh and a source on it whose factors hit every folding case
    of one axis: j = 0, a lattice mode, |j| > N off the lattice (projected
    out of the load vector) and |j| >= P - N (aliased onto it)."""
    N1, N2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cell = draw(st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)))
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=cell),
                     bottom=-0.4, top=0.6, n_elements=draw(st.integers(1, 12)))

    def index(N, P):
        sign = draw(st.sampled_from((1, -1)))
        return sign * draw(st.one_of(st.just(0), st.integers(0, N), st.integers(N + 1, P - N - 1),
                                     st.integers(P - N, P + N)))

    def factor(amplitude):
        return HarmonicFactor(component=draw(st.integers(0, 2)), j1=index(N1, mesh.P1),
                              j2=index(N2, mesh.P2), amplitude=draw(amplitude),
                              phase=draw(st.floats(0.0, 2 * np.pi)))

    # one lattice factor keeps the load vector from cancelling to roundoff
    lattice = HarmonicFactor(component=draw(st.integers(0, 2)),
                             j1=draw(st.integers(-N1, N1)), j2=draw(st.integers(-N2, N2)),
                             amplitude=draw(st.floats(0.2, 1.0)),
                             phase=draw(st.floats(0.0, 2 * np.pi)))
    others = [factor(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
              for _ in range(draw(st.integers(0, 4)))]
    # a bump centred near a Gauss point is nonzero at one at least
    sigma = draw(st.floats(0.05, 0.3))
    z0 = draw(st.sampled_from(mesh.zq.ravel().tolist())) + draw(st.floats(-0.5, 0.5)) * sigma
    source = BumpSource(factors=tuple([lattice] + others), z0=z0, sigma=sigma, cell=cell)
    return mesh, source


@settings(max_examples=60, deadline=None)
@given(case=_source_on_mesh())
def test_flat_load_vector_and_source_norms_match_the_grid(case):
    """The mode-space load vector and source norms of a flat strip equal the
    pseudospectral quadrature on the collocation grid, which an identity
    transform (f = c, the mesh bottom) keeps, to 1e-13."""
    mesh, source = case
    identity = identity_transform(mesh)
    work = Workspace()
    assert np.all(identity.block(slice(None), work).inv_det == 1.0)
    assert np.array_equal(identity.heights(slice(None), work)[0, 0], mesh.zq)
    rhs = assemble_rhs(mesh, source)
    ref = assemble_rhs(mesh, source, identity, physical=True)
    assert np.linalg.norm(rhs - ref) <= 1e-13 * np.linalg.norm(ref)
    norms = harness.source_norms(source, mesh, None, work)
    ref_norms = harness.source_norms(source, mesh, identity, work)
    assert norms == pytest.approx(ref_norms, rel=1e-13, abs=0.0)


def test_energy_balance_and_poincare_flat():
    mesh = flat_mesh(N=1, nz=24)
    classes, rhs = flat_load(mesh, bump())
    ctx = SolverContext(mesh, P)
    field, _ = solve_field(ctx, rhs, classes=classes)
    res, power, _ = energy_balance(field, rhs, ctx)
    assert res < 1e-10
    assert power >= 0.0
    assert poincare_slack(field) > 0.0


@settings(max_examples=60, deadline=None)
@given(N1=st.integers(0, 2), N2=st.integers(0, 2), nz=st.integers(1, 24),
       bottom=st.floats(-5.0, 5.0), depth=st.floats(0.1, 10.0), drift=st.floats(-1.0, 1.0),
       noise=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(N1=0, N2=0, nz=8, bottom=0.0, depth=3.1, drift=1.0, noise=0.0, seed=0)  # the ramp
@example(N1=0, N2=0, nz=1, bottom=0.0, depth=2.0, drift=9.435768740989126e-163, noise=0.0,
         seed=0)  # squares below the normal range: l2 = 1.5e-323, dz = 0
def test_poincare_slack_is_nonnegative_for_fields_zero_at_the_bottom(N1, N2, nz, bottom, depth,
                                                                      drift, noise, seed):
    """A P1 field that is zero at the bottom node has |u(z)|^2 <= (z - c)
    ||d3 u||^2 on each vertical line, so ||u||^2 <= depth^2 / 2 ||d3 u||^2
    and the Poincare slack is nonnegative at every depth.  The fields rise
    by ``drift`` per unit height plus ``noise``: the ramp u = (z - c) on
    every component and mode (noise 0) has slack area depth^3 / 6 per
    component and mode, where the constant depth gave area (depth^2 -
    depth^3 / 3), negative beyond depth 3.

    Where every quadratic is below the normal range, each square and
    product rounds by up to half the smallest subnormal, absolute, and the
    slack may read a few of those below zero: there it may fall short by
    a few smallest subnormals per summed term, scaled as the slack scales
    the sums.  Elsewhere it is nonnegative."""
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=CELL), bottom=bottom,
                     top=bottom + depth, n_elements=nz)
    g = mesh.grid
    rng = np.random.default_rng(seed)
    shape = (3, g.n1, g.n2, nz)
    rise = drift + noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeff = np.zeros(shape[:3] + (mesh.n_nodes,), dtype=complex)
    coeff[..., 1:] = np.cumsum(rise * np.diff(mesh.nodes), axis=-1)
    field = DiscreteField(coeff, mesh)
    l2, dz, _ = field.mode_quadratics()
    floor = 0.0
    if max(l2.max(), dz.max()) < np.finfo(float).tiny:
        terms = 4 * coeff.size  # the squares and products summed into l2 and dz
        floor = -(terms * np.finfo(float).smallest_subnormal * g.cell_area
                  * max(1.0, depth * depth / 2))
    assert poincare_slack(field) >= floor


def test_coercivity_probe_orders():
    mesh = flat_mesh(N=1, nz=8)
    rep = coercivity_probe(mesh, ElasticParams(1.0, 1.0, 1e-3),
                           n_probes=50, seed=1)
    assert rep["rayleigh_min"] > 0.0
    assert rep["probe_min"] >= rep["rayleigh_min"] - 1e-12
    with pytest.raises(ConstraintError):
        coercivity_probe(mesh, P, n_probes=0)


def test_rellich_identity_manufactured_field():
    """Analytic field vanishing at the bottom satisfies the identity exactly."""
    xi = np.array([1.0, 0.0])
    c = np.array([0.4 + 0.2j, -0.3j, 1.0 + 0.1j])
    k = 2.3

    def fn(z):
        return np.multiply.outer(c, np.sin(k * np.asarray(z, dtype=float)))

    def dfn(z):
        return np.multiply.outer(c, k * np.cos(k * np.asarray(z, dtype=float)))

    def d2fn(z):
        return np.multiply.outer(c, -k * k * np.sin(k * np.asarray(z, dtype=float)))

    mf = ModeFieldSmooth(xi, fn, dfn, d2fn)
    res = rellich_identity_residual([mf], P, 0.0, 1.0, CELL[0] * CELL[1])
    assert res < 1e-11


def test_rellich_residual_second_order_on_flat_solve():
    src = bump()
    res = []
    for nz in (16, 32):
        mesh = flat_mesh(N=1, nz=nz)
        rhs = assemble_rhs(mesh, src)
        field, _ = solve_field(SolverContext(mesh, P), rhs)
        res.append(rellich_residual(field, src, P))
    assert res[1] < res[0] / 2.5
    assert res[1] < 1e-3


def test_singular_transform_rejected():
    """Surface swings >= 1 flip the Jacobian sign inside the cutoff region."""
    from elastrip.geometry import HarmonicTerm, SurfaceProfile

    mesh = flat_mesh(N=2, nz=8)
    steep = SurfaceProfile(offset=0.0, terms=(HarmonicTerm(1, 0, 1.2, 0.0),),
                           cell=CELL)
    with pytest.raises(SingularTransformError):
        TransformCoefficients(mesh, steep, CutoffFn(0.05, 1.0))


def surface_solve(ctx, f):
    """solve_surface over the flat reference c = 0 with the bump source."""
    return solve_surface(ctx, f, CutoffFn(0.25, 1.0), bump(), physical=True, tol=1e-9)


def test_solve_surface_flags_mode_coupling():
    """The transform, and with it GMRES, is used exactly when surface - c != 0."""
    ctx = SolverContext(flat_mesh(N=1, nz=16), P)
    cases = [
        (make_profile(0.0, (), GEOM), True),
        (make_profile(0.0, ((1, 0, 0.0, 0.0),), GEOM), True),      # zero-amplitude term
        (make_profile(0.0, ((1, 0, 0.05, 0.0),), GEOM), False),
        (SurfaceProfile(offset=0.05, terms=(), cell=CELL), False),  # other level, no terms
    ]
    for surface, direct in cases:
        field, info, rhs, coeffs = surface_solve(ctx, surface)
        assert (coeffs is None) == direct
        assert info.method == ("direct" if direct else "gmres")
        res, power, _ = energy_balance(field, rhs, ctx)
        assert info.residual < 1e-9 and res < 1e-8 and power >= 0.0


def test_rough_solve_energy_balance():
    """GMRES solve over a perturbed surface still satisfies the flux identity."""
    ctx = SolverContext(flat_mesh(N=2, nz=16), P)
    f = make_profile(0.0, ((1, 0, 0.08, 0.0),), GEOM)
    field, info, rhs, _ = surface_solve(ctx, f)
    assert info.method == "gmres"
    assert info.residual < 1e-9
    res, power, _ = energy_balance(field, rhs, ctx)
    assert res < 1e-8
    assert power >= 0.0


def test_rough_solve_reduces_to_flat_for_identical_surfaces():
    mesh = flat_mesh(N=1, nz=12)
    ctx = SolverContext(mesh, P)
    field_a, info, _, _ = surface_solve(ctx, make_profile(0.0, (), GEOM))
    assert info.method == "direct"
    rhs = assemble_rhs(mesh, bump())
    field_b, _ = solve_field(ctx, rhs)
    np.testing.assert_allclose(field_a.coeff, field_b.coeff, rtol=1e-10, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       N=st.integers(1, 2), nz=st.integers(1, 16), z0=st.floats(0.2, 0.8))
def test_identity_transform_gmres_matches_direct(mu, lam_frac, omega, N, nz, z0):
    """GMRES through a transform with f = c gives the direct flat solve."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = flat_mesh(N=N, nz=nz)
    coeffs = TransformCoefficients(mesh, make_profile(0.0, (), GEOM), CutoffFn(0.25, 1.0))
    rhs = assemble_rhs(mesh, bump(z0=z0))
    tol = 1e-9
    ctx = SolverContext(mesh, params)
    direct, _ = solve_field(ctx, rhs, tol=tol)
    field, info = solve_field(ctx, rhs, coeffs, tol=tol)
    assert info.method == "gmres" and info.residual <= tol
    assert (np.linalg.norm(field.coeff - direct.coeff)
            <= tol * np.linalg.norm(direct.coeff))


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       N=st.integers(1, 2), nz=st.integers(1, 16), z0=st.floats(0.2, 0.8))
def test_direct_solve_keeps_the_flux_identity(mu, lam_frac, omega, N, nz, z0):
    """The discrete flux identity holds to the harness's tolerance for any material."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = flat_mesh(N=N, nz=nz)
    classes, rhs = flat_load(mesh, bump(z0=z0))
    ctx = SolverContext(mesh, params)
    field, _ = solve_field(ctx, rhs, classes=classes)
    res, power, _ = energy_balance(field, rhs, ctx)
    assert res <= harness.ENERGY_TOL and power >= 0.0


@settings(max_examples=50, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       terms=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
                      min_size=1, max_size=3),
       N=st.integers(1, 2), nz=st.integers(1, 12), z0=st.floats(0.45, 0.8))
@example(mu=0.25, lam_frac=0.0, omega=11.0, terms=[(1, 1, 0.0, 0.03125)], N=1, nz=4, z0=0.5)
def test_rough_solve_keeps_the_flux_identity(mu, lam_frac, omega, terms, N, nz, z0):
    """A converged solve on a random rough surface passes the energy gate
    for any material.  The example's mismatch, 2.2e-7, exceeds
    ``ENERGY_TOL`` but lies within what its solve residual allows.  A solve
    that spends the ``_GMRES_MAX_ITER`` steps ends in NonConvergenceError,
    the typed error of that failure, and the gate has no field to judge; at
    small mu and large omega some surfaces do (see
    :func:`test_rough_refinement_converges_where_one_complex128_cycle_does`).
    """
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    ctx = SolverContext(flat_mesh(N=N, nz=nz), params)
    f = make_profile(0.0, terms, GEOM)
    tol = 1e-9
    try:
        field, info, rhs, _ = solve_surface(ctx, f, CutoffFn(0.25, 1.0), bump(z0=z0),
                                            physical=True, tol=tol)
    except NonConvergenceError as err:
        assert f"after {solver._GMRES_MAX_ITER} iterations" in str(err)
        reject()
    res, power, leeway = energy_balance(field, rhs, ctx)
    assert info.residual <= tol
    assert harness.energy_ok(res, power, leeway, info.residual)
    assert power >= harness.POWER_TOL


def mode_reflection(mesh):
    """The free-vector permutation R of the mode reflection j -> -j:
    (R x)[k, j, node] = x[k, -j, node]."""
    g = mesh.grid
    idx = np.arange(3 * g.n1 * g.n2 * (mesh.n_nodes - 1)).reshape(3, g.n1, g.n2, -1)
    return idx[:, -np.arange(g.n1) % g.n1][:, :, -np.arange(g.n2) % g.n2].ravel()


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       terms=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
                      min_size=1, max_size=3),
       N=st.integers(1, 3), nz=st.integers(4, 8), seed=st.integers(0, 2**32 - 1))
def test_operators_are_reciprocal_under_the_mode_reflection(mu, lam_frac, omega, terms,
                                                            N, nz, seed):
    """(R y)^T A x = (R x)^T A y for the reflection R: j -> -j.  The
    sesquilinear form is a symmetric bilinear form with its second argument
    conjugated, the conjugate of mode j is mode -j on any collocation grid,
    and the DtN symbol has M(-xi)^T = M(xi).  It holds for the rough
    operator at complex128, at complex64 on the mesh's grid and on the
    inner grid of a rough solve's Arnoldi steps, and for the flat bands,
    to the rounding of each."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    ctx = SolverContext(flat_mesh(N=N, nz=nz), params)
    coeffs = TransformCoefficients(ctx.mesh, make_profile(0.0, terms, GEOM), CutoffFn(0.25, 1.0))
    inner = coeffs.on(solver.inner_mesh(ctx.mesh, coeffs.surface))
    every = every_class(ctx.mesh)
    bands = assemble_flat_blocks(ctx.mesh, params, every)
    R = mode_reflection(ctx.mesh)
    rng = np.random.default_rng(seed)
    x, y = (rng.standard_normal(R.size) + 1j * rng.standard_normal(R.size) for _ in range(2))
    for apply, tol in ((StripOperator(ctx, coeffs).matvec, 1e-13),
                       (StripOperator(ctx, coeffs, np.complex64).matvec, 1e-6),
                       (StripOperator(ctx, inner, np.complex64).matvec, 1e-6),
                       (lambda v: banded_matvec(bands, v, every), 1e-13)):
        Ax, Ay = (apply(v).astype(complex) for v in (x, y))
        assert abs(y[R] @ Ax - x[R] @ Ay) <= tol * np.linalg.norm(y) * np.linalg.norm(Ax)


@pytest.mark.xfail(raises=NonConvergenceError, strict=True,
                   reason="each refinement round restarts the Krylov space")
def test_rough_refinement_converges_where_one_complex128_cycle_does():
    """At mu = 0.22, omega = 12 (k_s = 25.7) one complex128 GMRES cycle,
    preconditioned by the flat block-LU, meets tol in 45 steps, under the
    cap of 50.  The mixed-precision refinement meets its first round's
    target in 23 complex64 steps, restarts from that residual, 2.3e-5, and
    reaches only 2.9e-8 in the 27 steps left, so it raises
    NonConvergenceError."""
    mu = 0.21875
    ctx = SolverContext(flat_mesh(N=2, nz=8), ElasticParams(lam=-0.5 * mu, mu=mu, omega=12.0))
    f = make_profile(0.0, [(0, 1, 0.0, 0.03125), (1, 1, 0.0, 0.03125)], GEOM)
    coeffs = TransformCoefficients(ctx.mesh, f, CutoffFn(0.25, 1.0))
    rhs = assemble_rhs(ctx.mesh, bump(z0=0.5), coeffs, physical=True, work=ctx.work)
    exact = StripOperator(ctx, coeffs).matvec
    _, one_cycle = gmres(exact, rhs, ctx.solve, 1e-9, exact)
    assert one_cycle.iterations <= solver._GMRES_MAX_ITER
    field, info = solve_field(ctx, rhs, coeffs, tol=1e-9)
    assert harness.energy_ok(*energy_balance(field, rhs, ctx), info.residual)


def test_energy_gate_fails_a_perturbed_rough_solution():
    """The allowance for the solve residual passes no wrong solution: a
    converged rough field moved by 1e-6 relative fails the gate at the
    solve's own residual, in every random direction tried."""
    ctx = SolverContext(flat_mesh(N=2, nz=16), P)
    field, info, rhs, _ = surface_solve(ctx, make_profile(0.0, ((1, 0, 0.08, 0.0),), GEOM))
    assert harness.energy_ok(*energy_balance(field, rhs, ctx), info.residual)
    x = field.free_vector()
    rng = np.random.default_rng(0)
    for _ in range(3):
        d = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        moved = DiscreteField.from_free_vector(
            x + 1e-6 * np.linalg.norm(x) / np.linalg.norm(d) * d, ctx.mesh)
        assert not harness.energy_ok(*energy_balance(moved, rhs, ctx), info.residual)


def test_values_at_points_match_mode_sum():
    mesh = flat_mesh(N=1, nz=10)
    rhs = assemble_rhs(mesh, bump())
    field, _ = solve_field(SolverContext(mesh, P), rhs)
    x1, x2, z = 0.7, 2.1, 0.63
    vals = field.values_at_points(x1, x2, z)[:, 0]
    xi1, xi2 = mesh.grid.frequencies()
    modes = field.modes_at_z(z)[..., 0]
    ref = np.zeros(3, dtype=complex)
    for i1 in range(3):
        for i2 in range(3):
            ref += modes[:, i1, i2] * np.exp(1j * (xi1[i1] * x1 + xi2[i2] * x2))
    np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=1e-14)


def rough_system(N=2, nz=16):
    """Mesh, load vector and transform of a one-term rough surface."""
    mesh = flat_mesh(N=N, nz=nz)
    coeffs = TransformCoefficients(mesh, make_profile(0.0, ((1, 0, 0.08, 0.0),), GEOM),
                                   CutoffFn(0.25, 1.0))
    return mesh, assemble_rhs(mesh, bump(), coeffs, physical=True), coeffs


def count_matvecs(monkeypatch):
    """The precision of every matvec, in call order."""
    calls = []
    matvec = StripOperator._matvec

    def counted(self, v):
        calls.append(self.dtype)
        return matvec(self, v)

    monkeypatch.setattr(StripOperator, "_matvec", counted)
    return calls


def test_gmres_history_ends_with_true_residual(monkeypatch):
    """Each refinement round is complex64 Arnoldi steps, then one complex128
    true residual; the history lists the same sequence, so the last round's
    true residual ends it, and a fresh complex128 residual repeats it."""
    mesh, rhs, coeffs = rough_system()
    calls = count_matvecs(monkeypatch)
    ctx = SolverContext(mesh, P)
    field, info = solve_field(ctx, rhs, coeffs)
    rounds = calls.count(np.complex128)
    assert info.method == "gmres" and rounds >= 2 and calls[-1] == np.complex128
    assert calls.count(np.complex64) == info.iterations
    assert len(calls) == len(info.history) == info.iterations + rounds
    true = [h for h, dtype in zip(info.history, calls) if dtype == np.complex128]
    assert true[-1] == info.history[-1] == info.residual <= 1e-9 < true[-2]
    assert all(later <= earlier / 2 for earlier, later in zip(true, true[1:]))
    # a round stops at its first estimate within 1e-5 of the residual it started from (or tol)
    ends = [i for i, dtype in enumerate(calls) if dtype == np.complex128]
    for start, first, end in zip([1.0] + true, [0] + [i + 1 for i in ends], ends):
        estimates = info.history[first:end]
        target = max(1e-9, solver._INNER_TOL * start)
        assert estimates[-1] <= target < min(estimates[:-1], default=np.inf)
    x = field.free_vector()
    fresh = solver._norm(rhs - StripOperator(ctx, coeffs).matvec(x)) / solver._norm(rhs)
    assert fresh == info.residual
    _, direct = solve_field(ctx, assemble_rhs(mesh, bump()))
    assert direct.history == [direct.residual] and direct.iterations == 1


def test_gmres_zero_source_needs_no_matvec(monkeypatch):
    mesh, rhs, coeffs = rough_system()
    calls = count_matvecs(monkeypatch)
    field, info = solve_field(SolverContext(mesh, P), np.zeros_like(rhs), coeffs)
    assert not calls and np.all(field.coeff == 0)
    assert (info.residual, info.iterations, info.history) == (0.0, 0, [0.0])


def test_gmres_raises_at_the_iteration_cap(monkeypatch):
    """The cap counts the Arnoldi steps of all rounds: two steps past the
    first round, the error carries both rounds' estimates and true residuals."""
    mesh, rhs, coeffs = rough_system()
    calls = count_matvecs(monkeypatch)
    solve_field(SolverContext(mesh, P), rhs, coeffs)
    cap = calls.index(np.complex128) + 2
    calls.clear()
    monkeypatch.setattr(solver, "_GMRES_MAX_ITER", cap)
    with pytest.raises(NonConvergenceError) as err:
        solve_field(SolverContext(mesh, P), rhs, coeffs)
    history = err.value.history
    assert calls.count(np.complex64) == cap and calls.count(np.complex128) == 2
    assert len(history) == cap + 2 and history[-1] == err.value.residual > 1e-9
    first_round_residual = history[cap - 2]
    assert first_round_residual < 1e-3 and f"after {cap} iterations" in str(err.value)


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       N=st.integers(1, 3), nz=st.integers(1, 12),
       terms=st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2),
                                st.floats(-0.06, 0.06), st.floats(-0.06, 0.06)),
                      min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_complex64_operator_matches_complex128(mu, lam_frac, omega, N, nz, terms, seed):
    """On random materials and surfaces in the slab (|J3| < 0.3 / 0.75 < 1)
    the complex64 operator agrees with the complex128 one to 1e-6 relative,
    takes a complex128 vector and returns a complex64 one, and transforms in
    complex64 both ways: an upcast inside would keep these numbers but lose
    the speed."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = flat_mesh(N=N, nz=nz)
    coeffs = TransformCoefficients(mesh, make_profile(0.0, terms, GEOM), CutoffFn(0.25, 1.0))
    ctx = SolverContext(mesh, params)
    rng = np.random.default_rng(seed)
    n = 3 * mesh.grid.n1 * mesh.grid.n2 * nz
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    exact = StripOperator(ctx, coeffs).matvec(x)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("to_physical", "to_modes_adjoint"):
            def spied(self, C, *args, _name=name, _fn=getattr(StripMesh, name), **kwargs):
                out = _fn(self, C, *args, **kwargs)
                seen.append((_name, C.dtype, out.dtype))
                return out
            mp.setattr(StripMesh, name, spied)
        fast = StripOperator(ctx, coeffs, np.complex64).matvec(x)
    assert fast.dtype == np.complex64 and exact.dtype == np.complex128
    assert np.linalg.norm(fast - exact) <= 1e-6 * np.linalg.norm(exact)
    assert {name for name, _, _ in seen} == {"to_physical", "to_modes_adjoint"}
    assert all(i == o == np.complex64 for _, i, o in seen), seen


@pytest.mark.parametrize("wrong", [None, lambda y: -y])
def test_complex64_rounds_keep_a_complex64_krylov_basis(monkeypatch, wrong):
    """Every Gram-Schmidt product <v, w> of a round takes the basis vector
    v and the new direction w in the precision of the round's operator, so
    a complex64 round keeps a complex64 basis, and x is complex128.  With
    a negated complex64 operator the first round fails to halve the
    residual, and the rounds after it, on the complex128 operator, stay
    complex128."""
    mesh, rhs, coeffs = rough_system()
    calls = count_matvecs(monkeypatch)
    if wrong is not None:
        monkeypatch.setattr(StripOperator, "_matvec", _wrong_complex64(wrong))
    products = []  # (latest matvec precision, v, w) of every product of two arrays
    dot = solver._dot

    def spied(a, b):
        if a is not b:  # a norm is the dot of an array with itself
            products.append((calls[-1], a.dtype, b.dtype))
        return dot(a, b)

    monkeypatch.setattr(solver, "_dot", spied)
    field, info = solve_field(SolverContext(mesh, P), rhs, coeffs)
    assert info.residual <= 1e-9 and field.coeff.dtype == np.complex128
    assert all(v == w == op for op, v, w in products), set(products)
    rounds = {op for op, _, _ in products}
    assert rounds == ({np.dtype(np.complex64)} if wrong is None
                      else {np.dtype(np.complex64), np.dtype(np.complex128)})


@pytest.mark.parametrize("nz", [1, 2, 3])
def test_complex64_round_ends_when_its_krylov_space_is_exhausted(nz):
    """On a rough strip with the one mode N1 = N2 = 0 (3 n_z unknowns), a
    complex64 round with an unreachable target ends by breakdown within
    3 n_z steps instead of running to _GMRES_MAX_ITER: in complex64 an
    exhausted space leaves roundoff of 1e-7 to 1e-5, far above the
    complex128 threshold."""
    mesh = StripMesh(grid=SpectralGrid(N1=0, N2=0, cell=CELL), bottom=0.0, top=1.0,
                     n_elements=nz)
    coeffs = TransformCoefficients(mesh, make_profile(0.0, ((1, 0, 0.08, 0.0),), GEOM),
                                   CutoffFn(0.25, 1.0))
    ctx = SolverContext(mesh, P)
    rng = np.random.default_rng(nz)
    r = rng.standard_normal(3 * nz) + 1j * rng.standard_normal(3 * nz)
    r_norm = solver._norm(r)
    d, estimates, stuck = solver._gmres_cycle(StripOperator(ctx, coeffs, np.complex64).matvec,
                                              [r / r_norm], r_norm, ctx.solve, 0.0,
                                              solver._GMRES_MAX_ITER)
    assert stuck and len(estimates) <= 3 * nz and d.dtype == np.complex128


def test_a_rounds_basis_is_freed_before_its_correction_sweep(monkeypatch):
    """Every complex64 vector the preconditioner sweeps in a round, the
    round's Krylov basis, and every complex64 matvec output of the round
    are gone when the preconditioner is handed that round's complex128
    correction V y: the sweep runs without them."""
    mesh, rhs, coeffs = rough_system(N=4, nz=32)
    ctx = SolverContext(mesh, P)
    solve, matvec = ctx.solve, StripOperator._matvec
    held, checked = [], []  # weakrefs of the round's complex64 vectors

    def spy(v):
        if v.dtype == np.complex64:
            held.append(weakref.ref(v))
        else:  # a round's first vector r / ||r||, or its correction
            assert all(ref() is None for ref in held), sum(ref() is not None for ref in held)
            checked.append(len(held))
            held.clear()
        return solve(v)

    def tracked(self, v):
        w = matvec(self, v)
        if w.dtype == np.complex64:
            held.append(weakref.ref(w))
        return w

    ctx.solve = spy
    monkeypatch.setattr(StripOperator, "_matvec", tracked)
    _, info = solve_field(ctx, rhs, coeffs)
    assert info.residual <= 1e-9 and len(info.history) - info.iterations == 2
    # each round's steps are its matvec outputs, and all but its first its swept vectors
    assert sum(checked) == 2 * info.iterations - 2


def test_the_context_keeps_the_complex64_factor_and_no_bands():
    """After a rough solve the context holds its block-LU, not the bands it
    was factored from, and the factor returns the precision it sweeps in:
    complex64 for a complex64 b, complex128 for a complex128 one."""
    mesh, rhs, coeffs = rough_system()
    ctx = SolverContext(mesh, P)
    solve_field(ctx, rhs, coeffs)
    assert "bands" not in vars(ctx) and "solve" in vars(ctx)
    b = rhs.astype(np.complex64)
    assert ctx.solve(b).dtype == np.complex64
    assert ctx.solve(rhs).dtype == np.complex128


def test_warm_rough_solve_peaks_below_twelve_vectors():
    """A rough solve at N=4, n_z=32 on a warm context (block-LU and
    workspace built) allocates at most 12 complex128 free vectors at its
    tracemalloc peak: 11.1 with the complex64 Krylov basis, against 13.1
    when the basis, its Gram-Schmidt sums and the complex64 matvec's
    output were complex128."""
    mesh, rhs, coeffs = rough_system(N=4, nz=32)
    ctx = SolverContext(mesh, P)
    solve_field(ctx, rhs, coeffs)
    tracemalloc.start()
    try:
        _, info = solve_field(ctx, rhs, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.method == "gmres" and peak <= 12 * rhs.nbytes, peak / rhs.nbytes


def _wrong_complex64(wrong):
    """StripOperator._matvec with the complex64 operator replaced by ``wrong``."""
    matvec = StripOperator._matvec

    def patched(self, v):
        exact = matvec(self, v)
        return wrong(exact) if self.dtype == np.complex64 else exact

    return patched


@pytest.mark.parametrize("name, wrong", [
    ("negated", lambda y: -y),
    ("not finite", lambda y: np.full_like(y, np.nan)),
    ("scaled by 1e-12", lambda y: 1e-12 * y),
    ("off by 50 %", lambda y: 1.5 * y),
])
def test_a_wrong_complex64_operator_cannot_pass_the_gate(monkeypatch, name, wrong):
    """Whatever the complex64 operator returns, the solve either meets tol
    by the complex128 true residual, through the complex128 fallback when
    a round fails to halve the residual, or raises at the step cap with
    its history.  A negated, NaN or scaled-down operator makes no progress
    and falls back; after the scaled one's 1e12-fold correction the
    complex128 rounds restart from the true residual until x is back.  One
    off by 50 % gains 3x a round and runs into the cap."""
    mesh, rhs, coeffs = rough_system()
    calls = count_matvecs(monkeypatch)
    monkeypatch.setattr(StripOperator, "_matvec", _wrong_complex64(wrong))
    calls.clear()
    ctx = SolverContext(mesh, P)
    try:
        field, info = solve_field(ctx, rhs, coeffs)
    except NonConvergenceError as err:
        assert name == "off by 50 %"
        assert len(err.history) - calls.count(np.complex128) == solver._GMRES_MAX_ITER
        assert err.history[-1] == err.residual > 1e-9
        return
    assert name != "off by 50 %"
    x = field.free_vector()
    fresh = solver._norm(rhs - StripOperator(ctx, coeffs).matvec(x)) / solver._norm(rhs)
    assert fresh == info.residual == info.history[-1] <= 1e-9
    exact_rounds = len(info.history) - info.iterations
    assert calls.count(np.complex128) > exact_rounds  # Arnoldi steps ran in complex128
    exact = StripOperator(ctx, coeffs).matvec
    direct, _ = gmres(exact, rhs, ctx.solve, 1e-9, exact)
    assert np.linalg.norm(x - direct) <= 1e-6 * np.linalg.norm(direct)


@pytest.mark.parametrize("physics", [{"mu": 0.2, "omega": 5.0},
                                     {"mu": 1.0, "omega": 1.0}])  # |xi| = k_s at (1, 0)
def test_refined_solve_matches_a_complex128_solve(monkeypatch, physics):
    """u_vh of the mixed-precision solve equals that of a GMRES solve all in
    complex128 to 1e-8 relative, near a resonance of the clamped strip
    (mu = 0.2, omega = 5) and on the Rayleigh-Wood anomaly of the default
    material, where modes (+-1, 0) and (0, +-1) lie on the k_s circle."""
    cfg = from_dict({"physics": physics,
                     "surface": {"terms": [[1, 0, 0.06, 0.0], [0, 1, 0.0, 0.04]],
                                 "delta": 0.25},
                     "discretization": {"N1": 2, "N2": 2, "n_z": 16}})
    calls = count_matvecs(monkeypatch)
    refined, _ = harness.deterministic_run(cfg)
    assert np.complex64 in calls
    calls.clear()
    real = solver.gmres
    monkeypatch.setattr(solver, "gmres", lambda matvec, b, precond, tol, residual:
                        real(residual, b, precond, tol, residual))
    plain, _ = harness.deterministic_run(cfg)
    assert set(calls) == {np.dtype(np.complex128)}
    for report in (refined, plain):
        assert report.diagnostics["solve_residual"] <= 1e-9
    assert refined.u_vh == pytest.approx(plain.u_vh, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(0.3, 3.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.5, 6.0),
       N=st.integers(1, 6), K=st.integers(1, 3), axis=st.integers(0, 1),
       extra=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                st.floats(-0.03, 0.03), st.floats(-0.03, 0.03)), max_size=2),
       phase=st.floats(0.0, 2 * np.pi))
def test_refined_solve_on_the_inner_grid_matches_a_complex128_solve(
        mu, lam_frac, omega, N, K, axis, extra, phase):
    """Over random materials, N <= 6 and surfaces whose largest harmonic
    index K is 1 to 3, the mixed-precision solve, whose complex64 rounds
    run on the inner collocation grid, meets tol, and its u_vh equals that
    of a GMRES solve all in complex128 on the 3/2-rule grid to 1e-8."""
    j = (K, 0) if axis == 0 else (0, K)
    terms = [[*j, 0.05 * np.cos(phase), 0.05 * np.sin(phase)]]
    terms += [[min(max(j1, -K), K), min(max(j2, -K), K), c, s] for j1, j2, c, s in extra]
    cfg = from_dict({"physics": {"mu": mu, "lam": -0.5 * mu + lam_frac * (5.0 + 0.5 * mu),
                                 "omega": omega},
                     "surface": {"terms": terms, "delta": 0.25},
                     "discretization": {"N1": N, "N2": N, "n_z": 12}})
    sizes = []
    inner_mesh = solver.inner_mesh

    def recorded(mesh, surface):
        inner = inner_mesh(mesh, surface)
        sizes.append(((inner.P1, inner.P2), (mesh.P1, mesh.P2)))
        return inner

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "inner_mesh", recorded)
        refined, _ = harness.deterministic_run(cfg)
        real = solver.gmres
        mp.setattr(solver, "gmres", lambda matvec, b, precond, tol, residual:
                   real(residual, b, precond, tol, residual))
        plain, _ = harness.deterministic_run(cfg)
    inner, fine = sizes[0]
    assert inner[axis] == min(fine[axis], solver._next_fast_len(2 * N + 1 + 3 * K))
    for report in (refined, plain):
        assert report.diagnostics["solve_residual"] <= 1e-9
    assert refined.u_vh == pytest.approx(plain.u_vh, rel=1e-8)


def _surface(*terms):
    return SurfaceProfile(offset=0.0, terms=tuple(HarmonicTerm(*t) for t in terms), cell=CELL)


@pytest.mark.parametrize("N, terms, sizes", [
    (4, (), (9, 9)),                                        # K = 0: n points
    (4, ((1, 0, 0.05, 0.0),), (12, 9)),                     # n + 3K on the axis of the term
    (4, ((0, -1, 0.0, 0.05), (3, 0, 0.0, 0.0)), (9, 12)),   # a zero term has no index
    (6, ((1, 1, 0.03, 0.01),), (16, 16)),                   # mc_ensemble: 20 -> 16
    (8, ((1, 0, 0.06, 0.0), (1, 1, 0.0, 0.03)), (20, 20)),  # rough_solve: 27 -> 20
    (8, ((2, 0, 0.05, 0.0),), (24, 18)),                    # next fast lengths of 23 and 17
    (12, ((1, 1, 0.03, 0.0),), (28, 28)),                   # 40 -> 28
])
def test_inner_collocation_takes_n_plus_3k_points(N, terms, sizes):
    """Per axis, the complex64 operator's grid has the next fast length of
    n + 3K points, n = 2N + 1 and K the surface's largest harmonic index
    on the axis; the mesh at those sizes has its complex64 DFT matrices."""
    mesh = flat_mesh(N=N, nz=4)
    surface = _surface(*terms)
    assert all(s < P for s, P in zip(sizes, (mesh.P1, mesh.P2)))
    inner = solver.inner_mesh(mesh, surface)
    assert (inner.P1, inner.P2) == sizes and inner.n_elements == mesh.n_elements
    assert np.dtype(np.complex64) in inner._dft


@pytest.mark.parametrize("N, terms", [
    (1, ((1, 1, 0.05, 0.0),)),    # n + 3 = 6 > P = 5
    (8, ((3, -3, 0.02, 0.0),)),   # n + 9 = 26 -> 27 = P
    (2, ((1, 1, 0.05, 0.0),)),    # n + 3 = 8 = P
])
def test_inner_collocation_at_the_fine_size_builds_no_second_mesh(N, terms):
    """Where n + 3K reaches P, the complex64 operator runs on the
    solve's own mesh."""
    mesh = flat_mesh(N=N, nz=4)
    assert solver.inner_mesh(mesh, _surface(*terms)) is mesh


def test_the_inner_grid_does_not_reject_a_surface_the_fine_grid_accepts():
    """|J3| is checked on the 3/2-rule grid only.  max |f - c| / (gap -
    delta) = 1.0003 at x1 = 0.9 pi, a point of the 20-point inner grid but
    not of the 27-point one, where |J3| stays below 1."""
    mesh = flat_mesh(N=8, nz=8)
    a, phase = 0.7502, np.pi / 10
    surface = _surface((1, 0, a * np.cos(phase), -a * np.sin(phase)))
    cutoff = CutoffFn(0.25, 1.0)
    coeffs = TransformCoefficients(mesh, surface, cutoff)
    inner = solver.inner_mesh(mesh, surface)
    assert (inner.P1, inner.P2) == (20, 18)
    with pytest.raises(SingularTransformError):
        TransformCoefficients(inner, surface, cutoff)
    on_inner = coeffs.on(inner)
    assert on_inner.df.shape == (20, 18) and coeffs.on(mesh) is coeffs


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       N=st.integers(0, 4), nz=st.integers(1, 20), rough=st.booleans(), inner=st.booleans(),
       terms=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
                      min_size=1, max_size=3),
       budget=st.sampled_from([None, 1]), seed=st.integers(0, 2**32 - 1))
def test_matvec_matches_the_two_gauss_point_oracle(mu, lam_frac, omega, N, nz, rough, inner,
                                                    terms, budget, seed):
    """The complex128 matvec, which transforms each element's z-derivative
    once and folds its dual into the Gauss pair's value duals, equals the
    operator that carries the z-derivative at both Gauss points to 1e-13
    relative: flat and rough, on the 3/2-rule grid and on the inner one,
    in one element block or in blocks of single elements.  The flat strip
    is the identity transform."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = flat_mesh(N=N, nz=nz)
    ctx = SolverContext(mesh, params)
    coeffs = identity_transform(mesh)
    if rough:
        surface = make_profile(0.0, terms, GEOM)
        coeffs = TransformCoefficients(mesh, surface, CutoffFn(0.25, 1.0))
        if inner:
            coeffs = coeffs.on(solver.inner_mesh(mesh, surface))
    rng = np.random.default_rng(seed)
    n = 3 * mesh.grid.n1 * mesh.grid.n2 * nz
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = two_point_matvec(ctx, coeffs, x)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(solver, "_BLOCK_BYTES", budget)
        got = StripOperator(ctx, coeffs).matvec(x)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_a_rough_solve_replaces_no_workspace_buffer(monkeypatch):
    """The complex128 operator takes the buffers of its largest element
    block before the first complex64 matvec: on a fresh context every
    buffer of its workspace is allocated once in a rough solve, none
    regrown, with blocks of 16 elements in complex128 and 32 in complex64
    on the inner grid."""
    mesh, rhs, coeffs = rough_system(N=8, nz=64)
    ctx = SolverContext(mesh, P)
    ctx.solve
    sizes = {}
    take = Workspace.take

    def spied(self, name, shape, dtype=complex):
        buf = self._buffers.get(name)
        out = take(self, name, shape, dtype)
        if self is ctx.work and self._buffers[name] is not buf:
            sizes.setdefault(name, []).append(self._buffers[name].nbytes)
        return out

    monkeypatch.setattr(Workspace, "take", spied)
    _, info = solve_field(ctx, rhs, coeffs)
    assert info.method == "gmres" and set(sizes) >= {"fields", "scratch", "modes", "J1"}
    assert all(len(v) == 1 for v in sizes.values()), sizes


def test_gmres_happy_breakdown_is_exact():
    """b an eigenvector: the first step spans an invariant space, x = b / 2 exactly."""
    A = np.diag([2.0, 3.0, 5.0]).astype(complex)
    b = np.array([1.0, 0.0, 0.0], dtype=complex)
    x, info = gmres(A.dot, b, lambda v: v, 1e-12, A.dot)
    assert np.array_equal(x, b / 2)
    assert (info.iterations, info.residual, info.history) == (1, 0.0, [0.0, 0.0])


def test_gmres_raises_when_the_krylov_space_is_exhausted():
    """A tolerance below roundoff cannot be met once the space is invariant."""
    A = np.diag([3.0, 7.0]).astype(complex)
    b = np.array([1.0, 1.0], dtype=complex) / 3
    with pytest.raises(NonConvergenceError) as err:
        gmres(A.dot, b, lambda v: v, 0.0, A.dot)
    assert len(err.value.history) == 3 and err.value.history[1] < 1e-30


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_gmres_matches_dense_solve(n, seed):
    """Right preconditioning by a perturbed inverse: x = A^{-1} b, history = true residuals."""
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    Minv = np.linalg.inv(A + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, info = gmres(A.dot, b, Minv.dot, 1e-10, A.dot)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert info.residual == info.history[-1] <= 1e-10 and info.iterations <= n
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-7, atol=1e-9 * np.linalg.norm(x))


# A rough and a flat solve at N=4, n_z=64 and a 3-sample ensemble at N=6,
# n_z=32: large enough that BLAS reductions there would be split across threads.
_THREAD_PROBE = """
from elastrip import harness
from elastrip.config import from_dict
cfg = from_dict({"surface": {"terms": [[1, 0, 0.06, 0.0], [0, 1, 0.0, 0.05], [1, 1, 0.02, 0.02]],
                             "delta": 0.25},
                 "discretization": {"N1": 4, "N2": 4, "n_z": 64}})
report, _ = harness.deterministic_run(cfg)
print(report.diagnostics["solve_method"], repr(report.u_vh))
flat, _ = harness.deterministic_run(from_dict({"surface": {"delta": 0.25},
                                               "discretization": {"N1": 4, "N2": 4, "n_z": 64}}))
print(flat.diagnostics["solve_method"], repr(flat.u_vh))
mc = harness.monte_carlo(from_dict({
    "surface": {"law_bands": [[1, 0, 0.05], [0, 1, 0.05], [1, 1, 0.03]], "M0": 0.3, "delta": 0.25},
    "discretization": {"N1": 6, "N2": 6, "n_z": 32}}), n=3, seed=0)
print([(repr(r["u_h1_sq"]), repr(r["energy_residual"])) for r in mc.sample_rows])
"""


def test_rough_solve_is_bit_identical_across_blas_threads():
    """Rough and flat u_vh and Monte Carlo rows have the same bits at 1 and 2 BLAS threads."""
    src = str(Path(elastrip.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        out.append(run.stdout)
    assert out[0].startswith("gmres ") and "\ndirect " in out[0] and out[0] == out[1]


def _all_class_solve(mesh, params, rhs, tol=1e-9):
    """The direct path's solve over every mirror class: x and its relative residual."""
    return solver.solve_flat(SolverContext(mesh, params), every_class(mesh), rhs, tol)


def _spy_flat_assemblies(monkeypatch) -> list:
    """The bands of every later solver.assemble_flat_blocks call."""
    out, real = [], solver.assemble_flat_blocks

    def spy(*args, **kwargs):
        out.append(real(*args, **kwargs))
        return out[-1]

    monkeypatch.setattr(solver, "assemble_flat_blocks", spy)
    return out


harmonic = st.tuples(st.integers(0, 2), st.integers(-7, 7), st.integers(-7, 7),
                     st.floats(0.1, 2.0), st.floats(0.0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.2, 4.0), lam_frac=st.floats(0.0, 1.0), omega=st.floats(0.1, 15.0),
       cell=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
       N1=st.integers(0, 4), N2=st.integers(0, 4), nz=st.integers(1, 16),
       factors=st.lists(harmonic, min_size=1, max_size=3))
@example(mu=0.5, lam_frac=1.0, omega=1.0, cell=(1.0, 1.0), N1=1, N2=1, nz=1,
         factors=[(0, 1, 1, 1.0, 0.0)])  # refused; the block-LU fallback fits a determinant
def test_reached_class_solve_has_the_bits_of_every_class(mu, lam_frac, omega, cell, N1, N2,
                                                         nz, factors):
    """The direct path solves only the mirror classes its load reaches, and
    its field and residual equal those of its solve of every class bit for
    bit: each class takes the cyclic reduction or the block-LU fallback on
    its own.  Harmonics beyond +-N alias onto lattice modes or drop out;
    j = 0 axes fold a class's sign slots onto one mode.  The load formed on
    the reached classes alone has the classes and the entries of the free
    vector, and its solve and energy balance have their bits."""
    params = ElasticParams(lam=-0.5 * mu + lam_frac * (5.0 + 0.5 * mu), mu=mu, omega=omega)
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=cell),
                     bottom=-1.0, top=0.0, n_elements=nz)
    source = BumpSource(factors=tuple(HarmonicFactor(*f) for f in factors),
                        z0=-0.5, sigma=0.4, cell=cell)
    rhs = assemble_rhs(mesh, source)
    field, info = solve_field(SolverContext(mesh, params), rhs, tol=np.inf)
    x, rel = _all_class_solve(mesh, params, rhs, tol=np.inf)
    assert np.array_equal(field.free_vector(), x)
    assert info.residual == rel
    j1, j2 = mesh.grid.mode_indices()
    m1, m2 = np.nonzero(rhs.reshape(3, mesh.grid.n1, mesh.grid.n2, nz).any(axis=(0, 3)))
    expect = np.zeros((N1 + 1, N2 + 1), dtype=bool)
    expect[abs(j1[m1]), abs(j2[m2])] = True
    assert np.array_equal(solver._reached_classes(mesh, rhs), expect)
    # the load formed on the reached classes: the full vector's classes and entries
    classes, b = flat_load(mesh, source)
    assert all(map(np.array_equal, classes, solver.mirror_classes(expect, nz)))
    gathered = rhs.reshape(3, -1, nz)[:, classes.modes]
    assert np.array_equal(b, gathered)
    ctx = SolverContext(mesh, params)
    own, own_info = solve_field(ctx, b, tol=np.inf, classes=classes)
    assert np.array_equal(own.coeff, field.coeff) and own_info.residual == rel
    balance = energy_balance(own, b, ctx)
    assert balance == energy_balance(own, gathered.ravel(), ctx)
    # on every mode the pairing keeps its bits; ||x|| ||b|| of the leeway
    # then sums the zeros too, in another order
    every = energy_balance(DiscreteField(own.coeff, mesh), rhs, ctx)
    assert balance[:2] == every[:2]
    assert balance[2] == pytest.approx(every[2], rel=1e-14, abs=0.0)


def test_direct_solve_builds_its_classes_once(monkeypatch):
    """A flat run builds the ClassMaps of its reached classes once, with
    its load, and hands that value to the assembly, the factor and the
    residual multiply; a solve of a free vector builds them once too."""
    built, real = [], solver.mirror_classes

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    mesh = flat_mesh(N=2, nz=8)
    ctx, rhs = SolverContext(mesh, P), assemble_rhs(mesh, bump())
    monkeypatch.setattr(solver, "mirror_classes", spy)
    _, info, _, _ = surface_solve(ctx, make_profile(0.0, (), GEOM))
    assert info.method == "direct" and len(built) == 1
    assert built[0].c1.tolist() == [1] and built[0].c2.tolist() == [0]
    solve_field(ctx, rhs)
    assert len(built) == 2 and all(map(np.array_equal, built[1], built[0]))


def test_load_off_the_lattice_factors_no_class(monkeypatch):
    """A load whose every residue misses the lattice is zero: the solve
    returns zeros with residual 0 and assembles bands of no class."""
    mesh = StripMesh(grid=SpectralGrid(N1=2, N2=1, cell=(3.0, 5.0)), bottom=-1.0, top=0.0,
                     n_elements=6)
    off = BumpSource(factors=(HarmonicFactor(2, 3, 0, 1.0, 0.4),
                              HarmonicFactor(0, 3, -1, 0.5, 1.0)),
                     z0=-0.5, sigma=0.4, cell=(3.0, 5.0))
    rhs = assemble_rhs(mesh, off)
    assert not rhs.any()
    assembled = _spy_flat_assemblies(monkeypatch)
    field, info = solve_field(SolverContext(mesh, P), rhs)
    assert not field.coeff.any() and info.residual == 0.0
    (bands,) = assembled
    assert bands.size == 0


def test_flat_run_factors_the_one_class_its_source_reaches(monkeypatch):
    """At the flat_solve benchmark's shape (N = 8, n_z = 96, source j = (1, 0))
    the load reaches class (1, 0) only: one class of 81 is assembled, 41,472
    bytes of bands where every class takes 3,359,232."""
    cfg = from_dict({"surface": {"delta": 0.25},
                     "discretization": {"N1": 8, "N2": 8, "n_z": 96}})
    assembled = _spy_flat_assemblies(monkeypatch)
    report, _ = harness.deterministic_run(cfg)
    assert report.diagnostics["solve_method"] == "direct"
    (bands,) = assembled
    assert bands.shape == (3, 1, 96, 3, 3) and bands.nbytes == 41_472
    params, _, mesh, *_ = harness.build_setup(cfg)
    assert assemble_flat_blocks(mesh, params, every_class(mesh)).nbytes == 3_359_232


def _singular_symbol_at(monkeypatch, c1, c2):
    """Make the DtN symbol of mirror class (c1, c2), at its frequencies
    2 pi (c1, c2) / CELL, infinite in every later flat assembly, whichever
    frequencies the assembly forms the symbol at."""
    real = solver.dtn_symbol_grid
    xi1, xi2 = 2 * np.pi * c1 / CELL[0], 2 * np.pi * c2 / CELL[1]

    def singular(XI1, XI2, params):
        M = real(XI1, XI2, params)
        M[:, :, np.broadcast_to((XI1 == xi1) & (XI2 == xi2), M.shape[2:])] = np.inf
        return M

    monkeypatch.setattr(solver, "dtn_symbol_grid", singular)


def test_singular_pivot_of_a_reached_class_names_it(monkeypatch):
    """An infinite block in a class the load reaches still raises, naming
    that class, not its position among the reached ones; one in a class the
    load misses is never factored, and its modes stay zero."""
    mesh = StripMesh(grid=SpectralGrid(N1=2, N2=1, cell=CELL), bottom=0.0, top=1.0,
                     n_elements=8)
    src = BumpSource(factors=(HarmonicFactor(2, 0, 1, 1.0, 0.3),
                              HarmonicFactor(0, -2, 1, 0.7, 1.1)),
                     z0=0.5, sigma=0.3, cell=CELL)
    ctx, rhs = SolverContext(mesh, P), assemble_rhs(mesh, src)
    reached = solver._reached_classes(mesh, rhs)
    assert np.array_equal(np.argwhere(reached), [[0, 1], [2, 1]])
    with monkeypatch.context() as m:
        _singular_symbol_at(m, 2, 1)  # the second reached class
        with np.errstate(invalid="ignore"), pytest.raises(
                NonConvergenceError, match=r"mode \(±2, ±1\), mesh node 8 of 8"):
            solve_field(ctx, rhs)
    x, _ = _all_class_solve(mesh, P, rhs)
    _singular_symbol_at(monkeypatch, 1, 0)  # reached by no mode of the load
    field, info = solve_field(ctx, rhs)
    assert info.residual <= 1e-9 and np.array_equal(field.free_vector(), x)
    j1, j2 = mesh.grid.mode_indices()
    assert not field.coeff[:, abs(j1) == 1][:, :, abs(j2) == 0].any()


@settings(max_examples=60, deadline=None)
@given(N1=st.integers(0, 4), N2=st.integers(0, 4), nz=st.integers(1, 20),
       cell=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
       live_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_mode_quadratics_on_live_modes_have_the_bits_of_every_mode(N1, N2, nz, cell,
                                                                   live_share, seed):
    """On a field that is zero off some modes (none, some or all), the
    quadratics, the Poincare slack and the V_h norm equal numpy's sums over
    the whole coefficient array bit for bit: with ``modes`` None, with the
    nonzero modes, and with a superset of them."""
    mesh = StripMesh(grid=SpectralGrid(N1=N1, N2=N2, cell=cell),
                     bottom=-0.4, top=0.6, n_elements=nz)
    rng = np.random.default_rng(seed)
    g = mesh.grid
    n = g.n1 * g.n2
    shape = (3, n, mesh.n_nodes)
    live = np.flatnonzero(rng.random(n) < live_share)
    coeff = np.zeros(shape, dtype=complex)
    coeff[:, live, 1:] = (rng.standard_normal((3, len(live), nz))
                          + 1j * rng.standard_normal((3, len(live), nz)))
    coeff = coeff.reshape(3, g.n1, g.n2, mesh.n_nodes)
    oracle = DiscreteField(coeff, mesh)
    l2, dz, horiz = expect = full_mode_quadratics(oracle)
    area, depth = g.cell_area, mesh.top - mesh.bottom
    slack = depth * depth / 2 * float(area * dz.sum()) - float(area * l2.sum())
    vh = float(np.sqrt(area * (l2.sum() + dz.sum() + horiz.sum())))
    superset = np.union1d(live, np.flatnonzero(rng.random(n) < 0.3))
    for modes in (None, live, superset):
        field = DiscreteField(coeff, mesh, modes)
        got = field.mode_quadratics()
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))
        assert poincare_slack(field) == slack and poincare_slack(field, got) == slack
        assert field.vh_norm() == vh


def test_gmres_holds_no_zero_iterate(monkeypatch):
    """A nonzero solve starts from the scalar x0 = 0 and makes no zero
    vector of b's shape to hold it."""
    rng = np.random.default_rng(2)
    n = 40
    A = np.eye(n) * 4 + (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    on_b = []
    real = np.zeros_like
    monkeypatch.setattr(np, "zeros_like", lambda a, *args, **kwargs:
                        on_b.append(a is b) or real(a, *args, **kwargs))
    x, info = gmres(A.dot, b, lambda v: v, 1e-10, A.dot)
    assert info.residual <= 1e-10
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert not any(on_b)


@settings(max_examples=40, deadline=None)
@given(n_modes=st.integers(1, 300), nz=st.integers(1, 100),
       live_share=st.sampled_from([0.0, 0.02, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_dot_on_live_modes_has_the_bits_of_the_full_vectors(n_modes, nz, live_share, seed):
    """The pairing and norm of free vectors given by their entries on some
    modes equal numpy's pairwise sums over the full vectors, zeros included."""
    rng = np.random.default_rng(seed)
    live = np.flatnonzero(rng.random(n_modes) < live_share)
    full = np.zeros((2, 3, n_modes, nz), dtype=complex)
    full[:, :, live] = (rng.standard_normal((2, 3, len(live), nz))
                        + 1j * rng.standard_normal((2, 3, len(live), nz)))
    a, b = full[:, :, live]
    dot = solver._dot(full[0].ravel(), full[1].ravel())
    work = Workspace()
    assert solver._dot_on(a, b, live, n_modes, work) == dot
    assert solver._dot_on(full[0], full[1], None, n_modes, work) == dot
    assert solver._norm_on(a, live, n_modes, work) == solver._norm(full[0].ravel())


def test_flat_solve_and_diagnostics_allocate_under_three_free_vectors():
    """A warm flat run, from its config to its report, allocates for the
    modes its load reaches, not the lattice: at N1 = N2 = 16 (1,089 modes,
    one reached class of 289) its tracemalloc peak stays under 3 free
    vectors.  The load is formed on the reached modes only.  The field's
    coefficient array (about one free vector, zero off the reached modes)
    and the zero-padded products of one full-length pairing sum are the
    large allocations."""
    cfg = from_dict({"surface": {"delta": 0.25},
                     "discretization": {"N1": 16, "N2": 16, "n_z": 32}})
    params, _, mesh, _, source = harness.build_setup(cfg)
    free_bytes = 3 * mesh.grid.n1 * mesh.grid.n2 * (mesh.n_nodes - 1) * 16  # complex128
    classes, _ = flat_load(mesh, source)
    _, field = harness.deterministic_run(cfg)  # warm
    assert len(classes.c1) == 1 and len(field.modes) == 2
    tracemalloc.start()
    try:
        harness.deterministic_run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * free_bytes


def test_trace_from_coefficients_returns_them_and_flux_reads_its_modes():
    """A trace built from coefficients returns that array, with no FFT round
    trip; the flux and the power of a trace that lists its live modes equal
    those of the same trace over every mode."""
    grid = SpectralGrid(N1=3, N2=2, cell=(2.0, 3.0))
    rng = np.random.default_rng(8)
    coeff = np.zeros((3, grid.n1 * grid.n2), dtype=complex)
    live = np.array([0, 4, 9, 30])
    coeff[:, live] = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    coeff = coeff.reshape(3, grid.n1, grid.n2)
    trace = BoundaryTrace(coeff, grid, live)
    assert np.array_equal(trace.coefficients, coeff)
    assert np.array_equal(trace.values, np.fft.ifft2(coeff, axes=(1, 2)) * (grid.n1 * grid.n2))
    XI1, XI2, _ = grid.frequency_mesh()
    symbol = dtn_symbol_grid(XI1, XI2, P)
    flux, power = energy_flux(trace, P, symbol)
    every = energy_flux(BoundaryTrace(coeff, grid), P, symbol)
    assert (flux, power) == pytest.approx(every, rel=1e-14, abs=1e-300)
    assert power > 0
