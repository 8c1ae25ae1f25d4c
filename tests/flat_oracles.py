"""Flat-surface oracles that check the solver by routes it does not use.

A test helper, not a test module: pytest does not collect it.  The finite-
difference mode solve and the coercivity probe's eigenvalues use scipy,
which no run path imports.  ``expand_mirrors`` expands the solver's bands,
stored once per mirror class (|j1|, |j2|), to every lattice mode, and
``dense_blocks`` expands them further into the dense per-mode matrices
that the probe and the operator tests use.  ``dense_1d`` rebuilds the dense
1D matrices from the mesh's diagonals, and ``einsum_bands`` contracts the
bands from them.  ``mode_flat_blocks``, ``mode_block_lu_solver`` and
``mode_banded_matvec`` are the assembly, factor and residual multiply
over every mode, without the mirror classes: the solver's class versions
must give their bits.  ``norms_sq`` sums a field's mode quadratics into
its squared L2, dz and gradient norms.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from elastrip.dtn import SpectralGrid, dtn_symbol_grid
from elastrip.errors import ConstraintError
from elastrip.mesh import StripMesh
from elastrip.params import ElasticParams
from elastrip.solver import (_adjugate3, _assemble_bands, _class_frequencies, _mode_density,
                             assemble_flat_blocks, every_class)


def _band_shifts(nz: int) -> np.ndarray:
    """S[d, i, i'] = 1 where band d of row i sits in column i' = i + d - 1."""
    return np.stack([np.eye(nz, k=k) for k in (-1, 0, 1)])


def expand_mirrors(bands: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Per-mode bands (3, n1, n2, n_z, 3, 3), FFT order, of the bands of
    every class, (3, (N1 + 1)(N2 + 1), n_z, 3, 3) or (3, N1 + 1, N2 + 1,
    n_z, 3, 3): mode (j1, j2) takes class (|j1|, |j2|) with the u1 rows and
    columns negated where j1 < 0 and the u2 ones where j2 < 0.  The signs go
    on the float view, so they are exact."""
    j1, j2 = grid.mode_indices()
    bands = bands.reshape((3, grid.N1 + 1, grid.N2 + 1) + bands.shape[-3:])
    out = bands[:, abs(j1)[:, None], abs(j2)[None, :]]
    s = np.ones((grid.n1, grid.n2, 3))
    s[..., 0] = np.where(j1 < 0, -1.0, 1.0)[:, None]
    s[..., 1] = np.where(j2 < 0, -1.0, 1.0)[None, :]
    sign = s[:, :, None, :, None] * s[:, :, None, None, :]  # [m1, m2, 1, k, j]
    out.view(float).__imul__(np.repeat(sign, 2, axis=-1))
    return out


def dense_blocks(bands: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Dense per-mode matrices (n1, n2, 3 n_z, 3 n_z) of class bands, in free-vector order."""
    bands = expand_mirrors(bands, grid)
    _, n1, n2, nz = bands.shape[:4]
    A = np.einsum("dmnikj,dil->mnkijl", bands, _band_shifts(nz))
    return A.reshape(n1, n2, 3 * nz, 3 * nz)


def dense_1d(mesh: StripMesh):
    """Dense (n_nodes, n_nodes) Mz, Sz, Dz from the mesh's row-aligned
    diagonals, X[m, m + d - 1] = diags[d, m]."""
    n = mesh.n_nodes
    out = []
    for diags in (mesh.Mz_diags, mesh.Sz_diags, mesh.Dz_diags):
        X = np.zeros((n, n))
        for d in range(3):
            rows = np.arange(max(0, 1 - d), min(n, n + 1 - d))
            X[rows, rows + d - 1] = diags[d, rows]
        out.append(X)
    return tuple(out)


def einsum_bands(mesh: StripMesh, K: np.ndarray) -> np.ndarray:
    """The bands of ``_assemble_bands``, contracted from the dense 1D matrices."""
    Mz, Sz, Dz = dense_1d(mesh)
    B = np.array([[Mz, Dz], [Dz.T, Sz]])[..., 1:, 1:]  # [a, b, test, trial]
    diags = np.einsum("abil,dil->abdi", B, _band_shifts(mesh.n_nodes - 1))
    return mesh.grid.cell_area * np.einsum("akbjmn,abdi->dmnikj", K, diags)


def flat_mode_oracle(xi, params: ElasticParams, g_profile, h: float, m_ref: float,
                     n_fine: int = 2048):
    """Dense FD solve of the per-mode two-point boundary value problem.

    Second-order central differences for the interior Navier system,
    u(m_ref) = 0 and the Robin top condition T u = i M(xi) u with a
    second-order one-sided derivative.  Independent of the Galerkin path.
    Every interior node has the same 3x3 stencil blocks, so the matrix is
    their Kronecker product with the node shifts, plus the two boundary rows.
    """
    xi = np.asarray(xi, dtype=float)
    lam, mu, w = params.lam, params.mu, params.omega
    n = n_fine
    z = np.linspace(m_ref, h, n + 1)
    dz = z[1] - z[0]
    ix = 1j * xi
    lm = lam + mu
    xi_sq = float(xi @ xi)

    # interior stencil on nodes i-1, i, i+1:
    # mu u'' - mu |xi|^2 u + w^2 u + (lam + mu) grad(div u), div = i xi.u' + u3'
    lower = np.diag(np.full(3, mu / dz**2 + 0j))
    diag = np.diag(np.full(3, -2 * mu / dz**2 - mu * xi_sq + w * w + 0j))
    upper = lower.copy()
    for c in range(2):
        diag[c, :2] += lm * ix[c] * ix[:2]
        lower[c, 2] += -lm * ix[c] / (2 * dz)
        upper[c, 2] += lm * ix[c] / (2 * dz)
        lower[2, c] += -lm * ix[c] / (2 * dz)
        upper[2, c] += lm * ix[c] / (2 * dz)
    lower[2, 2] += lm / dz**2
    diag[2, 2] += -2 * lm / dz**2
    upper[2, 2] += lm / dz**2

    # top Robin: T u - i M u = 0 with the one-sided second-order u'(h);
    # T1,2 = mu u1,2' + mu i xi1,2 u3, T3 = (lam + 2 mu) u3' + lam i xi.u
    d = np.diag([mu, mu, lam + 2 * mu])
    top = d * 1.5 / dz - 1j * dtn_symbol_grid(xi[0], xi[1], params)
    top[:2, 2] += mu * ix
    top[2, :2] += lam * ix

    def node_block(rows, k, block):
        """kron(S, block) where S has ones at (i, i + k) for nodes i in rows."""
        rows = np.asarray(rows)
        S = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, rows + k)),
                                    shape=(n + 1, n + 1))
        # coo keeps no zero of block: stored zeros would change spsolve's ordering
        return scipy.sparse.kron(S, block, format="coo")

    interior = np.arange(1, n)
    A = (node_block(interior, -1, lower) + node_block(interior, 0, diag)
         + node_block(interior, 1, upper)
         + node_block([0], 0, np.eye(3))                      # bottom Dirichlet
         + node_block([n], 0, top) + node_block([n], -1, d * (-2.0) / dz)
         + node_block([n], -2, d * 0.5 / dz))
    b = np.zeros((n + 1, 3), dtype=complex)
    for i in interior:  # one call per node: g_profile need only take a scalar height
        b[i] = np.asarray(g_profile(z[i]), dtype=complex)

    sol = scipy.sparse.linalg.spsolve(A.tocsr(), b.ravel())
    return z, sol.reshape(n + 1, 3).T


def coercivity_probe(mesh: StripMesh, params: ElasticParams, n_probes: int = 200,
                     seed: int = 0) -> dict:
    """Minimum of Re B(v,v)/||v||_Vh^2 over random fields, plus the exact minimum.

    The exact minimum is the smallest generalized eigenvalue of the Hermitian
    part of the per-mode operator against the energy-norm Gram matrix; the
    probe minimum can only lie above it.
    """
    if n_probes <= 0:
        raise ConstraintError("n_probes must be positive")
    grid = mesh.grid
    blocks = dense_blocks(assemble_flat_blocks(mesh, params, every_class(mesh)), grid)
    gram = dense_blocks(_assemble_bands(mesh, _mode_density(*_class_frequencies(grid),
                                                            1.0, 0.0, 0.0, 1.0)), grid)
    rng = np.random.default_rng(seed)
    probe_min = np.inf
    for _ in range(n_probes):
        # per mode, the real then the imaginary part of the probe field
        R = rng.standard_normal(blocks.shape[:2] + (2, blocks.shape[-1]))
        v = R[..., 0, :] + 1j * R[..., 1, :]
        val, nrm = (np.einsum("mni,mnij,mnj->", v.conj(), A, v, optimize=True).real
                    for A in (blocks, gram))
        probe_min = min(probe_min, val / nrm)
    rayleigh_min = np.inf
    for A, G in zip(blocks.reshape(-1, *blocks.shape[2:]), gram.reshape(-1, *gram.shape[2:])):
        vals = scipy.linalg.eigh((A + A.conj().T) / 2, G.real, eigvals_only=True)
        rayleigh_min = min(rayleigh_min, float(vals[0]))
    return {"probe_min": float(probe_min), "rayleigh_min": float(rayleigh_min),
            "n_probes": n_probes, "seed": seed}


# ---------------------------------------------------------------------------
# the flat operator over every lattice mode
# ---------------------------------------------------------------------------

def mode_flat_blocks(mesh: StripMesh, params: ElasticParams) -> np.ndarray:
    """Bands of every lattice mode, (3, n1, n2, n_z, 3, 3) in FFT order,
    assembled mode by mode like ``assemble_flat_blocks`` assembles a class."""
    g = mesh.grid
    lam, mu, w = params.lam, params.mu, params.omega
    XI1, XI2, _ = g.frequency_mesh()
    bands = _assemble_bands(mesh, _mode_density(XI1, XI2, 2 * mu, lam, -mu, -w * w))
    Msym = dtn_symbol_grid(XI1, XI2, params)  # [k, j, m1, m2]
    bands[1, :, :, -1] -= 1j * g.cell_area * np.moveaxis(Msym, (0, 1), (2, 3))
    return bands


def mode_banded_matvec(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-mode bands on a free vector by batched (3, 3) @ (3, 1) matmuls:
    (A v)_i = L_i v_{i-1} + D_i v_i + U_i v_{i+1}.  The blocks enter with
    their rows reversed, so numpy runs every product in its own loop, also
    on a grid of one mode, whose contiguous blocks it would hand to BLAS."""
    # each [i, m1, m2, k, j], rows reversed
    lower, diag, upper = np.moveaxis(bands, 3, 1)[..., ::-1, :]
    nz, n1, n2 = diag.shape[:3]
    x = np.asarray(v).reshape(3, n1, n2, nz).swapaxes(0, 3)[..., None]  # [i, m1, m2, k, 1]
    y = diag @ x
    y[1:] += lower[1:] @ x[:-1]
    y[:-1] += upper[:-1] @ x[1:]
    return y[..., ::-1, 0].swapaxes(0, 3).ravel()


def mode_block_lu_solver(bands: np.ndarray):
    """Top-down block Thomas of every mode's bands, each mode its own pivots:
    solve(b) = A^{-1} b on free vectors."""
    _, n1, n2, nz = bands.shape[:4]
    upper, diag, lower = bands.reshape(3, n1 * n2, nz, 3, 3)[:, :, ::-1].transpose(0, 2, 3, 4, 1)
    piv = np.empty_like(diag, order="C")  # [i, k, j, mode]
    C = np.zeros_like(piv)
    for i in range(nz):
        adj, det, _ = _adjugate3(diag[i] - (lower[i][:, :, None] * C[i - 1]).sum(axis=1))
        np.divide(adj, det, out=piv[i])
        (piv[i][:, :, None] * upper[i]).sum(axis=1, out=C[i])

    def solve(v: np.ndarray) -> np.ndarray:
        b = np.asarray(v).reshape(3, n1 * n2, nz)[:, :, ::-1].transpose(2, 0, 1)
        y = np.zeros(b.shape, dtype=complex)  # [i, k, mode]
        for i in range(nz):
            (piv[i] * (b[i] - (lower[i] * y[i - 1]).sum(axis=1))).sum(axis=1, out=y[i])
        for i in range(nz - 2, -1, -1):
            y[i] -= (C[i] * y[i + 1]).sum(axis=1)
        return y.transpose(1, 2, 0)[:, :, ::-1].ravel()

    return solve


def full_mode_quadratics(field):
    """The mode quadratics of a DiscreteField as numpy's sums over the
    component and node axes of its whole coefficient array, every mode
    included: (c^H Mz c, c^H Sz c, |xi|^2 c^H Mz c) per mode."""
    _, _, xi_sq = field.mesh.grid.frequency_mesh()
    c, Mz, Sz = field.coeff, field.mesh.Mz_diags, field.mesh.Sz_diags
    cross = (np.conj(c[..., :-1]) * c[..., 1:]).real
    l2 = (np.sum(Mz[1] * (c.real ** 2 + c.imag ** 2), axis=(0, 3))
          + 2 * np.sum(Mz[2, :-1] * cross, axis=(0, 3)))
    jump = np.diff(c)
    dz = np.sum(-Sz[2, :-1] * (jump.real ** 2 + jump.imag ** 2), axis=(0, 3))
    return l2, dz, xi_sq * l2


def norms_sq(field) -> tuple[float, float, float]:
    """(||u||^2, ||dz u||^2, ||grad u||^2) of a DiscreteField over the strip,
    from its exact mode quadratics."""
    l2, dz, horiz = field.mode_quadratics()
    area = field.mesh.grid.cell_area
    return float(area * l2.sum()), float(area * dz.sum()), float(area * (dz.sum() + horiz.sum()))
