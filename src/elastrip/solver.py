"""Galerkin discretization and solution of the strip variational problem.

Flat reference surface: Fourier modes decouple, each mode is a 3x3-block
tridiagonal 1D system.  The modes (+-j1, +-j2) share one matrix up to the
signs of the u1 and u2 rows and columns, so the bands are stored and
factored once per mirror class (|j1|, |j2|).  A mode with zero load has
the zero solution, so the direct solve (:func:`solve_flat`) assembles and
solves, batched over classes, only the classes its load reaches: a few
for a source of a few harmonics.  The one flat entry forms the load on
those classes alone (:func:`flat_load`) and passes the classes with it
to :func:`solve_field`; their entries go through the solve and the
energy balance, with no vector of every mode.  Two eliminations serve
the flat operator, both on class-last views of the bands, both inverting
their 3x3 pivots in closed form, so neither makes a LAPACK or BLAS
call.  The direct solve runs block cyclic reduction
(:func:`_cyclic_reduction`), about log2 n_z batched levels.  Its pivots
are sub-strips clamped at both ends, which can resonate, so a class whose
reduction fails a pivot check or misses the residual is solved again by
the top-down block-LU (:func:`block_lu_solver`), whose pivots are strips
closed by the radiating top.  The block-LU is also the rough solves' preconditioner,
which factors every class once and applies the factor to many vectors;
there its loop over the n_z nodes costs less than the reduction's wider
levels.  Where a block-LU pivot's determinant cancels in its row
expansion, it is fitted instead, at that node, in the one pass.
Rough surface:
the flattening transform turns the problem into a variable-coefficient one on
the same reference strip, applied matrix-free and solved with the module's
own GMRES, right-preconditioned by the same block-LU, with its Arnoldi
steps in complex64 and its residual gate in complex128.  Each application is
one transform of the values at the Gauss pairs and of the z-derivatives,
one per element, to the padded collocation grid by DFT-matrix products that
also give the horizontal derivatives, the symmetric stress at the
quadrature points, and the adjoint products on the duals.  The DtN term is
mode-diagonal in both cases because the transform is the identity at the
top plane.

The collocation grid of the mesh, P >= 3(2N + 1)/2 points per axis (the 3/2
rule), defines the discrete problem: the complex128 operator that gates
every residual, the load vector, the physical norms and the |J3| check all
use it.  The complex64 Arnoldi operator of a rough solve runs on a coarser
grid of min(P, n + 3K) points per axis (:func:`inner_mesh`), n =
2N + 1 and K the surface's largest harmonic index there.  Its rounds need
only cut the residual by a fixed factor (iterative refinement; Carson &
Higham, SIAM J. Sci. Comput. 40 (2018) A817), and the aliasing of the
coarser grid errs by less than the complex64 rounding they already accept
(see ``_INNER_TOL``).  The grid changes the inner operator, not the solution.

Everything between a forward and an adjoint transform is pointwise in z, so
the stages that hold fields on the padded collocation x quadrature grid (the
matvec, the load vector and the physical norms) run over blocks of vertical
elements (loop tiling).  :func:`element_blocks` splits the elements into
few blocks whose stacked fields, 3 x 4 complex values per point, fit in the
stage's share of the budget of its :class:`~elastrip.mesh.Workspace`
(``_BLOCK_BYTES`` unless the workspace sets another): the whole budget for
the complex64 Arnoldi operator, which runs at every step of a rough solve,
and half of it, where that half holds a granule of elements, for the
complex128 stages, which run once or twice a solve.  The blocks of a stage
reuse the buffers of the workspace, so its working set does not grow with
n_z: after a rough solve of the benchmark's surface it holds 0.83 times
the budget at N = 8, n_z = 64 and 0.73 at N = 6, n_z = 32 (sized by the
complex64 operator), and 1.4 to 1.7 times it from N = 12 on, where half
the budget holds no granule.  The operator's blocks
are visited in a fixed order, and cut at whole granules of elements where
the budget holds one, so its bits depend on the mesh only, and not on how
the budget is shared among threads.  The physical and source norms sum
block by block, so their last bits follow the cut.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .dtn import BoundaryTrace, SpectralGrid, _every, dtn_symbol_grid, energy_flux
from .errors import ConstraintError, NonConvergenceError, SingularTransformError
from .geometry import CutoffFn, SurfaceProfile, transform_factors
from .mesh import StripMesh, Workspace, _next_fast_len
from .params import ElasticParams

_ENERGY_EPS = 1e-14
# Arnoldi steps before GMRES gives up; the flat preconditioner needs about 10
# at every size measured.  Each step keeps one more basis vector.
_GMRES_MAX_ITER = 50
# A GMRES step whose new direction is below this share of A M^{-1} v_k found
# an invariant Krylov space (a happy breakdown): exhausting the space leaves
# 1e-30 and less, while a working step keeps 1e-4 and more.
_BREAKDOWN = 1e-14
# The same share for a round whose basis is complex64.  There what is left of
# an exhausted space is the complex64 operator's own error: 1.1e-7 to
# 1.1e-5 of |A M^{-1} v_k| on rough strips with N1 = N2 = 0 and n_z <= 3,
# and up to 8.4e-5 on a smooth vector (see _INNER_TOL).  The working steps of
# rough solves of the benchmark's surfaces keep 4.2e-2 and more (321 steps of
# rough_solve seeds 0-9 and mc_ensemble seeds 0-2, on the inner grid).  A
# false breakdown only ends the round early: the complex128 residual still
# judges its correction.
_BREAKDOWN_COMPLEX64 = 1e-4
# A refinement round of the rough solve runs Arnoldi on the complex64
# operator until its estimate is this share of the round's starting residual
# (see gmres).  At N=8, n_z=64 (seed-0 rough_solve) the complex64 matvec on
# the inner grid (20 x 20 points against 27 x 27) differs from the
# complex128 one by 2.9e-6 of |A x| on a random x, and by 8.4e-5 on the
# smooth first Krylov vector M^{-1} b, whose A x cancels; that error caps what
# one round gains.  Apart, the inner grid's aliasing errs by 2.9e-6 and
# 5.4e-9 (the complex128 operator on it), and complex64 rounding by 2.5e-7
# and 8.4e-5 (on the 3/2-rule grid): on the smooth vectors that matter the
# rounding dominates, and the coarser grid costs a round nothing.  A solve
# to 1e-9 takes two rounds: the seed-0 rough_solve runs 6 + 5 complex64
# steps, its true residuals 1.0e-4, then 6.5e-10 (1.2e-4, then 7.3e-10 on
# the 3/2-rule grid).  On n + K = 18 points its second round stopped at
# 1.1e-8, and it took 12 steps and 3 rounds.
# Complex64 steps per solve at 1e-5 -> 3e-5, each with 2 complex128
# residuals at both (benchmark workloads, N=8, n_z=64 and N=6, n_z=32):
#   rough_solve seeds 0-4:        11, 11, 11, 11, 11 -> 11, 11, 11, 10, 10
#   mc_ensemble seed 0 (8 solves): 9 11 8 10 11 9 10 9 -> 9 10 8 9 10 8 10 9
#   mc_ensemble seed 1 (8 solves): 9 each -> 8 9 9 9 9 9 9 9
# Over seeds 0-9 of both, 23 of 90 solves took a step fewer and none more.
# The step saved is the first round's last, which the complex64 error above
# makes useless.  At 1e-4 and looser, solves took three rounds; at 1e-6, a
# step more.  The inner grid keeps the steps and rounds of rough_solve seeds
# 0-9 and of the 24 mc_ensemble solves of seeds 0-2.
_INNER_TOL = 3e-5
# Bytes of one element block's stacked fields (see element_blocks), the
# budget of a context's workspace; a complex128 stage takes half of it
# where that half holds a granule.  Fewer elements a block narrow the
# DFT-matrix products: at N=24, n_z=128 (2 elements a block) a matvec took
# 1.2 s, against 0.92 s at twice this budget and 1.0 s unblocked (2-core VM).
_BLOCK_BYTES = 6_000_000
# Elements of a granule (see element_blocks).  A block of whole granules
# gives the DFT products a multiple of 16 quad columns.  OpenBLAS computes a
# product column with the same kernel and bits wherever a cut at such a
# multiple puts it.  Measured with OpenBLAS 0.3.31's SkylakeX kernels
# (numpy 2.4.6) on the seed-0 rough_solve operator, N = 8, n_z = 64: the
# complex128 matvec kept its bits under cuts of 4, 8, 12, 16 and 32
# elements (8 to 64 quad columns) and not of 2, 6 or 10 (4, 12 and 20
# columns), the complex64 one under cuts of 8 elements and more and not
# of 4.
_BLOCK_GRANULE = 8


# ---------------------------------------------------------------------------
# discrete fields
# ---------------------------------------------------------------------------

@dataclass
class DiscreteField:
    """Mode-coefficient field on the strip: coeff[3, n1, n2, n_nodes].

    The bottom node carries the essential condition u = 0; ``free_vector``
    flattens the remaining unknowns for the linear solver.  ``modes``, the
    FFT-order flat indices m1 n2 + m2 of some modes in ascending order,
    says that the field is zero on every other mode, and lets the
    quadratics and the boundary trace read those modes only; None stands
    for every mode.
    """

    coeff: np.ndarray
    mesh: StripMesh
    modes: np.ndarray | None = None

    def __post_init__(self):
        g = self.mesh.grid
        expect = (3, g.n1, g.n2, self.mesh.n_nodes)
        if self.coeff.shape != expect:
            raise ConstraintError(f"field shape {self.coeff.shape} != {expect}")

    @classmethod
    def zeros(cls, mesh: StripMesh) -> "DiscreteField":
        g = mesh.grid
        return cls(np.zeros((3, g.n1, g.n2, mesh.n_nodes), dtype=complex), mesh)

    @classmethod
    def from_free_vector(cls, vec: np.ndarray, mesh: StripMesh,
                         modes: np.ndarray | None = None) -> "DiscreteField":
        """The field of a free vector, or with ``modes`` of its entries on
        those modes, [k, mode, node] raveled, and zero elsewhere: the
        coefficient array is allocated zero and only ``modes`` are written."""
        f = cls.zeros(mesh)
        f.modes = modes
        n_modes = mesh.grid.n1 * mesh.grid.n2 if modes is None else len(modes)
        f._by_mode()[:, _every(modes), 1:] = np.reshape(vec, (3, n_modes, mesh.n_nodes - 1))
        return f

    def free_vector(self) -> np.ndarray:
        return self.coeff[:, :, :, 1:].ravel()

    def _by_mode(self) -> np.ndarray:
        """coeff as [k, mode, node], a view."""
        g = self.mesh.grid
        return self.coeff.reshape(3, g.n1 * g.n2, self.mesh.n_nodes)

    def top_trace(self) -> BoundaryTrace:
        """The trace of the top node's coefficients, read on ``modes`` only
        and zero on the other modes."""
        g = self.mesh.grid
        top = np.zeros((3, g.n1 * g.n2), dtype=complex)
        live = _every(self.modes)
        top[:, live] = self._by_mode()[:, live, -1]
        return BoundaryTrace(top.reshape(3, g.n1, g.n2), g, self.modes)

    # -- norms (exact quadrature of the piecewise-linear field) --------------

    def mode_quadratics(self):
        """Per mode, summed over components: (c^H Mz c, c^H Sz c, |xi|^2 c^H Mz c).

        Each is formed on the field's ``modes`` only and is zero on the
        others.  Mz is symmetric tridiagonal: c^H Mz c = sum d0 |c_n|^2
        + 2 Re sum d1 conj(c_n) c_{n+1} along the node axis.  Sz also has
        zero row sums, so c^H Sz c = sum -d1 |c_{n+1} - c_n|^2; its
        two-diagonal form cancels and, on a smooth field at n_z = 96, loses
        about 1e-12 relative.  Each sum runs over the nodes of a component
        and mode, one numpy pairwise sum a row, and the components are then
        added in order: the bits of numpy's sum over the component and node
        axes of the whole coefficient array, which takes that order, with
        no term from the other modes.  On a lattice of one mode numpy sums
        the rows of that mode as one run, and so does this.  Numpy sums,
        not BLAS reductions: thread-independent bits.
        """
        g = self.mesh.grid
        _, _, xi_sq = g.frequency_mesh()
        live = _every(self.modes)
        c, Mz, Sz = self._by_mode()[:, live], self.mesh.Mz_diags, self.mesh.Sz_diags

        def per_mode(terms):  # [k, mode, node] -> [mode]
            if g.n1 * g.n2 == 1:
                return np.add.reduce(terms, axis=(0, 2))
            s = np.add.reduce(terms, axis=-1)
            return (s[0] + s[1]) + s[2]

        cross = (np.conj(c[..., :-1]) * c[..., 1:]).real
        jump = np.diff(c)
        out = np.zeros((2, g.n1 * g.n2))
        out[0, live] = (per_mode(Mz[1] * (c.real ** 2 + c.imag ** 2))
                        + 2 * per_mode(Mz[2, :-1] * cross))
        out[1, live] = per_mode(-Sz[2, :-1] * (jump.real ** 2 + jump.imag ** 2))
        l2, dz = out.reshape(2, g.n1, g.n2)
        return l2, dz, xi_sq * l2

    def vh_norm(self) -> float:
        l2, dz, horiz = self.mode_quadratics()
        return float(np.sqrt(self.mesh.grid.cell_area * (l2.sum() + dz.sum() + horiz.sum())))

    # -- pointwise evaluation -------------------------------------------------

    def modes_at_z(self, z) -> np.ndarray:
        """Linear interpolation of mode coefficients; shape (3, n1, n2, len(z))."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        nodes = self.mesh.nodes
        idx = np.clip(np.searchsorted(nodes, z) - 1, 0, self.mesh.n_elements - 1)
        t = (z - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
        return self.coeff[..., idx] * (1 - t) + self.coeff[..., idx + 1] * t

    def values_at_points(self, x1, x2, z) -> np.ndarray:
        """Evaluate the field at arbitrary points (arrays of equal shape)."""
        x1 = np.asarray(x1, dtype=float).ravel()
        x2 = np.asarray(x2, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        modes = self.modes_at_z(z)  # (3, n1, n2, P)
        xi1, xi2 = self.mesh.grid.frequencies()
        ph = np.exp(1j * (xi1[:, None] * x1[None, :]))      # (n1, P)
        ph2 = np.exp(1j * (xi2[:, None] * x2[None, :]))     # (n2, P)
        return np.einsum("cabp,ap,bp->cp", modes, ph, ph2)


# ---------------------------------------------------------------------------
# per-mode coefficient matrices of the flat sesquilinear form
# ---------------------------------------------------------------------------

def _mode_density(XI1: np.ndarray, XI2: np.ndarray, grad: float, div: float, curl: float,
                  mass: float) -> np.ndarray:
    """Density matrix K[a,k,b,j, m1, m2] of a flat integrand at the
    frequencies XI1[m1, 1] x XI2[1, m2].

    a/b index (value, z-derivative) of test/trial, k/j the vector component.
    The integrand is grad grad:grad + div div div + curl curl.curl + mass u.v,
    with horizontal derivatives i*xi; the elastic form takes (2 mu, lam, -mu,
    -w^2), the energy norm (1, 0, 0, 1).  The mass term is ``mass`` on the
    value-value diagonal K[0, k, 0, k], added in place.
    """
    n1, n2 = np.broadcast_shapes(np.shape(XI1), np.shape(XI2))
    G = np.zeros((2, 3, 3, 3, n1, n2), dtype=complex)  # [a, j, comp, dim, m1, m2]
    for j in range(3):
        G[0, j, j, 0] = 1j * XI1
        G[0, j, j, 1] = 1j * XI2
        G[1, j, j, 2] = 1.0
    tr = G[:, :, 0, 0] + G[:, :, 1, 1] + G[:, :, 2, 2]
    crl = np.stack([
        G[:, :, 2, 1] - G[:, :, 1, 2],
        G[:, :, 0, 2] - G[:, :, 2, 0],
        G[:, :, 1, 0] - G[:, :, 0, 1],
    ], axis=2)  # [a, j, i, m1, m2]
    K = (grad * np.einsum("bjcdmn,akcdmn->akbjmn", G, np.conj(G))
         + div * np.einsum("bjmn,akmn->akbjmn", tr, np.conj(tr))
         + curl * np.einsum("bjimn,akimn->akbjmn", crl, np.conj(crl)))
    for k in range(3):
        K[0, k, 0, k] += mass
    return K


def _assemble_bands(mesh: StripMesh, K: np.ndarray) -> np.ndarray:
    """Banded 1D Galerkin matrices of density ``K`` on the free nodes.

    P1 elements couple only neighbouring nodes, so each mode's matrix is
    3x3-block tridiagonal.  ``K`` is K[a, k, b, j, *modes], with any number
    of mode axes.  Returns bands[d, *modes, i, k, j] for d = lower,
    diagonal, upper: the block coupling free node i to free node i + d - 1
    (zero where that node is the clamped bottom or beyond the top).

    The bands are one real product, D[(d, i), (a, b)] times K's float view
    [(a, b), (k, j, modes, re/im)], where D holds the three diagonals of the
    1D matrix of each (a, b) pair (Mz, Dz, Dz^T, Sz), read off the mesh's
    row-aligned diagonals at the free nodes; the cell area then scales the
    product in place.  The product runs in np.einsum's own loop, one 4-term
    sum an entry in (a, b) order, not in BLAS: a BLAS product splits the
    columns among its threads, and at some sizes (N=12, n_z=40) its edge
    tiles then round differently.  It is stored as [d, i, k, j, *modes] and returned as a
    transposed view, mode axes innermost: the block-LU of
    :func:`block_lu_solver` reads its mode-last views from this layout
    without a copy.
    """
    nz, modes = mesh.n_nodes - 1, K.shape[4:]
    Dz = mesh.Dz_diags
    DzT = np.zeros_like(Dz)  # Dz^T[m, m + d - 1] = Dz[m + d - 1, m]
    DzT[0, 1:], DzT[1], DzT[2, :-1] = Dz[2, :-1], Dz[1], Dz[0, 1:]
    D = np.stack([mesh.Mz_diags, Dz, DzT, mesh.Sz_diags], axis=-1)[:, 1:].copy()  # [d, i, (a, b)]
    D[0, 0] = 0.0  # free node 0's lower neighbour is the clamped bottom node
    Kab = np.ascontiguousarray(K.swapaxes(1, 2)).view(float)  # [a, b, k, j, *modes, re/im]
    columns = Kab[0, 0].size  # explicit: a zero-size array cannot infer a -1
    bands = np.empty((3, nz, 3, 3) + modes, dtype=complex)
    product = bands.view(float).reshape(3 * nz, columns)
    np.einsum("rs,sc->rc", D.reshape(3 * nz, 4), Kab.reshape(4, columns), out=product)
    product *= mesh.grid.cell_area
    return np.moveaxis(bands, (1, 2, 3), (-3, -2, -1))


def _class_frequencies(grid: SpectralGrid):
    """XI1[c1, 1], XI2[1, c2] of the mirror classes c = 0..N: the first
    N + 1 frequencies in FFT order, which starts 0, 1, ..., N."""
    XI1, XI2, _ = grid.frequency_mesh()
    return XI1[:grid.N1 + 1], XI2[:, :grid.N2 + 1]


def every_class(mesh: StripMesh) -> ClassMaps:
    """The :class:`ClassMaps` of every mirror class of the mesh's lattice."""
    g = mesh.grid
    return mirror_classes(np.ones((g.N1 + 1, g.N2 + 1), dtype=bool), mesh.n_nodes - 1)


def assemble_flat_blocks(mesh: StripMesh, params: ElasticParams,
                         classes: ClassMaps) -> np.ndarray:
    """Flat operator as bands, one per mirror class of ``classes``: shape
    (3, n, n_z, 3, 3) for n listed classes, in their order
    (:func:`every_class` lists all).

    bands[d, c, i] is the lower (d=0), diagonal (1) or upper (2) 3x3 block
    of free node i in the 1D Galerkin matrix of the c-th listed class
    (c1, c2), including the DtN boundary term on the top diagonal block.
    The isotropic Navier operator and the half-space DtN map are unchanged
    by the reflections x1 -> -x1 and x2 -> -x2, so mode (s1 c1, s2 c2),
    s = +-1, has the matrix S A S of its class (c1, c2), S = diag(s1, s2, 1):
    the u1 rows and columns change sign with s1, the u2 ones with s2.  A
    sign flip is exact, so those are the bits an assembly of every mode
    gives.  Only classes, on the non-negative FFT half of the frequencies,
    are assembled; :func:`block_lu_solver` and :func:`banded_matvec` apply
    the signs.  The densities and DtN symbols are formed at the listed
    classes' frequencies alone, as one (n, 1) grid, by the same operations
    per class as on the full (N1 + 1, N2 + 1) grid: each band has the bits
    of an assembly of every class.
    """
    g = mesh.grid
    lam, mu, w = params.lam, params.mu, params.omega
    XI1, XI2 = _class_frequencies(g)
    XI1, XI2 = XI1[classes.c1], XI2[0, classes.c2, None]
    K = _mode_density(XI1, XI2, 2 * mu, lam, -mu, -w * w)[..., 0]
    Msym = dtn_symbol_grid(XI1, XI2, params)[..., 0]  # [k, j, class]
    bands = _assemble_bands(mesh, K)
    bands[1, ..., -1, :, :] -= 1j * g.cell_area * np.moveaxis(Msym, (0, 1), (-2, -1))
    return bands


# The sign slots of a mirror class (c1, c2): modes (c1, c2), (c1, -c2),
# (-c1, -c2), (-c1, c2).  u1 changes sign in slots 2:4, u2 in slots 1:3.
_SLOT_SIGNS = ((1, 1), (1, -1), (-1, -1), (-1, 1))


class ClassMaps(NamedTuple):
    """Some mirror classes (|j1|, |j2|) of a flat operator and the index
    maps between the free entries of their modes and their class layout
    (see :func:`mirror_classes`)."""

    c1: np.ndarray       # |j1| of every class, row-major
    c2: np.ndarray       # |j2| of every class
    gather: np.ndarray   # entry position of every class-layout entry, [i, k, slot, class]
    scatter: np.ndarray  # class-layout position of every entry, in entry order
    modes: np.ndarray    # the classes' modes, FFT-order flat indices m1 n2 + m2, ascending


def mirror_classes(mask: np.ndarray, nz: int) -> ClassMaps:
    """The mirror classes the boolean (N1 + 1, N2 + 1) ``mask`` marks, in
    row-major order, on ``nz`` free nodes, with the index maps of the flat
    solves' class layout.

    The entries are the free-vector entries of the classes' modes, in
    free-vector order [k, mode, node]: the whole free vector when every
    class is marked.  The class layout is [i, k, slot, class]: i runs over
    the free nodes top-down, class over the marked classes, and the slots
    hold the modes of ``_SLOT_SIGNS``.  A slot of c = 0 with the minus sign
    holds the mode itself again.

    The maps hold one index per entry each way: ``gather`` the entry of
    every layout position, ``scatter`` the layout position of every entry,
    0.94 MB for every class at N = 8, n_z = 64 and 6.9 MB at N = 16,
    n_z = 128.  The free vector runs node-fastest and the layout
    class-fastest, so numpy moves between them in one pass only by an index
    per element: gathering by each class's four slot modes and scattering
    by each mode's (slot, class), with broadcast indices, made a warm
    block-LU apply at N = 8, n_z = 64 27-41 % slower in complex64 and
    8-25 % in complex128 (2-core VM).
    """
    N1, N2 = mask.shape[0] - 1, mask.shape[1] - 1
    n1, n2 = 2 * N1 + 1, 2 * N2 + 1
    c1, c2 = np.nonzero(mask)
    s1, s2 = np.array(_SLOT_SIGNS).T[:, :, None]  # [slot, 1] each
    mode = ((s1 * c1) % n1) * n2 + (s2 * c2) % n2  # FFT order, [slot, class]
    modes = np.unique(mode)
    k = np.arange(3)
    flip_nodes = np.arange(nz)[::-1]  # free node of layout node i, and layout node of free node
    gather = ((k[:, None, None] * len(modes) + np.searchsorted(modes, mode)) * nz
              + flip_nodes[:, None, None, None])
    j1, j2 = ((m + N) % n - N for m, n, N in ((modes // n2, n1, N1), (modes % n2, n2, N2)))
    slot = np.where(j1 < 0, np.where(j2 < 0, 2, 3), np.where(j2 < 0, 1, 0))  # see _SLOT_SIGNS
    column = (np.cumsum(mask) - 1).reshape(mask.shape)[abs(j1), abs(j2)]  # class of each mode
    scatter = ((((flip_nodes * 3 + k[:, None, None]) * 4 + slot[:, None]) * len(c1)
                + column[:, None]).ravel())
    return ClassMaps(c1, c2, gather, scatter, modes)


def _flip(y: np.ndarray) -> np.ndarray:
    """Negate u1 and u2 of y[i, k, slot, class] in place where the slot's
    sign is -1, on the view of its real dtype: exact, zeros included."""
    f = y.view(y.real.dtype)
    f[:, 0, 2:] *= -1.0
    f[:, 1, 1:3] *= -1.0
    return y


def _to_classes(v: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """Entries v in the class layout of :func:`mirror_classes`, in v's
    precision, each slot turned into the image of its class by
    :func:`_flip`; one gather."""
    return _flip(np.asarray(v)[gather])


def _from_classes(y: np.ndarray, scatter: np.ndarray) -> np.ndarray:
    """The entries of class-layout y, whose slots :func:`_flip` turns back
    into their modes in place; one gather."""
    return _flip(y).ravel()[scatter]


def _class_views(bands: np.ndarray):
    """Views [i, k, j, class] of the three bands of :func:`assemble_flat_blocks`,
    nodes top-down, transposed without a copy.  Node i is free node
    nz - 1 - i, so the returned blocks couple node i to i + 1 (the bands'
    lower blocks), to itself and to i - 1 (upper)."""
    return bands[:, :, ::-1].transpose(0, 2, 3, 4, 1)


def banded_matvec(bands: np.ndarray, v: np.ndarray, classes: ClassMaps) -> np.ndarray:
    """The bands' operator, assembled on ``classes``, on the free entries
    of the classes' modes, in free-vector order (the entries of
    :func:`mirror_classes`): (A v)_i = L_i v_{i-1} + D_i v_i + U_i v_{i+1}.
    The operator is zero on the other modes.

    Runs on the class layout of :func:`mirror_classes`.  The block products
    are matmuls of [class, k, j] blocks, broadcast over the sign slots, on
    [slot, class, j, 1] vectors, in numpy's own loop: one running sum over
    j an entry, added in the order above.  Those are the bits of the same
    multiply mode by mode; a matmul on all four slots as one [j, slot]
    matrix vectorizes over them and rounds differently.  The blocks enter
    with their rows reversed, and the products' rows are reversed back:
    numpy hands a block with unit column stride, as the bands of a single
    class have, to BLAS gemv, which rounds differently, and a negative row
    stride keeps every block out of BLAS, so the bits do not depend on how
    many classes the bands hold.
    """
    # nodes top-down: the lower blocks couple node i to i + 1, the upper ones to i - 1;
    # each is [i, 1, class, k, j], rows reversed
    below, diag, above = _class_views(bands).transpose(0, 1, 4, 2, 3)[:, :, None, :, ::-1]
    x = _to_classes(v, classes.gather).transpose(0, 2, 3, 1)
    x = x[..., None]  # [i, slot, class, j, 1]
    y = diag @ x
    y[:-1] += below[:-1] @ x[1:]
    y[1:] += above[1:] @ x[:-1]
    out = np.ascontiguousarray(y[..., ::-1, 0].transpose(0, 3, 1, 2))  # [i, k, slot, class]
    return _from_classes(out, classes.scatter)


# With rows and columns taken cyclically, cofactor (k, j) of a 3x3 matrix is
# a[k+1, j+1] a[k+2, j+2] - a[k+1, j+2] a[k+2, j+1], sign included.  One
# gather by these indices takes the four factors of every cofactor, the
# first factors of both products, then the second ones.
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]
_COFACTOR_ROWS = np.array([_NEXT, _NEXT, _AFTER, _AFTER])[:, :, None]
_COFACTOR_COLS = np.array([_NEXT, _AFTER, _AFTER, _NEXT])[:, None, :]
# Cancellation sum |a_0j cof_0j| / |det| of a row expansion above which the
# determinant is fitted instead (see _adjugate3).  Block-LU pivots of flat
# strips over random materials, depths and modes reach above it: 4.1 at node
# 2 of class (1, 1) on lam 2.8885, mu 0.3, omega 3.69, cell (1.5, 2.2), n_z 4.
_CANCELLATION = 4.0


def _cofactors3(a: np.ndarray) -> np.ndarray:
    g = a[_COFACTOR_ROWS, _COFACTOR_COLS]
    products = g[:2] * g[2:]  # both products of every cofactor in one call
    return np.subtract(products[0], products[1], out=products[0])


def _adjugate3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjugates and determinants of the 3x3 matrices a[k, j, ...], batched
    over the trailing axes by elementwise products, a^{-1} = adj / det, and
    ``cancels``, where the terms of the expansion along row 0 cancel by
    more than ``_CANCELLATION``.

    The determinant is the expansion, except where it cancels.  On a
    matrix with two small singular values the expansion loses a relative
    cond^2 eps; there the determinant is instead fitted to cof(cof(a)) =
    det(a) a by least squares, which keeps about cond eps, as LAPACK's LU
    does.  Its two 9-term sums add one term at a time in [k, j] order:
    numpy's sum over both axes takes that order on a batch of several
    matrices, but a pairwise one on a single contiguous matrix, so a
    factor of one mirror class would round differently from the same class
    among others.
    """
    cof = _cofactors3(a)
    terms = a[0] * cof[0]
    det = terms.sum(axis=0)
    cancels = abs(terms).sum(axis=0) > _CANCELLATION * abs(det)
    if cancels.any():
        w = a.conj()
        fitted = (reduce(np.add, (_cofactors3(cof) * w).reshape((9,) + a.shape[2:]))
                  / reduce(np.add, (a * w).reshape((9,) + a.shape[2:])))
        det = np.where(cancels, fitted, det)
    return cof.swapaxes(0, 1), det, cancels


def block_lu_solver(bands: np.ndarray, classes: ClassMaps, dtype=complex):
    """Block-LU of all classes of the bands, assembled on ``classes``, at
    once; returns solve(b) = A^{-1} b.

    Block Thomas (Golub & Van Loan, Matrix Computations, 4.5): pivots
    P_i = D_i - L_i C_{i-1}, C_i = P_i^{-1} U_i, batched over the mirror
    classes of :func:`assemble_flat_blocks` with a Python loop over n_z
    only.  The factor works on class-last views of the bands, [node, k, j,
    class], transposed without a copy; only the inverted pivots, C and the
    determinants outlive the loop, and each node's block products are
    temporaries of one node's size.  This relies on the layout of
    :func:`_assemble_bands`, whose bands hold the mode axes innermost; on
    other strides the views read each 3x3 block's classes far apart.  Each
    pivot is inverted in closed form, its adjugate over its determinant,
    and every 3x3 block product is a broadcast product summed over j, so
    neither the factor nor an apply calls LAPACK or BLAS, and the result
    does not depend on the BLAS thread count.  No pivoting between blocks:
    check the residual.

    The loop runs once.  Each determinant is the row expansion of
    :func:`_adjugate3`, fitted at the node where the expansion cancels, so
    each pivot has the bits of a check at every node, and a class has the
    same pivots in any batch of classes.  The determinants are checked
    once after the loop.

    A mirror mode's pivots, C and solution are those of its class with the
    signs of S = diag(s1, s2, 1) on rows and columns, exactly.  An apply
    therefore takes b into the class layout of :func:`mirror_classes` by one
    gather, negating u1 and u2 of the mirror slots in place
    (:func:`_to_classes`), sweeps all four sign slots of a class with its
    pivots, and takes the result back the same way
    (:func:`_from_classes`): every mode gets the bits of a factor of its
    own matrix.  solve takes and returns the free entries of the classes'
    modes only, in free-vector order (the entries of
    :func:`mirror_classes`): an apply gathers, sweeps and scatters as many
    entries as those modes hold, whatever the lattice.  The other modes of
    the solution are zero.

    The elimination runs from the top node down.  Each pivot is then the
    Schur complement of a trailing block, the strip above a clamped node
    with the radiating top condition.  Bottom-up pivots are those of strips
    clamped at both ends, which pass near resonances of propagating modes:
    on one such case (mu = 0.2, omega = 5, condition number 800) bottom-up
    elimination was accurate to 2.5e-9 relative, top-down to 9e-15.  The
    reduced pivots of :func:`_cyclic_reduction` are clamped at both ends
    too, so this factor is the direct solve's fallback for the classes
    whose reduction refuses (:func:`solve_flat`).  It stays the rough
    solves' preconditioner: at N = 8 and n_z = 96 a factor of all 81
    classes and one sweep took 6.8 ms against 14.0 ms by cyclic
    reduction (one class: 2.2 ms against 0.8 ms; 2-core VM), whose levels
    widen with the classes while this loop's per-node overhead does not.

    The factor runs in complex128 and is kept at ``dtype``: complex64 for
    the rough solve's preconditioner, whose sweeps then run in complex64
    on a complex64 b at half the bytes.  An apply sweeps in the precision
    of b, or of the factor if that is higher, and returns that precision:
    complex64 for a complex64 b under the complex64 factor, whose result a
    complex64 operator reads as it is.

    Raises :class:`NonConvergenceError` naming the class (+-|j1|, +-|j2|)
    and the mesh node of the first pivot whose determinant is zero or not
    finite.
    """
    # node i of the loops below is free node nz - 1 - i, so lower and upper swap
    upper, diag, lower = _class_views(bands)
    nz = len(diag)
    # piv[i, k, j, class] and Cs, where Cs[i] is C of the node above node i (zero above node 0)
    piv = np.empty_like(diag, order="C")
    Cs = np.zeros((nz + 1,) + diag.shape[1:], dtype=complex)
    det = np.empty((nz,) + diag.shape[3:], dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # caught by the det check
        for i in range(nz):
            a = diag[i] - np.add.reduce(lower[i][:, :, None] * Cs[i], axis=1)
            adj, det[i], _ = _adjugate3(a)
            np.divide(adj, det[i], out=piv[i])
            np.add.reduce(piv[i][:, :, None] * upper[i], axis=1, out=Cs[i + 1])
        bad = ~np.isfinite(det) | (det == 0)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise NonConvergenceError(f"block-LU: singular pivot at mode "
                                  f"(±{classes.c1[k]}, ±{classes.c2[k]}), "
                                  f"mesh node {nz - i} of {nz}")
    # the class blocks at ``dtype``, broadcast over the sign slots: [i, k, j, 1, class]
    piv, lower, C = (a.astype(dtype, copy=False)[:, :, :, None] for a in (piv, lower, Cs[1:]))

    def solve(v: np.ndarray) -> np.ndarray:
        y = _to_classes(v, classes.gather).astype(np.result_type(v, piv), copy=False)
        np.add.reduce(piv[0] * y[0], axis=1, out=y[0])  # node 0 has no node above it
        for p, low, y_i, y_above in zip(piv[1:], lower[1:], y[1:], y[:-1]):
            y_i -= np.add.reduce(low * y_above, axis=1)
            np.add.reduce(p * y_i, axis=1, out=y_i)
        for c, y_i, y_below in zip(C[-2::-1], y[-2::-1], y[:0:-1]):
            y_i -= np.add.reduce(c * y_below, axis=1)
        return _from_classes(y, classes.scatter)

    return solve


# The columns of a node in cyclic reduction, [node, k, column, class]: its
# blocks to the node above and to the node below, its load's four sign
# slots, and its diagonal block.  A pivot's solve keeps the first three.
_ABOVE, _BELOW, _LOAD, _DIAG = slice(0, 3), slice(3, 6), slice(6, 10), slice(10, 13)


def _block_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[m, k, j, class] b[m, j, l, class], summed over j: one broadcast
    multiply and one reduction, as in :func:`block_lu_solver`."""
    return np.add.reduce(a[:, :, :, None] * b[:, None], axis=2)


def _pivot_solve(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P^{-1} [above | below | load] of nodes[m, k, column, class], P the
    diagonal block inverted in closed form (:func:`_adjugate3`), and the
    classes where a pivot's determinant is zero or not finite or its row
    expansion cancels.  A class that cancels refuses, so the determinant
    fitted there is never used."""
    pivots = np.moveaxis(nodes[:, :, _DIAG], 0, 2)  # [k, j, m, class]
    adj, det, cancels = _adjugate3(pivots)
    bad = ~np.isfinite(det) | (det == 0) | cancels
    inverse = np.moveaxis(adj / det, 2, 0)
    return _block_products(inverse, nodes[:, :, :_DIAG.start]), bad.any(axis=0)


def _cyclic_reduction(bands: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer.
    Anal. 7 (1970) 627) of the bands of :func:`assemble_flat_blocks` for
    the load y[i, k, slot, class] in the class layout of
    :func:`mirror_classes`; returns the solution in that layout and the
    classes whose reduction refuses.

    Each level solves the odd nodes that remain for their neighbours, all
    at once (:func:`_pivot_solve`), and puts them into the even nodes'
    blocks and loads, which form the next level; the last level is the top
    node.  Back-substitution then runs level by level.  A level is a few
    dozen numpy calls whatever its nodes, so the n_z nodes take about
    log2 n_z levels where the block-LU's loop takes n_z steps.  Every
    product is a broadcast product summed over j, elementwise in the class
    axis, so a class has the same bits in any batch.

    A class refuses where a pivot at any level has a zero or non-finite
    determinant, or a row expansion that cancels.  The reduced pivots are
    interior sub-strips clamped at both ends (Heller, SIAM J. Numer. Anal.
    13 (1976) 484, on the stability), which resonate: over 2,655 flat
    strips (N = 2, n_z 1 to 96, omega 0.5 to 15) the plain reduction left
    a median relative residual of 4.3e-15 but 14 above 1e-9 and 4 not
    finite.  A refused class's solution is not finite or not accurate;
    the caller solves it again.
    """
    below, diag, above = _class_views(bands)
    level = np.empty(y.shape[:2] + (_DIAG.stop,) + y.shape[3:], dtype=complex)
    for columns, blocks in ((_ABOVE, above), (_BELOW, below), (_LOAD, y), (_DIAG, diag)):
        level[:, :, columns] = blocks
    refused = np.zeros(y.shape[3:], dtype=bool)
    solved_odd = []  # per level, P^{-1} [above | below | load] of its odd nodes
    while len(level) > 1:
        solved, bad = _pivot_solve(level[1::2])
        refused |= bad
        solved_odd.append(solved)
        level = _reduce(level[::2], solved)
    top, bad = _pivot_solve(level)
    x = top[:, :, _LOAD]
    for solved in reversed(solved_odd):
        n_odd, n_even = len(solved), len(x)
        odd = solved[:, :, _LOAD] - _block_products(solved[:, :, _ABOVE], x[:n_odd])
        odd[:n_even - 1] -= _block_products(solved[:n_even - 1, :, _BELOW], x[1:])
        nodes = np.empty((n_even + n_odd,) + x.shape[1:], dtype=complex)
        nodes[::2], nodes[1::2] = x, odd
        x = nodes
    return x, refused | bad


def _reduce(even: np.ndarray, solved: np.ndarray) -> np.ndarray:
    """The next level of :func:`_cyclic_reduction`: the even nodes, even[t]
    between odd nodes t - 1 above and t below, with those odd nodes put in
    by their ``solved`` rows x_o = g - G x_above - H x_below."""
    n_even, n_odd = len(even), len(solved)
    # A_e [G | H | g] of the odd node above and C_e [G | H | g] of the one below
    up = _block_products(even[1:, :, _ABOVE], solved[:n_even - 1])
    down = _block_products(even[:n_odd, :, _BELOW], solved)
    level = np.empty(even.shape, dtype=complex)
    level[:, :, _LOAD.start:] = even[:, :, _LOAD.start:]
    level[0, :, _ABOVE] = 0
    np.negative(up[:, :, _ABOVE], out=level[1:, :, _ABOVE])
    np.negative(down[:, :, _BELOW], out=level[:n_odd, :, _BELOW])
    level[n_odd:, :, _BELOW] = 0
    level[1:, :, _DIAG] -= up[:, :, _BELOW]
    level[1:, :, _LOAD] -= up[:, :, _LOAD]
    level[:n_odd, :, _DIAG] -= down[:, :, _ABOVE]
    level[:n_odd, :, _LOAD] -= down[:, :, _LOAD]
    return level


# ---------------------------------------------------------------------------
# transformed (rough-surface) operator
# ---------------------------------------------------------------------------

class BlockPlanes(NamedTuple):
    """The chain-rule fields and weights of one block of vertical elements
    on the padded collocation x quad grid, (P1, P2, e, q) each (see
    :meth:`TransformCoefficients.block`)."""

    J1: np.ndarray
    J2: np.ndarray
    inv_det: np.ndarray
    wgt: np.ndarray
    mass_wgt: np.ndarray


class TransformCoefficients:
    """The flattening map of a rough surface f over the strip's flat bottom
    c = ``mesh.bottom``, stored as separable factors.

    Over a flat reference level every coefficient of the transformed
    operator is a horizontal field times a vertical profile:
    J1 = alpha(z - c) d1 f, J2 = alpha d2 f, J3 = alpha'(z - c) (f - c) and
    x3 = z + alpha (f - c).  So this holds ``df`` = f - c, ``g1`` = d1 f and
    ``g2`` = d2 f on the padded collocation grid, (P1, P2) each, and
    ``alpha`` and ``alpha_d`` = alpha' at the quad points, (n_z, 2) each.
    :meth:`block` and :meth:`heights` form the planes of one element block
    at a time, in buffers of a workspace that the next call overwrites.
    Each plane is formed in float64, a horizontal factor of
    :func:`~elastrip.geometry.transform_factors` times a vertical one as
    above, and the weights from it, and a float32 plane is cast from that
    product: a plane equals the same points of full-size arrays bit for
    bit, but for the sign of a zero, which no sum or product with a nonzero
    number shows.  A horizontal x vertical product is one outer product of
    the raveled factors (np.einsum), whose rows are as long as the block's
    quad points.

    Raises :class:`SingularTransformError` when max |J3| >= 1 on the
    collocation grid of ``mesh``.  :meth:`on` gives the same map on another
    collocation grid without that check.
    """

    def __init__(self, mesh: StripMesh, f: SurfaceProfile, cutoff: CutoffFn,
                 _check: bool = True):
        x1, x2 = mesh.collocation_padded()
        (self.df, self.g1, self.g2), (self.alpha, self.alpha_d) = transform_factors(
            x1[:, None], x2[None, :], mesh.zq, mesh.bottom, f, cutoff)
        self.mesh, self.surface, self.cutoff = mesh, f, cutoff
        # rounding is monotone, so this is the largest |J3| of the planes
        j3_max = np.abs(self.alpha_d).max() * np.abs(self.df).max()
        if _check and j3_max >= 1:
            raise SingularTransformError(
                f"max |J3| = {j3_max:.4f} >= 1; "
                "surface amplitude too large for cutoff margins"
            )

    def on(self, mesh: StripMesh) -> TransformCoefficients:
        """The same map on the collocation grid of ``mesh``, a mesh of the
        same strip; the |J3| check stays with the grid that defines the
        problem, so a coarser grid never rejects a surface it accepts."""
        if mesh is self.mesh:
            return self
        return TransformCoefficients(mesh, self.surface, self.cutoff, _check=False)

    def block(self, elements: slice, work: Workspace, dtype=np.float64,
              omega: float = 0.0) -> BlockPlanes:
        """J1, J2, 1/det and the weights wgt = w_q |cell| / (P1 P2) det and
        mass_wgt = -omega^2 wgt of the vertical ``elements``, at the real
        ``dtype``, in buffers of ``work`` named after the fields of
        :class:`BlockPlanes`.  det = 1 + alpha' (f - c) is formed in float64
        and then turned into the weights in place."""
        mesh, real = self.mesh, np.dtype(dtype)
        planes, shape = _plane_shapes(mesh, elements)
        a, wq = (v[elements].ravel() for v in (self.alpha, mesh.wq))
        cast = real != np.float64  # a float32 plane is cast from ``tmp``
        tmp = work.take("plane64", planes, np.float64) if cast else None
        J1, J2, inv_det, wgt, mass_wgt = (work.take(name, planes, real)
                                          for name in BlockPlanes._fields)

        def outer(out, h, v):
            np.einsum("i,j->ij", h, v, out=tmp if cast else out)
            if cast:
                out[...] = tmp

        outer(J1, self.g1.ravel(), a)
        outer(J2, self.g2.ravel(), a)
        det = np.einsum("i,j->ij", self.df.ravel(), self.alpha_d[elements].ravel(),
                        out=tmp if cast else wgt)
        det += 1.0
        np.divide(1.0, det, out=inv_det)
        wgt64 = np.multiply(det, wq * mesh.point_weight, out=det)
        if cast:
            wgt[...] = wgt64
        np.multiply(-(omega * omega), wgt64, out=mass_wgt)
        return BlockPlanes(*(p.reshape(shape) for p in (J1, J2, inv_det, wgt, mass_wgt)))

    def heights(self, elements: slice, work: Workspace) -> np.ndarray:
        """The physical heights x3 = z + alpha (f - c) of the vertical
        ``elements``, float64, in a buffer of ``work``."""
        planes, shape = _plane_shapes(self.mesh, elements)
        x3 = np.einsum("i,j->ij", self.df.ravel(), self.alpha[elements].ravel(),
                       out=work.take("x3", planes, np.float64))
        x3 += self.mesh.zq[elements].ravel()
        return x3.reshape(shape)


def _plane_shapes(mesh: StripMesh, elements: slice) -> tuple[tuple, tuple]:
    """The shapes of a plane of the vertical ``elements``: [point, quad
    point] for the products, (P1, P2, e, q) for the caller."""
    shape = (mesh.P1, mesh.P2, len(range(mesh.n_elements)[elements]), mesh.zq.shape[1])
    return (shape[0] * shape[1], shape[2] * shape[3]), shape


def element_blocks(mesh: StripMesh, work: Workspace, dtype=complex) -> list[slice]:
    """The vertical elements as consecutive blocks, in order, whose stacked
    fields, 3 x 4 values of ``dtype`` per quad point, take at most the
    stage's share of the block budget of ``work`` each
    (:func:`block_budget`).

    A complex64 stage, the Arnoldi operator that runs at every step of a
    rough solve, takes the whole budget.  A complex128 stage (the residual
    operator, the load, the physical and the source norms, each run once
    or twice a solve) takes half of it wherever that half still holds a
    granule of elements, and the whole budget elsewhere, so that a rough
    solve's buffers are sized by the operator it runs most: at N = 8,
    n_z = 64 the complex128 blocks' fields take 2.24 MB and, on the
    benchmark's surface, the complex64 operator's on its coarser grid
    2.46 MB.

    The blocks are the fewest of whole granules of ``_BLOCK_GRANULE``
    elements, or of single elements when the share holds no granule, all
    of one size but the last, which holds the rest; the first thus sizes a
    :class:`Workspace` for all.  When the share holds a granule, every
    block starts at a multiple of 16 quad columns, so the operator has the
    same bits under any such budget: the workers of an ensemble, each with
    a share of the budget, solve as one context does."""
    n, per_element = mesh.n_elements, _element_bytes(mesh, dtype)
    budget = block_budget(work)
    if np.dtype(dtype) == np.complex128 and budget // 2 // per_element >= _BLOCK_GRANULE:
        budget //= 2
    fit = max(1, budget // per_element)
    unit = _BLOCK_GRANULE if fit >= _BLOCK_GRANULE else 1
    n_blocks = -(-n // (fit - fit % unit))
    size = unit * -(-n // (n_blocks * unit))
    sizes = [size] * (n // size) + [n % size] * (n % size > 0)
    ends = list(accumulate(sizes, initial=0))
    return [slice(e0, e1) for e0, e1 in zip(ends[:-1], ends[1:])]


def block_budget(work: Workspace) -> int:
    """Bytes of one element block's stacked fields in ``work``: its
    ``block_bytes``, or ``_BLOCK_BYTES`` when that is None."""
    return _BLOCK_BYTES if work.block_bytes is None else work.block_bytes


def _element_bytes(mesh: StripMesh, dtype) -> int:
    """Bytes of one element's stacked fields in an element block."""
    return 3 * 4 * mesh.P1 * mesh.P2 * mesh.zq.shape[1] * np.dtype(dtype).itemsize


def budget_shares(mesh: StripMesh, work: Workspace) -> int:
    """The most shares of the block budget of ``work`` of which each still
    holds a granule of complex128 elements (at least 1): the element
    blocks of each share then give the operator the bits of the whole
    budget's."""
    return max(1, block_budget(work) // (_BLOCK_GRANULE * _element_bytes(mesh, complex)))


def quad_points(mesh: StripMesh, coeffs: TransformCoefficients | None, elements: slice,
                work: Workspace):
    """Padded collocation x Gauss points (X1, X2, Z) of the vertical
    ``elements``, broadcastable.

    Without ``coeffs`` the heights are the reference ones, the mesh's Gauss
    points; with ``coeffs`` they are the physical ones, x3 = H(y)_3, in a
    buffer of ``work``.
    """
    x1, x2 = mesh.collocation_padded()
    if coeffs is None:
        Z = mesh.zq[None, None, elements]
    else:
        Z = coeffs.heights(elements, work)
    return x1[:, None, None, None], x2[None, :, None, None], Z


def physical_quad_fields(mesh: StripMesh, U: np.ndarray, planes: BlockPlanes,
                         elements: slice, work: Workspace) -> np.ndarray:
    """Values and physical gradient of nodal modes U at the quad points of
    the vertical ``elements``.

    Returns one stacked array F of shape (3, 4, P1, P2, e, q) on the
    collocation x Gauss grid of ``mesh``: F[c, 0] = u_c and F[c, 1 + j] =
    d_j u_c.  The values at the Gauss pairs, formed from the nodal means and
    differences, and the z-derivative, constant on a linear element and so
    given once per element, go through one gradient transform of
    DFT-matrix products, which adds the horizontal derivatives of the
    values (the z-derivative is its ``tail``).  The gradient is then
    pulled through the chain rule of the elements' ``planes`` in place.
    F and the temporaries take buffers of ``work``, the workspace the caller
    holds (its context's on the run path), so F stays valid until the next
    call with the same ``work``.  Everything runs in the precision
    of U; ``planes`` should match it.
    """
    n_e = len(range(mesh.n_elements)[elements])
    q, m = mesh.zq.shape[1], math.prod(U.shape[1:-1]) * n_e
    stack = work.take("modes", (3, m * (q + 1)), U.dtype)
    C = stack[:, :m * q].reshape((3, 1) + U.shape[1:-1] + (n_e, q))  # (3, 1, n1, n2, e, q)
    dz = stack[:, m * q:].reshape(U.shape[:-1] + (n_e,))
    mesh.eval_at_quad(U, elements, out=C[:, 0])
    np.subtract(U[..., 1:][..., elements], U[..., :-1][..., elements], out=dz)
    dz *= (1.0 / np.diff(mesh.nodes)[elements]).astype(dz.real.dtype)
    F = mesh.to_physical(C, dz, work)
    # Gx[:, j] = Gy[:, j] - J_j Gx[:, 2] for j < 2, Gx[:, 2] = Gy[:, 2] / det
    F[:, 3] *= planes.inv_det
    prod = work.take("scratch", F[:, 3].shape, F.dtype)
    for j, J in ((1, planes.J1), (2, planes.J2)):
        F[:, j] -= np.multiply(J, F[:, 3], out=prod)
    return F


class StripOperator:
    """Matrix-free action of the transformed sesquilinear form.

    The volume terms are evaluated pseudospectrally at quadrature points,
    one block of vertical elements (:func:`element_blocks`) at a time: one
    gradient transform of DFT-matrix products to values and gradients
    (:func:`physical_quad_fields`), the symmetric stress
    sigma = mu (Gx + Gx^T) + lam tr(Gx) I and the mass term written in
    place, weighted and pulled back through the adjoint chain rule, the
    adjoint transform, which folds the horizontal stresses back into the
    value duals, and the scatter of the block's duals onto its nodes.  The
    dual of an element's z-derivative, which is the difference of its Gauss
    pair over z(q+) - z(q-), goes to the pair's value duals with the signs
    of that difference before the adjoint transform, which so carries the
    values' duals and their horizontal stresses only.  The stacked fields
    of one block take at most the block budget of the workspace of
    ``ctx``, and the blocks are added in mesh order, one
    :meth:`_block` each; :func:`_rough_buffer_bytes` runs that same
    block once to size the workspace.  Each block first
    forms its chain-rule fields and weights from the separable factors of
    ``coeffs`` (:meth:`TransformCoefficients.block`), so the operator holds
    no array the size of the quad grid.  All blocks and calls reuse the
    workspace of ``ctx``, and the DtN term, mode-diagonal at the top node,
    takes its symbol.  A flat strip is the identity transform, f = c, the
    mesh bottom: its action coincides with the assembled flat blocks to
    roundoff.

    The operator runs on the collocation grid of ``coeffs.mesh`` and cuts
    the elements into the blocks of ``ctx.mesh`` at ``dtype`` whatever
    that grid: the complex64 operator on a coarser grid
    (:func:`inner_mesh`) takes the blocks, and so at most
    the buffers, of the one on the 3/2-rule grid.

    ``dtype`` is the complex precision of the work and of the returned
    free vector; the input vector, of any precision, is rounded to it.
    At complex64 the block planes, the plain weights and the Lame
    constants are float32, so no product mixes in a float64 operand:
    numpy 1.x and 2.x (NEP 50) promote a float32 array times a float64
    scalar differently, and a silent upcast keeps the numbers but loses
    the speed.  A complex64 result lets :func:`gmres` keep a complex64
    Krylov basis.
    """

    def __init__(self, ctx: SolverContext, coeffs: TransformCoefficients, dtype=complex):
        self.ctx, self.coeffs, self.dtype = ctx, coeffs, np.dtype(dtype)
        self.mesh = mesh = coeffs.mesh
        self._real = np.finfo(self.dtype).dtype
        # the plain quadrature weights over 1 / (z(q+) - z(q-)) weight the
        # dual of dz u (wgt / det), whose Gauss pairs share them
        self._dz_wgt = (mesh.wq[:, 0] * mesh.point_weight
                        / np.diff(mesh.zq, axis=1)[:, 0]).astype(self._real)
        self._lam, self._mu = self._real.type(ctx.params.lam), self._real.type(ctx.params.mu)
        # the cuts of the context's mesh, whatever the collocation grid
        self._blocks = element_blocks(ctx.mesh, ctx.work, self.dtype)
        n = 3 * mesh.grid.n1 * mesh.grid.n2 * (mesh.n_nodes - 1)
        self.shape = (n, n)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        return self._matvec(vec)

    def _matvec(self, vec: np.ndarray) -> np.ndarray:
        ctx, mesh = self.ctx, self.mesh
        U = np.zeros((3, mesh.grid.n1, mesh.grid.n2, mesh.n_nodes), dtype=self.dtype)
        U[..., 1:] = np.asarray(vec).reshape(U[..., 1:].shape)
        R = np.zeros_like(U)
        for b in self._blocks:
            self._block(U, R, b)
        # DtN boundary term at the top node
        top = U[:, :, :, -1]
        R[:, :, :, -1] -= mesh.grid.cell_area * 1j * np.einsum("kjab,jab->kab", ctx.symbol, top)
        return R[:, :, :, 1:].ravel()

    def _block(self, U: np.ndarray, R: np.ndarray, b: slice) -> None:
        """Add the volume terms of the vertical elements ``b`` of the nodal
        modes U to their nodal duals R, in buffers of the context's
        workspace."""
        mesh, lam, mu, work = self.mesh, self._lam, self._mu, self.ctx.work
        planes = self.coeffs.block(b, work, self._real, self.ctx.params.omega)
        F = physical_quad_fields(mesh, U, planes, b, work)

        # F[:, 1:] <- sigma = mu (Gx + Gx^T) + lam tr(Gx) I, in place
        G = F[:, 1:]
        lam_tr = np.add(G[0, 0], G[1, 1], out=work.take("scratch", G[0, 0].shape, G.dtype))
        lam_tr += G[2, 2]
        lam_tr *= lam
        for c in range(3):
            for j in range(c + 1, 3):
                G[c, j] += G[j, c]
                G[c, j] *= mu
                G[j, c] = G[c, j]
            G[c, c] *= 2 * mu
            G[c, c] += lam_tr
        # weighted duals: mass in slot 0, adjoint chain rule on sigma
        F[:, 0] *= planes.mass_wgt
        prod = work.take("scratch", F[:, 3].shape, F.dtype)
        for j, J in ((1, planes.J1), (2, planes.J2)):
            F[:, 3] -= np.multiply(J, F[:, j], out=prod)
        F[:, 1:3] *= planes.wgt
        # the dual of an element's dz u goes to its Gauss pair's values,
        # + at q+ and - at q-, the adjoint of their difference
        dz = np.add(F[:, 3, ..., 0], F[:, 3, ..., 1],
                    out=work.take("scratch", F[:, 3, ..., 0].shape, F.dtype))
        dz *= self._dz_wgt[b]
        F[:, 0, ..., 1] += dz
        F[:, 0, ..., 0] -= dz

        # duals of the values: mass, pulled-back horizontal stresses and dz
        W = mesh.to_modes_adjoint(F[:, :3], gradient=True, work=work)
        mesh.scatter_from_quad(W[:, 0], elements=b, out=R)


def flat_load(mesh: StripMesh, source) -> tuple[ClassMaps, np.ndarray]:
    """The load of a flat strip on the mirror classes its source reaches:
    their :class:`ClassMaps` and the load's entries on their modes,
    b[k, mode, node] over the free nodes.

    The load is formed in mode space: the source's folded spectrum at a
    lattice mode times the nodal scatter of v(z_q) w_q, times -|cell|.
    That is, to roundoff, the pseudospectral quadrature that
    :func:`assemble_rhs` runs under a transform: the adjoint transform of
    the point values of cos(xi_t . x' + phi_t) on P points per axis keeps
    exactly the residues of +-j_t mod P that are lattice modes, with the
    same Gauss rule in z.  A harmonic aliased onto a lattice mode counts
    there, one whose residue is no lattice mode drops out, on both routes.
    Entries are formed only on the modes whose folded spectrum is nonzero;
    a mode is reached where one of its entries is nonzero or NaN, and a
    mode of a reached class that the source misses holds zeros.  A source
    that reaches no mode gives no class.
    """
    g = mesh.grid
    j1, j2 = g.mode_indices()
    lattice = np.ix_(range(3), j1 % mesh.P1, j2 % mesh.P2)
    spectrum = source.folded_spectra(mesh.P1, mesh.P2)[0][lattice].reshape(3, -1)  # [k, mode]
    live = np.flatnonzero((spectrum != 0).any(axis=0))
    scatter = mesh.scatter_from_quad(source.vertical(mesh.zq) * mesh.wq)[1:]
    entries = -g.cell_area * spectrum[:, live, None] * scatter
    hit = live[(entries != 0).any(axis=(0, 2))]
    reached = np.zeros((g.N1 + 1, g.N2 + 1), dtype=bool)
    reached[abs(j1[hit // g.n2]), abs(j2[hit % g.n2])] = True
    classes = mirror_classes(reached, len(scatter))
    on = np.isin(live, classes.modes)  # a mode whose entries are all zero may be in no class
    b = np.zeros((3, len(classes.modes), len(scatter)), dtype=complex)
    b[:, np.searchsorted(classes.modes, live[on])] = entries[:, on]
    return classes, b


def assemble_rhs(mesh: StripMesh, source, coeffs: TransformCoefficients,
                 physical: bool = False, work: Workspace | None = None) -> np.ndarray:
    """Load vector of G(v) = -int g . conj(v) detJ over free DOFs, under the
    transform ``coeffs`` (a flat strip's load is :func:`flat_load`).

    The source is evaluated, weighted by det J and transformed one element
    block at a time, the block's weights in a buffer of ``work``;
    ``physical=True`` evaluates it at the physical heights of the
    flattening map, so two different transforms of the same physical
    problem assemble consistent data.
    """
    g = mesh.grid
    R = np.zeros((3, g.n1, g.n2, mesh.n_nodes), dtype=complex)
    work = Workspace() if work is None else work
    for b in element_blocks(mesh, work):
        gvals = source.values(*quad_points(mesh, coeffs if physical else None, b, work))
        Wq = mesh.to_modes_adjoint(-gvals * coeffs.block(b, work).wgt)
        mesh.scatter_from_quad(Wq, elements=b, out=R)
    return R[:, :, :, 1:].ravel()


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

@dataclass
class SolveInfo:
    residual: float         # true relative residual ||b - A x|| / ||b|| of x
    iterations: int         # Arnoldi steps summed over rounds; 1 for the direct solve
    method: str
    history: list[float]    # per round, the estimate of each step, then the true residual


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    """conj(a) . b by numpy's pairwise sum, not a BLAS reduction: the same
    bits at any BLAS thread count."""
    return np.sum(np.conj(a) * b)


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(_dot(a, a).real))


def gmres(matvec, b: np.ndarray, precond, tol: float,
          residual) -> tuple[np.ndarray, SolveInfo]:
    """Right-preconditioned GMRES for A x = b from x0 = 0, restarted as
    iterative refinement.

    Each round is one GMRES cycle (Saad, Iterative Methods for Sparse
    Linear Systems, 9.3.2) for the correction A d = r of the current
    residual r, Arnoldi on ``matvec`` M^{-1} with classical Gram-Schmidt and
    one reorthogonalization.  Givens rotations keep the Hessenberg
    least-squares problem triangular as it grows one row and column per
    step, so its residual, the Arnoldi estimate, is known at every step;
    right preconditioning makes that the unpreconditioned residual.  At the
    end of a round x += M^{-1} V y, and one ``residual`` matvec takes the
    true relative residual ||b - A x|| / ||b||.  That check is the gate; if
    it misses, the next round starts from that residual.

    ``residual`` is the exact operator A, and ``matvec`` may be a cheaper
    approximation of it, the complex64 operator of a rough solve:
    GMRES-based iterative refinement (Carson & Higham, SIAM J. Sci.
    Comput. 40 (2018) A817).  A round on the approximation stops when its
    estimate reaches ``_INNER_TOL`` times the residual it started from, or
    ``tol`` when that is larger.  A round that does not halve the true
    residual hands the remaining rounds to ``residual``.  A round is exact
    when ``matvec == residual``, so two accesses of one operator's bound
    ``matvec`` are one operator; every exact round runs to ``tol``.

    A round's basis and its Gram-Schmidt sums take the precision of its
    matvec's output: complex64 on the complex64 operator, half the bytes.
    Its correction V y, x, the residuals, the Hessenberg matrix and the
    rotations stay in the precision of b and of ``residual``, whose output
    takes b - A x in place.  ``precond`` returns the precision of its
    input: a complex64 basis vector goes to ``matvec`` as complex64, the
    correction to x as complex128.  Inner products and norms are numpy
    sums, so the result does not depend on the BLAS thread count.

    No vector outlives its last use: a round's starting residual lives on
    only as the first basis vector, each step's matvec output is
    orthogonalized and normalized in place into the next one, the basis
    and the last matvec output are dropped before the correction's
    preconditioner sweep, and the previous iterate once x + d is formed.
    The first round holds no zero iterate: x0 is the scalar 0.0, and
    d + 0.0 has the bits of d plus a zero vector, the sign of a zero
    included.

    A step that finds an invariant space (a subdiagonal below
    ``_BREAKDOWN`` of the step's direction, ``_BREAKDOWN_COMPLEX64`` in a
    complex64 round) ends its round with the solution in that space.
    Returns x and its :class:`SolveInfo`: ``iterations`` sums the Arnoldi
    steps of all rounds, ``history`` lists each round's estimates followed
    by its true residual.  Raises :class:`NonConvergenceError` with that
    history when the steps reach ``_GMRES_MAX_ITER``, or when a round on the
    exact operator exhausts its space or overflows without meeting ``tol``.
    """
    beta = _norm(b)
    if beta == 0:
        return np.zeros_like(b), SolveInfo(0.0, 0, "gmres", [0.0])
    x, r, rel = 0.0, b, 1.0
    history, steps = [], 0
    while True:
        exact = matvec == residual
        target = tol if exact else max(tol, _INNER_TOL * rel)
        r_norm = _norm(r)
        V = [r / r_norm]  # the round's basis, which the cycle takes over
        del r
        d, estimates, stuck = _gmres_cycle(matvec, V, r_norm, precond, target * beta,
                                           _GMRES_MAX_ITER - steps)
        steps += len(estimates)
        x = np.add(d, x, out=d)  # the candidate; the previous iterate is dropped
        r = residual(x)
        np.subtract(b, r, out=r)  # b - A x in the matvec's own output
        rel_new = _norm(r) / beta
        history += [e / beta for e in estimates] + [rel_new]
        if rel_new <= tol:
            return x, SolveInfo(rel_new, steps, "gmres", history)
        if steps == _GMRES_MAX_ITER or (exact and stuck):
            raise NonConvergenceError(
                f"gmres solve failed after {steps} iterations: "
                f"relative residual {rel_new:.3e} > {tol:.1e}",
                residual=rel_new, history=history)
        if not rel_new <= rel / 2:
            matvec = residual
        rel = rel_new


def _gmres_cycle(matvec, V: list, r_norm: float, precond, target: float, max_steps: int):
    """One GMRES cycle for A d = r from d0 = 0 (see :func:`gmres`).

    ``V`` holds r / ||r|| alone and ``r_norm`` is ||r||: the cycle takes
    the list over as its basis, so r itself need not outlive its
    normalization.  Runs until the estimate of ||r - A d|| reaches
    ``target``, a step finds an invariant space, or ``max_steps`` (>= 1)
    steps.  A matvec that is not finite ends the cycle; its step counts,
    with the estimate inf, and d comes from the steps before it.  Returns
    d, the estimate of every step, and whether the cycle ended by
    breakdown or overflow.  V is emptied, and the last matvec's output
    dropped, before the correction's preconditioner sweep, so the sweep
    runs without the round's basis.
    """
    shape, dtype = V[0].shape, V[0].dtype  # r's, and so the correction's
    R = []              # columns of the rotated, upper-triangular Hessenberg matrix
    rotations = []      # Givens (c, s) of each step
    g = [r_norm]        # rotated r_norm e1; |g[-1]| is the residual norm
    estimates, stuck = [], False
    for k in range(max_steps):
        w = matvec(precond(V[k]))
        if k == 0:  # the basis takes the precision of the matvec's output
            V[0] = V[0].astype(w.dtype, copy=False)
            tiny = _BREAKDOWN_COMPLEX64 if w.dtype == np.complex64 else _BREAKDOWN
        w_norm = _norm(w)
        if not np.isfinite(w_norm):  # overflow: d from the steps before this one
            estimates.append(np.inf)
            stuck = True
            break
        h = np.zeros(k + 2, dtype=complex)
        for _ in range(2):  # classical Gram-Schmidt, then once more
            proj = [_dot(v, w) for v in V]
            for i, p in enumerate(proj):
                w -= p * V[i]
            h[:k + 1] += proj
        h_next = _norm(w)
        breakdown = h_next <= tiny * w_norm
        if not breakdown:  # w becomes the next basis vector in place
            w /= h_next
            V.append(w)
        h[k + 1] = h_next
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], -np.conj(s) * h[i] + c * h[i + 1]
        a, rho = abs(h[k]), np.hypot(abs(h[k]), h_next)
        c, s = (a / rho, h[k] / a * h_next / rho) if a > 0 else (0.0, 1.0)
        rotations.append((c, s))
        h[k] = c * h[k] + s * h_next
        R.append(h[:k + 1])
        g.append(-np.conj(s) * g[k])
        g[k] = c * g[k]
        estimates.append(float(abs(g[k + 1])))
        stuck = breakdown
        if estimates[-1] <= target or stuck:
            break
    n = len(R)
    y = np.zeros(n, dtype=complex)
    for i in range(n - 1, -1, -1):  # back substitution, R[j][i] is row i of column j
        y[i] = (g[i] - sum(R[j][i] * y[j] for j in range(i + 1, n))) / R[i][i]
    # V y adds up in r's precision, so that the correction's preconditioner
    # sweep runs in it: a complex64 sweep would put its rounding into x,
    # where a Krylov step's only slows the round
    z = np.zeros(shape, dtype)
    for i, yi in enumerate(y.astype(V[0].dtype)):  # a complex128 yi would upcast yi * v under NEP 50
        z += yi * V[i]
    V.clear()
    del w
    return precond(z), estimates, stuck


def inner_mesh(mesh: StripMesh, surface: SurfaceProfile) -> StripMesh:
    """The mesh of the complex64 Arnoldi operator of a rough solve on
    ``mesh`` for ``surface``: per axis min(P, next fast length of n + 3K)
    collocation points, where n = 2N + 1 and K is the largest harmonic
    index of ``surface`` on that axis.  It is ``mesh`` itself when those
    are its own sizes, and otherwise a mesh of the same strip at them.

    The mesh's own sizes P (the 3/2 rule) define the problem: the residual
    operator, the load and the norms use them.  The complex64 rounds only
    need to cut the residual by a fixed factor, and aliasing at n + 3K
    points errs by less than their complex64 rounding (see ``_INNER_TOL``).
    A rough solve builds its own, at 0.3 ms for N = 6 to 8.
    """
    K1 = max((abs(t.j1) for t in surface.terms), default=0)
    K2 = max((abs(t.j2) for t in surface.terms), default=0)
    sizes = (min(mesh.P1, _next_fast_len(mesh.grid.n1 + 3 * K1)),
             min(mesh.P2, _next_fast_len(mesh.grid.n2 + 3 * K2)))
    if sizes == (mesh.P1, mesh.P2):
        return mesh
    return StripMesh(mesh.grid, mesh.bottom, mesh.top, mesh.n_elements, collocation=sizes)


class SolverContext:
    """What the solves on one mesh and material share, whatever the surface.

    ``symbol`` is the DtN symbol grid [k, j, m1, m2] and ``work`` the one
    :class:`~elastrip.mesh.Workspace` of the blocked stages, both built
    here.  ``solve``, the block-LU of the flat operator of every class,
    serves the rough solves only, as the GMRES preconditioner: it is built
    at the first access, so a context that solves only flat strips, or
    makes only matvecs, never assembles it.  It assembles the bands, keeps
    their factor in complex64 (:func:`block_lu_solver`) and lets the bands
    go.  It sweeps the complex64 Krylov vectors in complex64, and the
    corrections and complex128 rounds in complex128.  The workspace makes
    a context serve one thread at a time; :meth:`share` gives each of
    several threads its own.
    """

    def __init__(self, mesh: StripMesh, params: ElasticParams):
        self.mesh, self.params = mesh, params
        XI1, XI2, _ = mesh.grid.frequency_mesh()
        self.symbol = dtn_symbol_grid(XI1, XI2, params)
        self.work = Workspace()

    def reserve(self, surface: SurfaceProfile) -> StripMesh:
        """The mesh of the complex64 Arnoldi operator of a rough solve on
        the context's mesh for ``surface`` (:func:`inner_mesh`), after
        taking the workspace buffers of both operators of that solve: the
        complex128 residual operator's on the context's mesh and the
        complex64 one's on the returned mesh, each at the sizes of its
        first, largest element block (:func:`_rough_buffer_bytes`).  Each
        buffer takes the larger of the two operators' sizes, so neither
        operator, nor a complex64 one for a surface of no higher harmonics,
        replaces a buffer in a solve.
        :meth:`~elastrip.mesh.Workspace.take` only grows a buffer, so a
        call on a workspace that holds them already changes nothing."""
        inner = inner_mesh(self.mesh, surface)
        sizes: dict[str, int] = {}
        for mesh, dtype in ((self.mesh, np.complex128), (inner, np.complex64)):
            for name, nbytes in _rough_buffer_bytes(self, mesh, dtype).items():
                sizes[name] = max(sizes.get(name, 0), nbytes)
        for name, nbytes in sizes.items():
            self.work.take(name, (nbytes,), np.uint8)
        return inner

    @cached_property
    def solve(self):
        every = every_class(self.mesh)
        return block_lu_solver(assemble_flat_blocks(self.mesh, self.params, every), every,
                               np.complex64)

    def share(self, parts: int, surface: SurfaceProfile) -> SolverContext:
        """A context, ready to solve, for one of ``parts`` threads that
        solve on this mesh and material at once, for surfaces of no higher
        harmonics than ``surface``.

        The DFT matrices of this context's mesh and its block-LU are built
        first, so the shares read one set of matrices and one factor; a
        singular pivot in the factor raises nothing here and fails each
        rough solve of a share, which builds its own.  The share keeps the
        symbol and gets its own workspace, whose element blocks take a
        ``parts``-th of the budget of this context's, so that the threads'
        buffers together hold what this context's hold.  Its buffers are
        taken here (:meth:`reserve` with ``surface``), in the caller's
        thread: with its large buffers taken in the workers, a pool's peak
        memory varied by 7 MB from run to run.
        """
        self.mesh.dft_matrices(complex)
        with contextlib.suppress(NonConvergenceError):
            self.solve
        twin = copy.copy(self)
        twin.work = Workspace(block_budget(self.work) // parts)
        twin.reserve(surface)
        return twin


_BUFFER_BYTES: dict[tuple, dict[str, int]] = {}


def _rough_buffer_bytes(ctx: SolverContext, mesh: StripMesh, dtype) -> dict[str, int]:
    """The bytes of each workspace buffer that the first, largest element
    block of the ``dtype`` rough operator of ``ctx`` takes on the
    collocation grid of ``mesh``, a mesh of the same strip.

    The operator's own block (:meth:`StripOperator._block`) runs once on
    zero modes, in a copy of ``ctx`` with a fresh workspace, under the
    identity map: a flat surface at the mesh bottom.  The sizes are kept
    for the meshes' sizes and the precision, so a context of a mesh seen
    before pays nothing for them; the block takes 6-15 ms at N = 8 and 16
    elements on a 2-core VM, once per process and mesh size."""
    b = element_blocks(ctx.mesh, ctx.work, dtype)[0]
    n_e = b.stop - b.start
    key = (mesh.grid.n1, mesh.grid.n2, mesh.P1, mesh.P2, mesh.zq.shape[1], n_e,
           np.dtype(dtype).str)
    if key not in _BUFFER_BYTES:
        probe = copy.copy(ctx)
        probe.work = Workspace()
        gap = mesh.top - mesh.bottom
        identity = TransformCoefficients(mesh, SurfaceProfile(mesh.bottom, (), mesh.grid.cell),
                                         CutoffFn(gap / 4, gap))
        U = np.zeros((3, mesh.grid.n1, mesh.grid.n2, n_e + 1), dtype=dtype)
        StripOperator(probe, identity, dtype)._block(U, np.zeros_like(U), slice(0, n_e))
        _BUFFER_BYTES[key] = probe.work.nbytes()
    return _BUFFER_BYTES[key]


def solve_field(ctx: SolverContext, rhs: np.ndarray,
                coeffs: TransformCoefficients | None = None,
                tol: float = 1e-9,
                classes: ClassMaps | None = None) -> tuple[DiscreteField, SolveInfo]:
    """Solve the variational system: without a transform directly
    (:func:`solve_flat`), with one by :func:`gmres`, right-preconditioned
    by the block-LU of the flat operator.

    The direct path takes the mirror ``classes`` its load reaches and
    ``rhs``, the load's entries on their modes, both from
    :func:`flat_load`, and solves those classes only; the modes of the
    others are zero, as the solve of every class gives them.  The solve,
    the residual multiply, the residual's norms and the field touch only
    these entries, so its cost follows the modes its load reaches, not the
    lattice.  The field has the bits of a solve of every class, and the
    residual those of its sums over the reached entries.  The field's
    ``modes`` are the reached classes' modes.  It examines no pivot of a
    class its load does not reach: a singular pivot there raises nothing.
    It does not touch the context's ``solve``.

    GMRES runs its Arnoldi steps on the complex64 operator, on the
    collocation grid of :func:`inner_mesh`, and checks every
    round's residual with the complex128 one on the mesh's own grid,
    preconditioned by the context's block-LU of every class.
    :meth:`SolverContext.reserve` gives the complex64 operator's mesh,
    having taken the workspace buffers at the larger of the two
    operators' sizes, so that neither replaces one.

    Raises :class:`NonConvergenceError` when the relative residual of the
    result exceeds ``tol`` on either path, or when the block-LU meets a
    singular pivot (on the direct path, in a reached class, when some
    class refuses the cyclic reduction); :class:`TypeError`, before any
    assembly, when it is given neither ``coeffs`` nor ``classes``.
    """
    if coeffs is None and classes is None:
        raise TypeError("a flat solve_field takes the classes and entries of flat_load")
    if coeffs is not None:
        inner = coeffs.on(ctx.reserve(coeffs.surface))
        x, info = gmres(StripOperator(ctx, inner, np.complex64).matvec, rhs, ctx.solve, tol,
                        residual=StripOperator(ctx, coeffs).matvec)
        return DiscreteField.from_free_vector(x, ctx.mesh), info
    x, rel = solve_flat(ctx, classes, np.ravel(rhs), tol)
    if not rel <= tol:
        raise NonConvergenceError(
            f"direct solve failed: relative residual {rel:.3e} > {tol:.1e}",
            residual=rel, history=[rel])
    return (DiscreteField.from_free_vector(x, ctx.mesh, classes.modes),
            SolveInfo(rel, 1, "direct", [rel]))


def solve_flat(ctx: SolverContext, classes: ClassMaps, b: np.ndarray,
               tol: float) -> tuple[np.ndarray, float]:
    """The direct solve of the flat operator of the mirror ``classes`` for
    the load b, the free entries of their modes (the entries of
    :func:`mirror_classes`); returns x on the same entries and its
    relative residual ||A x - b|| / ||b|| (||A x|| for b = 0).

    Assembles the classes' bands once, for the solve and for the residual
    multiply (:func:`banded_matvec`), and solves all classes by block
    cyclic reduction (:func:`_cyclic_reduction`).  A class refuses where
    its reduction does, or where its own relative residual, summed over
    its four sign slots, misses ``tol``; every class that meets ``tol``
    makes the whole meet it.  When any class refuses, the top-down
    block-LU (:func:`block_lu_solver`) factors every class on the same
    bands and maps, the refused classes take its solution, picked by a
    class mask read through the layout's ``scatter``, and the residual is
    taken again.  Each decision is the class's own, and the block-LU's
    bits of a class do not depend on the batch, so a class has the same
    bits in any batch of classes: the cyclic reduction's where it does not
    refuse, the block-LU's where it does.  A fallback thus examines the
    top-down pivots of the classes that pass too; on finite bands no class
    was seen to pass the reduction and meet a singular top-down pivot, and
    an infinite block refuses both.  The residual's two
    norms sum the squares of the classes' entries only, so its cost, like
    the solve's, follows the modes the load reaches; against a solve of
    every class, whose sums run over the zeros of the other modes too,
    they differ in the last bits only.
    """
    bands = assemble_flat_blocks(ctx.mesh, ctx.params, classes)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a failure refuses
        y, refused = _cyclic_reduction(bands, _to_classes(b, classes.gather))
    y[..., refused] = 0
    x = _from_classes(y, classes.scatter)
    r = np.subtract(banded_matvec(bands, x, classes), b)
    res, scale = (np.add.reduce(abs(v[classes.gather]) ** 2, axis=(0, 1, 2)) for v in (r, b))
    refused |= ~(res <= tol * tol * np.where(scale > 0, scale, 1.0))
    if refused.any():
        top_down = np.broadcast_to(refused, y.shape).ravel()[classes.scatter]
        x[top_down] = block_lu_solver(bands, classes)(b)[top_down]
        r = np.subtract(banded_matvec(bands, x, classes), b)
    res, scale = _norm(r), _norm(b)
    return x, res / scale if scale > 0 else res


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def energy_balance(field: DiscreteField, rhs: np.ndarray, ctx: SolverContext):
    """Discrete flux identity: Im of boundary flux vs Im of the source pairing.

    Returns (residual, power, leeway): residual is the normalized mismatch
    between Im int conj(u).Tu and Im int g.conj(u); power is the nonnegative
    radiated mode sum.  The mismatch is normalized by the per-mode absolute
    boundary pairing, so non-radiating configurations (Im cancels exactly)
    stay well-scaled.  For the field's free vector x and a residual
    r = rhs - A x, only the DtN term of A is not Hermitian, so the
    unnormalized mismatch is |Im(x^H r)| <= ||x|| ||r|| (Cauchy-Schwarz):
    zero for an exact solve, at most the solve's relative residual times
    ||x|| ||rhs|| for an inexact one.  ``leeway`` is ||x|| ||rhs|| over the
    same normalization, so the residual times ``leeway`` bounds the
    mismatch a solve of that residual may leave.  ``rhs`` is the load's
    entries on the field's ``modes``, [k, mode, node] raveled or not (the
    free vector when ``modes`` is None), as a direct solve's load is zero
    off the modes it reaches.  Every term is formed and summed on those
    modes only, so the source pairing and the leeway of a field that lists
    its modes differ in the last bits from those of the same field over
    every mode.
    """
    trace = field.top_trace()
    flux, power = energy_flux(trace, ctx.params, ctx.symbol)
    g = field.mesh.grid
    n, live = g.n1 * g.n2, _every(field.modes)
    x = field._by_mode()[:, live, 1:]
    b = np.reshape(rhs, x.shape)
    src_im = -float(np.imag(_dot(x, b)))
    top = trace.coefficients.reshape(3, n)[:, live]
    pair = np.zeros(n, dtype=complex)
    pair[live] = np.einsum("km,kjm,jm->m", np.conj(top),
                           1j * ctx.symbol.reshape(3, 3, n)[:, :, live], top)
    scale_abs = g.cell_area * float(np.sum(np.abs(pair)))
    denom = max(abs(src_im), abs(flux), scale_abs, _ENERGY_EPS)
    return abs(flux - src_im) / denom, power, _norm(x) * _norm(b) / denom


def poincare_slack(field: DiscreteField, quadratics=None) -> float:
    """(h - bottom)^2 / 2 * ||d3 u||^2 - ||u||^2; nonnegative for admissible fields.

    A field that vanishes at the bottom c has |u(z)|^2 <= (z - c)
    int |d3 u|^2 along each vertical line (Cauchy-Schwarz), and the
    integral of z - c over the depth is depth^2 / 2.  ``quadratics``
    passes on the field's mode quadratics when the caller has evaluated
    them already.
    """
    depth = field.mesh.top - field.mesh.bottom
    l2, dz, _ = field.mode_quadratics() if quadratics is None else quadratics
    area = field.mesh.grid.cell_area
    return depth * depth / 2 * float(area * dz.sum()) - float(area * l2.sum())
