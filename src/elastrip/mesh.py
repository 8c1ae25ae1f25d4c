"""Tensor discretization of the reference strip: Fourier modes x linear elements.

The horizontal directions use the symmetric frequency lattice of
:class:`~elastrip.dtn.SpectralGrid`; the vertical direction uses linear finite
elements on [bottom, h] with 2-point Gauss quadrature per element.  Variable
coefficients are handled pseudospectrally on a padded collocation grid
(3/2-rule dealiasing; Orszag, J. Atmos. Sci. 28 (1971) 1074).  That grid
sets the horizontal quadrature, and so the discrete problem.  A mesh may
take other collocation sizes (``collocation``): the solver runs its
complex64 Arnoldi operator on a coarser grid, whose aliasing that operator's
rounding already exceeds, and keeps the 3/2-rule mesh for everything that
defines or judges the solution.  The transforms to and from a grid are
products with small dense DFT matrices built once per mesh, at its first
transform (a matrix multiplication transform; Boyd, Chebyshev and Fourier
Spectral Methods, ch. 10), which at these lengths beat padding plus FFT
and leave the zero padding implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dtn import SpectralGrid
from .errors import ConstraintError

# 2-point Gauss-Legendre on [-1, 1]
_GAUSS_X = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_GAUSS_W = np.array([1.0, 1.0])


@dataclass
class StripMesh:
    """Reference-strip mesh: spectral grid x vertical nodes on [bottom, top]."""

    grid: SpectralGrid
    bottom: float
    top: float
    n_elements: int
    # collocation sizes (P1, P2); None takes the 3/2 rule
    collocation: tuple[int, int] | None = None

    def __post_init__(self):
        if self.top <= self.bottom:
            raise ConstraintError("strip top must exceed bottom")
        if self.n_elements < 1:
            raise ConstraintError("need at least one vertical element")
        self.nodes = np.linspace(self.bottom, self.top, self.n_elements + 1)
        dz = np.diff(self.nodes)
        # quad points / weights per (element, gauss point)
        mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        self.zq = mid[:, None] + 0.5 * dz[:, None] * _GAUSS_X[None, :]
        self.wq = 0.5 * dz[:, None] * _GAUSS_W[None, :]
        # linear shape functions on the reference element at gauss points
        self.phi = np.stack([(1 - _GAUSS_X) / 2, (1 + _GAUSS_X) / 2])       # (2, q)
        self.dphi = np.stack([-1 / dz, 1 / dz])[:, :, None] * np.ones(2)     # (2, e, q)
        self._build_1d_matrices()
        # dealiased collocation sizes (3/2 rule) unless given.  They set the
        # horizontal quadrature, so they keep the 11-smooth lengths an FFT
        # would pick although the transforms are matrix products: another
        # rule would change the numbers.
        if self.collocation is None:
            self.P1 = _next_fast_len(max((3 * self.grid.n1 + 1) // 2, self.grid.n1))
            self.P2 = _next_fast_len(max((3 * self.grid.n2 + 1) // 2, self.grid.n2))
        else:
            self.P1, self.P2 = self.collocation
            if self.P1 < self.grid.n1 or self.P2 < self.grid.n2:
                raise ConstraintError(f"collocation sizes {self.collocation} below the "
                                      f"lattice ({self.grid.n1}, {self.grid.n2})")

    # -- vertical FEM pieces -------------------------------------------------

    def _build_1d_matrices(self):
        """Mz = int phi_m phi_n, Sz = int phi_m' phi_n', Dz = int phi_m phi_n'.

        Linear elements couple only neighbouring nodes, so each matrix is
        stored as its three diagonals, row-aligned in ``Mz_diags``,
        ``Sz_diags`` and ``Dz_diags``: X[d, m] is the entry (m, m + d - 1),
        zero where that column is off the matrix, 3 n_nodes numbers rather
        than n_nodes^2.  Each local pair (a, b) is added for all elements at
        once, in (a, b) order; each entry sums at most two element terms
        from zero.
        """
        e = np.arange(self.n_elements)
        diags = []
        for left, right in ((self.phi, self.phi), (self.dphi, self.dphi), (self.phi, self.dphi)):
            X = np.zeros((3, self.n_nodes))
            for a in range(2):
                for b in range(2):
                    X[1 + b - a, e + a] += np.sum(self.wq * left[a] * right[b], axis=1)
            diags.append(X)
        self.Mz_diags, self.Sz_diags, self.Dz_diags = diags

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1

    def eval_at_quad(self, U: np.ndarray, elements: slice = slice(None),
                     out: np.ndarray | None = None) -> np.ndarray:
        """Nodal field (..., n_nodes) -> values at the quad points (..., e, q)
        of the vertical ``elements``, written into ``out`` when given.

        The Gauss pair of an element is its nodal mean plus and minus its
        half difference over sqrt 3, u(q+-) = (lo + hi) / 2 +- (hi - lo) /
        (2 sqrt 3), formed in ``out`` in the precision of U."""
        lo, hi = U[..., :-1][..., elements], U[..., 1:][..., elements]
        if out is None:
            out = np.empty(lo.shape + (2,), dtype=np.result_type(U.dtype, np.float32))
        low, high = out[..., 0], out[..., 1]
        np.subtract(hi, lo, out=low)
        low *= float(_GAUSS_X[1] / 2)     # the half difference d over sqrt 3
        np.add(lo, hi, out=high)
        high *= 0.5
        high += low                       # u(q+) = mean + d
        low *= -2.0
        low += high                       # u(q-) = u(q+) - 2 d
        return out

    def scatter_from_quad(self, Wq: np.ndarray, elements: slice = slice(None),
                          out: np.ndarray | None = None) -> np.ndarray:
        """Adjoint of :meth:`eval_at_quad`: quad-point duals -> nodal
        functional values.

        ``Wq`` pairs with shape-function values; quadrature weights must
        already be folded into it.  It holds the vertical ``elements``,
        whose share is added to ``out`` (zeros on all nodes when None),
        which is returned.  Each element's two nodal shares are summed
        before they are added, so a node on the seam of two calls gets the
        bits of one call over both.  The shape functions take the real
        dtype of ``Wq``, and ``out`` defaults to the complex dtype of its
        precision.
        """
        real = Wq.real.dtype
        if out is None:
            out = np.zeros(Wq.shape[:-2] + (self.n_nodes,), dtype=_complex_dtype(real))
        phi = self.phi.astype(real, copy=False)
        lo = Wq[..., 0] * phi[0, 0] + Wq[..., 1] * phi[0, 1]
        hi = Wq[..., 0] * phi[1, 0] + Wq[..., 1] * phi[1, 1]
        out[..., :-1][..., elements] += lo
        out[..., 1:][..., elements] += hi
        return out

    # -- padded pseudospectral transforms ------------------------------------

    def to_physical(self, C: np.ndarray, tail: np.ndarray, work: Workspace) -> np.ndarray:
        """Values and horizontal derivatives of one field on the padded
        collocation grid, with a second field that is constant over the
        Gauss points: the gradient transform of the rough operator.

        C holds the values (3, 1, n1, n2, e, q) and ``tail`` the other
        field (3, n1, n2, e), given once per element; a linear element's
        z-derivative is such a field.  The result is (3, 4, P1, P2, e, q):
        C, d1 C and d2 C, then the tail repeated over the Gauss points.
        Two DFT-matrix products, along n2 then n1, give each field; the
        padded modes are zero implicitly, and the horizontal derivatives come
        from the stacked matrices [E; E diag(i xi)].  The result and the
        intermediates take buffers of ``work``.  The matrices are those of
        the precision of C: a complex64 field is transformed in complex64.
        """
        E1, E1d, E2, E2d = self.dft_matrices(C.dtype)[:4]
        A, _, n1, n2, n, q = C.shape
        P1, P2, P2R = self.P1, self.P2, self.P2 * n * q
        dtype = E1.dtype
        Z = np.matmul(E2d, C.reshape(A, n1, n2, n * q),
                      out=work.take("scratch", (A, n1, 2 * P2, n * q), dtype))
        Z = Z.reshape(A, n1, 2 * P2R)  # E2 C | E2 i xi2 C
        F = work.take("fields", (A, 4, P1, P2R), dtype)
        Fm = F.reshape(A, 4 * P1, P2R)
        np.matmul(E1d, Z[:, :, :P2R], out=Fm[:, :2 * P1])
        np.matmul(E1, Z[:, :, P2R:], out=Fm[:, 2 * P1:3 * P1])
        both = work.take("scratch", (A, n1 + P1, P2 * n), dtype)
        np.matmul(E2, tail.reshape(A, n1, n2, n), out=both[:, :n1].reshape(A, n1, P2, n))
        once = np.matmul(E1, both[:, :n1], out=both[:, n1:])
        F[:, 3].reshape(A, P1, P2, n, q)[...] = once.reshape(A, P1, P2, n, 1)
        return F.reshape(A, 4, P1, P2, n, q)

    def to_modes_adjoint(self, W: np.ndarray, gradient: bool = False,
                         work: Workspace | None = None) -> np.ndarray:
        """Adjoint of the padded transform under the plain point sum.

        The horizontal axes of W are the two before its (element, Gauss
        point) axes, (..., P1, P2, e, q), and become (n1, n2).  The
        conjugate-transposed DFT matrices are applied in the reverse order.
        With ``gradient``, W is (3, 3, P1, P2, e, q), the duals of the
        first three fields of :meth:`to_physical`, and the result (3, 1, n1,
        n2, e, q) and the intermediates take buffers of ``work``.  Like
        :meth:`to_physical`, it runs in the precision of W.
        """
        E1H, E1dH, E2H, E2dH = self.dft_matrices(W.dtype)[4:]
        n1, n2 = self.grid.n1, self.grid.n2
        if not gradient:
            lead, (P1, P2, n, q) = W.shape[:-4], W.shape[-4:]
            Y = np.matmul(E1H, W.reshape(math.prod(lead), P1, P2 * n * q))
            return np.matmul(E2H, Y.reshape(-1, P2, n * q)).reshape(lead + (n1, n2, n, q))
        work = Workspace() if work is None else work
        A, _, P1, P2, n, q = W.shape
        P2R = P2 * n * q
        W, dtype = W.reshape(A, 3 * P1, P2R), E1H.dtype
        Y = work.take("scratch", (A, n1, 2 * P2R), dtype)
        np.matmul(E1dH, W[:, :2 * P1], out=Y[:, :, :P2R])
        np.matmul(E1H, W[:, 2 * P1:], out=Y[:, :, P2R:])
        out = work.take("modes", (A, n1, n2, n * q), dtype)
        np.matmul(E2dH, Y.reshape(A, n1, 2 * P2, n * q), out=out)
        return out.reshape(A, 1, n1, n2, n, q)

    def dft_matrices(self, dtype) -> tuple:
        """(E1, E1d, E2, E2d, E1H, E1dH, E2H, E2dH) at the complex dtype of
        a field of ``dtype``; the complex64 ones are the complex128 ones
        cast.  Both sets are built at the first call, so a mesh that only
        serves flat solves builds none."""
        return self._dft[_complex_dtype(dtype)]

    @cached_property
    def _dft(self) -> dict:
        # padded DFT matrices E[x, k] = exp(2 pi i x j_k / P), j_k in FFT order,
        # stacked with E diag(i xi) for the horizontal derivatives
        j1, j2 = self.grid.mode_indices()
        xi1, xi2 = self.grid.frequencies()
        E1, E1d = _dft_matrices(j1, xi1, self.P1)
        E2, E2d = _dft_matrices(j2, xi2, self.P2)
        forward = (E1, E1d, E2, E2d)
        # per complex dtype: (E1, E1d, E2, E2d) and their conjugate transposes
        double = forward + tuple(E.conj().T.copy() for E in forward)
        return {np.dtype(complex): double,
                np.dtype(np.complex64): tuple(E.astype(np.complex64) for E in double)}

    def collocation_padded(self):
        x1 = self.grid.cell[0] * np.arange(self.P1) / self.P1
        x2 = self.grid.cell[1] * np.arange(self.P2) / self.P2
        return x1, x2

    @property
    def point_weight(self) -> float:
        """Horizontal quadrature weight |cell| / (P1 P2) of one collocation point."""
        return self.grid.cell_area / (self.P1 * self.P2)


class Workspace:
    """Named flat buffers that a blocked stage reuses from block to block
    and from call to call.

    :meth:`take` returns a view of the head of the named buffer in the
    asked shape and dtype, and grows the buffer when it is too short; a
    view stays valid until the next ``take`` of its name.  A name holds one
    set of bytes whatever the dtype, so the complex64 and complex128
    operators of a solve share the same memory.  Reused buffers keep a
    stage's large temporaries out of the allocator after its first block.
    Allocated afresh, the heap shrinks and regrows between blocks and pays
    the page faults of every regrowth again (3 us a page measured on a
    2-core VM).  A workspace serves one thread at a time; the solver's
    ``SolverContext`` owns one for all the solves on its mesh and material.
    ``block_bytes`` is the budget of the element blocks whose buffers it
    holds (``solver.element_blocks``); None takes the solver's default
    (``solver.block_budget``).
    """

    def __init__(self, block_bytes: int | None = None):
        self._buffers: dict[str, np.ndarray] = {}
        self.block_bytes = block_bytes

    def take(self, name: str, shape: tuple, dtype=complex) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < size * dtype.itemsize:
            # complex128 storage keeps every view aligned
            buf = self._buffers[name] = np.empty(-(-size * dtype.itemsize // 16), dtype=complex)
        return buf.view(dtype)[:size].reshape(shape)

    def nbytes(self) -> dict[str, int]:
        """The bytes of each named buffer."""
        return {name: buf.nbytes for name, buf in self._buffers.items()}


def _next_fast_len(n: int) -> int:
    """Smallest m >= n with no prime factor above 11, scipy.fft's rule for
    complex transforms."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _complex_dtype(dtype) -> np.dtype:
    """complex64 for float32 and complex64 data, complex128 for the rest."""
    return np.result_type(dtype, np.complex64)


def _dft_matrices(j: np.ndarray, xi: np.ndarray, P: int):
    """E[x, k] = exp(2 pi i x j_k / P) on the P padded points, and [E; E diag(i xi)]."""
    E = np.exp(2j * np.pi * (np.outer(np.arange(P), j) % P) / P)
    return E, np.concatenate([E, E * (1j * xi)])

