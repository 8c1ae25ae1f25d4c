"""Tensor discretization of the reference strip: Fourier modes x linear elements.

The horizontal directions use the symmetric frequency lattice of
:class:`~elastrip.dtn.SpectralGrid`; the vertical direction uses linear finite
elements on [bottom, h] with 2-point Gauss quadrature per element.  Variable
coefficients are handled pseudospectrally on a padded collocation grid
(3/2-rule dealiasing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len

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
        # dealiased collocation sizes
        self.P1 = next_fast_len(max((3 * self.grid.n1 + 1) // 2, self.grid.n1))
        self.P2 = next_fast_len(max((3 * self.grid.n2 + 1) // 2, self.grid.n2))

    # -- vertical FEM pieces -------------------------------------------------

    def _build_1d_matrices(self):
        n = self.n_nodes
        Mz = np.zeros((n, n))
        Sz = np.zeros((n, n))
        Dz = np.zeros((n, n))  # Dz[m, n] = int phi_m phi_n'
        for e in range(self.n_elements):
            idx = (e, e + 1)
            for a in range(2):
                for b in range(2):
                    Mz[idx[a], idx[b]] += np.sum(self.wq[e] * self.phi[a] * self.phi[b])
                    Sz[idx[a], idx[b]] += np.sum(self.wq[e] * self.dphi[a, e] * self.dphi[b, e])
                    Dz[idx[a], idx[b]] += np.sum(self.wq[e] * self.phi[a] * self.dphi[b, e])
        self.Mz, self.Sz, self.Dz = Mz, Sz, Dz

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1

    def eval_at_quad(self, U: np.ndarray) -> np.ndarray:
        """Nodal field (..., n_nodes) -> values at quad points (..., e, q)."""
        return self._at_quad(U, self.phi[:, None, :])

    def deriv_at_quad(self, U: np.ndarray) -> np.ndarray:
        return self._at_quad(U, self.dphi)

    def _at_quad(self, U: np.ndarray, shape_fns: np.ndarray) -> np.ndarray:
        """sum_a U[..., e + a] shape_fns[a, e, k]; the loop over Gauss points k
        keeps the long element axis innermost in the products."""
        out = np.empty(U.shape[:-1] + self.zq.shape, dtype=np.result_type(U, shape_fns))
        for k in range(out.shape[-1]):
            out[..., k] = U[..., :-1] * shape_fns[0, :, k] + U[..., 1:] * shape_fns[1, :, k]
        return out

    def scatter_from_quad(self, Wq: np.ndarray, Wdq: np.ndarray | None = None) -> np.ndarray:
        """Adjoint of evaluation: quad-point duals -> nodal functional values.

        ``Wq`` pairs with shape-function values, ``Wdq`` with derivatives;
        quadrature weights must already be folded into the inputs.
        """
        out = np.zeros(Wq.shape[:-2] + (self.n_nodes,), dtype=complex)
        out[..., :-1] += Wq[..., :, 0] * self.phi[0, 0] + Wq[..., :, 1] * self.phi[0, 1]
        out[..., 1:] += Wq[..., :, 0] * self.phi[1, 0] + Wq[..., :, 1] * self.phi[1, 1]
        if Wdq is not None:
            out[..., :-1] += Wdq[..., :, 0] * self.dphi[0, :, 0] + Wdq[..., :, 1] * self.dphi[0, :, 1]
            out[..., 1:] += Wdq[..., :, 0] * self.dphi[1, :, 0] + Wdq[..., :, 1] * self.dphi[1, :, 1]
        return out

    # -- padded pseudospectral transforms ------------------------------------

    def _copy_spectrum(self, C: np.ndarray, ax1: int, ax2: int, pad: bool) -> np.ndarray:
        """Move an FFT-ordered spectrum between (n1, n2) and padded (P1, P2).

        Modes 0..N sit at the front of both layouts and the negative modes at
        the tail; ``pad`` zero-fills the extra padded slots, otherwise they
        are dropped.
        """
        g = self.grid
        segments = [[(slice(0, N + 1), slice(0, N + 1)), (slice(N + 1, n), slice(P - N, P))]
                    for n, N, P in ((g.n1, g.N1, self.P1), (g.n2, g.N2, self.P2))]
        shape = list(C.shape)
        shape[ax1], shape[ax2] = (self.P1, self.P2) if pad else (g.n1, g.n2)
        out = np.zeros(shape, dtype=complex)
        for s1_small, s1_big in segments[0]:
            for s2_small, s2_big in segments[1]:
                small = [slice(None)] * C.ndim
                big = list(small)
                small[ax1], small[ax2] = s1_small, s2_small
                big[ax1], big[ax2] = s1_big, s2_big
                dst, src = (big, small) if pad else (small, big)
                out[tuple(dst)] = C[tuple(src)]
        return out

    def to_physical(self, C: np.ndarray, ax1: int = -4, ax2: int = -3) -> np.ndarray:
        """Mode coefficients -> values on the padded collocation grid."""
        ax1 = ax1 % C.ndim
        ax2 = ax2 % C.ndim
        padded = self._copy_spectrum(C, ax1, ax2, pad=True)
        return ifft2(padded, axes=(ax1, ax2), norm="forward", overwrite_x=True)

    def to_modes_adjoint(self, W: np.ndarray, ax1: int = -4, ax2: int = -3) -> np.ndarray:
        """Adjoint of :meth:`to_physical` under the plain point sum."""
        ax1 = ax1 % W.ndim
        ax2 = ax2 % W.ndim
        spec = fft2(W, axes=(ax1, ax2))
        return self._copy_spectrum(spec, ax1, ax2, pad=False)

    def collocation_padded(self):
        x1 = self.grid.cell[0] * np.arange(self.P1) / self.P1
        x2 = self.grid.cell[1] * np.arange(self.P2) / self.P2
        return x1, x2

    @property
    def point_weight(self) -> float:
        """Horizontal quadrature weight |cell| / (P1 P2) of one collocation point."""
        return self.grid.cell_area / (self.P1 * self.P2)
