"""Rellich integration-by-parts oracle for flat-surface solves.

A test helper, not a test module: pytest does not collect it.  It pairs the
Navier operator of a per-mode field with d3(conj u) and compares the volume
integral with the boundary density, which checks a flat solve against an
identity that the Galerkin path does not use.  It takes several times a
solve, so no run path calls it.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from elastrip.params import ElasticParams
from elastrip.solver import DiscreteField

_EPS = 1e-14


def _gauss_legendre(z_lo: float, z_hi: float, n: int):
    """n-point Gauss-Legendre nodes and weights on [z_lo, z_hi]."""
    zq, wq = np.polynomial.legendre.leggauss(n)
    return 0.5 * (z_hi + z_lo) + 0.5 * (z_hi - z_lo) * zq, 0.5 * (z_hi - z_lo) * wq


def _collocation_points(g):
    """Physical grid x1[n1], x2[n2] of the lattice g, matching the DFT convention."""
    x1 = g.cell[0] * np.arange(g.n1) / g.n1
    x2 = g.cell[1] * np.arange(g.n2) / g.n2
    return x1, x2


def _boundary_jump(mf, z_lo: float, z_hi: float, params: ElasticParams) -> float:
    """Rellich boundary density of one mode field, top minus bottom.

    The density is 2 Re(Tu . d3 conj(u)) - E(u, conj u) + w^2 |u|^2 with the
    upward traction T.
    """
    lam, mu, w = params.lam, params.mu, params.omega
    ix = 1j * mf.xi
    jump = 0.0
    for z, sign in ((z_hi, 1.0), (z_lo, -1.0)):
        U, dU = mf.fn(z), mf.dfn(z)
        div = ix[0] * U[0] + ix[1] * U[1] + dU[2]
        T = np.array([
            mu * dU[0] + mu * ix[0] * U[2],
            mu * dU[1] + mu * ix[1] * U[2],
            (lam + 2 * mu) * dU[2] + lam * (ix[0] * U[0] + ix[1] * U[1]),
        ])
        G = np.stack([ix[0] * U, ix[1] * U, dU], axis=1)
        curl = np.array([G[2, 1] - G[1, 2], G[0, 2] - G[2, 0], G[1, 0] - G[0, 1]])
        edens = (2 * mu * np.sum(np.abs(G) ** 2) + lam * abs(div) ** 2
                 - mu * np.sum(np.abs(curl) ** 2))
        jump += sign * float(2 * np.real(T @ np.conj(dU)) - edens
                             + w * w * np.sum(np.abs(U) ** 2))
    return jump


def rellich_residual(field: DiscreteField, source, params: ElasticParams,
                     n_quad: int = 400) -> float:
    """Integration-by-parts consistency of a flat-surface solve.

    Both sides of the identity pairing the Navier operator with d3(conj u)
    are evaluated per mode.  On the volume side the operator is replaced by
    the source (they agree for the solution, and this avoids second
    derivatives of the piecewise-linear field); boundary densities use a
    cubic-spline lift of the mode profiles.  Flat surfaces only: the field is
    read as a field on the physical strip.
    """
    mesh = field.mesh
    g = mesh.grid
    z_lo, z_hi = mesh.bottom, mesh.top
    zq, wq = _gauss_legendre(z_lo, z_hi, n_quad)

    # mode coefficients of the source at the quadrature heights
    x1, x2 = _collocation_points(g)
    gvals = source.values(x1[:, None, None], x2[None, :, None], zq[None, None, :])
    ghat = np.fft.fft2(gvals, axes=(1, 2)) / (g.n1 * g.n2)   # (3, n1, n2, q)

    lhs = 0.0
    rhs = 0.0
    for i1 in range(g.n1):
        for i2 in range(g.n2):
            mf = ModeFieldSmooth.from_discrete(field, i1, i2)
            dUq = mf.dfn(zq)
            lhs += 2 * np.sum(wq * np.real(np.sum(ghat[:, i1, i2, :] * np.conj(dUq), axis=0)))
            rhs += _boundary_jump(mf, z_lo, z_hi, params)
    lhs *= g.cell_area
    rhs *= g.cell_area
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _EPS)


class ModeFieldSmooth:
    """Analytic single-mode field z -> (U, U', U'') for the Rellich diagnostic."""

    def __init__(self, xi, fn, dfn, d2fn):
        self.xi = np.asarray(xi, dtype=float)
        self.fn, self.dfn, self.d2fn = fn, dfn, d2fn

    @classmethod
    def from_discrete(cls, field: DiscreteField, i1: int, i2: int):
        xi1, xi2 = field.mesh.grid.frequencies()
        nodes = field.mesh.nodes
        splines = [CubicSpline(nodes, field.coeff[c, i1, i2, :]) for c in range(3)]

        def stack(der):
            return lambda z: np.stack([s(z, der) for s in splines])

        return cls((xi1[i1], xi2[i2]), stack(0), stack(1), stack(2))


def rellich_identity_residual(mode_fields, params: ElasticParams, z_lo: float,
                              z_hi: float, cell_area: float,
                              n_quad: int = 400) -> float:
    """Normalized mismatch of the Rellich integration-by-parts identity.

    Both sides are evaluated per mode on [z_lo, z_hi]: the volume pairing of
    the Navier operator with d3(conj u) against the boundary density
    2 Re(Tu . d3 conj(u)) - E(u, conj u) + w^2 |u|^2 (top minus bottom, with
    the upward traction convention).  Fields must vanish at z_lo.
    """
    lam, mu, w = params.lam, params.mu, params.omega
    zq, wq = _gauss_legendre(z_lo, z_hi, n_quad)
    lhs = 0.0
    rhs = 0.0
    for mf in mode_fields:
        xi = mf.xi
        ix = 1j * xi
        xi_sq = float(xi @ xi)
        U, dU, d2U = mf.fn(zq), mf.dfn(zq), mf.d2fn(zq)
        div = ix[0] * U[0] + ix[1] * U[1] + dU[2]
        ddiv = ix[0] * dU[0] + ix[1] * dU[1] + d2U[2]
        nav = mu * (d2U - xi_sq * U) + w * w * U
        nav[0] += (lam + mu) * ix[0] * div
        nav[1] += (lam + mu) * ix[1] * div
        nav[2] += (lam + mu) * ddiv
        lhs += 2 * np.sum(wq * np.real(np.sum(nav * np.conj(dU), axis=0)))
        rhs += _boundary_jump(mf, z_lo, z_hi, params)
    lhs *= cell_area
    rhs *= cell_area
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _EPS)
