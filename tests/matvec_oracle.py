"""The strip operator with the z-derivative carried at both Gauss points.

Values and z-derivatives of every element are formed at both of its Gauss
points through the linear shape functions, the values go through the
gradient transform and the z-derivatives through the plain one, and the
duals of both are scattered back through the shape functions.  The chain
rule, stress and weights are written out on whole arrays, without element
blocks or workspace buffers.  This is how the operator was applied before
the z-derivative was transformed once per element; it serves as an oracle
for :class:`elastrip.solver.StripOperator`.
"""

import numpy as np

from elastrip.mesh import Workspace


def two_point_matvec(ctx, coeffs, vec):
    """The complex128 action of the sesquilinear form of ``ctx`` under the
    transform ``coeffs`` on the free vector ``vec``, on the collocation grid
    of ``coeffs.mesh``."""
    mesh = coeffs.mesh
    lam, mu, omega = ctx.params.lam, ctx.params.mu, ctx.params.omega
    g = mesh.grid
    U = np.zeros((3, g.n1, g.n2, mesh.n_nodes), dtype=complex)
    U[..., 1:] = np.reshape(vec, U[..., 1:].shape)
    lo, hi = U[..., :-1, None], U[..., 1:, None]  # (3, n1, n2, e, 1)
    phi, dphi = mesh.phi, mesh.dphi  # (a, q) and (a, e, q)
    values = mesh.to_physical((lo * phi[0] + hi * phi[1])[:, None], ax1=2, ax2=3, gradient=True)
    dz = mesh.to_physical(lo * dphi[0] + hi * dphi[1], ax1=1, ax2=2)
    F = np.concatenate([values, dz[:, None]], axis=1)  # (3, 4, P1, P2, e, q)

    plain = mesh.wq[None, None] * mesh.point_weight
    planes = coeffs.block(slice(None), Workspace())
    wgt, J1, J2 = planes.wgt, planes.J1, planes.J2
    F[:, 3] *= planes.inv_det
    F[:, 1] -= J1 * F[:, 3]
    F[:, 2] -= J2 * F[:, 3]
    G = F[:, 1:]  # G[c, j] = d_j u_c
    trace = G[0, 0] + G[1, 1] + G[2, 2]
    sigma = mu * (G + G.swapaxes(0, 1)) + lam * trace * np.eye(3)[:, :, None, None, None, None]

    D = np.empty_like(F)
    D[:, 0] = -omega ** 2 * wgt * F[:, 0]
    D[:, 1:3] = wgt * sigma[:, :2]
    D[:, 3] = plain * (sigma[:, 2] - J1 * sigma[:, 0] - J2 * sigma[:, 1])
    W = mesh.to_modes_adjoint(D[:, :3], ax1=2, ax2=3, gradient=True)[:, 0]  # (3, n1, n2, e, q)
    Wd = mesh.to_modes_adjoint(D[:, 3], ax1=1, ax2=2)

    R = np.zeros_like(U)
    for a, nodes in ((0, np.s_[:-1]), (1, np.s_[1:])):
        R[..., nodes] += (W * phi[a] + Wd * dphi[a]).sum(axis=-1)
    R[..., -1] -= g.cell_area * 1j * np.einsum("kjab,jab->kab", ctx.symbol, U[..., -1])
    return R[..., 1:].ravel()
