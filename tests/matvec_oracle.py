"""The strip operator with the z-derivative carried at both Gauss points,
on zero padding and numpy's FFT.

Values and z-derivatives of every element are formed at both of its Gauss
points through the linear shape functions.  The values, their horizontal
derivatives i xi u and the z-derivatives go to the padded collocation grid
by zero padding and ``np.fft.ifft2``, and their duals come back by
``np.fft.fft2``, without the mesh's DFT matrices; the duals are scattered
back through the shape functions.  The chain rule, stress and weights are
written out on whole arrays, without element blocks or workspace buffers.
This is how the operator was applied before the z-derivative was
transformed once per element; it serves as an oracle for
:class:`elastrip.solver.StripOperator` and its transforms.
"""

import numpy as np

from elastrip.mesh import Workspace


def zero_pad_ifft2(mesh, X):
    """Values on the padded collocation grid of ``mesh`` of the modes X,
    whose horizontal axes are the two before the last two, (..., n1, n2,
    e, q) -> (..., P1, P2, e, q): the modes go into a zeroed padded
    spectrum at their residues, then ``np.fft.ifft2``, scaled to the plain
    sum over modes."""
    j1, j2 = mesh.grid.mode_indices()
    padded = np.zeros(X.shape[:-4] + (mesh.P1, mesh.P2) + X.shape[-2:], dtype=complex)
    padded[..., (j1 % mesh.P1)[:, None], j2 % mesh.P2, :, :] = X
    return np.fft.ifft2(padded, axes=(-4, -3)) * (mesh.P1 * mesh.P2)


def fft2_adjoint(mesh, W):
    """Adjoint of :func:`zero_pad_ifft2` under the plain point sum:
    ``np.fft.fft2`` of the point values W, read at the lattice modes'
    residues."""
    j1, j2 = mesh.grid.mode_indices()
    spectrum = np.fft.fft2(W, axes=(-4, -3))
    return spectrum[..., (j1 % mesh.P1)[:, None], j2 % mesh.P2, :, :]


def i_xi(mesh):
    """i xi1 and i xi2 on the lattice modes, shaped to multiply (n1, n2, e, q) modes."""
    XI1, XI2 = np.meshgrid(*mesh.grid.frequencies(), indexing="ij")
    return [1j * x[:, :, None, None] for x in (XI1, XI2)]


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
    values = lo * phi[0] + hi * phi[1]
    dz = lo * dphi[0] + hi * dphi[1]
    d1, d2 = i_xi(mesh)
    F = np.stack([zero_pad_ifft2(mesh, X) for X in (values, d1 * values, d2 * values, dz)],
                 axis=1)  # (3, 4, P1, P2, e, q)

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
    # the adjoint of i xi is -i xi
    W = fft2_adjoint(mesh, D[:, 0]) - d1 * fft2_adjoint(mesh, D[:, 1]) \
        - d2 * fft2_adjoint(mesh, D[:, 2])  # (3, n1, n2, e, q)
    Wd = fft2_adjoint(mesh, D[:, 3])

    R = np.zeros_like(U)
    for a, nodes in ((0, np.s_[:-1]), (1, np.s_[1:])):
        R[..., nodes] += (W * phi[a] + Wd * dphi[a]).sum(axis=-1)
    R[..., -1] -= g.cell_area * 1j * np.einsum("kjab,jab->kab", ctx.symbol, U[..., -1])
    return R[..., 1:].ravel()
