"""The flattening map over a general reference surface, and surface distances.

A test helper, not a test module: pytest does not collect it.  The package
maps over a flat reference level c only and stores the map as separable
factors.  ``transform_fields_general`` is the pointwise map over any
reference profile f0, f0's gradient terms included, and
``full_coefficients`` samples it on a mesh's whole padded collocation x
quad grid, as full-size arrays: over a flat f0 = c the block planes of
:class:`elastrip.solver.TransformCoefficients` must equal them.
``sup_distance_1inf`` and ``worst_case_1inf`` check the ensemble's
admissibility bound by routes the sampler does not use.
"""

import math

import numpy as np

from elastrip.geometry import CutoffFn, SurfaceProfile
from elastrip.mesh import StripMesh


def transform_fields_general(y1, y2, y3, f0: SurfaceProfile, f: SurfaceProfile,
                             cutoff: CutoffFn):
    """x3, J1, J2, J3 of H(y) = y + alpha(y3 - f0(y')) (f - f0)(y') e3 at
    broadcastable points; the Jacobian is I + e3 (J1, J2, J3)."""
    f0v, g01, g02 = f0._fields(y1, y2)
    fv, g1, g2 = f._fields(y1, y2)
    df = fv - f0v
    arg = np.asarray(y3) - f0v
    a = cutoff(arg)
    ap = cutoff.derivative(arg)
    J1 = a * (g1 - g01) - ap * g01 * df
    J2 = a * (g2 - g02) - ap * g02 * df
    J3 = ap * df
    x3 = np.asarray(y3) + a * df
    return x3, J1, J2, J3


def full_coefficients(mesh: StripMesh, f0: SurfaceProfile, f: SurfaceProfile,
                      cutoff: CutoffFn) -> dict:
    """J1, J2, det, inv_det, x3 and the weights wgt = w_q |cell| / (P1 P2) det
    at every padded collocation x quad point, shape (P1, P2, n_z, 2) each."""
    x1, x2 = mesh.collocation_padded()
    Z = mesh.zq[None, None]
    x3, J1, J2, J3 = transform_fields_general(x1[:, None, None, None], x2[None, :, None, None],
                                              Z, f0, f, cutoff)
    det = 1.0 + J3
    return {"J1": J1, "J2": J2, "det": det, "inv_det": 1.0 / det,
            "x3": np.broadcast_to(x3, J3.shape).copy(),
            "wgt": mesh.wq[None, None] * mesh.point_weight * det}


def sup_distance_1inf(f: SurfaceProfile, f0: SurfaceProfile, n: int = 256) -> float:
    """sup|f - f0| + sup|grad f - grad f0| on the n x n evaluation grid."""
    (fa, g1a, g2a), (fb, g1b, g2b) = f._grid_fields(n), f0._grid_fields(n)
    return float(np.abs(fa - fb).max() + np.sqrt((g1a - g1b) ** 2 + (g2a - g2b) ** 2).max())


def worst_case_1inf(bands, cell) -> float:
    """The analytic worst case of ||f - c||_{1,inf} over the support of the
    law ``bands``, (j1, j2, max_amplitude) triples:
    sum_j 2 |a_j| (1 + 2 pi |j| / Lambda), cos and sin parts both drawn."""
    total = 0.0
    for j1, j2, amp in bands:
        kmag = 2 * np.pi * math.hypot(j1 / cell[0], j2 / cell[1])
        total += 2 * amp * (1 + kmag)
    return total
