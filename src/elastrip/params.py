"""Material parameters, vertical wavenumber branches and closed-form constants.

Everything in this module is a pure closed-form evaluation: wavenumbers from
the Lame constants, the branch functions beta/gamma, the symbol-band constants
(K, C_K, c_K) and the a priori bound constants C1..C6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError


@dataclass(frozen=True)
class ElasticParams:
    """Lame constants and angular frequency with derived wavenumbers.

    k_p = omega / sqrt(lam + 2 mu)  (compressional),
    k_s = omega / sqrt(mu)          (shear);  k_p < k_s always.
    """

    lam: float
    mu: float
    omega: float
    k_p: float = field(init=False)
    k_s: float = field(init=False)

    def __post_init__(self):
        if self.mu <= 0:
            raise ConstraintError(f"mu must be positive, got mu={self.mu}")
        if self.lam + 2 * self.mu / 3 <= 0:
            raise ConstraintError(
                f"lambda + 2*mu/3 must be positive, got {self.lam + 2 * self.mu / 3}"
            )
        if self.omega <= 0:
            raise ConstraintError(f"omega must be positive, got omega={self.omega}")
        object.__setattr__(self, "k_p", self.omega / math.sqrt(self.lam + 2 * self.mu))
        object.__setattr__(self, "k_s", self.omega / math.sqrt(self.mu))


@dataclass(frozen=True)
class StripGeometry:
    """Truncated computational strip: surface slab bounds and artificial plane.

    The surface is confined to m < f < M_sup < h; H = h + 1 is the auxiliary
    height entering the bound constants.  ``cell`` holds the periodization
    lengths (Lambda1, Lambda2).
    """

    m: float
    M_sup: float
    h: float
    cell: tuple[float, float]

    def __post_init__(self):
        if not (self.m < self.M_sup < self.h):
            raise ConstraintError(
                f"need m < M_sup < h, got m={self.m}, M_sup={self.M_sup}, h={self.h}"
            )
        if self.cell[0] <= 0 or self.cell[1] <= 0:
            raise ConstraintError(f"cell lengths must be positive, got {self.cell}")

    @property
    def H(self) -> float:
        return self.h + 1.0


def vertical_wavenumber_grid(k: float, xi_sq: np.ndarray) -> np.ndarray:
    """Branch sqrt(k^2 - |xi|^2) on an array of |xi|^2 values: real for
    propagating, i*sqrt(|xi|^2 - k^2) for evanescent; |xi| = k maps to exactly 0."""
    s = k * k - xi_sq
    out = np.where(s >= 0, np.sqrt(np.maximum(s, 0.0)) + 0j,
                   1j * np.sqrt(np.maximum(-s, 0.0)))
    return out


@dataclass(frozen=True)
class StabilityConstants:
    """Symbol-band constants: K (band split), C_K (low band), c_K (rho floor)."""

    K: float
    C_K: float
    c_K: float


def stability_constants(params: ElasticParams) -> StabilityConstants:
    """Closed-form K, C_K and c_K in terms of the Lame constants.

    K = (lam+2mu)/(mu sqrt(lam+mu)) splits the spectrum: above K*omega the
    symbol has positive-definite Re(-iM); below, max|M_ij| <= C_K*omega.
    c_K*omega^2 is the floor of |rho| on the band [k_s, K*omega].
    """
    lam, mu = params.lam, params.mu
    K = (lam + 2 * mu) / (mu * math.sqrt(lam + mu))
    C_lm = math.sqrt((lam + mu) / (mu * (lam + 2 * mu)))
    C_K = 2 * (lam + 4 * mu) * K + (mu * (lam + 2 * mu) * K**2 + 2 * (lam + 2 * mu) / mu) * C_lm
    c_K = K**2 - math.sqrt((K**2 - 1 / mu) * (K**2 - 1 / (lam + 2 * mu)))
    return StabilityConstants(K=K, C_K=C_K, c_K=c_K)


@dataclass(frozen=True)
class BoundReport:
    """Explicit a priori bound constants and the assembled total bound.

    total_bound = (h - m + 2) * (C4 + C5^2 + C6).  All constants carry the
    configurable generic prefactor ``generic_C``; measured_ratio, when set,
    is ||u||_Vh / (total_bound * ||g||).
    """

    C1: float
    C2: float
    C3: float
    C4: float
    C5: float
    C6: float
    total_bound: float
    generic_C: float
    measured_ratio: float | None = None

    def as_dict(self) -> dict:
        """The fields, ``measured_ratio`` only once it is set."""
        return {k: v for k, v in vars(self).items() if v is not None}


def bound_constants(params: ElasticParams, geom: StripGeometry, L: float,
                    generic_C: float = 1.0) -> BoundReport:
    """Evaluate the explicit constants C1..C6 and the total a priori bound.

    C1 = C w^3 (1+L^2)^{1/2} (h-m+1)
    C2 = C (1+L^2)^{1/4} sqrt(h+1-m) (1 + w(h+1-m))
    C3 = C (h+1-m) (1 + w(h+1-m))^2 / w
    C4 = C (h+1-m) w
    C5 = C sqrt(1 + 1/w) C3
    C6 = C (1/w + 1) C1 C2^2
    total = (h-m+2) (C4 + C5^2 + C6)

    The deterministic total uses the C5^2 combination; the stochastic bound
    uses the non-squared combination C4+C5+C6 instead, and
    ``total_bound_stochastic`` builds that variant (see README notes).
    """
    if L < 0:
        raise ConstraintError(f"Lipschitz constant must be nonnegative, got {L}")
    if generic_C <= 0:
        raise ConstraintError(f"generic_C must be positive, got {generic_C}")
    w = params.omega
    h, m = geom.h, geom.m
    C = generic_C
    Hm = geom.H - m
    C1 = C * w**3 * math.sqrt(1 + L * L) * (h - m + 1)
    C2 = C * (1 + L * L) ** 0.25 * math.sqrt(Hm) * (1 + w * Hm)
    C3 = C * Hm * (1 + w * Hm) ** 2 / w
    C4 = C * Hm * w
    C5 = C * math.sqrt(1 + 1 / w) * C3
    C6 = C * (1 / w + 1) * C1 * C2**2
    total = (h - m + 2) * (C4 + C5**2 + C6)
    return BoundReport(C1, C2, C3, C4, C5, C6, total, generic_C)


def total_bound_stochastic(report: BoundReport, geom: StripGeometry) -> float:
    """(h-m+2)^2 (C4 + C5 + C6)^2, the factor in the random-surface bound."""
    return ((geom.h - geom.m + 2) * (report.C4 + report.C5 + report.C6)) ** 2
