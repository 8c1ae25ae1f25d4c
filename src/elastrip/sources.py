"""Source terms supported strictly inside the strip.

Sources are smooth vertical bumps times cell-periodic trigonometric factors,
so they vanish in a margin near both the surface and the top plane and have
analytic gradients for H1-norm quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError
from .params import StripGeometry

_RANDOM_FACTORS = 2   # harmonic factors of a random source
_RANDOM_MAX_MODE = 1  # each factor's |j1|, |j2| is at most this


def _bump(w):
    """C-infinity bump on (-1, 1): exp(1 - 1/(1 - w^2)), 0 outside."""
    w = np.asarray(w, dtype=float)
    inside = np.abs(w) < 1
    ws = np.where(inside, w, 0.0)
    val = np.where(inside, np.exp(1 - 1 / (1 - ws**2)), 0.0)
    return val


def _bump_derivative(w):
    """d/dw of :func:`_bump`: bump(w) (-2 w) / (1 - w^2)^2, 0 outside."""
    w = np.asarray(w, dtype=float)
    ws = np.where(np.abs(w) < 1, w, 0.0)
    return _bump(w) * (-2 * ws) / (1 - ws**2) ** 2


@dataclass(frozen=True)
class HarmonicFactor:
    """One horizontal factor: amplitude along a fixed component, single harmonic."""

    component: int        # 0, 1 or 2
    j1: int
    j2: int
    amplitude: float
    phase: float


@dataclass(frozen=True)
class BumpSource:
    """g(x', z) = sum_t amp_t e_{c_t} cos(xi_t . x' + phi_t) * bump((z - z0)/sigma)."""

    factors: tuple[HarmonicFactor, ...]
    z0: float
    sigma: float
    cell: tuple[float, float]

    def vertical(self, z):
        """The vertical profile v(z) = bump((z - z0) / sigma)."""
        return _bump((np.asarray(z) - self.z0) / self.sigma)

    def vertical_d(self, z):
        """v'(z)."""
        return _bump_derivative((np.asarray(z) - self.z0) / self.sigma) / self.sigma

    def folded_spectra(self, P1: int, P2: int) -> np.ndarray:
        """Horizontal content folded onto the P1 x P2 residues: S[s, c, r1, r2].

        On the points x' = (p1 L1 / P1, p2 L2 / P2) of a padded grid,
        g_c = v(z) sum_r S[0, c, r] e^{2 pi i (r1 p1 / P1 + r2 p2 / P2)}, and
        d_1 g_c, d_2 g_c are the same sums over S[1], S[2].  Each factor puts
        amp/2 e^{+-i phi} at the residue of +-(j1, j2), times +-i k_a in S[a];
        factors and signs that meet on one residue add, as their point values
        do on the grid (aliasing).
        """
        S = np.zeros((3, 3, P1, P2), dtype=complex)
        for t in self.factors:
            ik = 2j * np.pi * np.array([t.j1 / self.cell[0], t.j2 / self.cell[1]])
            for sign in (1, -1):
                a = 0.5 * t.amplitude * np.exp(sign * 1j * t.phase)
                S[:, t.component, sign * t.j1 % P1, sign * t.j2 % P2] += a * np.array(
                    [1, *(sign * ik)])
        return S

    def support(self) -> tuple[float, float]:
        return self.z0 - self.sigma, self.z0 + self.sigma

    def values(self, x1, x2, z):
        """Real 3-vector field at broadcastable points; shape (3,) + broadcast."""
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(z))
        out = np.zeros((3,) + shape)
        vz = self.vertical(z)
        for t in self.factors:
            ph = 2 * np.pi * (t.j1 * np.asarray(x1) / self.cell[0]
                              + t.j2 * np.asarray(x2) / self.cell[1]) + t.phase
            out[t.component] += t.amplitude * np.cos(ph) * vz
        return out

    def gradients(self, x1, x2, z):
        """d_a g_c at broadcastable points; shape (3, 3) + broadcast (comp, axis)."""
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(z))
        out = np.zeros((3, 3) + shape)
        vz = self.vertical(z)
        dvz = self.vertical_d(z)
        for t in self.factors:
            k1 = 2 * np.pi * t.j1 / self.cell[0]
            k2 = 2 * np.pi * t.j2 / self.cell[1]
            ph = k1 * np.asarray(x1) + k2 * np.asarray(x2) + t.phase
            c, s = np.cos(ph), np.sin(ph)
            out[t.component, 0] += -t.amplitude * k1 * s * vz
            out[t.component, 1] += -t.amplitude * k2 * s * vz
            out[t.component, 2] += t.amplitude * c * dvz
        return out

    @classmethod
    def centered(cls, geom: StripGeometry, bottom: float, amplitude: float = 1.0,
                 component: int = 2, j1: int = 0, j2: int = 0,
                 phase: float = 0.0) -> "BumpSource":
        """Deterministic single-factor source centered in (bottom, h)."""
        z0 = 0.5 * (bottom + geom.h)
        sigma = 0.4 * (geom.h - bottom)
        if sigma <= 0:
            raise ConstraintError("strip has no interior for a source bump")
        return cls(factors=(HarmonicFactor(component, j1, j2, amplitude, phase),),
                   z0=z0, sigma=sigma, cell=geom.cell)

    @classmethod
    def random(cls, rng: np.random.Generator, geom: StripGeometry,
               amplitude: float = 1.0) -> "BumpSource":
        """Random member of the family, supported above sup f-range of the slab.

        Each factor's amplitude is ``amplitude`` times a uniform draw in
        [0.2, 1].  The support margin is taken against M_sup so the bump
        stays inside the physical strip for every admissible surface of the
        ensemble.
        """
        lo = geom.M_sup + 0.05 * (geom.h - geom.M_sup)
        hi = geom.h - 0.05 * (geom.h - geom.M_sup)
        z0 = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
        sigma = min(z0 - lo, hi - z0)
        factors = []
        for _ in range(_RANDOM_FACTORS):
            factors.append(HarmonicFactor(
                component=int(rng.integers(0, 3)),
                j1=int(rng.integers(-_RANDOM_MAX_MODE, _RANDOM_MAX_MODE + 1)),
                j2=int(rng.integers(-_RANDOM_MAX_MODE, _RANDOM_MAX_MODE + 1)),
                amplitude=float(amplitude * rng.uniform(0.2, 1.0)),
                phase=float(rng.uniform(0, 2 * np.pi)),
            ))
        return cls(factors=tuple(factors), z0=z0, sigma=sigma, cell=geom.cell)
