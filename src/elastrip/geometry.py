"""Rough-surface profiles, the flattening transform and ensemble sampling.

A profile is a finite real trigonometric series on the periodic cell,
confined to the slab m < f < M_sup.  The flattening map H sends the
reference strip, whose bottom is the flat level c, to the sampled strip
(surface f): it shifts only the vertical coordinate, by a cutoff-weighted
multiple of f - c, so its Jacobian is a rank-one update of the identity and
it is the identity near the top plane.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConstraintError
from .params import StripGeometry
from .sources import BumpSource

_LIPSCHITZ_SAFETY = 1.05
_MAX_RETRIES = 100        # surface redraws per ensemble sample


@dataclass(frozen=True)
class HarmonicTerm:
    """One cell-periodic term: c*cos(2pi j.x/Lambda) + s*sin(2pi j.x/Lambda)."""

    j1: int
    j2: int
    c: float = 0.0
    s: float = 0.0


@dataclass
class SurfaceProfile:
    """Periodized Lipschitz graph built from a finite trigonometric series.

    Terms of zero amplitude are dropped.  f_min, f_max and sup_grad, the
    sup of |grad f|, are taken on the evaluation grid (:meth:`_grid_fields`).
    ``grid`` passes that grid in when the caller has evaluated it already;
    it is not kept.  A flat profile needs no grid: f_min = f_max = offset
    and sup_grad = 0 are the values its grid gives.
    """

    offset: float
    terms: tuple[HarmonicTerm, ...]
    cell: tuple[float, float]
    grid: InitVar[tuple | None] = None
    f_min: float = field(init=False)
    f_max: float = field(init=False)
    sup_grad: float = field(init=False)

    def __post_init__(self, grid):
        self.terms = tuple(t for t in self.terms if t.c or t.s)
        if grid is None and self.is_flat():
            self.f_min = self.f_max = float(self.offset)
            self.sup_grad = 0.0
            return
        f, g1, g2 = self._grid_fields() if grid is None else grid
        self.f_min = float(f.min())
        self.f_max = float(f.max())
        self.sup_grad = float(np.sqrt(g1**2 + g2**2).max())

    @property
    def L(self) -> float:
        """The Lipschitz constant: sup_grad with a margin for the grid's sampling."""
        return _LIPSCHITZ_SAFETY * self.sup_grad

    def in_slab(self, geom: StripGeometry) -> bool:
        """m < f < M_sup on the evaluation grid."""
        return geom.m < self.f_min and self.f_max < geom.M_sup

    def distance_to_level(self, c: float) -> float:
        """||f - c||_{1,inf} = sup|f - c| + sup|grad f| on the evaluation grid."""
        return max(self.f_max - c, c - self.f_min) + self.sup_grad

    def values(self, x1, x2):
        return self._fields(x1, x2)[0]

    def _fields(self, x1, x2):
        return _series_fields(self.offset, self.terms, self.cell, x1, x2)

    def _grid_fields(self, n: int = 256):
        """:meth:`_fields` on the n x n evaluation grid of the cell."""
        return self._fields(*_grid_points(self.cell, n))

    def is_flat(self) -> bool:
        return not self.terms


def _harmonic(j1: int, j2: int, cell, x1, x2):
    """(cos, sin) of the phase 2 pi (j1 x1 / Lambda1 + j2 x2 / Lambda2) at the points."""
    ph = 2 * np.pi * (j1 * np.asarray(x1) / cell[0] + j2 * np.asarray(x2) / cell[1])
    return np.cos(ph), np.sin(ph)


def _series_fields(offset, terms, cell, x1, x2, harmonics=None):
    """(f, df/dx1, df/dx2) of a series at the points, from one cos and one sin per term.

    ``harmonics`` passes in each term's :func:`_harmonic` at the points
    when the caller has evaluated them already.
    """
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
    if harmonics is None:
        harmonics = (_harmonic(t.j1, t.j2, cell, x1, x2) for t in terms)
    f = np.full(shape, offset, dtype=float)
    g1 = np.zeros(shape)
    g2 = np.zeros(shape)
    for t, (cos, sin) in zip(terms, harmonics):
        f = f + t.c * cos + t.s * sin
        d = -t.c * sin + t.s * cos
        g1 = g1 + d * 2 * np.pi * t.j1 / cell[0]
        g2 = g2 + d * 2 * np.pi * t.j2 / cell[1]
    return f, g1, g2


def _grid_points(cell, n: int = 256):
    """The n x n evaluation grid of the cell, (X1, X2) indexed [i1, i2]."""
    return np.meshgrid(cell[0] * np.arange(n) / n, cell[1] * np.arange(n) / n, indexing="ij")


def make_profile(offset: float, terms, geom: StripGeometry) -> SurfaceProfile:
    """Build a profile and verify slab containment on its evaluation grid."""
    prof = SurfaceProfile(offset=float(offset),
                          terms=tuple(HarmonicTerm(*t) if not isinstance(t, HarmonicTerm) else t
                                      for t in terms),
                          cell=geom.cell)
    if not prof.in_slab(geom):
        # evaluated again only to name the point furthest outside the slab
        f = prof._grid_fields()[0]
        k = np.unravel_index(int(np.argmax(np.maximum(geom.m - f, f - geom.M_sup))), f.shape)
        raise ConstraintError(
            f"profile leaves the slab ({geom.m}, {geom.M_sup}): "
            f"f({geom.cell[0] * k[0] / f.shape[0]:.4f}, "
            f"{geom.cell[1] * k[1] / f.shape[1]:.4f}) = {f[k]:.6f}"
        )
    return prof


@dataclass(frozen=True)
class CutoffFn:
    """Piecewise-linear vertical cutoff: 1 on [0, delta], 0 beyond gamma_gap.

    alpha(x) = 1 for x <= delta, descends linearly to 0 at x = gamma_gap.
    Slope magnitude 1/(gamma_gap - delta) < 1/(gamma_gap - 2*delta) for
    delta < gamma_gap/2, which is the admissibility margin.
    """

    delta: float
    gamma_gap: float

    def __post_init__(self):
        if not (0 < self.delta < self.gamma_gap / 2):
            raise ConstraintError(
                f"need 0 < delta < gamma_gap/2, got delta={self.delta}, gap={self.gamma_gap}"
            )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        t = (self.gamma_gap - x) / (self.gamma_gap - self.delta)
        return np.clip(t, 0.0, 1.0)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > self.delta) & (x < self.gamma_gap)
        return np.where(inside, -1.0 / (self.gamma_gap - self.delta), 0.0)


def transform_factors(y1, y2, y3, c: float, f: SurfaceProfile, cutoff: CutoffFn):
    """The separable factors of the flattening map over the flat reference
    level c: ((f - c, d1 f, d2 f) at the horizontal points (y1, y2),
    (alpha, alpha') of y3 - c at the heights y3).

    H(y) = y + alpha(y3 - c) (f(y') - c) e3, so x3 = y3 + alpha (f - c);
    the Jacobian is I + e3 (J1, J2, J3) with det = 1 + J3, and each entry
    is a horizontal factor times a vertical one: J1 = alpha d1 f,
    J2 = alpha d2 f, J3 = alpha' (f - c).
    """
    fv, g1, g2 = f._fields(y1, y2)
    arg = np.asarray(y3) - c
    return (fv - c, g1, g2), (cutoff(arg), cutoff.derivative(arg))


def invert_vertical(x3, y1, y2, c: float, f: SurfaceProfile, cutoff: CutoffFn):
    """Solve x3 = y3 + alpha(y3 - c)(f - c) for y3, in closed form.

    Vectorized over broadcastable point arrays.  With alpha piecewise
    linear, x3 is piecewise linear in y3 with the same kinks: on the
    plateau (y3 - c <= delta) x3 = y3 + (f - c); on the slope its slope is
    1 + alpha'(f - c) > 0, since |J3| < 1; past gamma_gap it is y3.  Each
    piece is inverted by its own formula, chosen by where x3 falls
    against the images of the kinks.
    """
    d = f.values(y1, y2) - c
    t = np.asarray(x3, dtype=float) - c  # x3 - c
    gap, delta = cutoff.gamma_gap, cutoff.delta
    # on the slope, t = s + d (gap - s) / (gap - delta) with s = y3 - c
    slope = (t * (gap - delta) - d * gap) / (gap - delta - d)
    s = np.where(t <= delta + d, t - d, np.where(t < gap, slope, t))
    return c + s


@dataclass
class RandomSample:
    """One draw of the ensemble: a surface and a reference-strip source."""

    surface: SurfaceProfile
    source: BumpSource
    sample_id: int


def _sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    # counter-based stream: independent of draw order across samples
    return np.random.default_rng(np.random.Philox(key=(seed << 32) + sample_id))


def sample_ensemble(seed: int, n: int, M0: float, bands: tuple[tuple[int, int, float], ...],
                    geom: StripGeometry, c: float, amplitude: float = 1.0) -> list[RandomSample]:
    """Draw n admissible samples over the flat reference level c;
    rejection-resample out-of-class surfaces.

    ``bands`` lists the surface law as (j1, j2, max_amplitude) triples: each
    candidate has offset c and one term per band, whose cos and sin
    amplitudes are uniform in [-max_amplitude, max_amplitude].  Each sample's
    source is :meth:`BumpSource.random` with the factor amplitude scale
    ``amplitude``.  A candidate is admissible when it lies in the slab and
    its :meth:`~SurfaceProfile.distance_to_level` c is at most M0.  The cos and sin
    grids of each band are evaluated once per ensemble and each candidate
    only sums them with its amplitudes.
    """
    if n <= 0:
        raise ConstraintError("ensemble size must be positive")
    points = _grid_points(geom.cell)
    harmonics = [_harmonic(j1, j2, geom.cell, *points) for j1, j2, _ in bands]
    samples = []
    for sample_id in range(n):
        rng = _sample_rng(seed, sample_id)
        surface = None
        for _ in range(_MAX_RETRIES):
            terms = []
            for j1, j2, amp in bands:
                a_cos, a_sin = rng.uniform(-amp, amp, size=2)
                terms.append(HarmonicTerm(j1, j2, a_cos, a_sin))
            # one sum of the band grids per candidate gives its bounds
            grid = _series_fields(c, terms, geom.cell, *points, harmonics)
            cand = SurfaceProfile(offset=c, terms=tuple(terms), cell=geom.cell, grid=grid)
            if cand.in_slab(geom) and cand.distance_to_level(c) <= M0:
                surface = cand
                break
        if surface is None:
            raise ConstraintError(
                f"sample {sample_id}: no admissible surface in {_MAX_RETRIES} retries"
            )
        source = BumpSource.random(rng, geom, amplitude)
        samples.append(RandomSample(surface=surface, source=source, sample_id=sample_id))
    return samples
