"""Run configuration: nested YAML sections validated into frozen dataclasses.

All quantities are dimensionless (unit mass density).  Unknown keys are
rejected so typos fail loudly, and ``as_dict``/``from_dict`` round-trip
exactly for the config echo embedded in every report.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .params import ElasticParams, StripGeometry


@dataclass(frozen=True)
class PhysicsConfig:
    lam: float = 1.0
    mu: float = 1.0
    omega: float = 1.0


@dataclass(frozen=True)
class GeometryConfig:
    m: float = -0.2
    M_sup: float = 0.25
    h: float = 1.0
    cell: tuple[float, float] = (6.283185307179586, 6.283185307179586)


@dataclass(frozen=True)
class SurfaceConfig:
    """Reference level, deterministic perturbation, ensemble law, margins."""

    f0_offset: float = 0.0
    terms: tuple[tuple[int, int, float, float], ...] = ()   # (j1, j2, cos, sin)
    law_bands: tuple[tuple[int, int, float], ...] = ()      # (j1, j2, max_amp)
    M0: float = 0.25
    delta: float = 0.2


@dataclass(frozen=True)
class DiscretizationConfig:
    N1: int = 4
    N2: int = 4
    n_z: int = 32
    solver_tol: float = 1e-9


@dataclass(frozen=True)
class SourceConfig:
    amplitude: float = 1.0
    component: int = 2
    j1: int = 1
    j2: int = 0
    phase: float = 0.0


@dataclass(frozen=True)
class RunSection:
    seed: int = 0
    n_samples: int = 8
    out_dir: str = "out"
    generic_C: float = 1.0
    threads: int | None = None    # Monte Carlo worker threads; None: the usable cores


@dataclass(frozen=True)
class RunConfig:
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    run: RunSection = field(default_factory=RunSection)

    def __post_init__(self):
        d, s, r = self.discretization, self.source, self.run
        ints = [("discretization.N1", d.N1), ("discretization.N2", d.N2),
                ("discretization.n_z", d.n_z), ("source.j1", s.j1), ("source.j2", s.j2),
                ("source.component", s.component), ("run.seed", r.seed),
                ("run.n_samples", r.n_samples),
                ("run.threads", 1 if r.threads is None else r.threads)]
        for key, width in (("terms", 4), ("law_bands", 3)):
            for t in getattr(self.surface, key):
                if len(t) != width or not all(isinstance(x, numbers.Real) for x in t[2:]):
                    raise ConfigError(f"surface.{key} entries must be {width} numbers "
                                      f"[j1, j2, ...], got {list(t)!r}")
                ints += [(f"surface.{key} j1, j2", j) for j in t[:2]]
        for key, value in ints:
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if d.N1 < 0 or d.N2 < 0 or d.n_z < 1:
            raise ConfigError("discretization sizes must be positive")
        if not 0 <= s.component <= 2:
            raise ConfigError(f"source component must be 0, 1 or 2, got {s.component}")
        if r.n_samples < 1 or r.threads is not None and r.threads < 1:
            raise ConfigError("run.n_samples must be >= 1 and run.threads an integer >= 1")
        if r.seed < 0:
            raise ConfigError("run.seed must be nonnegative")
        # revalidate the physical quantities through the core types
        self.elastic_params()
        self.strip_geometry()

    def elastic_params(self) -> ElasticParams:
        p = self.physics
        return ElasticParams(lam=p.lam, mu=p.mu, omega=p.omega)

    def strip_geometry(self) -> StripGeometry:
        g = self.geometry
        return StripGeometry(m=g.m, M_sup=g.M_sup, h=g.h, cell=tuple(g.cell))

    def as_dict(self) -> dict:
        d = {f.name: dict(vars(getattr(self, f.name))) for f in fields(self)}
        d["geometry"]["cell"] = list(d["geometry"]["cell"])
        d["surface"]["terms"] = [list(t) for t in d["surface"]["terms"]]
        d["surface"]["law_bands"] = [list(t) for t in d["surface"]["law_bands"]]
        return d


_SECTIONS = {
    "physics": PhysicsConfig,
    "geometry": GeometryConfig,
    "surface": SurfaceConfig,
    "discretization": DiscretizationConfig,
    "source": SourceConfig,
    "run": RunSection,
}

_TUPLE_KEYS = {
    ("geometry", "cell"): tuple,
    ("surface", "terms"): lambda v: tuple(tuple(t) for t in v),
    ("surface", "law_bands"): lambda v: tuple(tuple(t) for t in v),
}


def from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        valid = set(cls.__dataclass_fields__)
        bad = set(section) - valid
        if bad:
            raise ConfigError(f"unknown key(s) in '{name}': {sorted(bad)}")
        coerced = dict(section)
        try:
            for (sec, key), conv in _TUPLE_KEYS.items():
                if sec == name and key in coerced:
                    coerced[key] = conv(coerced[key])
            kwargs[name] = cls(**coerced)
        except TypeError as exc:
            raise ConfigError(f"bad section '{name}': {exc}") from exc
    return RunConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    import yaml  # here, not at module level: a run built by from_dict needs no parser

    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return from_dict(data or {})


def dump_config(cfg: RunConfig, path: str) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(cfg.as_dict(), fh, sort_keys=True)
