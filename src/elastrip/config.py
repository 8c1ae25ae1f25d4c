"""Run configuration: nested YAML sections validated into frozen dataclasses.

All quantities are dimensionless (unit mass density).  The section
dataclasses are the schema: every config built, from YAML, by
``dataclasses.replace`` or directly, has each field checked against its
annotation.  An ``int`` is an integer and not a boolean; a ``float`` is a
real number within the float range, finite, and not a boolean; a ``str``
is a string; ``X | None`` is null or an X; and a ``tuple`` is a list (a
tuple in Python) of the annotated length, any length for ``...``, checked
entry by entry.  A field of the wrong type is a ConfigError that names its
dotted key and shows the value as JSON writes it: a string quoted, so that
``1e-9``, which YAML reads as a string, shows as one.  Unknown keys are
rejected so typos fail loudly, and ``as_dict``/``from_dict`` round-trip
exactly for the config echo embedded in every report.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

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
        for name, hints in _HINTS.items():
            for key, annotation in hints.items():
                _check(getattr(getattr(self, name), key), annotation, f"{name}.{key}")
        d, s, r = self.discretization, self.source, self.run
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
        return StripGeometry(m=g.m, M_sup=g.M_sup, h=g.h, cell=g.cell)

    def as_dict(self) -> dict:
        return {name: {k: _lists(v) if type(v) is tuple else v
                       for k, v in vars(getattr(self, name)).items()} for name in _SECTIONS}


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}
_HINTS = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}

# the annotated scalar types: how a message names each, and the class of its values
_SCALARS = {int: ("an integer", numbers.Integral), float: ("a finite number", numbers.Real),
            str: ("a string", str)}


def _check(value, annotation, key: str) -> None:
    """Raise a ConfigError naming ``key`` unless ``value`` is of the
    annotated type (see the module docstring); a tuple's entries are
    checked as ``key[i]``."""
    args = get_args(annotation)
    if get_origin(annotation) is tuple:
        n = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, tuple) or n not in (None, len(value)):
            raise ConfigError(f"{key} must be a list{'' if n is None else f' of {n} entries'}"
                              f", got {json.dumps(value, default=repr)}")
        for i, v in enumerate(value):
            _check(v, args[0 if n is None else i], f"{key}[{i}]")
    elif args:  # X | None
        if value is not None:
            _check(value, args[0], key)
    else:
        what, kind = _SCALARS[annotation]
        if (not isinstance(value, kind) or isinstance(value, bool)
                or kind is numbers.Real and not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{key} must be {what}, got {json.dumps(value, default=repr)}")


def _tuples(value):
    """``value`` with its lists, at every depth, made tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _lists(items: tuple) -> list:
    """``items`` as a list, with its tuples, at every depth, made lists."""
    return [_lists(v) if type(v) is tuple else v for v in items]


def from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown, key=str)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        bad = set(section) - set(_HINTS[name])
        if bad:
            raise ConfigError(f"unknown key(s) in '{name}': {sorted(bad, key=str)}")
        kwargs[name] = cls(**{k: _tuples(v) for k, v in section.items()})
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
