"""Command-line entry points.

Subcommands map one-to-one onto the library experiments; every invocation
writes a config echo plus machine-readable reports into the output
directory.  ``extend`` solves the config and extends that solution's top
trace by ``--height``, so it extends on the grid and cell of the echoed
config.  Exit codes: 0 success; an error exits with its type's
``exit_code`` (``errors.py``): 1 configuration error, 2 numerical
failure, 3 diagnostic invariant violation.  A usage error (an unknown,
missing or malformed option) also exits 1, not click's 2, with nothing
written.  A subcommand takes only the config overrides it reads:
``--omega`` all but ``verify-dtn``, ``--seed`` only ``mc`` and
``verify-dtn``, ``--threads`` and ``--n-samples`` only ``mc``, and
``--n-z`` only ``pushforward``.  Each override is applied to the config,
validated with it before anything is written, and echoed in
``config.yaml``.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import click
import numpy as np

from . import harness
from .config import RunConfig, dump_config, load_config
from .dtn import extend_field, verify_symbol_suite
from .errors import ConfigError, DiagnosticError, ElastripError
from .geometry import make_profile
from .params import bound_constants, stability_constants

EXIT_OK = 0
EXIT_CONFIG = 1


def _write_error(out_dir: str, exc: ElastripError) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        harness.write_json(os.path.join(out_dir, "error.json"),
                           {"error": type(exc).__name__, "message": str(exc),
                            "exit_code": exc.exit_code})
    except OSError:
        pass


# the config overrides: option name -> the config section of the field it sets
_OVERRIDES = {"omega": "physics", "seed": "run", "n_samples": "run",
              "threads": "run", "n_z": "discretization"}


def _load(config_path: str | None, overrides: dict) -> RunConfig:
    """The config with each given override applied; ``RunConfig`` validates it."""
    cfg = load_config(config_path) if config_path else RunConfig()
    for key, value in overrides.items():
        if value is not None:
            section = getattr(cfg, _OVERRIDES[key])
            cfg = replace(cfg, **{_OVERRIDES[key]: replace(section, **{key: value})})
    return cfg


# the config overrides taken by more than one subcommand (see _OVERRIDES)
_OMEGA = click.option("--omega", type=float, default=None)
_SEED = click.option("--seed", type=int, default=None)


@contextmanager
def _usage_exits_config():
    """Let a click usage error exit EXIT_CONFIG: click's own 2 is a
    numerical failure's code here."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_CONFIG
        raise


class _Group(click.Group):
    """The command group, whose usage errors, in its own arguments or in a
    subcommand's, exit EXIT_CONFIG."""

    def make_context(self, *args, **kwargs):
        with _usage_exits_config():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_exits_config():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Elastic wave scattering above rough rigid surfaces: solver and checks."""


def _run_guarded(cfg: RunConfig, out_dir: str, body, opts: dict) -> int:
    """Write the config echo, run the body; an ElastripError exits with its
    ``exit_code``."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        dump_config(cfg, os.path.join(out_dir, "config.yaml"))
        return body(cfg, out_dir, **opts)
    except ElastripError as exc:
        click.echo(f"error: {exc}", err=True)
        _write_error(out_dir, exc)
        return exc.exit_code


def _subcommand(name, *options, prepare=None):
    """Register ``body(cfg, out, **opts)`` as the subcommand ``name``.

    Every subcommand takes ``--out`` and ``--config`` ahead of its own
    ``options``, among them the config overrides it reads (``_OVERRIDES``).
    The config is loaded with those overrides applied, which ``RunConfig``
    validates and ``config.yaml`` echoes, and ``prepare(cfg, **opts)``,
    when given, checks what the body needs of the config and turns the
    other option values into the body's keyword arguments; an
    ElastripError in either step exits 1 before anything is written.  The
    body then runs under :func:`_run_guarded`.
    """
    def register(body):
        def command(config_path, out_dir, **opts):
            overrides = {k: opts.pop(k) for k in _OVERRIDES if k in opts}
            try:
                cfg = _load(config_path, overrides)
                if prepare is not None:
                    opts = prepare(cfg, **opts)
            except ElastripError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_CONFIG)
            sys.exit(_run_guarded(cfg, out_dir or cfg.run.out_dir, body, opts))

        command.__doc__ = body.__doc__
        for option in reversed(options):
            command = option(command)
        command = click.option("--config", "config_path", type=click.Path(), default=None,
                               help="YAML config file")(command)
        command = click.option("--out", "out_dir", type=click.Path(), default=None,
                               help="output directory")(command)
        return main.command(name)(command)

    return register


@_subcommand("constants", _OMEGA)
def constants_cmd(cfg, out):
    """Print the stability and a priori bound constants for the config."""
    params = cfg.elastic_params()
    geom = cfg.strip_geometry()
    sc = stability_constants(params)
    L = make_profile(cfg.surface.f0_offset, cfg.surface.terms, geom).L
    br = bound_constants(params, geom, L=L, generic_C=cfg.run.generic_C)
    payload = {**vars(sc), "L": L, **br.as_dict(),
               "stochastic_bound": harness.stochastic_bound(cfg)}
    for k, v in payload.items():
        click.echo(f"{k} = {v:.12g}")
    harness.write_json(os.path.join(out, "constants.json"), payload)
    return EXIT_OK


@_subcommand("verify-dtn", _SEED,
             click.option("--n-xi", type=click.IntRange(min=1), default=10000,
                          help="xi samples per material"),
             click.option("--n-materials", type=click.IntRange(min=1), default=10))
def verify_dtn_cmd(cfg, out, n_xi, n_materials):
    """Sample the boundary-symbol sign and bound properties over parameters."""
    report = verify_symbol_suite(seed=cfg.run.seed, n_materials=n_materials, n_xi=n_xi)
    harness.write_json(os.path.join(out, "verify_dtn.json"), report)
    n_viol = report["n_violations"]
    click.echo(f"{n_viol} violations in {report['n_checks']} checks")
    if n_viol:
        raise DiagnosticError(f"symbol property violated {n_viol} times")
    return EXIT_OK


def _check_diagnostics(rep) -> None:
    d = rep.diagnostics
    if not d["energy_ok"]:
        raise DiagnosticError(
            f"energy balance violated: residual {d['energy_residual']:.3e}, "
            f"power {d['radiated_power']:.3e}")
    if not d["poincare_ok"]:
        raise DiagnosticError(f"Poincare slack negative: {d['poincare_slack']:.3e}")


@_subcommand("solve", _OMEGA)
def solve_cmd(cfg, out):
    """One deterministic solve with full diagnostics and the bound ratio."""
    rep, _ = harness.deterministic_run(cfg)
    harness.write_json(os.path.join(out, "report.json"), rep.as_dict())
    harness.write_run_csv(os.path.join(out, "runs.csv"), [rep])
    click.echo(f"|u|_Vh = {rep.u_vh:.6e}  measured_ratio = "
               f"{rep.bound['measured_ratio']:.6e}")
    _check_diagnostics(rep)
    return EXIT_OK


def _parse_sweep_values(cfg, axis, values):
    try:
        vals = [float(v) for v in values.split(",")]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    bad = [v for v in vals if not math.isfinite(v)]
    if bad:
        raise ConfigError(f"sweep values must be finite, got {bad[0]}")
    return {"axis": axis, "values": vals}


@_subcommand("sweep", _OMEGA,
             click.option("--axis", type=click.Choice(harness.SWEEP_AXES), required=True),
             click.option("--values", required=True, help="comma-separated values"),
             prepare=_parse_sweep_values)
def sweep_cmd(cfg, out, axis, values):
    """Run the deterministic experiment along one parameter axis."""
    rows = harness.parameter_sweep(cfg, axis, values)
    harness.write_sweep_csv(os.path.join(out, "sweep.csv"), rows)
    harness.write_json(os.path.join(out, "sweep.json"), {
        "axis": axis, "points": [
            {"value": r["value"], "error": r["error"],
             "report": r["report"].as_dict() if r["report"] else None}
            for r in rows]})
    n_fail = sum(r["report"] is None for r in rows)
    click.echo(f"{len(rows) - n_fail}/{len(rows)} sweep points succeeded")
    for r in rows:
        if r["report"] is not None:
            _check_diagnostics(r["report"])
    return EXIT_OK


def _check_law(cfg):
    """The ensemble law ``mc`` draws from, checked before anything is written."""
    harness.ensemble_law(cfg)
    return {}


@_subcommand("mc", _OMEGA, _SEED,
             click.option("--threads", type=int, default=None,
                          help="Monte Carlo worker threads [default: the usable cores]"),
             click.option("--n-samples", type=int, default=None),
             prepare=_check_law)
def mc_cmd(cfg, out):
    """Monte Carlo over the configured random-surface ensemble."""
    rep = harness.monte_carlo(cfg)
    harness.write_json(os.path.join(out, "mc.json"), rep.as_dict())
    harness.write_mc_csv(os.path.join(out, "mc_samples.csv"), rep)
    click.echo(f"completed {rep.n_completed}/{rep.n_samples}  "
               f"ratio = {rep.ratio:.6e}")
    bad = [r for r in rep.sample_rows if not r["energy_ok"]]
    if bad:
        raise DiagnosticError(f"{len(bad)} samples violate the energy balance")
    return EXIT_OK


@_subcommand("pushforward", _OMEGA, click.option("--n-z", type=int, default=None))
def pushforward_cmd(cfg, out):
    """Cross-check two flattening routes of the configured rough surface."""
    res = harness.pushforward_check(cfg)
    harness.write_json(os.path.join(out, "pushforward.json"), res)
    click.echo(f"rel_l2 = {res['rel_l2']:.6e}  rel_vh = {res['rel_vh']:.6e}")
    return EXIT_OK


def _check_height(cfg, height):
    """The offset of ``extend``, checked before the solve; ``extend_field``
    repeats the check for library callers."""
    if not (math.isfinite(height) and height >= 0):
        raise ConfigError(f"--height must be finite and >= 0, got {height}")
    return {"height": height}


@_subcommand("extend", _OMEGA,
             click.option("--height", type=float, default=0.5,
                          help="offset above the plane"),
             prepare=_check_height)
def extend_cmd(cfg, out, height):
    """Solve the config and propagate its solution's top trace upward by the
    angular spectrum."""
    rep, field = harness.deterministic_run(cfg)
    ext = extend_field(field.top_trace(), height, cfg.elastic_params())
    harness.write_json(os.path.join(out, "extend.json"), {
        "height": height,
        "values_re": ext.real.tolist(),
        "values_im": ext.imag.tolist()})
    click.echo(f"extended trace written (max |u| = {np.abs(ext).max():.6e})")
    _check_diagnostics(rep)
    return EXIT_OK


if __name__ == "__main__":
    main()
