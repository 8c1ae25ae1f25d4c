"""End-to-end experiments: bound verification, sweeps, Monte Carlo, push-forward.

Every solve that passes through here gets the full diagnostic battery
(energy balance, Poincare slack, solver residual) attached to its report.
Bound checks are recorded as ratios against the explicit constants with a
configurable generic prefactor; they are never hard-asserted here because
the prefactor is a modelling choice.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .dtn import SpectralGrid
from .errors import ConfigError, ElastripError
from .geometry import (CutoffFn, SurfaceProfile, invert_vertical, make_profile,
                       sample_ensemble)
from .mesh import StripMesh, Workspace
from .params import bound_constants, total_bound_stochastic
from .solver import (DiscreteField, SolverContext, TransformCoefficients,
                     assemble_rhs, budget_shares, element_blocks, energy_balance,
                     flat_load, inner_mesh, physical_quad_fields, poincare_slack,
                     quad_points, solve_field)
from .sources import BumpSource

ENERGY_TOL = 1e-8
POWER_TOL = -1e-12
_PUSHFORWARD_POINTS = 12   # sample points per axis of the pushforward comparison


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """One deterministic run; ``as_dict``, the fields, is ``report.json``.
    ``csv_row`` is the row of ``runs.csv`` (``docs/csv_schema.md``)."""

    config: dict                     # RunConfig.as_dict(), the config echo
    u_vh: float
    g_l2: float
    g_h1: float
    bound: dict                      # BoundReport.as_dict() with measured_ratio
    diagnostics: dict
    wall_time: float
    label: str = "run"

    CSV_FIELDS = ("label", "omega", "h", "L", "u_vh", "g_l2", "g_h1",
                  "total_bound", "measured_ratio", "energy_residual",
                  "radiated_power", "poincare_slack", "solve_residual",
                  "solve_iterations")

    def csv_row(self) -> dict:
        """The ``CSV_FIELDS`` cells of the fields, the bound and the diagnostics;
        ``L``, ``omega`` and ``h`` are the renamed and nested ones."""
        cells = {**vars(self), **self.bound, **self.diagnostics,
                 "L": self.diagnostics["surface_L"],
                 "omega": self.config["physics"]["omega"], "h": self.config["geometry"]["h"]}
        return {k: cells[k] for k in self.CSV_FIELDS}

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class McReport:
    """A Monte Carlo run; ``as_dict``, the fields and ``completeness``, is
    ``mc.json``, and ``sample_rows`` go to ``mc_samples.csv`` instead."""

    n_samples: int
    n_completed: int
    seed: int
    mean_u_sq: float
    mean_g_sq: float
    se_u_sq: float
    se_g_sq: float
    stochastic_bound: float          # stochastic_bound(cfg): L0 = M0
    ratio: float                     # mean_u_sq / (stochastic_bound * mean_g_sq)
    failures: list = field(default_factory=list)
    sample_rows: list = field(default_factory=list)

    @property
    def completeness(self) -> float:
        return self.n_completed / self.n_samples

    def as_dict(self) -> dict:
        d = {k: v for k, v in vars(self).items() if k != "sample_rows"}
        return {**d, "completeness": self.completeness}


# ---------------------------------------------------------------------------
# setup plumbing
# ---------------------------------------------------------------------------

def build_setup(cfg: RunConfig):
    """Instantiate typed objects for one run: (params, geom, mesh, cutoff,
    source).  The mesh bottom is the flat reference level
    c = ``surface.f0_offset``.  The configured surface is not built here:
    a deterministic run builds it with :func:`make_profile`, and the
    Monte Carlo ensemble draws its own."""
    params = cfg.elastic_params()
    geom = cfg.strip_geometry()
    d = cfg.discretization
    grid = SpectralGrid(N1=d.N1, N2=d.N2, cell=geom.cell)
    s = cfg.surface
    if not (geom.m < s.f0_offset < geom.M_sup):
        raise ConfigError(
            f"reference level {s.f0_offset} outside the slab ({geom.m}, {geom.M_sup})")
    mesh = StripMesh(grid=grid, bottom=s.f0_offset, top=geom.h, n_elements=d.n_z)
    cutoff = CutoffFn(delta=s.delta, gamma_gap=geom.h - s.f0_offset)
    src_bottom = geom.M_sup + 0.1 * (geom.h - geom.M_sup)
    sc = cfg.source
    source = BumpSource.centered(geom, src_bottom, amplitude=sc.amplitude,
                                 component=sc.component, j1=sc.j1, j2=sc.j2,
                                 phase=sc.phase)
    return params, geom, mesh, cutoff, source


def solve_surface(ctx: SolverContext, surface: SurfaceProfile,
                  cutoff: CutoffFn, source, *, physical: bool, tol: float):
    """Transform, load and solve for one surface on the mesh and material
    of ``ctx``: (field, info, rhs, coeffs).

    This is the one place that decides whether a surface needs the
    flattening transform.  The reference is the flat mesh bottom c, and
    ``coeffs`` is None exactly when surface - c is identically zero (offset
    c, no nonzero term); the solve is then the direct per-mode one, and
    the load is formed on the mirror classes its source reaches only
    (:func:`~elastrip.solver.flat_load`): ``rhs`` is its entries on the
    field's ``modes``, which :func:`~elastrip.solver.energy_balance` takes.
    With a transform ``rhs`` is the free vector.  ``physical`` evaluates
    the source at the physical heights of the transformed strip.
    """
    if surface.offset == ctx.mesh.bottom and surface.is_flat():
        classes, rhs = flat_load(ctx.mesh, source)
        field, info = solve_field(ctx, rhs, tol=tol, classes=classes)
        return field, info, rhs, None
    coeffs = TransformCoefficients(ctx.mesh, surface, cutoff)
    rhs = assemble_rhs(ctx.mesh, source, coeffs, physical=physical, work=ctx.work)
    field, info = solve_field(ctx, rhs, coeffs, tol=tol)
    return field, info, rhs, coeffs


def field_physical_norms(field: DiscreteField, coeffs: TransformCoefficients | None,
                         work: Workspace, quadratics=None):
    """(L2^2, grad^2) of the field over the physical strip.

    Without ``coeffs`` (a flat strip) they are the exact mode-space
    quadratics of :class:`DiscreteField`, with no transform; ``quadratics``
    passes them on when the caller has evaluated them already.  The
    collocation quadrature would give the same values to roundoff: |u|^2
    and |grad u|^2 are trigonometric polynomials of degree at most 2N per
    horizontal axis, which the point sum over P >= 3(2N + 1)/2 > 2N points
    integrates exactly, and quadratic on each element, which 2-point Gauss
    integrates exactly.  With ``coeffs`` the change of variables is summed
    at the quadrature points over the solver's element blocks in order,
    each block's planes and fields in the buffers of ``work``.
    """
    mesh = field.mesh
    if coeffs is None:
        l2, dz, horiz = field.mode_quadratics() if quadratics is None else quadratics
        area = mesh.grid.cell_area
        return float(area * l2.sum()), float(area * (dz.sum() + horiz.sum()))
    sums = np.zeros(4)  # per slot: u, d1 u, d2 u, d3 u
    for b in element_blocks(mesh, work):
        planes = coeffs.block(b, work)
        F = physical_quad_fields(mesh, field.coeff, planes, b, work)
        for c, j in np.ndindex(3, 4):  # one field at a time keeps the squares small
            sums[j] += np.sum(planes.wgt * np.abs(F[c, j]) ** 2)
    return float(sums[0]), float(sums[1:].sum())


def source_norms(source, mesh: StripMesh, coeffs: TransformCoefficients | None,
                 work: Workspace):
    """(||g||_L2, ||g||_H1) over the strip by the solver's quadrature.

    On the reference strip (no ``coeffs``) they are taken in mode space: by
    Parseval, the point sum of g_c^2 over the P1 x P2 padded grid is
    P1 P2 sum_r |S[0, c, r]|^2 v(z)^2 for the source's folded spectra S, so
    ||g||^2 = |cell| sum_q w_q v(z_q)^2 ||S[0]||^2, and the gradient adds
    ||S[1]||^2 + ||S[2]||^2 against v^2 and ||S[0]||^2 against v'^2.  The
    folding and the Gauss rule are those of the grid, so this is the
    pseudospectral quadrature to roundoff, aliased harmonics included;
    unlike the load vector, a harmonic whose residue is no lattice mode
    still counts.  With ``coeffs`` the norms are physical: the points move
    with the flattening map, and the sums run at them over the solver's
    element blocks in order, each block's weights in a buffer of ``work``.
    """
    if coeffs is None:
        S = source.folded_spectra(mesh.P1, mesh.P2)
        power = np.sum(S.real ** 2 + S.imag ** 2, axis=(1, 2, 3))  # per value, d1, d2
        v_sq = float(np.sum(mesh.wq * source.vertical(mesh.zq) ** 2))
        dv_sq = float(np.sum(mesh.wq * source.vertical_d(mesh.zq) ** 2))
        area = mesh.grid.cell_area
        l2_sq = area * v_sq * power[0]
        grad_sq = area * (v_sq * (power[1] + power[2]) + dv_sq * power[0])
        return np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)
    l2_sq = grad_sq = 0.0
    for b in element_blocks(mesh, work):
        points = quad_points(mesh, coeffs, b, work)
        wgt = coeffs.block(b, work).wgt
        l2_sq += float(np.sum(wgt * source.values(*points) ** 2))
        grad_sq += float(np.sum(wgt * source.gradients(*points) ** 2))
    return np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)


def energy_ok(residual: float, power: float, leeway: float, solve_residual: float) -> bool:
    """The energy gate of one solve, from :func:`~elastrip.solver.energy_balance`'s
    (residual, power, leeway) and the solve's relative residual.

    The flux identity holds to ``ENERGY_TOL`` plus what the solve's
    inexactness allows: a relative residual rho leaves a normalized
    mismatch of at most rho times ``leeway``, which matters when the
    radiated power is small against ||x|| ||b||.  A direct solve's rho is
    at roundoff, so its allowance is too.  The power must not be negative
    beyond ``POWER_TOL``.
    """
    return bool(residual <= ENERGY_TOL + solve_residual * leeway and power >= POWER_TOL)


def _diagnose(field: DiscreteField, rhs, ctx: SolverContext, info, profile, quadratics):
    """The diagnostics of one deterministic solve: the flux identity and its
    gate (:func:`energy_ok`), the Poincare slack, the solve's residual,
    steps and method, and the surface's Lipschitz constant."""
    res, power, leeway = energy_balance(field, rhs, ctx)
    diag = {
        "energy_residual": res,
        "radiated_power": power,
        "poincare_slack": poincare_slack(field, quadratics),
        "solve_residual": info.residual,
        "solve_iterations": info.iterations,
        "solve_method": info.method,
        "surface_L": profile.L,
    }
    diag["energy_ok"] = energy_ok(res, power, leeway, info.residual)
    diag["poincare_ok"] = bool(diag["poincare_slack"] >= -1e-12)
    return diag


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def deterministic_run(cfg: RunConfig, label: str = "run",
                      ctx: SolverContext | None = None) -> tuple[RunReport, DiscreteField]:
    """One full solve with the configured surface; bound ratio in physical norms.

    ``ctx`` is a context of the config's mesh and material to solve in
    (:func:`parameter_sweep` shares one); without it one is built here.
    """
    t0 = time.perf_counter()
    params, geom, mesh, cutoff, source = build_setup(cfg)
    profile = make_profile(cfg.surface.f0_offset, cfg.surface.terms, geom)
    ctx = SolverContext(mesh, params) if ctx is None else ctx
    field, info, rhs, coeffs = solve_surface(ctx, profile, cutoff, source, physical=True,
                                             tol=cfg.discretization.solver_tol)
    # one evaluation of the mode quadratics serves the flat norms and the slack
    quadratics = field.mode_quadratics()
    l2_sq, grad_sq = field_physical_norms(field, coeffs, ctx.work, quadratics)
    u_vh = float(np.sqrt(l2_sq + grad_sq))
    g_l2, g_h1 = source_norms(source, ctx.mesh, coeffs, ctx.work)
    report = bound_constants(params, geom, L=profile.L, generic_C=cfg.run.generic_C)
    ratio = u_vh / (report.total_bound * g_h1) if g_h1 > 0 else 0.0
    report = replace(report, measured_ratio=ratio)
    diag = _diagnose(field, rhs, ctx, info, profile, quadratics)
    run = RunReport(config=cfg.as_dict(), u_vh=u_vh, g_l2=g_l2, g_h1=g_h1,
                    bound=report.as_dict(), diagnostics=diag,
                    wall_time=time.perf_counter() - t0, label=label)
    return run, field


SWEEP_AXES = ("omega", "h", "L_amplitude")


def _with_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "omega":
        return replace(cfg, physics=replace(cfg.physics, omega=float(value)))
    if axis == "h":
        return replace(cfg, geometry=replace(cfg.geometry, h=float(value)))
    if axis == "L_amplitude":
        terms = tuple((j1, j2, value * c, value * s) for j1, j2, c, s in cfg.surface.terms)
        return replace(cfg, surface=replace(cfg.surface, terms=terms))
    raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")


def parameter_sweep(cfg: RunConfig, axis: str, values) -> list[dict]:
    """One deterministic run per value; per-point failures recorded, not raised.

    Along ``L_amplitude`` the mesh and the material stay, so the points
    share one :class:`SolverContext`, built at the first point whose setup
    succeeds: the DtN symbol, the workspace and the rough points' flat
    preconditioner are built once; a flat point factors the classes its
    load reaches.  Along ``omega`` and ``h`` each point builds its own.
    """
    rows, ctx = [], None
    for v in values:
        v = float(v)
        if not np.isfinite(v):
            raise ValueError(f"sweep value must be finite, got {v}")
        try:
            point_cfg = _with_axis(cfg, axis, v)
            if axis == "L_amplitude" and ctx is None:
                params, _, mesh, *_ = build_setup(point_cfg)
                ctx = SolverContext(mesh, params)
            rep, _ = deterministic_run(point_cfg, label=f"{axis}={v:g}", ctx=ctx)
            rows.append({"axis": axis, "value": v, "report": rep, "error": None})
        except ElastripError as exc:
            rows.append({"axis": axis, "value": v, "report": None,
                         "error": f"{type(exc).__name__}: {exc}"})
    return rows


def _solve_sample(ctx: SolverContext, cutoff: CutoffFn, sample, *, tol: float):
    """The report row of one ensemble sample, with its |u|_H1^2 and
    |g|_H1^2, solved in the context ``ctx``.

    Every array of the sample is released on return, so an ensemble on W
    workers holds the arrays of at most W samples at a time.
    """
    field, info, rhs, _ = solve_surface(ctx, sample.surface, cutoff, sample.source,
                                        physical=False, tol=tol)
    u_sq = field.vh_norm() ** 2
    _, g_h1 = source_norms(sample.source, ctx.mesh, None, ctx.work)
    g_sq = g_h1 ** 2
    res, power, leeway = energy_balance(field, rhs, ctx)
    return {"sample_id": sample.sample_id, "u_h1_sq": u_sq, "g_h1_sq": g_sq,
            "energy_residual": res, "radiated_power": power,
            "surface_L": sample.surface.L, "iterations": info.iterations,
            "energy_ok": energy_ok(res, power, leeway, info.residual)}


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _wrapped_entry() -> bool:
    """Whether ``solve_surface`` or ``solve_field``, as a sample calls
    them, is a wrapper that names its original in ``__wrapped__``
    (``functools.wraps``), as a tracer or profiler installs.  Such a
    wrapper may keep one state for the process, such as one stack of open
    calls, that two workers would mix up."""
    return any(hasattr(fn, "__wrapped__") for fn in (solve_surface, solve_field))


def _solve_ensemble(ctx: SolverContext, inner: StripMesh, samples, solve,
                    threads: int | None) -> list:
    """``solve(context, sample)`` of every sample, in sample order, where
    ``inner`` is the mesh of the samples' complex64 operators.

    The samples run on min(``threads``, usable cores, samples) worker
    threads, ``threads`` None meaning the usable cores, and on no more than
    :func:`~elastrip.solver.budget_shares` of the mesh: each worker solves
    in its own :meth:`SolverContext.share` of ``ctx``, whose element blocks
    then keep the bits of ``ctx``'s, so a sample's result does not depend
    on the worker count or on which worker took it.  The shares, with the
    flat factor they read and their workspace buffers, are made in the
    caller's thread before the pool starts, those of the complex64
    operator on ``inner``.  While the pool runs, every
    loaded OpenBLAS runs on one thread: a worker's products are small, and
    2 workers with 2 BLAS threads each were slower than one loop.  Each
    sample builds its own complex64 operator mesh in its worker
    (:func:`~elastrip.solver.inner_mesh`).  With one worker, where no
    OpenBLAS thread count can be set, or while a sample's entry points are
    wrapped (:func:`_wrapped_entry`), the samples run one after another in
    the caller's thread in ``ctx``.
    """
    from .blas import openblas_controls, threads_limited

    cores = _usable_cores()
    workers = min(cores if threads is None else threads, cores, len(samples),
                  budget_shares(ctx.mesh, ctx.work))
    controls = openblas_controls() if workers > 1 and not _wrapped_entry() else []
    if not controls:
        return [solve(ctx, sample) for sample in samples]
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    idle = SimpleQueue()
    for _ in range(workers):
        idle.put(ctx.share(workers, inner))

    def task(sample):
        own = idle.get()
        try:
            return solve(own, sample)
        finally:
            idle.put(own)

    with threads_limited(controls, 1):
        pool = ThreadPoolExecutor(workers)
        try:
            return list(pool.map(task, samples))
        finally:
            pool.shutdown(cancel_futures=True)


def stochastic_bound(cfg: RunConfig) -> float:
    """(h-m+2)^2 (C4+C5+C6)^2, the factor of the random-surface bound, with
    the enlarged Lipschitz level L0 = M0 + L(c) = M0: the ensemble is drawn
    within ||f - c||_{1,inf} <= M0 of the flat level c, whose Lipschitz
    constant is 0.  The config's deterministic ``terms`` do not enter."""
    geom = cfg.strip_geometry()
    rep = bound_constants(cfg.elastic_params(), geom, L=cfg.surface.M0,
                          generic_C=cfg.run.generic_C)
    return total_bound_stochastic(rep, geom)


def ensemble_law(cfg: RunConfig) -> tuple[tuple[int, int, float], ...]:
    """The surface law the Monte Carlo ensemble draws from,
    ``surface.law_bands``; a :class:`ConfigError` when the config has none."""
    if not cfg.surface.law_bands:
        raise ConfigError("monte_carlo needs surface.law_bands in the config")
    return cfg.surface.law_bands


def monte_carlo(cfg: RunConfig, n: int | None = None, seed: int | None = None) -> McReport:
    """Ensemble of transformed solves; stochastic bound ratio against
    :func:`stochastic_bound`, L0 = M0.

    Sources are drawn per sample on the reference strip; norms are plain
    reference-strip H1 quantities.  The samples share the DtN symbol and
    the flat factor of one :class:`SolverContext`, built once for the
    ensemble, and run on up to ``run.threads`` worker threads
    (:func:`_solve_ensemble`); the rows and failures are in sample order
    and have the same bits at any worker count.  Failed samples are
    recorded and skipped, the means run over completed samples only.
    """
    law = ensemble_law(cfg)
    n = cfg.run.n_samples if n is None else int(n)
    seed = cfg.run.seed if seed is None else int(seed)
    params, geom, mesh, cutoff, _ = build_setup(cfg)
    samples = sample_ensemble(seed, n, cfg.surface.M0, law, geom, mesh.bottom,
                              cfg.source.amplitude)

    def solve(ctx, sample):  # the sample's row, or its failure record
        try:
            return _solve_sample(ctx, cutoff, sample, tol=cfg.discretization.solver_tol)
        except ElastripError as exc:
            return {"sample_id": sample.sample_id, "error": f"{type(exc).__name__}: {exc}"}

    # every sample has one term per band of the law, and so the complex64
    # operator's collocation grid of the first
    inner = inner_mesh(mesh, samples[0].surface)
    outcomes = _solve_ensemble(SolverContext(mesh, params), inner, samples, solve,
                               cfg.run.threads)
    rows = [out for out in outcomes if "error" not in out]
    failures = [out for out in outcomes if "error" in out]
    if not rows:
        raise ElastripError("all Monte Carlo samples failed")
    u_arr = np.array([row["u_h1_sq"] for row in rows])
    g_arr = np.array([row["g_h1_sq"] for row in rows])
    sbound = stochastic_bound(cfg)
    ratio = float(u_arr.mean() / (sbound * g_arr.mean()))

    def se(a):
        return float(a.std(ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0

    return McReport(n_samples=n, n_completed=len(rows), seed=seed,
                    mean_u_sq=float(u_arr.mean()), mean_g_sq=float(g_arr.mean()),
                    se_u_sq=se(u_arr), se_g_sq=se(g_arr),
                    stochastic_bound=sbound, ratio=ratio,
                    failures=failures, sample_rows=rows)


def pushforward_check(cfg: RunConfig) -> dict:
    """Cross-check two flattening routes of the same physical problem.

    The same rough surface is solved through two different transforms (the
    configured cutoff and a second one with a smaller plateau), both driven
    by the physical source.  Each discrete solution is pulled back to shared
    physical sample points by inverting its own vertical map; the relative
    L2 discrepancy over those points is returned together with a V_h-norm
    comparison of the two reference-strip fields.
    """
    params, geom, mesh, cutoff_a, source = build_setup(cfg)
    profile = make_profile(cfg.surface.f0_offset, cfg.surface.terms, geom)
    cutoff_b = replace(cutoff_a, delta=0.5 * cutoff_a.delta)

    fields = []
    ctx = SolverContext(mesh, params)  # the two routes share mesh and material
    for cutoff in (cutoff_a, cutoff_b):
        fld, _, _, _ = solve_surface(ctx, profile, cutoff, source, physical=True,
                                     tol=cfg.discretization.solver_tol)
        fields.append((fld, cutoff))

    # shared physical sample points: horizontal lattice x heights above the
    # surface maximum (both transforms are invertible there)
    n = _PUSHFORWARD_POINTS
    x1 = geom.cell[0] * (np.arange(n) + 0.3) / n
    x2 = geom.cell[1] * (np.arange(n) + 0.7) / n
    z_lo = profile.f_max + 0.05 * (geom.h - profile.f_max)
    z_hi = geom.h - 0.05 * (geom.h - profile.f_max)
    x3 = np.linspace(z_lo, z_hi, n)
    X1, X2, X3 = np.meshgrid(x1, x2, x3, indexing="ij")
    if X3.min() <= profile.f_max or X3.max() >= geom.h:
        raise ElastripError("pushforward sample points leave the strip")

    pulled = []
    for fld, cutoff in fields:
        Y3 = invert_vertical(X3, X1, X2, mesh.bottom, profile, cutoff)
        vals = fld.values_at_points(X1.ravel(), X2.ravel(), Y3.ravel())
        pulled.append(vals)
    diff = np.linalg.norm(pulled[0] - pulled[1])
    ref = max(np.linalg.norm(pulled[0]), np.linalg.norm(pulled[1]))
    rel_l2 = float(diff / ref) if ref > 0 else 0.0

    dv = DiscreteField(fields[0][0].coeff - fields[1][0].coeff, mesh)
    rel_vh = dv.vh_norm() / max(fields[0][0].vh_norm(), fields[1][0].vh_norm())
    return {"rel_l2": rel_l2, "rel_vh": float(rel_vh), "n_z": mesh.n_elements,
            "n_modes": (mesh.grid.n1, mesh.grid.n2)}


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _csv_cell(v):
    """Floats, numpy ones too, as repr(float(v)); ints and strings as they are."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else v


def _write_csv(path, fields, rows) -> None:
    """The ``fields`` columns of the rows; a row's other keys, such as a
    Monte Carlo row's ``energy_ok``, stay out of the file."""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        w.writeheader()
        w.writerows({k: _csv_cell(v) for k, v in row.items()} for row in rows)


def write_run_csv(path, reports) -> None:
    _write_csv(path, RunReport.CSV_FIELDS, (r.csv_row() for r in reports))


def write_sweep_csv(path, rows) -> None:
    """A point's run columns are its ``runs.csv`` cells; a failed point's are empty."""
    def cells(row):
        rep = row["report"]
        run = {"status": "ok", **rep.csv_row()} if rep else {"status": row["error"]}
        return {"axis": row["axis"], "value": row["value"], **run}

    _write_csv(path, ("axis", "value", "status", "u_vh", "g_h1", "total_bound",
                      "measured_ratio", "energy_residual"), map(cells, rows))


def write_mc_csv(path, report: McReport) -> None:
    _write_csv(path, ("sample_id", "u_h1_sq", "g_h1_sq", "energy_residual",
                      "radiated_power", "surface_L", "iterations"), report.sample_rows)


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
