import copy
import dataclasses
import functools
import sys
import threading

import numpy as np
import pytest

import elastrip.mesh
from elastrip import blas, dtn, harness, solver
from elastrip.config import RunConfig, dump_config, from_dict, load_config
from elastrip.errors import ConfigError, NonConvergenceError
from elastrip.geometry import sample_ensemble
from elastrip.harness import (
    RunReport,
    build_setup,
    deterministic_run,
    monte_carlo,
    parameter_sweep,
    pushforward_check,
    solve_surface,
)
from elastrip.mesh import StripMesh, Workspace
from elastrip.solver import (DiscreteField, SolverContext, assemble_flat_blocks,
                             block_lu_solver, energy_balance, every_class, solve_field)

BASE = {
    "physics": {"omega": 1.0},
    "geometry": {"m": -0.2, "M_sup": 0.25, "h": 1.0},
    "surface": {"f0_offset": 0.0, "delta": 0.25},
    "discretization": {"N1": 1, "N2": 1, "n_z": 16},
    "source": {"amplitude": 1.0, "component": 2, "j1": 1, "j2": 0},
    "run": {"seed": 0, "n_samples": 4},
}


def count_flat_assemblies(monkeypatch) -> list:
    """The argument tuples of every later solver.assemble_flat_blocks call."""
    calls = []
    real = solver.assemble_flat_blocks

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "assemble_flat_blocks", counted)
    return calls


def count_symbol_grids(monkeypatch) -> list:
    """One entry per later dtn_symbol_grid call, through the solver's name
    or the dtn module's."""
    calls = []
    for module in (solver, dtn):
        def counted(*args, _real=module.dtn_symbol_grid):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(module, "dtn_symbol_grid", counted)
    return calls


def replace_run(cfg: RunConfig, **changes) -> RunConfig:
    return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, **changes))


def cfg_with(**changes) -> RunConfig:
    d = copy.deepcopy(BASE)
    for sec, kv in changes.items():
        d.setdefault(sec, {}).update(kv)
    return from_dict(d)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so that an ensemble may start a pool of two
    workers on any machine."""
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)


def spy_shares(monkeypatch) -> list:
    """The ``parts`` of every later SolverContext.share call: one entry per
    worker of each pool an ensemble starts."""
    parts, real = [], SolverContext.share

    def spied(self, n):
        parts.append(n)
        return real(self, n)

    monkeypatch.setattr(SolverContext, "share", spied)
    return parts


# -- config ------------------------------------------------------------------

def test_unknown_section_and_key_rejected_by_name():
    with pytest.raises(ConfigError, match="physcs"):
        from_dict({"physcs": {}})
    with pytest.raises(ConfigError, match="omeg"):
        from_dict({"physics": {"omeg": 2.0}})


def test_quadrature_order_pinned():
    """The 2-point Gauss rule is fixed; the config has no key to change it."""
    with pytest.raises(ConfigError, match=r"unknown key.*'discretization'.*quad_order"):
        cfg_with(discretization={"quad_order": 3})


def test_config_yaml_round_trip(tmp_path):
    """Every field at a value other than its default comes back from
    config.yaml as it went in, an integer cell entry an integer."""
    cfg = from_dict({
        "physics": {"lam": 1.5, "mu": 0.75, "omega": 2.5},
        "geometry": {"m": -0.3, "M_sup": 0.2, "h": 1.5, "cell": [6, 7]},
        "surface": {"f0_offset": 0.05, "terms": [[1, 0, 0.05, 0.0], [0, -1, 0.01, 0.02]],
                    "law_bands": [[1, 0, 0.05], [1, 1, 0.03]], "M0": 0.3, "delta": 0.25},
        "discretization": {"N1": 2, "N2": 3, "n_z": 8, "solver_tol": 1.0e-10},
        "source": {"amplitude": 2.0, "component": 1, "j1": 0, "j2": 1, "phase": 0.5},
        "run": {"seed": 7, "n_samples": 3, "out_dir": "elsewhere", "generic_C": 2.0,
                "threads": 2},
    })
    defaults = RunConfig().as_dict()
    assert all(value != defaults[name][key]
               for name, section in cfg.as_dict().items() for key, value in section.items())
    path = tmp_path / "cfg.yaml"
    dump_config(cfg, str(path))
    again = load_config(str(path))
    assert again == cfg
    assert again.as_dict() == cfg.as_dict()
    assert again.geometry.cell == (6, 7) and type(again.geometry.cell[0]) is int


def test_defaults_are_valid():
    RunConfig()  # no exception


@pytest.mark.parametrize("threads", [0, -1, 1.5, "2", True])
def test_run_threads_must_be_a_positive_integer(threads):
    assert RunConfig().run.threads is None and cfg_with(run={"threads": 3}).run.threads == 3
    with pytest.raises(ConfigError, match="run.threads"):
        cfg_with(run={"threads": threads})


def test_invalid_physics_rejected():
    with pytest.raises(Exception):
        cfg_with(physics={"mu": -1.0})


# -- deterministic runs ------------------------------------------------------

def test_flat_run_diagnostics_clean():
    rep, field = deterministic_run(cfg_with(), label="flat")
    d = rep.diagnostics
    assert d["energy_residual"] < 1e-10
    assert d["radiated_power"] >= 0.0
    assert d["poincare_slack"] > 0.0
    assert rep.bound["measured_ratio"] < 1.0
    assert rep.u_vh > 0.0 and rep.g_l2 > 0.0


def count_calls(monkeypatch, cls, names) -> dict:
    """Number of later calls of each method ``names`` of ``cls``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _name=name, _fn=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_flat_run_and_sample_source_norms_need_no_transform(monkeypatch):
    """A flat run takes its load vector and all its norms in mode space, and
    evaluates the field's mode quadratics once; a Monte Carlo sample's
    source norms make no transform either."""
    transforms = count_calls(monkeypatch, StripMesh, ("to_physical", "to_modes_adjoint"))
    quadratics = count_calls(monkeypatch, DiscreteField, ("mode_quadratics",))
    deterministic_run(cfg_with())
    assert transforms == {"to_physical": 0, "to_modes_adjoint": 0}
    assert quadratics == {"mode_quadratics": 1}

    in_norms = []
    real = harness.source_norms

    def counted_norms(*args, **kwargs):
        before = sum(transforms.values())
        out = real(*args, **kwargs)
        in_norms.append(sum(transforms.values()) - before)
        return out

    monkeypatch.setattr(harness, "source_norms", counted_norms)
    rep = monte_carlo(cfg_with(surface={"law_bands": [[1, 0, 0.05]], "M0": 0.3}), n=2, seed=1)
    assert rep.n_completed == 2 and in_norms == [0, 0]
    assert sum(transforms.values()) > 0  # the rough samples' solves do transform


def test_zero_amplitude_source_gives_zero_ratio():
    rep, field = deterministic_run(cfg_with(source={"amplitude": 0.0}))
    assert rep.u_vh == 0.0
    assert np.all(field.coeff == 0)


def test_runs_are_deterministic():
    a, _ = deterministic_run(cfg_with(surface={"terms": [[1, 0, 0.05, 0.0]]}))
    b, _ = deterministic_run(cfg_with(surface={"terms": [[1, 0, 0.05, 0.0]]}))
    row_a, row_b = a.csv_row(), b.csv_row()
    assert row_a == row_b
    assert "wall_time" not in RunReport.CSV_FIELDS


@pytest.mark.parametrize("surface", [{}, {"terms": [[1, 0, 0.05, 0.0]]}])
def test_csv_row_is_the_report_cell_by_cell(surface):
    """Each runs.csv cell is the report value of its name; comparing two
    rows with each other would pass a wrong key."""
    rep, _ = deterministic_run(cfg_with(surface=surface))
    d = rep.diagnostics
    assert rep.csv_row() == {
        "label": rep.label,
        "omega": rep.config["physics"]["omega"],
        "h": rep.config["geometry"]["h"],
        "L": d["surface_L"],
        "u_vh": rep.u_vh,
        "g_l2": rep.g_l2,
        "g_h1": rep.g_h1,
        "total_bound": rep.bound["total_bound"],
        "measured_ratio": rep.bound["measured_ratio"],
        "energy_residual": d["energy_residual"],
        "radiated_power": d["radiated_power"],
        "poincare_slack": d["poincare_slack"],
        "solve_residual": d["solve_residual"],
        "solve_iterations": d["solve_iterations"],
    }


def test_rough_run_satisfies_bound():
    rep, _ = deterministic_run(cfg_with(surface={"terms": [[1, 0, 0.08, 0.0]]}))
    assert rep.diagnostics["energy_residual"] < 1e-8
    assert rep.bound["measured_ratio"] < 1.0
    assert rep.diagnostics["surface_L"] > 0.0


# -- sweeps ------------------------------------------------------------------

def test_omega_sweep_reports_every_point():
    rows = parameter_sweep(cfg_with(), "omega", [0.5, 1.0, 2.0])
    assert len(rows) == 3
    for row in rows:
        assert row["error"] is None
        assert np.isfinite(row["report"].bound["measured_ratio"])


def test_height_sweep_bound_monotone():
    rows = parameter_sweep(cfg_with(), "h", [1.0, 1.5, 2.0])
    bounds = [row["report"].bound["total_bound"] for row in rows]
    assert bounds == sorted(bounds)


def test_amplitude_sweep_zero_matches_flat():
    rows = parameter_sweep(cfg_with(surface={"terms": [[1, 0, 0.1, 0.0]]}),
                           "L_amplitude", [0.0, 0.5, 1.0])
    flat_rep, _ = deterministic_run(cfg_with())
    assert rows[0]["report"].u_vh == pytest.approx(flat_rep.u_vh, rel=1e-9)


def test_amplitude_sweep_shares_one_context(monkeypatch):
    """Along L_amplitude the points share one solver context, so the rough
    points share one all-class assembly of the flat operator, also past a
    point whose surface leaves the slab, and every row keeps the bits of a
    run on its own.  The flat point assembles the classes its load reaches
    for its direct solve.  Along omega every point assembles its own."""
    cfg = cfg_with(surface={"terms": [[1, 0, 0.1, 0.0], [0, 1, 0.0, 0.05]]})
    values = [0.0, 0.5, 30.0, 1.0]
    alone = [deterministic_run(harness._with_axis(cfg, "L_amplitude", v),
                               label=f"L_amplitude={v:g}")[0] for v in values if v != 30.0]
    calls = count_flat_assemblies(monkeypatch)
    rows = parameter_sweep(cfg, "L_amplitude", values)
    assert len(calls) == 2
    assert rows[2]["report"] is None and rows[2]["error"].startswith("ConstraintError")
    ok = [row["report"] for row in rows if row["report"] is not None]
    assert [r.csv_row() for r in ok] == [r.csv_row() for r in alone]
    assert [r.diagnostics["solve_method"] for r in ok] == ["direct", "gmres", "gmres"]
    calls.clear()
    parameter_sweep(cfg, "omega", [0.5, 1.0])
    assert len(calls) == 2


@pytest.mark.parametrize("surface", [{}, {"terms": ((1, 0, 0.05, 0.0),), "delta": 0.25}],
                         ids=["flat", "rough"])
def test_omega_sweep_across_the_rayleigh_wood_anomaly(surface):
    """On the default cell and material the modes (+-1, 0) lie on |xi| = k_s
    at omega = 1, where their vertical wavenumber turns from imaginary to
    real.  Across it every point passes the energy gate, the radiated
    power does not fall as omega grows (on the flat strip it is zero up to
    the anomaly and positive above), and u_vh is continuous with the
    square-root modulus of that wavenumber: |u_vh(omega) - u_vh(1)| <=
    0.6 sqrt|omega - 1|."""
    cfg = RunConfig()
    cfg = dataclasses.replace(cfg, surface=dataclasses.replace(cfg.surface, **surface))
    omegas = [0.98, 0.99, 0.995, 0.999, 1.0, 1.001, 1.005, 1.01, 1.02]
    reps = [row["report"] for row in parameter_sweep(cfg, "omega", omegas)]
    assert all(rep.diagnostics["energy_ok"] for rep in reps)
    power = [rep.diagnostics["radiated_power"] for rep in reps]
    assert power == sorted(power)
    if not surface:
        assert all((p > 0) == (w > 1.0) for w, p in zip(omegas, power))
    at_anomaly = reps[omegas.index(1.0)].u_vh
    for w, rep in zip(omegas, reps):
        assert abs(rep.u_vh - at_anomaly) <= 0.6 * np.sqrt(abs(w - 1.0))


def test_unknown_sweep_axis_rejected():
    with pytest.raises(Exception):
        parameter_sweep(cfg_with(), "bogus", [1.0])


# -- monte carlo -------------------------------------------------------------

def test_monte_carlo_reproducible_and_bounded():
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05]], "M0": 0.3},
                   run={"n_samples": 4, "seed": 7})
    a = monte_carlo(cfg)
    b = monte_carlo(cfg)
    assert a.as_dict() == b.as_dict()
    assert a.n_completed == 4
    assert a.completeness == 1.0
    assert 0.0 < a.ratio < 1.0
    assert a.stochastic_bound > 0.0


def test_monte_carlo_requires_ensemble_law():
    with pytest.raises(ConfigError, match="surface.law_bands"):
        monte_carlo(cfg_with(), n=2)


def test_monte_carlo_sample_order_independence():
    """Counter-based streams: the first samples agree across ensemble sizes."""
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05]], "M0": 0.3})
    small = monte_carlo(cfg, n=2, seed=3)
    large = monte_carlo(cfg, n=4, seed=3)
    assert small.sample_rows[0] == large.sample_rows[0]
    assert small.sample_rows[1] == large.sample_rows[1]


def test_monte_carlo_factors_the_flat_operator_once(monkeypatch, two_cores):
    """One flat assembly for the ensemble, and as many DtN symbol grids for
    three samples as for one, on one worker and on two; rows equal those of
    separate solves."""
    for threads in (1, 2):
        with monkeypatch.context() as mp:
            _factors_the_flat_operator_once(mp, threads)


def _factors_the_flat_operator_once(monkeypatch, threads):
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05], [0, 1, 0.04]], "M0": 0.3},
                   run={"n_samples": 3, "seed": 5, "threads": threads})
    symbols = count_symbol_grids(monkeypatch)
    monte_carlo(cfg, n=1)
    symbols_one = len(symbols)
    symbols.clear()
    calls = count_flat_assemblies(monkeypatch)
    shares = spy_shares(monkeypatch)
    rep = monte_carlo(cfg)
    assert shares == ([] if threads == 1 else [2, 2])
    assert len(calls) == 1 and rep.n_completed == 3
    assert len(symbols) == symbols_one

    params, geom, mesh, cutoff, _ = build_setup(cfg)
    samples = sample_ensemble(5, 3, 0.3, ((1, 0, 0.05), (0, 1, 0.04)), geom, mesh.bottom,
                              cfg.source.amplitude)
    for sample, row in zip(samples, rep.sample_rows):
        ctx = SolverContext(mesh, params)
        field, info, rhs, _ = solve_surface(ctx, sample.surface, cutoff, sample.source,
                                            physical=False, tol=cfg.discretization.solver_tol)
        assert row["u_h1_sq"] == field.vh_norm() ** 2
        assert row["energy_residual"] == energy_balance(field, rhs, ctx)[0]
        assert row["iterations"] == info.iterations
    assert len(calls) == 4


def test_monte_carlo_records_a_singular_pivot_as_a_failed_sample(monkeypatch, two_cores,
                                                                tmp_path):
    """A sample whose block-LU meets a singular pivot is recorded as failed
    by its sample_id; the ensemble goes on.  Rows, failures and the
    mc_samples.csv bytes are the same on one worker and on two."""
    real = harness._solve_sample

    def singular_sample_1(ctx, cutoff, sample, *, tol):
        if sample.sample_id == 1:
            every = every_class(ctx.mesh)
            block_lu_solver(np.zeros_like(assemble_flat_blocks(ctx.mesh, ctx.params, every)),
                            every)
        return real(ctx, cutoff, sample, tol=tol)

    monkeypatch.setattr(harness, "_solve_sample", singular_sample_1)
    shares = spy_shares(monkeypatch)
    reports, csvs = [], []
    for threads in (1, 2):
        cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05]], "M0": 0.3},
                       run={"threads": threads})
        rep = monte_carlo(cfg, n=3, seed=2)
        assert rep.n_completed == 2
        assert [r["sample_id"] for r in rep.sample_rows] == [0, 2]
        (failure,) = rep.failures
        assert failure["sample_id"] == 1
        assert failure["error"].startswith("NonConvergenceError: block-LU: singular pivot")
        harness.write_mc_csv(tmp_path / f"mc_{threads}.csv", rep)
        reports.append(rep)
        csvs.append((tmp_path / f"mc_{threads}.csv").read_bytes())
    assert shares == [2, 2]
    assert reports[0] == reports[1] and csvs[0] == csvs[1]


def test_an_ensemble_takes_its_buffers_before_the_pool(monkeypatch, two_cores):
    """The workers' workspace buffers but the float64 scratch plane of the
    complex64 planes are taken in the caller's thread before the pool
    starts, by SolverContext.share: the workers allocate no large buffer.
    The shared mesh's DFT matrices (14 points per axis) are built there
    too; a worker builds only those of its samples' coarser meshes."""
    built = []  # (buffer name, in the main thread)
    take = Workspace.take
    dft_built, dft = [], elastrip.mesh._dft_matrices
    monkeypatch.setattr(elastrip.mesh, "_dft_matrices", lambda j, xi, P: dft_built.append(
        (P, threading.current_thread() is threading.main_thread())) or dft(j, xi, P))

    def taken(self, name, shape, dtype=complex):
        buf = self._buffers.get(name)
        out = take(self, name, shape, dtype)
        if self._buffers[name] is not buf and name != "plane64":
            built.append((name, threading.current_thread() is threading.main_thread()))
        return out

    monkeypatch.setattr(Workspace, "take", taken)
    shares = spy_shares(monkeypatch)
    cfg = cfg_with(discretization={"N1": 4, "N2": 4, "n_z": 16},
                   surface={"law_bands": [[1, 0, 0.05], [0, 1, 0.04]], "M0": 0.3},
                   run={"threads": 2})
    rep = monte_carlo(cfg, n=4, seed=3)
    assert shares == [2, 2] and rep.n_completed == 4
    assert {("fields", True), ("J1", True)} <= set(built)
    assert all(main for _, main in built), built
    assert dft_built.count((14, True)) == 2 and (14, False) not in dft_built


def test_a_failed_sample_leaves_nothing_in_the_shared_workspace(monkeypatch, two_cores):
    """A sample that fails after three matvecs on scaled vectors in each
    precision leaves its context's workspace dirty, its field buffers last
    written as complex64 and as complex128 views and its transform planes
    as float32 and float64 ones; the other samples' rows keep the bits of a
    clean run on one worker, so no stage reads a workspace buffer before
    writing it.  The elements are split into uneven blocks, as on large
    meshes.  On two workers the failing sample dirties one worker's
    workspace, and the other samples run on either."""
    for threads, budget_elements, n_z, blocks in (
            (1, 3, 16, [3, 3, 3, 3, 3, 1]),
            (2, 16, 20, [8, 8, 4])):  # each of the two workers' blocks
        with monkeypatch.context() as mp:
            _failed_sample_case(mp, threads, budget_elements, n_z, blocks)


def _failed_sample_case(monkeypatch, threads, budget_elements, n_z, blocks):
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05], [0, 1, 0.04]], "M0": 0.3},
                   discretization={"n_z": n_z}, run={"threads": 1})
    mesh = build_setup(cfg)[2]
    per_element = 3 * 4 * mesh.P1 * mesh.P2 * 2 * 16
    monkeypatch.setattr(solver, "_BLOCK_BYTES", budget_elements * per_element + 1)
    budget = solver._BLOCK_BYTES // threads
    assert [b.stop - b.start for b in solver.element_blocks(mesh, Workspace(budget))] == blocks
    clean = monte_carlo(cfg, n=3, seed=4)
    real_gmres, real_sample = solver.gmres, harness._solve_sample
    calls, seen, current = [], {}, threading.local()
    take = Workspace.take

    def spied_take(self, name, shape, dtype=complex):
        seen.setdefault(threading.get_ident(), []).append(np.dtype(dtype))
        return take(self, name, shape, dtype)

    def keyed(ctx, cutoff, sample, *, tol):
        current.sample_id = sample.sample_id
        return real_sample(ctx, cutoff, sample, tol=tol)

    def fails_sample_1(matvec, b, precond, tol, residual):
        calls.append(1)
        if current.sample_id == 1:
            dtypes = seen.setdefault(threading.get_ident(), [])
            for operator, dtype in ((residual, np.complex128), (matvec, np.complex64)):
                dtypes.clear()
                for scale in (1e6, -3.0, 1e-6j):
                    operator(scale * b)
                # the fields at the operator's precision, its planes at the
                # real one, cast from float64 products
                assert set(dtypes) == {np.dtype(dtype), np.finfo(dtype).dtype,
                                       np.dtype(np.float64)}
            raise NonConvergenceError("failed after 3 matvecs in each precision")
        return real_gmres(matvec, b, precond, tol, residual=residual)

    monkeypatch.setattr(solver, "gmres", fails_sample_1)
    monkeypatch.setattr(harness, "_solve_sample", keyed)
    monkeypatch.setattr(Workspace, "take", spied_take)
    shares = spy_shares(monkeypatch)
    rep = monte_carlo(replace_run(cfg, threads=threads), n=3, seed=4)
    assert shares == ([] if threads == 1 else [2, 2])
    assert [f["sample_id"] for f in rep.failures] == [1] and len(calls) == 3
    assert clean.n_completed == 3
    assert rep.sample_rows == [clean.sample_rows[0], clean.sample_rows[2]]


def test_more_workers_than_cores_keep_the_rows_of_one(monkeypatch):
    """Six workers on (said to be) six cores, switching threads every
    microsecond: each worker solves in its own share and the shared flat
    factor is read only, so the rows are those of one worker."""
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05], [0, 1, 0.04]], "M0": 0.3},
                   run={"threads": 1})
    one = monte_carlo(cfg, n=6, seed=8)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 6)
    shares = spy_shares(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rep = monte_carlo(replace_run(cfg, threads=6), n=6, seed=8)
    finally:
        sys.setswitchinterval(interval)
    assert shares == [6] * 6
    assert rep.sample_rows == one.sample_rows and rep.as_dict() == one.as_dict()


def _ensemble_idents(monkeypatch) -> list:
    """The thread of every later sample solve."""
    idents, real = [], harness._solve_sample

    def spied(ctx, cutoff, sample, *, tol):
        idents.append(threading.get_ident())
        return real(ctx, cutoff, sample, tol=tol)

    monkeypatch.setattr(harness, "_solve_sample", spied)
    return idents


def test_the_pool_runs_blas_on_one_thread_and_gives_the_count_back(monkeypatch, two_cores):
    """While the workers solve, every OpenBLAS found runs on one thread;
    after the ensemble, and after a sample that raises, each has its count
    back."""
    controls = blas.openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread count can be set in this process")
    counts, real = [], harness._solve_sample

    def spied(ctx, cutoff, sample, *, tol):
        counts.append([get() for get, _ in controls])
        if sample.sample_id == 3:
            raise RuntimeError("not an ElastripError")
        return real(ctx, cutoff, sample, tol=tol)

    monkeypatch.setattr(harness, "_solve_sample", spied)
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05]], "M0": 0.3}, run={"threads": 2})
    with blas.threads_limited(controls, 2):
        rep = monte_carlo(cfg, n=3, seed=1)
        assert [get() for get, _ in controls] == [2] * len(controls)
        with pytest.raises(RuntimeError, match="not an ElastripError"):
            monte_carlo(cfg, n=4, seed=1)
        assert [get() for get, _ in controls] == [2] * len(controls)
    assert rep.n_completed == 3 and counts[:3] == [[1] * len(controls)] * 3


@pytest.mark.parametrize("cause", ["no OpenBLAS count", "budget below two granules",
                                   "wrapped entry point"])
def test_the_ensemble_runs_in_the_callers_thread_without_a_pool(monkeypatch, two_cores,
                                                                cause):
    """With no OpenBLAS thread count to set, an element-block budget that
    cannot give two workers a granule each, or a wrapper (a tracer's, say)
    around a sample's entry point, two threads run as one: the samples in
    order in the caller's thread, with the rows of one worker."""
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05]], "M0": 0.3}, run={"threads": 1})
    one = monte_carlo(cfg, n=3, seed=6)
    if cause == "no OpenBLAS count":
        monkeypatch.setattr(blas, "openblas_controls", lambda: [])
    elif cause == "wrapped entry point":
        monkeypatch.setattr(harness, "solve_field", functools.wraps(solve_field)(
            lambda *args, **kwargs: solve_field(*args, **kwargs)))
    else:
        mesh = build_setup(cfg)[2]
        per_element = 3 * 4 * mesh.P1 * mesh.P2 * 2 * 16
        monkeypatch.setattr(solver, "_BLOCK_BYTES", 2 * solver._BLOCK_GRANULE * per_element - 1)
        assert solver.budget_shares(mesh, Workspace()) == 1
    shares, idents = spy_shares(monkeypatch), _ensemble_idents(monkeypatch)
    rep = monte_carlo(replace_run(cfg, threads=2), n=3, seed=6)
    assert shares == [] and idents == [threading.get_ident()] * 3
    assert rep.sample_rows == one.sample_rows


# -- pushforward -------------------------------------------------------------

def test_pushforward_flat_surface_trivial():
    out = pushforward_check(cfg_with(discretization={"n_z": 16}))
    # both cutoffs take the same direct solve, so the two fields coincide
    assert out["rel_l2"] == pytest.approx(0.0, abs=1e-12)
    assert out["rel_vh"] == pytest.approx(0.0, abs=1e-12)


def test_pushforward_small_for_gentle_surface(monkeypatch):
    """Small discrepancy; both cutoffs' solves share one flat assembly."""
    calls = count_flat_assemblies(monkeypatch)
    out = pushforward_check(
        cfg_with(surface={"terms": [[1, 0, 0.08, 0.0]]},
                 discretization={"N1": 2, "N2": 2, "n_z": 16}))
    assert out["rel_l2"] < 0.01
    assert len(calls) == 1

