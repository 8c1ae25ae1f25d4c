import copy

import numpy as np
import pytest

from elastrip import dtn, harness, solver
from elastrip.config import RunConfig, dump_config, from_dict, load_config
from elastrip.errors import ConfigError, NonConvergenceError
from elastrip.geometry import CoefficientLaw, SourceSpec, sample_ensemble
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
from elastrip.solver import DiscreteField, SolverContext, block_lu_solver, energy_balance

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


def cfg_with(**changes) -> RunConfig:
    d = copy.deepcopy(BASE)
    for sec, kv in changes.items():
        d.setdefault(sec, {}).update(kv)
    return from_dict(d)


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
    cfg = cfg_with(surface={"terms": [[1, 0, 0.05, 0.0]]})
    path = tmp_path / "cfg.yaml"
    dump_config(cfg, str(path))
    again = load_config(str(path))
    assert again == cfg
    assert again.as_dict() == cfg.as_dict()


def test_defaults_are_valid():
    RunConfig()  # no exception


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
    with pytest.raises(Exception):
        monte_carlo(cfg_with(), n=2)


def test_monte_carlo_sample_order_independence():
    """Counter-based streams: the first samples agree across ensemble sizes."""
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05]], "M0": 0.3})
    small = monte_carlo(cfg, n=2, seed=3)
    large = monte_carlo(cfg, n=4, seed=3)
    assert small.sample_rows[0] == large.sample_rows[0]
    assert small.sample_rows[1] == large.sample_rows[1]


def test_monte_carlo_factors_the_flat_operator_once(monkeypatch):
    """One flat assembly for the ensemble, and as many DtN symbol grids for
    three samples as for one; rows equal those of separate solves."""
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05], [0, 1, 0.04]], "M0": 0.3},
                   run={"n_samples": 3, "seed": 5})
    symbols = count_symbol_grids(monkeypatch)
    monte_carlo(cfg, n=1)
    symbols_one = len(symbols)
    symbols.clear()
    calls = count_flat_assemblies(monkeypatch)
    rep = monte_carlo(cfg)
    assert len(calls) == 1 and rep.n_completed == 3
    assert len(symbols) == symbols_one

    params, geom, _, mesh, _, cutoff, _ = build_setup(cfg)
    law = CoefficientLaw(bands=((1, 0, 0.05), (0, 1, 0.04)))
    samples = sample_ensemble(5, 3, 0.3, law, geom, mesh.bottom,
                              source_spec=SourceSpec(amplitude=cfg.source.amplitude))
    for sample, row in zip(samples, rep.sample_rows):
        ctx = SolverContext(mesh, params)
        field, info, rhs, _ = solve_surface(ctx, sample.surface, cutoff, sample.source,
                                            physical=False, tol=cfg.discretization.solver_tol)
        assert row["u_h1_sq"] == field.vh_norm() ** 2
        assert row["energy_residual"] == energy_balance(field, rhs, ctx)[0]
        assert row["iterations"] == info.iterations
    assert len(calls) == 4


def test_monte_carlo_records_a_singular_pivot_as_a_failed_sample(monkeypatch):
    """A sample whose block-LU meets a singular pivot is recorded as failed;
    the ensemble goes on."""
    real = harness.solve_surface
    calls = []

    def singular_second(ctx, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            block_lu_solver(np.zeros_like(ctx.bands))
        return real(ctx, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_surface", singular_second)
    rep = monte_carlo(cfg_with(surface={"law_bands": [[1, 0, 0.05]], "M0": 0.3}), n=3, seed=2)
    assert rep.n_completed == 2
    assert [r["sample_id"] for r in rep.sample_rows] == [0, 2]
    (failure,) = rep.failures
    assert failure["sample_id"] == 1
    assert failure["error"].startswith("NonConvergenceError: block-LU: singular pivot")


def test_a_failed_sample_leaves_nothing_in_the_shared_workspace(monkeypatch):
    """A sample that fails after three matvecs on scaled vectors in each
    precision leaves the ensemble's workspace dirty, its field buffers last
    written as complex64 and as complex128 views and its transform planes
    as float32 and float64 ones; the next sample's row keeps the bits of a
    clean run, so no stage reads a workspace buffer before writing it.  The
    elements are split into uneven blocks, as on large meshes."""
    cfg = cfg_with(surface={"law_bands": [[1, 0, 0.05], [0, 1, 0.04]], "M0": 0.3})
    mesh = build_setup(cfg)[3]
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 3 * 4 * mesh.P1 * mesh.P2 * 2 * 16 * 3 + 1)
    assert [b.stop - b.start for b in solver.element_blocks(mesh)] == [3, 3, 3, 3, 2, 2]
    clean = monte_carlo(cfg, n=3, seed=4)
    real = solver.gmres
    calls, dtypes = [], []
    take = Workspace.take

    def spied_take(self, name, shape, dtype=complex):
        dtypes.append(np.dtype(dtype))
        return take(self, name, shape, dtype)

    def fails_second(matvec, b, precond, tol, residual):
        calls.append(1)
        if len(calls) == 2:
            for operator, dtype in ((residual, np.complex128), (matvec, np.complex64)):
                dtypes.clear()
                for scale in (1e6, -3.0, 1e-6j):
                    operator(scale * b)
                # the fields at the operator's precision, its planes at the
                # real one, cast from float64 products
                assert set(dtypes) == {np.dtype(dtype), np.finfo(dtype).dtype,
                                       np.dtype(np.float64)}
            raise NonConvergenceError("failed after 3 matvecs in each precision")
        return real(matvec, b, precond, tol, residual=residual)

    monkeypatch.setattr(solver, "gmres", fails_second)
    monkeypatch.setattr(Workspace, "take", spied_take)
    rep = monte_carlo(cfg, n=3, seed=4)
    assert [f["sample_id"] for f in rep.failures] == [1] and len(calls) == 3
    assert clean.n_completed == 3
    assert rep.sample_rows == [clean.sample_rows[0], clean.sample_rows[2]]


# -- pushforward -------------------------------------------------------------

def test_pushforward_flat_surface_trivial():
    out = pushforward_check(cfg_with(), n_z=16)
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

