"""End-to-end acceptance suite.

Each test covers one verification target and prints a single PASS line with
the measured quantity; pinned values are regression references from the
first verified run of this code.
"""

import numpy as np
import pytest

from elastrip import harness
from elastrip.config import from_dict
from elastrip.dtn import (
    SpectralGrid,
    decomposition_matrices,
    dtn_symbol_grid,
    verify_symbol_suite,
)
from elastrip.mesh import StripMesh
from elastrip.params import ElasticParams
from elastrip.solver import SolverContext, assemble_rhs, solve_field
from elastrip.sources import BumpSource, HarmonicFactor
from flat_oracles import coercivity_probe, flat_mode_oracle
from mode_oracles import mode_traction

CELL = (2 * np.pi, 2 * np.pi)
# np.trapezoid is numpy >= 2.0; on the numpy 1.24 that pyproject allows it is np.trapz
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# nine deterministic configurations: flat reference plus eight perturbations
PERTURBATIONS = [
    [],
    [[1, 0, 0.10, 0.0]],
    [[0, 1, 0.0, 0.10]],
    [[1, 1, 0.07, 0.0]],
    [[2, 0, 0.05, 0.03]],
    [[1, 0, 0.08, 0.08]],
    [[1, 0, 0.06, 0.0], [0, 1, 0.0, 0.06]],
    [[2, 1, 0.04, 0.02]],
    [[1, 0, 0.12, 0.0], [2, 2, 0.02, 0.02]],
]

PINNED_RATIOS = [
    1.164802629052e-05,
    1.158521118881e-05,
    1.162879584740e-05,
    1.163771528355e-05,
    1.151714876757e-05,
    1.162876057224e-05,
    1.161705553300e-05,
    1.158264397031e-05,
    1.153913581817e-05,
]

MC_CFG = {
    "surface": {"law_bands": [[1, 0, 0.05], [0, 1, 0.05], [1, 1, 0.03]],
                "M0": 0.3, "delta": 0.25},
    "discretization": {"N1": 2, "N2": 2, "n_z": 16},
}
MC_SEED = 20260826
PINNED_MC_RATIO = 1.417020946873e-08


def _pass(msg: str) -> None:
    print(f"PASS  {msg}")


@pytest.fixture(scope="module")
def nine_reports():
    reports = []
    for terms in PERTURBATIONS:
        cfg = from_dict({
            "surface": {"terms": terms, "delta": 0.25},
            "discretization": {"N1": 2, "N2": 2, "n_z": 24},
        })
        rep, _ = harness.deterministic_run(cfg)
        reports.append(rep)
    return reports


@pytest.fixture(scope="module")
def mc_report():
    return harness.monte_carlo(from_dict(MC_CFG), n=64, seed=MC_SEED)


def test_01_symbol_property_suite():
    """Boundary-symbol sign and bound properties over random materials."""
    report = verify_symbol_suite(seed=0, n_materials=10, n_xi=10000)
    assert report["n_violations"] == 0
    _pass(f"symbol properties: 0 violations in {report['n_checks']} checks "
          f"(10 materials x 10^4 frequencies)")


def test_02_traction_oracle_equivalence():
    """mode_traction vs the symbol route for 100 random triples, <= 1e-10."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(0.2, 3.0)
        lam = rng.uniform(-0.5 * mu, 4.0)
        w = rng.uniform(0.2, 5.0)
        p = ElasticParams(lam=lam, mu=mu, omega=w)
        xi = rng.normal(size=2) * w
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        t_sym = 1j * dtn_symbol_grid(xi[0], xi[1], p) @ u
        _, D = decomposition_matrices(xi, p)
        amps = D @ u
        t_dir = mode_traction(xi, amps[0], amps[1:], p)
        worst = max(worst, np.linalg.norm(t_dir - t_sym) / np.linalg.norm(t_sym))
    assert worst <= 1e-10
    _pass(f"traction oracle: worst relative error {worst:.3e} <= 1e-10")


def test_03_flat_solver_vs_brute_force_oracle():
    """Second-order convergence of the Galerkin solve to the FD oracle."""
    p = ElasticParams(lam=1.0, mu=1.0, omega=2.0)
    grid = SpectralGrid(N1=2, N2=2, cell=CELL)
    src = BumpSource(factors=(
        HarmonicFactor(2, 1, 0, 1.0, 0.3),
        HarmonicFactor(0, 1, 1, 0.7, 0.0),
        HarmonicFactor(1, 0, 1, 0.5, 1.1),
    ), z0=0.55, sigma=0.3, cell=CELL)
    excited = {(1, 0), (-1, 0), (1, 1), (-1, -1), (0, 1), (0, -1)}
    j1 = list(grid.mode_indices()[0])
    j2 = list(grid.mode_indices()[1])

    def gmode(jj, z):
        out = np.zeros((3,) + np.shape(z), complex)
        for t in src.factors:
            for sgn in (1, -1):
                if (sgn * t.j1, sgn * t.j2) == jj:
                    out[t.component] += (0.5 * t.amplitude
                                         * np.exp(1j * sgn * t.phase)
                                         * src.vertical(z))
        return out

    oracles = {}
    for jj in excited:
        xi = np.array([2 * np.pi * jj[0] / CELL[0], 2 * np.pi * jj[1] / CELL[1]])
        oracles[jj] = flat_mode_oracle(xi, p, lambda z, jj=jj: gmode(jj, z),
                                       1.0, 0.0, n_fine=2048)

    errs = []
    for nz in (32, 64, 128):
        mesh = StripMesh(grid=grid, bottom=0.0, top=1.0, n_elements=nz)
        field, _ = solve_field(SolverContext(mesh, p), assemble_rhs(mesh, src))
        num = den = 0.0
        for jj, (zf, U) in oracles.items():
            i1, i2 = j1.index(jj[0]), j2.index(jj[1])
            prof = field.modes_at_z(zf)[:, i1, i2, :]
            num += _trapezoid(np.sum(np.abs(prof - U) ** 2, 0), zf)
            den += _trapezoid(np.sum(np.abs(U) ** 2, 0), zf)
        errs.append(float(np.sqrt(num / den)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9
    assert errs[-1] <= 1e-3
    _pass(f"flat solver vs oracle: errors {errs[0]:.2e} -> {errs[-1]:.2e}, "
          f"orders {orders[0]:.2f}/{orders[1]:.2f} >= 1.9")


def test_04_energy_balance_every_solve(nine_reports, mc_report):
    """Flux identity holds for every converged deterministic and MC solve."""
    worst = max(r.diagnostics["energy_residual"] for r in nine_reports)
    min_power = min(r.diagnostics["radiated_power"] for r in nine_reports)
    worst = max(worst, max(r["energy_residual"] for r in mc_report.sample_rows))
    min_power = min(min_power, min(r["radiated_power"] for r in mc_report.sample_rows))
    assert worst <= 1e-8
    assert min_power >= -1e-12
    _pass(f"energy balance: worst residual {worst:.2e} <= 1e-8, "
          f"min radiated power {min_power:.2e} >= -1e-12 over "
          f"{len(nine_reports) + len(mc_report.sample_rows)} solves")


def test_05_poincare_inequality_every_solve(nine_reports):
    """(h - m_ref)^2 / 2 ||d3 u||^2 - ||u||^2 >= 0 for every solver output."""
    slacks = [r.diagnostics["poincare_slack"] for r in nine_reports]
    assert min(slacks) >= -1e-12
    _pass(f"Poincare inequality: min slack {min(slacks):.3e} >= -1e-12 "
          f"over {len(slacks)} solves")


def test_06_small_frequency_coercivity():
    """Form is coercive at omega = 1e-3, lam = mu = 1, unit strip."""
    p = ElasticParams(lam=1.0, mu=1.0, omega=1e-3)
    grid = SpectralGrid(N1=2, N2=2, cell=CELL)
    mesh = StripMesh(grid=grid, bottom=0.0, top=1.0, n_elements=16)
    rep = coercivity_probe(mesh, p, n_probes=200, seed=5)
    assert rep["rayleigh_min"] > 0.0
    assert rep["probe_min"] > 0.0
    assert rep["probe_min"] >= rep["rayleigh_min"] - 1e-12
    assert rep["probe_min"] == pytest.approx(1.5766, rel=1e-3)
    assert rep["rayleigh_min"] == pytest.approx(0.7118, rel=1e-3)
    _pass(f"coercivity: probe min {rep['probe_min']:.4f} > 0, "
          f"exact Rayleigh min {rep['rayleigh_min']:.4f} > 0")


def test_07_a_priori_bound_ratio(nine_reports):
    """Measured |u| / (bound * |g|) <= 1 on nine configurations; ratios pinned."""
    ratios = [r.bound["measured_ratio"] for r in nine_reports]
    for got, pin in zip(ratios, PINNED_RATIOS):
        assert got <= 1.0
        assert got == pytest.approx(pin, rel=1e-6)
    _pass(f"a priori bound: ratios in [{min(ratios):.3e}, {max(ratios):.3e}] "
          f"<= 1 on 9 configurations, pins matched at rel 1e-6")


def test_08_pushforward_refinement():
    """Two flattening routes agree under refinement at order >= 1.5."""
    base = {"surface": {"terms": [[1, 0, 0.08, 0.0], [0, 1, 0.0, 0.05]],
                        "M0": 0.25, "delta": 0.25}}
    errs = []
    for nz in (16, 32, 64):
        cfg = from_dict({**base, "discretization": {"N1": 4, "N2": 4, "n_z": nz}})
        errs.append(harness.pushforward_check(cfg)["rel_l2"])
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5
    assert errs[-1] <= 0.05
    assert errs[-1] == pytest.approx(4.2447e-5, rel=1e-3)
    _pass(f"pushforward: rel L2 {errs[0]:.3e} -> {errs[-1]:.3e}, "
          f"orders {orders[0]:.2f}/{orders[1]:.2f} >= 1.5, final <= 5%")


def test_09_stochastic_bound(mc_report):
    """64-sample ensemble satisfies the squared stochastic bound; ratio pinned."""
    mc = mc_report
    assert mc.n_completed == 64
    assert mc.completeness == 1.0
    assert mc.mean_u_sq <= mc.stochastic_bound * mc.mean_g_sq
    assert mc.ratio <= 1.0
    assert mc.ratio == pytest.approx(PINNED_MC_RATIO, rel=1e-6)
    _pass(f"stochastic bound: 64/64 samples, ratio {mc.ratio:.6e} <= 1, "
          f"pin matched at rel 1e-6")


def test_10_byte_identical_outputs(tmp_path):
    """Same config and seed give byte-identical CSVs, also across threads."""
    det_cfg = from_dict({
        "surface": {"terms": [[1, 0, 0.05, 0.0]], "delta": 0.25},
        "discretization": {"N1": 1, "N2": 1, "n_z": 16},
    })
    det_bytes = []
    for tag in ("a", "b"):
        rep, _ = harness.deterministic_run(det_cfg)
        path = tmp_path / f"runs_{tag}.csv"
        harness.write_run_csv(path, [rep])
        det_bytes.append(path.read_bytes())
    assert det_bytes[0] == det_bytes[1]

    mc_bytes = []
    for tag, threads in (("t1", 1), ("t4", 4)):
        import dataclasses
        cfg = from_dict({**MC_CFG})
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run,
                                                               threads=threads))
        mc = harness.monte_carlo(cfg, n=4, seed=11)
        path = tmp_path / f"mc_{tag}.csv"
        harness.write_mc_csv(path, mc)
        mc_bytes.append(path.read_bytes())
    assert mc_bytes[0] == mc_bytes[1]
    _pass("determinism: deterministic and Monte Carlo CSVs byte-identical "
          "across repeat runs and thread counts")
