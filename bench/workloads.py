"""Benchmark workloads: inputs drawn from a seed, the harness call each one
times, and the correctness gate every timed call must pass.

Import after :func:`checkout.use_checkout_sources`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from elastrip import harness
from elastrip.config import RunConfig, from_dict

DEFAULT_SEED = 0
# Relative tolerance of the reference comparison; the same 1e-6 the
# acceptance pins use, loose enough for solver changes that reorder
# floating-point work and tight against a changed discretization.
REFERENCE_RTOL = 1e-6

DELTA = 0.25  # cutoff plateau; a vertical node for every n_z that is a multiple of 4
# rough_solve: (j1, j2, amplitude); the seed draws each term's phase.  With
# sum(amplitude) = 0.14 every draw stays inside the slab (-0.2, 0.25) and has
# |J3| <= 0.14 / (h - delta) < 0.19, so no draw is rejected.
ROUGH_TERMS = ((1, 0, 0.06), (0, 1, 0.05), (1, 1, 0.03))
# mc_ensemble: the ensemble law of the acceptance tests' Monte Carlo case.
MC_SURFACE = {"law_bands": [[1, 0, 0.05], [0, 1, 0.05], [1, 1, 0.03]],
              "M0": 0.3, "delta": DELTA}


@dataclass(frozen=True)
class Size:
    N: int                # N1 = N2
    n_z: int
    n_samples: int = 1    # Monte Carlo samples per call


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: Size
    monte_carlo: bool
    # u_vh (deterministic) or ratio (Monte Carlo) at DEFAULT_SEED and ``size``,
    # recorded at the commit that introduced the benchmark
    reference: float


WORKLOADS = {w.name: w for w in (
    Workload("rough_solve",
             "3-term rough surface: transform, GMRES with flat-block preconditioner, diagnostics",
             Size(N=8, n_z=64), monte_carlo=False, reference=0.6331437051043965),
    Workload("flat_solve",
             "flat surface: direct per-mode solves on blocks larger than L3, no GMRES or transform",
             Size(N=8, n_z=96), monte_carlo=False, reference=0.6326286152047803),
    Workload("mc_ensemble",
             "8-sample Monte Carlo: repeats surface-independent work that a reuse can save",
             Size(N=6, n_z=32, n_samples=8), monte_carlo=True,
             reference=1.4332247862202371e-08),
)}


def make_config(name: str, seed: int, size: Size | None = None) -> RunConfig:
    """The workload's RunConfig; the seed is the only source of variation."""
    w = WORKLOADS[name]
    size = size or w.size
    disc = {"N1": size.N, "N2": size.N, "n_z": size.n_z}
    rng = np.random.default_rng(seed)
    if name == "rough_solve":
        phases = rng.uniform(0.0, 2 * math.pi, len(ROUGH_TERMS))
        terms = [[j1, j2, a * math.cos(p), a * math.sin(p)]
                 for (j1, j2, a), p in zip(ROUGH_TERMS, phases)]
        return from_dict({"surface": {"terms": terms, "delta": DELTA},
                          "discretization": disc})
    if name == "flat_solve":
        phase = float(rng.uniform(0.0, 2 * math.pi))
        return from_dict({"surface": {"delta": DELTA}, "discretization": disc,
                          "source": {"phase": phase}})
    return from_dict({"surface": MC_SURFACE, "discretization": disc,
                      "run": {"seed": seed, "n_samples": size.n_samples}})


def call(name: str, cfg: RunConfig, warmup: bool = False):
    """One harness call of the workload.

    A Monte Carlo warm-up runs two samples: the same array shapes as the
    timed call at a quarter of its cost.
    """
    if WORKLOADS[name].monte_carlo:
        return harness.monte_carlo(cfg, n=2 if warmup else None)
    report, _field = harness.deterministic_run(cfg)
    return report


def solves(name: str, cfg: RunConfig) -> int:
    """Field solves one call attempts."""
    return cfg.run.n_samples if WORKLOADS[name].monte_carlo else 1


def output_value(name: str, result) -> float:
    """The scalar output compared with the reference: u_vh or the MC ratio."""
    return result.ratio if WORKLOADS[name].monte_carlo else result.u_vh


def check(name: str, cfg: RunConfig, seed: int, result) -> tuple[int, int, list[str]]:
    """Correctness gate of one call: (completed solves, failed solves, errors).

    Deterministic: energy balance, Poincare slack and solver residual within
    tolerance.  Monte Carlo: completeness 1 and every sample passes the
    energy check.  At the default seed and size the output must also match
    the reference, which for Monte Carlo condemns every sample of the call;
    flat_solve is checked against it at every seed, because the seed only
    shifts the source horizontally, which leaves u_vh unchanged.
    """
    w = WORKLOADS[name]
    errors = []
    canonical = (cfg.discretization.N1 == w.size.N and cfg.discretization.n_z == w.size.n_z
                 and solves(name, cfg) == w.size.n_samples)
    off_reference = False
    if canonical and (seed == DEFAULT_SEED or name == "flat_solve"):
        value = output_value(name, result)
        rel = abs(value - w.reference) / abs(w.reference)
        off_reference = not rel <= REFERENCE_RTOL
        if off_reference:
            errors.append(f"output {value!r} differs from reference {w.reference!r} "
                          f"by {rel:.2e} > {REFERENCE_RTOL:g}")
    if w.monte_carlo:
        if result.completeness != 1.0:
            errors.append(f"completeness {result.completeness} != 1")
        errors += [f"sample {f['sample_id']}: {f['error']}" for f in result.failures]
        bad = [r["sample_id"] for r in result.sample_rows
               if not (r["energy_residual"] <= harness.ENERGY_TOL
                       and r["radiated_power"] >= harness.POWER_TOL)]
        errors += [f"sample {i}: energy balance fails" for i in bad]
        failed = result.n_samples if off_reference else len(result.failures) + len(bad)
        return result.n_completed, failed, errors
    d = result.diagnostics
    if not d["energy_ok"]:
        errors.append(f"energy balance fails: residual {d['energy_residual']:.2e}, "
                      f"power {d['radiated_power']:.2e}")
    if not d["poincare_ok"]:
        errors.append(f"Poincare slack {d['poincare_slack']:.2e} < 0")
    if not d["solve_residual"] <= cfg.discretization.solver_tol:
        errors.append(f"solver residual {d['solve_residual']:.2e} > "
                      f"{cfg.discretization.solver_tol:g}")
    return 1, int(bool(errors)), errors
