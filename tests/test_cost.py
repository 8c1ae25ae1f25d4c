"""Cost pins: the work of one benchmark-sized call of each workload.

The configs are those of the benchmark's three workloads at their
benchmark sizes, written out with the numbers of ``bench/workloads.py``;
``mc_ensemble`` runs at ``threads: 1``, since a pool's schedule spreads
its peak by 3 %.  After one warm-up call, one more call is counted:

- the matvecs of the rough operator, per precision;
- the runs of the direct path's cyclic reduction;
- the block-LU factors, each one elimination;
- the block-LU applies, per precision of their input.

A fallback of the direct path to the block-LU would show as one
elimination and one complex128 apply.

The counts are pinned exactly.  Every GMRES round of these calls stops at
least 13 % away from its target (the closest, a ratio of 1.13, is a round
of ``rough_solve`` seed 3), so a BLAS kernel's rounding cannot move them.
The ``tracemalloc`` peak of the counted call is pinned at most 2 % above
its measured value.  The peaks were measured on numpy 2 and are checked
there only.

A pin moves down with the change that earns it.  A pin that moves up is a
bound loosened.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from elastrip import harness, solver
from elastrip.config import from_dict

ROUGH_TERMS = ((1, 0, 0.06), (0, 1, 0.05), (1, 1, 0.03))  # (j1, j2, amplitude)


def rough_solve(seed):
    """The seed draws each term's phase."""
    phases = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, len(ROUGH_TERMS))
    terms = [[j1, j2, a * math.cos(p), a * math.sin(p)]
             for (j1, j2, a), p in zip(ROUGH_TERMS, phases)]
    return from_dict({"surface": {"terms": terms, "delta": 0.25},
                      "discretization": {"N1": 8, "N2": 8, "n_z": 64}})


def flat_solve(seed):
    """The seed draws the source's phase."""
    phase = float(np.random.default_rng(seed).uniform(0.0, 2 * math.pi))
    return from_dict({"surface": {"delta": 0.25}, "source": {"phase": phase},
                      "discretization": {"N1": 8, "N2": 8, "n_z": 96}})


def mc_ensemble(seed):
    return from_dict({"surface": {"law_bands": [[1, 0, 0.05], [0, 1, 0.05], [1, 1, 0.03]],
                                  "M0": 0.3, "delta": 0.25},
                      "discretization": {"N1": 6, "N2": 6, "n_z": 32},
                      "run": {"seed": seed, "n_samples": 8, "threads": 1}})


# (workload, seed): the counts of one call and its traced peak in bytes
PINS = {
    (rough_solve, 0): ({"matvec complex64": 11, "matvec complex128": 2, "eliminate": 1,
                        "apply complex64": 9, "apply complex128": 4}, 13_623_247),
    (rough_solve, 3): ({"matvec complex64": 10, "matvec complex128": 2, "eliminate": 1,
                        "apply complex64": 8, "apply complex128": 4}, 13_622_415),
    (rough_solve, 7): ({"matvec complex64": 11, "matvec complex128": 2, "eliminate": 1,
                        "apply complex64": 9, "apply complex128": 4}, 13_622_015),
    (flat_solve, 0): ({"reduction": 1}, 1_688_525),
    # 8 solves
    (mc_ensemble, 0): ({"matvec complex64": 73, "matvec complex128": 16, "eliminate": 1,
                        "apply complex64": 57, "apply complex128": 32}, 7_240_259),
}
PEAK_SLACK = 0.02


def count_work(monkeypatch) -> Counter:
    counts = Counter()
    matvec, factor, reduction = (solver.StripOperator._matvec, solver.block_lu_solver,
                                 solver._cyclic_reduction)

    def counted_matvec(self, vec):
        counts[f"matvec {self.dtype}"] += 1
        return matvec(self, vec)

    def counted_reduction(*args, **kwargs):
        counts["reduction"] += 1
        return reduction(*args, **kwargs)

    def counted_factor(*args, **kwargs):
        counts["eliminate"] += 1
        solve = factor(*args, **kwargs)

        def counted_solve(v):
            counts[f"apply {np.asarray(v).dtype}"] += 1
            return solve(v)

        return counted_solve

    monkeypatch.setattr(solver.StripOperator, "_matvec", counted_matvec)
    monkeypatch.setattr(solver, "block_lu_solver", counted_factor)
    monkeypatch.setattr(solver, "_cyclic_reduction", counted_reduction)
    return counts


@pytest.mark.parametrize("workload, seed", list(PINS), ids=lambda v: getattr(v, "__name__", v))
def test_a_benchmark_call_does_its_pinned_work(monkeypatch, workload, seed):
    cfg = workload(seed)
    call = harness.monte_carlo if workload is mc_ensemble else harness.deterministic_run
    call(cfg)
    counts = count_work(monkeypatch)
    tracemalloc.start()
    try:
        call(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pinned_counts, pinned_peak = PINS[workload, seed]
    assert dict(counts) == pinned_counts
    if int(np.__version__.split(".")[0]) >= 2:
        assert peak <= pinned_peak * (1 + PEAK_SLACK), (peak, pinned_peak)
