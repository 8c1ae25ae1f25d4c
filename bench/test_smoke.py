"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checkout  # noqa: E402

checkout.use_checkout_sources()
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from elastrip.config import GeometryConfig  # noqa: E402

TINY = workloads.Size(N=1, n_z=8, n_samples=3)
MANIFEST = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in MANIFEST[kind]}


def test_manifest_is_generated_from_the_benchmark():
    assert MANIFEST == run.manifest()


def test_named_metrics_are_all_declared():
    assert set(_units("end_to_end")) == {"setup_s", "run_s", "solves_per_s", "peak_rss_mb"}
    assert {n for n, _, _ in tracing.LAYER_METRICS} <= set(_units("per_layer"))
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)


def test_rough_draws_are_admissible_for_every_phase():
    geom = GeometryConfig()
    worst = sum(a for _, _, a in workloads.ROUGH_TERMS)
    assert geom.m < -worst and worst < geom.M_sup
    # |J3| = |alpha'| |f - f0| with |alpha'| = 1 / (h - f0 - delta)
    assert worst / (geom.h - workloads.DELTA) < 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics_and_installs_no_wrappers(name, monkeypatch):
    seen = []
    real_call = workloads.call

    def call(*args, **kwargs):
        seen.append(tracing.installed_wrappers())
        return real_call(*args, **kwargs)

    monkeypatch.setattr(workloads, "call", call)
    result = run.measure(name, workloads.DEFAULT_SEED, 0.0, trace=False, size=TINY)
    assert seen and all(w == [] for w in seen)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("end_to_end")
    assert set(result["metrics"]) == set(units)
    for metric, m in result["metrics"].items():
        assert m["unit"] == units[metric]
        assert m["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_per_layer_metrics_and_unwraps(name):
    result = run.measure(name, 1, 0.0, trace=True, size=TINY)
    assert tracing.installed_wrappers() == []
    assert result["correct"] and result["failed"] == 0
    units = _units("per_layer")
    assert set(result["metrics"]) == set(units)
    for metric, m in result["metrics"].items():
        assert m["unit"] == units[metric]
    assert result["metrics"]["trace.span_coverage"]["value"] > 0.9
    assert result["metrics"]["solver.assemble_flat_blocks_calls"]["value"] >= 1


def test_tracer_wraps_call_sites_and_restores_originals():
    from elastrip import harness, solver

    original = solver.solve_field
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.solve_field is solver.solve_field is not original
        assert "elastrip.harness.solve_field" in tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert harness.solve_field is solver.solve_field is original
    assert tracing.installed_wrappers() == []


def test_self_time_subtracts_children():
    spans = [tracing.Span("a", 0.0, 10.0), tracing.Span("b", 1.0, 4.0, parent=0),
             tracing.Span("c", 2.0, 3.0, parent=1), tracing.Span("b", 5.0, 6.0, parent=0)]
    t = tracing.totals(spans, range(len(spans)))
    assert t["a"].self_s == pytest.approx(6.0)
    assert t["b"].calls == 2 and t["b"].total_s == pytest.approx(4.0)
    assert t["b"].self_s == pytest.approx(3.0)
    assert tracing.call_trees(spans + [tracing.Span("a", 11.0, 12.0)]) == [[0, 1, 2, 3], [4]]


def test_gate_counts_a_wrong_output_as_failed():
    cfg = workloads.make_config("flat_solve", 5)
    report = workloads.call("flat_solve", workloads.make_config("flat_solve", 5, TINY))
    completed, failed, errors = workloads.check("flat_solve", cfg, 5, report)
    assert failed == 1 and any("reference" in e for e in errors)
