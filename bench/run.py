"""elastrip benchmark: time the harness on named workloads and check every output.

    python3 bench/run.py --workload rough_solve --seed 0 --seconds 10 --trace 0
    python3 bench/run.py                     # every workload, one process each
    python3 bench/run.py --write-manifest    # regenerate BENCHMARK.json

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from spans recorded around elastrip's
functions, and writes the spans to ``bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checkout
import envinfo

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  On a
# shared 2-core VM the speed of identical calls drifts by 10-30 % over
# minutes, so medians of separate runs spread by 5-25 % and the time bounds
# sit at the 0.25 maximum; peak RSS repeats to 0.2 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("solves_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
# traced-run facts reported next to the layer metrics of tracing.LAYER_METRICS
TRACE_METRICS = (
    ("trace.run_s", "s"),            # median traced call
    ("trace.overhead_s", "s"),       # trace.run_s minus the median untraced call
    ("trace.span_coverage", "ratio"),
)
RUN_SECONDS = 10        # short: the machine's speed drifts over minutes
SETUP_PROBES = 5        # fresh processes timed per run, after one untimed one
MIN_CALLS = 3           # timed calls per run, however long they take
OUT_DIR = checkout.ROOT / "bench_out"


@dataclass
class Call:
    seconds: float
    completed: int
    failed: int
    errors: list[str]
    value: float | None = None       # output compared across calls
    traced: bool = False


def timed_call(name: str, cfg, seed: int, traced: bool, first: Call | None) -> Call:
    """Time one harness call and gate its output; a failing call is kept."""
    import workloads

    t0 = time.perf_counter()
    try:
        result = workloads.call(name, cfg)
    except Exception as exc:  # counted as failed solves, never dropped
        return Call(time.perf_counter() - t0, 0, workloads.solves(name, cfg),
                    [f"{type(exc).__name__}: {exc}"], traced=traced)
    seconds = time.perf_counter() - t0
    completed, failed, errors = workloads.check(name, cfg, seed, result)
    value = workloads.output_value(name, result)
    if first is not None and first.value is not None and value != first.value:
        errors.append(f"output {value!r} differs from the first call's {first.value!r}")
        failed = workloads.solves(name, cfg)
    return Call(seconds, completed, failed, errors, value, traced)


def setup_times(name: str, seed: int, size) -> list[float]:
    """Set-up seconds from fresh processes; the first, untimed, warms the caches."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             name, str(seed), str(size.N), str(size.n_z), str(size.n_samples)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def measure(name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run one workload and return the result object the last line prints."""
    import tracing
    import workloads

    w = workloads.WORKLOADS[name]
    size = size or w.size
    setup = [] if trace else setup_times(name, seed, size)
    cfg = workloads.make_config(name, seed, size)
    try:
        workloads.call(name, cfg, warmup=True)
    except Exception as exc:  # the timed calls count the failure
        print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    calls: list[Call] = []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
        traced = trace and len(calls) % 2 == 1   # a traced run alternates
        try:
            if traced:
                tracer.install()
            call = timed_call(name, cfg, seed, traced, calls[0] if calls else None)
        finally:
            tracer.uninstall()
        calls.append(call)
        for err in call.errors:
            print(f"{name} seed {seed}: {err}", file=sys.stderr)

    plain = [c for c in calls if not c.traced]
    attempted = workloads.solves(name, cfg) * len(calls)
    failed = sum(c.failed for c in calls)
    run_s = statistics.median(c.seconds for c in plain)
    print(f"{name} seed={seed} N={size.N} n_z={size.n_z} samples={size.n_samples}: "
          f"{len(calls)} calls, seconds {[round(c.seconds, 4) for c in calls]}, "
          f"failed_frac {failed / attempted:.4g} ({failed}/{attempted} solves)")
    if trace:
        metrics = traced_metrics(name, seed, calls, tracer, run_s)
    else:
        completed = statistics.median(c.completed for c in plain)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "solves_per_s": {"value": completed / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
        }
        print(f"setup_s over {len(setup)} fresh processes: {[round(t, 4) for t in setup]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_metrics(name: str, seed: int, calls: list[Call], tracer, run_s: float) -> dict:
    """Per-layer medians over the traced calls; spans go to bench_out/."""
    import tracing

    trees = tracing.call_trees(tracer.spans)
    per_call = [tracing.layer_metrics(tracer.spans, t) for t in trees]
    units = {n: u for n, u, _ in tracing.LAYER_METRICS} | dict(TRACE_METRICS)
    traced_s = statistics.median(c.seconds for c in calls if c.traced)
    values = {n: statistics.median(m[n] for m in per_call) for n in per_call[0]}
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - run_s
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    rows = tracing.totals(tracer.spans, range(len(tracer.spans)))
    print(f"per traced call ({len(trees)}), by self time:")
    print(f"  {'span':<44} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for span, t in sorted(rows.items(), key=lambda kv: -kv[1].self_s):
        print(f"  {span:<44} {t.calls / len(trees):>8.1f} "
              f"{t.total_s / len(trees):>10.4f} {t.self_s / len(trees):>10.4f}")
    print(f"tracing overhead: traced {traced_s:.4f} s - untraced {run_s:.4f} s "
          f"= {traced_s - run_s:+.4f} s")

    OUT_DIR.mkdir(exist_ok=True)
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "environment": envinfo.environment(),
        "metrics": metrics,
        "spans": [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                   "parent": s.parent, **s.attrs} for s in tracer.spans],
    }))
    print(f"spans written to {path.relative_to(checkout.ROOT)}")
    return metrics


def run_all(args) -> int:
    """Each workload in its own process (peak RSS never goes down), one table."""
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{name}: exit code {out.returncode}")
            status = 1
            continue
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
        status |= not results[name]["correct"]
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} "
              f"failed_frac={res['failed'] / res['attempted']:.4g} (ratio)")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def manifest() -> dict:
    import tracing
    import workloads

    per_layer = [(n, u) for n, u, _ in tracing.LAYER_METRICS] + list(TRACE_METRICS)
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n == "trace.span_coverage" else "lower"}
                      for n, u in per_layer],
    }


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=nonnegative, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)

    envinfo.cap_blas_threads()
    checkout.use_checkout_sources()
    import workloads

    if args.write_manifest:
        text = json.dumps(manifest(), indent=2) + "\n"
        (checkout.ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(workloads.WORKLOADS)}")
    print("environment " + json.dumps(envinfo.environment()))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
