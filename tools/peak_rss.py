"""Peak memory of one rough solve or one Monte Carlo run, in this fresh process.

    python tools/peak_rss.py N n_z
    python tools/peak_rss.py mc

The first form solves the benchmark's seed-0 rough surface (workload
``rough_solve`` of ``bench/workloads.py``) at N1 = N2 = N and n_z vertical
elements, one ``harness.deterministic_run``, and prints u_vh as a float hex
string.  ``mc`` runs the benchmark's seed-0 Monte Carlo config (workload
``mc_ensemble`` at its benchmark size: 8 samples, N = 6, n_z = 32), one
``harness.monte_carlo``, and prints its ratio as a float hex string.  Both
run the elastrip sources of this checkout and print the process's peak
resident set (``ru_maxrss``) in MiB and the run's seconds.  Nothing they
run imports scipy, and the script exits 1 if anything did, so the peak is
that of a run on the runtime dependencies alone.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if argv != ["mc"] and len(argv) != 2:
        print("usage: python tools/peak_rss.py N n_z | mc", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from elastrip import harness

    t0 = time.perf_counter()
    if argv == ["mc"]:
        size = workloads.WORKLOADS["mc_ensemble"].size
        ratio = harness.monte_carlo(workloads.make_config("mc_ensemble", 0)).ratio
        run = f"mc n_samples={size.n_samples} N={size.N} n_z={size.n_z}"
        value = f"ratio={ratio.hex()}"
    else:
        N, n_z = map(int, argv)
        cfg = workloads.make_config("rough_solve", 0, workloads.Size(N=N, n_z=n_z))
        report, _ = harness.deterministic_run(cfg)
        run, value = f"N={N} n_z={n_z}", f"u_vh={report.u_vh.hex()}"
    seconds = time.perf_counter() - t0
    if "scipy" in sys.modules:
        print("peak_rss: the run imported scipy", file=sys.stderr)
        return 1
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{run} peak_rss_mib={peak_mib:.1f} seconds={seconds:.2f} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
