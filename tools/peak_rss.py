"""Peak memory of one rough solve at a given size, in this fresh process.

    python tools/peak_rss.py N n_z

solves the benchmark's seed-0 rough surface (workload ``rough_solve`` of
``bench/workloads.py``) at N1 = N2 = N and n_z vertical elements, one
``harness.deterministic_run`` with the elastrip sources of this checkout,
and prints the process's peak resident set (``ru_maxrss``) in MiB, the
run's seconds and u_vh as a float hex string.  Nothing it runs imports
scipy, and it exits 1 if anything did, so the peak is that of a run on
the runtime dependencies alone.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/peak_rss.py N n_z", file=sys.stderr)
        return 1
    N, n_z = map(int, argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from elastrip import harness

    cfg = workloads.make_config("rough_solve", 0, workloads.Size(N=N, n_z=n_z))
    t0 = time.perf_counter()
    report, _ = harness.deterministic_run(cfg)
    seconds = time.perf_counter() - t0
    if "scipy" in sys.modules:
        print("peak_rss: the run imported scipy", file=sys.stderr)
        return 1
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"N={N} n_z={n_z} peak_rss_mib={peak_mib:.1f} seconds={seconds:.2f} "
          f"u_vh={report.u_vh.hex()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
