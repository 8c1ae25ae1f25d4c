"""Print the set-up time of one workload, measured in this fresh process.

    python3 bench/setup_probe.py <workload> <seed> <N> <n_z> <n_samples>

Set-up is importing elastrip, building the workload's RunConfig and calling
``harness.build_setup``.  Interpreter start-up is not included.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import checkout
    checkout.use_checkout_sources()
    from elastrip import harness
    import workloads

    name, seed, N, n_z, n_samples = sys.argv[1], *map(int, sys.argv[2:6])
    cfg = workloads.make_config(name, seed, workloads.Size(N, n_z, n_samples))
    harness.build_setup(cfg)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
