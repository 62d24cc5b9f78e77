"""Measurements the benchmark makes in fresh child processes.

    python3 bench/probe.py setup <workload> <seed>
        Seconds to import rrcusum and build the workload's models, hypotheses
        and operations, on one line.
    python3 bench/probe.py pool <seed> <replications>
        The ARL operation at threads=1 and then threads=2, one JSON line each:
        {"serial_s": ...} and {"pool_s": ..., "pool_cpu_s": ...}.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    print(time.perf_counter() - t0)


def pool(seed: int, replications: int) -> None:
    import workloads
    from rrcusum.montecarlo import estimate_arl

    model, config, cap = workloads.arl_scenario(seed, replications)
    t0 = time.perf_counter()
    serial = estimate_arl(model, config, cap=cap, threads=1)
    print(json.dumps({"serial_s": time.perf_counter() - t0}), flush=True)
    cpu0, t0 = cpu_s(), time.perf_counter()
    pooled = estimate_arl(model, config, cap=cap, threads=2)
    wall = time.perf_counter() - t0
    if pooled != serial:
        raise SystemExit("threads=2 gave a different estimate than threads=1")
    print(json.dumps({"pool_s": wall, "pool_cpu_s": cpu_s() - cpu0}), flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 4:
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1:2] == ["pool"] and len(sys.argv) == 4:
        pool(int(sys.argv[2]), int(sys.argv[3]))
    else:
        raise SystemExit(__doc__)
