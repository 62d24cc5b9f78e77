"""Run one workload of the rrcusum benchmark and print its metrics.

    python3 bench/run.py --workload delay --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py. The metric names and units are those of
BENCHMARK.json at the root of the repository.

--trace 0 first times SETUP_SAMPLES fresh processes that import rrcusum and
build the workload (setup_s is their median). It then runs the workload's
operations in passes, in one process at threads=1, for about --seconds seconds
and at least one pass. Every operation of every pass is checked, and each
pass must reproduce the first bit for bit. wall_s and cpu_s are the sums over
operations of each operation's median over passes, so a burst of load from
outside slows one pass and not the result.

--trace 1 makes one untraced and one traced pass, then the process-pool probe,
and prints the per-layer metrics. tracing.overhead_s is the traced pass's
wall time minus the untraced pass's.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The BLAS library and its thread variables are
recorded on the "environment" line and never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import probe
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


@dataclass
class Measurement:
    walls: dict[str, list[float]] = field(default_factory=dict)
    cpus: dict[str, list[float]] = field(default_factory=dict)
    results: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    passes: int = 0

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def wall_s(self) -> float:
        return sum(statistics.median(v) for v in self.walls.values())

    @property
    def cpu_s(self) -> float:
        return sum(statistics.median(v) for v in self.cpus.values())


def measure(ops: list[workloads.Op], seconds: float, expected: dict | None = None) -> Measurement:
    """Run the operations in passes until the next pass would end after
    ``seconds``; at least one pass. A result that differs from ``expected``
    (default: the first pass) counts as a failure."""
    out = Measurement()
    expected = {} if expected is None else expected
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            cpu0, t0 = probe.cpu_s(), time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            out.walls.setdefault(op.name, []).append(time.perf_counter() - t0)
            out.cpus.setdefault(op.name, []).append(probe.cpu_s() - cpu0)
            out.attempted += 1
            if error is None:
                problems = op.check(result)
                want = expected.setdefault(op.name, result)
                if result != want:
                    problems.append("result differs from the first run of the same inputs")
                out.results.setdefault(op.name, result)
                error = "; ".join(problems) or None
            if error is not None:
                out.problems.append(f"{op.name}: {error}")
        out.passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return out


def setup_time(workload: str, seed: int) -> float:
    """Median over SETUP_SAMPLES fresh processes of the time to import
    rrcusum and build the workload."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "setup", workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> dict:
        info = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    sha = None
    if (workloads.ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
    }


def untraced(workload: str, seed: int, seconds: float):
    setup_s = setup_time(workload, seed)
    ops = workloads.build(workload, seed)
    m = measure(ops, seconds)
    values = {"wall_s": m.wall_s, "setup_s": setup_s, "cpu_s": m.cpu_s, "peak_rss_mb": peak_rss_mb()}
    obs = [workloads.observations(r) for r in m.results.values()]
    extra = {"fail_ratio": (m.failed / m.attempted, "")}
    if obs and None not in obs:
        extra["obs_per_s"] = (sum(obs) / m.wall_s, "1/s")
    notes = [f"{len(ops)} operations x {m.passes} passes"]
    return m, values, extra, notes


def traced(workload: str, seed: int):
    import tracing

    t0 = time.perf_counter()
    ops = workloads.build(workload, seed)
    build_s = time.perf_counter() - t0
    expected: dict = {}
    plain = measure(ops, 0, expected)
    tracer = tracing.Tracer()
    with tracer.installed():
        spans = measure(ops, 0, expected)
    m = Measurement(
        attempted=plain.attempted + spans.attempted + 1,
        problems=plain.problems + spans.problems,
        passes=plain.passes + spans.passes,
    )
    notes = [f"untraced wall_s {plain.wall_s:.4f} s, traced wall_s {spans.wall_s:.4f} s"]
    values = tracer.metrics()
    try:
        pool, note = tracing.pool_probe(seed)
    except RuntimeError as exc:
        pool, note = {"montecarlo.pool.speedup": 0.0, "montecarlo.pool.cpu_per_wall": 0.0}, None
        m.problems.append(f"pool probe: {exc}")
    values.update(pool)
    values["scenarios.build_s"] = build_s
    values["tracing.overhead_s"] = spans.wall_s - plain.wall_s
    if note:
        notes.append(note)
    return m, values, {}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("environment " + json.dumps(environment(args.seed)), flush=True)
    if args.trace:
        m, values, extra, notes = traced(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        m, values, extra, notes = untraced(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}

    print(f"workload {args.workload}, seed {args.seed}: " + "; ".join(notes))
    for problem in m.problems:
        print(f"failed {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}".rstrip())
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
