"""Per-layer tracing and the process-pool probe of the rrcusum benchmark.

``Tracer`` wraps rrcusum's functions where they are looked up, so the library
itself stays unchanged: methods on their classes, module functions in the
module whose globals resolve them (``montecarlo._simulate`` finds
``_run_stretch`` there, ``bounds._stabilized_ladder`` finds ``ladder_prob_*``
there, and ``montecarlo`` imports ``compute_unit_statistics`` by name). Each
wrapped call is one span. Per layer the tracer keeps calls, rows, total time
and self time, which is a span's time minus the time of the spans it
encloses. The originals come back when the ``with`` block ends.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from probe import cpu_s
from rrcusum import bounds, gaussian, model, montecarlo

HERE = Path(__file__).resolve().parent
# threads=2 took from 9 s to 87 s on a 2-core machine where threads=1 took
# 3.3 s, so the probe is cut off and reported as a bound.
POOL_PROBE_REPS = 1000
POOL_PROBE_LIMIT_S = 30.0


@dataclass
class _Span:
    calls: int = 0
    rows: int = 0
    total: float = 0.0
    self_time: float = 0.0


def _batch(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


class Tracer:
    """Spans and counts recorded around calls into rrcusum's layers."""

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self.counts: dict[str, int] = defaultdict(int)
        self.ladder_peak_bytes = 0
        self._open: list[list] = []  # [name, time spent in enclosed spans]

    def _wrap(self, name: str, fn, rows=None, rows_also: str | None = None, memory: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = rows(args) if rows is not None else 0
            if memory:
                tracemalloc.start()
            tracer._open.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                enclosed = tracer._open.pop()[1]
                if tracer._open:
                    tracer._open[-1][1] += dt
                if memory:
                    tracer.ladder_peak_bytes = max(tracer.ladder_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                span = tracer.spans[name]
                span.calls += 1
                span.rows += n
                span.total += dt
                span.self_time += dt - enclosed
                if rows_also is not None and any(f[0] == rows_also for f in tracer._open):
                    tracer.spans[rows_also].rows += n

        return wrapper

    def _estimate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            est = fn(*args, **kwargs)
            self.counts["replications"] += est.replications
            self.counts["truncations"] += est.truncations
            return est

        return self._wrap("montecarlo.estimate", wrapper)

    def _run_stretch(self, fn):
        @functools.wraps(fn)
        def wrapper(rng, draw, *rest):
            def counted(rng_, n):
                self.counts["increments_drawn"] += n
                return draw(rng_, n)

            out = fn(rng, counted, *rest)
            self.counts["increments_used"] += out[0]
            return out

        return wrapper

    def _patches(self):
        ladder = dict(memory=True)
        return [
            (gaussian.GaussianLocal, "sample", lambda f: self._wrap("gaussian.sample", f, rows=lambda a: a[2])),
            (gaussian.GaussianLocal, "logpdf", lambda f: self._wrap("gaussian.logpdf", f, rows=lambda a: _batch(a[1]))),
            (
                model.ChangePointModel,
                "mixture_llr",
                lambda f: self._wrap("model.mixture_llr", f, rows=lambda a: _batch(a[2]), rows_also="bounds.ladder"),
            ),
            (montecarlo, "estimate_delay", self._estimate),
            (montecarlo, "estimate_arl", self._estimate),
            (montecarlo, "_run_stretch", self._run_stretch),
            (bounds, "ladder_prob_no_ascend", lambda f: self._wrap("bounds.ladder", f, **ladder)),
            (bounds, "ladder_prob_no_descend", lambda f: self._wrap("bounds.ladder", f, **ladder)),
            (bounds, "drift_pre", lambda f: self._wrap("bounds.drift", f)),
            (bounds, "drift_post", lambda f: self._wrap("bounds.drift", f)),
            (bounds, "llr_second_moment", lambda f: self._wrap("bounds.drift", f)),
            (bounds, "compute_unit_statistics", lambda f: self._wrap("bounds.unit_statistics", f)),
            (montecarlo, "compute_unit_statistics", lambda f: self._wrap("bounds.unit_statistics", f)),
            (workloads, "evaluate_bounds", lambda f: self._wrap("bounds.evaluate", f)),
        ]

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in ("gaussian.sample", "gaussian.logpdf", "model.mixture_llr"):
            span = self.spans[layer]
            out[f"{layer}.calls"] = span.calls
            out[f"{layer}.rows"] = span.rows
            out[f"{layer}.self_s"] = span.self_time
        mix = self.spans["model.mixture_llr"]
        out["model.mixture_llr.rows_per_call"] = mix.rows / mix.calls if mix.calls else 0.0

        est, c = self.spans["montecarlo.estimate"], self.counts
        out["montecarlo.estimate_s"] = est.total
        out["montecarlo.self_s"] = est.self_time
        out["montecarlo.replications"] = c["replications"]
        out["montecarlo.us_per_rep"] = 1e6 * est.total / c["replications"] if c["replications"] else 0.0
        out["montecarlo.truncations"] = c["truncations"]
        out["montecarlo.increments_drawn"] = c["increments_drawn"]
        out["montecarlo.increments_used"] = c["increments_used"]
        out["montecarlo.draw_ratio"] = (
            c["increments_drawn"] / c["increments_used"] if c["increments_used"] else 0.0
        )

        ladder, drift = self.spans["bounds.ladder"], self.spans["bounds.drift"]
        out["bounds.unit_statistics_s"] = self.spans["bounds.unit_statistics"].total
        out["bounds.ladder.calls"] = ladder.calls
        out["bounds.ladder.s"] = ladder.total
        out["bounds.ladder.rows"] = ladder.rows
        out["bounds.ladder.peak_mb"] = self.ladder_peak_bytes / 2**20
        out["bounds.drift.calls"] = drift.calls
        out["bounds.drift.s"] = drift.total
        out["bounds.evaluate_s"] = self.spans["bounds.evaluate"].total
        return out


def _stop_group(pgid: int, wait_s: float = 10.0) -> None:
    """Kill every process left in the group and wait until none remains."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def pool_probe(seed: int) -> tuple[dict[str, float], str | None]:
    """``estimate_arl`` at threads=2 against threads=1 in a child process.

    Returns the speedup (serial wall over pool wall) and the pool run's CPU per
    wall second, plus a note when the child was cut off at the time limit; the
    speedup is then an upper bound and the CPU ratio counts the child alone.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), "pool", str(seed), str(POOL_PROBE_REPS)]
    cpu0, t0 = cpu_s(), time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    note = None
    try:
        out, _ = proc.communicate(timeout=POOL_PROBE_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        note = f"pool probe cut off after {POOL_PROBE_LIMIT_S:g} s"
    finally:
        elapsed, cpu = time.perf_counter() - t0, cpu_s() - cpu0
        _stop_group(proc.pid)
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    got = {k: v for line in lines for k, v in line.items()}
    if note is None and proc.returncode != 0:
        raise RuntimeError(f"pool probe exited with code {proc.returncode}")
    if "pool_s" not in got:  # cut off: the pool ran for at least the rest of the limit
        serial = got.get("serial_s")
        return {
            "montecarlo.pool.speedup": serial / (elapsed - serial) if serial else 0.0,
            "montecarlo.pool.cpu_per_wall": cpu / elapsed,
        }, note
    return {
        "montecarlo.pool.speedup": got["serial_s"] / got["pool_s"],
        "montecarlo.pool.cpu_per_wall": got["pool_cpu_s"] / got["pool_s"],
    }, note
