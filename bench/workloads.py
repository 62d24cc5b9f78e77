"""Workloads of the rrcusum benchmark and the checks on their outputs.

Every workload uses the corr-pairs scenario: K = 10 independent standard normal
sources, an affected block that becomes pairwise 0.7-correlated, and the change
at time 0. A workload is a fixed list of operations built from the workload
seed. Each operation calls rrcusum's public functions and returns plain
numbers; ``Op.check`` applies the acceptance rules and compares every Monte
Carlo estimate with the reference values in ``reference.json`` within
``REFERENCE_Z`` standard errors, so a change to the random stream passes and a
change to the law does not.

- ``delay``: ``estimate_delay`` over the delay columns of studies 1 and 2
  (m = 2 at gamma 1e2 and 1e5, m = 3 at gamma 1e2, s = 2..10, canonical unit
  order). Stresses the engine and the mixture llr on small batches.
- ``bounds``: ``compute_unit_statistics``, ``lower_bound_first_order`` and
  ``nonasymptotic_upper_bound`` at gamma 1e2, s = 4, for m = 2 (the CLI's
  budgets) and m = 3 (the smallest budgets the library accepts). Stresses the
  ladder estimator, large memory-bound llr batches and peak memory.
- ``arl``: ``estimate_arl`` at m = 2, gamma 1e3, cap 100 gamma. The same engine
  in the opposite regime: pre-change drift, one unit class, long runs.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "rrcusum").is_dir():
    # Never fall back to an installed copy: the benchmark measures this tree.
    raise ImportError(f"rrcusum sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from rrcusum import bounds, montecarlo  # noqa: E402
from rrcusum.montecarlo import Ordering, StudyConfig  # noqa: E402
from rrcusum.scenarios import correlated_block_hypothesis, correlated_blocks_model  # noqa: E402

WORKLOADS = ("delay", "bounds", "arl")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

K = 10
RHO = 0.7
# (m, gamma, replications) of each delay series; every series runs s = 2..K.
DELAY_SERIES = ((2, 1e2, 1000), (2, 1e5, 1000), (3, 1e2, 500))
ARL_M = 2
ARL_GAMMA = 1e3
ARL_REPS = 6000
BOUNDS_GAMMA = 1e2
BOUNDS_S = 4
# (m, drift replications, ladder replications) of each bounds point.
BOUNDS_POINTS = ((2, 100_000, 20_000), (3, 10_000, 10_000))
# The bounds operations run at the CLI's default seed whatever the workload
# seed. compute_unit_statistics doubles each ladder horizon from 1000 until two
# estimates agree; at this seed every ladder settles at 2000, while at other
# seeds some go on to 8000 and the operation takes up to twice as long.
BOUNDS_SEED = 0

# Acceptance rules.
REFERENCE_Z = 5.0  # estimate vs reference, in pooled standard errors
CI_Z = 1.96  # two-sided 95% interval for the ARL
MAX_REL_STDERR = 0.05
DELAY_FLOOR = 0.75  # delay >= DELAY_FLOOR * lower_bound_first_order
ARL_FLOOR = 0.95  # lower ARL confidence limit >= ARL_FLOOR * gamma

_BOUNDS_FIELDS = ("drift_pre", "q_no_ascend", "drift_post", "second_moment", "q_no_descend")


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``run`` returns a flat dict of numbers; an estimate ``q`` comes with its
    standard error under ``q + ".se"``. ``check`` returns the reasons the
    result is wrong, empty when it is correct.
    """

    name: str
    run: Callable[[], dict[str, float]]
    check: Callable[[dict[str, float]], list[str]]


def sub_seed(seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence((seed, *salt)).generate_state(1)[0])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def observations(result: dict[str, float]) -> float | None:
    """Observations the policy consumed in an engine operation, else None."""
    if "replications" not in result:
        return None
    return result["mean"] * result["replications"]


def build(workload: str, seed: int, reference: dict | None = None) -> list[Op]:
    """Models, hypotheses and operations of the workload for the seed."""
    ref = (reference if reference is not None else load_reference())["ops"]
    if workload == "delay":
        return _delay_ops(seed, ref)
    if workload == "bounds":
        return bounds_ops(BOUNDS_SEED, ref)
    if workload == "arl":
        return [_arl_op(seed, ref)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _estimate(est) -> dict[str, float]:
    return {
        "mean": est.mean,
        "mean.se": est.stderr,
        "replications": est.replications,
        "truncations": est.truncations,
    }


def _check_reference(result: dict[str, float], ref: dict | None) -> list[str]:
    if ref is None:
        return ["no reference values"]
    problems = []
    for key, want in ref.items():
        # A proportion estimated as 0 or 1 reports a standard error of 0, so
        # the typical error of one run at this budget is the floor.
        got, se = result[key], max(result[key + ".se"], want["run_stderr"])
        tol = REFERENCE_Z * math.hypot(se, want["stderr"])
        if not abs(got - want["mean"]) <= tol:
            problems.append(f"{key} {got:.6g} differs from reference {want['mean']:.6g} by more than {tol:.3g}")
    return problems


def _check_engine(result: dict[str, float], ref: dict | None) -> list[str]:
    problems = _check_reference(result, ref)
    if result["truncations"]:
        problems.append(f"{result['truncations']} truncated runs")
    if result["mean.se"] > MAX_REL_STDERR * result["mean"]:
        problems.append(f"relative standard error {result['mean.se'] / result['mean']:.3g} above {MAX_REL_STDERR}")
    return problems


# ---------------------------------------------------------------------------
# delay


def _run_delay(model, hypothesis, config: StudyConfig) -> dict[str, float]:
    with warnings.catch_warnings():
        # estimate_delay warns on a high standard error; the check reports it.
        warnings.simplefilter("ignore")
        return _estimate(montecarlo.estimate_delay(model, hypothesis, config))


def _check_delay(model, hypothesis, gamma: float, ref, result) -> list[str]:
    problems = _check_engine(result, ref)
    lower = bounds.lower_bound_first_order(gamma, model, hypothesis)
    if result["mean"] < DELAY_FLOOR * lower:
        problems.append(f"mean delay {result['mean']:.4g} below {DELAY_FLOOR} x lower bound {lower:.4g}")
    return problems


def _delay_ops(seed: int, ref: dict) -> list[Op]:
    models = {m: correlated_blocks_model(K, m, RHO) for m in sorted({m for m, _, _ in DELAY_SERIES})}
    ops = []
    for series, (m, gamma, reps) in enumerate(DELAY_SERIES):
        model = models[m]
        for s in range(2, K + 1):
            hypothesis = correlated_block_hypothesis(model, RHO, s=s)
            config = StudyConfig(
                K=K,
                m=m,
                rho=RHO,
                gamma=gamma,
                s_values=(s,),
                replications=reps,
                seed=sub_seed(seed, 1, series, s),
                ordering=Ordering.AS_GIVEN,
            )
            name = f"delay.m{m}.g{gamma:g}.s{s}"
            ops.append(
                Op(
                    name,
                    partial(_run_delay, model, hypothesis, config),
                    partial(_check_delay, model, hypothesis, gamma, ref.get(name)),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# arl


def arl_scenario(seed: int, replications: int):
    """Model, run configuration and cap of the ARL operation."""
    model = correlated_blocks_model(K, ARL_M, RHO)
    config = StudyConfig(
        K=K, m=ARL_M, rho=RHO, gamma=ARL_GAMMA, replications=replications, seed=sub_seed(seed, 2)
    )
    return model, config, int(100 * ARL_GAMMA)


def _run_arl(model, config: StudyConfig, cap: int) -> dict[str, float]:
    return _estimate(montecarlo.estimate_arl(model, config, cap=cap))


def _check_arl(ref, result) -> list[str]:
    problems = _check_engine(result, ref)
    low = result["mean"] - CI_Z * result["mean.se"]
    if low < ARL_FLOOR * ARL_GAMMA:
        problems.append(f"lower ARL confidence limit {low:.4g} below {ARL_FLOOR} x gamma")
    return problems


def _arl_op(seed: int, ref: dict) -> Op:
    name = f"arl.m{ARL_M}.g{ARL_GAMMA:g}"
    return Op(name, partial(_run_arl, *arl_scenario(seed, ARL_REPS)), partial(_check_arl, ref.get(name)))


# ---------------------------------------------------------------------------
# bounds


def evaluate_bounds(model, hypothesis, stats: dict) -> tuple[float, float]:
    """First-order lower bound and explicit upper bound (inf when degenerate)."""
    lower = bounds.lower_bound_first_order(BOUNDS_GAMMA, model, hypothesis)
    try:
        upper = bounds.nonasymptotic_upper_bound(math.log(BOUNDS_GAMMA), model, hypothesis, stats).total
    except bounds.DegenerateBoundError:
        upper = math.inf
    return lower, upper


def _run_bounds(model, hypothesis, reps: int, ladder_reps: int, seed: int) -> dict[str, float]:
    stats = bounds.compute_unit_statistics(model, hypothesis, reps=reps, ladder_reps=ladder_reps, seed=seed)
    lower, upper = evaluate_bounds(model, hypothesis, stats)
    out = {"lower_bound": lower, "explicit_bound": upper}
    # Units of one class share their estimates; each class is reported once,
    # under the label of its first unit.
    labels: dict = {}
    for E, st in stats.items():
        est = {f: getattr(st, f) for f in _BOUNDS_FIELDS if getattr(st, f) is not None}
        label = labels.setdefault(tuple((e.value, e.stderr) for e in est.values()), "-".join(map(str, E.sources)))
        for field, e in est.items():
            out[f"{label}.{field}"] = e.value
            out[f"{label}.{field}.se"] = e.stderr
    return out


def _check_bounds(ref, result) -> list[str]:
    problems = _check_reference(result, ref)
    if not result["lower_bound"] <= result["explicit_bound"]:
        problems.append(
            f"lower bound {result['lower_bound']:.4g} above explicit bound {result['explicit_bound']:.4g}"
        )
    return problems


def bounds_ops(seed: int, ref: dict) -> list[Op]:
    """Operations of the bounds workload at the given seed; the benchmark
    itself always uses BOUNDS_SEED."""
    ops = []
    for m, reps, ladder_reps in BOUNDS_POINTS:
        model = correlated_blocks_model(K, m, RHO)
        hypothesis = correlated_block_hypothesis(model, RHO, s=BOUNDS_S)
        name = f"bounds.m{m}.g{BOUNDS_GAMMA:g}.s{BOUNDS_S}"
        ops.append(
            Op(
                name,
                partial(_run_bounds, model, hypothesis, reps, ladder_reps, seed),
                partial(_check_bounds, ref.get(name)),
            )
        )
    return ops
