"""Monte Carlo estimation of detection delay and average run length.

Runs are simulated by a block-vectorised engine rather than one observation at
a time. Within one visit to a unit the policy statistic is a plain random walk
started at the statistic's carried value and reset at zero, so a whole visit
(in fact a whole run of consecutive units with identically distributed
increments) can be evolved with cumulative sums:

    Y_t = W_t + max(y0, -min(0, W_1, ..., W_{t-1})),   W_t = sum of increments.

Units are grouped into the model's unit classes (``ChangePointModel.unit_class``:
same pre-change law, candidate family, and law being observed); consecutive
units of one class form a stretch that is simulated in a handful of numpy
operations. For Gaussian classes the increments come from the class's compiled
kernel, which evaluates the mixture llr as a quadratic form in the standard
normals behind each observation; it agrees with ``model.mixture_llr``, the
likelihood code of policy.run_to_alarm, up to rounding. The engine consumes
randomness differently from policy.run_to_alarm but draws from the same
increment distributions, so both produce the same stopping time law; the test
suite cross-validates them. Every replication derives its own seed from the
configured one, which makes results independent of chunking or thread count.
"""

from __future__ import annotations

import enum
import math
import warnings
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Collection, Sequence

import numpy as np

from .bounds import (
    DegenerateBoundError,
    compute_unit_statistics,
    lower_bound_first_order,
    nonasymptotic_upper_bound,
)
from .model import (
    ChangePointModel,
    PostChangeHypothesis,
    Unit,
    affected_units,
    derive_rng,
    derive_seed,
)
from .scenarios import correlated_block_hypothesis, correlated_blocks_model

__all__ = [
    "Ordering",
    "StudyConfig",
    "DelayEstimate",
    "StudyRow",
    "worst_case_permutation",
    "estimate_delay",
    "estimate_arl",
    "run_study",
    "run_custom_study",
    "STUDIES",
]

DEFAULT_DELAY_CAP = 10_000_000


class Ordering(enum.Enum):
    WORST_CASE = "worst_case"
    AS_GIVEN = "as_given"


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of a delay study over block sizes s.

    ``gamma`` is the false alarm budget; the policy threshold is log(gamma).
    ``nu`` is the change time; replications that alarm at or before nu are
    discarded (the delay conditions on surviving past the change).
    """

    K: int = 10
    m: int = 2
    rho: float = 0.7
    gamma: float = 100.0
    s_values: tuple[int, ...] = tuple(range(2, 11))
    replications: int = 4000
    seed: int = 0
    nu: int = 0
    ordering: Ordering = Ordering.WORST_CASE

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError(f"K must be at least 2, got {self.K}")
        if not 1 <= self.m <= self.K:
            raise ValueError(f"m must lie in [1, K], got {self.m}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if any(not 2 <= s <= self.K for s in self.s_values):
            raise ValueError(f"every s must lie in [2, K], got {self.s_values}")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.nu < 0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")


@dataclass(frozen=True)
class DelayEstimate:
    """Sample mean of the detection delay (or truncated run length) with its
    standard error. Truncated replications enter the mean at the cap, which
    makes the estimate a lower bound when truncations occur."""

    mean: float
    stderr: float
    replications: int
    truncations: int
    discarded: int = 0

    @property
    def high_stderr(self) -> bool:
        """True when the standard error exceeds 5 percent of the mean."""
        if self.mean == 0.0:
            return self.stderr > 0.0
        return self.stderr > 0.05 * abs(self.mean)


def worst_case_permutation(
    units: Sequence[Unit], affected: Collection[Unit]
) -> tuple[Unit, ...]:
    """Order that delays detection the most: unaffected units first, affected
    last, each group in canonical (lexicographic) order."""
    affected = set(affected)
    unknown = affected - set(units)
    if unknown:
        raise ValueError(f"affected units {sorted(unknown)[:3]} are not sampled units")
    if not affected:
        warnings.warn("no affected units; worst-case ordering is the canonical order")
        return tuple(sorted(units))
    cold = sorted(E for E in units if E not in affected)
    hot = sorted(E for E in units if E in affected)
    return tuple(cold + hot)


# ---------------------------------------------------------------------------
# Block-vectorised engine


@dataclass(frozen=True)
class _Stretch:
    start: int
    length: int
    class_id: int


class _Regime:
    """Units in sampling order, grouped into contiguous same-class stretches."""

    def __init__(self, samplers: list, class_of_pos: list[int]):
        self.samplers = samplers
        self.n_units = len(class_of_pos)
        stretches: list[_Stretch] = []
        i = 0
        while i < self.n_units:
            j = i
            while j + 1 < self.n_units and class_of_pos[j + 1] == class_of_pos[i]:
                j += 1
            stretches.append(_Stretch(i, j - i + 1, class_of_pos[i]))
            i = j + 1
        self.stretches = stretches
        self._starts = [s.start for s in stretches]

    def locate(self, pos: int) -> tuple[_Stretch, int]:
        """Stretch containing the position and the number of units from the
        position to the end of the stretch, current unit included."""
        st = self.stretches[bisect_right(self._starts, pos) - 1]
        return st, st.start + st.length - pos


def _compile_regime(
    model: ChangePointModel,
    order: Sequence[Unit],
    hypothesis: PostChangeHypothesis | None,
) -> _Regime:
    ids: dict = {}
    samplers: list = []
    class_of_pos: list[int] = []
    for E in order:
        affected = hypothesis is not None and hypothesis.is_affected(E)
        cls = model.unit_class(E, hypothesis.local_post[E] if affected else None)
        if cls.key not in ids:
            ids[cls.key] = len(samplers)
            samplers.append(cls.draw)
        class_of_pos.append(ids[cls.key])
    return _Regime(samplers, class_of_pos)


_BLOCK0 = 256
_BLOCK_CAP = 1 << 15


def _run_stretch(
    rng: np.random.Generator,
    draw: Callable,
    y0: float,
    threshold: float,
    switches_needed: int,
    budget: int,
) -> tuple[int, int, float, str]:
    """Advance the statistic through consecutive units with iid increments.

    Stops at the switches_needed-th drop to or below zero (status 'switched'),
    at the first crossing of the threshold (status 'alarm'), or after budget
    steps (status 'budget'). Returns (steps, switches, statistic, status).
    Increments drawn beyond the stopping step are discarded, which is sound
    because they are independent of everything retained.
    """
    y = y0
    steps = 0
    switches = 0
    block = _BLOCK0
    while True:
        n = min(block, budget - steps)
        if n <= 0:
            return steps, switches, y, "budget"
        xi = draw(rng, n)
        w = np.cumsum(xi)
        prev_min = np.minimum.accumulate(np.concatenate(([0.0], w[:-1])))
        path = w + np.maximum(y, -prev_min)
        switch_idx = np.flatnonzero(path <= 0.0)
        alarm_idx = np.flatnonzero(path >= threshold)
        a = int(alarm_idx[0]) if alarm_idx.size else -1
        need = switches_needed - switches
        if switch_idx.size >= need:
            e = int(switch_idx[need - 1])
            if 0 <= a < e:
                before = int(np.searchsorted(switch_idx, a))
                return steps + a + 1, switches + before, float(path[a]), "alarm"
            return steps + e + 1, switches_needed, float(path[e]), "switched"
        if a >= 0:
            before = int(np.searchsorted(switch_idx, a))
            return steps + a + 1, switches + before, float(path[a]), "alarm"
        steps += n
        switches += int(switch_idx.size)
        y = float(path[-1])
        block = min(2 * block, _BLOCK_CAP)


def _simulate(
    rng: np.random.Generator,
    regime: _Regime,
    threshold: float,
    budget: int,
    start_pos: int = 0,
    y0: float = 0.0,
) -> tuple[int, bool, int, float]:
    """One run of the policy under a fixed regime until alarm or budget.

    Returns (steps, alarmed, position, statistic); position indexes the unit
    the policy is at when the run ends.
    """
    pos = start_pos
    y = y0
    total = 0
    n = regime.n_units
    single = len(regime.stretches) == 1
    while total < budget:
        st, units_left = regime.locate(pos)
        needed = budget + 1 if single else units_left
        steps, switches, y, status = _run_stretch(
            rng, regime.samplers[st.class_id], y, threshold, needed, budget - total
        )
        total += steps
        pos = (pos + switches) % n
        if status == "alarm":
            return total, True, pos, y
    return total, False, pos, y


def _run_replications(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis | None,
    order: Sequence[Unit],
    threshold: float,
    nu: int,
    seed: int,
    rep_range: range,
    cap: int,
) -> tuple[list[int], int, int]:
    """Delays (or capped run lengths) for the given replication indices.

    Returns (values, truncations, discarded). A replication is discarded when
    it alarms at or before the change time nu.
    """
    post = _compile_regime(model, order, hypothesis)
    pre = _compile_regime(model, order, None) if nu > 0 else None
    values: list[int] = []
    truncations = 0
    discarded = 0
    for i in rep_range:
        rng = derive_rng(seed, i)
        pos = 0
        y = 0.0
        if pre is not None:
            steps, alarmed, pos, y = _simulate(rng, pre, threshold, nu)
            if alarmed:
                discarded += 1
                continue
        steps, alarmed, _, _ = _simulate(rng, post, threshold, cap, pos, y)
        if not alarmed:
            truncations += 1
        values.append(steps)
    return values, truncations, discarded


def _collect(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis | None,
    order: Sequence[Unit],
    threshold: float,
    nu: int,
    seed: int,
    replications: int,
    cap: int,
    threads: int,
) -> DelayEstimate:
    if threads <= 1 or replications < 2 * threads:
        values, truncations, discarded = _run_replications(
            model, hypothesis, order, threshold, nu, seed, range(replications), cap
        )
    else:
        chunk = (replications + threads - 1) // threads
        ranges = [range(lo, min(lo + chunk, replications)) for lo in range(0, replications, chunk)]
        values = []
        truncations = 0
        discarded = 0
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(
                    _run_replications, model, hypothesis, tuple(order), threshold, nu, seed, r, cap
                )
                for r in ranges
            ]
            for fut in futures:
                v, t, d = fut.result()
                values.extend(v)
                truncations += t
                discarded += d
    if not values:
        raise RuntimeError("every replication alarmed before the change time; nothing to average")
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.inf
    return DelayEstimate(
        mean=float(arr.mean()),
        stderr=stderr,
        replications=int(arr.size),
        truncations=truncations,
        discarded=discarded,
    )


def estimate_delay(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    config: StudyConfig,
    cap: int = DEFAULT_DELAY_CAP,
    threads: int = 1,
) -> DelayEstimate:
    """Mean detection delay of the policy at threshold log(gamma) under the
    hypothesis, with the change at time config.nu.

    With the worst-case ordering the unaffected units are sampled first. Each
    replication is seeded independently from config.seed, so the estimate is
    reproducible bit for bit and independent of the thread count.
    """
    affected = affected_units(model, hypothesis)
    if not affected:
        raise ValueError("the hypothesis affects no sampled unit; the delay is unbounded")
    if config.ordering is Ordering.WORST_CASE:
        order = worst_case_permutation(model.units, affected)
    else:
        order = tuple(model.units)
    est = _collect(
        model,
        hypothesis,
        order,
        math.log(config.gamma),
        config.nu,
        config.seed,
        config.replications,
        cap,
        threads,
    )
    if est.high_stderr:
        warnings.warn(
            f"delay standard error {est.stderr:.3g} exceeds 5% of the mean {est.mean:.6g}"
        )
    return est


def estimate_arl(
    model: ChangePointModel,
    config: StudyConfig,
    cap: int,
    threads: int = 1,
) -> DelayEstimate:
    """Average run length to false alarm, truncated at ``cap`` steps.

    Truncated runs enter the mean at the cap, so the estimate is a lower bound
    on the true average run length. The cap must be at least 10 * gamma so the
    bias cannot mask a policy that barely meets the false alarm budget.
    """
    if cap < 10 * config.gamma:
        raise ValueError(f"cap must be at least 10 * gamma = {10 * config.gamma:g}, got {cap}")
    return _collect(
        model,
        None,
        tuple(model.units),
        math.log(config.gamma),
        0,
        config.seed,
        config.replications,
        cap,
        threads,
    )


# ---------------------------------------------------------------------------
# Studies


@dataclass(frozen=True)
class StudyRow:
    """One point of a delay study: a (gamma, m, s) combination."""

    study: str
    K: int
    m: int
    rho: float
    gamma: float
    s: int
    num_correlated_pairs: int
    mean_delay: float
    stderr: float
    truncations: int
    lower_bound: float
    upper_bound: float
    upper_bound_coarse: float


#: Study number -> (rho, gamma values, m values)
STUDIES: dict[int, tuple[float, tuple[float, ...], tuple[int, ...]]] = {
    1: (0.7, (100.0, 100_000.0), (2,)),
    2: (0.7, (100.0,), (2, 3)),
    3: (0.95, (100.0,), (2, 3)),
}


def run_custom_study(
    config: StudyConfig,
    label: str = "custom",
    threads: int = 1,
    stats_reps: int = 100_000,
    ladder_reps: int = 20_000,
) -> list[StudyRow]:
    """Delay estimates and bounds over config.s_values for one (m, gamma)."""
    model = correlated_blocks_model(config.K, config.m, config.rho)
    rows = []
    stats_cache: dict = {}
    for idx, s in enumerate(config.s_values):
        hypothesis = correlated_block_hypothesis(model, config.rho, s=s)
        point = replace(config, s_values=(s,), seed=derive_seed(config.seed, config.m, idx))
        est = estimate_delay(model, hypothesis, point, threads=threads)
        lower = lower_bound_first_order(config.gamma, model, hypothesis)
        try:
            stats = compute_unit_statistics(
                model,
                hypothesis,
                reps=stats_reps,
                ladder_reps=ladder_reps,
                seed=config.seed,
                cache=stats_cache,
            )
            bound = nonasymptotic_upper_bound(math.log(config.gamma), model, hypothesis, stats)
            upper, coarse = bound.total, bound.coarse_total
        except DegenerateBoundError:
            upper = coarse = math.inf
        rows.append(
            StudyRow(
                study=label,
                K=config.K,
                m=config.m,
                rho=config.rho,
                gamma=config.gamma,
                s=s,
                num_correlated_pairs=s * (s - 1) // 2,
                mean_delay=est.mean,
                stderr=est.stderr,
                truncations=est.truncations,
                lower_bound=lower,
                upper_bound=upper,
                upper_bound_coarse=coarse,
            )
        )
    return rows


def run_study(
    study: int,
    replications: int | None = None,
    seed: int = 0,
    nu: int = 0,
    threads: int = 1,
    stats_reps: int = 100_000,
    ladder_reps: int = 20_000,
) -> list[StudyRow]:
    """One of the three standard delay studies over block sizes 2..10.

    Study 1: rho 0.7, m = 2, gamma in {1e2, 1e5}. Study 2: rho 0.7, gamma 1e2,
    m in {2, 3}. Study 3: as study 2 with rho 0.95. All use K = 10 sources,
    4000 replications by default, the change at time nu, and the fixed
    canonical permutation of units (all size-m subsets in lexicographic
    order). Since the affected block occupies the top sources, that order
    visits the affected units late in the cycle; for m = 2 every affected
    pair comes after every unaffected one, so the canonical order coincides
    with the worst-case reordering.
    """
    if study not in STUDIES:
        raise ValueError(f"study must be one of {sorted(STUDIES)}, got {study}")
    rho, gammas, ms = STUDIES[study]
    rows: list[StudyRow] = []
    for gi, gamma in enumerate(gammas):
        for m in ms:
            config = StudyConfig(
                K=10,
                m=m,
                rho=rho,
                gamma=gamma,
                replications=4000 if replications is None else replications,
                seed=derive_seed(seed, study, gi, m),
                nu=nu,
                ordering=Ordering.AS_GIVEN,
            )
            rows.extend(
                run_custom_study(
                    config,
                    label=str(study),
                    threads=threads,
                    stats_reps=stats_reps,
                    ladder_reps=ladder_reps,
                )
            )
    return rows
