"""Monte Carlo estimation of detection delay and average run length.

Runs are simulated by a block-vectorised engine rather than one observation at
a time. Within one visit to a unit the policy statistic is a plain random walk
started at the statistic's carried value and reset at zero, so a whole visit
(in fact a whole run of consecutive units with identically distributed
increments) can be evolved with cumulative sums:

    Y_t = W_t + max(y0, -min(0, W_1, ..., W_{t-1}))
        = W_t - min(-max(y0, 0), W_1, ..., W_{t-1}),   W_t = sum of increments.

Units are grouped into the model's unit classes (``ChangePointModel.class_table``:
same pre-change law, candidate family, and law being observed); consecutive
units of one class form a stretch that is simulated in a handful of numpy
operations. For Gaussian classes the increments come from the class's compiled
kernel, which evaluates the mixture llr as a quadratic form in the standard
normals behind each observation; it agrees with
``ChangePointModel.mixture_llr``, the likelihood code of policy.run_to_alarm,
up to rounding. The engine consumes randomness differently from
policy.run_to_alarm but draws from the same increment distributions, so both
produce the same stopping time law; the test suite cross-validates them.

Replications run in batches of _BATCH rows that advance together: each round
moves every running row through the rest of its current stretch, with one
block of draws per class shared by all rows in that class. Batch b draws from
its own sub-stream of the configured seed, ``derive_rng(seed, b)``, so results
are reproducible bit for bit.

Every drawn increment is scored. A block gives each running row the same
number of increments, and a row that stops partway through leaves the rest
unconsumed. Its stop depends only on the increments up to and including the
stopping step (optional stopping), so the increments past it are still
independent draws from the class law. They are carried, oldest first, into a
spare of the class (``_Spare``) that serves its next block before any fresh
draw. Each batch keeps one spare per class and each excursion call one of its
own; a spare never outlives its batch, so batches stay independent. What is
drawn and not used is the spare left at the end of a batch.

The average run length to false alarm is not simulated run by run. Before the
change every visit to a unit starts at statistic 0, so the cycles of one visit
per unit renew, and the run length follows from one visit's excursion of the
walk out of (0, A) (Page 1954, Biometrika 41). For each pre-change class c,
with l_c the mean exit time and p_c the probability of exiting at or above A,
the units i = 1..U of one cycle give

    ARL = sum_i prod_{j<i} (1 - p_j) l_i / (1 - prod_i (1 - p_i)),

which is l/p for a single class. l_c is a plain Monte Carlo mean. p_c is at
most 1/gamma, so it is estimated by importance sampling under the class's
mixture law (``ChangePointModel.mixture_draw``), with weight e^{-S_N} on the
exits at or above A (Siegmund 1976, Ann. Statist. 4). Each batch of
excursions is one _run_stretch call that stops every row at its first switch.
Up to that drop the minimum in Y_t is -max(y0, 0), so when every row of a
call stops at its first drop, as in an excursion or a delay stretch of one
unit, _run_stretch takes its first-exit branch: the path is W_t + max(y0, 0),
with no running minimum and no switch counts, and a row stops on leaving
(0, A), to the same bits: fl(a + b) > 0 exactly when a + b > 0. As most
excursions end after 2-3 steps, their first block has _EXCURSION_COLS0
columns per row, not _COLS0.

_run_stretch is the engine's one block loop, and its blocks take one of two
layouts by their number of rows. numpy runs an accumulate along a row as a
scalar loop per row, so a block of at least _LOOP_ROWS rows, such as the run
length's excursion blocks of 1024 rows and 4 to 16 columns, is time-major in
memory and stepped column by column, one vector operation over all rows per
column. A block of fewer rows, such as the stragglers of a delay batch with
up to 2048 columns, is row-major and keeps the accumulates, which cost less
there than a Python loop over the columns. ``_scan`` reads the layout off the
block and runs its partial sums, their running minimum and its switch counts
either way. Both layouts compute the second form of Y_t above, which equals
the first exactly (negation, min and max are exact and a - b == a + (-b)),
and give the same bits.

The hot loop reuses its scratch. Every block of a stretch writes its
increments, partial sums, path and switch counts into arrays allocated once
per thread (``_Blocks``, kept across estimates), the spares live there too,
and a draw that offers ``fill``, as every Gaussian class kernel does, scores
its increments straight into the block, working in one slice buffer per
thread shared by all kernels. So a block allocates only the unconsumed
increments it carries and boolean masks of at most 16 KiB.
Arrays of 128 KiB and more that outlive a block, allocated and freed
thousands of times per estimate, or once per estimate, would be handed back to
the system by the C allocator and fault their pages in again. _simulate finds
the classes present with np.bincount rather than np.unique, which imports
numpy.ma (about 1.3 MB) on its first call.
"""

from __future__ import annotations

import enum
import math
import threading
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Collection, Sequence

import numpy as np

from .bounds import (
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
    sample_mean,
)
from .scenarios import correlated_block_hypothesis, correlated_blocks_model

__all__ = [
    "Ordering",
    "RunSpec",
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


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """What one delay or run length estimate reads.

    ``gamma`` is the false alarm budget; the policy threshold is log(gamma).
    ``nu`` is the change time; replications that alarm at or before nu are
    discarded (the delay conditions on surviving past the change).
    """

    gamma: float = 100.0
    replications: int = 4000
    seed: int = 0
    nu: int = 0
    ordering: Ordering = Ordering.WORST_CASE

    def __post_init__(self) -> None:
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma}")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.nu < 0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")


@dataclass(frozen=True, kw_only=True)
class StudyConfig(RunSpec):
    """A correlated-block delay study: K sources, m per unit, correlation rho,
    one run of the policy per block size in ``s_values``."""

    K: int = 10
    m: int = 2
    rho: float = 0.7
    s_values: tuple[int, ...] = tuple(range(2, 11))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.K < 2:
            raise ValueError(f"K must be at least 2, got {self.K}")
        if not 2 <= self.m <= self.K:
            raise ValueError(f"m must lie in [2, K], got {self.m}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if any(not 2 <= s <= self.K for s in self.s_values):
            raise ValueError(f"every s must lie in [2, K], got {self.s_values}")


@dataclass(frozen=True)
class DelayEstimate:
    """Mean detection delay or average run length with its standard error.

    A delay is a sample mean over ``replications`` runs; truncated runs enter
    it at the cap, which makes it a lower bound when truncations occur. A run
    length is the renewal estimate of ``estimate_arl``: ``replications`` then
    counts the excursions of each kind per unit class and ``truncations`` the
    excursions cut at the cap, over all kinds and classes.
    """

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
class _Regime:
    """Units in sampling order, grouped into contiguous same-class stretches.

    ``stretch_of`` maps each position to its stretch, ``stretch_end`` is the
    position one past each stretch's last unit and ``class_of`` the class of
    each stretch, an index into ``draws``.
    """

    draws: list
    stretch_of: np.ndarray
    stretch_end: np.ndarray
    class_of: np.ndarray


def _compile_regime(
    model: ChangePointModel,
    order: Sequence[Unit],
    hypothesis: PostChangeHypothesis | None,
) -> _Regime:
    classes, _, index = model.class_table(order, hypothesis)
    first = np.diff(index, prepend=-1) != 0
    starts = np.flatnonzero(first)
    return _Regime(
        draws=[cls.draw for cls in classes],
        stretch_of=np.cumsum(first) - 1,
        stretch_end=np.append(starts[1:], index.size),
        class_of=index[starts],
    )


_BATCH = 1024
_COLS0 = 32
# First block of an excursion call: a block of _COLS0 was mostly spare (the
# arl workload drew 2.75 increments per increment used, against 1.31 at 4
# columns), and 1 or 2 columns took more blocks and more time than 4.
_EXCURSION_COLS0 = 4
_BLOCK_ELEMENTS = 1 << 14
# Blocks of at least this many rows, and so at most _BLOCK_ELEMENTS / 128
# columns, are time-major and step column by column; blocks of fewer rows are
# row-major and step by numpy's accumulates (see the module docstring).
_LOOP_ROWS = 128


class _Spare:
    """Increments of one class drawn past their rows' stopping steps, kept
    oldest first for the class's next block (see the module docstring). A
    block hands back fewer increments than it takes, so a buffer of one block
    always holds them."""

    def __init__(self) -> None:
        self.buf = np.empty(_BLOCK_ELEMENTS)
        self.size = 0

    def fill(self, out: np.ndarray, rng: np.random.Generator, draw: Callable) -> None:
        """Fill ``out`` with the oldest spare increments, then with fresh
        draws, scored in place when the draw offers ``fill``."""
        t = min(self.size, out.size)
        out[:t] = self.buf[:t]
        self.size -= t
        # a one-dimensional forward copy, so the overlap needs no temporary
        self.buf[: self.size] = self.buf[t : t + self.size]
        if t < out.size:
            fill = getattr(draw, "fill", None)
            if fill is None:
                out[t:] = draw(rng, out.size - t)
            else:
                fill(rng, out[t:])

    def keep(self, x: np.ndarray) -> None:
        """Append increments that were drawn and not consumed."""
        self.buf[self.size : self.size + x.size] = x
        self.size += x.size


class _Blocks:
    """The per-block arrays of _run_stretch (the increments x, partial sums
    w, the path and the switch counts) and the spares, allocated once per
    thread (``_thread_blocks``) and overwritten by every block; see the module
    docstring for why. _run_stretch views w, the path and the switch counts
    as (rows, columns), time-major in memory for a block of at least
    _LOOP_ROWS rows; x is always row-major. The switch counts take the memory
    of w, which is dead once the path is formed."""

    def __init__(self) -> None:
        self.x = np.empty(_BLOCK_ELEMENTS)
        self.w = np.empty(_BLOCK_ELEMENTS)
        self.path = np.empty(_BLOCK_ELEMENTS)
        self.sw = self.w.view(np.int64)
        self._spares: list[_Spare] = []

    def spares(self, n: int) -> list[_Spare]:
        """n empty spares, reusing the buffers of earlier ones."""
        while len(self._spares) < n:
            self._spares.append(_Spare())
        for spare in self._spares[:n]:
            spare.size = 0
        return self._spares[:n]


# Kept across estimates: blocks freed at the end of an estimate can leave the
# top of the C heap free, which glibc trims and faults in again on the next
# one (about 5,700 minor faults and 14 ms of system time per pass of the
# benchmark's 27 delay estimates).
_blocks = threading.local()


def _thread_blocks() -> _Blocks:
    """The calling thread's _Blocks, made on its first estimate."""
    blocks = getattr(_blocks, "blocks", None)
    if blocks is None:
        blocks = _blocks.blocks = _Blocks()
    return blocks


def _scan(ufunc, a: np.ndarray) -> None:
    """a[:, t] = ufunc(a[:, t - 1], a[:, t]) for t = 1, 2, ... in place, along
    the steps of a (rows, columns) block: one vector operation over all rows
    per column when the block is time-major in memory, numpy's accumulate
    along each row (a scalar loop per row) when it is row-major."""
    if a.strides[0] < a.strides[1]:
        A = list(a.T)
        for t in range(1, len(A)):
            ufunc(A[t - 1], A[t], out=A[t])
    else:
        ufunc.accumulate(a, axis=1, out=a)


def _run_stretch(
    rng: np.random.Generator,
    draw: Callable,
    y: np.ndarray,
    threshold: float,
    need: np.ndarray,
    budget: np.ndarray,
    blocks: _Blocks,
    spare: _Spare,
    cols: int = _COLS0,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance rows of the statistic through consecutive units of one class.

    Row r starts at statistic y[r] and stops at its need[r]-th drop to or
    below zero, at its first crossing of the threshold, or after budget[r]
    steps. Every block lays out the increments of all running rows as
    (rows, columns), at most _BLOCK_ELEMENTS of them, with the columns per
    row doubling from ``cols``, and works in ``blocks``. The increments come
    from ``spare`` first and then from ``draw``; those a row drew past its
    stopping step are carried back to ``spare``, which is sound because they
    are independent of everything the row consumed. Returns (used, steps,
    switches, statistic, alarmed): the number of increments consumed over all
    rows, then one array entry per row.
    """
    # every row stops at its first drop: a plain first exit from (0, threshold)
    exits = bool(need.size) and need.max() == 1
    y = y.astype(float)
    steps = np.zeros(y.size, dtype=np.int64)
    switches = np.zeros(y.size, dtype=np.int64)
    run = np.arange(y.size)
    used = 0
    while run.size:
        k = run.size
        left = budget[run] - steps[run]
        n = int(min(cols, _BLOCK_ELEMENTS // k, left.max()))
        x = blocks.x[: k * n]
        spare.fill(x, rng, draw)
        x = x.reshape(k, n)
        # (rows, columns) views, time-major in memory for many rows
        loop = k >= _LOOP_ROWS
        shape = (n, k) if loop else (k, n)
        w, path, sw = (a[: k * n].reshape(shape) for a in (blocks.w, blocks.path, blocks.sw))
        if loop:
            w, path, sw = w.T, path.T, sw.T
        if exits:
            # path = W_t + max(y0, 0), W the partial sums
            path[...] = x
            _scan(np.add, path)
            path += np.maximum(y[run], 0.0)[:, None]
            stop = path >= threshold
            stop |= path <= 0.0
        else:
            # path = W_t - min(-max(y0, 0), W_1, ..., W_{t-1})
            w[...] = x
            _scan(np.add, w)
            np.negative(np.maximum(y[run], 0.0), out=path[:, 0])
            path[:, 1:] = w[:, :-1]
            _scan(np.fmin, path)
            np.subtract(w, path, out=path)
            # sw shares the memory of w, so it is written only once the path is formed
            np.less_equal(path, 0.0, out=sw)
            _scan(np.add, sw)
            stop = (path >= threshold) | (sw >= (need[run] - switches[run])[:, None])
        if n >= left.min():  # some budget ends in this block
            ends = left <= n
            stop[ends, left[ends] - 1] = True
        j = stop.argmax(axis=1)
        rows = np.arange(k)
        done = stop[rows, j]
        j[~done] = n - 1
        steps[run] += j + 1
        # where (r, j[r]) lies in the flat buffers
        at = j * k + rows if loop else rows * n + j
        if not exits:
            switches[run] += blocks.sw[at]
        y[run] = blocks.path[at]
        took = int(j.sum()) + k
        used += took
        if took < k * n:
            spare.keep(x[np.arange(n) > j[:, None]])
        run = run[~done]
        cols *= 2
    if exits:
        # a row ends at or below zero exactly when it stopped at its drop
        switches = (y <= 0.0).astype(np.int64)
    return used, steps, switches, y, y >= threshold


def _simulate(
    rng: np.random.Generator,
    regime: _Regime,
    threshold: float,
    budget: int,
    pos: np.ndarray,
    y: np.ndarray,
    blocks: _Blocks,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runs of the policy under a fixed regime until alarm or budget steps,
    one per row, starting at the positions and statistics given.

    Each round advances every running row through the rest of its current
    stretch, with one _run_stretch call per class. Every class keeps one
    spare for all its calls. Returns (steps, alarmed, position, statistic)
    per row; position indexes the unit the policy is at when the run ends.
    """
    pos = np.array(pos, dtype=np.int64)
    y = np.array(y, dtype=float)
    steps = np.zeros(pos.size, dtype=np.int64)
    alarmed = np.zeros(pos.size, dtype=bool)
    n_units = regime.stretch_of.size
    single = regime.class_of.size == 1
    spares = blocks.spares(len(regime.draws))
    live = np.arange(pos.size)
    while live.size:
        stretch = regime.stretch_of[pos[live]]
        cls = regime.class_of[stretch]
        if single:
            need = np.full(live.size, budget + 1)
        else:
            need = regime.stretch_end[stretch] - pos[live]
        for c in np.flatnonzero(np.bincount(cls)):
            sel = cls == c
            rows = live[sel]
            _, s, sw, y[rows], alarmed[rows] = _run_stretch(
                rng, regime.draws[c], y[rows], threshold, need[sel], budget - steps[rows], blocks, spares[c]
            )
            steps[rows] += s
            pos[rows] = (pos[rows] + sw) % n_units
        live = live[~alarmed[live] & (steps[live] < budget)]
    return steps, alarmed, pos, y


def _run_batches(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis | None,
    order: Sequence[Unit],
    threshold: float,
    nu: int,
    seed: int,
    replications: int,
    cap: int,
) -> tuple[np.ndarray, int, int]:
    """Delays (or capped run lengths) of ``replications`` runs.

    Batch b holds replications b * _BATCH onwards, at most _BATCH of them, and
    draws from ``derive_rng(seed, b)``. Returns (values, truncations,
    discarded). A replication is discarded when it alarms at or before the
    change time nu.
    """
    post = _compile_regime(model, order, hypothesis)
    pre = _compile_regime(model, order, None) if nu > 0 else None
    blocks = _thread_blocks()
    values = []
    truncations = 0
    discarded = 0
    for b in range(-(-replications // _BATCH)):
        rng = derive_rng(seed, b)
        rows = min(_BATCH, replications - b * _BATCH)
        pos = np.zeros(rows, dtype=np.int64)
        y = np.zeros(rows)
        if pre is not None:
            _, alarmed, pos, y = _simulate(rng, pre, threshold, nu, pos, y, blocks)
            discarded += int(alarmed.sum())
            pos, y = pos[~alarmed], y[~alarmed]
        steps, alarmed, _, _ = _simulate(rng, post, threshold, cap, pos, y, blocks)
        truncations += int((~alarmed).sum())
        values.append(steps)
    return np.concatenate(values), truncations, discarded


def estimate_delay(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    config: RunSpec,
) -> DelayEstimate:
    """Mean detection delay of the policy at threshold log(gamma) under the
    hypothesis, with the change at time config.nu. Runs still going after
    ``DEFAULT_DELAY_CAP`` steps are truncated there.

    With the worst-case ordering the unaffected units are sampled first. Each
    batch of replications is seeded independently from config.seed, so the
    estimate is reproducible bit for bit.
    """
    affected = affected_units(model, hypothesis)
    if not affected:
        raise ValueError("the hypothesis affects no sampled unit; the delay is unbounded")
    if config.ordering is Ordering.WORST_CASE:
        order = worst_case_permutation(model.units, affected)
    else:
        order = tuple(model.units)
    values, truncations, discarded = _run_batches(
        model,
        hypothesis,
        order,
        math.log(config.gamma),
        config.nu,
        config.seed,
        config.replications,
        DEFAULT_DELAY_CAP,
    )
    if not values.size:
        raise RuntimeError("every replication alarmed before the change time; nothing to average")
    mean, stderr = sample_mean(values.astype(float))
    est = DelayEstimate(
        mean=mean,
        stderr=stderr,
        replications=int(values.size),
        truncations=truncations,
        discarded=discarded,
    )
    if est.high_stderr:
        warnings.warn(
            f"delay standard error {est.stderr:.3g} exceeds 5% of the mean {est.mean:.6g}"
        )
    return est


# ---------------------------------------------------------------------------
# Average run length from one visit's excursions


def _run_excursions(
    model: ChangePointModel,
    E: Unit,
    c: int,
    threshold: float,
    seed: int,
    replications: int,
    cap: int,
    blocks: _Blocks,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Excursions of one visit to pre-change class c, whose first unit is E,
    from statistic 0 to the first switch or alarm.

    The class runs ceil(replications / _BATCH) batches, in order; its batch b
    draws from ``derive_rng(seed, c, b)`` and holds min(_BATCH, replications -
    b * _BATCH) excursions of each kind: plain ones under the class's
    pre-change law, then importance-sampled ones under its mixture law. Every
    excursion stops after at most ``cap`` steps. Returns the replications exit
    times of the plain excursions, the replications weights of the sampled
    ones and the number of truncations. A weight is e^{-S_N} on an alarm,
    e^{-threshold} on a truncation (an upper bound on what the excursion could
    still contribute) and 0 on a switch.
    """
    steps = np.empty(replications)
    weights = np.empty(replications)
    truncations = 0
    plain, sampled = model.unit_class(E).draw, model.mixture_draw(E)
    for b in range(-(-replications // _BATCH)):
        rng = derive_rng(seed, c, b)
        lo = b * _BATCH
        hi = min(lo + _BATCH, replications)
        start = np.zeros(hi - lo)
        need = np.ones(hi - lo, dtype=np.int64)
        budget = np.full(hi - lo, cap, dtype=np.int64)
        _, steps[lo:hi], sw, _, hit = _run_stretch(
            rng, plain, start, threshold, need, budget, blocks, blocks.spares(1)[0],
            _EXCURSION_COLS0,
        )
        truncations += int(np.count_nonzero((sw == 0) & ~hit))
        _, _, sw, y, hit = _run_stretch(
            rng, sampled, start, threshold, need, budget, blocks, blocks.spares(1)[0],
            _EXCURSION_COLS0,
        )
        cut = (sw == 0) & ~hit
        truncations += int(np.count_nonzero(cut))
        weights[lo:hi] = np.where(hit, np.exp(-y), np.where(cut, math.exp(-threshold), 0.0))
    return steps, weights, truncations


def _renewal_arl(
    ell: np.ndarray, ell_se: np.ndarray, p: np.ndarray, p_se: np.ndarray, cls: np.ndarray
) -> tuple[float, float]:
    """Run length over the unit cycle from the per-class mean exit time ell
    and alarm probability p of one visit, with its delta-method standard
    error over the independent class estimates; ``cls`` gives each unit's
    class in cycle order."""
    log_q = np.log1p(-p)  # p <= 1/gamma < 1
    # reach[i]: probability that no visit before unit i alarms
    reach = np.exp(np.concatenate(([0.0], np.cumsum(log_q[cls])[:-1])))
    num = float(reach @ ell[cls])
    den = -math.expm1(float(log_q[cls].sum()))
    # d reach[i] / d p_c = -before[i, c] reach[i] / (1 - p_c)
    member = cls[:, None] == np.arange(p.size)
    before = np.cumsum(member, axis=0) - member
    d_ell = member.T @ reach / den
    d_num_p = -((reach * ell[cls]) @ before) / (1.0 - p)
    d_den_p = (1.0 - den) * member.sum(axis=0) / (1.0 - p)
    d_p = (d_num_p * den - num * d_den_p) / den**2
    var = float(np.sum((d_ell * ell_se) ** 2) + np.sum((d_p * p_se) ** 2))
    return num / den, math.sqrt(var)


def estimate_arl(
    model: ChangePointModel,
    config: RunSpec,
    cap: int,
    threads: int = 1,
) -> DelayEstimate:
    """Average run length to false alarm at threshold log(gamma), with the
    policy cycling through model.units.

    The renewal estimate of the module docstring: for each pre-change class,
    config.replications plain excursions give the mean exit time of one visit
    and as many importance-sampled excursions its alarm probability. The runs
    start before any change, so config.nu must be 0. ``cap``, at most 2^63 -
    1, is the step budget of every excursion. A truncated plain excursion
    enters the mean exit time at the cap and a truncated sampled one enters the
    alarm probability at 1/gamma, its largest possible contribution, so with
    truncations the estimate is a lower bound. Each batch of excursions is
    seeded independently from config.seed, so the estimate is reproducible
    bit for bit.

    Every excursion runs in the calling process. ``threads`` must be at least
    1 and is otherwise ignored: it stays only because the benchmark's pool
    probe passes it, and goes when ROADMAP item 1 removes that probe.
    """
    if not 1 <= cap <= np.iinfo(np.int64).max:
        # every excursion's budget is an int64 step count
        raise ValueError(f"cap must lie in [1, 2^63 - 1], got {cap}")
    if config.nu != 0:
        raise ValueError(f"nu {config.nu} has no meaning for a run length, which starts before any change")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _, first, cls = model.class_table(model.units)
    blocks = _thread_blocks()
    ell, ell_se, p, p_se = (np.empty(len(first)) for _ in range(4))
    truncations = 0
    for c, E in enumerate(first):
        steps, weights, cut = _run_excursions(
            model, E, c, math.log(config.gamma), config.seed, config.replications, cap, blocks
        )
        ell[c], ell_se[c] = sample_mean(steps)
        p[c], p_se[c] = sample_mean(weights)
        truncations += cut
    if not p.any():
        raise RuntimeError("no importance-sampled excursion reached the threshold; raise replications")
    mean, stderr = _renewal_arl(ell, ell_se, p, p_se, cls)
    return DelayEstimate(mean=mean, stderr=stderr, replications=config.replications, truncations=truncations)


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
    stats_reps: int = 100_000,
    ladder_reps: int = 20_000,
) -> list[StudyRow]:
    """Delay estimates and bounds over config.s_values for one (m, gamma)."""
    model = correlated_blocks_model(config.K, config.m, config.rho)
    rows = []
    stats_cache: dict = {}
    for idx, s in enumerate(config.s_values):
        hypothesis = correlated_block_hypothesis(model, config.rho, s=s)
        point = replace(config, seed=derive_seed(config.seed, config.m, idx))
        est = estimate_delay(model, hypothesis, point)
        lower = lower_bound_first_order(config.gamma, model, hypothesis)
        stats = compute_unit_statistics(
            model,
            hypothesis,
            reps=stats_reps,
            ladder_reps=ladder_reps,
            seed=config.seed,
            cache=stats_cache,
        )
        bound = nonasymptotic_upper_bound(math.log(config.gamma), model, hypothesis, stats)
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
                upper_bound=bound.total,
                upper_bound_coarse=bound.coarse_total,
            )
        )
    return rows


def run_study(
    study: int,
    replications: int | None = None,
    seed: int = 0,
    nu: int = 0,
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
                    stats_reps=stats_reps,
                    ladder_reps=ladder_reps,
                )
            )
    return rows
