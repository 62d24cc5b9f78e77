"""Information numbers, ladder probabilities, and detection delay bounds.

For a false alarm budget gamma the policy threshold is A = log(gamma). The
worst-case expected detection delay is bracketed by

  lower:  log(gamma) / max I over affected size-m subsets,
  upper:  max A / J over affected sampled units, plus second-order terms,

where I is the information number (Kullback-Leibler divergence of the true
post-change local law against the pre-change law) and J is the post-change
drift of the mixture log likelihood ratio. The explicit second-order terms
charge one restart cost at the affected units and the expected passage time
through the unaffected ones, via ladder escape probabilities of the local
random walks: the probability that a pre-change walk never ascends, by a
change of measure to the mixture law (``ladder_prob_no_ascend``), and that a
post-change walk never descends, as one over the mean epoch of its first weak
ascent (``ladder_prob_no_descend``). Both walk to a first passage above zero
in the same block loop.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, MutableMapping

import numpy as np

from .gaussian import GaussianLocal, gaussian_kl
from .model import (
    ChangePointModel,
    PostChangeHypothesis,
    Unit,
    affected_units,
    derive_rng,
    derive_seed,
)

__all__ = [
    "DegenerateBoundError",
    "Estimate",
    "UnitStatistics",
    "NonAsymptoticBound",
    "BoundsReport",
    "OptimalityClass",
    "info_number",
    "drift_post",
    "drift_pre",
    "llr_second_moment",
    "ladder_prob_no_descend",
    "ladder_prob_no_ascend",
    "lower_bound_first_order",
    "classify_optimality",
    "nonasymptotic_upper_bound",
    "compute_unit_statistics",
    "bounds_report",
    "UnitValidation",
    "ValidationReport",
    "validate_model",
]

# Longest walk of the ladder estimators; a walk cut here carries a bias note.
_LADDER_HORIZON = 1_000
_MIN_LADDER_REPS = 10_000
_MIN_DRIFT_REPS = 10_000
# Increments per block of a ladder walk, unless one column of the live walks
# holds more. Fixed, so that the estimate depends on the seed and reps only.
_BLOCK_ELEMENTS = 1 << 17
# Walks of the no-descend ladder per rep, and walks per group: each group
# starts with one block of one increment per walk.
_DESCENT_WALKS = 4
_WALK_GROUP = 1 << 14
# Relative slack within which the largest closed-form information number counts
# as equal to the smallest closed-form drift.
_OPTIMALITY_REL_TOL = 1e-9


class DegenerateBoundError(RuntimeError):
    """An estimated escape probability is zero or a post-change drift is not
    positive, so a bound degenerates to infinity."""


@dataclass(frozen=True)
class Estimate:
    """A scalar with its Monte Carlo standard error; stderr 0 marks a closed form."""

    value: float
    stderr: float = 0.0
    note: str | None = None


@dataclass(frozen=True)
class UnitStatistics:
    """Everything the delay bounds need about one unit.

    Post-change quantities (``drift_post``, ``second_moment``, ``q_no_descend``)
    are None for units the hypothesis does not affect. ``q_no_ascend`` is the
    probability that the pre-change random walk of the unit never becomes
    positive; ``q_no_descend`` that the post-change walk never becomes negative.
    """

    unit: Unit
    info_number: Estimate
    drift_pre: Estimate
    q_no_ascend: Estimate
    drift_post: Estimate | None = None
    second_moment: Estimate | None = None
    q_no_descend: Estimate | None = None


def info_number(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    unit: Unit,
    reps: int = 100_000,
    seed: int = 0,
) -> Estimate:
    """Information number of the unit: KL of its true post-change law against
    its pre-change law. Returns 0 with a note when the unit is not affected.

    The closed form is used when both laws are Gaussian; otherwise the value is
    a Monte Carlo mean over ``reps`` draws from the post-change law.
    """
    if unit not in set(model.units):
        raise ValueError(f"unit {unit} is not sampled by this model")
    if not hypothesis.is_affected(unit):
        return Estimate(0.0, 0.0, note="not affected")
    f = model.pre_local[unit]
    g = hypothesis.local_post[unit]
    if isinstance(f, GaussianLocal) and isinstance(g, GaussianLocal):
        return Estimate(gaussian_kl(g, f), 0.0)
    x = g.sample(derive_rng(seed, 0x1F0), reps)
    vals = np.asarray(g.logpdf(x)) - np.asarray(f.logpdf(x))
    return Estimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps)))


def drift_post(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    unit: Unit,
    reps: int = 100_000,
    seed: int = 0,
) -> Estimate:
    """Post-change mean of the mixture log likelihood ratio of an affected unit.

    Exact (stderr 0) when the class carries its moments, as a one-member
    Gaussian family does; otherwise a Monte Carlo mean over ``reps``
    increments.
    """
    if reps < _MIN_DRIFT_REPS:
        raise ValueError(f"reps must be at least {_MIN_DRIFT_REPS}, got {reps}")
    if not hypothesis.is_affected(unit):
        raise ValueError(f"unit {unit} is not affected under {hypothesis.label}")
    exact = _exact_drift(model, hypothesis, unit)
    if exact is not None:
        return Estimate(exact, 0.0)
    vals = model.unit_class(unit, hypothesis.local_post[unit]).draw(derive_rng(seed, 0x2F0), reps)
    return Estimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps)))


def _exact_drift(model: ChangePointModel, hypothesis: PostChangeHypothesis, unit: Unit) -> float | None:
    """Closed-form post-change drift of an affected unit, or None.

    With a one-member Gaussian family g1 and Gaussian laws f and g, the
    mixture llr log g1 - log f is a quadratic form in normals whose mean the
    class kernel carries (``UnitClass.moments``). It equals KL(g || f) -
    KL(g || g1): the information number when g = g1, and less otherwise.
    """
    moments = model.unit_class(unit, hypothesis.local_post[unit]).moments
    return None if moments is None else moments[0]


def drift_pre(
    model: ChangePointModel,
    unit: Unit,
    reps: int = 100_000,
    seed: int = 0,
) -> Estimate:
    """Pre-change mean of the negated mixture log likelihood ratio.

    This is the KL divergence of the pre-change law against the mixture and
    must be positive for the policy to leave unaffected units. Exact (stderr
    0) when the class carries its moments, as a one-member Gaussian family
    does; otherwise a Monte Carlo mean over ``reps`` increments. A value not
    clearing zero by three standard errors is flagged, not raised.
    """
    if reps < _MIN_DRIFT_REPS:
        raise ValueError(f"reps must be at least {_MIN_DRIFT_REPS}, got {reps}")
    cls = model.unit_class(unit)
    if cls.moments is not None:
        mean, se = -cls.moments[0], 0.0
    else:
        vals = cls.draw(derive_rng(seed, 0x3F0), reps)
        mean = -float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(reps))
    note = None if mean > 3.0 * se else "drift sign not resolved at three standard errors"
    return Estimate(mean, se, note=note)


def llr_second_moment(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    unit: Unit,
    reps: int = 100_000,
    seed: int = 0,
) -> Estimate:
    """Post-change variance of the mixture log likelihood ratio of an affected
    unit: exact (stderr 0) when the class carries its moments, otherwise the
    sample variance of ``reps`` increments."""
    if reps < _MIN_DRIFT_REPS:
        raise ValueError(f"reps must be at least {_MIN_DRIFT_REPS}, got {reps}")
    if not hypothesis.is_affected(unit):
        raise ValueError(f"unit {unit} is not affected under {hypothesis.label}")
    cls = model.unit_class(unit, hypothesis.local_post[unit])
    if cls.moments is not None:
        return Estimate(cls.moments[1], 0.0)
    vals = cls.draw(derive_rng(seed, 0x4F0), reps)
    var = float(vals.var(ddof=1))
    # standard error of the sample variance via the fourth central moment,
    # centred and raised in place
    vals -= vals.mean()
    m4 = float(np.power(vals, 4, out=vals).mean())
    se = math.sqrt(max(m4 - var * var, 0.0) / reps)
    return Estimate(var, se)


def _first_passage(
    draw: Callable[[np.random.Generator, int], np.ndarray],
    rng: np.random.Generator,
    walks: int,
    weak: bool = False,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Advance ``walks`` random walks with increments from ``draw`` to their
    first passage above zero: the first n with S_n > 0, or S_n >= 0 when
    ``weak``, within ``_LADDER_HORIZON`` steps.

    The live walks advance together in blocks of (walks, columns), the
    columns doubling from 1 and capped by ``_BLOCK_ELEMENTS`` over the live
    walks. A walk leaves at its passage, and the rest of its block is not
    used. Yields, block by block, the walks live at its start: their
    indices, their passage epochs (0 for a walk still below at the end of
    the block) and their levels at passage or at the end of the block. The
    first block is one increment per walk.
    """
    live = np.arange(walks)
    level = np.zeros(walks)
    steps, cols = 0, 1
    while live.size and steps < _LADDER_HORIZON:
        k = live.size
        n = min(cols, max(1, _BLOCK_ELEMENTS // k), _LADDER_HORIZON - steps)
        walk = draw(rng, k * n).reshape(k, n)
        if n == 1:
            # one column: its level is the increment added, and a passage
            # falls on its only step
            level = level + walk[:, 0]
            done, j = (level >= 0.0 if weak else level > 0.0), 0
        else:
            np.cumsum(walk, axis=1, out=walk)
            walk += level[:, None]
            up = walk >= 0.0 if weak else walk > 0.0
            rows, j = np.arange(k), up.argmax(axis=1)
            done = up[rows, j]
            j[~done] = n - 1
            level = walk[rows, j]
        yield live, np.where(done, steps + 1 + j, 0), level
        level, live = level[~done], live[~done]
        steps += n
        cols *= 2


def ladder_prob_no_descend(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    unit: Unit,
    reps: int = 2 * _MIN_LADDER_REPS,
    seed: int = 0,
) -> Estimate:
    """Probability that the post-change random walk of an affected unit never
    drops below zero, by ladder duality over ``_DESCENT_WALKS * reps`` walks.

    With tau the first n at which S_n >= 0, E[tau] = sum_n P(S_1 < 0, ...,
    S_n < 0), and by reversal the n-th term is the chance that n is a strict
    descending ladder epoch; so E[tau] = 1 / P(S_n >= 0 for all n) (Feller,
    vol. II, XII.2). Under a positive drift tau is short: 1 to 3 steps on
    average on the presets. The estimate is q = 1 / mean(tau), with
    delta-method standard error q^2 std(tau) / sqrt(walks) and an upward
    ratio bias of order q^3 var(tau) / walks. At equal counts this standard
    error is 1.3 to 2 times that of Spitzer's series exp(-sum_n P(S_n < 0) /
    n) over as many paths, so four walks per rep keep it from growing.

    The walks run in groups of ``_WALK_GROUP`` with running sums of tau and
    tau^2, so memory does not grow with ``reps``. A walk still below zero
    after ``_LADDER_HORIZON`` steps counts with tau at the horizon, which
    biases the estimate upward; a note then gives the number cut. A walk
    whose first block of increments has a mean that does not exceed 0 does
    not drift up, and its estimate is exactly 0, with a note.
    """
    if reps < _MIN_LADDER_REPS:
        raise ValueError(f"reps must be at least {_MIN_LADDER_REPS}, got {reps}")
    if not hypothesis.is_affected(unit):
        raise ValueError(f"unit {unit} is not affected under {hypothesis.label}")
    draw = model.unit_class(unit, hypothesis.local_post[unit]).draw
    rng = derive_rng(seed, 0x5F0)
    walks = _DESCENT_WALKS * reps
    passed = total = square = 0
    for lo in range(0, walks, _WALK_GROUP):
        for b, (_, tau, level) in enumerate(_first_passage(draw, rng, min(_WALK_GROUP, walks - lo), weak=True)):
            if lo == b == 0 and not level.mean() > 0.0:
                note = f"walk does not drift up: mean increment {level.mean():.4g} over the first {level.size}"
                return Estimate(0.0, 0.0, note=note)
            tau = tau[tau > 0]
            passed += tau.size
            total += int(tau.sum())
            square += int((tau * tau).sum())
    cut = walks - passed
    total += cut * _LADDER_HORIZON
    square += cut * _LADDER_HORIZON**2
    q = walks / total
    sd = math.sqrt((walks * square - total * total) / (walks * (walks - 1)))
    note = None
    if cut:
        note = f"{cut} of {walks} walks cut at horizon {_LADDER_HORIZON}, counted as ascending there: biased upward"
    return Estimate(q, q * q * sd / math.sqrt(walks), note=note)


def ladder_prob_no_ascend(
    model: ChangePointModel,
    unit: Unit,
    reps: int = 2 * _MIN_LADDER_REPS,
    seed: int = 0,
) -> Estimate:
    """Probability that the pre-change random walk of a unit never exceeds
    zero, by a change of measure to the mixture law over ``reps`` walks.

    Before the change an increment is X = log(mix / f)(x) with x ~ f, so
    E_f[e^X] = 1 whatever the family, and the mixture law is f tilted by
    e^X. With tau the first n at which S_n > 0, Wald's likelihood ratio
    identity gives P_f(tau < inf) = E_mix[e^{-S_tau}; tau < inf] (Siegmund
    1976, Ann. Statist. 4), the identity behind the run length of
    ``estimate_arl``. Under the mixture law (``ChangePointModel.mixture_draw``)
    the walk drifts up by KL(mix || f), so tau is short.
    The estimate is 1 - mean(e^{-S_tau}) with standard error
    std(e^{-S_tau}) / sqrt(reps). A walk still at or below zero after
    ``_LADDER_HORIZON`` steps counts with weight 0, which biases the
    estimate upward by at most P_mix(tau > _LADDER_HORIZON); a note then
    gives the fraction of walks cut. A family equal to f makes the llr 0, so
    every walk is cut and the estimate is 1, as it should be.

    The identity needs ``logpdf`` of every law to be a normalized log
    density; it does not hold under a post-change law, where E_g[e^X] != 1.
    """
    if reps < _MIN_LADDER_REPS:
        raise ValueError(f"reps must be at least {_MIN_LADDER_REPS}, got {reps}")
    weights = np.zeros(reps)
    passed = 0
    for index, tau, level in _first_passage(model.mixture_draw(unit), derive_rng(seed, 0x6F0), reps):
        up = tau > 0
        weights[index[up]] = np.exp(-level[up])
        passed += int(up.sum())
    cut = reps - passed
    note = None
    if cut:
        note = (
            f"{cut} of {reps} walks cut at horizon {_LADDER_HORIZON}: biased upward by at most "
            f"the chance of a cut, estimated at {cut / reps:.3g}"
        )
    return Estimate(1.0 - float(weights.mean()), float(weights.std(ddof=1)) / math.sqrt(reps), note=note)


def _per_class(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis | None,
    reps: int,
    seed: int,
    cache: MutableMapping,
    ladder_reps: int | None = None,
) -> dict[Unit, dict[str, Estimate]]:
    """Estimates of every unit, made once per class and shared by its units.

    The two tables are ``model.class_table`` of ``model.units`` before the
    change and of the affected units after it. The k-th class of a table is
    estimated at its first unit from seeds salted with k: the drifts, and
    with ``ladder_reps`` the ladder probabilities, the information number and
    the second moment. ``cache`` keeps each class under its table, key and
    index; the classes missing from it are estimated one after another in the
    calling thread. Every estimate draws from its own seed, so a class gets
    the same estimates whichever other classes are estimated with it.
    """

    def pre(E: Unit, k: int) -> dict[str, Estimate]:
        out = dict(drift_pre=drift_pre(model, E, reps=reps, seed=derive_seed(seed, k, 2)))
        if ladder_reps is not None:
            out["q_no_ascend"] = ladder_prob_no_ascend(model, E, reps=ladder_reps, seed=derive_seed(seed, k, 3))
        return out

    def post(E: Unit, j: int) -> dict[str, Estimate]:
        out = dict(drift_post=drift_post(model, hypothesis, E, reps=reps, seed=derive_seed(seed, j, 4)))
        if ladder_reps is not None:
            out.update(
                info_number=info_number(model, hypothesis, E, reps=reps, seed=derive_seed(seed, j, 1)),
                second_moment=llr_second_moment(model, hypothesis, E, reps=reps, seed=derive_seed(seed, j, 5)),
                q_no_descend=ladder_prob_no_descend(
                    model, hypothesis, E, reps=ladder_reps, seed=derive_seed(seed, j, 6)
                ),
            )
        return out

    affected = [E for E in model.units if hypothesis is not None and hypothesis.is_affected(E)]
    out: dict[Unit, dict] = {E: {} for E in model.units}
    for t, (units, hyp, estimate) in enumerate(((model.units, None, pre), (affected, hypothesis, post))):
        classes, first, index = model.class_table(units, hyp)
        keys = [(t, cls.key, k) for k, cls in enumerate(classes)]
        for key, E in zip(keys, first):
            if key not in cache:
                cache[key] = estimate(E, key[2])
        for E, k in zip(units, index):
            out[E].update(cache[keys[k]])
    return out


def compute_unit_statistics(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    reps: int = 100_000,
    ladder_reps: int = 2 * _MIN_LADDER_REPS,
    seed: int = 0,
    cache: MutableMapping | None = None,
) -> dict[Unit, UnitStatistics]:
    """Per-unit statistics for the delay bounds, estimated once per class and
    shared by its units: ``drift_pre`` and ``q_no_ascend`` per pre-change
    class of ``model.units``, the rest per post-change class of the affected
    units (``model.class_table``). The ladder probabilities take
    ``ladder_reps`` as their ``reps``, with walks of at most
    ``_LADDER_HORIZON`` steps. A ``cache`` shared between calls
    with the same budgets and seed keeps the estimates per class, so a class
    already in it is not estimated again; the results equal those of a call
    without it.
    """
    per_unit = _per_class(model, hypothesis, reps, seed, {} if cache is None else cache, ladder_reps)
    unaffected = Estimate(0.0, 0.0, note="not affected")
    return {E: UnitStatistics(unit=E, **{"info_number": unaffected, **f}) for E, f in per_unit.items()}


def _largest_info(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    info: Mapping[Unit, float] | None,
) -> tuple[float, bool]:
    """Largest information number over affected subsets, and whether the
    maximum had to be restricted to the sampled units.

    The hypothesis may carry the unrestricted maximum in closed form. Without
    it, the maximum is taken over ``info`` at the sampled affected units: exact
    when the model samples every size-m subset, and restricted otherwise.
    """
    if hypothesis.info_number_max is not None:
        return float(hypothesis.info_number_max), False
    affected = affected_units(model, hypothesis)
    if not affected:
        raise ValueError("the hypothesis affects no sampled unit; no information to detect")
    if info is None:
        raise ValueError(
            "the hypothesis has no closed-form largest information number; "
            "pass the unit statistics of compute_unit_statistics"
        )
    return max(info[E] for E in affected), len(model.units) < math.comb(model.K, model.m)


def lower_bound_first_order(
    gamma: float,
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    unit_stats: Mapping[Unit, UnitStatistics] | None = None,
) -> float:
    """First-order lower bound on the worst-case expected detection delay of
    any policy with false alarm budget gamma: log(gamma) over the largest
    information number of an affected subset. Vanishing-correction factors of
    order (1 + o(1)) are dropped.

    The largest information number is the hypothesis's closed form when it
    carries one, else the largest in ``unit_stats``."""
    if not 1.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and exceed 1, got {gamma}")
    info = None if unit_stats is None else {E: st.info_number.value for E, st in unit_stats.items()}
    top, _ = _largest_info(model, hypothesis, info)
    return _lower_bound(gamma, top)


def _lower_bound(gamma: float, top: float) -> float:
    if top <= 0.0:
        raise ValueError("lower bound undefined: no affected subset carries information")
    return math.log(gamma) / top


class OptimalityClass(enum.Enum):
    ASYMPTOTICALLY_OPTIMAL = "asymptotically_optimal"
    BOUNDED_ARE = "bounded_are"
    INDETERMINATE = "indeterminate"


def classify_optimality(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
) -> OptimalityClass:
    """Best optimality guarantee for the policy under the hypothesis.

    ASYMPTOTICALLY_OPTIMAL requires a singleton family at every affected
    sampled unit and a verified match between the largest affected
    information number and the smallest post-change drift over affected
    sampled units; the match is only certified on closed forms, never on Monte
    Carlo estimates. BOUNDED_ARE is returned when every affected family is a
    singleton (the match being unverifiable or failing), or when the mixture
    increment mean is known to be invariant across each affected family.
    Everything else is INDETERMINATE: in particular a hypothesis that affects
    no sampled unit, and one with a closed-form drift that is not positive.
    """
    affected = affected_units(model, hypothesis)
    if not affected:
        return OptimalityClass.INDETERMINATE
    if all(len(model.post_family[E]) == 1 for E in affected):
        drifts = [_exact_drift(model, hypothesis, E) for E in affected]
        if any(j is not None and j <= 0.0 for j in drifts):
            return OptimalityClass.INDETERMINATE
        if all(j is not None for j in drifts):
            # f and g are Gaussian wherever a class kernel carries the drift
            info = {E: gaussian_kl(hypothesis.local_post[E], model.pre_local[E]) for E in affected}
            top, restricted = _largest_info(model, hypothesis, info)
            if not restricted and top <= min(drifts) * (1.0 + _OPTIMALITY_REL_TOL):
                return OptimalityClass.ASYMPTOTICALLY_OPTIMAL
        return OptimalityClass.BOUNDED_ARE
    if hypothesis.mixture_mean_invariant:
        return OptimalityClass.BOUNDED_ARE
    return OptimalityClass.INDETERMINATE


@dataclass(frozen=True)
class NonAsymptoticBound:
    """Explicit upper bound on the worst-case expected detection delay,
    valid for every large enough threshold.

    ``total`` adds the first-order term, the expected passage time through
    unaffected units, the restart and overshoot cost at the affected units,
    and a user-supplied additive constant that the analysis leaves unspecified.
    ``coarse_total`` replaces the passage term with a simpler bound built from
    the worst escape probabilities alone; evaluated on the same estimates it
    always dominates ``total``.
    """

    threshold: float
    first_order: float
    unaffected_passage: float
    affected_overshoot: float
    additive_constant: float
    coarse_unaffected_passage: float

    @property
    def total(self) -> float:
        return self.first_order + self.unaffected_passage + self.affected_overshoot + self.additive_constant

    @property
    def coarse_total(self) -> float:
        return (
            self.first_order
            + self.coarse_unaffected_passage
            + self.affected_overshoot
            + self.additive_constant
        )


def nonasymptotic_upper_bound(
    A: float,
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    unit_stats: Mapping[Unit, UnitStatistics],
    additive_constant: float = 0.0,
) -> NonAsymptoticBound:
    """Evaluate the explicit delay bound from precomputed unit statistics.

    Raises DegenerateBoundError when an unaffected unit has an estimated zero
    escape probability or every affected unit has an estimated zero
    no-descend probability, since the bound is then infinite.
    """
    if not A > 0.0:
        raise ValueError(f"threshold must be positive, got {A}")
    affected = sorted(affected_units(model, hypothesis))
    if not affected:
        raise ValueError("the hypothesis affects no sampled unit; no finite delay bound exists")
    missing = [E for E in model.units if E not in unit_stats]
    if missing:
        raise ValueError(f"unit statistics missing for {missing[:3]}")
    for E in affected:
        st = unit_stats[E]
        if st.drift_post is None or st.second_moment is None or st.q_no_descend is None:
            raise ValueError(f"unit statistics for affected unit {E} lack post-change entries")

    j = {E: unit_stats[E].drift_post.value for E in affected}
    if min(j.values()) <= 0.0:
        raise DegenerateBoundError("estimated post-change drift is nonpositive for some affected unit")
    first_order = max(A / j[E] for E in affected)

    overshoot = 0.0
    for E in affected:
        st = unit_stats[E]
        q = st.q_no_descend.value
        if q <= 0.0:
            raise DegenerateBoundError(f"no-descend probability of {E} estimated as zero")
        overshoot = max(overshoot, (1.0 / q) * (1.0 + st.second_moment.value / j[E] ** 2))

    unaffected = [E for E in model.units if E not in set(affected)]
    if unaffected:
        stall = 1.0
        for E in affected:
            stall *= 1.0 - unit_stats[E].q_no_descend.value
        if stall >= 1.0:
            raise DegenerateBoundError("every affected unit has no-descend probability zero")
        inv_sum = 0.0
        for E in unaffected:
            q = unit_stats[E].q_no_ascend.value
            if q <= 0.0:
                raise DegenerateBoundError(f"no-ascend probability of {E} estimated as zero")
            inv_sum += 1.0 / q
        passage = inv_sum / (1.0 - stall)
        p_minus = min(unit_stats[E].q_no_descend.value for E in affected)
        p_plus = min(unit_stats[E].q_no_ascend.value for E in model.units)
        if p_plus <= 0.0:
            raise DegenerateBoundError("smallest no-ascend probability estimated as zero")
        coarse = (len(unaffected) / p_plus) / (1.0 - (1.0 - p_minus) ** len(affected))
        # The coarse term dominates in exact arithmetic, with equality when the
        # escape probabilities coincide; rounding can put it an ulp below.
        coarse = max(coarse, passage)
    else:
        passage = 0.0
        coarse = 0.0

    return NonAsymptoticBound(
        threshold=A,
        first_order=first_order,
        unaffected_passage=passage,
        affected_overshoot=overshoot,
        additive_constant=float(additive_constant),
        coarse_unaffected_passage=coarse,
    )


@dataclass(frozen=True)
class BoundsReport:
    """All bound-related quantities for one model and hypothesis."""

    gamma: float
    threshold: float
    seed: int
    lower_bound: float
    lower_bound_restricted: bool
    upper_bound_first_order: float
    are_bound: float
    optimality: OptimalityClass
    unit_stats: Mapping[Unit, UnitStatistics]
    nonasymptotic: NonAsymptoticBound | None = None
    degenerate: str | None = None

    def to_flat_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "gamma": self.gamma,
            "threshold": self.threshold,
            "seed": self.seed,
            "lower_bound": self.lower_bound,
            "lower_bound_restricted": self.lower_bound_restricted,
            "upper_bound_first_order": self.upper_bound_first_order,
            "are_bound": self.are_bound,
            "optimality": self.optimality.value,
        }
        if self.nonasymptotic is not None:
            b = self.nonasymptotic
            out["upper_bound_total"] = b.total
            out["upper_bound_coarse"] = b.coarse_total
            out["upper_bound_unaffected_passage"] = b.unaffected_passage
            out["upper_bound_affected_overshoot"] = b.affected_overshoot
            out["upper_bound_additive_constant"] = b.additive_constant
        else:
            out["upper_bound_total"] = math.inf
            out["upper_bound_coarse"] = math.inf
        if self.degenerate is not None:
            out["degenerate"] = self.degenerate
        for E in sorted(self.unit_stats):
            st = self.unit_stats[E]
            tag = "unit." + "-".join(str(k) for k in E.sources)
            out[f"{tag}.info_number"] = st.info_number.value
            out[f"{tag}.info_number.se"] = st.info_number.stderr
            out[f"{tag}.drift_pre"] = st.drift_pre.value
            out[f"{tag}.drift_pre.se"] = st.drift_pre.stderr
            out[f"{tag}.q_no_ascend"] = st.q_no_ascend.value
            out[f"{tag}.q_no_ascend.se"] = st.q_no_ascend.stderr
            if st.drift_post is not None:
                out[f"{tag}.drift_post"] = st.drift_post.value
                out[f"{tag}.drift_post.se"] = st.drift_post.stderr
                out[f"{tag}.second_moment"] = st.second_moment.value
                out[f"{tag}.second_moment.se"] = st.second_moment.stderr
                out[f"{tag}.q_no_descend"] = st.q_no_descend.value
                out[f"{tag}.q_no_descend.se"] = st.q_no_descend.stderr
        return out


def bounds_report(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis,
    gamma: float,
    reps: int = 100_000,
    ladder_reps: int = 2 * _MIN_LADDER_REPS,
    seed: int = 0,
    additive_constant: float = 0.0,
) -> BoundsReport:
    """Compute every bound for the model and hypothesis at threshold log(gamma).

    A bound that degenerates is reported as infinite, and ``degenerate``
    says why. The lower bound, the first-order upper bound A / J and the
    efficiency ratio bound I / J read the unit statistics that the explicit
    bound uses: J is the smallest post-change drift over affected sampled
    units, and I the hypothesis's closed form or else the largest
    information number in the statistics.
    """
    if not 1.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and exceed 1, got {gamma}")
    affected = affected_units(model, hypothesis)
    if not affected:
        raise ValueError("the hypothesis affects no sampled unit; no information to detect")
    A = math.log(gamma)
    stats = compute_unit_statistics(model, hypothesis, reps=reps, ladder_reps=ladder_reps, seed=seed)
    top, restricted = _largest_info(model, hypothesis, {E: st.info_number.value for E, st in stats.items()})
    lower = _lower_bound(gamma, top)
    j = min(stats[E].drift_post.value for E in affected)
    nonasym = degenerate = None
    if j > 0.0:
        upper1, are = A / j, top / j
        try:
            nonasym = nonasymptotic_upper_bound(A, model, hypothesis, stats, additive_constant)
        except DegenerateBoundError as exc:
            degenerate = str(exc)
    else:
        upper1 = are = math.inf
        degenerate = f"upper bound degenerate: smallest post-change drift is {j:.4g}"
    return BoundsReport(
        gamma=gamma,
        threshold=A,
        seed=seed,
        lower_bound=lower,
        lower_bound_restricted=restricted,
        upper_bound_first_order=upper1,
        are_bound=are,
        optimality=classify_optimality(model, hypothesis),
        unit_stats=stats,
        nonasymptotic=nonasym,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class UnitValidation:
    """The drifts behind the delay bounds at one unit: ``drift_pre`` always,
    ``drift_post`` when the hypothesis affects the unit."""

    unit: Unit
    family_size: int
    drift_pre: Estimate
    drift_post: Estimate | None = None


def _clears_zero(e: Estimate) -> bool:
    return e.value > 3.0 * e.stderr


@dataclass(frozen=True)
class ValidationReport:
    per_unit: tuple[UnitValidation, ...]
    affected_nonempty: bool | None
    mc_budget: int
    seed: int

    @property
    def ok(self) -> bool:
        drifts = [e for u in self.per_unit for e in (u.drift_pre, u.drift_post) if e is not None]
        return all(map(_clears_zero, drifts)) and self.affected_nonempty is not False

    def lines(self) -> list[str]:
        out = []
        for u in self.per_unit:
            kind = "singleton" if u.family_size == 1 else "mixture"
            parts = [f"unit {u.unit}: family={u.family_size}", kind]
            for name, e in (("pre-drift", u.drift_pre), ("post-drift", u.drift_post)):
                if e is not None:
                    verdict = "ok" if _clears_zero(e) else "FAIL"
                    parts.append(f"{name} {e.value:+.4f} (se {e.stderr:.4f}) {verdict}")
            out.append("  ".join(parts))
        if self.affected_nonempty is not None:
            out.append(
                "affected sampled units: "
                + ("present" if self.affected_nonempty else "NONE (hypothesis invisible to the policy)")
            )
        out.append(f"overall: {'ok' if self.ok else 'FAIL'}")
        return out


def validate_model(
    model: ChangePointModel,
    hypothesis: PostChangeHypothesis | None = None,
    mc_budget: int = _MIN_DRIFT_REPS,
    seed: int = 0,
) -> ValidationReport:
    """Sign checks of the drift assumptions behind the delay bounds.

    For every sampled unit the mixture log likelihood ratio must drift down
    before the change; for every affected unit it must drift up after. Each
    check passes when the estimated mean clears zero by three standard errors,
    so a Monte Carlo pass is wrong with probability about 1e-3 per class. The
    drifts are those of ``compute_unit_statistics`` at ``reps=mc_budget`` and
    the same seed: one estimate per class, without the ladders.
    """
    if mc_budget < _MIN_DRIFT_REPS:
        raise ValueError(f"mc_budget must be at least {_MIN_DRIFT_REPS}, got {mc_budget}")
    per_unit = _per_class(model, hypothesis, mc_budget, seed, {})
    rows = tuple(
        UnitValidation(unit=E, family_size=len(model.post_family[E]), **f) for E, f in per_unit.items()
    )
    return ValidationReport(
        per_unit=rows,
        affected_nonempty=bool(affected_units(model, hypothesis)) if hypothesis is not None else None,
        mc_budget=mc_budget,
        seed=seed,
    )
