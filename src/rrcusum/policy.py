"""Round-robin CUSUM sampling and stopping policy.

The policy cycles through a fixed permutation of units. While observing unit E
it updates a single CUSUM-style statistic with the mixture log likelihood ratio
of E: Y_n = max(Y_{n-1}, 0) + llr. When the statistic drops to 0 or below, the
policy moves to the next unit in the permutation (wrapping around at the end)
and keeps the statistic value. When the statistic reaches the threshold A or
above, it raises an alarm. Both boundaries are inclusive: exactly 0 switches,
exactly A alarms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import ChangePointModel, PostChangeHypothesis, Unit

__all__ = [
    "IllegalStateError",
    "NumericError",
    "PolicyConfig",
    "PolicyState",
    "Decision",
    "StepDecision",
    "RunResult",
    "init_policy",
    "required_observation",
    "step",
    "run_to_alarm",
]

DEFAULT_MAX_STEPS = 10**8


class IllegalStateError(RuntimeError):
    """Raised when a stopped policy is stepped again."""


class NumericError(RuntimeError):
    """Raised when a non-finite log likelihood ratio reaches the policy."""


@dataclass(frozen=True)
class PolicyConfig:
    """Threshold and sampling order of the policy.

    ``threshold`` is the alarm level A in nats, strictly positive. For a false
    alarm budget gamma the calibrated choice is A = log(gamma). ``unit_order``
    is the permutation the policy cycles through.
    """

    threshold: float
    unit_order: tuple[Unit, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold) or self.threshold <= 0.0:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if not self.unit_order:
            raise ValueError("unit_order must not be empty")
        if len(set(self.unit_order)) != len(self.unit_order):
            raise ValueError("unit_order must not repeat units")


@dataclass
class PolicyState:
    """Mutable run state: current statistic, position in the order, step count."""

    config: PolicyConfig
    statistic: float = 0.0
    cursor: int = 0
    step_count: int = 0
    stopped: bool = False


class Decision(enum.Enum):
    CONTINUE = "continue"
    SWITCH = "switch"
    ALARM = "alarm"


@dataclass(frozen=True)
class StepDecision:
    """Outcome of one policy step.

    ``unit`` is the unit to observe next for CONTINUE and SWITCH, and the unit
    whose statistic crossed the threshold for ALARM. ``time`` is the 1-based
    index of the step just taken.
    """

    decision: Decision
    unit: Unit
    time: int


@dataclass(frozen=True)
class RunResult:
    stopping_time: int | None
    alarming_unit: Unit | None
    delay: int | None
    visit_counts: Mapping[Unit, int]
    final_statistic: float
    truncated: bool


def init_policy(model: ChangePointModel, config: PolicyConfig) -> PolicyState:
    """Fresh state at the first unit of the order with statistic 0."""
    if set(config.unit_order) != set(model.units) or len(config.unit_order) != len(model.units):
        raise ValueError("unit_order must be a permutation of the model units")
    return PolicyState(config=config)


def required_observation(state: PolicyState) -> Unit:
    """Unit whose observation the policy consumes at the next step."""
    return state.config.unit_order[state.cursor]


def step(state: PolicyState, llr_value: float) -> StepDecision:
    """Advance the policy by one observation whose mixture llr is ``llr_value``.

    Pure arithmetic on the supplied value; the caller is responsible for
    sampling the observation of ``required_observation(state)`` and computing
    its llr. Mutates ``state`` in place.
    """
    if state.stopped:
        raise IllegalStateError("policy already stopped, create a fresh state to run again")
    if not math.isfinite(llr_value):
        raise NumericError(
            f"non-finite log likelihood ratio at step {state.step_count + 1}: {llr_value!r}"
        )
    order = state.config.unit_order
    current = order[state.cursor]
    y = max(state.statistic, 0.0) + float(llr_value)
    state.statistic = y
    state.step_count += 1
    if y >= state.config.threshold:
        state.stopped = True
        return StepDecision(Decision.ALARM, current, state.step_count)
    if y <= 0.0:
        state.cursor = (state.cursor + 1) % len(order)
        return StepDecision(Decision.SWITCH, order[state.cursor], state.step_count)
    return StepDecision(Decision.CONTINUE, current, state.step_count)


def run_to_alarm(
    model: ChangePointModel,
    config: PolicyConfig,
    hypothesis: PostChangeHypothesis | None = None,
    nu: int = 0,
    *,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunResult:
    """Simulate one full run of the policy until alarm or ``max_steps``.

    Observations up to and including time ``nu`` come from the pre-change law.
    From time nu + 1 on, affected units follow the hypothesis law and all other
    units keep the pre-change law. ``hypothesis=None`` runs entirely under the
    pre-change regime, the no-change case. The run is a deterministic function
    of the state of ``rng``, which every call must give. Hitting ``max_steps``
    without an alarm is reported with ``truncated=True``, not raised.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    state = init_policy(model, config)
    visits: dict[Unit, int] = {E: 0 for E in config.unit_order}
    alarming = None
    while not state.stopped and state.step_count < max_steps:
        E = required_observation(state)
        post_regime = hypothesis is not None and state.step_count + 1 > nu
        if post_regime and hypothesis.is_affected(E):
            law = hypothesis.local_post[E]
        else:
            law = model.pre_local[E]
        x = law.sample(rng, 1)[0]
        llr = float(model.mixture_llr(E, x))
        decision = step(state, llr)
        visits[E] += 1
        if decision.decision is Decision.ALARM:
            alarming = decision.unit
    if not state.stopped:
        return RunResult(
            stopping_time=None,
            alarming_unit=None,
            delay=None,
            visit_counts=visits,
            final_statistic=state.statistic,
            truncated=True,
        )
    T = state.step_count
    delay = T - nu if (hypothesis is not None and T > nu) else None
    return RunResult(
        stopping_time=T,
        alarming_unit=alarming,
        delay=delay,
        visit_counts=visits,
        final_statistic=state.statistic,
        truncated=False,
    )
