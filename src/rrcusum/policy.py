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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import ChangePointModel, PostChangeHypothesis, Unit

__all__ = [
    "IllegalStateError",
    "NumericError",
    "Decision",
    "RoundRobinCusum",
    "RunResult",
    "run_to_alarm",
]

DEFAULT_MAX_STEPS = 10**8


class IllegalStateError(RuntimeError):
    """Raised when a stopped policy is stepped again."""


class NumericError(RuntimeError):
    """Raised when a non-finite log likelihood ratio reaches the policy."""


class Decision(enum.Enum):
    CONTINUE = "continue"
    SWITCH = "switch"
    ALARM = "alarm"


class RoundRobinCusum:
    """One run of the policy: its statistic, its position in the order, the
    number of steps taken and whether it has raised an alarm.

    ``threshold`` is the alarm level A in nats, strictly positive. For a false
    alarm budget gamma the calibrated choice is A = log(gamma). ``order`` is
    the permutation of the model's units the policy cycles through,
    ``model.units`` by default. The policy starts at the first unit of the
    order with statistic 0.
    """

    def __init__(
        self, model: ChangePointModel, threshold: float, order: Sequence[Unit] | None = None
    ) -> None:
        if not math.isfinite(threshold) or threshold <= 0.0:
            raise ValueError(f"threshold must be positive and finite, got {threshold}")
        order = tuple(model.units if order is None else order)
        # the model's units are distinct and nonempty, so this also refuses
        # repeats and an empty order
        if len(order) != len(model.units) or set(order) != set(model.units):
            raise ValueError("order must be a permutation of the model units, without repeats")
        self.threshold = threshold
        self.order = order
        self.statistic = 0.0
        self.cursor = 0
        self.step_count = 0
        self.stopped = False

    @property
    def unit(self) -> Unit:
        """Unit to observe next, or the unit that raised the alarm once stopped."""
        return self.order[self.cursor]

    def step(self, llr: float) -> Decision:
        """Advance by one observation of ``self.unit`` whose mixture llr is ``llr``.

        Pure arithmetic on the supplied value; the caller samples the
        observation and computes its llr. ``step_count`` afterwards is the
        1-based index of this step.
        """
        if self.stopped:
            raise IllegalStateError("policy already stopped, create a fresh one to run again")
        if not math.isfinite(llr):
            raise NumericError(f"non-finite log likelihood ratio at step {self.step_count + 1}: {llr!r}")
        y = max(self.statistic, 0.0) + float(llr)
        self.statistic = y
        self.step_count += 1
        if y >= self.threshold:
            self.stopped = True
            return Decision.ALARM
        if y <= 0.0:
            self.cursor = (self.cursor + 1) % len(self.order)
            return Decision.SWITCH
        return Decision.CONTINUE


@dataclass(frozen=True)
class RunResult:
    stopping_time: int | None
    alarming_unit: Unit | None
    delay: int | None
    visit_counts: Mapping[Unit, int]
    final_statistic: float
    truncated: bool


def run_to_alarm(
    model: ChangePointModel,
    threshold: float,
    hypothesis: PostChangeHypothesis | None = None,
    nu: int = 0,
    *,
    rng: np.random.Generator,
    order: Sequence[Unit] | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunResult:
    """Simulate one full run of ``RoundRobinCusum(model, threshold, order)``
    until alarm or ``max_steps``.

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
    policy = RoundRobinCusum(model, threshold, order)
    visits = dict.fromkeys(policy.order, 0)
    while not policy.stopped and policy.step_count < max_steps:
        E = policy.unit
        post_regime = hypothesis is not None and policy.step_count + 1 > nu
        law = hypothesis.local_post[E] if post_regime and hypothesis.is_affected(E) else model.pre_local[E]
        policy.step(float(model.mixture_llr(E, law.sample(rng, 1)[0])))
        visits[E] += 1
    T = policy.step_count if policy.stopped else None
    return RunResult(
        stopping_time=T,
        alarming_unit=policy.unit if policy.stopped else None,
        delay=T - nu if (T is not None and hypothesis is not None and T > nu) else None,
        visit_counts=visits,
        final_statistic=policy.statistic,
        truncated=not policy.stopped,
    )
