"""Stepping rules of the cycling detection policy.

``RoundRobinCusum.step`` is pure arithmetic, so most tests drive it with
hand-picked or generated llr streams and compare against an inline reference
recursion.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcusum import policy
from rrcusum.gaussian import GaussianLocal
from rrcusum.model import ChangePointModel, PostChangeHypothesis, unit
from rrcusum.policy import (
    Decision,
    IllegalStateError,
    NumericError,
    RoundRobinCusum,
    RunResult,
    run_to_alarm,
)


def chain_model(n: int) -> ChangePointModel:
    """n scalar sources observed one at a time, unit mean shift after the change."""
    pre = GaussianLocal.standard(1)
    post = GaussianLocal(1.0, np.eye(1))
    units = tuple(unit(i) for i in range(1, n + 1))
    return ChangePointModel(
        K=n,
        m=1,
        units=units,
        pre_local={u: pre for u in units},
        post_family={u: (post,) for u in units},
    )


MODEL3 = chain_model(3)
ORDER3 = MODEL3.units


def fresh(threshold=2.0) -> RoundRobinCusum:
    return RoundRobinCusum(MODEL3, threshold)


def test_public_names():
    assert policy.__all__ == [
        "IllegalStateError",
        "NumericError",
        "Decision",
        "RoundRobinCusum",
        "RunResult",
        "run_to_alarm",
    ]


class TestPolicyConfig:
    """The threshold and order checks of the constructor."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            RoundRobinCusum(MODEL3, bad)

    def test_rejects_empty_order(self):
        with pytest.raises(ValueError, match="permutation"):
            RoundRobinCusum(MODEL3, 1.0, ())

    def test_rejects_repeats(self):
        for order in ((unit(1), unit(1), unit(2)), (unit(1), unit(2), unit(3), unit(3))):
            with pytest.raises(ValueError, match="without repeats"):
                RoundRobinCusum(MODEL3, 1.0, order)


class TestInitPolicy:
    def test_starts_at_first_unit_with_zero_statistic(self):
        p = RoundRobinCusum(MODEL3, 1.0)
        assert p.order == MODEL3.units
        assert p.statistic == 0.0
        assert p.cursor == 0
        assert p.step_count == 0
        assert not p.stopped
        assert p.unit == unit(1)

    def test_accepts_any_permutation(self):
        order = [unit(3), unit(1), unit(2)]
        p = RoundRobinCusum(MODEL3, 1.0, order)
        assert p.order == tuple(order)
        assert p.unit == unit(3)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            RoundRobinCusum(MODEL3, 1.0, (unit(1), unit(2)))
        with pytest.raises(ValueError, match="permutation"):
            RoundRobinCusum(MODEL3, 1.0, (unit(1), unit(2), unit(4)))


class TestStepBoundaries:
    def test_alarm_at_exact_threshold(self):
        p = fresh(threshold=2.0)
        assert p.step(2.0) is Decision.ALARM
        assert p.unit == unit(1)  # the alarming unit
        assert p.step_count == 1
        assert p.stopped
        assert p.statistic == 2.0

    def test_switch_at_exact_zero(self):
        p = fresh()
        assert p.step(0.0) is Decision.SWITCH
        assert p.unit == unit(2)  # unit to observe next
        assert p.cursor == 1
        assert not p.stopped

    def test_continue_strictly_between(self):
        p = fresh(threshold=2.0)
        assert p.step(1.0) is Decision.CONTINUE
        assert p.unit == unit(1)
        assert p.cursor == 0
        assert p.statistic == 1.0

    def test_alarm_checked_before_switch(self):
        # an alarm ends the step: exactly A from a positive base alarms
        p = fresh(threshold=1.0)
        p.step(0.5)
        assert p.step(0.5) is Decision.ALARM
        assert p.statistic == 1.0

    def test_reset_clips_negative_statistic(self):
        p = fresh(threshold=5.0)
        p.step(-3.0)  # switch, statistic -3
        assert p.statistic == -3.0
        p.cursor = 0
        # restart from 0, not from -3
        assert p.step(1.0) is Decision.CONTINUE
        assert p.statistic == 1.0

    def test_alarm_possible_from_negative_base(self):
        p = fresh(threshold=2.0)
        p.step(-7.0)
        assert p.step(2.0) is Decision.ALARM
        assert p.statistic == 2.0

    def test_cursor_wraps_around(self):
        p = fresh()
        for want in (1, 2, 0, 1):
            p.step(-1.0)
            assert p.cursor == want
            assert p.unit == ORDER3[want]

    def test_time_is_one_based_and_counts_all_steps(self):
        p = fresh(threshold=10.0)
        counts = []
        for v in (0.5, -0.5, 0.5, 0.5):
            p.step(v)
            counts.append(p.step_count)
        assert counts == [1, 2, 3, 4]


class TestStepErrors:
    def test_stopped_state_refuses_steps(self):
        p = fresh(threshold=1.0)
        p.step(1.0)
        with pytest.raises(IllegalStateError):
            p.step(0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_llr_names_step_index(self, bad):
        p = fresh(threshold=10.0)
        p.step(0.5)
        p.step(0.5)
        with pytest.raises(NumericError, match="step 3"):
            p.step(bad)


def reference_run(values, threshold, n_units):
    """Independent re-statement of the recursion for cross-checking."""
    y = 0.0
    cursor = 0
    out = []
    for i, xi in enumerate(values, start=1):
        y = max(y, 0.0) + xi
        if y >= threshold:
            out.append(("alarm", cursor, y, i))
            break
        if y <= 0.0:
            cursor = (cursor + 1) % n_units
            out.append(("switch", cursor, y, i))
        else:
            out.append(("continue", cursor, y, i))
    return out


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=200
    ),
    threshold=st.floats(0.5, 5.0, allow_nan=False),
    n_units=st.integers(1, 7),
)
def test_step_matches_reference_recursion(values, threshold, n_units):
    p = RoundRobinCusum(chain_model(n_units), threshold)
    want = reference_run(values, threshold, n_units)
    for (kind, cursor, y, t), xi in zip(want, values):
        assert p.step(xi).value == kind
        assert p.cursor == cursor
        assert p.statistic == y  # bitwise identical
        assert p.step_count == t
        assert p.unit == p.order[cursor]
    assert p.stopped == (bool(want) and want[-1][0] == "alarm")


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=100
    ),
    threshold=st.floats(0.5, 5.0, allow_nan=False),
)
def test_step_is_deterministic(values, threshold):
    def run():
        p = fresh(threshold)
        trace = []
        for xi in values:
            d = p.step(xi)
            trace.append((d, p.unit, p.step_count, p.statistic, p.cursor))
            if p.stopped:
                break
        return trace

    assert run() == run()


class TestRunToAlarm:
    def test_determinism(self):
        m = chain_model(3)
        a = run_to_alarm(m, 3.0, rng=np.random.default_rng(11), max_steps=50_000)
        b = run_to_alarm(m, 3.0, rng=np.random.default_rng(11), max_steps=50_000)
        assert a == b

    def test_truncation_reports_instead_of_raising(self):
        m = chain_model(3)
        r = run_to_alarm(m, 200.0, rng=np.random.default_rng(0), max_steps=7)
        assert r.truncated
        assert r.stopping_time is None
        assert r.alarming_unit is None
        assert r.delay is None
        assert sum(r.visit_counts.values()) == 7

    def test_visit_accounting_on_alarm(self):
        m = chain_model(3)
        u = unit(1)
        h = PostChangeHypothesis(
            label="shift",
            local_post={E: m.post_family[E][0] for E in m.units},
        )
        r = run_to_alarm(m, 3.0, hypothesis=h, rng=np.random.default_rng(5))
        assert not r.truncated
        assert sum(r.visit_counts.values()) == r.stopping_time
        assert r.final_statistic >= 3.0
        assert r.alarming_unit in m.units
        assert u in r.visit_counts

    def test_delay_none_without_hypothesis(self):
        m = chain_model(2)
        r = run_to_alarm(m, 1.5, rng=np.random.default_rng(3))
        assert r.delay is None
        assert r.stopping_time is not None

    def test_change_time_semantics(self):
        # huge post-change drift: alarm fires on the very first post-change step,
        # so stopping time is nu + 1 and delay is 1
        pre = GaussianLocal.standard(1)
        post = GaussianLocal(10.0, np.eye(1))
        u = unit(1)
        m = ChangePointModel(1, 1, (u,), {u: pre}, {u: (post,)})
        h = PostChangeHypothesis(
            label="jump", local_post={u: post}
        )
        r = run_to_alarm(m, math.log(100.0), hypothesis=h, nu=4, rng=np.random.default_rng(0))
        assert r.stopping_time == 5
        assert r.delay == 1

    def test_alarm_before_change_gives_no_delay(self):
        # threshold so low that noise alone alarms well before nu
        m = chain_model(1)
        h = PostChangeHypothesis(
            label="shift",
            local_post={E: m.post_family[E][0] for E in m.units},
        )
        r = run_to_alarm(m, 0.05, hypothesis=h, nu=10**6, rng=np.random.default_rng(1))
        assert r.stopping_time is not None
        assert r.stopping_time <= 10**6
        assert r.delay is None

    def test_rejects_bad_arguments(self):
        m = chain_model(2)
        with pytest.raises(ValueError, match="nu"):
            run_to_alarm(m, 1.0, nu=-1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_steps"):
            run_to_alarm(m, 1.0, rng=np.random.default_rng(0), max_steps=0)
        with pytest.raises(ValueError, match="threshold"):
            run_to_alarm(m, 0.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="permutation"):
            run_to_alarm(m, 1.0, rng=np.random.default_rng(0), order=(unit(1),))

    def test_starts_at_the_first_unit_of_the_given_order(self):
        m = chain_model(3)
        order = (unit(3), unit(1), unit(2))
        r = run_to_alarm(m, 100.0, rng=np.random.default_rng(2), order=order, max_steps=1)
        assert r.visit_counts == {unit(3): 1, unit(1): 0, unit(2): 0}
        assert tuple(r.visit_counts) == order

    def test_result_is_plain_record(self):
        r = RunResult(
            stopping_time=3,
            alarming_unit=unit(1),
            delay=None,
            visit_counts={unit(1): 3},
            final_statistic=2.5,
            truncated=False,
        )
        assert r.stopping_time == 3
