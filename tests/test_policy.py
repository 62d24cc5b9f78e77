"""Stepping rules of the cycling detection policy.

The step function is pure arithmetic, so most tests drive it with hand-picked
or generated llr streams and compare against an inline reference recursion.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcusum.gaussian import GaussianLocal
from rrcusum.model import ChangePointModel, PostChangeHypothesis, unit
from rrcusum.policy import (
    Decision,
    IllegalStateError,
    NumericError,
    PolicyConfig,
    PolicyState,
    RunResult,
    init_policy,
    required_observation,
    run_to_alarm,
    step,
)

ORDER3 = (unit(1), unit(2), unit(3))


def fresh(threshold=2.0, order=ORDER3) -> PolicyState:
    return PolicyState(config=PolicyConfig(threshold=threshold, unit_order=order))


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


class TestPolicyConfig:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            PolicyConfig(threshold=bad, unit_order=ORDER3)

    def test_rejects_empty_order(self):
        with pytest.raises(ValueError, match="empty"):
            PolicyConfig(threshold=1.0, unit_order=())

    def test_rejects_repeats(self):
        with pytest.raises(ValueError, match="repeat"):
            PolicyConfig(threshold=1.0, unit_order=(unit(1), unit(1)))


class TestInitPolicy:
    def test_starts_at_first_unit_with_zero_statistic(self):
        m = chain_model(3)
        s = init_policy(m, PolicyConfig(threshold=1.0, unit_order=m.units))
        assert s.statistic == 0.0
        assert s.cursor == 0
        assert s.step_count == 0
        assert not s.stopped
        assert required_observation(s) == unit(1)

    def test_accepts_any_permutation(self):
        m = chain_model(3)
        order = (unit(3), unit(1), unit(2))
        s = init_policy(m, PolicyConfig(threshold=1.0, unit_order=order))
        assert required_observation(s) == unit(3)

    def test_rejects_non_permutation(self):
        m = chain_model(3)
        with pytest.raises(ValueError, match="permutation"):
            init_policy(m, PolicyConfig(threshold=1.0, unit_order=(unit(1), unit(2))))
        with pytest.raises(ValueError, match="permutation"):
            init_policy(
                m, PolicyConfig(threshold=1.0, unit_order=(unit(1), unit(2), unit(4)))
            )


class TestStepBoundaries:
    def test_alarm_at_exact_threshold(self):
        s = fresh(threshold=2.0)
        d = step(s, 2.0)
        assert d.decision is Decision.ALARM
        assert d.unit == unit(1)
        assert d.time == 1
        assert s.stopped
        assert s.statistic == 2.0

    def test_switch_at_exact_zero(self):
        s = fresh()
        d = step(s, 0.0)
        assert d.decision is Decision.SWITCH
        assert d.unit == unit(2)  # unit to observe next
        assert s.cursor == 1
        assert not s.stopped

    def test_continue_strictly_between(self):
        s = fresh(threshold=2.0)
        d = step(s, 1.0)
        assert d.decision is Decision.CONTINUE
        assert d.unit == unit(1)
        assert s.cursor == 0
        assert s.statistic == 1.0

    def test_alarm_checked_before_switch(self):
        # threshold crossing wins even though the statistic is also <= 0 is impossible;
        # instead check a value that hits the threshold exactly from a positive base
        s = fresh(threshold=1.0)
        step(s, 0.5)
        d = step(s, 0.5)
        assert d.decision is Decision.ALARM
        assert s.statistic == 1.0

    def test_reset_clips_negative_statistic(self):
        s = fresh(threshold=5.0)
        step(s, -3.0)  # switch, statistic -3
        assert s.statistic == -3.0
        s.cursor = 0
        d = step(s, 1.0)
        # restart from 0, not from -3
        assert s.statistic == 1.0
        assert d.decision is Decision.CONTINUE

    def test_alarm_possible_from_negative_base(self):
        s = fresh(threshold=2.0)
        step(s, -7.0)
        d = step(s, 2.0)
        assert d.decision is Decision.ALARM
        assert s.statistic == 2.0

    def test_cursor_wraps_around(self):
        s = fresh()
        for want in (1, 2, 0, 1):
            step(s, -1.0)
            assert s.cursor == want

    def test_time_is_one_based_and_counts_all_steps(self):
        s = fresh(threshold=10.0)
        times = [step(s, v).time for v in (0.5, -0.5, 0.5, 0.5)]
        assert times == [1, 2, 3, 4]
        assert s.step_count == 4


class TestStepErrors:
    def test_stopped_state_refuses_steps(self):
        s = fresh(threshold=1.0)
        step(s, 1.0)
        with pytest.raises(IllegalStateError):
            step(s, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_llr_names_step_index(self, bad):
        s = fresh(threshold=10.0)
        step(s, 0.5)
        step(s, 0.5)
        with pytest.raises(NumericError, match="step 3"):
            step(s, bad)


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
    order = tuple(unit(i) for i in range(1, n_units + 1))
    s = PolicyState(config=PolicyConfig(threshold=threshold, unit_order=order))
    want = reference_run(values, threshold, n_units)
    for (kind, cursor, y, t), xi in zip(want, values):
        d = step(s, xi)
        assert d.decision.value == kind
        assert s.cursor == cursor
        assert s.statistic == y  # bitwise identical
        assert d.time == t
        assert d.unit == order[cursor]
    assert s.stopped == (bool(want) and want[-1][0] == "alarm")


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=100
    ),
    threshold=st.floats(0.5, 5.0, allow_nan=False),
)
def test_step_is_deterministic(values, threshold):
    def run():
        s = PolicyState(config=PolicyConfig(threshold=threshold, unit_order=ORDER3))
        trace = []
        for xi in values:
            d = step(s, xi)
            trace.append((d.decision, d.unit, d.time, s.statistic, s.cursor))
            if s.stopped:
                break
        return trace

    assert run() == run()


class TestRunToAlarm:
    def test_determinism(self):
        m = chain_model(3)
        cfg = PolicyConfig(threshold=3.0, unit_order=m.units)
        a = run_to_alarm(m, cfg, rng=np.random.default_rng(11), max_steps=50_000)
        b = run_to_alarm(m, cfg, rng=np.random.default_rng(11), max_steps=50_000)
        assert a == b

    def test_truncation_reports_instead_of_raising(self):
        m = chain_model(3)
        cfg = PolicyConfig(threshold=200.0, unit_order=m.units)
        r = run_to_alarm(m, cfg, rng=np.random.default_rng(0), max_steps=7)
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
        cfg = PolicyConfig(threshold=3.0, unit_order=m.units)
        r = run_to_alarm(m, cfg, hypothesis=h, rng=np.random.default_rng(5))
        assert not r.truncated
        assert sum(r.visit_counts.values()) == r.stopping_time
        assert r.final_statistic >= 3.0
        assert r.alarming_unit in m.units
        assert u in r.visit_counts

    def test_delay_none_without_hypothesis(self):
        m = chain_model(2)
        cfg = PolicyConfig(threshold=1.5, unit_order=m.units)
        r = run_to_alarm(m, cfg, rng=np.random.default_rng(3))
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
        cfg = PolicyConfig(threshold=math.log(100.0), unit_order=(u,))
        r = run_to_alarm(m, cfg, hypothesis=h, nu=4, rng=np.random.default_rng(0))
        assert r.stopping_time == 5
        assert r.delay == 1

    def test_alarm_before_change_gives_no_delay(self):
        # threshold so low that noise alone alarms well before nu
        m = chain_model(1)
        cfg = PolicyConfig(threshold=0.05, unit_order=m.units)
        h = PostChangeHypothesis(
            label="shift",
            local_post={E: m.post_family[E][0] for E in m.units},
        )
        r = run_to_alarm(m, cfg, hypothesis=h, nu=10**6, rng=np.random.default_rng(1))
        assert r.stopping_time is not None
        assert r.stopping_time <= 10**6
        assert r.delay is None

    def test_rejects_bad_arguments(self):
        m = chain_model(2)
        cfg = PolicyConfig(threshold=1.0, unit_order=m.units)
        with pytest.raises(ValueError, match="nu"):
            run_to_alarm(m, cfg, nu=-1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_steps"):
            run_to_alarm(m, cfg, rng=np.random.default_rng(0), max_steps=0)

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
