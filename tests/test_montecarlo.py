"""Monte Carlo estimators: orderings, the vectorised run engine, the studies.

The block engine is distributionally equivalent to the step-by-step policy
loop, not pathwise identical, so the cross-validation tests compare means
within pooled Monte Carlo error rather than run by run.
"""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from rrcusum import montecarlo
from rrcusum.model import ChangePointModel, PostChangeHypothesis, Unit, UnitClass, _mixture_draw, sample_mean, unit
from rrcusum.montecarlo import (
    STUDIES,
    DelayEstimate,
    Ordering,
    RunSpec,
    StudyConfig,
    StudyRow,
    estimate_arl,
    estimate_delay,
    run_custom_study,
    run_study,
    worst_case_permutation,
)
from rrcusum.policy import run_to_alarm
from rrcusum.scenarios import (
    build_preset,
    correlated_block_hypothesis,
    correlated_blocks_model,
    mean_change_model,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestWorstCasePermutation:
    def test_unaffected_first_then_affected(self):
        m = correlated_blocks_model(4, 2, 0.7)
        got = worst_case_permutation(m.units, {unit(3, 4)})
        assert got == (unit(1, 2), unit(1, 3), unit(1, 4), unit(2, 3), unit(2, 4), unit(3, 4))

    def test_groups_are_sorted(self):
        m = correlated_blocks_model(4, 2, 0.7)
        affected = {unit(2, 4), unit(1, 2)}
        got = worst_case_permutation(m.units, affected)
        assert got[-2:] == (unit(1, 2), unit(2, 4))
        assert got[:4] == (unit(1, 3), unit(1, 4), unit(2, 3), unit(3, 4))

    def test_all_affected_is_canonical(self):
        m = correlated_blocks_model(3, 2, 0.7)
        got = worst_case_permutation(m.units, set(m.units))
        assert got == tuple(sorted(m.units))

    def test_empty_affected_warns(self):
        m = correlated_blocks_model(3, 2, 0.7)
        with pytest.warns(UserWarning, match="no affected units"):
            got = worst_case_permutation(m.units, set())
        assert got == tuple(sorted(m.units))

    def test_unknown_affected_raises(self):
        m = correlated_blocks_model(3, 2, 0.7)
        with pytest.raises(ValueError, match="not sampled"):
            worst_case_permutation(m.units, {Unit((1, 2, 3))})


class TestStudyConfig:
    def test_defaults(self):
        c = StudyConfig()
        assert c.K == 10
        assert c.m == 2
        assert c.s_values == tuple(range(2, 11))
        assert c.ordering is Ordering.WORST_CASE

    @pytest.mark.parametrize(
        "kw, msg",
        [
            (dict(K=1), "K must be"),
            (dict(m=0), "m must lie"),
            (dict(m=11), "m must lie"),
            (dict(rho=0.0), "rho"),
            (dict(rho=1.0), "rho"),
            (dict(gamma=1.0), "gamma"),
            (dict(s_values=(1,)), "s must lie"),
            (dict(s_values=(11,)), "s must lie"),
            (dict(replications=0), "replications"),
            (dict(nu=-1), "nu"),
            (dict(m=1), "m must lie"),  # a correlation change needs m >= 2
        ],
    )
    def test_validation(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            StudyConfig(**kw)


class TestRunSpec:
    def test_defaults(self):
        spec = RunSpec()
        assert (spec.gamma, spec.replications, spec.seed, spec.nu) == (100.0, 4000, 0, 0)
        assert spec.ordering is Ordering.WORST_CASE

    @pytest.mark.parametrize(
        "kw, msg",
        [
            (dict(gamma=1.0), "gamma"),
            (dict(replications=0), "replications"),
            (dict(nu=-1), "nu"),
            (dict(gamma=math.inf), "gamma must be finite"),
            (dict(gamma=math.nan), "gamma must be finite"),
        ],
    )
    def test_validation(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            RunSpec(**kw)

    def test_study_config_runs_as_its_run_spec(self):
        model = correlated_blocks_model(5, 2, 0.7)
        hyp = correlated_block_hypothesis(model, 0.7, s=3)
        run = dict(gamma=20.0, replications=300, seed=4, nu=3)
        config = StudyConfig(K=5, m=2, rho=0.7, s_values=(3,), **run)
        assert isinstance(config, RunSpec)
        assert estimate_delay(model, hyp, RunSpec(**run)) == estimate_delay(model, hyp, config)

    def test_single_source_preset(self):
        # K = 1 and s = 1 lie outside every correlation study but are a valid run
        model, hyp = build_preset("mean-change", K=1, s=1)
        spec = RunSpec(gamma=20.0, replications=300, seed=1)
        assert estimate_delay(model, hyp, spec).replications == 300
        assert estimate_arl(model, spec, cap=2000).replications == 300


class TestDelayEstimate:
    def test_high_stderr_flag(self):
        assert DelayEstimate(100.0, 6.0, 10, 0).high_stderr
        assert not DelayEstimate(100.0, 4.0, 10, 0).high_stderr
        assert DelayEstimate(0.0, 0.1, 10, 0).high_stderr
        assert not DelayEstimate(0.0, 0.0, 10, 0).high_stderr


def reference_delays(model, hyp, order, threshold, n, seed, nu=0):
    """Delays of n runs of the step-by-step policy loop; a run that alarms at
    or before nu has no delay and is left out, as the engine discards it."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        r = run_to_alarm(model, threshold, hypothesis=hyp, nu=nu, rng=rng, order=order)
        assert not r.truncated
        if r.delay is not None:
            out.append(r.delay)
    return np.asarray(out, dtype=float)


def assert_agrees(fast, ref):
    pooled = math.hypot(fast.stderr, ref.std(ddof=1) / math.sqrt(ref.size))
    assert abs(fast.mean - ref.mean()) < 3.0 * pooled


class TestEngineCrossValidation:
    def test_worst_case_ordering_matches_reference_loop(self):
        model = correlated_blocks_model(5, 2, 0.7)
        hyp = correlated_block_hypothesis(model, 0.7, s=3)
        threshold = 2.0
        config = StudyConfig(
            K=5,
            m=2,
            rho=0.7,
            gamma=math.exp(threshold),
            s_values=(3,),
            replications=800,
            seed=9,
            ordering=Ordering.WORST_CASE,
        )
        fast = estimate_delay(model, hyp, config)
        order = worst_case_permutation(model.units, hyp.affected_units)
        ref = reference_delays(model, hyp, order, threshold, 400, seed=123)
        pooled = math.hypot(fast.stderr, ref.std(ddof=1) / math.sqrt(ref.size))
        assert abs(fast.mean - ref.mean()) < 3.0 * pooled

    def test_as_given_ordering_matches_reference_loop(self):
        model = correlated_blocks_model(4, 2, 0.7)
        hyp = correlated_block_hypothesis(model, 0.7, s=2)
        threshold = 1.5
        config = StudyConfig(
            K=4,
            m=2,
            rho=0.7,
            gamma=math.exp(threshold),
            s_values=(2,),
            replications=600,
            seed=5,
            ordering=Ordering.AS_GIVEN,
        )
        fast = estimate_delay(model, hyp, config)
        ref = reference_delays(model, hyp, tuple(model.units), threshold, 300, seed=77)
        pooled = math.hypot(fast.stderr, ref.std(ddof=1) / math.sqrt(ref.size))
        assert abs(fast.mean - ref.mean()) < 3.0 * pooled

    def test_interleaved_classes_match_reference_loop(self):
        # m = 3: every triple's family has 7 members. With the block at the
        # top two sources the canonical order reads U U U U U A U U A A, so
        # short stretches of the two classes interleave and each class's
        # spare serves blocks separated by stretches of the other.
        model = correlated_blocks_model(5, 3, 0.7)
        hyp = correlated_block_hypothesis(model, 0.7, s=2)
        assert len(model.post_family[model.units[0]]) == 7
        threshold = 2.0
        spec = RunSpec(
            gamma=math.exp(threshold), replications=2000, seed=12, ordering=Ordering.AS_GIVEN
        )
        fast = estimate_delay(model, hyp, spec)
        assert_agrees(fast, reference_delays(model, hyp, tuple(model.units), threshold, 400, seed=31))

    def test_change_time_matches_reference_loop(self):
        # nu > 0: the pre-change regime runs first and carries increments too
        model = correlated_blocks_model(5, 2, 0.7)
        hyp = correlated_block_hypothesis(model, 0.7, s=3)
        threshold, nu = 2.5, 12
        spec = RunSpec(gamma=math.exp(threshold), replications=2000, seed=13, nu=nu)
        fast = estimate_delay(model, hyp, spec)
        assert fast.discarded > 0
        order = worst_case_permutation(model.units, hyp.affected_units)
        ref = reference_delays(model, hyp, order, threshold, 500, seed=32, nu=nu)
        assert ref.size < 500
        assert_agrees(fast, ref)

    def test_no_change_run_length_matches_reference_loop(self):
        model = correlated_blocks_model(3, 2, 0.7)
        threshold = math.log(20.0)
        config = StudyConfig(
            K=3, m=2, rho=0.7, gamma=20.0, s_values=(2,), replications=400, seed=2
        )
        fast = estimate_arl(model, config, cap=100_000)
        assert fast.truncations == 0
        rng = np.random.default_rng(55)
        ref = []
        for _ in range(200):
            r = run_to_alarm(model, threshold, rng=rng, max_steps=100_000)
            assert not r.truncated
            ref.append(r.stopping_time)
        ref = np.asarray(ref, dtype=float)
        pooled = math.hypot(fast.stderr, ref.std(ddof=1) / math.sqrt(ref.size))
        assert abs(fast.mean - ref.mean()) < 3.0 * pooled


def scalar_stretch(x, y, threshold, need, budget):
    """One row of _run_stretch, one increment at a time: (steps, switches,
    statistic, alarmed), or None when x runs out before the row stops."""
    switches = 0
    for t in range(min(budget, len(x))):
        y = max(y, 0.0) + x[t]
        if y >= threshold:
            return t + 1, switches, y, True
        if y <= 0.0:
            switches += 1
            if switches == need:
                return t + 1, switches, y, False
    return (budget, switches, y, False) if len(x) >= budget else None


class Stream:
    """Deterministic draw serving one fixed stream of increments in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.drawn = 0

    def __call__(self, rng, n):
        assert self.drawn + n <= self.values.size
        self.drawn += n
        return self.values[self.drawn - n : self.drawn]


class RecordingSpare(montecarlo._Spare):
    """A spare that records the increments of every block it fills, what it
    keeps, and its size after every keep."""

    def __init__(self):
        super().__init__()
        self.blocks, self.kept, self.sizes = [], [], []

    def fill(self, out, rng, draw):
        super().fill(out, rng, draw)
        self.blocks.append(out.copy())

    def keep(self, x):
        super().keep(x)
        self.kept.append(x.copy())
        self.sizes.append(self.size)


def replay(blocks, y0, threshold, need, budget):
    """The scalar restatement of _run_stretch on the blocks it laid out.

    Every block is (running rows, columns) in row order, so each row still
    running by scalar_stretch gets the next x.size / rows values of the block.
    Returns per row the scalar outcome and the increments it consumed, per
    block the increments the rows that stopped in it left unconsumed, in row
    order, and per block its number of rows.
    """
    consumed = [np.empty(0) for _ in y0]
    outcome = [None] * len(y0)
    tails = []
    ks = []
    for x in blocks:
        running = [r for r, got in enumerate(outcome) if got is None]
        ks.append(len(running))
        cols, rest = divmod(x.size, len(running))
        assert rest == 0 and cols > 0
        left = []
        for i, r in enumerate(running):
            before = consumed[r].size
            seen = np.concatenate([consumed[r], x[i * cols : (i + 1) * cols]])
            outcome[r] = scalar_stretch(seen, y0[r], threshold, need[r], budget[r])
            stop = seen.size if outcome[r] is None else outcome[r][0]
            consumed[r] = seen[:stop]
            left.append(x[i * cols + stop - before : (i + 1) * cols])
        tails.append(np.concatenate(left))
    assert None not in outcome
    return outcome, consumed, tails, ks


class TestRunStretch:
    """_run_stretch against its scalar restatement, exactly: dyadic
    increments keep every partial sum exact, so both compute the same path
    from the increments each row actually consumes."""

    def check(self, stream, y0, threshold, need, budget, spare=None):
        spare = RecordingSpare() if spare is None else spare
        spare.blocks, spare.kept, spare.sizes = [], [], []
        carried = spare.size
        feed = Stream(stream)
        used, steps, switches, y, alarmed = montecarlo._run_stretch(
            None,
            feed,
            np.asarray(y0, dtype=float),
            threshold,
            np.asarray(need),
            np.asarray(budget),
            montecarlo._Blocks(),
            spare,
        )
        want, consumed, tails, ks = replay(spare.blocks, y0, threshold, need, budget)
        assert steps.tolist() == [w[0] for w in want]
        assert switches.tolist() == [w[1] for w in want]
        assert y.tolist() == [w[2] for w in want]
        assert alarmed.tolist() == [w[3] for w in want]
        assert type(used) is int and used == sum(w[0] for w in want)
        # every unconsumed increment is kept, in row order, and nothing else
        kept = np.concatenate(spare.kept) if spare.kept else np.empty(0)
        np.testing.assert_array_equal(kept, np.concatenate(tails))
        # conservation: fresh draws and the carried spare cover the increments used and the spare left
        assert feed.drawn + carried == used + spare.size
        assert max(spare.sizes, default=0) <= montecarlo._BLOCK_ELEMENTS
        return want, spare, np.concatenate(consumed), ks

    def test_targeted_rows(self):
        # The spare starts empty, so the first block of 32 columns gives each
        # row its 32-value prefix; later blocks take the unconsumed tails of
        # the rows that stopped, oldest first, then the fresh alternation.
        climb = [0.125] * 32  # neither switches nor reaches the threshold
        prefixes = [
            climb,  # budget ends exactly at the first block edge
            climb,  # ... and at the second
            climb,  # ... one step past it
            [-1.0, 25.0, -1.0, -1.0],  # alarm before the need-th switch
            [-1.0, -1.0, -1.0],  # need-th switch, then a tail of padding
            [0.5, -1.0] * 16,  # switches carried across blocks
            [-0.5, -0.5, -0.75, 0.25],  # y0 > 0, first switch at step 3
            [0.0, 0.0, 0.0],  # a statistic of exactly 0 switches
        ]
        first = [p + [0.125] * (32 - len(p)) for p in prefixes]
        stream = np.concatenate([np.ravel(first), np.tile([0.5, -1.0], 1000)])
        want, spare, _, _ = self.check(
            stream,
            y0=[0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.5, 0.0],
            threshold=20.0,
            need=[1000, 1000, 1000, 3, 3, 150, 1, 2],
            budget=[32, 96, 97, 1000, 1000, 1000, 1000, 1000],
        )
        assert want[0][:2] == (32, 0) and want[1][:2] == (96, 0)
        assert want[2][3] is False and want[2][0] == 97
        assert want[3][:2] == (2, 1) and want[3][3]
        assert want[4][:2] == (3, 3) and not want[4][3]
        assert want[5][1] == 150 and not want[5][3]
        assert want[6][:2] == (3, 1)
        assert want[7][:2] == (2, 2)
        # the second block starts with the tail of row 3, the first to stop
        np.testing.assert_array_equal(spare.blocks[1][:30], first[3][2:])

    @staticmethod
    def random_rows(rng, rows, ids):
        """Random dyadic rows whose increments are all distinct: each carries
        its index in the stream in bits far below those of the step."""
        stream = rng.integers(-90, 80, size=ids.size) / 64.0 + ids * 2.0**-30
        return stream, dict(
            y0=(rng.integers(-64, 160, size=rows) / 64.0).tolist(),
            threshold=3.0,
            need=rng.integers(1, 40, size=rows).tolist(),
            budget=rng.integers(1, 400, size=rows).tolist(),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        stream, rows = self.random_rows(rng, 70, np.arange(1 << 15))
        _, spare, consumed, _ = self.check(stream, **rows)
        assert spare.size > 0
        # a second call of few rows takes its first block from the spare alone
        carried = spare.buf[: spare.size].copy()
        more, rows = self.random_rows(rng, 3, np.arange(1 << 15, 1 << 16))
        _, spare, consumed_more, _ = self.check(more, **rows, spare=spare)
        assert carried.size > spare.blocks[0].size
        np.testing.assert_array_equal(spare.blocks[0], carried[: spare.blocks[0].size])
        # no increment is consumed twice, within a call or across the two
        every = np.concatenate([consumed, consumed_more])
        assert np.unique(every).size == every.size

    @pytest.mark.parametrize("seed", [0, 1])
    def test_many_rows(self, seed):
        # enough rows that the first blocks step column by column (time-major)
        # and, as rows stop, later ones take the per-row accumulates
        rows = 2 * montecarlo._LOOP_ROWS + 7
        ids = np.arange(rows * 400 + montecarlo._BLOCK_ELEMENTS)
        stream, args = self.random_rows(np.random.default_rng(seed), rows, ids)
        want, _, consumed, ks = self.check(stream, **args)
        assert max(ks) >= montecarlo._LOOP_ROWS > min(ks)
        assert any(w[3] for w in want) and not all(w[3] for w in want)
        assert np.unique(consumed).size == consumed.size

    @pytest.mark.parametrize("loop_rows", [1, montecarlo._BLOCK_ELEMENTS + 1], ids=["time-major", "row-major"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_first_exits(self, monkeypatch, loop_rows, seed):
        # every row stops at its first drop, as every excursion does, so the
        # call takes the first-exit branch; in both layouts it is the scalar
        # stretch from y0 < 0, = 0 and > 0, with budgets that end inside the
        # first block of 32 columns and the second of 64
        monkeypatch.setattr(montecarlo, "_LOOP_ROWS", loop_rows)
        rng = np.random.default_rng(seed)
        rows = 400
        ids = np.arange(rows * 600 + montecarlo._BLOCK_ELEMENTS)
        # small steps, so that many rows outlive their budgets of 5 and 40
        stream = rng.integers(-24, 24, size=ids.size) / 64.0 + ids * 2.0**-30
        budget = rng.choice([5, 40, 3000], rows)
        want, _, consumed, ks = self.check(
            stream,
            y0=rng.choice([-1.25, 0.0, 0.75, 2.5], rows).tolist(),
            threshold=3.0,
            need=[1] * rows,
            budget=budget.tolist(),
        )
        assert len(ks) > 2
        steps, switches, _, alarmed = (np.array(v) for v in zip(*want))
        assert set(switches.tolist()) == {0, 1} and alarmed.any()
        assert ((steps == budget) & (switches == 0) & ~alarmed & (budget == 5)).any()
        assert ((steps == budget) & (switches == 0) & ~alarmed & (budget == 40)).any()
        assert np.unique(consumed).size == consumed.size


def test_spare_scores_in_place_only_when_the_draw_offers_it():
    model = correlated_blocks_model(5, 3, 0.7)
    kernel = model.unit_class(max(model.units)).draw

    class FillOnly:
        def __call__(self, rng, n):
            raise AssertionError("the spare asked for a fresh array")

        def fill(self, rng, out):
            kernel.fill(rng, out)

    got = []
    for draw in (FillOnly(), lambda rng, n: kernel(rng, n)):
        spare = montecarlo._Spare()
        spare.keep(np.arange(30.0))
        out = np.empty(9000)
        spare.fill(out, np.random.default_rng(4), draw)
        got.append(out.tobytes())
    assert got[0] == got[1]
    assert np.frombuffer(got[0])[:30].tolist() == list(range(30))


def test_spare_conserves_every_drawn_increment():
    # one call: fresh draws = increments used + increments left in the spare
    model = correlated_blocks_model(5, 2, 0.7)
    hyp = correlated_block_hypothesis(model, 0.7, s=3)
    E = max(hyp.affected_units)
    cls = model.unit_class(E, hyp.local_post[E])
    drawn = []

    def draw(rng, n):
        drawn.append(n)
        return cls.draw(rng, n)

    r = np.random.default_rng(7)
    rows = 500
    blocks = montecarlo._Blocks()
    spare = blocks.spares(1)[0]
    used, steps, *_ = montecarlo._run_stretch(
        np.random.default_rng(8), draw, r.uniform(0.0, 2.0, rows), 6.0, r.integers(1, 4, rows),
        r.integers(1, 300, rows), blocks, spare,
    )
    assert used == steps.sum()
    assert sum(drawn) == used + spare.size
    assert 0 < spare.size <= montecarlo._BLOCK_ELEMENTS


def test_run_stretch_outputs_do_not_depend_on_earlier_calls():
    model = correlated_blocks_model(5, 2, 0.7)
    hyp = correlated_block_hypothesis(model, 0.7, s=3)
    E = max(hyp.affected_units)
    draw = model.unit_class(E, hyp.local_post[E]).draw
    blocks = montecarlo._Blocks()

    def run(seed, rows, blocks):
        r = np.random.default_rng(seed)
        args = (r.uniform(0.0, 2.0, rows), 6.0, r.integers(1, 4, rows), r.integers(1, 300, rows))
        spare = blocks.spares(1)[0]  # emptied, whatever an earlier call left in it
        return montecarlo._run_stretch(np.random.default_rng(seed), draw, *args, blocks, spare)

    first = run(1, 200, blocks)
    run(2, 7, blocks)  # a call of another size through the same blocks
    again = run(1, 200, blocks)
    fresh = run(1, 200, montecarlo._Blocks())
    assert first[0] == again[0] == fresh[0]
    scratch = [blocks.x, blocks.w, blocks.path, blocks.sw, blocks.spares(1)[0].buf]
    for a, b, c in zip(first[1:], again[1:], fresh[1:]):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
        assert not any(np.shares_memory(a, buf) for buf in scratch)


@pytest.mark.parametrize(
    "m, post, threshold, first_exits",
    [(2, True, 8.0, False), (2, False, 2.0, False), (3, False, 2.0, False), (2, True, 8.0, True)],
    ids=["2-True-8.0", "2-False-2.0", "3-False-2.0", "2-True-8.0-first-exits"],
)
def test_run_stretch_layouts_agree(monkeypatch, m, post, threshold, first_exits):
    # the time-major column loop and the per-row accumulates give the same
    # bits on Gaussian class draws; at m = 3 the pre-change llr mixes the 7
    # members of a triple's family, and rows that all stop at their first
    # drop take the first-exit branch
    model = correlated_blocks_model(5, m, 0.7)
    hyp = correlated_block_hypothesis(model, 0.7, s=3)
    E = max(hyp.affected_units)
    assert len(model.post_family[E]) == (1 if m == 2 else 7)
    draw = model.unit_class(E, hyp.local_post[E] if post else None).draw
    r = np.random.default_rng(m)
    rows = 700  # a first block of 23 columns
    y0 = r.choice([-1.25, 0.0, 0.5, 3.0], rows)
    budget = r.choice([5, 40, 3000], rows)  # 5 and 40 end inside a block
    need = np.where(r.random(rows) < 0.5, r.choice([1, 3], rows), budget + 1)
    if first_exits:
        need[:] = 1

    def run(loop_rows):
        monkeypatch.setattr(montecarlo, "_LOOP_ROWS", loop_rows)
        blocks = montecarlo._Blocks()
        spare = blocks.spares(1)[0]
        out = montecarlo._run_stretch(np.random.default_rng(11), draw, y0, threshold, need, budget, blocks, spare)
        return out, spare.buf[: spare.size].tobytes()

    (used, *loop), loop_spare = run(1)
    (used_rows, *per_row), row_spare = run(montecarlo._BLOCK_ELEMENTS + 1)
    assert used == used_rows
    for a, b in zip(loop, per_row):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert loop_spare == row_spare
    steps, switches, y, alarmed = loop
    assert alarmed.any() and (switches > 0).any()
    assert ((steps == budget) & (budget == 5)).any() and ((steps == budget) & (budget == 40)).any()


# Every estimate is reproducible bit for bit at its seed, on one platform and
# numpy version. These are the float.hex() of (mean, stderr) of four of them,
# recorded with numpy 2.4.6 on an x86-64 CPU with AVX-512; a change that moves
# one on purpose, by changing the random stream or the engine's arithmetic,
# updates it here and names the change in CHANGES.md. "arl-m3-g1e5" fails
# under OPENBLAS_CORETYPE=Haswell and under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", as its importance
# weights pass through per-CPU BLAS and exp/log loops; the other three hold
# under both, which CI checks.
PINNED = {
    # corr-pairs run lengths: one class at m = 2, the 7-member mixture at m = 3
    "arl-m2-g1e3": ("0x1.bce7afaa75670p+12", "0x1.efe2f4e548c80p+7"),
    "arl-m3-g1e5": ("0x1.6ece5716e235ep+19", "0x1.cbd3cd217a8cep+14"),
    # in the canonical order each affected triple is a stretch of one unit,
    # entered at a switch (y <= 0) or, from the change time, mid-visit (y > 0)
    "delay-m3-s2-nu60": ("0x1.1e8c08c08c08cp+8", "0x1.29546c4372777p+3"),
    "delay-mean-change": ("0x1.c410624dd2f1bp+3", "0x1.b2fa1b66df94ep-3"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_estimates_are_pinned_bit_for_bit(name):
    arl = dict(replications=2000, seed=7)
    delay = dict(gamma=100.0, replications=1000, seed=7)
    est = {
        "arl-m2-g1e3": lambda: estimate_arl(build_preset("corr-pairs")[0], RunSpec(gamma=1e3, **arl), cap=100_000),
        "arl-m3-g1e5": lambda: estimate_arl(
            build_preset("corr-pairs", m=3)[0], RunSpec(gamma=1e5, **arl), cap=10_000_000
        ),
        "delay-m3-s2-nu60": lambda: estimate_delay(
            *build_preset("corr-pairs", m=3, s=2), RunSpec(nu=60, ordering=Ordering.AS_GIVEN, **delay)
        ),
        "delay-mean-change": lambda: estimate_delay(*build_preset("mean-change", K=4, s=2), RunSpec(**delay)),
    }[name]()
    assert (est.mean.hex(), est.stderr.hex()) == PINNED[name]


class TestEstimateDelay:
    def make(self, **kw):
        model = correlated_blocks_model(5, 2, 0.7)
        hyp = correlated_block_hypothesis(model, 0.7, s=3)
        base = dict(
            K=5,
            m=2,
            rho=0.7,
            gamma=math.exp(2.0),
            s_values=(3,),
            replications=200,
            seed=3,
        )
        base.update(kw)
        return model, hyp, StudyConfig(**base)

    def test_bit_exact_repeatability(self):
        model, hyp, config = self.make()
        a = estimate_delay(model, hyp, config)
        b = estimate_delay(model, hyp, config)
        assert a == b

    def test_estimates_do_not_depend_on_earlier_ones(self):
        # the estimates of one thread share its blocks and spares; another
        # thread starts from blocks of its own
        model, hyp, config = self.make()
        first = estimate_delay(model, hyp, config)
        wide = correlated_blocks_model(5, 3, 0.7)  # more classes, more spares
        estimate_delay(wide, correlated_block_hypothesis(wide, 0.7, s=3), RunSpec(gamma=20.0, replications=50))
        fresh = []
        worker = threading.Thread(target=lambda: fresh.append(estimate_delay(model, hyp, config)))
        worker.start()
        worker.join()
        assert estimate_delay(model, hyp, config) == first == fresh[0]

    def test_spares_do_not_outlive_a_batch(self, monkeypatch):
        # batch 1 of a two-batch run, here a partial one, gives the same
        # values as a one-batch run handed batch 1's stream; a spare carried
        # over from batch 0 would change them
        model, hyp, _ = self.make()
        batch = montecarlo._BATCH
        args = (model, hyp, tuple(model.units), 1.0, 5, 3)
        both, _, both_discarded = montecarlo._run_batches(*args, 2 * batch - 44, 10_000)
        first, _, first_discarded = montecarlo._run_batches(*args, batch, 10_000)
        derive_rng = montecarlo.derive_rng
        monkeypatch.setattr(montecarlo, "derive_rng", lambda seed, b: derive_rng(seed, b + 1))
        second, _, second_discarded = montecarlo._run_batches(*args, batch - 44, 10_000)
        assert first_discarded > 0 and second_discarded > 0
        assert both_discarded == first_discarded + second_discarded
        assert both.size + both_discarded == 2 * batch - 44
        np.testing.assert_array_equal(both, np.concatenate([first, second]))

    def test_traced_stretches_see_every_increment(self, monkeypatch):
        seen = {"class": 0, "stretch": 0, "used": 0}
        unit_class = ChangePointModel.unit_class
        run_stretch = montecarlo._run_stretch

        def counting_class(self, *args):
            cls = unit_class(self, *args)

            def draw(rng, n):
                seen["class"] += n
                return cls.draw(rng, n)

            return UnitClass(cls.key, draw)

        def counting_stretch(rng, draw, *rest):
            def counted(rng_, n):
                seen["stretch"] += n
                return draw(rng_, n)

            out = run_stretch(rng, counted, *rest)
            seen["used"] += out[0]
            return out

        monkeypatch.setattr(ChangePointModel, "unit_class", counting_class)
        monkeypatch.setattr(montecarlo, "_run_stretch", counting_stretch)
        model, hyp, config = self.make(replications=300)
        est = estimate_delay(model, hyp, config)
        assert seen["stretch"] == seen["class"] > 0
        assert seen["used"] == round(est.mean * est.replications)

    def test_seed_changes_results(self):
        model, hyp, config = self.make()
        a = estimate_delay(model, hyp, config)
        model, hyp, config2 = self.make(seed=4)
        b = estimate_delay(model, hyp, config2)
        assert a.mean != b.mean

    def test_stderr_shrinks_like_root_n(self):
        model, hyp, small = self.make(replications=500)
        _, _, large = self.make(replications=2000)
        a = estimate_delay(model, hyp, small)
        b = estimate_delay(model, hyp, large)
        ratio = a.stderr / b.stderr
        assert 1.4 < ratio < 2.9

    def test_invisible_hypothesis_raises(self):
        model, _, config = self.make()
        w = Unit((1, 2, 3))
        from rrcusum.gaussian import GaussianLocal

        hyp = PostChangeHypothesis(
            label="x", local_post={w: GaussianLocal.standard(3)}
        )
        with pytest.raises(ValueError, match="affects no sampled unit"):
            estimate_delay(model, hyp, config)

    def test_change_time_discards_early_alarms(self):
        # with a low threshold and a late change most replications alarm
        # before nu and are discarded; survivors average cleanly
        model, hyp, config = self.make(gamma=math.exp(1.0), replications=300)
        config = StudyConfig(
            K=5,
            m=2,
            rho=0.7,
            gamma=math.exp(1.0),
            s_values=(3,),
            replications=300,
            seed=3,
            nu=30,
        )
        est = estimate_delay(model, hyp, config)
        assert est.discarded > 0
        assert est.replications + est.discarded == 300

    def test_all_replications_discarded_raises(self):
        model, hyp, _ = self.make()
        config = StudyConfig(
            K=5,
            m=2,
            rho=0.7,
            gamma=1.01,
            s_values=(3,),
            replications=50,
            seed=3,
            nu=100_000,
        )
        with pytest.raises(RuntimeError, match="alarmed before the change"):
            estimate_delay(model, hyp, config)


class TestEstimateArl:
    def test_cap_floor(self):
        model = correlated_blocks_model(3, 2, 0.7)
        config = StudyConfig(K=3, m=2, rho=0.7, gamma=100.0, s_values=(2,), replications=100)
        with pytest.raises(ValueError, match="cap"):
            estimate_arl(model, config, cap=0)
        assert estimate_arl(model, config, cap=1).truncations > 0

    def test_cap_beyond_int64_raises(self):
        # every excursion's step budget is an int64
        model = correlated_blocks_model(3, 2, 0.7)
        spec = RunSpec(gamma=20.0, replications=100)
        with pytest.raises(ValueError, match=r"cap must lie in \[1, 2\^63 - 1\], got 9223372036854775808$"):
            estimate_arl(model, spec, cap=2**63)
        assert estimate_arl(model, spec, cap=2**63 - 1).truncations == 0

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_raise(self, threads):
        model = correlated_blocks_model(3, 2, 0.7)
        spec = RunSpec(gamma=20.0, replications=100)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            estimate_arl(model, spec, cap=1000, threads=threads)

    def test_change_time_raises(self):
        # the run length starts before any change; a change time would be ignored
        model = correlated_blocks_model(3, 2, 0.7)
        with pytest.raises(ValueError, match="nu 5"):
            estimate_arl(model, RunSpec(gamma=20.0, replications=100, nu=5), cap=1000)

    def test_truncation_at_cap(self):
        # truncated excursions can only lower the estimate
        model = correlated_blocks_model(3, 2, 0.7)
        config = StudyConfig(K=3, m=2, rho=0.7, gamma=20.0, s_values=(2,), replications=100, seed=2)
        est = estimate_arl(model, config, cap=2)
        full = estimate_arl(model, config, cap=100_000)
        assert est.truncations > 0
        assert full.truncations == 0
        assert est.mean <= full.mean + 3.0 * full.stderr
        assert est.replications == 100

    def test_run_length_exceeds_design_target(self):
        # e^A = gamma guarantees mean run length at least gamma
        model = correlated_blocks_model(3, 2, 0.7)
        config = StudyConfig(
            K=3, m=2, rho=0.7, gamma=20.0, s_values=(2,), replications=400, seed=8
        )
        est = estimate_arl(model, config, cap=10_000)
        assert est.mean - 2.0 * est.stderr > 20.0

    def test_no_sampled_excursion_reaching_the_threshold_raises(self):
        # one replication at seed 3: the one importance-sampled excursion of
        # the one class switches before it reaches log(1e3)
        model, _ = build_preset("corr-pairs")
        spec = RunSpec(gamma=1e3, replications=1, seed=3)
        with pytest.raises(RuntimeError, match="no importance-sampled excursion reached the threshold; raise replications"):
            estimate_arl(model, spec, cap=100_000)

    def test_deterministic(self):
        model = correlated_blocks_model(3, 2, 0.7)
        config = StudyConfig(
            K=3, m=2, rho=0.7, gamma=15.0, s_values=(2,), replications=150, seed=1
        )
        assert estimate_arl(model, config, cap=2000) == estimate_arl(model, config, cap=2000)


class TestRenewalArl:
    """The renewal estimate of estimate_arl against the engine's full runs."""

    @pytest.mark.parametrize(
        "model, gamma, runs",
        [
            (correlated_blocks_model(10, 2, 0.7), 1e2, 2000),
            (correlated_blocks_model(10, 3, 0.7), 1e2, 2000),
            (mean_change_model(3, {1: 0.5, 2: 1.0, 3: 2.0}), 20.0, 1500),
            (mean_change_model(3, {1: 0.5, 2: 1.0, 3: 2.0}), 100.0, 800),
        ],
        ids=["corr-pairs-m2", "corr-pairs-m3", "mean-change-g20", "mean-change-g100"],
    )
    def test_matches_engine_run_lengths(self, model, gamma, runs):
        threshold = math.log(gamma)
        cap = int(100 * gamma)
        args = (model, None, tuple(model.units), threshold, 0, 21, runs, cap)
        runs, truncations, _ = montecarlo._run_batches(*args)
        assert truncations == 0
        engine, engine_se = sample_mean(runs.astype(float))
        est = estimate_arl(model, RunSpec(gamma=gamma, replications=8000, seed=22), cap=cap)
        assert est.truncations == 0
        assert abs(est.mean - engine) < 3.0 * math.hypot(est.stderr, engine_se)

    def test_cycle_formula(self):
        # two units: the second is reached with probability 1 - 0.5, and a
        # cycle alarms with probability 1 - 0.5 * 0.75
        ell, p = np.array([2.0, 3.0]), np.array([0.5, 0.25])
        mean, _ = montecarlo._renewal_arl(ell, np.zeros(2), p, np.zeros(2), np.array([0, 1]))
        assert mean == pytest.approx((2.0 + 0.5 * 3.0) / (1.0 - 0.5 * 0.75))
        one, _ = montecarlo._renewal_arl(ell[:1], np.zeros(1), p[:1], np.zeros(1), np.zeros(5, dtype=int))
        assert one == pytest.approx(ell[0] / p[0])

    def test_stderr_is_the_delta_method(self):
        # with a unit standard error on one class mean and none on the rest,
        # the standard error is the slope of the estimate in that mean
        rng = np.random.default_rng(0)
        cls = np.array([0, 1, 2, 1, 0, 2, 2])
        means = rng.uniform(1.0, 5.0, 3), rng.uniform(0.01, 0.3, 3)
        zero = np.zeros(3)
        base, _ = montecarlo._renewal_arl(means[0], zero, means[1], zero, cls)
        h = 1e-7
        for which in (0, 1):
            for c in range(3):
                bumped = [m.copy() for m in means]
                bumped[which][c] += h
                slope = (montecarlo._renewal_arl(bumped[0], zero, bumped[1], zero, cls)[0] - base) / h
                se = [zero, zero]
                se[which] = np.eye(3)[c]
                _, got = montecarlo._renewal_arl(means[0], se[0], means[1], se[1], cls)
                assert got == pytest.approx(abs(slope), rel=1e-4)

    def test_mixture_draw_picks_members_uniformly(self):
        draws = [lambda rng, n: np.zeros(n), lambda rng, n: np.ones(n), lambda rng, n: np.full(n, 2.0)]
        x = _mixture_draw(draws, np.random.default_rng(4), 30_000)
        counts = np.bincount(x.astype(int), minlength=3)
        assert counts.sum() == 30_000
        assert np.all(np.abs(counts - 10_000) < 5.0 * math.sqrt(30_000 * 2 / 9))

    def test_run_length_starts_no_worker_process(self):
        # 3 classes of 2 batches each, in a child process, since this one may
        # already hold multiprocessing
        code = (
            "import sys\n"
            "from rrcusum import montecarlo\n"
            "from rrcusum.scenarios import mean_change_model\n"
            "model = mean_change_model(3, {1: 0.5, 2: 1.0, 3: 2.0})\n"
            "spec = montecarlo.RunSpec(gamma=20.0, replications=montecarlo._BATCH + 100, seed=5)\n"
            "for threads in (1, 2, 3):\n"
            "    print(repr(montecarlo.estimate_arl(model, spec, cap=2000, threads=threads)))\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')\n"
            "             or m == 'concurrent.futures.process'))\n"
        )
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        *estimates, loaded = done.stdout.splitlines()
        assert len(estimates) == 3 and len(set(estimates)) == 1
        assert loaded == "[]"

    def test_traced_stretches_see_every_excursion(self, monkeypatch):
        seen = {"calls": 0, "drawn": 0, "used": 0}
        stretch = montecarlo._run_stretch

        def counting(rng, draw, *rest):
            def counted(rng_, n):
                seen["drawn"] += n
                return draw(rng_, n)

            out = stretch(rng, counted, *rest)
            seen["calls"] += 1
            seen["used"] += out[0]
            return out

        monkeypatch.setattr(montecarlo, "_run_stretch", counting)
        model = correlated_blocks_model(5, 2, 0.7)
        reps = 2 * montecarlo._BATCH + 88
        estimate_arl(model, RunSpec(gamma=20.0, replications=reps, seed=1), cap=2000)
        assert seen["calls"] == 2 * 3  # plain and sampled, 3 batches of one class
        assert seen["drawn"] >= seen["used"] >= 2 * reps


class TestStudies:
    def test_study_table(self):
        assert set(STUDIES) == {1, 2, 3}
        rho, gammas, ms = STUDIES[1]
        assert rho == 0.7 and gammas == (100.0, 100_000.0) and ms == (2,)
        assert STUDIES[3][0] == 0.95

    @pytest.mark.slow
    def test_run_study_shape_and_fields(self):
        rows = run_study(2, replications=25, seed=0, stats_reps=10_000, ladder_reps=10_000)
        assert len(rows) == 18
        assert [r.m for r in rows] == [2] * 9 + [3] * 9
        assert [r.s for r in rows] == list(range(2, 11)) * 2
        for r in rows:
            assert isinstance(r, StudyRow)
            assert r.study == "2"
            assert r.K == 10
            assert r.rho == 0.7
            assert r.gamma == 100.0
            assert r.num_correlated_pairs == r.s * (r.s - 1) // 2
            assert r.mean_delay > 0.0
            assert r.stderr > 0.0
            assert r.lower_bound > 0.0
            assert r.upper_bound > r.lower_bound or math.isinf(r.upper_bound)
            assert r.upper_bound_coarse >= r.upper_bound

    @pytest.mark.slow
    def test_run_study_is_reproducible(self):
        a = run_study(1, replications=12, seed=7, stats_reps=10_000, ladder_reps=10_000)
        b = run_study(1, replications=12, seed=7, stats_reps=10_000, ladder_reps=10_000)
        assert a == b
        assert len(a) == 18
        assert sorted({r.gamma for r in a}) == [100.0, 100_000.0]

    def test_run_study_rejects_unknown_study(self):
        with pytest.raises(ValueError, match="study must be one of"):
            run_study(4)

    @pytest.mark.slow
    def test_run_custom_study_label(self):
        config = StudyConfig(
            K=4,
            m=2,
            rho=0.7,
            gamma=math.exp(1.5),
            s_values=(2,),
            replications=100,
            seed=11,
        )
        rows = run_custom_study(config, label="wc", stats_reps=10_000, ladder_reps=10_000)
        assert rows[0].study == "wc"
        assert rows[0].s == 2

    def test_ordering_changes_the_sampling_sequence(self):
        # a block at the bottom sources puts the affected pairs at the front
        # of the canonical order; the worst-case reorder pushes them last
        model = correlated_blocks_model(5, 2, 0.7)
        hyp = correlated_block_hypothesis(model, 0.7, s=0, block=(1, 2, 3))
        base = dict(
            K=5,
            m=2,
            rho=0.7,
            gamma=math.exp(1.5),
            s_values=(3,),
            replications=150,
            seed=11,
        )
        worst = estimate_delay(model, hyp, StudyConfig(**base, ordering=Ordering.WORST_CASE))
        given = estimate_delay(model, hyp, StudyConfig(**base, ordering=Ordering.AS_GIVEN))
        assert worst.mean != given.mean
