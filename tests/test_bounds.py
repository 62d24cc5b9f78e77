"""Information numbers, drifts, ladder probabilities, and the delay bounds."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from rrcusum import bounds
from rrcusum.bounds import (
    DegenerateBoundError,
    Estimate,
    NonAsymptoticBound,
    OptimalityClass,
    UnitStatistics,
    bounds_report,
    classify_optimality,
    compute_unit_statistics,
    drift_post,
    drift_pre,
    info_number,
    ladder_prob_no_ascend,
    ladder_prob_no_descend,
    llr_second_moment,
    lower_bound_first_order,
    nonasymptotic_upper_bound,
)
from rrcusum.gaussian import GaussianLocal
from rrcusum.model import (
    ChangePointModel,
    LocalDistribution,
    PostChangeHypothesis,
    Unit,
    affected_units,
    derive_rng,
    unit,
)
from rrcusum.scenarios import (
    build_preset,
    mean_change_hypothesis,
    mean_change_model,
)

PAIR_INFO = 0.3366722766318828
PAIR_KL_REVERSED = 0.6241120370936071
LOWER_1E5 = 34.19623849087655
UPPER_1E2 = 13.678495396350622


@pytest.fixture(scope="module")
def corr_pairs():
    return build_preset("corr-pairs")


@pytest.fixture(scope="module")
def reversed_shift():
    """The true law shifts source 3 by -1, against a family that shifts it by +1."""
    m = mean_change_model(3, 1.0)
    return m, mean_change_hypothesis(m, (3,), 1.0, sign=-1)


class NotGaussian(LocalDistribution):
    """Delegates to a Gaussian law without being one."""

    def __init__(self, inner: GaussianLocal):
        self.inner = inner
        self.dim = inner.dim

    def logpdf(self, x):
        return self.inner.logpdf(x)

    def sample(self, rng, n):
        return self.inner.sample(rng, n)


class TestInfoNumber:
    def test_closed_form_pair(self, corr_pairs):
        model, hyp = corr_pairs
        est = info_number(model, hyp, unit(9, 10))
        assert est.value == pytest.approx(PAIR_INFO, abs=1e-14)
        assert est.stderr == 0.0

    def test_monte_carlo_agrees(self, corr_pairs):
        # the same laws behind a non-Gaussian type have no closed form
        model, hyp = corr_pairs
        u = unit(9, 10)
        pre, post = NotGaussian(model.pre_local[u]), NotGaussian(hyp.local_post[u])
        wmodel = ChangePointModel(10, 2, (u,), {u: pre}, {u: (post,)})
        whyp = PostChangeHypothesis(label="wrapped", local_post={u: post})
        est = info_number(wmodel, whyp, u, reps=50_000, seed=1)
        assert est.stderr > 0.0
        assert abs(est.value - PAIR_INFO) < 4.0 * est.stderr

    def test_unaffected_unit_is_zero_with_note(self, corr_pairs):
        model, hyp = corr_pairs
        est = info_number(model, hyp, unit(1, 2))
        assert est.value == 0.0
        assert est.note == "not affected"

    def test_rejects_unknown_unit(self, corr_pairs):
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="not sampled"):
            info_number(model, hyp, Unit((1, 2, 3)))


class TestDrifts:
    def test_post_drift_matches_info_for_singleton(self, corr_pairs):
        model, hyp = corr_pairs
        est = drift_post(model, hyp, unit(9, 10), reps=20_000, seed=3)
        assert est.value == pytest.approx(PAIR_INFO, abs=1e-14)
        assert est.stderr == 0.0

    def test_post_drift_is_exact_for_a_misspecified_singleton(self, reversed_shift):
        # KL(g || f) - KL(g || g1) = 1/2 - 2 for unit-variance means -1, 0 and +1
        model, hyp = reversed_shift
        est = drift_post(model, hyp, unit(3))
        assert est.value == pytest.approx(-1.5, abs=1e-14)
        assert est.stderr == 0.0

    def test_post_drift_requires_affected(self, corr_pairs):
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="not affected"):
            drift_post(model, hyp, unit(1, 2), reps=10_000)

    def test_pre_drift_oracle(self, corr_pairs):
        # one-member Gaussian family: the closed form KL(f || g1)
        model, hyp = corr_pairs
        est = drift_pre(model, unit(9, 10), reps=20_000, seed=4)
        assert est.value == pytest.approx(PAIR_KL_REVERSED, abs=1e-12)
        assert est.stderr == 0.0
        assert est.note is None

    def test_pre_drift_flags_unresolved_sign(self):
        # family identical to the pre-change law: drift exactly zero
        pre = GaussianLocal.standard(1)
        u = unit(1)
        m = ChangePointModel(1, 1, (u,), {u: pre}, {u: (pre,)})
        est = drift_pre(m, u, reps=10_000, seed=0)
        assert est.note is not None

    def test_second_moment_mean_shift(self):
        # scalar unit mean shift: the llr is x - 1/2 with unit variance
        m = mean_change_model(2, 1.0)
        h = mean_change_hypothesis(m, (1, 2), 1.0)
        est = llr_second_moment(m, h, unit(1), reps=20_000, seed=5)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.stderr == 0.0

    def test_reps_floors(self, corr_pairs):
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="reps"):
            drift_post(model, hyp, unit(9, 10), reps=100)
        with pytest.raises(ValueError, match="reps"):
            drift_pre(model, unit(9, 10), reps=100)
        with pytest.raises(ValueError, match="reps"):
            llr_second_moment(model, hyp, unit(9, 10), reps=100)


class StubLaw(LocalDistribution):
    """Scalar law whose log density is a constant; llr streams are deterministic."""

    dim = 1

    def __init__(self, level: float):
        self.level = float(level)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.level
        return np.full(x.shape[0], self.level)

    def sample(self, rng, n):
        return rng.standard_normal((n, 1))


def stub_model(increment: float):
    """Model whose mixture llr is exactly ``increment`` at every step."""
    u = unit(1)
    base = StubLaw(0.0)
    shifted = StubLaw(increment)
    m = ChangePointModel(1, 1, (u,), {u: base}, {u: (shifted,)})
    h = PostChangeHypothesis(
        label="stub", local_post={u: shifted}
    )
    return m, h, u


def _spitzer_escape(draw, rng: np.random.Generator, reps: int, descend: bool) -> Estimate:
    """Probability that a random walk with increments from ``draw`` never
    crosses zero strictly, by Spitzer's identity: an oracle for the ladders.

    Never below zero with ``descend=True``, never above it otherwise. With
    tau the first n at which S_n is on the wrong side of zero, Spitzer's
    identity gives P(tau = inf) = exp(-sum_n P(S_n wrong side) / n). A pilot
    batch of ``reps`` increments gives the Chernoff rate rho, the smallest
    mean of exp(theta X) over theta in (0, 1] with X signed so that the
    escape direction is negative; then P(S_n wrong side) <= rho^n and the
    series tail beyond N is at most rho^(N+1) / ((N+1)(1 - rho)). The series
    is cut at the first N where that is below a hundredth of the Monte Carlo
    error, or at the ladders' horizon. Each of ``reps`` paths of N steps
    gives Z = sum_{n <= N} 1{S_n wrong side} / n; the estimate is
    exp(-mean Z) with the delta-method standard error, and a note when the
    horizon binds. A walk with rho >= 1 escapes with probability 0.
    """
    sign = -1.0 if descend else 1.0
    with np.errstate(over="ignore"):
        pilot = sign * draw(rng, reps)
        rho = min(float(np.exp(theta * pilot).mean()) for theta in np.geomspace(1e-3, 1.0, 61))
    if not rho < 1.0:
        return Estimate(0.0, 0.0, note=f"Chernoff rate {rho:.4g}")
    n = np.arange(1, bounds._LADDER_HORIZON + 1)
    tail = rho ** (n + 1) / ((n + 1) * (1.0 - rho))
    settled = tail <= 0.01 / math.sqrt(reps)
    cut = not settled.any()
    steps = bounds._LADDER_HORIZON if cut else int(np.argmax(settled)) + 1
    weights = 1.0 / n[:steps]
    # paths in blocks of at most 2^17 increments
    block = min(reps, (1 << 17) // steps)
    z = np.empty(reps)
    for lo in range(0, reps, block):
        b = min(block, reps - lo)
        walk = draw(rng, b * steps).reshape(b, steps)
        if descend:
            np.negative(walk, out=walk)
        np.cumsum(walk, axis=1, out=walk)
        np.greater(walk, 0.0, out=walk)
        np.matmul(walk, weights, out=z[lo : lo + b])
    q = math.exp(-float(z.mean()))
    note = f"series cut at horizon {bounds._LADDER_HORIZON}" if cut else None
    return Estimate(q, q * float(z.std(ddof=1)) / math.sqrt(reps), note=note)


def _first_passage_by_cumsum(draw, rng: np.random.Generator, walks: int, weak: bool):
    """``bounds._first_passage`` with every block, one column or more, taken
    by cumulative sum and argmax."""
    live, level = np.arange(walks), np.zeros(walks)
    steps, cols = 0, 1
    while live.size and steps < bounds._LADDER_HORIZON:
        k = live.size
        n = min(cols, max(1, bounds._BLOCK_ELEMENTS // k), bounds._LADDER_HORIZON - steps)
        walk = np.cumsum(draw(rng, k * n).reshape(k, n), axis=1) + level[:, None]
        up = walk >= 0.0 if weak else walk > 0.0
        rows, j = np.arange(k), up.argmax(axis=1)
        done = up[rows, j]
        j[~done] = n - 1
        level = walk[rows, j]
        yield live, np.where(done, steps + 1 + j, 0), level
        level, live = level[~done], live[~done]
        steps += n
        cols *= 2


def _mean_change_escape(mu: float) -> float:
    """exp(-sum_n Phi(-sqrt(n) mu / 2) / n), summed until the terms vanish."""
    n = np.arange(1, 200_001)
    return math.exp(-float((ndtr(-np.sqrt(n) * mu / 2.0) / n).sum()))


class TestLadderProbabilities:
    def test_ascending_walk(self):
        m, h, u = stub_model(+0.5)
        up = ladder_prob_no_descend(m, h, u, reps=10_000, seed=0)
        assert up.value == 1.0
        assert up.stderr == 0.0
        # the stub's constant log density is not a density, so its pre-change
        # walk, which ascends, has no valid counterpart; with valid laws the
        # pre-change walk drifts down, here far enough that most walks never
        # ascend
        mu = 3.0
        down = ladder_prob_no_ascend(mean_change_model(1, mu), unit(1), reps=10_000, seed=0)
        assert abs(down.value - _mean_change_escape(mu)) < 4.0 * down.stderr

    def test_descending_walk(self):
        m, h, u = stub_model(-0.5)
        up = ladder_prob_no_descend(m, h, u, reps=10_000, seed=0)
        assert up.value == 0.0
        down = ladder_prob_no_ascend(m, u, reps=10_000, seed=0)
        assert down.value == 1.0

    def test_gaussian_walk_probabilities_are_interior(self, corr_pairs):
        model, hyp = corr_pairs
        q_up = ladder_prob_no_descend(model, hyp, unit(9, 10), reps=10_000, seed=7)
        q_down = ladder_prob_no_ascend(model, unit(9, 10), reps=10_000, seed=7)
        assert 0.0 < q_up.value < 1.0
        assert 0.0 < q_down.value < 1.0
        assert q_up.stderr > 0.0

    @pytest.mark.parametrize("mu", [0.3, 0.5, 1.0])
    def test_ladders_match_exact_mean_change(self, mu):
        # the unit llr is N(-mu^2/2, mu^2) before the change and N(mu^2/2, mu^2)
        # after, so P(S_n on the wrong side) = Phi(-sqrt(n) mu / 2) both ways
        exact = _mean_change_escape(mu)
        m = mean_change_model(3, mu)
        h = mean_change_hypothesis(m, (1,), mu)
        up = ladder_prob_no_descend(m, h, unit(1), reps=10_000, seed=11)
        down = ladder_prob_no_ascend(m, unit(1), reps=10_000, seed=12)
        for est in (up, down):
            assert est.note is None
            assert abs(est.value - exact) < 4.0 * est.stderr

    def test_no_ascend_needs_no_horizon_at_weak_drift(self):
        # Spitzer's series would need more than the horizon here; under the
        # mixture law the walk still ascends within it
        mu = 0.2
        est = ladder_prob_no_ascend(mean_change_model(1, mu), unit(1), reps=10_000, seed=3)
        assert est.note is None
        assert abs(est.value - _mean_change_escape(mu)) < 4.0 * est.stderr

    def test_no_descend_needs_no_horizon_at_weak_drift(self):
        # the same drift for the post-change walk, whose first weak ascent
        # comes within the horizon although Spitzer's series does not settle
        mu = 0.2
        m = mean_change_model(1, mu)
        h = mean_change_hypothesis(m, (1,), mu)
        est = ladder_prob_no_descend(m, h, unit(1), reps=10_000, seed=3)
        assert est.note is None
        assert abs(est.value - _mean_change_escape(mu)) < 4.0 * est.stderr

    def test_horizon_cut_reports_upward_bias(self):
        # at a drift this weak some walks are still below zero after the
        # horizon; they count as ascending there, which biases q upward
        mu = 0.05
        m = mean_change_model(1, mu)
        h = mean_change_hypothesis(m, (1,), mu)
        est = ladder_prob_no_descend(m, h, unit(1), reps=10_000, seed=3)
        assert est.note is not None and "walks cut at horizon 1000" in est.note
        assert est.value > _mean_change_escape(mu)

    def test_zero_llr_never_ascends(self):
        # a family equal to the pre-change law: the llr is 0 and every walk is cut
        pre = GaussianLocal.standard(1)
        u = unit(1)
        m = ChangePointModel(1, 1, (u,), {u: pre}, {u: (pre,)})
        est = ladder_prob_no_ascend(m, u, reps=10_000, seed=0)
        assert (est.value, est.stderr) == (1.0, 0.0)
        assert est.note is not None and "10000 of 10000 walks cut at horizon 1000" in est.note

    @pytest.mark.parametrize(
        "name, kw",
        [("corr-pairs", {}), ("corr-pairs", dict(m=3, s=4)), ("signed-pairs", {})],
        ids=["corr-pairs-m2", "corr-pairs-m3", "signed-pairs"],
    )
    def test_no_ascend_agrees_with_spitzer(self, name, kw):
        model, _ = build_preset(name, **kw)
        E = model.units[0]
        tilted = ladder_prob_no_ascend(model, E, reps=10_000, seed=5)
        spitzer = _spitzer_escape(model.unit_class(E).draw, derive_rng(5, 0x6F0), 10_000, descend=False)
        assert tilted.note is None and spitzer.note is None
        assert abs(tilted.value - spitzer.value) < 4.0 * math.hypot(tilted.stderr, spitzer.stderr)
        assert 0.0 < tilted.stderr < spitzer.stderr

    @pytest.mark.parametrize(
        "name, kw",
        [("corr-pairs", {}), ("corr-pairs", dict(m=3, s=4)), ("signed-pairs", {})],
        ids=["corr-pairs-m2", "corr-pairs-m3", "signed-pairs"],
    )
    def test_no_descend_agrees_with_spitzer(self, name, kw):
        model, hyp = build_preset(name, **kw)
        E = max(affected_units(model, hyp))
        walk = ladder_prob_no_descend(model, hyp, E, reps=10_000, seed=5)
        draw = model.unit_class(E, hyp.local_post[E]).draw
        spitzer = _spitzer_escape(draw, derive_rng(6, 0x5F0), 10_000, descend=True)
        assert walk.note is None and spitzer.note is None
        assert abs(walk.value - spitzer.value) < 4.0 * math.hypot(walk.stderr, spitzer.stderr)

    def test_wrong_drift_is_exactly_zero(self):
        # the post-change law shifts the mean against the family, so the
        # post-change walk drifts down and never stays above zero
        m = mean_change_model(1, 1.0)
        u = unit(1)
        h = PostChangeHypothesis(
            label="reversed", local_post={u: GaussianLocal(-1.0, np.eye(1))}
        )
        est = ladder_prob_no_descend(m, h, u, reps=10_000, seed=0)
        assert est.value == 0.0
        assert est.stderr == 0.0
        assert est.note is not None

    def test_memory_is_flat_at_m3(self):
        model, hyp = build_preset("corr-pairs", m=3, s=4)
        tracemalloc.start()
        try:
            est = ladder_prob_no_descend(model, hyp, unit(7, 8, 9), reps=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < est.value < 1.0
        assert peak < 400 * 2**20

    def test_no_descend_memory_does_not_grow_with_reps(self):
        # the walks run in groups of fixed size with running sums of tau
        model, hyp = build_preset("corr-pairs", s=4)
        E = unit(7, 8)
        ladder_prob_no_descend(model, hyp, E, reps=10_000, seed=2)  # compiles the kernel
        peaks = []
        for reps in (10_000, 40_000):
            tracemalloc.start()
            try:
                ladder_prob_no_descend(model, hyp, E, reps=reps, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize("block", [bounds._BLOCK_ELEMENTS, 64])
    @pytest.mark.parametrize("weak", [False, True])
    def test_one_column_blocks_match_the_cumulative_sum(self, block, weak, monkeypatch):
        # a block of 64 elements makes every block one column while more
        # than 64 of the 500 walks are live
        monkeypatch.setattr(bounds, "_BLOCK_ELEMENTS", block)

        def draw(rng, n):
            return rng.standard_normal(n) - 0.1

        got = list(bounds._first_passage(draw, derive_rng(9), 500, weak=weak))
        want = list(_first_passage_by_cumsum(draw, derive_rng(9), 500, weak=weak))
        assert len(got) == len(want) > 1
        for a, b in zip(got, want):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_preconditions(self, corr_pairs):
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="reps"):
            ladder_prob_no_ascend(model, unit(9, 10), reps=100)
        with pytest.raises(ValueError, match="not affected"):
            ladder_prob_no_descend(model, hyp, unit(1, 2), reps=10_000)


class TestFirstOrderBounds:
    @pytest.fixture(scope="class")
    def pairs_report(self, corr_pairs):
        model, hyp = corr_pairs
        return bounds_report(model, hyp, gamma=1e2, reps=10_000, ladder_reps=10_000)

    def test_lower_bound_oracles(self, corr_pairs):
        model, hyp = corr_pairs
        assert lower_bound_first_order(1e5, model, hyp) == pytest.approx(LOWER_1E5, rel=1e-12)
        assert lower_bound_first_order(1e2, model, hyp) == pytest.approx(UPPER_1E2, rel=1e-12)

    def test_lower_bound_rejects_small_gamma(self, corr_pairs):
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="gamma"):
            lower_bound_first_order(1.0, model, hyp)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_lower_bound_rejects_non_finite_gamma(self, corr_pairs, gamma):
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="gamma must be finite"):
            lower_bound_first_order(gamma, model, hyp)

    def test_upper_bound_oracle(self, pairs_report):
        assert pairs_report.upper_bound_first_order == pytest.approx(UPPER_1E2, rel=1e-12)

    def test_upper_bound_rejects_nonpositive_threshold(self, corr_pairs):
        # gamma 1 puts the threshold log(gamma) at 0
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="gamma"):
            bounds_report(model, hyp, gamma=1.0, reps=10_000)

    def test_are_bound_homogeneous_is_one(self, pairs_report):
        assert pairs_report.are_bound == pytest.approx(1.0, rel=1e-12)

    def test_are_bound_heterogeneous_shifts(self):
        m = mean_change_model(2, {1: 1.0, 2: 2.0})
        h = mean_change_hypothesis(m, (1, 2), {1: 1.0, 2: 2.0})
        # largest info 2.0 against smallest drift 0.5
        rep = bounds_report(m, h, gamma=1e2, reps=10_000, ladder_reps=10_000)
        assert rep.are_bound == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("kw", [dict(K=10, s=2), dict(K=6, m=3, s=6)], ids=["K10-s2", "K6-m3-s6"])
    def test_first_order_bounds_read_the_unit_drift(self, kw):
        model, hyp = build_preset("corr-pairs", **kw)
        rep = bounds_report(model, hyp, gamma=1e2, reps=10_000, ladder_reps=10_000)
        j = min(rep.unit_stats[E].drift_post.value for E in affected_units(model, hyp))
        assert rep.upper_bound_first_order == rep.threshold / j == rep.nonasymptotic.first_order
        assert rep.are_bound == pytest.approx(rep.upper_bound_first_order / rep.lower_bound, rel=1e-12)

    def test_misspecified_singleton_degenerates(self, reversed_shift):
        model, hyp = reversed_shift
        rep = bounds_report(model, hyp, gamma=1e2, reps=10_000, ladder_reps=10_000)
        assert rep.upper_bound_first_order == math.inf
        assert rep.are_bound == math.inf
        assert rep.nonasymptotic is None
        assert rep.degenerate == "upper bound degenerate: smallest post-change drift is -1.5"


class TestClassifyOptimality:
    def test_corr_pairs_optimal(self, corr_pairs):
        model, hyp = corr_pairs
        assert classify_optimality(model, hyp) is OptimalityClass.ASYMPTOTICALLY_OPTIMAL

    def test_signed_pairs_bounded(self):
        model, hyp = build_preset("signed-pairs")
        assert classify_optimality(model, hyp) is OptimalityClass.BOUNDED_ARE

    def test_triples_indeterminate(self):
        model, hyp = build_preset("corr-pairs", m=3, s=3)
        assert classify_optimality(model, hyp) is OptimalityClass.INDETERMINATE

    def test_heterogeneous_singletons_bounded(self):
        m = mean_change_model(2, {1: 1.0, 2: 2.0})
        h = mean_change_hypothesis(m, (1, 2), {1: 1.0, 2: 2.0})
        assert classify_optimality(m, h) is OptimalityClass.BOUNDED_ARE

    def test_misspecified_singleton_indeterminate(self, reversed_shift):
        # the family matches the pre-change information, not the true drift
        assert classify_optimality(*reversed_shift) is OptimalityClass.INDETERMINATE

    def test_invisible_hypothesis_indeterminate(self):
        m = mean_change_model(2, 1.0)
        w = Unit((5,))
        h = PostChangeHypothesis(
            label="x",
            local_post={w: GaussianLocal(1.0, np.eye(1))},
        )
        assert classify_optimality(m, h) is OptimalityClass.INDETERMINATE


def make_stats(**q_no_ascend):
    """Hand-built statistics table for a 3-source scalar model, affected source 3."""
    stats = {}
    for k in (1, 2, 3):
        u = unit(k)
        base = dict(
            unit=u,
            info_number=Estimate(0.5 if k == 3 else 0.0),
            drift_pre=Estimate(0.5),
            q_no_ascend=Estimate(q_no_ascend.get(f"q{k}", {1: 0.25, 2: 0.5, 3: 0.2}[k])),
        )
        if k == 3:
            base.update(
                drift_post=Estimate(0.5),
                second_moment=Estimate(0.25),
                q_no_descend=Estimate(0.5),
            )
        stats[u] = UnitStatistics(**base)
    return stats


@pytest.fixture(scope="module")
def scalar_triplet():
    m = mean_change_model(3, 1.0)
    h = mean_change_hypothesis(m, (3,), 1.0)
    return m, h


class TestNonAsymptoticBound:
    def test_synthetic_arithmetic(self, scalar_triplet):
        m, h = scalar_triplet
        b = nonasymptotic_upper_bound(2.0, m, h, make_stats())
        assert b.first_order == pytest.approx(4.0)
        assert b.affected_overshoot == pytest.approx(4.0)
        # (1/0.25 + 1/0.5) / (1 - (1 - 0.5)) = 6 / 0.5
        assert b.unaffected_passage == pytest.approx(12.0)
        # (2 / 0.2) / (1 - 0.5): the worst no-ascend is at the affected source
        assert b.coarse_unaffected_passage == pytest.approx(20.0)
        assert b.total == pytest.approx(20.0)
        assert b.coarse_total == pytest.approx(28.0)
        assert b.coarse_total >= b.total

    def test_coarse_dominates_under_rounding(self):
        # one affected source and 44 unaffected ones with the same escape
        # probability: both passage terms are 44 / q in exact arithmetic, but
        # 44 summed copies of 1 / 0.37 round above 44 / 0.37
        K, q = 45, 0.37
        m = mean_change_model(K, 1.0)
        h = mean_change_hypothesis(m, (K,), 1.0)
        post = dict(drift_post=Estimate(0.5), second_moment=Estimate(1.0), q_no_descend=Estimate(0.5))
        stats = {}
        for E in m.units:
            stats[E] = UnitStatistics(
                unit=E,
                info_number=Estimate(0.5),
                drift_pre=Estimate(0.5),
                q_no_ascend=Estimate(q),
                **(post if E == unit(K) else {}),
            )
        b = nonasymptotic_upper_bound(2.0, m, h, stats)
        assert b.coarse_unaffected_passage >= b.unaffected_passage
        assert b.coarse_total >= b.total

    def test_additive_constant_flows_through(self, scalar_triplet):
        m, h = scalar_triplet
        b = nonasymptotic_upper_bound(2.0, m, h, make_stats(), additive_constant=3.0)
        assert b.additive_constant == 3.0
        assert b.total == pytest.approx(23.0)

    def test_halving_escape_probabilities_doubles_passage(self, scalar_triplet):
        m, h = scalar_triplet
        b = nonasymptotic_upper_bound(2.0, m, h, make_stats(q1=0.125, q2=0.25))
        assert b.unaffected_passage == pytest.approx(24.0)

    def test_all_affected_has_no_passage_term(self):
        m = mean_change_model(2, 1.0)
        h = mean_change_hypothesis(m, (1, 2), 1.0)
        stats = {
            u: UnitStatistics(
                unit=u,
                info_number=Estimate(0.5),
                drift_pre=Estimate(0.5),
                q_no_ascend=Estimate(0.4),
                drift_post=Estimate(0.5),
                second_moment=Estimate(1.0),
                q_no_descend=Estimate(0.5),
            )
            for u in m.units
        }
        b = nonasymptotic_upper_bound(2.0, m, h, stats)
        assert b.unaffected_passage == 0.0
        assert b.coarse_unaffected_passage == 0.0

    def test_degenerate_zero_no_descend(self, scalar_triplet):
        m, h = scalar_triplet
        stats = make_stats()
        u = unit(3)
        stats[u] = UnitStatistics(
            unit=u,
            info_number=Estimate(0.5),
            drift_pre=Estimate(0.5),
            q_no_ascend=Estimate(0.2),
            drift_post=Estimate(0.5),
            second_moment=Estimate(0.25),
            q_no_descend=Estimate(0.0),
        )
        with pytest.raises(DegenerateBoundError, match="no-descend"):
            nonasymptotic_upper_bound(2.0, m, h, stats)

    def test_degenerate_nonpositive_drift(self, scalar_triplet):
        m, h = scalar_triplet
        stats = make_stats()
        u = unit(3)
        stats[u] = UnitStatistics(
            unit=u,
            info_number=Estimate(0.5),
            drift_pre=Estimate(0.5),
            q_no_ascend=Estimate(0.2),
            drift_post=Estimate(-0.01),
            second_moment=Estimate(0.25),
            q_no_descend=Estimate(0.5),
        )
        with pytest.raises(DegenerateBoundError, match="drift"):
            nonasymptotic_upper_bound(2.0, m, h, stats)

    def test_degenerate_zero_no_ascend(self, scalar_triplet):
        m, h = scalar_triplet
        with pytest.raises(DegenerateBoundError, match="no-ascend"):
            nonasymptotic_upper_bound(2.0, m, h, make_stats(q1=0.0))

    def test_missing_statistics(self, scalar_triplet):
        m, h = scalar_triplet
        stats = make_stats()
        del stats[unit(2)]
        with pytest.raises(ValueError, match="missing"):
            nonasymptotic_upper_bound(2.0, m, h, stats)

    def test_missing_post_entries(self, scalar_triplet):
        m, h = scalar_triplet
        stats = make_stats()
        u = unit(3)
        stats[u] = UnitStatistics(
            unit=u,
            info_number=Estimate(0.5),
            drift_pre=Estimate(0.5),
            q_no_ascend=Estimate(0.2),
        )
        with pytest.raises(ValueError, match="post-change entries"):
            nonasymptotic_upper_bound(2.0, m, h, stats)

    def test_rejects_bad_threshold(self, scalar_triplet):
        m, h = scalar_triplet
        with pytest.raises(ValueError, match="threshold"):
            nonasymptotic_upper_bound(-1.0, m, h, make_stats())


class TestComputeUnitStatistics:
    def test_class_sharing_and_stub_values(self):
        m, h, u = stub_model(+0.5)
        stats = compute_unit_statistics(m, h, reps=10_000, ladder_reps=10_000, seed=0)
        st = stats[u]
        assert st.q_no_descend.value == 1.0
        assert st.drift_post.value == 0.5
        assert st.second_moment.value == 0.0
        # no-ascend needs a valid law: both mean-change units are one
        # pre-change class and share its estimate
        mu = 1.0
        m = mean_change_model(2, mu)
        stats = compute_unit_statistics(m, mean_change_hypothesis(m, (2,), mu), reps=10_000, ladder_reps=10_000)
        q = stats[unit(1)].q_no_ascend
        assert stats[unit(2)].q_no_ascend is q
        assert abs(q.value - _mean_change_escape(mu)) < 4.0 * q.stderr

    @pytest.mark.slow
    def test_equivalent_units_share_estimates(self):
        model, hyp = build_preset("corr-pairs", K=6)
        stats = compute_unit_statistics(model, hyp, reps=10_000, ladder_reps=10_000, seed=0)
        assert set(stats) == set(model.units)
        # all unaffected pairs form one equivalence class
        a = stats[unit(1, 2)]
        b = stats[unit(1, 3)]
        assert a.drift_pre is b.drift_pre
        assert a.q_no_ascend is b.q_no_ascend
        assert a.drift_post is None
        affected = stats[unit(5, 6)]
        assert affected.drift_post is not None
        assert affected.q_no_descend is not None
        assert affected.info_number.value == pytest.approx(PAIR_INFO, abs=1e-14)


class TestBoundsReport:
    @pytest.mark.slow
    def test_full_report(self):
        model, hyp = build_preset("corr-pairs", K=6)
        rep = bounds_report(
            model, hyp, gamma=1e4, reps=10_000, ladder_reps=10_000, seed=0
        )
        want = math.log(1e4) / PAIR_INFO
        assert rep.lower_bound == pytest.approx(want, rel=1e-12)
        assert rep.upper_bound_first_order == pytest.approx(want, rel=1e-12)
        assert rep.are_bound == pytest.approx(1.0, rel=1e-12)
        assert rep.optimality is OptimalityClass.ASYMPTOTICALLY_OPTIMAL
        assert not rep.lower_bound_restricted
        assert rep.degenerate is None
        assert rep.nonasymptotic is not None
        assert rep.nonasymptotic.total >= want
        flat = rep.to_flat_dict()
        assert flat["optimality"] == "asymptotically_optimal"
        assert flat["unit.5-6.info_number"] == pytest.approx(PAIR_INFO, abs=1e-14)
        assert "unit.5-6.q_no_descend" in flat
        assert "unit.1-2.drift_post" not in flat
        assert flat["upper_bound_total"] == rep.nonasymptotic.total
        assert flat["upper_bound_coarse"] >= flat["upper_bound_total"]

    @pytest.mark.slow
    def test_restricted_flag_without_closed_form_maximum(self):
        # model that samples only two of the three pairs, hypothesis without
        # a recorded unrestricted maximum
        pre = GaussianLocal.standard(2)
        post = GaussianLocal(0.0, np.array([[1.0, 0.7], [0.7, 1.0]]))
        units = (unit(1, 2), unit(2, 3))
        m = ChangePointModel(
            3, 2, units, {u: pre for u in units}, {u: (post,) for u in units}
        )
        h = PostChangeHypothesis(
            label="partial", local_post={unit(2, 3): post}
        )
        rep = bounds_report(m, h, gamma=100.0, reps=10_000, ladder_reps=10_000, seed=0)
        assert rep.lower_bound_restricted
        assert rep.to_flat_dict()["lower_bound_restricted"] is True

    def test_rejects_bad_gamma(self, corr_pairs):
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="gamma"):
            bounds_report(model, hyp, gamma=0.5, reps=10_000)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_rejects_non_finite_gamma(self, corr_pairs, gamma):
        model, hyp = corr_pairs
        with pytest.raises(ValueError, match="gamma must be finite"):
            bounds_report(model, hyp, gamma=gamma, reps=10_000)
