"""Unit classes: the compiled Gaussian kernel, the generic sample-and-score
path, and the bounds that share them."""

from __future__ import annotations

import math
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from rrcusum import bounds, montecarlo
from rrcusum.bounds import (
    bounds_report,
    compute_unit_statistics,
    drift_post,
    drift_pre,
    ladder_prob_no_ascend,
    llr_second_moment,
    lower_bound_first_order,
    validate_model,
)
from rrcusum.gaussian import _KERNEL_SLICE, GaussianLocal, GaussianMixtureKernel
from rrcusum.model import (
    ChangePointModel,
    LocalDistribution,
    PostChangeHypothesis,
    _mixture_draw,
    _sample_and_score,
    affected_units,
    derive_rng,
    derive_seed,
    unit,
)
from rrcusum.montecarlo import Ordering, StudyConfig, estimate_delay
from rrcusum.scenarios import build_preset, mean_change_hypothesis, mean_change_model

PRESET_CASES = [
    ("corr-pairs", dict(K=6, m=2, s=4)),
    ("corr-pairs", dict(K=6, m=3, s=4)),
    ("corr-pairs", dict(K=6, m=4, s=5)),
    ("signed-pairs", dict(K=5)),
    ("mean-change", dict(K=5, s=2)),
]


def _case_id(case):
    name, kw = case
    return name + "-" + "-".join(f"{k}{v}" for k, v in kw.items())


def _laws(model, hyp, E):
    yield model.pre_local[E]
    if hyp.is_affected(E):
        yield hyp.local_post[E]


@pytest.mark.parametrize("case", PRESET_CASES, ids=_case_id)
@pytest.mark.parametrize("n", [1, 257, 9000])  # 9000 spans three kernel slices
def test_kernel_matches_mixture_llr_and_random_stream(case, n):
    name, kw = case
    model, hyp = build_preset(name, **kw)
    for E in model.units:
        for law in _laws(model, hyp, E):
            draw = model.unit_class(E, law).draw
            assert isinstance(draw, GaussianMixtureKernel)
            rng_kernel, rng_ref = np.random.default_rng(17), np.random.default_rng(17)
            got = draw(rng_kernel, n)
            want = np.asarray(model.mixture_llr(E, law.sample(rng_ref, n)))
            assert got.shape == (n,)
            assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want))), (E, law)
            assert rng_kernel.bit_generator.state == rng_ref.bit_generator.state


def _kernels():
    """(kernel, its law, pre-change law and family), for a singleton family
    at m=2 and for a member of seven at m=3 and of 26 at m=4."""
    out = []
    for m in (2, 3, 4):
        model, hyp = build_preset("corr-pairs", K=6, m=m, s=4)
        E = max(hyp.affected_units)
        laws = (hyp.local_post[E], model.pre_local[E], model.post_family[E])
        out.append((model.unit_class(E, laws[0]).draw, laws))
    assert [len(laws[2]) for _, laws in out] == [1, 7, 26]
    return out


@pytest.mark.parametrize("sizes", [(1, 257, 9000), (9000, 257, 1), (257, 9000, 9000)])
def test_kernel_draws_do_not_alias_its_scratch(sizes):
    for kernel, _ in _kernels():
        rng = np.random.default_rng(8)
        draws = [kernel(rng, n) for n in sizes]
        kept = [d.copy() for d in draws]
        for n in sizes:  # another round through the same scratch
            kernel(rng, n)
        for i, (d, k) in enumerate(zip(draws, kept)):
            np.testing.assert_array_equal(d, k)
            assert not any(np.shares_memory(d, e) for e in draws[i + 1 :])


@pytest.mark.parametrize("n", [1, 257, 9000])
def test_kernel_draw_equals_a_fresh_kernel(n):
    for kernel, laws in _kernels():
        for size in (9000, 3, 4096):  # fill the scratch with other draws first
            kernel(np.random.default_rng(size), size)
        fresh = GaussianMixtureKernel(*laws)
        np.testing.assert_array_equal(
            kernel(np.random.default_rng(11), n), fresh(np.random.default_rng(11), n)
        )


def test_kernel_fills_in_place_what_it_draws():
    # the in-place form writes the increments a draw returns, here into a view
    # of a larger array across three slices, and leaves the same random stream
    n = 2 * _KERNEL_SLICE + 5
    for kernel, laws in _kernels()[:2]:  # one member at m = 2, seven at m = 3
        rng_fill, rng_draw = np.random.default_rng(6), np.random.default_rng(6)
        buf = np.full(n + 3, np.nan)
        kernel.fill(rng_fill, buf[2:-1])
        want = kernel(rng_draw, n)
        assert buf[2:-1].tobytes() == want.tobytes(), len(laws[2])
        assert np.isnan(buf[:2]).all() and np.isnan(buf[-1])
        assert rng_fill.bit_generator.state == rng_draw.bit_generator.state


def test_kernels_of_different_shapes_interleave_bit_for_bit():
    # every kernel cuts its slice out of the one scratch of the thread
    kernels = _kernels()
    sizes = (9000, 1, 4096, 257)
    want = [[GaussianMixtureKernel(*laws)(np.random.default_rng(n), n) for n in sizes] for _, laws in kernels]
    for i, n in enumerate(sizes):
        for k in (2, 0, 1) if i % 2 else (0, 1, 2):
            np.testing.assert_array_equal(kernels[k][0](np.random.default_rng(n), n), want[k][i])


@pytest.mark.parametrize("picks", [(1, 1), (0, 2)], ids=["same-kernel", "other-kernels"])
def test_threads_draw_at_once_bit_for_bit(picks):
    kernels = [kernel for kernel, _ in _kernels()]
    sizes = (9000, 257, 4096, 1) * 8

    def draws(k, seed):
        rng = np.random.default_rng(seed)
        return [kernels[k](rng, n) for n in sizes]

    jobs = list(zip(picks, (21, 22)))
    want = [draws(*job) for job in jobs]
    got = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def work(i):
        start.wait()
        got[i] = draws(*jobs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for g, w in zip(got, want):
        assert g is not None
        for a, b in zip(g, w):
            np.testing.assert_array_equal(a, b)


def test_memory_of_a_mixture_draw_does_not_grow_with_its_members():
    model, _ = build_preset("corr-pairs", K=5, m=4, s=4)
    E = model.units[0]
    tracemalloc.start()
    try:
        # compiles the 26 member classes and draws through each of them
        model.mixture_draw(E)(np.random.default_rng(3), 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model._classes) == len(model.post_family[E]) == 26
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MB traced"


def test_kernel_handles_a_signed_mean_family():
    model = mean_change_model(3, 0.8, signed=True)
    hyp = mean_change_hypothesis(model, (3,), -0.8)
    for E in model.units:
        for law in _laws(model, hyp, E):
            rng_kernel, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
            got = model.unit_class(E, law).draw(rng_kernel, 100)
            want = np.asarray(model.mixture_llr(E, law.sample(rng_ref, 100)))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_classes_are_shared_and_compiled_once():
    model, hyp = build_preset("corr-pairs", K=6, m=2, s=3)
    pre = {model.unit_class(E) for E in model.units}
    assert len(pre) == 1
    post = {model.unit_class(E, hyp.local_post[E]) for E in sorted(hyp.affected_units)}
    assert len(post) == 1
    # an equal law built separately falls in the same class
    E = max(hyp.affected_units)
    other = GaussianLocal(hyp.local_post[E].mean, hyp.local_post[E].cov)
    assert other is not hyp.local_post[E]
    assert model.unit_class(E, other) is next(iter(post))


# ---------------------------------------------------------------------------
# The class table: one numbering for the engine, the run length and the bounds


def _after_change(model: ChangePointModel, hyp: PostChangeHypothesis) -> ChangePointModel:
    """The model whose pre-change laws are the laws under the hypothesis, so
    that its pre-change classes interleave as the post-change ones do."""
    pre = {E: hyp.local_post[E] if hyp.is_affected(E) else model.pre_local[E] for E in model.units}
    return ChangePointModel(model.K, model.m, model.units, pre, model.post_family)


def _first_appearance(model, units, hyp=None):
    """Reference numbering: the keys of ``units`` in order of first appearance,
    and the index of every unit's key among them."""
    keys = [model.unit_class(E, hyp.local_post[E] if hyp and hyp.is_affected(E) else None).key for E in units]
    distinct = list(dict.fromkeys(keys))
    return distinct, [distinct.index(k) for k in keys]


@pytest.fixture(scope="module")
def interleaved():
    # canonical order: the affected units are spread between unaffected ones
    model, hyp = build_preset("corr-pairs", K=10, m=3, s=4)
    assert list(model.units) == sorted(model.units)
    return model, hyp


def test_class_table_numbers_classes_by_first_appearance(interleaved):
    model, hyp = interleaved
    classes, first, index = model.class_table(model.units, hyp)
    keys, want = _first_appearance(model, model.units, hyp)
    assert len(keys) == 3
    assert np.any(np.diff(index) < 0)  # a class comes back after a later one
    assert index.tolist() == want
    assert [cls.key for cls in classes] == keys
    assert first == [model.units[want.index(k)] for k in range(len(keys))]
    assert classes == [model.unit_class(E, hyp.local_post[E] if hyp.is_affected(E) else None) for E in first]


def test_engine_regime_reads_the_class_table(interleaved):
    model, hyp = interleaved
    for h in (hyp, None):
        classes, _, index = model.class_table(model.units, h)
        regime = montecarlo._compile_regime(model, model.units, h)
        assert regime.draws == [cls.draw for cls in classes]
        assert regime.class_of[regime.stretch_of].tolist() == index.tolist()
        starts = np.flatnonzero(np.diff(index, prepend=-1))
        assert regime.stretch_end.tolist() == [*starts[1:], len(index)]


def test_run_length_reads_the_pre_change_class_table(interleaved, monkeypatch):
    model = _after_change(*interleaved)
    _, first, index = model.class_table(model.units)
    _, want = _first_appearance(model, model.units)
    assert np.any(np.diff(index) < 0) and index.tolist() == want
    seen = {"first": [], "cls": None}
    run_excursions = montecarlo._run_excursions

    def spy_excursions(model_, E, c, *rest):
        seen["first"].append((c, E))
        return run_excursions(model_, E, c, *rest)

    def spy_renewal(ell, ell_se, p, p_se, cls):
        seen["cls"] = cls
        return 1.0, 0.0

    monkeypatch.setattr(montecarlo, "_run_excursions", spy_excursions)
    monkeypatch.setattr(montecarlo, "_renewal_arl", spy_renewal)
    montecarlo.estimate_arl(model, montecarlo.RunSpec(gamma=10.0, replications=200, seed=1), cap=200)
    assert seen["first"] == list(enumerate(first))
    assert seen["cls"].tolist() == want


@pytest.mark.parametrize("after_change", [False, True], ids=["corr-pairs", "after-change"])
def test_bounds_tables_read_the_class_table(interleaved, after_change, monkeypatch):
    model, hyp = interleaved
    if after_change:
        model = _after_change(model, hyp)
    calls = []
    for name in ("drift_pre", "drift_post"):
        original = getattr(bounds, name)

        def spy(model_, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, args[-1], kwargs["seed"]))
            return _original(model_, *args, **kwargs)

        monkeypatch.setattr(bounds, name, spy)
    validate_model(model, hyp, mc_budget=10_000, seed=5)
    affected = [E for E in model.units if hyp.is_affected(E)]
    _, pre_first, _ = model.class_table(model.units)
    _, post_first, _ = model.class_table(affected, hyp)
    want = [("drift_pre", E, derive_seed(5, k, 2)) for k, E in enumerate(pre_first)]
    want += [("drift_post", E, derive_seed(5, j, 4)) for j, E in enumerate(post_first)]
    assert sorted(calls) == sorted(want)
    for units, h, first in ((model.units, None, pre_first), (affected, hyp, post_first)):
        keys, numbering = _first_appearance(model, units, h)
        assert first == [units[numbering.index(k)] for k in range(len(keys))]


def test_model_with_compiled_classes_pickles():
    model, hyp = build_preset("corr-pairs", K=5, m=3, s=3)
    E = max(hyp.affected_units)
    model.unit_class(E, hyp.local_post[E])
    for drawn in (False, True):
        if drawn:  # the classes have worked in the thread's scratch
            model.mixture_draw(E)(np.random.default_rng(1), 9000)
        data = pickle.dumps(model)
        assert len(data) < 100_000  # a kernel holds only its weights
        clone = pickle.loads(data)
        a = clone.unit_class(E, hyp.local_post[E]).draw(np.random.default_rng(2), 10)
        b = model.unit_class(E, hyp.local_post[E]).draw(np.random.default_rng(2), 10)
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# The generic path: a law without a compiled form


class Wrapped(LocalDistribution):
    """A non-Gaussian law type that delegates to a Gaussian one."""

    def __init__(self, inner: GaussianLocal):
        self.inner = inner
        self.dim = inner.dim

    def logpdf(self, x):
        return self.inner.logpdf(x)

    def sample(self, rng, n):
        return self.inner.sample(rng, n)


def _wrap(model: ChangePointModel, hyp: PostChangeHypothesis):
    wrapped: dict[int, Wrapped] = {}

    def w(law):
        return wrapped.setdefault(id(law), Wrapped(law))

    wmodel = ChangePointModel(
        K=model.K,
        m=model.m,
        units=model.units,
        pre_local={E: w(model.pre_local[E]) for E in model.units},
        post_family={E: tuple(w(g) for g in model.post_family[E]) for E in model.units},
    )
    whyp = PostChangeHypothesis(
        label=hyp.label,
        local_post={E: w(law) for E, law in hyp.local_post.items()},
    )
    return wmodel, whyp


@pytest.fixture(scope="module")
def gaussian_and_wrapped():
    model, hyp = build_preset("corr-pairs", K=5, m=3, s=4)
    return (model, hyp), _wrap(model, hyp)


def test_wrapped_laws_take_the_generic_path(gaussian_and_wrapped):
    (model, hyp), (wmodel, whyp) = gaussian_and_wrapped
    E = max(hyp.affected_units)
    assert isinstance(model.unit_class(E, hyp.local_post[E]).draw, GaussianMixtureKernel)
    assert not isinstance(wmodel.unit_class(E, whyp.local_post[E]).draw, GaussianMixtureKernel)
    # the default key is the law itself, so distinct wrappers of equal laws differ
    assert Wrapped(model.pre_local[E]).key() != Wrapped(model.pre_local[E]).key()


def test_gaussian_law_with_a_foreign_family_member_samples_and_scores():
    # the pre-change and observed laws are Gaussian, but one member of the
    # family is not, so the law compiles no kernel
    model, _ = build_preset("corr-pairs", K=4, m=3, s=3)
    E = model.units[0]
    pre, family = model.pre_local[E], model.post_family[E]
    mixed_family = (Wrapped(family[0]),) + family[1:]
    assert pre.compile_llr(pre, mixed_family) is None
    mixed = ChangePointModel(
        K=model.K,
        m=model.m,
        units=model.units,
        pre_local=model.pre_local,
        post_family={**model.post_family, E: mixed_family},
    )
    draw = mixed.unit_class(E).draw
    assert not isinstance(draw, GaussianMixtureKernel)
    rng, rng_ref, rng_kernel = (np.random.default_rng(4) for _ in range(3))
    got = draw(rng, 300)
    np.testing.assert_array_equal(got, _sample_and_score(mixed, E, pre, rng_ref, 300))
    # the wrapper delegates, so the all-Gaussian kernel scores the same draws
    kernel = model.unit_class(E).draw(rng_kernel, 300)
    assert np.all(np.abs(got - kernel) <= 1e-9 * (1.0 + np.abs(kernel)))
    assert rng.bit_generator.state == rng_ref.bit_generator.state == rng_kernel.bit_generator.state


def test_generic_and_compiled_paths_give_the_same_delay(gaussian_and_wrapped):
    (model, hyp), (wmodel, whyp) = gaussian_and_wrapped
    config = StudyConfig(
        K=5, m=3, rho=0.7, gamma=20.0, s_values=(4,), replications=200, seed=5,
        ordering=Ordering.AS_GIVEN,
    )
    fast = estimate_delay(model, hyp, config)
    generic = estimate_delay(wmodel, whyp, config)
    assert generic.mean == pytest.approx(fast.mean, rel=1e-12)
    assert generic.stderr == pytest.approx(fast.stderr, rel=1e-9)


def test_generic_and_compiled_paths_give_the_same_ladder_estimate(gaussian_and_wrapped):
    (model, _), (wmodel, _) = gaussian_and_wrapped
    E = model.units[0]
    fast = ladder_prob_no_ascend(model, E, reps=10_000, seed=3)
    generic = ladder_prob_no_ascend(wmodel, E, reps=10_000, seed=3)
    assert generic.value == pytest.approx(fast.value, rel=1e-9)
    assert generic.stderr == pytest.approx(fast.stderr, rel=1e-9)


# ---------------------------------------------------------------------------
# Exact moments of one-member classes


def _one_member_classes(presets):
    """(model, hypothesis, first unit, law) of every distinct class met in the
    presets, with the law None for a pre-change class."""
    seen, out = set(), []
    for name, kw in presets:
        model, hyp = build_preset(name, **kw)
        for E in model.units:
            for law in (None, hyp.local_post[E]) if hyp.is_affected(E) else (None,):
                key = model.unit_class(E, law).key
                if key not in seen:
                    seen.add(key)
                    out.append((model, hyp, E, law))
    return out


MOMENT_CASES = {
    # the preset at every block size of study 1
    "corr-pairs-m2": [("corr-pairs", dict(m=2, rho=0.7, s=s)) for s in range(2, 11)],
    "mean-change": [("mean-change", dict(s=3))],
}


@pytest.mark.parametrize("presets", MOMENT_CASES.values(), ids=MOMENT_CASES.keys())
def test_exact_moments_agree_with_sample_and_score(presets):
    # the wrapped laws have no kernel, so the same estimators fall back to
    # Monte Carlo over the sample-and-score draw
    classes = _one_member_classes(presets)
    assert {law is None for *_, law in classes} == {True, False}
    for model, hyp, E, law in classes:
        assert model.unit_class(E, law).moments is not None
        wmodel, whyp = _wrap(model, hyp)
        if law is None:
            pairs = [(drift_pre(model, E), drift_pre(wmodel, E, seed=2))]
        else:
            pairs = [
                (drift_post(model, hyp, E), drift_post(wmodel, whyp, E, seed=2)),
                (llr_second_moment(model, hyp, E), llr_second_moment(wmodel, whyp, E, seed=2)),
            ]
        for exact, mc in pairs:
            assert exact.stderr == 0.0
            assert mc.stderr > 0.0
            assert abs(exact.value - mc.value) < 3.0 * mc.stderr, (E, law, exact, mc)


@pytest.mark.parametrize(
    "name, kw", [("corr-pairs", dict(m=3, s=4)), ("signed-pairs", {})], ids=["corr-pairs-m3", "signed-pairs"]
)
def test_mixture_classes_keep_monte_carlo_errors(name, kw):
    model, hyp = build_preset(name, **kw)
    for E in model.units:
        assert model.unit_class(E).moments is None
        assert drift_pre(model, E, reps=10_000).stderr > 0.0
        if hyp.is_affected(E):
            assert model.unit_class(E, hyp.local_post[E]).moments is None
            assert llr_second_moment(model, hyp, E, reps=10_000).stderr > 0.0


def test_mixture_draw_of_one_member_is_the_member_draw():
    model, _ = build_preset("corr-pairs", m=2, s=4)
    E = model.units[0]
    (g,) = model.post_family[E]
    member = model.unit_class(E, g).draw
    assert model.mixture_draw(E) is member
    # and its draws are those of a pick among one member, bit for bit
    rng_one, rng_pick = derive_rng(5), derive_rng(5)
    np.testing.assert_array_equal(model.mixture_draw(E)(rng_one, 5000), _mixture_draw([member], rng_pick, 5000))
    assert rng_one.bit_generator.state == rng_pick.bit_generator.state


# ---------------------------------------------------------------------------
# The bounds on top of the classes


def _count(monkeypatch, *names):
    """Names of the calls made to the given functions of ``bounds``."""
    calls = []
    for name in names:
        original = getattr(bounds, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    return calls


BUDGET = dict(reps=10_000, seed=1)


@pytest.mark.parametrize(
    "case", [("signed-pairs", dict(K=5)), ("corr-pairs", dict(K=6, m=3, s=4))], ids=_case_id
)
def test_report_estimates_the_smallest_drift_once(case, monkeypatch):
    # the first-order bounds read J from the unit statistics, not a second estimate
    name, kw = case
    model, hyp = build_preset(name, **kw)
    gamma = 100.0
    calls = _count(monkeypatch, "drift_post")
    report = bounds_report(model, hyp, gamma, ladder_reps=10_000, **BUDGET)
    in_report = len(calls)
    calls.clear()
    stats = compute_unit_statistics(model, hyp, ladder_reps=10_000, **BUDGET)
    assert in_report == len(calls)
    assert report.unit_stats == stats
    j = min(stats[E].drift_post.value for E in affected_units(model, hyp))
    b = report.nonasymptotic
    if j > 0.0:
        assert b.first_order == math.log(gamma) / j
        assert report.are_bound == pytest.approx(b.first_order / report.lower_bound, rel=1e-12)
    else:
        assert b.first_order == report.are_bound == math.inf
        assert f"smallest post-change drift is {j:.4g}" in b.degenerate
    assert report.lower_bound == lower_bound_first_order(gamma, model, hyp)


def test_unit_statistics_cache_skips_known_classes_and_changes_nothing(monkeypatch):
    model, hyp3 = build_preset("corr-pairs", K=6, m=2, s=3)
    hyp4 = build_preset("corr-pairs", K=6, m=2, s=4)[1]
    budget = dict(reps=10_000, ladder_reps=10_000, seed=4)
    cache: dict = {}
    compute_unit_statistics(model, hyp3, cache=cache, **budget)
    calls = _count(monkeypatch, "drift_post")
    cached = compute_unit_statistics(model, hyp4, cache=cache, **budget)
    assert calls == []  # every class of s = 4 already appeared at s = 3
    assert cached == compute_unit_statistics(model, hyp4, **budget)


# ---------------------------------------------------------------------------
# One estimate per class for every consumer


def test_units_of_a_pre_change_class_share_its_estimates():
    model, hyp = build_preset("corr-pairs", K=6, s=4)
    stats = compute_unit_statistics(model, hyp, reps=10_000, ladder_reps=10_000)
    first = stats[unit(1, 2)]
    assert not hyp.is_affected(first.unit)
    for st in stats.values():
        assert st.drift_pre is first.drift_pre
        assert st.q_no_ascend is first.q_no_ascend


def test_a_class_in_both_tables_is_estimated_once(monkeypatch):
    # corr-pairs at m = 3 with {1,2,3} affected but following its pre-change
    # law: one pre-change class, which also serves {1,2,3} after the change,
    # and two post-change classes of the block
    model, hyp = build_preset("corr-pairs", m=3, s=4)
    E = unit(1, 2, 3)
    hyp = PostChangeHypothesis(label="unchanged and block", local_post={E: model.pre_local[E], **hyp.local_post})
    calls = _count(monkeypatch, "drift_pre", "ladder_prob_no_ascend", "drift_post", "ladder_prob_no_descend")
    stats = compute_unit_statistics(model, hyp, reps=10_000, ladder_reps=10_000, seed=4)
    pre, post = ["drift_pre", "ladder_prob_no_ascend"], ["drift_post", "ladder_prob_no_descend"]
    assert sorted(calls) == sorted(pre + 3 * post)
    assert stats[E].drift_post.value < 0.0
    assert stats[E].q_no_descend.value == 0.0


@pytest.mark.parametrize("m, ladders", [(2, 2), (3, 3)])
def test_one_ladder_call_per_class_of_each_table(m, ladders, monkeypatch):
    # one pre-change class; one post-change class at m = 2, two at m = 3
    model, hyp = build_preset("corr-pairs", K=10, m=m, s=4)
    calls = _count(monkeypatch, "ladder_prob_no_ascend", "ladder_prob_no_descend")
    compute_unit_statistics(model, hyp, reps=10_000, ladder_reps=10_000)
    assert calls.count("ladder_prob_no_ascend") == 1
    assert len(calls) == ladders


def test_report_takes_the_information_number_from_its_unit_table(gaussian_and_wrapped, monkeypatch):
    # the wrapped laws have no closed form, so I is estimated, once per class
    _, (wmodel, whyp) = gaussian_and_wrapped
    affected = affected_units(wmodel, whyp)
    classes = {wmodel.unit_class(E, whyp.local_post[E]).key for E in affected}
    assert whyp.info_number_max is None and len(classes) < len(affected)
    calls = _count(monkeypatch, "info_number")
    report = bounds_report(wmodel, whyp, 100.0, reps=10_000, ladder_reps=10_000)
    assert len(calls) == len(classes)
    top = max(report.unit_stats[E].info_number.value for E in affected)
    assert report.lower_bound == math.log(100.0) / top
    assert report.lower_bound == lower_bound_first_order(100.0, wmodel, whyp, report.unit_stats)
    with pytest.raises(ValueError, match="compute_unit_statistics"):
        lower_bound_first_order(100.0, wmodel, whyp)


@pytest.mark.parametrize("case", PRESET_CASES, ids=_case_id)
def test_validate_reads_the_drifts_of_the_unit_statistics(case):
    name, kw = case
    model, hyp = build_preset(name, **kw)
    report = validate_model(model, hyp, mc_budget=10_000, seed=6)
    stats = compute_unit_statistics(model, hyp, reps=10_000, ladder_reps=10_000, seed=6)
    assert [u.unit for u in report.per_unit] == list(model.units)
    for u in report.per_unit:
        assert u.drift_pre == stats[u.unit].drift_pre
        assert u.drift_post == stats[u.unit].drift_post
