"""Model containers: units, mixtures, hypotheses, validation."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import special

from rrcusum.bounds import validate_model
from rrcusum.gaussian import GaussianLocal
from rrcusum.model import (
    ChangePointModel,
    PostChangeHypothesis,
    Unit,
    affected_units,
    logsumexp,
    sample_mean,
    unit,
)

PAIR_INFO = 0.3366722766318828


def pair(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def small_model(rho=0.7):
    """Three sources, all three pairs monitored, standard normal before the change."""
    pre = GaussianLocal.standard(2)
    family = (GaussianLocal(0.0, pair(rho)),)
    units = tuple(unit(i, j) for i in (1, 2) for j in range(i + 1, 4))
    return ChangePointModel(
        K=3,
        m=2,
        units=units,
        pre_local={u: pre for u in units},
        post_family={u: family for u in units},
    )


class TestUnit:
    def test_sorted_and_unique(self):
        u = unit(3, 1)
        assert u.sources == (1, 3)
        assert u.size == 2
        assert str(u) == "{1,3}"

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            unit(2, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            unit(0, 1)
        with pytest.raises(ValueError):
            Unit((-1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Unit(())

    def test_rejects_unsorted_tuple(self):
        with pytest.raises(ValueError):
            Unit((3, 1))

    def test_ordering_is_lexicographic(self):
        assert unit(1, 2) < unit(1, 2, 4) < unit(1, 3) < unit(2, 3)
        assert sorted([unit(2, 3), unit(1, 3), unit(1, 2)]) == [
            unit(1, 2),
            unit(1, 3),
            unit(2, 3),
        ]

    def test_hashable_and_equal(self):
        assert unit(1, 2) == Unit((1, 2))
        assert len({unit(1, 2), Unit((1, 2))}) == 1


def one_unit_model(family):
    """One unit over all sources, standard normal before the change."""
    dim = family[0].dim
    u = unit(*range(1, dim + 1))
    return ChangePointModel(dim, dim, (u,), {u: GaussianLocal.standard(dim)}, {u: tuple(family)}), u


class TestMixtureLikelihood:
    """The mixture log density, read as mixture_llr plus the pre-change log density."""

    def test_singleton_is_exact_passthrough(self):
        g = GaussianLocal(0.0, pair(0.7))
        m, u = one_unit_model((g,))
        x = np.random.default_rng(0).normal(size=(10, 2))
        np.testing.assert_array_equal(m.mixture_llr(u, x), g.logpdf(x) - m.pre_local[u].logpdf(x))

    def test_two_components_match_logsumexp(self):
        a = GaussianLocal(0.0, pair(0.5))
        b = GaussianLocal(0.0, pair(-0.5))
        m, u = one_unit_model((a, b))
        x = np.random.default_rng(1).normal(size=(25, 2))
        la = np.asarray(a.logpdf(x))
        lb = np.asarray(b.logpdf(x))
        want = np.logaddexp(la, lb) - math.log(2.0)
        np.testing.assert_allclose(m.mixture_llr(u, x) + m.pre_local[u].logpdf(x), want, rtol=1e-13)

    def test_rejects_empty(self):
        u = unit(1)
        with pytest.raises(ValueError, match="empty post-change family"):
            ChangePointModel(1, 1, (u,), {u: GaussianLocal.standard(1)}, {u: ()})

    @pytest.mark.parametrize(
        "means, covs, x",
        [
            ((0.0, 0.0), (pair(0.5), pair(-0.5)), np.random.default_rng(1).normal(size=(25, 2))),
            ((0.0, 0.0), (pair(-0.7), pair(0.7)), np.random.default_rng(3).normal(size=(50, 2))),
            ((1.0, -1.0), (np.eye(1), np.eye(1)), np.array([0.0])),
            ((1.0, -1.0), (np.eye(1), np.eye(1)), np.linspace(-30.0, 30.0, 61)[:, None]),
        ],
    )
    def test_logpdf_matches_scipy_logsumexp(self, means, covs, x):
        comps = tuple(GaussianLocal(mu, c) for mu, c in zip(means, covs))
        m, u = one_unit_model(comps)
        stacked = np.stack([np.asarray(c.logpdf(x)) for c in comps])
        want = special.logsumexp(stacked, axis=0) - math.log(len(comps))
        got = m.mixture_llr(u, x) + m.pre_local[u].logpdf(x)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestLogsumexp:
    """The max-shifted logsumexp shared by the mixtures and the Gaussian kernel,
    against scipy's as the oracle."""

    @pytest.mark.parametrize("rows", [2, 7])
    def test_matches_scipy_up_to_700(self, rows):
        a = np.random.default_rng(rows).uniform(-700.0, 700.0, size=(rows, 500))
        want = special.logsumexp(a, axis=0)
        np.testing.assert_allclose(logsumexp(a.copy()), want, rtol=1e-14)

    def test_wide_columns_do_not_overflow(self):
        a = np.array([[700.0, -700.0, 0.0], [699.0, -701.0, -745.0], [-700.0, -700.0, 1e-300]])
        got = logsumexp(a.copy())
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, special.logsumexp(a, axis=0), rtol=1e-15)

    def test_column_of_minus_inf_gives_minus_inf(self):
        a = np.array([[-np.inf, 0.0, -np.inf], [-np.inf, -np.inf, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a.copy())
        assert got[0] == -np.inf
        np.testing.assert_array_equal(got, special.logsumexp(a, axis=0))

    def test_single_component(self):
        a = np.random.default_rng(5).uniform(-700.0, 700.0, size=(1, 100))
        np.testing.assert_array_equal(logsumexp(a.copy()), a[0])

    def test_vector_gives_a_scalar(self):
        a = np.array([-3.0, 2.5, 0.25])
        got = logsumexp(a.copy())
        assert np.ndim(got) == 0
        assert got == pytest.approx(special.logsumexp(a), rel=1e-15)

    def test_writes_into_out(self):
        a = np.random.default_rng(6).normal(size=(3, 40))
        out = np.empty(40)
        assert logsumexp(a.copy(), out=out) is out
        np.testing.assert_allclose(out, special.logsumexp(a, axis=0), rtol=1e-14)


class TestSampleMean:
    def test_is_numpy_mean_and_std_bit_for_bit(self):
        draws = np.random.default_rng(7)
        for n in (2, 3, 1000, 123_457):
            for x in (draws.normal(3.0, 2.0, n), draws.integers(1, 500, n).astype(float)):
                want = (float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)))
                assert sample_mean(x.copy()) == want
        # one value has no spread to estimate
        assert sample_mean(np.array([2.5])) == (2.5, math.inf)


class TestMixtureLLR:
    def test_singleton_equals_plain_llr(self):
        m = small_model()
        u = unit(1, 2)
        x = np.random.default_rng(2).normal(size=(40, 2))
        want = m.post_family[u][0].logpdf(x) - m.pre_local[u].logpdf(x)
        np.testing.assert_allclose(m.mixture_llr(u, x), want, rtol=1e-12)

    def test_sign_symmetric_family(self):
        # family {-rho, +rho}: flipping one coordinate only swaps components
        rho = 0.7
        pre = GaussianLocal.standard(2)
        fam = (GaussianLocal(0.0, pair(-rho)), GaussianLocal(0.0, pair(rho)))
        u = unit(1, 2)
        m = ChangePointModel(2, 2, (u,), {u: pre}, {u: fam})
        x = np.random.default_rng(3).normal(size=(50, 2))
        flipped = x.copy()
        flipped[:, 1] *= -1.0
        np.testing.assert_allclose(
            m.mixture_llr(u, x), m.mixture_llr(u, flipped), rtol=1e-12, atol=1e-12
        )

    def test_mean_mixture_at_origin(self):
        # log( (e^{-1/2} + e^{-1/2}) / 2 ) = -1/2 at x = 0
        pre = GaussianLocal.standard(1)
        fam = (GaussianLocal(1.0, np.eye(1)), GaussianLocal(-1.0, np.eye(1)))
        u = unit(1)
        m = ChangePointModel(1, 1, (u,), {u: pre}, {u: fam})
        val = float(np.asarray(m.mixture_llr(u, np.array([0.0]))))
        assert val == pytest.approx(-0.5, abs=1e-14)

    def test_correlated_pair_at_origin(self):
        # at the origin the quadratic parts vanish, leaving the log-determinant term
        m = small_model()
        val = float(np.asarray(m.mixture_llr(unit(1, 2), np.array([0.0, 0.0]))))
        assert val == pytest.approx(PAIR_INFO, abs=1e-14)

    def test_unknown_unit(self):
        m = small_model()
        with pytest.raises(ValueError, match="not sampled"):
            m.mixture_llr(Unit((1, 2, 3)), np.zeros(2))

    def test_dimension_check(self):
        m = small_model()
        with pytest.raises(ValueError, match="dimension"):
            m.mixture_llr(unit(1, 2), np.zeros(3))


class TestChangePointModelValidation:
    def make(self, **over):
        u = unit(1, 2)
        kw = dict(
            K=2,
            m=2,
            units=(u,),
            pre_local={u: GaussianLocal.standard(2)},
            post_family={u: (GaussianLocal(0.0, pair(0.5)),)},
        )
        kw.update(over)
        return ChangePointModel(**kw)

    def test_rejects_bad_K_and_m(self):
        with pytest.raises(ValueError, match="K must be positive"):
            self.make(K=0)
        with pytest.raises(ValueError, match="m must lie"):
            self.make(m=3)

    def test_rejects_empty_units(self):
        with pytest.raises(ValueError, match="at least one unit"):
            self.make(units=())

    def test_rejects_duplicate_units(self):
        u = unit(1, 2)
        with pytest.raises(ValueError, match="distinct"):
            self.make(units=(u, u))

    def test_rejects_wrong_unit_size(self):
        with pytest.raises(ValueError, match="size"):
            self.make(units=(unit(1),), pre_local={unit(1): GaussianLocal.standard(1)})

    def test_rejects_source_above_K(self):
        u = unit(1, 3)
        with pytest.raises(ValueError, match="above K"):
            self.make(
                units=(u,),
                pre_local={u: GaussianLocal.standard(2)},
                post_family={u: (GaussianLocal(0.0, pair(0.5)),)},
            )

    def test_rejects_missing_pre_law(self):
        with pytest.raises(ValueError, match="missing pre-change"):
            self.make(pre_local={})

    def test_rejects_missing_family(self):
        with pytest.raises(ValueError, match="post-change family"):
            self.make(post_family={})

    def test_rejects_pre_dimension_mismatch(self):
        u = unit(1, 2)
        with pytest.raises(ValueError, match="dim"):
            self.make(pre_local={u: GaussianLocal.standard(3)})

    def test_rejects_family_dimension_mismatch(self):
        u = unit(1, 2)
        with pytest.raises(ValueError, match="dim"):
            self.make(post_family={u: (GaussianLocal.standard(1),)})

    def test_unsampled_unit(self):
        # laws given for a unit outside ``units`` do not make it sampled
        u, w = unit(1, 2), unit(1, 3)
        law = GaussianLocal(0.0, pair(0.5))
        m = ChangePointModel(3, 2, (u,), {u: law, w: law}, {u: (law,), w: (law,)})
        with pytest.raises(ValueError, match="not sampled"):
            m.unit_class(w)
        with pytest.raises(ValueError, match="not sampled"):
            m.mixture_llr(w, np.zeros(2))


class TestPostChangeHypothesis:
    def test_rejects_empty_affected(self):
        with pytest.raises(ValueError, match="at least one"):
            PostChangeHypothesis(label="x", local_post={})

    def test_is_affected(self):
        u = unit(1, 2)
        h = PostChangeHypothesis(
            label="x",
            local_post={u: GaussianLocal(0.0, pair(0.7))},
        )
        assert h.is_affected(u)
        assert not h.is_affected(unit(1, 3))
        assert h.affected_units == frozenset({u})


class TestAffectedUnits:
    def test_intersection_with_model(self):
        m = small_model()
        u = unit(1, 2)
        w = Unit((1, 2, 3))
        h = PostChangeHypothesis(
            label="x",
            local_post={u: GaussianLocal(0.0, pair(0.7)), w: GaussianLocal.standard(3)},
        )
        assert affected_units(m, h) == frozenset({u})

    def test_invisible_hypothesis_yields_empty_set(self):
        m = small_model()
        w = Unit((1, 2, 3))
        h = PostChangeHypothesis(
            label="x", local_post={w: GaussianLocal.standard(3)}
        )
        assert affected_units(m, h) == frozenset()


class TestValidateModel:
    def test_healthy_model_passes(self):
        m = small_model()
        u = unit(1, 2)
        h = PostChangeHypothesis(
            label="x", local_post={u: GaussianLocal(0.0, pair(0.7))}
        )
        report = validate_model(m, h, mc_budget=20_000, seed=0)
        assert report.ok
        assert report.affected_nonempty is True
        text = "\n".join(report.lines())
        assert "overall: ok" in text

    def test_no_hypothesis_skips_affected_check(self):
        report = validate_model(small_model(), None, mc_budget=10_000, seed=0)
        assert report.affected_nonempty is None
        assert report.ok

    def test_degenerate_family_fails_drift_checks(self):
        # family equal to the pre-change law: both drifts are identically zero
        pre = GaussianLocal.standard(2)
        u = unit(1, 2)
        m = ChangePointModel(2, 2, (u,), {u: pre}, {u: (pre,)})
        report = validate_model(m, None, mc_budget=20_000, seed=0)
        assert not report.ok
        text = "\n".join(report.lines())
        assert "FAIL" in text

    def test_invisible_hypothesis_flagged(self):
        m = small_model()
        w = Unit((1, 2, 3))
        h = PostChangeHypothesis(
            label="x", local_post={w: GaussianLocal.standard(3)}
        )
        report = validate_model(m, h, mc_budget=10_000, seed=0)
        assert report.affected_nonempty is False
        assert not report.ok
        assert any("NONE" in line for line in report.lines())

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError, match="mc_budget"):
            validate_model(small_model(), None, mc_budget=10)

    def test_deterministic(self):
        a = validate_model(small_model(), None, mc_budget=10_000, seed=42)
        b = validate_model(small_model(), None, mc_budget=10_000, seed=42)
        assert a.lines() == b.lines()
