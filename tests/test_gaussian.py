"""Closed-form Gaussian quantities checked against dense linear algebra,
scipy, and Monte Carlo."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from rrcusum.gaussian import (
    GaussianLocal,
    ModelInfeasibleError,
    equicorrelation_det,
    gaussian_kl,
)

# half the negated log determinant of the 2x2 correlation matrix at rho = 0.7
PAIR_INFO = 0.3366722766318828
# KL of the independent pair against the rho = 0.7 pair
PAIR_KL_REVERSED = 0.6241120370936071


def equi(k: int, rho: float) -> np.ndarray:
    return np.eye(k) * (1.0 - rho) + np.full((k, k), rho)


def pair(rho: float) -> np.ndarray:
    return np.array([[1.0, rho], [rho, 1.0]])


class TestEquicorrelationDet:
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("rho", [round(0.1 * i, 1) for i in range(1, 10)])
    def test_matches_dense_lu(self, k, rho):
        dense = float(np.linalg.det(equi(k, rho)))
        assert equicorrelation_det(k, rho) == pytest.approx(dense, rel=1e-12)

    def test_known_values(self):
        assert equicorrelation_det(2, 0.7) == pytest.approx(0.51, abs=1e-15)
        assert equicorrelation_det(3, 0.7) == pytest.approx(0.216, abs=1e-15)
        assert equicorrelation_det(3, 0.95) == pytest.approx(0.00725, abs=1e-15)
        assert equicorrelation_det(1, 0.4) == 1.0

    def test_submultiplicative_over_splits(self):
        # det of the joint block never exceeds the product over a partition
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
            for m in range(2, 9):
                for s in range(1, m):
                    for t in range(1, m - s + 1):
                        lhs = equicorrelation_det(m, rho)
                        rhs = equicorrelation_det(s, rho) * equicorrelation_det(t, rho)
                        assert lhs <= rhs + 1e-15

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            equicorrelation_det(0, 0.5)
        with pytest.raises(ValueError):
            equicorrelation_det(3, 1.0)
        with pytest.raises(ValueError):
            equicorrelation_det(3, 0.0)


class TestGaussianLocal:
    def test_logpdf_matches_scipy(self):
        rng = np.random.default_rng(7)
        cov = equi(3, 0.6)
        mean = np.array([1.0, -0.5, 0.0])
        g = GaussianLocal(mean, cov)
        x = rng.normal(size=(50, 3))
        want = stats.multivariate_normal(mean=mean, cov=cov).logpdf(x)
        np.testing.assert_allclose(g.logpdf(x), want, rtol=1e-12)

    def test_scalar_input_and_mean_broadcast(self):
        g = GaussianLocal(0.5, np.eye(2))
        np.testing.assert_array_equal(g.mean, [0.5, 0.5])
        x = np.array([0.1, -0.2])
        batch = g.logpdf(x[None, :])
        assert g.logpdf(x) == pytest.approx(float(batch[0]), rel=1e-15)

    def test_sample_shape_and_determinism(self):
        g = GaussianLocal(0.0, pair(0.7))
        a = g.sample(np.random.default_rng(3), 5)
        b = g.sample(np.random.default_rng(3), 5)
        assert a.shape == (5, 2)
        np.testing.assert_array_equal(a, b)

    def test_sample_moments(self):
        g = GaussianLocal(0.0, pair(0.7))
        x = g.sample(np.random.default_rng(12), 200_000)
        assert np.abs(x.mean(axis=0)).max() < 0.01
        corr = np.corrcoef(x.T)[0, 1]
        assert corr == pytest.approx(0.7, abs=0.005)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ModelInfeasibleError):
            GaussianLocal(0.0, pair(1.5))

    def test_rejects_nonsquare_covariance(self):
        with pytest.raises(ValueError, match="square"):
            GaussianLocal(0.0, np.ones((2, 3)))

    def test_infeasible_chain_names_minor(self):
        # a path of two strong correlations cannot be completed with a zero
        a = np.array([[1.0, 0.95, 0.0], [0.95, 1.0, 0.95], [0.0, 0.95, 1.0]])
        with pytest.raises(ModelInfeasibleError, match="order 3"):
            GaussianLocal(0.0, a)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianLocal(0.0, np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_logpdf_dimension_check(self):
        g = GaussianLocal.standard(2)
        with pytest.raises(ValueError, match="dimension"):
            g.logpdf(np.zeros((4, 3)))

    def test_standard(self):
        g = GaussianLocal.standard(3)
        assert g.dim == 3
        np.testing.assert_array_equal(g.cov, np.eye(3))
        assert g.log_det == 0.0


class TestInformationNumbers:
    def test_pair_value(self):
        direct = -0.5 * math.log(equicorrelation_det(2, 0.7))
        assert direct == pytest.approx(PAIR_INFO, abs=1e-15)

    def test_matches_monte_carlo_kl(self):
        f = GaussianLocal.standard(2)
        g = GaussianLocal(0.0, pair(0.7))
        x = g.sample(np.random.default_rng(5), 200_000)
        vals = np.asarray(g.logpdf(x)) - np.asarray(f.logpdf(x))
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
        assert abs(float(vals.mean()) - PAIR_INFO) < 4.0 * se

    @pytest.mark.parametrize("mu, want", [(1.0, 0.5), (2.0, 2.0), (-1.0, 0.5)])
    def test_mean_change(self, mu, want):
        g = GaussianLocal(np.array([mu]), np.eye(1))
        assert gaussian_kl(g, GaussianLocal.standard(1)) == pytest.approx(want, abs=1e-14)


class TestLogLikelihoodRatio:
    """The log likelihood ratio as a difference of GaussianLocal.logpdf values."""

    def test_frozen_value_at_ones(self):
        pre = GaussianLocal.standard(2)
        post = GaussianLocal(0.0, pair(0.7))
        x = np.array([1.0, 1.0])
        assert post.logpdf(x) - pre.logpdf(x) == pytest.approx(0.7484369825142357, abs=1e-12)

    def test_matches_dense_solve(self):
        # same quantity assembled from explicit inverses
        rho = 0.7
        pre = GaussianLocal.standard(2)
        post = GaussianLocal(0.0, pair(rho))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 2))
        inv = np.linalg.inv(pair(rho))
        quad = np.einsum("ni,ij,nj->n", x, np.eye(2) - inv, x)
        want = 0.5 * quad - 0.5 * math.log(np.linalg.det(pair(rho)))
        np.testing.assert_allclose(post.logpdf(x) - pre.logpdf(x), want, rtol=1e-10)

    def test_antisymmetry(self):
        pre = GaussianLocal.standard(2)
        post = GaussianLocal(0.0, pair(0.4))
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 2))
        np.testing.assert_allclose(
            post.logpdf(x) - pre.logpdf(x), -(pre.logpdf(x) - post.logpdf(x)), rtol=1e-12
        )

    def test_batch_matches_scalar(self):
        pre = GaussianLocal.standard(2)
        post = GaussianLocal(0.0, pair(0.7))
        x = np.array([[0.3, -1.0], [2.0, 0.1]])
        batch = post.logpdf(x) - pre.logpdf(x)
        for i in range(2):
            value = post.logpdf(x[i]) - pre.logpdf(x[i])
            assert isinstance(value, float)
            assert value == pytest.approx(batch[i], rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 2, expected 3"):
            GaussianLocal.standard(3).logpdf(np.zeros(2))


class TestKullbackLeibler:
    def test_pair_values(self):
        f = GaussianLocal.standard(2)
        g = GaussianLocal(0.0, pair(0.7))
        assert gaussian_kl(g, f) == pytest.approx(PAIR_INFO, abs=1e-12)
        assert gaussian_kl(f, g) == pytest.approx(PAIR_KL_REVERSED, abs=1e-12)

    def test_zero_on_identical(self):
        g = GaussianLocal(0.3, pair(0.5))
        assert gaussian_kl(g, g) == pytest.approx(0.0, abs=1e-13)

    def test_mean_shift(self):
        f = GaussianLocal.standard(1)
        g = GaussianLocal(np.array([1.0]), np.eye(1))
        assert gaussian_kl(g, f) == pytest.approx(0.5, abs=1e-14)
        assert gaussian_kl(f, g) == pytest.approx(0.5, abs=1e-14)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        sp = a @ a.T + 3.0 * np.eye(3)
        sq = b @ b.T + 3.0 * np.eye(3)
        mp = rng.normal(size=3)
        mq = rng.normal(size=3)
        p = GaussianLocal(mp, sp)
        q = GaussianLocal(mq, sq)
        inv = np.linalg.inv(sq)
        want = 0.5 * (
            np.trace(inv @ sp)
            + (mq - mp) @ inv @ (mq - mp)
            - 3.0
            + math.log(np.linalg.det(sq) / np.linalg.det(sp))
        )
        assert gaussian_kl(p, q) == pytest.approx(float(want), rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gaussian_kl(GaussianLocal.standard(2), GaussianLocal.standard(3))


def test_sample_local_returns_one_vector():
    # one draw from a local law is the factor times one standard normal vector, plus the mean
    cov = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.4], [0.0, 0.4, 1.0]])
    g = GaussianLocal(np.array([0.5, -1.0, 2.0]), cov)
    v = g.sample(np.random.default_rng(0), 1)[0]
    assert v.shape == (3,)
    z = np.random.default_rng(0).standard_normal(3)
    np.testing.assert_allclose(v, g.chol @ z + g.mean, rtol=1e-12)
