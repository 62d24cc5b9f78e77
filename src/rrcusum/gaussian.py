"""Gaussian local laws and the closed forms that go with them.

All observation models of the presets are normals, so the information
numbers and likelihood ratios below have explicit expressions: zero-mean with
a correlation matrix (unit diagonal) as covariance for corr-pairs and
signed-pairs, and of unit variance with a mean that shifts at the change for
mean-change.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from .model import LocalDistribution, logsumexp

__all__ = [
    "ModelInfeasibleError",
    "GaussianLocal",
    "GaussianMixtureKernel",
    "equicorrelation_det",
    "gaussian_kl",
]

_LOG_2PI = math.log(2.0 * math.pi)
# Cholesky pivots below this are treated as a failed positivity check.
_MIN_PIVOT = 1e-10


class ModelInfeasibleError(ValueError):
    """Raised when a requested correlation structure is not positive definite."""


def _first_failing_minor(a: np.ndarray) -> int:
    """Order of the smallest leading principal submatrix that is not positive definite."""
    for k in range(1, a.shape[0] + 1):
        try:
            piv = np.linalg.cholesky(a[:k, :k]).diagonal().min()
        except np.linalg.LinAlgError:
            return k
        if piv < _MIN_PIVOT:
            return k
    raise ValueError("matrix is positive definite, no failing minor")


def _cholesky_or_raise(a: np.ndarray, what: str) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or chol.diagonal().min() < _MIN_PIVOT:
        k = _first_failing_minor(a)
        raise ModelInfeasibleError(
            f"{what} is not positive definite: leading principal minor of order {k} fails"
        )
    return chol


class GaussianLocal(LocalDistribution):
    """Multivariate normal local law with cached Cholesky factor, log determinant and key."""

    def __init__(self, mean: np.ndarray | float, cov: np.ndarray):
        cov = np.array(cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        mean = np.broadcast_to(np.asarray(mean, dtype=float), (cov.shape[0],)).copy()
        self.dim = cov.shape[0]
        self.mean = mean
        self.cov = cov
        self.chol = _cholesky_or_raise(cov, "covariance matrix")
        self.log_det = 2.0 * float(np.log(self.chol.diagonal()).sum())
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)
        self.chol.setflags(write=False)
        self._key = ("gauss", self.mean.tobytes(), self.cov.tobytes())

    @classmethod
    def standard(cls, dim: int) -> "GaussianLocal":
        return cls(np.zeros(dim), np.eye(dim))

    def logpdf(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {self.dim}")
        z = _solve_factor(self.chol, (pts - self.mean).T)
        q = np.einsum("ij,ij->j", z, z)
        out = -0.5 * (self.dim * _LOG_2PI + self.log_det + q)
        return float(out[0]) if scalar else out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, self.dim)) @ self.chol.T + self.mean

    def key(self) -> tuple:
        return self._key

    def compile_llr(
        self, pre: LocalDistribution, family: Sequence[LocalDistribution]
    ) -> "GaussianMixtureKernel | None":
        if isinstance(pre, GaussianLocal) and all(isinstance(g, GaussianLocal) for g in family):
            return GaussianMixtureKernel(self, pre, family)
        return None

    def __repr__(self) -> str:
        return f"GaussianLocal(dim={self.dim})"


def _solve_factor(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """chol^{-1} rhs for a lower triangular factor and a vector or matrix
    right-hand side.

    numpy's general solve factors chol again (LU with partial pivoting)
    instead of substituting, which costs microseconds at the dimension of a
    unit. A triangular BLAS solve (trsm) with a matrix right-hand side would
    wake the threaded BLAS, whose worker threads then keep a second core busy
    for about 0.1 s after each call.
    """
    return np.linalg.solve(chol, rhs)


def _quadratic(law: GaussianLocal, g: GaussianLocal) -> tuple[np.ndarray, np.ndarray, float]:
    """(A, b, c) with -2 log g(L z + mu) = z'Az + 2b'z + c + dim log(2 pi),
    where L and mu are the Cholesky factor and mean of ``law``."""
    M = _solve_factor(g.chol, law.chol)
    d = _solve_factor(g.chol, law.mean - g.mean)
    return M.T @ M, M.T @ d, float(d @ d) + g.log_det


# Large batches are scored in slices of this many rows, so that the features
# and the per-member terms of a slice stay in cache. On 2 cores the bounds
# workload (2^18-row ladder draws) ran in about half the time of whole-batch
# scoring, with slices of 2048 to 8192 rows within 20% of each other.
_KERNEL_SLICE = 4096

# One slice's normals, features and member terms, shared by every kernel a
# thread calls: arrays of this size allocated per call are handed back to the
# system when freed, and their pages fault in again on the next call, while a
# buffer per kernel would grow with the number of unit classes.
_scratch = threading.local()


def _polar_candidates(pairs: int) -> int:
    """Uniform pairs to draw for ``pairs`` in the quarter disc, which holds a
    share pi/4 of them: 4.6 standard deviations to spare at a slice of 4096,
    so that a second draw is rare."""
    return pairs + (5 * pairs) // 16 + 16


def _slice_scratch(size: int) -> np.ndarray:
    """The calling thread's scratch, grown to at least ``size`` floats; it never shrinks."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or len(buf) < size:
        buf = _scratch.buf = np.empty(size)
    return buf


class GaussianMixtureKernel:
    """Mixture llr increments of a Gaussian unit class, straight from the
    standard normals that draw the observations.

    With x = L z + mu an observation of the sampled law, log g_k(x) - log f(x)
    is a quadratic in z for the pre-change law f and each family member g_k,
    so the llr is

        logsumexp_k(w_k . phi(z) + c_k),

    where phi(z) holds the products z_i z_j (i <= j) and z itself, and c_k
    absorbs -log F. A batch of n costs one (F, p) @ (p, n) product, taken in
    slices of at most _KERNEL_SLICE columns, instead of one triangular solve
    per member. Such a call draws exactly the normals ``law.sample`` draws,
    so the random stream is that of sampling and then calling
    ``mixture_llr``, and the increments differ from that path's by rounding.
    ``fill(rng, out)`` writes the increments of ``self(rng, out.size)`` into
    a caller's array instead of a fresh one. A kernel holds only its
    weights: every call works in one slice buffer per thread, shared by all
    kernels, so several threads may draw at once, from one kernel or from
    several.

    With one member the increment is X = z'Qz + beta'z + c, with Q = (A0 -
    A) / 2 and beta = b0 - b from ``_quadratic``, so ``moments`` holds its
    exact mean tr Q + c and variance 2 tr(Q^2) + |beta|^2. A mixture has no
    such closed form, and its ``moments`` is None.

    A pair class, one member of a law of dim 2 with beta = 0, draws its
    exact law instead of ``law.sample``'s stream. With lam_lo <= lam_hi the
    eigenvalues of Q, X = c + lam_hi w_1^2 + lam_lo w_2^2 for independent
    standard normals w, and w_1^2 + w_2^2 = 2E is independent of
    B = w_2^2 / (w_1^2 + w_2^2), which has the law of u^2 / (u^2 + v^2) for
    (u, v) uniform on the quarter disc (the polar method, Marsaglia and Bray
    1964, SIAM Review 6). So X = 2E (lam_hi + (lam_lo - lam_hi) B) + c, from
    one exponential and about 4/pi pairs of uniforms, which cost less than
    two normals. Every step is a product, sum or quotient of numpy's own
    samples, with no exp or log loop, so the bits do not depend on the
    CPU's vector extensions.
    """

    def __init__(self, law: GaussianLocal, pre: GaussianLocal, family: Sequence[GaussianLocal]):
        self.dim = law.dim
        rows, cols = np.triu_indices(law.dim)
        self._pairs = tuple(zip(rows.tolist(), cols.tolist()))
        # z'Qz = sum over i <= j of Q_ij z_i z_j, counting i < j twice
        scale = np.where(rows == cols, 0.5, 1.0)
        a0, b0, c0 = _quadratic(law, pre)
        weights, const = [], []
        for g in family:
            a, b, c = _quadratic(law, g)
            weights.append(np.concatenate(((a0 - a)[rows, cols] * scale, b0 - b)))
            const.append(0.5 * (c0 - c) - math.log(len(family)))
        self._weights = np.array(weights)
        self._const = np.array(const)[:, None]
        self.moments: tuple[float, float] | None = None
        self._polar: tuple[float, float, float] | None = None
        if len(family) == 1:
            # a, b are the one member's
            q, beta = 0.5 * (a0 - a), b0 - b
            self.moments = (float(np.trace(q)) + const[0], 2.0 * float(np.sum(q * q.T)) + float(beta @ beta))
            if law.dim == 2 and not beta.any():
                # the eigenvalues of the Q the weights use, from its upper
                # triangle, in closed form: eigvalsh maps more of the BLAS
                mid = 0.5 * float(q[0, 0] + q[1, 1])
                r = math.hypot(0.5 * float(q[0, 0] - q[1, 1]), float(q[0, 1]))
                self._polar = (2.0 * (mid + r), -4.0 * r, const[0])

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty(n)
        self.fill(rng, out)
        return out

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Write out.size increments into the one-dimensional ``out``, from
        the draws ``self(rng, out.size)`` makes."""
        if self._polar is not None:
            self._fill_polar(rng, out)
            return
        n = out.size
        # the slice's normals, its features and its member terms, in that order
        at_phi = self.dim * _KERNEL_SLICE
        at_t = at_phi + (len(self._pairs) + self.dim) * _KERNEL_SLICE
        buf = _slice_scratch(at_t + len(self._const) * _KERNEL_SLICE)
        z_buf, phi_buf, t_buf = buf[:at_phi], buf[at_phi:at_t], buf[at_t:]
        for lo in range(0, n, _KERNEL_SLICE):
            rows = min(_KERNEL_SLICE, n - lo)
            z = z_buf[: rows * self.dim].reshape(rows, self.dim)
            # slice by slice in rows, the normals of one (n, dim) draw
            rng.standard_normal(out=z)
            self._llr(z.T, phi_buf, t_buf, out[lo : lo + rows])

    def _fill_polar(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """X = 2E (lam_hi + (lam_lo - lam_hi) B) + c, slice by slice: the
        slice's exponentials E, then pairs of uniforms until as many have
        landed in the quarter disc, each giving B = u^2 / (u^2 + v^2)."""
        lam2, span2, c = self._polar
        n = out.size
        # the slice's B, then its candidate pairs
        buf = _slice_scratch(_KERNEL_SLICE + 2 * _polar_candidates(_KERNEL_SLICE))
        # u = v = 0 divides 0 by 0, and is rejected
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, n, _KERNEL_SLICE):
                rows = min(_KERNEL_SLICE, n - lo)
                x = out[lo : lo + rows]
                rng.standard_exponential(out=x)
                got = 0
                while got < rows:
                    k = _polar_candidates(rows - got)
                    uv = buf[_KERNEL_SLICE : _KERNEL_SLICE + 2 * k]
                    rng.random(out=uv)
                    np.multiply(uv, uv, out=uv)
                    u, s = uv[:k], uv[k:]
                    s += u
                    np.divide(u, s, out=u)
                    inside = (s > 0.0) & (s < 1.0)
                    # the accepted B, oldest first, written over s
                    kept = np.compress(inside, u, out=s[: np.count_nonzero(inside)])[: rows - got]
                    buf[got : got + kept.size] = kept
                    got += kept.size
                # lam2 and span2 carry the factor 2, and scaling by 2 is
                # exact, so this is 2E (lam_hi + (lam_lo - lam_hi) B) + c to the bit
                b = buf[:rows]
                b *= span2
                b += lam2
                x *= b
                x += c

    def _llr(self, z: np.ndarray, phi_buf: np.ndarray, t_buf: np.ndarray, out: np.ndarray) -> None:
        rows = z.shape[1]
        q = len(self._pairs)
        # products written in place: fancy-indexed gathers and a concatenation
        # would hold three more copies of the slice
        phi = phi_buf[: (q + self.dim) * rows].reshape(q + self.dim, rows)
        for k, (i, j) in enumerate(self._pairs):
            np.multiply(z[i], z[j], out=phi[k])
        phi[q:] = z
        members = len(self._const)
        t = out[None] if members == 1 else t_buf[: members * rows].reshape(members, rows)
        np.matmul(self._weights, phi, out=t)
        t += self._const
        if members > 1:
            logsumexp(t, out=out)


def equicorrelation_det(k: int, rho: float) -> float:
    """Determinant of the k x k matrix with unit diagonal and constant correlation rho.

    The matrix has one eigenvalue 1 + (k-1) rho and k-1 eigenvalues 1 - rho.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return (1.0 - rho) ** (k - 1) * (1.0 + (k - 1) * rho)


def gaussian_kl(p: GaussianLocal, q: GaussianLocal) -> float:
    """Kullback-Leibler divergence KL(p || q) between two Gaussians."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    zc = _solve_factor(q.chol, p.chol)
    zm = _solve_factor(q.chol, q.mean - p.mean)
    trace = float(np.einsum("ij,ij->", zc, zc))
    quad = float(zm @ zm)
    return 0.5 * (trace + quad - p.dim + q.log_det - p.log_det)

