"""Core types for change detection in K dependent sources under a sampling budget.

At each time only m of the K sources can be observed. A unit is a size-m subset
of sources, and the observed data at each step is the restriction of the full
K-dimensional vector to the chosen unit. Before the change every unit E follows
a known local law F^E. After the change, the local law of an affected unit
belongs to a known finite family, and the detection statistic for E uses the
log likelihood ratio of the uniform mixture over that family against F^E.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

__all__ = [
    "LocalDistribution",
    "Unit",
    "UnitClass",
    "PostChangeHypothesis",
    "ChangePointModel",
    "affected_units",
    "derive_rng",
    "derive_seed",
    "sample_mean",
]

IncrementDraw = Callable[[np.random.Generator, int], np.ndarray]


def logsumexp(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(sum(exp(a), axis=0)), written into ``out`` when given.

    Overwrites ``a``. Each column is shifted by its largest entry, so no term
    overflows. A column whose largest entry is not finite is not shifted: a
    column of -inf gives -inf, not nan.
    """
    top = a.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    a -= shift
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(a, axis=0, out=out), out=out)
    out += shift
    return out


def derive_rng(seed: int, *salt: int) -> np.random.Generator:
    """Generator of the sub-stream of ``seed`` named by ``salt``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *salt))))


def derive_seed(seed: int, *salt: int) -> int:
    """Integer seed of the sub-stream of ``seed`` named by ``salt``."""
    return int(np.random.SeedSequence((seed, *salt)).generate_state(1)[0])


def sample_mean(vals: np.ndarray) -> tuple[float, float]:
    """Mean of a float draw and its standard error, inf for a single value:
    the bits of ``vals.mean()`` and ``vals.std(ddof=1) / sqrt(n)``. The draw
    is centred and squared in place, as numpy does to its centred copy, so
    no copy is made and ``vals`` is overwritten."""
    n = vals.size
    mean = float(vals.mean())
    if n == 1:
        return mean, math.inf
    vals -= mean
    vals *= vals
    return mean, math.sqrt(vals.sum() / (n - 1)) / math.sqrt(n)


class LocalDistribution(abc.ABC):
    """Law of a single observation of one unit, a vector in R^dim.

    Implementations must provide a vectorised log density and a batch sampler.
    ``logpdf`` accepts arrays of shape (dim,) or (n, dim) and returns a float
    or an array of shape (n,). It must be a normalized log density: the run
    length of ``estimate_arl`` and the no-ascend ladder probability change
    the measure from the pre-change law to the mixture law by the likelihood
    ratio, which is only sound when E_f[mix / f] = 1. ``sample`` returns an
    array of shape (n, dim).
    """

    dim: int

    @abc.abstractmethod
    def logpdf(self, x: np.ndarray) -> np.ndarray | float:
        raise NotImplementedError

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def key(self) -> Hashable:
        """Laws with equal keys are the same law. Default: the object itself."""
        return self

    def compile_llr(
        self, pre: "LocalDistribution", family: Sequence["LocalDistribution"]
    ) -> IncrementDraw | None:
        """A ``draw(rng, n)`` returning the mixture llr of ``family`` against
        ``pre`` at n observations from this law, or None when the law has no
        compiled form; the caller then samples and evaluates the llr. A draw
        must give n independent increments of that llr's exact law and
        return a fresh float array that shares no memory with the draw's own
        state. It need not consume ``rng`` as ``self.sample(rng, n)`` does:
        the Gaussian kernel does for most classes, and draws a pair class
        (one zero-mean member of a two-coordinate law) from exponentials and
        uniforms instead of normals. A draw may
        carry ``moments``, the exact mean and variance of one increment, for
        ``unit_class`` to hand on, and ``fill(rng, out)``, which writes the
        increments of ``draw(rng, out.size)`` into the one-dimensional
        ``out`` in place."""
        return None


@dataclass(frozen=True, order=True)
class Unit:
    """A subset of source indices observed together, stored sorted ascending.

    Source indices are 1-based and must be distinct.
    """

    sources: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("a unit must contain at least one source")
        for k in self.sources:
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"source indices are 1-based integers, got {k!r}")
        if any(a >= b for a, b in zip(self.sources, self.sources[1:])):
            raise ValueError(f"unit sources must be strictly increasing, got {self.sources}")

    @property
    def size(self) -> int:
        return len(self.sources)

    def __str__(self) -> str:
        return "{" + ",".join(str(k) for k in self.sources) + "}"


def unit(*sources: int) -> Unit:
    """Convenience constructor, ``unit(9, 10) == Unit((9, 10))``."""
    return Unit(tuple(sorted(sources)))


@dataclass(frozen=True)
class UnitClass:
    """Units whose observations come from the same law and are scored against
    the same pre-change law and post-change family, so that their mixture llr
    increments are identically distributed.

    ``key`` identifies the class and ``draw(rng, n)`` returns n increments
    in a fresh array, drawn from their exact law but not necessarily from
    the stream of ``law.sample``; a compiled draw may also offer
    ``draw.fill(rng, out)``, the same increments written into ``out`` (see
    ``LocalDistribution.compile_llr``). ``moments`` is the exact (mean,
    variance) of one increment when the compiled draw knows it, else None.
    """

    key: tuple
    draw: IncrementDraw
    moments: tuple[float, float] | None = None


def _sample_and_score(
    model: "ChangePointModel", unit: Unit, law: LocalDistribution, rng: np.random.Generator, n: int
) -> np.ndarray:
    return np.asarray(model.mixture_llr(unit, law.sample(rng, n)), dtype=float)


def _mixture_draw(draws: Sequence[IncrementDraw], rng: np.random.Generator, n: int) -> np.ndarray:
    """n increments with each observation drawn from a family member picked
    uniformly at random, that is, under the mixture law; ``draws`` holds the
    class draw of each member."""
    pick = rng.integers(len(draws), size=n)
    out = np.empty(n)
    for k, draw in enumerate(draws):
        at = pick == k
        out[at] = draw(rng, int(np.count_nonzero(at)))
    return out


@dataclass(frozen=True)
class PostChangeHypothesis:
    """One candidate global post-change distribution, seen through the sampled units.

    ``local_post`` gives the true post-change local law of each unit whose
    local law changes; its keys are the affected units.

    ``info_number_max`` may record the largest information number over all
    affected size-m subsets of sources, including subsets that are never
    sampled. Scenario builders fill it in when a closed form is available;
    detection delay lower bounds fall back to the sampled units otherwise.

    ``mixture_mean_invariant`` asserts that for every affected unit the mixture
    log likelihood ratio has the same mean under each member of the family.
    This is the hook used to certify a bounded efficiency ratio when the family
    is not a singleton. Leave it None when unknown.
    """

    label: str
    local_post: Mapping[Unit, LocalDistribution]
    info_number_max: float | None = None
    mixture_mean_invariant: bool | None = None

    def __post_init__(self) -> None:
        if not self.local_post:
            raise ValueError("a post-change hypothesis must affect at least one unit")

    @property
    def affected_units(self) -> frozenset[Unit]:
        """The units whose local law changes: the keys of ``local_post``."""
        return frozenset(self.local_post)

    def is_affected(self, unit: Unit) -> bool:
        return unit in self.local_post


@dataclass(frozen=True)
class ChangePointModel:
    """Problem instance: K sources, sampling budget m, and the sampled units.

    ``units`` is the fixed permutation in which the policy cycles through
    units; it is set at construction and never reordered by the model.
    ``pre_local`` maps each unit to its pre-change law and ``post_family``
    to the finite family of candidate post-change laws.
    """

    K: int
    m: int
    units: tuple[Unit, ...]
    pre_local: Mapping[Unit, LocalDistribution]
    post_family: Mapping[Unit, tuple[LocalDistribution, ...]]
    _sampled: frozenset = field(init=False, repr=False, compare=False, default=frozenset())
    _classes: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError(f"K must be positive, got {self.K}")
        if not 1 <= self.m <= self.K:
            raise ValueError(f"m must lie in [1, K], got m={self.m}, K={self.K}")
        if not self.units:
            raise ValueError("the model must sample at least one unit")
        if len(set(self.units)) != len(self.units):
            raise ValueError("units must be distinct")
        for E in self.units:
            if E.size != self.m:
                raise ValueError(f"unit {E} has size {E.size}, expected m={self.m}")
            if E.sources[-1] > self.K:
                raise ValueError(f"unit {E} references a source above K={self.K}")
            if E not in self.pre_local:
                raise ValueError(f"missing pre-change law for unit {E}")
            if self.pre_local[E].dim != self.m:
                raise ValueError(f"pre-change law of {E} has dim {self.pre_local[E].dim}, expected {self.m}")
            family = self.post_family.get(E)
            if not family:
                raise ValueError(f"missing or empty post-change family for unit {E}")
            for g in family:
                if g.dim != self.m:
                    raise ValueError(f"post-change law of {E} has dim {g.dim}, expected {self.m}")
        object.__setattr__(self, "_sampled", frozenset(self.units))

    def _family(self, unit: Unit) -> Sequence[LocalDistribution]:
        if unit not in self._sampled:
            raise ValueError(f"unit {unit} is not sampled by this model")
        return self.post_family[unit]

    def mixture_llr(self, unit: Unit, x: np.ndarray) -> np.ndarray | float:
        """Log likelihood ratio of the mixture against the pre-change law at x.

        Accepts a single observation of shape (m,) or a batch of shape (n, m).
        """
        family = self._family(unit)
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.m:
            raise ValueError(f"observation has dimension {x.shape[-1]}, expected m={self.m}")
        if len(family) == 1:
            mix = family[0].logpdf(x)
        else:
            mix = logsumexp(np.stack([np.asarray(g.logpdf(x)) for g in family])) - math.log(len(family))
        return mix - self.pre_local[unit].logpdf(x)

    def unit_class(self, unit: Unit, law: LocalDistribution | None = None) -> UnitClass:
        """Class of the unit when its observations follow ``law`` (default:
        the pre-change law).

        The class is compiled on first use and shared by every unit with the
        same law, pre-change law and family. Its draw is the law's compiled
        kernel when it has one, else ``law.sample`` followed by
        ``mixture_llr``; its moments are the kernel's, if it carries them.
        """
        family = self._family(unit)
        pre = self.pre_local[unit]
        law = pre if law is None else law
        key = (law.key(), pre.key(), tuple(g.key() for g in family))
        cls = self._classes.get(key)
        if cls is None:
            draw = law.compile_llr(pre, family)
            if draw is None:
                draw = partial(_sample_and_score, self, unit, law)
            cls = self._classes[key] = UnitClass(key, draw, getattr(draw, "moments", None))
        return cls

    def mixture_draw(self, unit: Unit) -> IncrementDraw:
        """A ``draw(rng, n)`` of n increments of the unit's mixture llr under
        the mixture law: each observation comes from a family member picked
        uniformly at random and is scored by that member's class kernel,
        ``unit_class(unit, g)``. Those are also the post-change classes of
        the units with the same pre-change law and family whose true law is
        the member. A one-member family needs no pick: its draw is the
        member's class draw."""
        draws = [self.unit_class(unit, g).draw for g in self._family(unit)]
        return draws[0] if len(draws) == 1 else partial(_mixture_draw, draws)

    def class_table(
        self, units: Sequence[Unit], hypothesis: PostChangeHypothesis | None = None
    ) -> tuple[list[UnitClass], list[Unit], np.ndarray]:
        """The classes met along ``units`` in order of first appearance, the
        first unit of each, and the class index of every unit.

        A unit the hypothesis affects follows its post-change law, every other
        unit its pre-change law. This numbering fixes the draw order of the
        engine, the renewal cycle of the run length and the seeds of the bounds.
        """
        ids: dict = {}
        classes, first, index = [], [], []
        for E in units:
            affected = hypothesis is not None and hypothesis.is_affected(E)
            cls = self.unit_class(E, hypothesis.local_post[E] if affected else None)
            index.append(ids.setdefault(cls.key, len(ids)))
            if len(classes) < len(ids):
                classes.append(cls)
                first.append(E)
        return classes, first, np.array(index, dtype=int)


def affected_units(model: ChangePointModel, hypothesis: PostChangeHypothesis) -> frozenset[Unit]:
    """Sampled units whose local law changes under the hypothesis.

    May be empty (the hypothesis is then invisible to the policy); emptiness
    is reported by validate_model rather than raised here.
    """
    return hypothesis.affected_units & model._sampled
