"""Ready-made problem instances used by the experiments and the CLI.

Two families of scenarios are provided. In the correlation scenarios all
sources are standard normal and independent before the change; afterwards an
unknown block of sources becomes pairwise correlated, which is visible only
when at least two members of the block are sampled together. In the mean
scenarios single sources are sampled and the change shifts the mean of the
affected ones.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping

import numpy as np

from .gaussian import GaussianLocal, ModelInfeasibleError, equicorrelation_det
from .model import ChangePointModel, PostChangeHypothesis, Unit

__all__ = [
    "position_patterns",
    "correlated_blocks_model",
    "correlated_block_hypothesis",
    "signed_pair_model",
    "signed_pair_hypothesis",
    "mean_change_model",
    "mean_change_hypothesis",
    "PRESETS",
    "PRESET_PARAMETERS",
    "preset_model",
    "build_preset",
]

# Enumerating candidate correlation patterns is exponential in m(m-1)/2.
_MAX_PATTERN_UNIT_SIZE = 6


def position_patterns(m: int, rho: float) -> dict[frozenset, GaussianLocal]:
    """All positive definite m x m correlation matrices whose off-diagonal
    entries are 0 or rho, with at least one entry equal to rho.

    Keyed by the set of correlated position pairs (0-based). Patterns that are
    not positive definite are dropped: they cannot arise as the restriction of
    any valid global correlation matrix, and conversely every positive definite
    pattern is realised by embedding it into an identity matrix.
    """
    return dict(_patterns(m, rho))


# The pattern laws of the last few (m, rho), read but never changed by the
# model and hypothesis builders; position_patterns hands out a copy.
@functools.lru_cache(maxsize=8)
def _patterns(m: int, rho: float) -> dict[frozenset, GaussianLocal]:
    if m < 2:
        raise ValueError(f"correlation patterns need m >= 2, got m={m}")
    if m > _MAX_PATTERN_UNIT_SIZE:
        raise ValueError(f"pattern enumeration supports m <= {_MAX_PATTERN_UNIT_SIZE}, got m={m}")
    if not 0.0 < abs(rho) < 1.0:
        raise ValueError(f"rho must be nonzero with magnitude below 1, got {rho}")
    pairs = list(itertools.combinations(range(m), 2))
    out: dict[frozenset, GaussianLocal] = {}
    for mask in range(1, 1 << len(pairs)):
        a = np.eye(m)
        edges = []
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                a[i, j] = a[j, i] = rho
                edges.append((i, j))
        try:
            law = GaussianLocal(0.0, a)
        except ModelInfeasibleError:
            continue
        out[frozenset(edges)] = law
    return out


def _pattern_family(patterns: Mapping[frozenset, GaussianLocal]) -> tuple[GaussianLocal, ...]:
    keys = sorted(patterns, key=lambda e: (len(e), sorted(e)))
    return tuple(patterns[k] for k in keys)


def correlated_blocks_model(K: int, m: int, rho: float) -> ChangePointModel:
    """Independent standard normal sources; some block may become equicorrelated.

    Units are all size-m subsets of sources in lexicographic order. Every unit
    shares the same pre-change law and the same candidate post-change family,
    namely every positive definite pattern of rho-correlations on its m
    coordinates. rho must lie in (0, 1), as in every hypothesis on the model.
    """
    if m < 2:
        raise ValueError(f"a correlation change needs m >= 2, got m={m}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    units = tuple(Unit(c) for c in itertools.combinations(range(1, K + 1), m))
    pre = GaussianLocal.standard(m)
    family = _pattern_family(_patterns(m, rho))
    return ChangePointModel(
        K=K,
        m=m,
        units=units,
        pre_local={E: pre for E in units},
        post_family={E: family for E in units},
    )


def correlated_block_hypothesis(
    model: ChangePointModel,
    rho: float,
    s: int,
    block: tuple[int, ...] | None = None,
) -> PostChangeHypothesis:
    """The sources in ``block`` (default: the s largest indices) become pairwise
    rho-correlated after the change.

    A unit is affected when it contains at least two block members; its
    post-change law correlates exactly those coordinates. The largest
    information number over all affected size-m subsets of sources is attained
    by a fully correlated unit of min(m, s) block members and is recorded in
    closed form.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if block is None:
        if not 2 <= s <= model.K:
            raise ValueError(f"block size s must lie in [2, K], got s={s}")
        block = tuple(range(model.K - s + 1, model.K + 1))
    else:
        block = tuple(sorted(block))
        if len(block) != len(set(block)) or len(block) < 2:
            raise ValueError("block must contain at least two distinct sources")
        if block[0] < 1 or block[-1] > model.K:
            raise ValueError(f"block {block} references sources outside 1..{model.K}")
        s = len(block)
    members = frozenset(block)
    patterns = _patterns(model.m, rho)
    local_post = {}
    for E in model.units:
        inside = [p for p, k in enumerate(E.sources) if k in members]
        if len(inside) >= 2:
            local_post[E] = patterns[frozenset(itertools.combinations(inside, 2))]
    c_max = min(model.m, s)
    return PostChangeHypothesis(
        label=f"block{{{','.join(map(str, block))}}}@rho={rho:g}",
        local_post=local_post,
        info_number_max=-0.5 * math.log(equicorrelation_det(c_max, rho)),
        mixture_mean_invariant=True if model.m == 2 else None,
    )


def signed_pair_model(K: int, rho: float) -> ChangePointModel:
    """Pairs of sources may become correlated with known magnitude but unknown sign.

    Units are all pairs; each unit's post-change family holds the +rho and the
    -rho correlation. The mixture log likelihood ratio of a unit is symmetric
    under sign flips of either coordinate, so its mean is the same under both
    family members.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    units = tuple(Unit(c) for c in itertools.combinations(range(1, K + 1), 2))
    pre = GaussianLocal.standard(2)
    plus = GaussianLocal(0.0, np.array([[1.0, rho], [rho, 1.0]]))
    minus = GaussianLocal(0.0, np.array([[1.0, -rho], [-rho, 1.0]]))
    family = (minus, plus)
    return ChangePointModel(
        K=K,
        m=2,
        units=units,
        pre_local={E: pre for E in units},
        post_family={E: family for E in units},
    )


def signed_pair_hypothesis(
    model: ChangePointModel,
    rho: float,
    pair: tuple[int, int] | None = None,
    sign: int = 1,
) -> PostChangeHypothesis:
    """One specific pair becomes correlated with the given sign of rho."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if pair is None:
        pair = (model.K - 1, model.K)
    E = Unit(tuple(sorted(pair)))
    if E not in model._sampled:
        raise ValueError(f"pair {E} is not a unit of the model")
    r = sign * rho
    law = GaussianLocal(0.0, np.array([[1.0, r], [r, 1.0]]))
    return PostChangeHypothesis(
        label=f"pair{E}@rho={r:g}",
        local_post={E: law},
        info_number_max=-0.5 * math.log(1.0 - rho * rho),
        mixture_mean_invariant=True,
    )


def mean_change_model(
    K: int,
    mu: float | Mapping[int, float],
    signed: bool = False,
) -> ChangePointModel:
    """Single-source sampling; the mean of an affected source shifts by mu.

    ``mu`` is one shift shared by every source or a map from source to shift.
    With ``signed=True`` the direction of each shift is unknown and the family
    of a source holds both signs.
    """
    units = tuple(Unit((k,)) for k in range(1, K + 1))
    pre = GaussianLocal.standard(1)

    def shift(k: int) -> float:
        v = float(mu[k]) if isinstance(mu, Mapping) else float(mu)
        if v == 0.0:
            raise ValueError(f"mean shift of source {k} must be nonzero")
        return v

    shifts = {E: shift(E.sources[0]) for E in units}
    # one family per distinct shift
    families = {d: (_shifted(-d), _shifted(d)) if signed else (_shifted(d),) for d in set(shifts.values())}
    return ChangePointModel(
        K=K,
        m=1,
        units=units,
        pre_local={E: pre for E in units},
        post_family={E: families[shifts[E]] for E in units},
    )


def _shifted(d: float) -> GaussianLocal:
    return GaussianLocal(np.array([d]), np.eye(1))


def mean_change_hypothesis(
    model: ChangePointModel,
    affected_sources: tuple[int, ...],
    mu: float | Mapping[int, float],
) -> PostChangeHypothesis:
    """The listed sources shift their mean by mu (per source with a mapping);
    a negative mu shifts it down."""
    if not affected_sources:
        raise ValueError("at least one source must be affected")
    local_post = {}
    laws: dict[float, GaussianLocal] = {}  # one per distinct shift
    best = 0.0
    for k in affected_sources:
        E = Unit((k,))
        if E not in model._sampled:
            raise ValueError(f"source {k} is not sampled by the model")
        d = float(mu[k]) if isinstance(mu, Mapping) else float(mu)
        if d not in laws:
            laws[d] = _shifted(d)
        local_post[E] = laws[d]
        best = max(best, 0.5 * d * d)
    return PostChangeHypothesis(
        label=f"mean-shift{sorted(affected_sources)}",
        local_post=local_post,
        info_number_max=best,
        mixture_mean_invariant=True,
    )


def preset_model(name: str, *, K: int = 10, m: int = 2, rho: float = 0.7, mu: float = 1.0) -> ChangePointModel:
    """The model of one of the named scenario presets, without a hypothesis."""
    if name == "corr-pairs":
        return correlated_blocks_model(K, m, rho)
    if name == "signed-pairs":
        return signed_pair_model(K, rho)
    if name == "mean-change":
        return mean_change_model(K, mu)
    raise ValueError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}")


def build_preset(
    name: str,
    *,
    K: int = 10,
    m: int = 2,
    rho: float = 0.7,
    s: int = 2,
    mu: float = 1.0,
) -> tuple[ChangePointModel, PostChangeHypothesis]:
    """Model plus hypothesis for one of the named scenario presets."""
    model = preset_model(name, K=K, m=m, rho=rho, mu=mu)
    if name == "corr-pairs":
        return model, correlated_block_hypothesis(model, rho, s=s)
    if name == "signed-pairs":
        return model, signed_pair_hypothesis(model, rho)
    if not 1 <= s <= K:
        raise ValueError(f"block size s must lie in [1, K], got s={s}")
    return model, mean_change_hypothesis(model, tuple(range(K - s + 1, K + 1)), mu)


#: The keywords of build_preset each preset reads; preset_model reads all but s.
PRESET_PARAMETERS: dict[str, tuple[str, ...]] = {
    "corr-pairs": ("K", "m", "rho", "s"),
    "signed-pairs": ("K", "rho"),
    "mean-change": ("K", "s", "mu"),
}

PRESETS = tuple(PRESET_PARAMETERS)
