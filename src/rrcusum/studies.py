"""The three standard delay studies: the correlated-block preset over block
sizes 2..10, each point with its simulated delay and its bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import compute_unit_statistics, lower_bound_first_order, nonasymptotic_upper_bound
from .model import derive_seed
from .montecarlo import Ordering, RunSpec, estimate_delay
from .scenarios import correlated_block_hypothesis, correlated_blocks_model

__all__ = ["StudyRow", "run_study", "STUDIES"]


@dataclass(frozen=True)
class StudyRow:
    """One point of a delay study: a (gamma, m, s) combination."""

    study: str
    K: int
    m: int
    rho: float
    gamma: float
    s: int
    num_correlated_pairs: int
    mean_delay: float
    stderr: float
    truncations: int
    lower_bound: float
    upper_bound: float
    upper_bound_coarse: float


#: Study number -> (rho, gamma values, m values)
STUDIES: dict[int, tuple[float, tuple[float, ...], tuple[int, ...]]] = {
    1: (0.7, (100.0, 100_000.0), (2,)),
    2: (0.7, (100.0,), (2, 3)),
    3: (0.95, (100.0,), (2, 3)),
}


def run_study(
    study: int,
    replications: int | None = None,
    seed: int = 0,
    nu: int = 0,
    stats_reps: int = 100_000,
    ladder_reps: int = 20_000,
) -> list[StudyRow]:
    """One of the three standard delay studies over block sizes 2..10.

    Study 1: rho 0.7, m = 2, gamma in {1e2, 1e5}. Study 2: rho 0.7, gamma 1e2,
    m in {2, 3}. Study 3: as study 2 with rho 0.95. All use K = 10 sources,
    4000 replications by default, the change at time nu, and the fixed
    canonical permutation of units (all size-m subsets in lexicographic
    order). Since the affected block occupies the top sources, that order
    visits the affected units late in the cycle; for m = 2 every affected
    pair comes after every unaffected one, so the canonical order coincides
    with the worst-case reordering.

    Each (gamma, m) group builds its model once and shares one cache of unit
    statistics, estimated at the group's seed; the delay of block size s, the
    idx-th of the group, runs at ``derive_seed(group seed, m, idx)``.
    """
    if study not in STUDIES:
        raise ValueError(f"study must be one of {sorted(STUDIES)}, got {study}")
    rho, gammas, ms = STUDIES[study]
    K = 10
    rows: list[StudyRow] = []
    for gi, gamma in enumerate(gammas):
        for m in ms:
            group_seed = derive_seed(seed, study, gi, m)
            model = correlated_blocks_model(K, m, rho)
            stats_cache: dict = {}
            for idx, s in enumerate(range(2, K + 1)):
                hypothesis = correlated_block_hypothesis(model, rho, s=s)
                spec = RunSpec(
                    gamma=gamma,
                    replications=4000 if replications is None else replications,
                    seed=derive_seed(group_seed, m, idx),
                    nu=nu,
                    ordering=Ordering.AS_GIVEN,
                )
                est = estimate_delay(model, hypothesis, spec)
                lower = lower_bound_first_order(gamma, model, hypothesis)
                stats = compute_unit_statistics(
                    model,
                    hypothesis,
                    reps=stats_reps,
                    ladder_reps=ladder_reps,
                    seed=group_seed,
                    cache=stats_cache,
                )
                bound = nonasymptotic_upper_bound(math.log(gamma), model, hypothesis, stats)
                rows.append(
                    StudyRow(
                        study=str(study),
                        K=K,
                        m=m,
                        rho=rho,
                        gamma=gamma,
                        s=s,
                        num_correlated_pairs=s * (s - 1) // 2,
                        mean_delay=est.mean,
                        stderr=est.stderr,
                        truncations=est.truncations,
                        lower_bound=lower,
                        upper_bound=bound.total,
                        upper_bound_coarse=bound.coarse_total,
                    )
                )
    return rows
