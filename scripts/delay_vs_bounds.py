#!/usr/bin/env python3
"""Simulated worst-case delay against the analytic envelope, per budget.

For each gamma the table shows the first-order prediction log(gamma)/I, the
Monte Carlo mean delay, and the explicit upper bound, so the first-order
agreement is visible directly: the ratio column should drift toward 1 as
gamma grows.
"""

from __future__ import annotations

import argparse
import math

from rrcusum.bounds import (
    DegenerateBoundError,
    compute_unit_statistics,
    lower_bound_first_order,
    nonasymptotic_upper_bound,
)
from rrcusum.montecarlo import RunSpec, estimate_delay
from rrcusum.scenarios import build_preset


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="corr-pairs")
    ap.add_argument("--K", type=int, default=10)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--rho", type=float, default=0.7)
    ap.add_argument("--s", type=int, default=10)
    ap.add_argument(
        "--gammas", type=float, nargs="+", default=[1e2, 1e3, 1e4, 1e5]
    )
    ap.add_argument("--replications", type=int, default=2000)
    ap.add_argument("--stats-reps", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    model, hyp = build_preset(
        args.preset, K=args.K, m=args.m, rho=args.rho, s=args.s
    )
    # the unit statistics do not depend on gamma
    stats = compute_unit_statistics(model, hyp, reps=args.stats_reps, seed=args.seed)
    print(
        f"{'gamma':>10} {'lower':>8} {'delay':>8} {'2se':>6} "
        f"{'upper':>8} {'delay/lower':>11}"
    )
    for gamma in args.gammas:
        lower = lower_bound_first_order(gamma, model, hyp, stats)
        try:
            upper = f"{nonasymptotic_upper_bound(math.log(gamma), model, hyp, stats).total:8.1f}"
        except DegenerateBoundError:
            upper = "n/a"
        spec = RunSpec(gamma=gamma, replications=args.replications, seed=args.seed)
        est = estimate_delay(model, hyp, spec)
        print(
            f"{gamma:10.0f} {lower:8.2f} {est.mean:8.2f} "
            f"{2 * est.stderr:6.2f} {upper:>8} {est.mean / lower:11.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
