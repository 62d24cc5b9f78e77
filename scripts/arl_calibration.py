#!/usr/bin/env python3
"""Check the false alarm guarantee empirically over a grid of budgets.

With the threshold set to log(gamma) the pre-change run length should come
out at or above gamma for every gamma. Prints one row per budget.
"""

from __future__ import annotations

import argparse
import math

from rrcusum.montecarlo import RunSpec, estimate_arl
from rrcusum.scenarios import correlated_blocks_model


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--K", type=int, default=10)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--rho", type=float, default=0.7)
    ap.add_argument("--gammas", type=float, nargs="+", default=[20.0, 50.0, 100.0, 300.0, 1e3, 1e5])
    ap.add_argument("--replications", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    model = correlated_blocks_model(args.K, args.m, args.rho)
    print(f"{'gamma':>8} {'run_length':>12} {'2se':>8} {'ratio':>7} {'truncated':>9}")
    worst = float("inf")
    for gamma in args.gammas:
        spec = RunSpec(gamma=gamma, replications=args.replications, seed=args.seed)
        est = estimate_arl(model, spec, cap=math.ceil(100 * gamma))
        ratio = est.mean / gamma
        worst = min(worst, ratio)
        print(
            f"{gamma:8.0f} {est.mean:12.1f} {2 * est.stderr:8.1f} "
            f"{ratio:7.2f} {est.truncations:9d}"
        )
    print(f"worst ratio to budget: {worst:.2f} (must stay >= 1)")
    return 0 if worst >= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
