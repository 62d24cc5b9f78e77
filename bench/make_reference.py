"""Recompute bench/reference.json, the reference values the checks compare with.

    python3 bench/make_reference.py

Every operation of every workload is run REPEATS[workload] times with seeds no
benchmark run uses, and each estimate is pooled: the reference is the mean of
the repeats, its standard error is the root mean square of theirs over the
square root of the number of repeats, and ``run_stderr`` is that root mean
square: the standard error of one benchmark run. Takes about five minutes on
two cores.
"""

from __future__ import annotations

import json
import math

import workloads

REPEATS = {"delay": 16, "bounds": 8, "arl": 16}
# Seeds of the form (REFERENCE_SEED + k, ...) are far from any benchmark seed.
REFERENCE_SEED = 2**62


def pooled(results: list[dict[str, float]]) -> dict[str, dict[str, float]]:
    n = len(results)
    out = {}
    for key in results[0]:
        if key + ".se" in results[0]:
            mean = math.fsum(r[key] for r in results) / n
            rms = math.sqrt(math.fsum(r[key + ".se"] ** 2 for r in results) / n)
            out[key] = {"mean": mean, "stderr": rms / math.sqrt(n), "run_stderr": rms}
    return out


def operations(workload: str, seed: int) -> list[workloads.Op]:
    # The benchmark runs the bounds operations at one pinned seed; the
    # reference pools them over seeds like the others.
    if workload == "bounds":
        return workloads.bounds_ops(seed, {})
    return workloads.build(workload, seed, reference={"ops": {}})


def main() -> None:
    ops_ref: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        repeats = [operations(workload, REFERENCE_SEED + k) for k in range(REPEATS[workload])]
        for i, op in enumerate(repeats[0]):
            ops_ref[op.name] = pooled([ops[i].run() for ops in repeats])
            print(op.name, json.dumps(ops_ref[op.name]), flush=True)
    doc = {
        "note": "Pooled estimates over REPEATS runs of each operation; see make_reference.py.",
        "repeats": REPEATS,
        "ops": ops_ref,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
