"""Acceptance suite: eight numbered end-to-end checks, each printing a
single PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Budgets are generous; the whole file takes a couple of minutes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from rrcusum.bounds import (
    OptimalityClass,
    bounds_report,
    classify_optimality,
    compute_unit_statistics,
    drift_post,
    info_number,
    nonasymptotic_upper_bound,
)
from rrcusum.gaussian import equicorrelation_det
from rrcusum.model import derive_rng, unit
from rrcusum.montecarlo import Ordering, StudyConfig, estimate_arl, estimate_delay
from rrcusum.policy import PolicyConfig, PolicyState, step
from rrcusum.scenarios import (
    build_preset,
    correlated_block_hypothesis,
    correlated_blocks_model,
    mean_change_hypothesis,
    mean_change_model,
)


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _seed(*salt: int) -> int:
    return int(np.random.SeedSequence(salt).generate_state(1)[0])


def test_c1_threshold_calibration():
    # K = 10, m = 2, rho = 0.7: at gamma = 100 the pre-change run length over
    # 2000 excursions of each kind, capped at 1e4 steps, must clear 95 by two
    # standard errors; at gamma = 1e5, the level of study 1, its lower 95%
    # confidence limit must reach gamma
    model = correlated_blocks_model(10, 2, 0.7)
    config = StudyConfig(
        K=10, m=2, rho=0.7, gamma=100.0, s_values=(2,), replications=2000, seed=_seed(1)
    )
    est = estimate_arl(model, config, cap=10_000)
    low = est.mean - 2.0 * est.stderr
    study1 = replace(config, gamma=1e5, replications=6000)
    high = estimate_arl(model, study1, cap=10_000_000)
    high_low = high.mean - 1.96 * high.stderr
    ok = low >= 95.0 and high_low >= 1e5 and high.truncations == 0
    assert _report(
        1,
        ok,
        f"run length {est.mean:.1f} (se {est.stderr:.1f}), lower CI {low:.1f} >= 95; "
        f"at gamma 1e5 {high.mean:.0f} (se {high.stderr:.0f}), lower 95% limit {high_low:.0f} >= 1e5",
    ), f"pre-change run length lower bounds {low:.2f} (>= 95) and {high_low:.0f} (>= 1e5)"


@pytest.mark.slow
def test_c2_first_order_agreement():
    # gamma = 1e5, all 45 pairs affected: the mean delay must land between
    # three quarters of the first-order prediction and the explicit bound
    # evaluated with Monte Carlo ladder estimates
    model = correlated_blocks_model(10, 2, 0.7)
    hyp = correlated_block_hypothesis(model, 0.7, s=10)
    gamma = 1e5
    config = StudyConfig(
        K=10,
        m=2,
        rho=0.7,
        gamma=gamma,
        s_values=(10,),
        replications=4000,
        seed=_seed(2),
        ordering=Ordering.AS_GIVEN,
    )
    est = estimate_delay(model, hyp, config)
    info = -0.5 * math.log(equicorrelation_det(2, 0.7))
    first_order = math.log(gamma) / info
    lower = 0.75 * first_order
    stats = compute_unit_statistics(
        model, hyp, reps=100_000, ladder_reps=20_000, seed=_seed(22)
    )
    upper = nonasymptotic_upper_bound(math.log(gamma), model, hyp, stats).total
    ok = lower <= est.mean <= upper
    assert _report(
        2,
        ok,
        f"mean delay {est.mean:.2f} (se {est.stderr:.2f}) in "
        f"[0.75 * {first_order:.2f} = {lower:.2f}, {upper:.2f}]",
    ), f"mean delay {est.mean:.3f} outside [{lower:.3f}, {upper:.3f}]"


def _study1_delays(gamma: float, replications: int):
    model = correlated_blocks_model(10, 2, 0.7)
    rows = []
    for s in range(2, 11):
        hyp = correlated_block_hypothesis(model, 0.7, s=s)
        config = StudyConfig(
            K=10,
            m=2,
            rho=0.7,
            gamma=gamma,
            s_values=(s,),
            replications=replications,
            seed=_seed(3, s),
            ordering=Ordering.AS_GIVEN,
        )
        est = estimate_delay(model, hyp, config)
        rows.append((s, len(hyp.affected_units), est.mean, est.stderr))
    return rows


@pytest.mark.slow
def test_c3_linear_tail_trend():
    # study 1 at gamma = 1e2: delay non-increasing in the number of affected
    # units within two standard errors, and an affine fit of delay against
    # 45 - |affected| over the upper half of the range explains 90 percent
    rows = _study1_delays(100.0, 4000)
    monotone = all(
        rows[i + 1][2] <= rows[i][2] + 2.0 * math.hypot(rows[i][3], rows[i + 1][3])
        for i in range(len(rows) - 1)
    )
    tail = [r for r in rows if r[1] >= 28]  # s in {8, 9, 10}
    x = np.array([45.0 - r[1] for r in tail])
    y = np.array([r[2] for r in tail])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    ok = monotone and r2 >= 0.9
    assert _report(
        3,
        ok,
        f"monotone within 2 se: {monotone}; tail fit R^2 = {r2:.5f} "
        f"(delays {', '.join(f'{r[2]:.2f}' for r in rows)})",
    ), f"monotone={monotone}, R^2={r2:.4f}"


@pytest.mark.slow
def test_c4_budget_crossover():
    # at rho = 0.7 sampling pairs beats sampling triples for most block
    # sizes; at rho = 0.95 the comparison mostly reverses
    def arm(rho: float, m: int):
        model = correlated_blocks_model(10, m, rho)
        out = {}
        for s in range(2, 11):
            hyp = correlated_block_hypothesis(model, rho, s=s)
            config = StudyConfig(
                K=10,
                m=m,
                rho=rho,
                gamma=100.0,
                s_values=(s,),
                replications=1000,
                seed=_seed(4, int(rho * 100), m, s),
                ordering=Ordering.AS_GIVEN,
            )
            out[s] = estimate_delay(model, hyp, config).mean
        return out

    wins = {}
    for rho in (0.7, 0.95):
        two = arm(rho, 2)
        three = arm(rho, 3)
        wins[rho] = sum(1 for s in range(2, 11) if two[s] < three[s])
    ok_07 = wins[0.7] >= 5
    ok_95 = (9 - wins[0.95]) >= 5
    ok = ok_07 and ok_95
    assert _report(
        4,
        ok,
        f"rho 0.7: m=2 wins {wins[0.7]}/9; rho 0.95: m=3 wins {9 - wins[0.95]}/9",
    ), f"crossover failed: m=2 wins {wins[0.7]}/9 at 0.7, m=3 wins {9 - wins[0.95]}/9 at 0.95"


def test_c5_determinant_identities():
    worst = 0.0
    for k in range(1, 7):
        for rho in [0.1 * i for i in range(1, 10)]:
            dense = float(np.linalg.det(np.eye(k) * (1 - rho) + np.full((k, k), rho)))
            rel = abs(equicorrelation_det(k, rho) - dense) / abs(dense)
            worst = max(worst, rel)
    split_ok = True
    for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        for m in range(2, 9):
            for s in range(1, m):
                t = m - s
                lhs = equicorrelation_det(m, rho)
                rhs = equicorrelation_det(s, rho) * equicorrelation_det(t, rho)
                if lhs > rhs * (1 + 1e-12):
                    split_ok = False
    ok = worst <= 1e-12 and split_ok
    assert _report(
        5,
        ok,
        f"max relative error vs dense LU {worst:.2e}; "
        f"det(R_m) <= det(R_s) det(R_t) for all s + t = m <= 8: {split_ok}",
    ), f"worst rel err {worst:.2e}, submultiplicative={split_ok}"


def test_c6_kl_drift_identities():
    # singleton families: the Monte Carlo mean of the class llr must reproduce
    # the closed-form post-change drift within three standard errors. The
    # drift equals the information number when the true law is the family's
    # member, and falls below it for a mean shift against the family.
    reversed_model = mean_change_model(3, 1.0)
    cases = [
        ("corr-pairs", *build_preset("corr-pairs"), True),
        ("mean-change", *build_preset("mean-change"), True),
        ("reversed-shift", reversed_model, mean_change_hypothesis(reversed_model, (3,), -1.0), False),
    ]
    checks = []
    for name, model, hyp, matched in cases:
        for E in sorted(hyp.affected_units):
            assert len(model.post_family[E]) == 1
            exact = drift_post(model, hyp, E)
            assert exact.stderr == 0.0
            if matched:
                assert exact.value == pytest.approx(info_number(model, hyp, E).value, abs=1e-12)
            draws = model.unit_class(E, hyp.local_post[E]).draw(derive_rng(_seed(6, E.sources[0]), 0x2F0), 50_000)
            se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
            checks.append((name, str(E), abs(float(draws.mean()) - exact.value) <= 3.0 * se))
    drift_ok = all(c[2] for c in checks)

    # sign-symmetric family: the mixture llr is invariant under flipping the
    # sign of either coordinate
    model, _ = build_preset("signed-pairs")
    E = unit(9, 10)
    rng = np.random.default_rng(_seed(66))
    x = 1.5 * rng.standard_normal((10_000, 2))
    base = np.asarray(model.mixture_llr(E, x))
    worst = 0.0
    for flip in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        other = np.asarray(model.mixture_llr(E, x * np.array(flip)))
        worst = max(worst, float(np.abs(base - other).max()))
    sym_ok = worst <= 1e-12
    ok = drift_ok and sym_ok
    assert _report(
        6,
        ok,
        f"{len(checks)} singleton drift checks within 3 se: {drift_ok}; "
        f"sign-flip symmetry max deviation {worst:.2e} at 10^4 points",
    ), f"drift checks {checks}, symmetry deviation {worst:.2e}"


def test_c7_policy_property_suite():
    order = (unit(1), unit(2), unit(3))

    def run(values, threshold):
        s = PolicyState(config=PolicyConfig(threshold=threshold, unit_order=order))
        trace = []
        for v in values:
            d = step(s, v)
            trace.append((d.decision.value, d.unit, d.time, s.statistic, s.cursor))
            if s.stopped:
                break
        return trace, s

    failures = []

    # boundary behavior: alarm at exactly A, switch at exactly 0, reset max(Y,0)
    _, s = run([2.0], 2.0)
    if not s.stopped:
        failures.append("no alarm at Y == A")
    trace, s = run([0.0], 2.0)
    if trace[0][0] != "switch" or s.cursor != 1:
        failures.append("no switch at Y == 0")
    trace, s = run([-3.0, 1.0, 1.0], 5.0)
    if abs(trace[1][3] - 1.0) > 0.0:
        failures.append("negative statistic not reset through max(Y, 0)")

    # round-robin order and wraparound
    trace, _ = run([-1.0] * 5, 2.0)
    if [t[4] for t in trace] != [1, 2, 0, 1, 2]:
        failures.append("switch order is not round robin")

    # accounting: every step consumes exactly one observation of the unit
    # under the cursor; times are 1-based and contiguous
    trace, _ = run([0.5, -0.5, 0.5, 0.5, 0.5], 10.0)
    if [t[2] for t in trace] != [1, 2, 3, 4, 5]:
        failures.append("step times are not contiguous from 1")

    # bit-exact determinism against an independent restatement, on random streams
    rng = np.random.default_rng(_seed(7))
    for rep in range(200):
        n = int(rng.integers(1, 120))
        values = rng.normal(scale=1.5, size=n)
        threshold = float(rng.uniform(0.5, 4.0))
        got, _ = run(values, threshold)
        y, cursor = 0.0, 0
        for (kind, u, t, stat, cur), v in zip(got, values):
            y = max(y, 0.0) + v
            if y >= threshold:
                want = "alarm"
            elif y <= 0.0:
                cursor = (cursor + 1) % 3
                want = "switch"
            else:
                want = "continue"
            if kind != want or stat != y or cur != cursor or u != order[cursor]:
                failures.append(f"trace diverges from reference at rep {rep}")
                break
        repeat, _ = run(values, threshold)
        if repeat != got:
            failures.append(f"rerun differs at rep {rep}")
            break

    ok = not failures
    assert _report(
        7, ok, "boundaries, order, reset, accounting, determinism all hold"
        if ok
        else "; ".join(failures[:3])
    ), failures


def test_c8_optimality_classifier():
    model2, hyp2 = build_preset("corr-pairs")
    cls2 = classify_optimality(model2, hyp2)
    are2 = bounds_report(model2, hyp2, gamma=1e2, reps=10_000, ladder_reps=10_000).are_bound
    modelp, hypp = build_preset("signed-pairs")
    clsp = classify_optimality(modelp, hypp)
    model3, hyp3 = build_preset("corr-pairs", m=3, s=3)
    cls3 = classify_optimality(model3, hyp3)
    ok = (
        cls2 is OptimalityClass.ASYMPTOTICALLY_OPTIMAL
        and abs(are2 - 1.0) <= 1e-12
        and clsp is OptimalityClass.BOUNDED_ARE
        and cls3 is not OptimalityClass.ASYMPTOTICALLY_OPTIMAL
    )
    assert _report(
        8,
        ok,
        f"pairs: {cls2.value} (efficiency ratio bound {are2:.12f}); "
        f"signed pairs: {clsp.value}; triples: {cls3.value}",
    ), f"cls2={cls2}, are2={are2}, clsp={clsp}, cls3={cls3}"
