"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The whole test suite takes about a minute on 2 cores; criteria 7 and 8
take most of it.
"""

import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from alcc_lab import bounds, selftest
from alcc_lab.assignment import (
    AssignmentProblem,
    canonical_class,
    contiguous_subset,
    relative_error_baseline,
    solve_assignment,
)
from alcc_lab.codec import db
from alcc_lab.harness import run_trial, trial_seeds, write_sweep_csv
from alcc_lab.scenario import Scenario, SweepSpec
from alcc_lab.threat import optimal_zero_probability


def report(criterion: str, passed: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


def spread_support(n: int, a: int) -> tuple:
    """a indices spread as evenly as the grid allows."""
    return tuple(sorted(set(int(round(i * n / a)) % n for i in range(a))))


def test_criterion_1_exhaustive_decode_oracle():
    start = time.perf_counter()
    rep = selftest.run_exhaustive_decode_check(values_per_support=20)
    elapsed = time.perf_counter() - start
    ok = rep.failures == 0 and elapsed < 60.0
    assert report(
        "1 decode oracle",
        ok,
        f"{rep.decodes_run} decodes over {rep.supports_checked} supports, "
        f"{rep.failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_end_to_end_nullification():
    base_scenario = Scenario(
        sigma_pad=1.0,
        precision_mode="synthetic",
        precision_var=1e-12,
        base_matrix="all-one",
        error_count_mode="oracle",
        localization="independent",
    )
    trials = 100
    seeds = trial_seeds(20_240_810, 0, trials)  # common draws across grid points

    def mean_e_rel(scenario):
        return float(np.mean([run_trial(scenario, s).e_rel for s in seeds]))

    start = time.perf_counter()
    baseline = mean_e_rel(base_scenario)
    decoded_gaps, nodecoder_gaps = [], []
    all_loc_correct = True
    for a in range(1, 9):
        locs = spread_support(31, a)
        sc = base_scenario.with_updates(byzantine_count=a, byzantine_locations=locs)
        records = [run_trial(sc, s) for s in seeds]
        all_loc_correct &= all(r.loc_correct for r in records)
        decoded_gaps.append(db(np.mean([r.e_rel for r in records])) - db(baseline))
        off = mean_e_rel(sc.with_updates(decoder=False))
        nodecoder_gaps.append(db(off) - db(baseline))
    elapsed = time.perf_counter() - start

    ok = (
        all(g <= 3.0 for g in decoded_gaps)
        and all(g >= 20.0 for g in nodecoder_gaps)
        and elapsed < 600.0
    )
    gaps = " ".join(f"A={a}:{g:+.2f}" for a, g in enumerate(decoded_gaps, start=1))
    assert report(
        "2 nullification",
        ok,
        f"decoded gaps dB [{gaps}], no-decoder gaps >= "
        f"{min(nodecoder_gaps):.1f} dB, loc exact={all_loc_correct}, {elapsed:.0f}s",
    )


def test_criterion_3_joint_beats_independent():
    base = Scenario(
        sigma_pad=1.0,
        byzantine_count=8,
        base_matrix="all-one",
        precision_mode="locator",
        precision_var=0.1,
        error_count_mode="oracle",
    )
    trials = 500
    seeds = trial_seeds(30_240_810, 0, trials)
    ind_wrong, joint_wrong = [], []
    for seed in seeds:
        ind = run_trial(base.with_updates(localization="independent"), seed)
        joint = run_trial(base.with_updates(localization="joint"), seed)
        ind_wrong.append(not ind.loc_correct)
        joint_wrong.append(not joint.loc_correct)
    ind_rate = float(np.mean(ind_wrong))
    joint_rate = float(np.mean(joint_wrong))
    n10 = sum(1 for i, j in zip(ind_wrong, joint_wrong) if i and not j)
    n01 = sum(1 for i, j in zip(ind_wrong, joint_wrong) if j and not i)
    test = stats.binomtest(n10, n10 + n01, 0.5, alternative="greater")
    ok = joint_rate <= ind_rate and test.pvalue <= 0.05
    assert report(
        "3 joint vs independent",
        ok,
        f"independent rate {ind_rate:.3f}, joint rate {joint_rate:.3f}, "
        f"discordant {n10}/{n01}, one-sided p {test.pvalue:.2e}",
    )


def test_criterion_4_pairwise_bound_monotone_in_noise():
    rng = np.random.default_rng(40_240_810)
    grid = [1e-4 * 10**j for j in range(7)]
    violations = 0
    for _ in range(100):
        n = int(rng.integers(8, 48))
        size = int(rng.integers(1, 5))
        support = rng.choice(n, size=size, replace=False)
        probe = int(rng.choice([j for j in range(n) if j not in support]))
        values = [
            bounds.pep_lower_bound(n, support, probe, 10.0, var)
            for var in grid
        ]
        violations += sum(1 for lo, hi in zip(values, values[1:]) if hi < lo - 1e-12)
    assert report(
        "4 noise monotonicity", violations == 0,
        f"100 contexts x 7-point grid, {violations} violations",
    )


def test_criterion_5_dominant_term_monotone_in_count():
    values = [bounds.dominant_term_bound(a, 31, 0.01, 10.0) for a in range(1, 9)]
    violations = sum(1 for lo, hi in zip(values, values[1:]) if hi < lo)
    assert report(
        "5 count monotonicity", violations == 0,
        f"A_c=1..8 at sigma_p2=0.01, {violations} violations",
    )


def test_criterion_6_single_all_one_row_is_optimal():
    m, v, n, var = 100, 8, 31, 0.01
    values = [
        bounds.strong_collusion_objective(m, v, omega, n, var, 10.0)
        for omega in range(m + 1)
    ]
    best = int(np.argmax(values))
    assert report(
        "6 strong-collusion optimum", best == 1,
        f"argmax over omega=0..{m} is {best}",
    )


def test_criterion_7_weak_collusion_peak():
    p_star = optimal_zero_probability(8)
    value_ok = abs(p_star - 0.257) <= 1e-3

    base = Scenario(
        sigma_pad=1.0,
        byzantine_count=8,
        byzantine_locations=(0, 4, 8, 12, 16, 20, 24, 28),
        base_matrix="weak",
        noise_var=1e2,
        precision_mode="locator",
        precision_var=0.005,
        localization="joint",
        constraint_length=8,
        error_count_mode="oracle",
    )
    trials = 300
    seeds = trial_seeds(70_240_810, 0, trials)
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    means = []
    for p in grid:
        sc = base.with_updates(weak_zero_prob=p)
        means.append(float(np.mean([run_trial(sc, s).e_rel for s in seeds])))
    peak = grid[int(np.argmax(means))]
    peak_ok = abs(peak - p_star) <= 0.1
    assert report(
        "7 weak-collusion p*", value_ok and peak_ok,
        f"p*={p_star:.4f} (target 0.257+-0.001), empirical peak at p={peak:.2f}",
    )


def test_criterion_8_assignment_optimizer():
    problem = AssignmentProblem(
        n_workers=11, unreliable_count=5, byzantine_count=2,
        eta=10.0, sigma_p_sq=1.0,
    )
    solution = solve_assignment(problem)
    target_class = canonical_class((0, 2, 5, 8, 10), 11)  # 1-based {1,3,6,9,11}
    class_ok = canonical_class(solution.subset, 11) == target_class

    scenario = Scenario(
        n_workers=11, k=3, t=1, sigma_pad=1.0,
        byzantine_count=2, base_matrix="all-one",
        precision_mode="synthetic", precision_var=0.005,
        localization="restricted", error_count_mode="oracle",
    )
    trials = 300
    seeds = trial_seeds(80_240_810, 0, trials)

    def errors_for(subset):
        sc = scenario.with_updates(unreliable=tuple(subset))
        return np.array([run_trial(sc, s).e_rel for s in seeds])

    chosen = errors_for(solution.subset)
    contiguous = errors_for(contiguous_subset(11, 5))
    better = db(chosen.mean()) < db(contiguous.mean())
    mw = stats.mannwhitneyu(contiguous, chosen, alternative="greater")

    scan = relative_error_baseline(
        problem, scenario.with_updates(trials=60), trials=60, seed=80_240_811,
        candidates=list(combinations(range(11), 5)),
    )
    empirical_best = errors_for(scan.subset)
    gap_db = db(chosen.mean()) - db(empirical_best.mean())
    ok = class_ok and better and mw.pvalue <= 0.05 and gap_db <= 2.0
    assert report(
        "8 assignment optimizer", ok,
        f"class {tuple(i + 1 for i in solution.subset)} ok={class_ok}; "
        f"vs contiguous {db(contiguous.mean()) - db(chosen.mean()):+.2f} dB "
        f"(p {mw.pvalue:.2e}); vs empirical best {scan.subset} {gap_db:+.2f} dB",
    )


def test_criterion_9_byte_identical_replay(tmp_path):
    scenario = Scenario(
        sigma_pad=1.0, precision_mode="synthetic", precision_var=1e-12,
        base_matrix="all-one", trials=5, master_seed=90_240_810,
    )
    spec = SweepSpec(byzantine_counts=(0, 4, 8))
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        write_sweep_csv(scenario, spec, path, str(path) + ".agg")
    trials_equal = paths[0].read_bytes() == paths[1].read_bytes()
    aggs_equal = (
        (tmp_path / "run1.csv.agg").read_bytes()
        == (tmp_path / "run2.csv.agg").read_bytes()
    )
    assert report(
        "9 determinism", trials_equal and aggs_equal,
        f"trial bodies identical={trials_equal}, aggregates identical={aggs_equal}",
    )
