#!/usr/bin/env python3
"""Share-assignment study: confusability-optimized indices vs the empirical
relative-error scan and the contiguous strawman.

Solves the index-assignment problem exhaustively, scans every candidate set
by simulated relative error to locate the empirical best, and reports the
three-way comparison.
"""

import argparse
import math
from itertools import combinations

import numpy as np

from alcc_lab.assignment import (
    AssignmentProblem,
    canonical_class,
    contiguous_subset,
    relative_error_baseline,
    solve_assignment,
)
from alcc_lab.harness import run_trial, trial_seeds, write_csv
from alcc_lab.scenario import Scenario


def mean_error_db(scenario: Scenario, subset, seeds) -> float:
    sc = scenario.with_updates(unreliable=tuple(subset))
    errors = [run_trial(sc, s).e_rel for s in seeds]
    return 20 * math.log10(float(np.mean(errors)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=11)
    parser.add_argument("--mu", type=int, default=5)
    parser.add_argument("--count", type=int, default=2)
    parser.add_argument("--sigma-p2", type=float, default=1.0)
    parser.add_argument("--precision-var", type=float, default=0.01,
                        help="synthetic worker-noise variance for the simulations")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--scan-trials", type=int, default=60)
    parser.add_argument("--seed", type=int, default=20240504)
    parser.add_argument("--out", default="assignment_study.csv")
    parser.add_argument("--skip-scan", action="store_true",
                        help="skip the exhaustive empirical scan")
    args = parser.parse_args(argv)

    prob = AssignmentProblem(
        n_workers=args.n,
        unreliable_count=args.mu,
        byzantine_count=args.count,
        sigma_p_sq=args.sigma_p2,
    )
    solution = solve_assignment(prob)
    print(f"solver subset (1-based): {tuple(i + 1 for i in solution.subset)}  "
          f"class {canonical_class(solution.subset, args.n)}")

    k = 3 if args.n == 11 else 5
    t = 1 if args.n == 11 else 3
    scenario = Scenario(
        n_workers=args.n, k=k, t=t,
        sigma_pad=1.0,
        byzantine_count=args.count,
        base_matrix="all-one",
        precision_mode="synthetic",
        precision_var=args.precision_var,
        localization="restricted",
        error_count_mode="oracle",
        master_seed=args.seed,
    )
    seeds = trial_seeds(args.seed, 0, args.trials)
    contig = contiguous_subset(args.n, args.mu)

    rows = [("label", "subset_1based", "mean_e_rel_db")]
    for label, subset in (("solver", solution.subset), ("contiguous", contig)):
        db_val = mean_error_db(scenario, subset, seeds)
        rows.append((label, " ".join(str(i + 1) for i in subset), f"{db_val:.3f}"))
        print(f"{label:10}: {db_val:8.2f} dB")

    if not args.skip_scan:
        baseline = relative_error_baseline(
            prob, scenario, trials=args.scan_trials, seed=args.seed,
            candidates=list(combinations(range(args.n), args.mu)),
            force=True,
        )
        db_val = mean_error_db(scenario, baseline.subset, seeds)
        rows.append(("empirical-best",
                     " ".join(str(i + 1) for i in baseline.subset), f"{db_val:.3f}"))
        print(f"empirical-best ({tuple(i + 1 for i in baseline.subset)}): "
              f"{db_val:8.2f} dB")

    write_csv(args.out, rows)


if __name__ == "__main__":
    main()
