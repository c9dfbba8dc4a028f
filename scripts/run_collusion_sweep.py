#!/usr/bin/env python3
"""Weak-collusion probability sweep against the strong-collusion reference.

Sweeps the Bernoulli zero-probability p at full adversary strength
(A = v Byzantine workers) under joint localization, sharing trial seeds
across p values so the curve is paired. Prints the empirical worst-case p
next to the analytical optimum.
"""

import argparse
import math

import numpy as np

from alcc_lab.harness import run_trial, trial_seeds, write_csv
from alcc_lab.scenario import Scenario
from alcc_lab.threat import optimal_zero_probability


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20240503)
    parser.add_argument("--precision-var", type=float, default=0.005)
    parser.add_argument("--constraint-length", type=int, default=8)
    parser.add_argument("--out", default="collusion_sweep.csv")
    args = parser.parse_args(argv)

    base = Scenario(
        sigma_pad=1.0,
        byzantine_count=8,
        byzantine_locations=(0, 4, 8, 12, 16, 20, 24, 28),
        noise_var=1e2,
        precision_mode="locator",
        precision_var=args.precision_var,
        localization="joint",
        constraint_length=args.constraint_length,
        error_count_mode="oracle",
        master_seed=args.seed,
    )
    seeds = trial_seeds(args.seed, 0, args.trials)
    grid = [round(0.05 * i, 2) for i in range(1, 20)]

    rows = [("mode", "zero_prob", "mean_e_rel_db")]
    means = []
    for p in grid:
        sc = base.with_updates(base_matrix="weak", weak_zero_prob=p)
        errors = [run_trial(sc, s).e_rel for s in seeds]
        db_val = 20 * math.log10(float(np.mean(errors)))
        means.append(db_val)
        rows.append(("weak", f"{p:.2f}", f"{db_val:.3f}"))
        print(f"p={p:.2f}: {db_val:8.2f} dB")

    strong = base.with_updates(base_matrix="strong")
    errors = [run_trial(strong, s).e_rel for s in seeds]
    db_val = 20 * math.log10(float(np.mean(errors)))
    rows.append(("strong", "", f"{db_val:.3f}"))
    print(f"strong-collusion reference: {db_val:8.2f} dB")

    worst = grid[int(np.argmax(means))]
    print(f"empirical worst p = {worst:.2f}; analytical p* = "
          f"{optimal_zero_probability(8):.3f}")

    write_csv(args.out, rows)


if __name__ == "__main__":
    main()
