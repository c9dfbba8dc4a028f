#!/usr/bin/env python3
"""Joint vs independent localization across Byzantine counts and noise levels.

Runs paired trials (same seeds for both strategies) and reports, per grid
point, the mean relative error and the localization-error rate of each
strategy. A joint search too large for its budget ends the run with one
``guard:`` line and exit status 2; the rows finished before it stay in the CSV.
"""

import argparse
import math
import sys

import numpy as np

from alcc_lab.harness import run_trial, trial_seeds, write_csv
from alcc_lab.numeric import RuntimeGuardError
from alcc_lab.scenario import Scenario


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="joint_vs_independent.csv")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20240502)
    parser.add_argument("--counts", default="1,2,3,4,5,6,7,8")
    parser.add_argument("--variances", default="1e-3,1e-2,1e-1")
    args = parser.parse_args(argv)

    base = Scenario(
        sigma_pad=1.0,
        precision_mode="locator",
        base_matrix="all-one",
        error_count_mode="oracle",
        trials=args.trials,
        master_seed=args.seed,
    )
    counts = [int(t) for t in args.counts.split(",")]
    variances = [float(t) for t in args.variances.split(",")]

    def rows():
        yield ("A", "sigma_p2", "strategy", "mean_e_rel_db", "loc_error_rate")
        for grid_index, (a, var) in enumerate(
            (a, v) for a in counts for v in variances
        ):
            seeds = trial_seeds(args.seed, grid_index, args.trials)
            for strategy in ("independent", "joint"):
                sc = base.with_updates(
                    byzantine_count=a, precision_var=var, localization=strategy,
                )
                records = [run_trial(sc, s) for s in seeds]
                mean_err = float(np.mean([r.e_rel for r in records]))
                loc_rate = float(np.mean([not r.loc_correct for r in records]))
                db = f"{20 * math.log10(mean_err):.3f}"
                print(f"A={a} sigma_p2={var:g} {strategy:11}: "
                      f"{db} dB, loc errors {loc_rate:.2%}")
                yield (a, f"{var:g}", strategy, db, f"{loc_rate:.4f}")

    try:
        write_csv(args.out, rows())
    except RuntimeGuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
