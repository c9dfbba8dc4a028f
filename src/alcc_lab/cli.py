"""Command-line interface.

Subcommands: simulate, sweep, bounds, optimize-assignment, attack-design,
selftest. `optimize-assignment --config` also scans every index subset by
simulated relative error on the config's scenario and reports the solver's,
the contiguous and the empirically best subset. Exit codes: 0 success, 1
invalid configuration or usage, a selftest with a failed decode (or a stdout
its reader closed), 2 runtime guard trip.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import assignment as assignment_mod
from . import bounds as bounds_mod
from . import codec, harness, selftest, threat
from .assignment import AssignmentProblem, RuntimeGuardError
from .numeric import ParameterError
from .scenario import SweepSpec, load_config

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_GUARD = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad flags, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _build_parser() -> _Parser:
    parser = _Parser(prog="alcc-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario's trials")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None, help="trial CSV path (default stdout)")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--trials", type=int, default=None)

    sw = sub.add_parser("sweep", help="run the grid in the config's [sweep] section")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True, help="trial CSV path")
    sw.add_argument("--agg-out", default=None, help="aggregate CSV path")

    bd = sub.add_parser("bounds", help="emit bound values over a parameter grid")
    bd.add_argument("--n", type=int, required=True)
    bd.add_argument("--count", type=int, required=True, help="error count A")
    bd.add_argument("--eta", type=float, default=10.0)
    bd.add_argument("--sigma-grid", default="1e-4,1e-3,1e-2,1e-1,1",
                    help="comma-separated precision variances")
    bd.add_argument("--support", default=None,
                    help="comma-separated true support (default 0..A-1)")
    bd.add_argument("--out", default=None)

    oa = sub.add_parser("optimize-assignment", help="solve the index-assignment problem")
    oa.add_argument("--n", type=int, required=True)
    oa.add_argument("--mu", type=int, required=True)
    oa.add_argument("--count", type=int, required=True, help="byzantine count A")
    oa.add_argument("--sigma-p2", type=float, default=1.0)
    oa.add_argument("--eta", type=float, default=10.0)
    oa.add_argument("--metric", choices=("integer", "chord"), default="integer")
    oa.add_argument("--search", choices=("exhaustive", "beam"), default="exhaustive")
    oa.add_argument("--beam-width", type=int, default=64)
    oa.add_argument("--seed", type=int, default=0)
    oa.add_argument("--config", default=None,
                    help="scenario config: scan every subset over its [scenario] trials "
                         "and master seed ([sweep] is ignored) and report the solver, "
                         "contiguous and empirical-best subsets by mean relative error")
    oa.add_argument("--table-out", default=None,
                    help="CSV comparing the solver and contiguous sets (and, with "
                         "--config, the empirical best)")

    ad = sub.add_parser("attack-design", help="generate a collusion base matrix")
    ad.add_argument("--mode", choices=("strong", "weak"), required=True)
    ad.add_argument("--rows", type=int, required=True, help="output entries M")
    ad.add_argument("--colluders", type=int, required=True, help="byzantine count v")
    ad.add_argument("--zero-prob", type=float, default=None,
                    help="weak mode P(entry=0); default p*")
    ad.add_argument("--seed", type=int, default=0)
    ad.add_argument("--out", default=None)

    st = sub.add_parser("selftest", help="exhaustive noise-free decoder check")
    st.add_argument("--values-per-support", type=int, default=20)
    st.add_argument("--seed", type=int, default=2024)
    return parser


def _cmd_simulate(args) -> int:
    scenario, _ = load_config(args.config)
    if args.seed is not None:
        scenario = scenario.with_updates(master_seed=args.seed)
    if args.trials is not None:
        scenario = scenario.with_updates(trials=args.trials)
    harness.write_sweep_csv(scenario, SweepSpec(), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario, spec = load_config(args.config)
    agg_path = args.agg_out or (str(args.out) + ".agg.csv")
    harness.write_sweep_csv(scenario, spec, args.out, agg_path)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.count < 1:
        raise ParameterError(f"--count must be at least 1, got {args.count}")
    sigmas = [float(tok) for tok in args.sigma_grid.split(",") if tok.strip()]
    if args.support:
        support = sorted(int(tok) for tok in args.support.split(","))
        if len(support) != args.count:
            raise ParameterError(
                f"--support lists {len(support)} indices but --count is {args.count}"
            )
    else:
        support = list(range(args.count))
    rows = [("n", "count", "eta", "sigma_p2", "union_surrogate", "dominant_term")]
    for var in sigmas:
        union = bounds_mod.localization_upper_bound(args.n, support, var, args.eta)
        dom = bounds_mod.dominant_term_bound(len(support), args.n, var, args.eta)
        rows.append((args.n, len(support), args.eta, f"{var:.6g}",
                     f"{union.value:.12e}", f"{dom:.12e}"))
    harness.write_csv(args.out, rows)
    return EXIT_OK


def _cmd_optimize_assignment(args) -> int:
    scenario = load_config(args.config)[0] if args.config else None
    prob = AssignmentProblem(
        n_workers=args.n,
        unreliable_count=args.mu,
        byzantine_count=args.count,
        eta=args.eta,
        sigma_p_sq=args.sigma_p2,
        metric=args.metric,
    )
    solution = assignment_mod.solve_assignment(
        prob, search=args.search, beam_width=args.beam_width,
        rng=np.random.default_rng(args.seed),
    )
    contiguous = assignment_mod.contiguous_subset(args.n, args.mu)
    rows = [("solver", solution.subset), ("contiguous", contiguous)]
    if scenario is not None:
        scan = assignment_mod.relative_error_baseline(
            prob, scenario, scenario.trials, scenario.master_seed
        )
        rows.append(("empirical-best", scan.subset))
        mean_db = {subset: f"{codec.db(scan.table[subset]):.3f}" for _, subset in rows}
    one_based = tuple(i + 1 for i in solution.subset)
    print(f"chosen subset (0-based): {solution.subset}")
    print(f"chosen subset (1-based): {one_based}")
    print(f"canonical class: {assignment_mod.canonical_class(solution.subset, args.n)}")
    print(f"objective: {solution.objective:.6e} (log {solution.log_objective:.6f})")
    print(f"candidates evaluated: {solution.evaluated} [{solution.search}]")
    if scenario is not None:
        print(f"relative-error scan: {len(scan.table)} subsets x {scenario.trials} trials")
        for label, subset in rows:
            print(f"{label:<14} {subset}: {mean_db[subset]} dB")
    if args.table_out:
        table = [("label", "subset", "log_objective")
                 + (("mean_e_rel_db",) if scenario is not None else ())]
        for label, subset in rows:
            # the search has advanced its rng, so the other rows are scored from a
            # fresh one, as the search scored its first candidate
            log_obj = (solution.log_objective if label == "solver" else
                       assignment_mod.problem2_log_objective(
                           subset, prob, np.random.default_rng(args.seed)))
            row = (label, " ".join(map(str, subset)), f"{log_obj:.6f}")
            if scenario is not None:
                row += (mean_db[subset],)
            table.append(row)
        harness.write_csv(args.table_out, table)
    return EXIT_OK


def _cmd_attack_design(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.mode == "strong":
        b_eff = threat.design_strong_collusion(args.rows, args.colluders, rng)
        note = "strong collusion: one all-one row, others weight v-1"
    else:
        p = args.zero_prob
        if p is None:
            p = threat.optimal_zero_probability(args.colluders)
        b_eff = threat.design_weak_collusion(args.rows, args.colluders, p, rng)
        note = f"weak collusion with zero probability {p:.6f}"
    harness.write_csv(args.out, [[f"# {note}"], *b_eff.tolist()])
    return EXIT_OK


def _cmd_selftest(args) -> int:
    report = selftest.run_exhaustive_decode_check(
        values_per_support=args.values_per_support, seed=args.seed, log=print
    )
    print(
        f"supports={report.supports_checked} decodes={report.decodes_run} "
        f"failures={report.failures}"
    )
    return EXIT_OK if report.passed else EXIT_INVALID


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
    "optimize-assignment": _cmd_optimize_assignment,
    "attack-design": _cmd_attack_design,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except RuntimeGuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
