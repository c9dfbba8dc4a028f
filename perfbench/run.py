"""alcc-lab benchmark: seeded Monte-Carlo workloads timed from outside.

    python3 perfbench/run.py --workload byzantine --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; alcc-lab is imported from its
``src/``. The workload runs for ``--seconds`` (whole units; the selftest
makes at least 20), its outputs are checked, and the last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. Every time is scaled by the
machine's speed around it, measured by a fixed reference loop run between
trials (see ``calibrate``). Throughputs are the median over windows of a
fixed number of trials, so that a few seconds in which the machine runs
slower or faster move them little. ``--trace 1`` wraps every
traced library function (see ``spans.TRACED``) for the first half of
``--seconds``, reports calls and self time per function and self share per
module, then replays the same units with tracing off, checks that the
outputs are identical, and reports the tracing overhead. The thread pool of
``harness`` is never used: trials are run one call at a time in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import spans

# The interpreter and numpy are up; set-up probes time alcc-lab's own set-up
# from here.
LOADED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # before the run, and as many again after it
SETUP_REFERENCE_LOOPS = 9  # reference loops timed in each set-up probe
REFERENCE_INTERVAL = 0.05  # seconds between reference loops in a timed run
COVERAGE_TOLERANCE = 0.05


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("byzantine", "assignment", "selftest", "joint"))
    parser.add_argument("--seed", type=int, required=True, help="workload master seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by the set-up probes: build the workload, print the set-up time, exit.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import alcc_lab from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import alcc_lab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import alcc_lab from {SRC}: {exc}")
    if Path(alcc_lab.__file__).resolve().parent != SRC / "alcc_lab":
        sys.exit(f"perfbench: alcc_lab was imported from {alcc_lab.__file__}, not {SRC}")


def setup_samples(args) -> list:
    """(set-up, reference) seconds in each of ``SETUP_PROBES`` fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed with exit code {probe.returncode}")
        setup_s, reference_s = probe.stdout.split()[-2:]
        samples.append((float(setup_s), float(reference_s)))
    return samples


def drive(workload, seconds=None, units=None):
    """Run units until ``seconds`` have passed (or exactly ``units`` of them)."""
    start = time.perf_counter()
    done = 0
    while (done < units if units is not None else
           done < workload.min_units or time.perf_counter() - start < seconds):
        workload.run_unit(done)
        done += 1
    return time.perf_counter() - start, done


def window_rates(workload, elapsed):
    """(trials/s, decodes/s) of each complete window of ``workload.window`` trials.

    ``elapsed[k]`` is the time from the start of the loop to the end of trial k.
    """
    size, decodes = workload.window, workload.decodes
    rates = []
    start = 0.0
    for k in range(size, len(elapsed) + 1, size):
        end = elapsed[k - 1]
        rates.append((size / (end - start), sum(decodes[k - size:k]) / (end - start)))
        start = end
    return rates


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "ALCC_LAB_THREADS": os.environ.get("ALCC_LAB_THREADS", "unset"),
    }


def timed_run(args, workload_cls):
    # Probes on both sides of the run, so that setup_s samples the machine at
    # two moments, as the run's other metrics sample it over the whole run.
    setup = setup_samples(args)
    workload = workload_cls(args.seed)
    reference = workload.reference = calibrate.Reference(REFERENCE_INTERVAL)
    calibrate.reference_loop()  # warm-up, untimed
    start = reference.clock()
    with workload.instrumented():
        wall, _ = drive(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_samples(args)

    # Every time is scaled to the machine's speed around it (see calibrate).
    starts, ends = np.asarray(workload.starts), np.asarray(workload.ends)
    scale = reference.scale(starts, ends)
    times = (ends - starts) * scale
    elapsed = np.cumsum(np.diff(ends, prepend=start) * scale)
    failed = len(workload.errors)
    rates = window_rates(workload, elapsed)
    rates_from = f"medians over {len(rates)} windows of {workload.window} trials"
    if not rates:
        rates = [(len(times) / elapsed[-1], sum(workload.decodes) / elapsed[-1])]
        rates_from = "over the whole run (no complete window)"
    deciles = statistics.quantiles(times, n=10)
    setup_scaled = [s * calibrate.NOMINAL_S / r for s, r in setup]
    metrics = {
        "trials_per_s": (statistics.median(r[0] for r in rates), "1/s"),
        "trial_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "trial_ms_p90": (deciles[8] * 1e3, "ms"),
        "decodes_per_s": (statistics.median(r[1] for r in rates), "1/s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    unscaled = ends - starts
    print(f"{args.workload}: {len(times)} trials in {wall:.2f} s, of which "
          f"{reference.spent:.2f} s in {len(reference.seconds)} reference loops "
          f"(median {statistics.median(reference.seconds) * 1e3:.2f} ms, "
          f"nominal {calibrate.NOMINAL_S * 1e3:.2f} ms); p50/p90 over {len(times)} "
          f"trials; rates are {rates_from}; setup_s is the median of {len(setup)} "
          f"fresh processes; times are scaled to the nominal speed")
    print(f"unscaled: trials_per_s {len(times) / (wall - reference.spent):.6g}, "
          f"trial_ms_p50 {statistics.median(unscaled) * 1e3:.6g}, "
          f"setup_s {statistics.median(s for s, _ in setup):.6g}")
    print(f"failed_frac = {failed / len(times):.6g} fraction ({failed} of {len(times)} trials)")
    return workload, metrics, workload.check()


def _joint_counts(counters, result):
    counters["subsets_evaluated"] += result.subsets_evaluated
    counters["union_bound_violated"] += result.union_bound_violated


def traced_run(args, workload_cls):
    tracer = spans.Tracer()
    workload = workload_cls(args.seed)
    with tracer.installed({"localization.joint_localize": _joint_counts}), \
            workload.instrumented():
        wall, units = drive(workload, args.seconds / 2)
    replay = workload_cls(args.seed)
    with replay.instrumented():
        untraced_wall, _ = drive(replay, units=units)

    problems = workload.check()
    if workload.output_digest() != replay.output_digest():
        problems.append("traced and untraced runs of the same units differ")

    metrics = {}
    layer_self = dict.fromkeys(spans.LAYERS, 0.0)
    for name, (calls, self_s) in tracer.summary().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        layer_self[name.split(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_share"] = (self_s / wall, "fraction")

    joint_calls = metrics["localization.joint_localize.calls"][0]
    metrics["localization.joint_localize.subsets_evaluated"] = (
        tracer.counters["subsets_evaluated"], "count")
    metrics["localization.joint_localize.union_bound_violated_frac"] = (
        tracer.counters["union_bound_violated"] / joint_calls if joint_calls else 0.0,
        "fraction")
    attempts = workload.attempted if workload.runs_trials else 0
    metrics["harness.capability_exceeded_frac"] = (
        workload.capability_exceeded / attempts if attempts else 0.0, "fraction")
    metrics["harness.loc_correct_frac"] = (
        workload.loc_correct / attempts if attempts else 0.0, "fraction")
    metrics["harness.trials_failed"] = (len(workload.errors) if attempts else 0, "count")

    loop_s = wall - workload.call_seconds
    metrics["bench.loop_s"] = (loop_s, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    coverage = (sum(layer_self.values()) + loop_s) / wall
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        problems.append(f"self times plus loop time cover {coverage:.3f} of the traced wall")
    print(f"{args.workload}: traced {units} units in {wall:.2f} s, untraced replay "
          f"{untraced_wall:.2f} s; self times + loop cover {coverage:.4f} of the traced wall")
    return workload, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:
        workload_cls(args.seed)
        setup_s = time.perf_counter() - LOADED
        reference_s = calibrate.reference_median(SETUP_REFERENCE_LOOPS)
        print(f"{setup_s!r} {reference_s!r}")
        return 0

    run = traced_run if args.trace else timed_run
    workload, metrics, problems = run(args, workload_cls)
    print("environment: " + json.dumps(environment()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in workload.notes:
        print(note)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    errors = workload.errors
    for error in sorted(set(errors)):
        print(f"failed trial ({errors.count(error)}x): {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
