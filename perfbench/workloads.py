"""The benchmark's workloads: seeded calls into alcc-lab's public functions.

Each workload is built from a master seed (its set-up) and then runs units of
work by index until the benchmark stops it; unit ``i`` is the same for a given
seed however long the run is. Every library call a unit makes is timed from
here, and every trial's output is checked as it arrives.

Trials are timed on ``self.reference.clock()``, which leaves out the time of
the reference loops a timed run makes between trials (see ``calibrate``).
Of each trial a workload keeps only its start, end and decode count in flat
arrays, and folds its output into a running digest. The benchmark's own
memory then grows by about 24 bytes a trial, so ``peak_rss_mb`` is the
program's, not the number of trials a faster program fits into a run.
"""

from __future__ import annotations

import hashlib
import math
import time
from array import array
from collections import defaultdict
from contextlib import nullcontext
from itertools import combinations
from pathlib import Path
from statistics import median

import numpy as np

from alcc_lab import assignment, harness, scenario, selftest
from calibrate import Reference
from spans import patched

ROOT = Path(__file__).resolve().parent.parent

# Exceptions the library raises for a trial it cannot run (ParameterError and
# the other ValueError subclasses, RuntimeGuardError). They count as failed
# trials and the run goes on.
LIBRARY_ERRORS = (ValueError, RuntimeError)


def derived_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th repetition of a workload; index 0 is ``seed``."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


class Workload:
    min_units = 1
    window = 1  # trials per throughput window; a window repeats the same mix
    runs_trials = True  # its trials are harness.run_trial calls

    def __init__(self, seed: int):
        self.seed = seed
        self.starts = array("d")
        self.ends = array("d")
        self.decodes = array("q")
        self.errors: list[str] = []  # "<type>: <message>" of each failed trial
        self.loc_correct = 0
        self.capability_exceeded = 0
        self.call_seconds = 0.0  # time inside the library calls the benchmark makes
        self.problems: list[str] = []
        self.notes: list[str] = []  # findings printed with the metrics
        self._digest = hashlib.sha256()
        # Trials are timed on its clock; a timed run swaps in one that runs
        # the reference loop between trials.
        self.reference = Reference()

    @property
    def attempted(self) -> int:
        return len(self.starts)

    def _call(self, fn, *args, **kwargs):
        """Run one top-level library call; returns (result, error name)."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), None
        except LIBRARY_ERRORS as exc:
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            self.call_seconds += time.perf_counter() - start

    def record(self, start: float, output=None, error: str | None = None, decodes: int = 0):
        """Keep one trial that ends now: a TrialRecord or SelftestReport, or its error."""
        self.ends.append(self.reference.clock())
        self.starts.append(start)
        self.decodes.append(decodes)
        if error is not None:
            self.errors.append(error)
            self._digest.update(error.encode())
        elif isinstance(output, harness.TrialRecord):
            self._digest.update(repr(output.csv_row()).encode())
            self.loc_correct += output.loc_correct
            self.capability_exceeded += output.capability_exceeded
            if not math.isfinite(output.e_rel):
                self.problems.append(f"trial seed {output.seed}: e_rel is {output.e_rel}")
        else:
            self._digest.update(repr(output).encode())

    def output_digest(self) -> str:
        """Digest of every trial's CSV row, report or error, in order."""
        return self._digest.hexdigest()

    def instrumented(self):
        """Context in which the workload's own timers are in place."""
        return nullcontext()

    def check(self) -> list:
        """Descriptions of failed output checks (empty when all pass)."""
        return list(self.problems)


class Sweep(Workload):
    """A ``configs/`` grid as written, driven trial by trial like ``harness.sweep``.

    Unit ``i`` runs trial ``i`` of every grid point, so any run covers the
    grid evenly. After the config's trial count the grid repeats under the
    next derived master seed; with ``--seed`` equal to the config's master
    seed, the first pass is exactly the trials ``alcc-lab sweep`` runs.
    """

    def __init__(self, config: str, seed: int):
        super().__init__(seed)
        base, spec = scenario.load_config(ROOT / config)
        self.grid = [sc for _, sc, _ in spec.grid(base)]
        self.per_point = self.grid[0].trials
        self.window = 10 * len(self.grid)
        self._pass = -1
        self._pass_seeds(0)

    def _pass_seeds(self, index: int) -> list:
        if index != self._pass:
            master = derived_seed(self.seed, index)
            self._seeds = [harness.trial_seeds(master, g, self.per_point)
                           for g in range(len(self.grid))]
            self._pass = index
        return self._seeds

    def run_unit(self, i: int):
        seeds = self._pass_seeds(i // self.per_point)
        for sc, point_seeds in zip(self.grid, seeds):
            self.reference.tick()
            start = self.reference.clock()
            rec, error = self._call(harness.run_trial, sc, point_seeds[i % self.per_point])
            if error is not None:
                self.record(start, error=error)
                continue
            self.record(start, rec, decodes=sc.output_entries if sc.decoder else 0)
            self.observe(sc, rec)

    def observe(self, sc, rec):
        """Take what a subclass's checks need from one completed trial."""


class Byzantine(Sweep):
    """Nullification sweep: decoder on/off x A=0..8, independent localization."""

    def __init__(self, seed: int):
        super().__init__("configs/byzantine_sweep.cfg", seed)
        self.db = {True: defaultdict(lambda: array("d")),
                   False: defaultdict(lambda: array("d"))}
        self.decoded = self.exact = 0

    def observe(self, sc, rec):
        self.db[sc.decoder][sc.byzantine_count].append(rec.e_rel_db)
        if sc.decoder and 1 <= sc.byzantine_count <= sc.capability:
            self.decoded += 1
            self.exact += rec.loc_correct

    def check(self) -> list:
        """Criterion 2 on this grid: the decoder nullifies the attack.

        At every A the decoder-on median e_rel is at least 20 dB below the
        decoder-off one, and 95% of decoder-on trials with 1 <= A <= v
        localize every error exactly. Not every such trial does: at A = v
        (and rarely A = v - 1) a few percent of random supports leave the
        locator system conditioned badly enough for the 1e-12 precision noise
        to move a root.
        """
        problems = super().check()
        self.notes.append(f"decoder-on trials with 1 <= A <= v localized exactly: "
                          f"{self.exact} of {self.decoded}")
        if self.exact < 0.95 * self.decoded:
            problems.append(f"only {self.exact} of {self.decoded} decoded trials "
                            f"localized exactly")
        on, off = self.db[True], self.db[False]
        for a in sorted(off):
            if a and a in on and median(on[a]) > median(off[a]) - 20.0:
                problems.append(f"A={a}: decoding gains less than 20 dB")
        return problems


class Joint(Sweep):
    """Independent vs joint localization under locator noise.

    Left out of BENCHMARK.json: a trial's joint search costs 5 ms to 30 s,
    so a run of a few dozen seconds finishes a handful of expensive trials
    and its throughput differs by more than 50% from seed to seed. Run it by
    hand for the traced picture of ``localization.joint_localize``.
    """

    def __init__(self, seed: int):
        super().__init__("configs/joint_vs_independent.cfg", seed)


class Assignment(Workload):
    """Criterion 8's work: the optimizer, then the empirical scan of all subsets."""

    TRIALS_PER_SUBSET = 1
    window = 154  # a third of one scan

    def __init__(self, seed: int):
        super().__init__(seed)
        self.problem = assignment.AssignmentProblem(
            n_workers=11, unreliable_count=5, byzantine_count=2,
            eta=10.0, sigma_p_sq=1.0,
        )
        self.scenario = scenario.Scenario(
            n_workers=11, k=3, t=1, sigma_pad=1.0,
            byzantine_count=2, base_matrix="all-one",
            precision_mode="synthetic", precision_var=0.005,
            localization="restricted", error_count_mode="oracle",
            trials=self.TRIALS_PER_SUBSET,
        )
        self.candidates = list(combinations(range(11), 5))
        self.target = assignment.canonical_class((0, 2, 5, 8, 10), 11)

    def instrumented(self):
        """Time each trial the scan runs, at the binding the scan calls."""
        run_trial = harness.run_trial

        def run(sc, seed):
            self.reference.tick()
            start = self.reference.clock()
            try:
                rec = run_trial(sc, seed)
            except LIBRARY_ERRORS as exc:
                self.record(start, error=f"{type(exc).__name__}: {exc}")
                raise
            self.record(start, rec, decodes=sc.output_entries)
            return rec

        return patched(harness, "run_trial", run)

    def run_unit(self, i: int):
        solution, error = self._call(assignment.solve_assignment, self.problem)
        if error is not None:
            self.problems.append(f"solve_assignment failed: {error}")
        elif assignment.canonical_class(solution.subset, 11) != self.target:
            self.problems.append(f"solve_assignment chose {solution.subset}")
        scan, error = self._call(
            assignment.relative_error_baseline, self.problem, self.scenario,
            trials=self.TRIALS_PER_SUBSET, seed=derived_seed(self.seed, i),
            candidates=self.candidates,
        )
        if error is None and len(scan.table) != len(self.candidates):
            self.problems.append(f"scan covered {len(scan.table)} subsets")


class Selftest(Workload):
    """Exhaustive noise-free decode check on the default codes, rank counting.

    A unit draws one error pattern per support (2,034 decodes); 20 units are
    the 40,680 decodes of the default check, so a run makes at least 20.
    """

    min_units = 20
    window = 2
    runs_trials = False

    def run_unit(self, i: int):
        self.reference.tick()
        start = self.reference.clock()
        report, error = self._call(selftest.run_exhaustive_decode_check,
                                   values_per_support=1, seed=derived_seed(self.seed, i))
        self.record(start, report, error, report.decodes_run if report is not None else 0)
        if report is not None and report.failures:
            self.problems.append(f"unit {i}: {report.failures} of "
                                 f"{report.decodes_run} decodes failed")

    def check(self) -> list:
        problems = super().check()
        decodes = sum(self.decodes)
        if decodes < 40_680:
            problems.append(f"only {decodes} decodes checked")
        return problems


WORKLOADS = {
    "byzantine": Byzantine,
    "assignment": Assignment,
    "selftest": Selftest,
    "joint": Joint,
}
