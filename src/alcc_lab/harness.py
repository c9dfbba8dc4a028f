"""Seeded end-to-end trial runner, sweep driver, and CSV emission.

One trial: draw data, encode, apply the worker function, inject Byzantine
and precision noise, decode the output-entry codewords with the configured
strategy, reconstruct, and report the relative error against the
centralized computation. `decode` is the decoder, from syndromes to the
corrected words and detected sets; `selftest` decodes through it too, so its
exhaustive check covers the trial's own decode. The codewords are decoded in
stacks: one locator call per distinct error count, one value-recovery call
per detected-set size. Each locator in a call is its own system. A
value-recovery call whose codewords all share one detected set, as under
all-one base matrices, is one product with that set's cached operator;
otherwise each codeword is its own system. When every codeword has the same
count, as under oracle counts on all-one bases, the one stack is a view of
the whole (M, ...) arrays, not a gathered copy. The locators are one
(M, v+1) coefficient matrix, zero above each count: independent
localization reads a count's rows as one stack, and the joint search takes
the rows of positive count with their counts. Localization returns the
detected sets as index arrays per set size, and value recovery takes them as
they are.

What a trial shares with the other trials of its scenario is built once:
the encode basis and the reconstruction map are cached per `EncodingParams`
(see `codec`), the DFT code per (N, K) (see `dft_code.build_code`), the
value-recovery operator per (N, K, detected set) in a 128-entry LRU (see
`dft_code.recover_error_values`), and the encoding parameters and the digest
on the `Scenario` instance. Trials whose sets repeat, such as a baseline
scan's, reuse the operator; random sets rebuild it from one (count, count)
inverse. Every draw is still made per trial, from the trial's own seed.

Consecutive trials of one seed also share their prefix: the data blocks,
padding, shares, worker results and centralized reference depend only on
the seed, the `EncodingParams`, the function and the input shape, not on
the threat, the unreliable pool or the decoder. `run_trial` keeps the last
trial's prefix (read-only) with the generator state after its draws; a trial
with the same key reuses it and makes every later draw from the same stream,
so its record is the one a fresh run gives. Paired scans over the same seeds,
such as `assignment.relative_error_baseline`, run seed-major to share it.
Sweeps run point by point, so even the points of a paired axis, which repeat
one seed list, meet a trial of another seed and pay only a missed comparison.
"""

from __future__ import annotations

import csv
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import codec, dft_code, localization, threat
from .scenario import Scenario, SweepSpec

TRIAL_CSV_HEADER = ("scenario", "seed", "A", "sigma_p2", "strategy",
                    "e_rel", "e_rel_db", "loc_correct")
AGGREGATE_CSV_HEADER = ("scenario", "decoder", "A", "sigma_p2", "strategy",
                        "zero_prob", "constraint_length", "trials",
                        "mean_e_rel", "mean_e_rel_db")


@dataclass(frozen=True)
class TrialRecord:
    scenario: str
    seed: int
    byzantine_count: int
    precision_var: float
    strategy: str
    e_rel: float
    e_rel_db: float
    loc_correct: bool
    capability_exceeded: bool
    wall_time: float

    def csv_row(self) -> tuple:
        return (
            self.scenario,
            str(self.seed),
            str(self.byzantine_count),
            f"{self.precision_var:.6g}",
            self.strategy,
            f"{self.e_rel:.12e}",
            f"{self.e_rel_db:.6f}",
            str(int(self.loc_correct)),
        )


def trial_seeds(master_seed: int, grid_index: int, count: int) -> list:
    """Independent per-trial integer seeds derived from (master, grid, trial)."""
    out = []
    for t in range(count):
        ss = np.random.SeedSequence([master_seed, grid_index, t])
        out.append(int(ss.generate_state(1, np.uint64)[0]))
    return out


def _build_plan(scenario: Scenario, rng: np.random.Generator):
    """Byzantine locations and effective base matrix for one trial."""
    a = scenario.byzantine_count
    if a == 0:
        return None, np.zeros((scenario.output_entries, 0), dtype=int)
    pool = np.asarray(scenario.candidate_pool())
    if scenario.byzantine_locations is not None:
        locations = np.sort(np.asarray(scenario.byzantine_locations, dtype=int))
    else:
        locations = np.sort(rng.choice(pool, size=a, replace=False))
    m_rows = scenario.output_entries
    if scenario.base_matrix == "all-one":
        b_eff = np.ones((m_rows, a), dtype=int)
    elif scenario.base_matrix == "strong":
        b_eff = threat.design_strong_collusion(m_rows, a, rng)
    else:
        b_eff = threat.design_weak_collusion(m_rows, a, scenario.weak_zero_prob, rng)
    return locations, b_eff


def _groups(sizes):
    """(size, rows) for each distinct positive size, sizes and rows ascending.

    When every codeword has the same positive size, as under oracle counts on
    all-one bases, rows is ``slice(None)``: the stack is read and written as
    a view, with no gather or scatter. Otherwise rows is an index array.
    """
    first = sizes[0]
    if first > 0 and (sizes == first).all():
        yield first, slice(None)
        return
    for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        yield size, np.flatnonzero(sizes == size)


def _locators(scenario, code, syndromes, counts, rng) -> np.ndarray:
    """Locator coefficients per codeword, (M, v+1), zero above each count."""
    solved = [(rows, dft_code.locator_polynomial(code, syndromes[rows], count))
              for count, rows in _groups(counts)]
    # allocated after the solves: allocating it first slowed the selftest by about 4%
    coeffs = np.zeros((counts.size, code.capability + 1), dtype=complex)
    for rows, group in solved:
        coeffs[rows, : group.shape[-1]] = group
    if scenario.precision_mode == "locator" and scenario.precision_var > 0:
        # one draw, read as complex_normal's per codeword of positive count in
        # order ([re | im] chunks of count+1), keeps each trial's random stream
        sizes = np.where(counts > 0, counts + 1, 0)
        rows, cols = np.nonzero(np.arange(code.capability + 1) < sizes[:, None])
        draws = rng.standard_normal(2 * rows.size)
        re = 2 * (np.cumsum(sizes) - sizes)[rows] + cols
        noise = draws[re] + 1j * draws[re + sizes[rows]]
        coeffs[rows, cols] += np.sqrt(scenario.precision_var / 2.0) * noise
    return coeffs


def _correct_codewords(code, r_eff, syndromes, groups) -> np.ndarray:
    """Subtract the recovered error values at every codeword's detected indices."""
    corrected = r_eff
    for rows, found in groups:
        if (found == found[0]).all():
            found = found[0]  # one set for every codeword: one product with its operator
        values = dft_code.recover_error_values(code, syndromes[rows], found)
        words = dft_code.correct_codeword(r_eff[rows], found, values)
        if corrected is r_eff:  # copied after the first solve, as `_locators` allocates
            corrected = r_eff.copy()
        corrected[rows] = words
    return corrected


def decode(scenario: Scenario, received, rng, true_counts=None):
    """Corrected words (M, N) and detected sets of received words (M, N), decoded as configured.

    The sets are (rows, found) per set size, rows from `_groups` and found the
    sorted indices detected in each of the group's codewords, (rows, size).
    Counts are ``true_counts`` capped at the capability under oracle counting.
    With nothing detected, the corrected words are ``received`` itself.
    """
    code = dft_code.build_code(scenario.n_workers, scenario.code_dimension)
    syndromes = dft_code.syndrome(code, received)
    if scenario.error_count_mode == "oracle":
        counts = np.minimum(true_counts, code.capability)
    else:
        counts = dft_code.estimate_error_count(code, syndromes, rel_tol=scenario.rank_rel_tol)
        if scenario.localization != "independent":
            # restricted and joint pick only from the pool, so never more than it holds
            counts = np.minimum(counts, len(scenario.candidate_pool()))
    coeffs = _locators(scenario, code, syndromes, counts, rng)
    n = scenario.n_workers
    pool = scenario.candidate_pool()
    restricted = pool if len(pool) < n else None
    if scenario.localization != "joint":
        # restricted searches only the unreliable pool; each locator detects its count
        cand = restricted if scenario.localization == "restricted" else None
        groups = [(rows, localization.independent_localize(
                      coeffs[rows, : count + 1], count, n, candidates=cand))
                  for count, rows in _groups(counts)]
    elif counts.any():
        active = np.flatnonzero(counts)
        result = localization.joint_localize(
            coeffs[active], counts[active], capability=code.capability, n=n,
            constraint_length=scenario.constraint_length, candidates=restricted, rng=rng,
        )
        per_codeword = dict(zip(active.tolist(), result.per_poly))
        sizes = np.zeros_like(counts)
        sizes[active] = [found.size for found in result.per_poly]
        codewords = np.arange(counts.size)
        groups = [(rows, np.stack([per_codeword[c] for c in codewords[rows]]))
                  for _, rows in _groups(sizes)]
    else:
        groups = []
    return _correct_codewords(code, received, syndromes, groups), groups


# (key, rng state after the data draws, results, reference) of the last trial
# run; replaced by one assignment, its arrays read-only
_last_prefix = None


def run_trial(scenario: Scenario, seed: int) -> TrialRecord:
    """Run one seeded trial of the configured scenario."""
    global _last_prefix
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = scenario.encoding()
    # the seed first: a trial of another seed misses on one int comparison
    key = (seed, params, scenario.function, scenario.input_rows, scenario.input_cols)
    memo = _last_prefix
    if memo is not None and memo[0] == key:
        _, rng.bit_generator.state, results, reference = memo
    else:
        fn = codec.FUNCTIONS[scenario.function]
        blocks = rng.standard_normal(
            (scenario.k, scenario.input_rows, scenario.input_cols)
        )
        batch = codec.make_batch(params, blocks, rng)
        shares = codec.encode_shares(batch, params)
        results = fn.apply(shares)  # (N, u, h)
        reference = fn.apply(blocks)
        results.flags.writeable = reference.flags.writeable = False
        _last_prefix = (key, rng.bit_generator.state, results, reference)

    u, h = results.shape[1:]
    m_rows = u * h
    locations, b_eff = _build_plan(scenario, rng)
    plan = None
    if locations is not None:
        plan = threat.plan_from_effective_base(
            b_eff, locations.tolist(), u, h,
            noise_mean=scenario.noise_mean, noise_var=scenario.noise_var,
        )
    returns = threat.inject(results, plan, scenario.precision_mode, scenario.precision_var, rng)

    r_eff = returns.reshape(scenario.n_workers, m_rows).T  # (M, N)
    capability_exceeded = False
    loc_correct = scenario.byzantine_count == 0
    if scenario.decoder:
        true_counts = b_eff.sum(axis=1)
        if scenario.error_count_mode == "oracle":
            capability_exceeded = bool((true_counts > scenario.capability).any())
        r_eff, groups = decode(scenario, r_eff, rng, true_counts)
        detected = np.zeros(r_eff.shape, dtype=bool)
        for rows, found in groups:
            detected[np.arange(m_rows)[rows, None], found] = True
        truth = np.zeros_like(detected)
        if plan is not None:
            truth[:, locations] = b_eff.astype(bool)
        loc_correct = np.array_equal(detected, truth)

    estimate = codec.reconstruct(
        r_eff.T.reshape(scenario.n_workers, u, h), params
    )
    e_rel = codec.relative_error(reference, estimate)
    strategy = scenario.localization if scenario.decoder else "none"
    return TrialRecord(
        scenario=scenario.digest(),
        seed=seed,
        byzantine_count=scenario.byzantine_count,
        precision_var=scenario.precision_var,
        strategy=strategy,
        e_rel=e_rel,
        e_rel_db=codec.db(e_rel),
        loc_correct=loc_correct,
        capability_exceeded=capability_exceeded,
        wall_time=time.perf_counter() - start,
    )


def _aggregate_row(sc: Scenario, label: dict, records: list) -> tuple:
    """One grid point's aggregate CSV row: its label and mean e_rel."""
    mean = float(np.mean([r.e_rel for r in records]))
    cl = label["constraint_length"]
    return (
        sc.digest(),
        str(int(bool(label["decoder"]))),
        str(label["A"]),
        f"{label['precision_var']:.6g}",
        label["strategy"],
        f"{label['zero_prob']:.6g}",
        "" if cl is None else str(cl),
        str(sc.trials),
        f"{mean:.12e}",
        f"{codec.db(mean):.6f}",
    )


def write_csv(path, rows) -> None:
    """Write ``rows`` as CSV to the file at ``path``, or to stdout when it is None.

    The file is opened before the first row is taken, so rows produced lazily
    are written as they come, to a path already known to be writable.
    """
    with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
        csv.writer(fh).writerows(rows)


def write_sweep_csv(base: Scenario, spec: SweepSpec, trial_path, aggregate_path=None):
    """Run the grid and write its trial CSV (and optional aggregate CSV).

    Trial seeds derive from (master seed, seed index, trial index), the seed
    index as `SweepSpec.grid` yields it, so the output is reproducible
    byte-for-byte for a fixed configuration. The grid
    is built and validated before either path is opened, so an invalid
    point leaves existing files as they were. The trial file, then the
    aggregate file, is opened before the first trial, so an unwritable path
    fails before any trial runs. Each point's trial rows are written when its
    trials finish, so a run stopped by an error keeps the points it finished.
    ``trial_path`` None writes the trial CSV to stdout.
    """
    points = list(spec.grid(base))

    def trial_rows():
        # taken once write_csv has opened the trial file, so both are open before any trial
        agg_file = (nullcontext() if aggregate_path is None
                    else open(aggregate_path, "w", newline=""))
        with agg_file as agg:
            yield TRIAL_CSV_HEADER
            aggregates = [AGGREGATE_CSV_HEADER]
            for seed_index, sc, label in points:
                seeds = trial_seeds(sc.master_seed, seed_index, sc.trials)
                records = [run_trial(sc, s) for s in seeds]
                yield from (record.csv_row() for record in records)
                aggregates.append(_aggregate_row(sc, label, records))
            if agg is not None:
                csv.writer(agg).writerows(aggregates)

    write_csv(trial_path, trial_rows())
