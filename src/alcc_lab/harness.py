"""Seeded end-to-end trial runner, sweep driver, and CSV emission.

One trial: draw data, encode, apply the worker function, inject Byzantine
and precision noise, decode the output-entry codewords with the configured
strategy, reconstruct, and report the relative error against the
centralized computation.

`_threat` is the threat stage. It draws the Byzantine locations from the
scenario's read-only pool array (`Scenario.pool_array`), builds the
effective base, and adds all the noise in one pass through
`threat.add_noise`, with no `ByzantinePlan`. Under all-one bases it passes
no mask, so each Byzantine worker's noise is added to its whole block.
`_loc_correct` compares each group's detected indices with its rows'
supports, with no (M, N) mask.

`decode` is the decoder, from syndromes to the corrected words and detected
sets; `selftest` decodes through it too, so its exhaustive check covers the
trial's own decode. The codewords are decoded in stacks: one locator call
per distinct error count, one value-recovery call per detected-set size.
Each locator in a call is its own system. A value-recovery call whose
codewords all share one detected set, as under all-one base matrices, is one
product with that set's cached operator; otherwise each codeword is its own
system. When every codeword has the same count, as under oracle counts on
all-one bases, the one stack is a view of the whole (M, ...) arrays, not a
gathered copy, and its corrected words are the new array that
`dft_code.correct_codeword` returns, with no second copy. The locators are
one (M, v+1) coefficient matrix, zero above each count; when the one count
is v, that matrix is the locator solve's own array. Every strategy localizes
a count's rows as one stack among its candidates: all N indices, the pool,
or the subset that the joint search picks from the rows of positive count,
whose averaged locators replace theirs. The detected sets are index arrays
per set size, and value recovery takes them as they are.

What a trial shares with the other trials of its scenario is built once:
the encode basis and the reconstruction map are cached per `EncodingParams`
(see `codec`), the DFT code per (N, K) (see `dft_code.build_code`), the
value-recovery operator per (N, K, detected set) in a 128-entry LRU (see
`dft_code.recover_error_values`), and the encoding parameters, the pool
array and the digest on the `Scenario` instance. Trials whose sets repeat,
such as a baseline scan's, reuse the operator; random sets rebuild it from
one (count, count) inverse. Every draw is still made per trial, from the
trial's own seed.

Consecutive trials of one seed also share their prefix: the data blocks,
padding, shares, worker results and centralized reference depend only on
the seed, the `EncodingParams`, the function and the input shape, not on
the threat, the unreliable pool or the decoder. `run_trial` keeps the last
trial's prefix (read-only) with the generator state after its draws; a trial
with the same key reuses it and makes every later draw from the same stream,
so its record is the one a fresh run gives. Such a hit builds no generator:
it sets the stored state on its thread's spare generator and draws from that,
so only a miss seeds `default_rng(seed)`. Paired scans over the same seeds,
such as `assignment.relative_error_baseline`, run seed-major to share it.
Sweeps run point by point, so even the points of a paired axis, which repeat
one seed list, meet a trial of another seed and pay only a missed comparison.
"""

from __future__ import annotations

import csv
import operator
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import codec, dft_code, localization, threat
from .numeric import ParameterError
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


# NumPy's SeedSequence constants: entropy hash, output hash, mix
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def _entropy_words(value) -> list:
    """The uint32 words SeedSequence reads from a non-negative integer, low word first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _wrap(word):
    """A word mod 2**32: Python ints grow past 32 bits, uint32 arrays wrap by themselves."""
    return word & _MASK32 if type(word) is int else word


def _hashmix(word, const: int, mult: int):
    """SeedSequence's hashmix of one word; returns it with the next hash constant."""
    nxt = const * mult & _MASK32
    word = _wrap((word ^ const) * nxt)
    return word ^ word >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of a pool word with a hashed word."""
    word = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
    return word ^ word >> 16


def trial_seeds(master_seed: int, grid_index: int, count: int) -> list:
    """Per-trial integer seeds of one grid point, trials 0 .. count-1.

    A trial's seed is the first uint64 of NumPy's
    ``SeedSequence([master_seed, grid_index, trial]).generate_state``,
    derived for the whole point in one vectorized pass: SeedSequence's
    entropy mixing and output hash run on (count,) uint32 arrays of the trial
    words, with the words that do not depend on the trial mixed as Python
    ints. A test pins it to NumPy's own SeedSequence, so a NumPy that changed
    the algorithm fails Tier-1 instead of drifting silently. A negative
    master seed or grid index raises ValueError and a non-integer one
    TypeError, as in SeedSequence, which alone would take a numeric string.
    So does the count: `np.arange` alone would round 2.5 up to 3 trials.
    """
    count = operator.index(count)
    if count < 0:
        raise ValueError(f"expected a non-negative trial count, got {count}")
    entropy = [*_entropy_words(master_seed), *_entropy_words(grid_index),
               np.arange(count, dtype=np.uint32)]
    pool, const = [], _INIT_A
    for i in range(4):  # fill the pool of 4 words, zeros past the entropy
        word, const = _hashmix(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
        pool.append(word)
    for src in range(4):  # mix so late words affect earlier ones
        for dst in range(4):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[4:]:  # entropy past the pool mixes into every pool word
        for dst in range(4):
            word, const = _hashmix(extra, const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    low, const = _hashmix(pool[0], _INIT_B, _MULT_B)
    high, _ = _hashmix(pool[1], const, _MULT_B)
    return (low.astype(np.uint64) | high.astype(np.uint64) << 32).tolist()


def _threat(scenario: Scenario, results, rng):
    """Noisy returns (N, u, h), Byzantine locations (A,) and effective base (M, A) of one trial.

    The draws come in this order: the locations (A of the scenario's pool,
    unless it fixes them), the base matrix, then the noise of
    `threat.add_noise`. Every value passed on was checked when the scenario
    was built, and the base is binary by construction, so no `ByzantinePlan`
    is built and nothing is checked again.
    """
    a = scenario.byzantine_count
    m_rows = scenario.output_entries
    if a == 0:
        locations, b_eff = np.zeros(0, dtype=int), np.zeros((m_rows, 0), dtype=int)
    else:
        if scenario.byzantine_locations is not None:
            locations = np.sort(np.array(scenario.byzantine_locations, dtype=int))
        else:
            locations = np.sort(rng.choice(scenario.pool_array(), size=a, replace=False))
        if scenario.base_matrix == "all-one":
            b_eff = np.ones((m_rows, a), dtype=int)
        elif scenario.base_matrix == "strong":
            b_eff = threat.design_strong_collusion(m_rows, a, rng)
        else:
            b_eff = threat.design_weak_collusion(m_rows, a, scenario.weak_zero_prob, rng)
    mask = None  # all-one: every entry of a Byzantine worker's block
    if scenario.base_matrix != "all-one":
        mask = np.ascontiguousarray(b_eff.T, dtype=bool).reshape(a, *results.shape[1:])
    returns = threat.add_noise(results, locations, mask, scenario.noise_mean, scenario.noise_var,
                               scenario.precision_mode, scenario.precision_var, rng)
    return returns, locations, b_eff


def _loc_correct(groups, locations, b_eff, true_counts) -> bool:
    """Whether the detected sets of every codeword are exactly its true support.

    They are when every row's detected size is its true count and its
    detected indices are its support: `locations` where its base row is one.
    Both lists are sorted, so a group compares them as flat arrays, and the
    rows that no group holds must have a count of 0. No (M, N) mask is built.
    """
    detected = 0
    for rows, found in groups:
        if not (true_counts[rows] == found.shape[1]).all():
            return False
        if not (found.ravel() == locations[np.nonzero(b_eff[rows])[1]]).all():
            return False
        detected += len(found)
    return bool(detected == np.count_nonzero(true_counts))


def _groups(sizes):
    """(size, rows) for each distinct positive size, sizes and rows ascending.

    When every codeword has the same positive size, as under oracle counts on
    all-one bases, rows is ``slice(None)``: the stack is read and written as
    a view, with no gather or scatter. Otherwise rows is an index array.
    """
    if sizes.size and sizes[0] > 0 and (sizes == sizes[0]).all():
        yield sizes[0], slice(None)
        return
    for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        yield size, np.flatnonzero(sizes == size)


def _locators(scenario, code, syndromes, counts, rng) -> np.ndarray:
    """Locator coefficients per codeword, (M, v+1), zero above each count.

    When one group holds every codeword at count v, the solve's own (M, v+1)
    array is the matrix, with nothing filled or copied.
    """
    solved = [(rows, dft_code.locator_polynomial(code, syndromes[rows], count))
              for count, rows in _groups(counts)]
    if len(solved) == 1 and solved[0][1].shape == (counts.size, code.capability + 1):
        coeffs = solved[0][1]
    else:
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
    """Subtract the recovered error values at every codeword's detected indices.

    A group of every codeword (rows ``slice(None)``) returns the new array of
    `dft_code.correct_codeword` as it is.
    """
    corrected = r_eff
    for rows, found in groups:
        if (found == found[0]).all():
            found = found[0]  # one set for every codeword: one product with its operator
        values = dft_code.recover_error_values(code, syndromes[rows], found)
        words = dft_code.correct_codeword(r_eff[rows], found, values)
        if isinstance(rows, slice):
            return words
        if corrected is r_eff:  # copied after the first solve, as `_locators` allocates
            corrected = r_eff.copy()
        corrected[rows] = words
    return corrected


def decode(scenario: Scenario, received, rng, true_counts=None):
    """Corrected words (M, N) and detected sets of received words (M, N), decoded as configured.

    The sets are (rows, found) per set size, rows from `_groups` and found the
    sorted indices detected in each of the group's codewords, (rows, size).
    Oracle counting needs ``true_counts`` and caps them at the capability.
    With nothing detected, as in an empty stack, the corrected words are
    ``received`` itself.
    """
    code = dft_code.build_code(scenario.n_workers, scenario.code_dimension)
    syndromes = dft_code.syndrome(code, received)
    if scenario.error_count_mode == "oracle":
        if true_counts is None:
            raise ParameterError("oracle error counts need true_counts")
        counts = np.minimum(true_counts, code.capability)
    else:
        counts = dft_code.estimate_error_count(code, syndromes, rel_tol=scenario.rank_rel_tol)
        if scenario.localization != "independent":
            # restricted and joint pick only from the pool, so never more than it holds
            counts = np.minimum(counts, len(scenario.pool_array()))
    coeffs = _locators(scenario, code, syndromes, counts, rng)
    n = scenario.n_workers
    pool = scenario.pool_array()
    # restricted and joint search only the unreliable pool
    cand = pool if scenario.localization != "independent" and len(pool) < n else None
    if scenario.localization == "joint" and counts.any():
        active = np.flatnonzero(counts)
        result = localization.joint_localize(
            coeffs[active], counts[active], capability=code.capability, n=n,
            constraint_length=scenario.constraint_length, candidates=cand, rng=rng,
        )
        coeffs[active] = result.locators
        cand = result.chosen_subset
        counts = np.minimum(counts, cand.size)
    # each locator detects its count among the candidates, its row zero-padded to N by the FFT
    groups = [(rows, localization.independent_localize(coeffs[rows], count, n, candidates=cand))
              for count, rows in _groups(counts)]
    return _correct_codewords(code, received, syndromes, groups), groups


# (key, rng state after the data draws, results, reference) of the last trial
# run; replaced by one assignment, its arrays read-only
_last_prefix = None


class _Spare(threading.local):
    """A generator per thread, which a prefix hit resumes at the stored state.

    Per thread, because trials of one thread never overlap, and those of two
    threads may.
    """

    def __init__(self):
        self.rng = np.random.default_rng()


_spare = _Spare()


def run_trial(scenario: Scenario, seed: int) -> TrialRecord:
    """Run one seeded trial of the configured scenario."""
    global _last_prefix
    start = time.perf_counter()
    params = scenario.encoding()
    # the seed first: a trial of another seed misses on one int comparison
    key = (seed, params, scenario.function, scenario.input_rows, scenario.input_cols)
    memo = _last_prefix
    if memo is not None and memo[0] == key:
        rng = _spare.rng
        _, rng.bit_generator.state, results, reference = memo
    else:
        rng = np.random.default_rng(seed)
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
    returns, locations, b_eff = _threat(scenario, results, rng)

    r_eff = returns.reshape(scenario.n_workers, u * h).T  # (M, N)
    capability_exceeded = False
    loc_correct = scenario.byzantine_count == 0
    if scenario.decoder:
        true_counts = b_eff.sum(axis=1)
        if scenario.error_count_mode == "oracle":
            capability_exceeded = bool((true_counts > scenario.capability).any())
        r_eff, groups = decode(scenario, r_eff, rng, true_counts)
        loc_correct = _loc_correct(groups, locations, b_eff, true_counts)

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
