"""Seeded end-to-end trial runner, sweep driver, and CSV emission.

One trial: draw data, encode, apply the worker function, inject Byzantine
and precision noise, decode the output-entry codewords with the configured
strategy, reconstruct, and report the relative error against the
centralized computation. The codewords are decoded in stacks: one locator
call per distinct error count, one value-recovery call per detected-set
size. Each locator in a call is its own system; a value-recovery call whose
codewords all share one detected set, as under all-one base matrices, solves
one system for all of them, and otherwise one per codeword. When every
codeword has the same count, as under oracle counts on all-one bases, the
one stack is a view of the whole (M, ...) arrays, not a gathered copy.
Localization returns the detected sets as index arrays per set size, and
value recovery takes them as they are.

What a trial shares with the other trials of its scenario is built once:
the encode basis and the reconstruction map are cached per `EncodingParams`
(see `codec`), the DFT code per (N, K) (see `dft_code.build_code`), and the
encoding parameters and the digest on the `Scenario` instance. Every draw
is still made per trial, from the trial's own seed.

Consecutive trials of one seed also share their prefix: the data blocks,
padding, shares, worker results and centralized reference depend only on
the seed, the `EncodingParams`, the function and the input shape, not on
the threat, the unreliable pool or the decoder. `run_trial` keeps the last
trial's prefix (read-only) with the generator state after its draws; a trial
with the same key reuses it and makes every later draw from the same stream,
so its record is the one a fresh run gives. Paired scans over the same seeds,
such as `assignment.relative_error_baseline`, run seed-major to share it;
sweeps, whose seeds never repeat, pay only a missed comparison.
"""

from __future__ import annotations

import csv
import time
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
    coeffs = np.zeros((counts.size, code.capability + 1), dtype=complex)
    for count, rows in _groups(counts):
        poly = dft_code.locator_polynomial(code, syndromes[rows], count)
        coeffs[rows, : count + 1] = poly.coeffs
    if scenario.precision_mode == "locator" and scenario.precision_var > 0:
        # one draw per codeword, in codeword order, keeps each trial's random stream
        for c in np.flatnonzero(counts):
            noise = threat.complex_normal(rng, 0.0, scenario.precision_var, counts[c] + 1)
            coeffs[c, : counts[c] + 1] += noise
    return coeffs


def _localize_codewords(scenario, code, coeffs, counts, rng) -> list:
    """Indices detected under the configured strategy, as (rows, found) per set size.

    Groups come from `_groups` over the detected-set sizes; ``found`` holds
    the sorted indices detected in each of the group's codewords, (rows, size).
    """
    n = scenario.n_workers
    pool = scenario.candidate_pool()
    restricted = pool if len(pool) < n else None
    if scenario.localization != "joint":
        # restricted localization only searches the unreliable pool; each
        # locator detects exactly its count
        cand = restricted if scenario.localization == "restricted" else None
        return [
            (rows, localization.independent_localize(
                dft_code.LocatorPolynomial(coeffs[rows, : count + 1], count), count, n,
                candidates=cand))
            for count, rows in _groups(counts)
        ]
    if not counts.any():
        return []
    active = np.flatnonzero(counts)
    result = localization.joint_localize(
        [dft_code.LocatorPolynomial(coeffs[c, : counts[c] + 1], counts[c]) for c in active],
        capability=code.capability,
        n=n,
        constraint_length=scenario.constraint_length,
        candidates=restricted,
        rng=rng,
    )
    per_codeword = dict(zip(active.tolist(), result.per_poly))
    sizes = np.zeros_like(counts)
    sizes[active] = [found.size for found in result.per_poly]
    codewords = np.arange(counts.size)
    return [(rows, np.stack([per_codeword[c] for c in codewords[rows]]))
            for _, rows in _groups(sizes)]


def _correct_codewords(code, r_eff, syndromes, groups) -> np.ndarray:
    """Subtract the recovered error values at every codeword's detected indices."""
    corrected = r_eff.copy()
    for rows, found in groups:
        if (found == found[0]).all():
            found = found[0]  # one set for every codeword: one system
        values = dft_code.recover_error_values(code, syndromes[rows], found)
        corrected[rows] = dft_code.correct_codeword(r_eff[rows], found, values)
    return corrected


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
    precision = threat.PrecisionModel(
        mode=scenario.precision_mode, variance=scenario.precision_var
    )
    returns = threat.inject(results, plan, precision, rng)

    r_eff = returns.reshape(scenario.n_workers, m_rows).T  # (M, N)
    capability_exceeded = False

    if scenario.decoder:
        code = dft_code.build_code(scenario.n_workers, params.code_dimension)
        syndromes = dft_code.syndrome(code, r_eff)
        if scenario.error_count_mode == "oracle":
            true_counts = b_eff.sum(axis=1)
            capability_exceeded = bool((true_counts > code.capability).any())
            counts = np.minimum(true_counts, code.capability)
        else:
            counts = dft_code.estimate_error_count(
                code, syndromes, rel_tol=scenario.rank_rel_tol
            )
            if scenario.localization != "independent":
                # restricted and joint pick only from the pool, so never more than it holds
                counts = np.minimum(counts, len(scenario.candidate_pool()))
        coeffs = _locators(scenario, code, syndromes, counts, rng)
        groups = _localize_codewords(scenario, code, coeffs, counts, rng)
        detected = np.zeros(r_eff.shape, dtype=bool)
        codewords = np.arange(m_rows)
        for rows, found in groups:
            detected[codewords[rows, None], found] = True
        truth = np.zeros_like(detected)
        if plan is not None:
            truth[:, locations] = b_eff.astype(bool)
        loc_correct = np.array_equal(detected, truth)
        r_eff = _correct_codewords(code, r_eff, syndromes, groups)
    else:
        loc_correct = scenario.byzantine_count == 0

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


@dataclass(frozen=True)
class AggregateRecord:
    scenario: str
    label: dict
    trials: int
    mean_e_rel: float

    def csv_row(self) -> tuple:
        cl = self.label["constraint_length"]
        return (
            self.scenario,
            str(int(bool(self.label["decoder"]))),
            str(self.label["A"]),
            f"{self.label['precision_var']:.6g}",
            self.label["strategy"],
            f"{self.label['zero_prob']:.6g}",
            "" if cl is None else str(cl),
            str(self.trials),
            f"{self.mean_e_rel:.12e}",
            f"{codec.db(self.mean_e_rel):.6f}",
        )


def sweep(base: Scenario, spec: SweepSpec):
    """Run the grid; yields ('trial', TrialRecord) then ('aggregate', ...) rows.

    Trial seeds derive from (master seed, grid index, trial index), so the
    output is reproducible byte-for-byte for a fixed configuration. Every grid
    point is built, and so validated, before the first trial runs.
    """
    for grid_index, sc, label in list(spec.grid(base)):
        seeds = trial_seeds(sc.master_seed, grid_index, sc.trials)
        records = [run_trial(sc, s) for s in seeds]
        for record in records:
            yield "trial", record
        yield "aggregate", AggregateRecord(
            scenario=sc.digest(),
            label=label,
            trials=sc.trials,
            mean_e_rel=float(np.mean([r.e_rel for r in records])),
        )


def write_sweep_csv(base: Scenario, spec: SweepSpec, trial_path, aggregate_path=None):
    """Drive a sweep and write the trial CSV (and optional aggregate CSV)."""
    agg_rows = []
    with open(trial_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_CSV_HEADER)
        for kind, record in sweep(base, spec):
            if kind == "trial":
                writer.writerow(record.csv_row())
            else:
                agg_rows.append(record)
    if aggregate_path is not None:
        with open(aggregate_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(AGGREGATE_CSV_HEADER)
            for record in agg_rows:
                writer.writerow(record.csv_row())
    return agg_rows
