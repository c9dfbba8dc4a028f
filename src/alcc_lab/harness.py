"""Seeded end-to-end trial runner, sweep driver, and CSV emission.

One trial: draw data, encode, apply the worker function, inject Byzantine
and precision noise, decode each output-entry codeword with the configured
strategy, reconstruct, and report the relative error against the
centralized computation.
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


def _localize_codewords(scenario, code, polys, counts, rng):
    """Detected index set per codeword under the configured strategy."""
    n = scenario.n_workers
    pool = scenario.candidate_pool()
    restricted = pool if len(pool) < n else None
    detected = [np.array([], dtype=int)] * len(counts)
    active = [c for c in range(len(counts)) if counts[c] > 0]
    if not active:
        return detected

    if scenario.localization != "joint":
        # restricted localization only searches the unreliable pool
        cand = restricted if scenario.localization == "restricted" else None
        for c in active:
            detected[c] = localization.independent_localize(
                polys[c], counts[c], n, candidates=cand
            )
    else:
        result = localization.joint_localize(
            [polys[c] for c in active],
            capability=code.capability,
            n=n,
            constraint_length=scenario.constraint_length,
            candidates=restricted,
            rng=rng,
        )
        for c, det in zip(active, result.per_poly):
            detected[c] = det
    return detected


def run_trial(scenario: Scenario, seed: int) -> TrialRecord:
    """Run one seeded trial of the configured scenario."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = scenario.encoding()
    fn = codec.FUNCTIONS[scenario.function]

    blocks = rng.standard_normal(
        (scenario.k, scenario.input_rows, scenario.input_cols)
    )
    batch = codec.make_batch(params, blocks, rng)
    shares = codec.encode_shares(batch, params)
    results = fn.apply(shares)  # (N, u, h)
    reference = fn.apply(blocks)

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
    loc_correct = True
    capability_exceeded = False

    if scenario.decoder:
        code = dft_code.build_code(scenario.n_workers, scenario.code_dimension)
        syndromes = dft_code.syndrome(code, r_eff)
        true_counts = b_eff.sum(axis=1) if plan is not None else np.zeros(m_rows, int)
        counts = np.zeros(m_rows, dtype=int)
        for c in range(m_rows):
            if scenario.error_count_mode == "oracle":
                declared = int(true_counts[c])
                if declared > code.capability:
                    capability_exceeded = True
                    declared = code.capability
                counts[c] = declared
            else:
                counts[c] = dft_code.estimate_error_count(
                    code, syndromes[c], mode="rank", rel_tol=scenario.rank_rel_tol
                )

        polys = [None] * m_rows
        for c in range(m_rows):
            if counts[c] == 0:
                continue
            poly = dft_code.locator_polynomial(code, syndromes[c], counts[c])
            if scenario.precision_mode == "locator" and scenario.precision_var > 0:
                poly = poly.perturbed(threat.complex_normal(
                    rng, 0.0, scenario.precision_var, counts[c] + 1
                ))
            polys[c] = poly

        detected = _localize_codewords(scenario, code, polys, counts, rng)
        corrected = r_eff.copy()
        for c in range(m_rows):
            det = detected[c]
            truth = locations[b_eff[c].astype(bool)] if plan is not None else np.array([], int)
            if not np.array_equal(det, np.sort(truth)):
                loc_correct = False
            if det.size:
                values = dft_code.recover_error_values(code, syndromes[c], det)
                corrected[c] = dft_code.correct_codeword(corrected[c], det, values)
        r_eff = corrected
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
