import math
from itertools import combinations

import numpy as np
import pytest

from alcc_lab import assignment as assignment_mod
from alcc_lab.assignment import (
    AssignmentProblem,
    RuntimeGuardError,
    canonical_class,
    contiguous_subset,
    problem2_log_objective,
    relative_error_baseline,
    solve_assignment,
)
from alcc_lab.numeric import ParameterError
from alcc_lab.scenario import Scenario

TABLE_PROBLEM = AssignmentProblem(
    n_workers=11, unreliable_count=5, byzantine_count=2, eta=10.0, sigma_p_sq=1.0
)


class TestObjective:
    def test_degenerate_all_byzantine_is_zero(self):
        prob = AssignmentProblem(n_workers=7, unreliable_count=2, byzantine_count=2)
        assert problem2_log_objective((0, 3), prob) == -math.inf

    def test_contiguous_worse_than_spread(self):
        contiguous = contiguous_subset(11, 5)
        spread = (0, 2, 5, 8, 10)
        assert problem2_log_objective(contiguous, TABLE_PROBLEM) > \
            problem2_log_objective(spread, TABLE_PROBLEM)

    def test_chord_metric_rotation_invariant(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=4,
                                 byzantine_count=2, metric="chord",
                                 sigma_p_sq=0.5)
        subset = (0, 3, 6, 9)
        base = problem2_log_objective(subset, prob)
        for shift in range(1, 11):
            rotated = tuple(sorted((q + shift) % 11 for q in subset))
            assert abs(problem2_log_objective(rotated, prob) - base) <= 1e-9

    def test_wrong_size_rejected(self):
        with pytest.raises(ParameterError):
            problem2_log_objective((0, 1), TABLE_PROBLEM)


class TestSolver:
    def test_whole_range_is_single_candidate(self):
        prob = AssignmentProblem(n_workers=6, unreliable_count=6, byzantine_count=2)
        solution = solve_assignment(prob)
        assert solution.subset == tuple(range(6))

    def test_reproduces_reported_set_at_unit_variance(self):
        solution = solve_assignment(TABLE_PROBLEM)
        assert canonical_class(solution.subset, 11) == canonical_class(
            (0, 2, 5, 8, 10), 11
        )

    def test_reproduces_reported_set_at_half_variance(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=5,
                                 byzantine_count=2, sigma_p_sq=0.5)
        solution = solve_assignment(prob)
        assert canonical_class(solution.subset, 11) == canonical_class(
            (0, 2, 5, 8, 10), 11
        )

    def test_contiguous_never_beats_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(8, 14))
            mu = int(rng.integers(3, min(6, n)))
            a = int(rng.integers(1, mu))
            var = float(10 ** rng.uniform(-2, 1))
            prob = AssignmentProblem(n_workers=n, unreliable_count=mu,
                                     byzantine_count=a, sigma_p_sq=var)
            solution = solve_assignment(prob)
            contiguous = contiguous_subset(n, mu)
            assert problem2_log_objective(contiguous, prob) >= solution.log_objective

    def test_beam_matches_exhaustive_most_of_the_time(self):
        rng = np.random.default_rng(1)
        hits = 0
        trials = 50
        for _ in range(trials):
            n = int(rng.integers(9, 14))
            mu = int(rng.integers(3, 6))
            a = int(rng.integers(1, min(3, mu)))
            var = float(10 ** rng.uniform(-1, 1))
            prob = AssignmentProblem(n_workers=n, unreliable_count=mu,
                                     byzantine_count=a, sigma_p_sq=var)
            exact = solve_assignment(prob)
            beam = solve_assignment(prob, search="beam", beam_width=32)
            assert beam.log_objective >= exact.log_objective - 1e-9
            if beam.log_objective <= exact.log_objective + 1e-9:
                hits += 1
        assert hits >= 0.9 * trials

    def test_exhaustive_guard_trips(self):
        prob = AssignmentProblem(n_workers=40, unreliable_count=20,
                                 byzantine_count=2)
        with pytest.raises(RuntimeGuardError):
            solve_assignment(prob)


class TestCanonicalClass:
    def test_rotation_and_reflection_collapse(self):
        base = canonical_class((0, 2, 5, 8, 10), 11)
        assert canonical_class((1, 3, 6, 9, 0), 11) == base  # rotation
        assert canonical_class(tuple((-q) % 11 for q in (0, 2, 5, 8, 10)), 11) == base

    def test_contiguous_class(self):
        assert canonical_class((7, 8, 9, 10, 0), 11) == (0, 1, 2, 3, 4)


class TestEmpiricalBaseline:
    def _scenario(self):
        return Scenario(
            n_workers=11, k=3, t=1, sigma_pad=1.0,
            byzantine_count=0, base_matrix="all-one",
            precision_mode="synthetic", precision_var=0.01,
            localization="restricted", error_count_mode="oracle",
            trials=4, master_seed=5,
        )

    def test_guard_refuses_oversized_scans(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        with pytest.raises(RuntimeGuardError):
            relative_error_baseline(prob, self._scenario(), trials=1000, seed=0)

    def test_guard_trips_before_listing_subsets(self, monkeypatch):
        # C(40, 20) subsets would exhaust memory long before the guard
        def refuse(*args):
            raise AssertionError("subsets listed before the guard")

        monkeypatch.setattr(assignment_mod, "combinations", refuse)
        prob = AssignmentProblem(n_workers=40, unreliable_count=20, byzantine_count=2)
        with pytest.raises(RuntimeGuardError):
            relative_error_baseline(prob, self._scenario(), trials=1, seed=0)

    def test_no_adversary_is_non_discriminative(self):
        # without Byzantine noise every assignment produces the same trials
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        candidates = [(0, 1, 2, 3, 4), (0, 2, 5, 8, 10), (1, 3, 5, 7, 9)]
        result = relative_error_baseline(
            prob, self._scenario(), trials=4, seed=1, candidates=candidates
        )
        values = np.array(list(result.table.values()))
        assert np.ptp(values) <= 1e-12 * values.min()

    def test_discriminates_under_attack(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        scenario = self._scenario().with_updates(byzantine_count=2, trials=30)
        candidates = [(0, 1, 2, 3, 4), (0, 2, 5, 8, 10)]
        result = relative_error_baseline(
            prob, scenario, trials=30, seed=2, candidates=candidates
        )
        assert result.table[(0, 2, 5, 8, 10)] < result.table[(0, 1, 2, 3, 4)]
        assert result.subset == (0, 2, 5, 8, 10)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, trials):
        prob = AssignmentProblem(n_workers=11, unreliable_count=3, byzantine_count=0)
        with pytest.raises(ParameterError, match="trials"):
            relative_error_baseline(
                prob, self._scenario(), trials=trials, seed=0, candidates=[(0, 1, 2)]
            )

    def test_candidate_of_wrong_size_rejected(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=3, byzantine_count=0)
        with pytest.raises(ParameterError, match="3 indices"):
            relative_error_baseline(
                prob, self._scenario(), trials=1, seed=0, candidates=[(0, 1, 2), (0, 1)]
            )

    def test_empty_candidate_list_rejected(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=3, byzantine_count=0)
        with pytest.raises(ParameterError, match="empty"):
            relative_error_baseline(prob, self._scenario(), trials=1, seed=0, candidates=[])
