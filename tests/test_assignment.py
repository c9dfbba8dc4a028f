import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from alcc_lab import assignment as assignment_mod
from alcc_lab import codec, harness
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


def reference_solve(prob, search, beam_width, rng):
    """The search as it ran with its own final loop per mode, kept as a pin.

    Returns (subset, objective, log_objective, evaluated).
    """
    n, mu = prob.n_workers, prob.unreliable_count
    if search == "exhaustive":
        best = None
        count = 0
        for subset in combinations(range(n), mu):
            count += 1
            val = problem2_log_objective(subset, prob, rng)
            if best is None or val < best[0]:
                best = (val, subset)
        log_obj, subset = best
        return subset, 0.0 if log_obj == -math.inf else math.exp(log_obj), log_obj, count
    a = prob.byzantine_count
    frontier = [(i,) for i in range(n)]
    evaluated = 0
    for size in range(2, mu + 1):
        seen = set()
        children = []
        for state in frontier:
            for j in range(n):
                if j in state:
                    continue
                child = tuple(sorted(state + (j,)))
                if child not in seen:
                    seen.add(child)
                    children.append(child)
        if size > a:
            scored = []
            for child in children:
                partial = dataclasses.replace(prob, unreliable_count=size)
                scored.append((problem2_log_objective(child, partial, rng), child))
                evaluated += 1
            scored.sort(key=lambda t: (t[0], t[1]))
            frontier = [c for _, c in scored[:beam_width]]
        else:
            frontier = children
    best = None
    for state in frontier:
        val = problem2_log_objective(state, prob, rng)
        evaluated += 1
        if best is None or (val, state) < best:
            best = (val, state)
    log_obj, subset = best
    return subset, 0.0 if log_obj == -math.inf else math.exp(log_obj), log_obj, evaluated


def pin_problems():
    """Ties (every subset at -inf, or mirror images), both metrics, and random problems."""
    yield AssignmentProblem(n_workers=8, unreliable_count=3, byzantine_count=3)
    yield TABLE_PROBLEM
    yield dataclasses.replace(TABLE_PROBLEM, metric="chord")
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(5, 12))
        mu = int(rng.integers(1, min(6, n) + 1))
        yield AssignmentProblem(
            n_workers=n, unreliable_count=mu, byzantine_count=int(rng.integers(1, mu + 1)),
            eta=float(rng.uniform(1.0, 20.0)), sigma_p_sq=float(10 ** rng.uniform(-1, 1)),
            metric=("integer", "chord")[int(rng.integers(2))],
        )


def solve_fields(solution):
    return (solution.subset, solution.objective.hex(), solution.log_objective.hex(),
            solution.evaluated)


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

    @pytest.mark.parametrize("subset,named", [
        ((0, 0, 1, 2, 3), r"\(0, 0, 1, 2, 3\)"),
        ((0, 1, 2, 3, 20), r"\(0, 1, 2, 3, 20\)"),
        ((3, -1, 0, 1, 2), r"\(-1, 0, 1, 2, 3\)"),
    ], ids=["repeated", "above-n", "negative"])
    def test_repeated_or_out_of_range_index_rejected(self, subset, named):
        with pytest.raises(ParameterError, match=f"subset {named} must hold distinct indices"):
            problem2_log_objective(subset, TABLE_PROBLEM)

    @pytest.mark.parametrize("subset", [(0, 1.9, 4, 6, 8), (0, True, 4, 6, 8)])
    def test_non_integer_index_rejected_by_name(self, subset):
        # (0, 1.9, 4, 6, 8) used to be scored as (0, 1, 4, 6, 8)
        with pytest.raises(ParameterError, match="^subset index must be an integer, got"):
            problem2_log_objective(subset, TABLE_PROBLEM)

    @pytest.mark.parametrize("field,value", [
        ("n_workers", 11.0), ("unreliable_count", 2.5), ("byzantine_count", True),
    ])
    def test_non_integer_count_rejected_when_built(self, field, value):
        # each used to build and then fail, or run, at the first score
        fields = dict(n_workers=11, unreliable_count=5, byzantine_count=2)
        with pytest.raises(ParameterError, match=f"^{field} must be an integer, got"):
            AssignmentProblem(**{**fields, field: value})

    def test_unknown_metric_rejected_when_built(self):
        with pytest.raises(ParameterError, match=r"^metric must be one of \('integer', 'chord'\)"):
            AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2, metric="foo")

    def test_numpy_fields_stored_as_plain_values(self):
        prob = AssignmentProblem(n_workers=np.int64(11), unreliable_count=np.int32(5),
                                 byzantine_count=2, eta=np.float64(10.0), metric=np.str_("integer"))
        assert prob == TABLE_PROBLEM and hash(prob) == hash(TABLE_PROBLEM)
        assert repr(prob) == repr(TABLE_PROBLEM)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["eta", "sigma_p_sq"])
    def test_bad_noise_parameter_rejected_by_name(self, field, value):
        # a non-finite value fails the field's type check, a finite one the range check
        rule = "positive" if math.isfinite(value) else "real"
        with pytest.raises(ParameterError, match=f"^{field} must be finite and {rule}, got"):
            AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2,
                              **{field: value})

    def test_negative_byzantine_count_rejected_by_name(self):
        with pytest.raises(ParameterError, match="^byzantine_count must be at least 0, got -1"):
            AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=-1)

    def test_zero_byzantine_count_cannot_be_scored(self):
        # the problem exists (the empirical baseline runs it) but has no objective
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=0)
        message = "^byzantine_count must be at least 1 to score a subset, got 0"
        with pytest.raises(ParameterError, match=message):
            problem2_log_objective((0, 2, 5, 8, 10), prob)
        for search in ("exhaustive", "beam"):
            with pytest.raises(ParameterError, match=message):
                solve_assignment(prob, search=search)


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

    @pytest.mark.parametrize("search", ["exhaustive", "beam"])
    def test_shared_bound_table_gives_the_per_subset_solution(self, monkeypatch, search):
        # solved in turn, so each problem finds the others' tables in the cache
        exact = assignment_mod._EXPECTATION_LIMIT
        cases = [(TABLE_PROBLEM, exact)] + [
            (dataclasses.replace(TABLE_PROBLEM, **change), exact) for change in (
                {"metric": "chord"}, {"sigma_p_sq": 0.5}, {"eta": 5.0}, {"unreliable_count": 4},
            )
        ]
        # C(5, 3) = 10 supports exceed a limit of 5: the last problem averages 7 sampled ones
        cases.append((dataclasses.replace(TABLE_PROBLEM, byzantine_count=3), 5))
        monkeypatch.setattr(assignment_mod, "_EXPECTATION_SAMPLES", 7)

        def solve(prob, limit):
            monkeypatch.setattr(assignment_mod, "_EXPECTATION_LIMIT", limit)
            return solve_assignment(prob, search=search, beam_width=8,
                                    rng=np.random.default_rng(3))

        shared = [solve(*case) for case in cases]
        # a fresh table per subset recomputes every bound, as each scan once did
        monkeypatch.setattr(assignment_mod, "_pair_log_bounds",
                            assignment_mod._pair_log_bounds.__wrapped__)
        # subset, objective, log_objective and evaluated, bit for bit
        assert [solve(*case) for case in cases] == shared

    @pytest.mark.parametrize("search", ["exhaustive", "beam"])
    def test_matches_the_reference_search_bit_for_bit(self, search):
        for i, prob in enumerate(pin_problems()):
            width = 1 + i % 8
            got = solve_assignment(prob, search=search, beam_width=width,
                                   rng=np.random.default_rng(i))
            subset, obj, log_obj, evaluated = reference_solve(
                prob, search, width, np.random.default_rng(i))
            assert solve_fields(got) == (subset, obj.hex(), log_obj.hex(), evaluated)

    @pytest.mark.parametrize("search", ["exhaustive", "beam"])
    def test_monte_carlo_expectation_matches_the_reference_search(self, monkeypatch, search):
        # C(6, 3) = 20 supports exceed a limit of 5: each subset averages 7 sampled ones
        monkeypatch.setattr(assignment_mod, "_EXPECTATION_LIMIT", 5)
        monkeypatch.setattr(assignment_mod, "_EXPECTATION_SAMPLES", 7)
        prob = dataclasses.replace(TABLE_PROBLEM, unreliable_count=6, byzantine_count=3)
        for seed in range(3):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = solve_assignment(prob, search=search, beam_width=6, rng=got_rng)
            subset, obj, log_obj, evaluated = reference_solve(prob, search, 6, ref_rng)
            assert solve_fields(got) == (subset, obj.hex(), log_obj.hex(), evaluated)
            assert got_rng.bytes(16) == ref_rng.bytes(16)

    def test_each_pair_bound_is_computed_once(self, monkeypatch):
        calls = []
        bound = assignment_mod.assignment_pair_log_bound

        def spy(*args):
            calls.append(args[:2])
            return bound(*args)

        assignment_mod._pair_log_bounds.cache_clear()
        monkeypatch.setattr(assignment_mod, "assignment_pair_log_bound", spy)
        solve_assignment(TABLE_PROBLEM)
        solve_assignment(TABLE_PROBLEM, search="beam")
        # C(11, 2) supports times 9 probes outside each
        assert len(calls) == len(set(calls)) == 55 * 9

    @pytest.mark.parametrize("width", [2.5, True])
    def test_non_integer_beam_width_rejected_by_name(self, width):
        # 2.5 used to raise TypeError from a slice, and True to run at width 1
        with pytest.raises(ParameterError, match=f"^beam_width must be an integer, got {width}$"):
            solve_assignment(TABLE_PROBLEM, search="beam", beam_width=width)

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

    @pytest.mark.parametrize("subset", [(0, 2.5, 4), (0, True, 4)])
    def test_non_integer_index_rejected_by_name(self, subset):
        # (0, 2.5, 4) used to give the class of (0, 2, 4)
        with pytest.raises(ParameterError, match="^subset index must be an integer, got"):
            canonical_class(subset, 11)


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
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=0)
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

    def test_table_matches_a_subset_major_loop_bit_for_bit(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        scenario = self._scenario().with_updates(byzantine_count=2)
        candidates = [(0, 1, 2, 3, 4), (0, 2, 5, 8, 10), (1, 3, 5, 7, 9), (2, 4, 6, 8, 10)]
        result = relative_error_baseline(prob, scenario, trials=3, seed=7,
                                         candidates=candidates)
        seeds = harness.trial_seeds(7, 0, 3)
        table = {}
        for subset in candidates:
            sc = scenario.with_updates(unreliable=subset)
            table[subset] = float(np.mean([harness.run_trial(sc, s).e_rel for s in seeds]))
        assert list(result.table) == candidates
        assert [v.hex() for v in result.table.values()] == [v.hex() for v in table.values()]
        best = min(table, key=lambda k: (table[k], k))
        assert (result.subset, result.mean_error, result.simulations) == (best, table[best], 12)

    def test_scan_draws_and_encodes_once_per_seed(self, monkeypatch):
        calls = []
        for name in ("make_batch", "encode_shares"):
            def spy(*args, _name=name, _fn=getattr(codec, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(codec, name, spy)
        harness._prefix.cache_clear()
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        scenario = self._scenario().with_updates(byzantine_count=2)
        candidates = [(0, 1, 2, 3, 4), (0, 2, 5, 8, 10), (1, 3, 5, 7, 9)]
        relative_error_baseline(prob, scenario, trials=4, seed=3, candidates=candidates)
        assert calls == ["make_batch", "encode_shares"] * 4

    def test_scan_seeds_one_generator_per_seed(self, monkeypatch):
        # every trial resumes its prefix's state on its thread's spare generator;
        # the scan runs in a new thread, so the spare is made once, here
        calls = []
        default_rng = np.random.default_rng

        def spy(*args):
            calls.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", spy)
        harness._prefix.cache_clear()
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        scenario = self._scenario().with_updates(byzantine_count=2)
        candidates = [(0, 1, 2, 3, 4), (0, 2, 5, 8, 10), (1, 3, 5, 7, 9),
                      (2, 4, 6, 8, 10), (0, 3, 6, 7, 9)]
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(relative_error_baseline, prob, scenario, trials=3, seed=3,
                        candidates=candidates).result(timeout=60)
        assert [args for args in calls if args] == [(s,) for s in harness.trial_seeds(3, 0, 3)]
        assert calls.count(()) == 1

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_non_integer_trials_rejected_by_name(self, trials):
        # 2.5 used to build every candidate's scenario and then raise TypeError,
        # and True to run one trial per subset
        prob = AssignmentProblem(n_workers=11, unreliable_count=3, byzantine_count=0)
        with pytest.raises(ParameterError, match=f"^trials must be an integer, got {trials}$"):
            relative_error_baseline(
                prob, self._scenario(), trials=trials, seed=0, candidates=[(0, 1, 2)]
            )

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

    def test_invalid_candidate_fails_before_any_trial(self, monkeypatch):
        calls = []

        def counting_trial(sc, seed):
            calls.append(sc.unreliable)
            return SimpleNamespace(e_rel=1.0)

        monkeypatch.setattr(harness, "run_trial", counting_trial)
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        scenario = self._scenario().with_updates(byzantine_count=2,
                                                 byzantine_locations=(0, 1))
        with pytest.raises(ParameterError, match="unreliable pool"):
            relative_error_baseline(prob, scenario, trials=1, seed=0)
        assert calls == []

    @pytest.mark.parametrize("field,overrides", [
        ("n_workers", dict(n_workers=31, k=5, t=3, byzantine_count=3)),
        ("byzantine_count", dict(byzantine_count=3)),
    ])
    def test_scenario_contradicting_the_problem_rejected(self, monkeypatch, field, overrides):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("unreachable")

        monkeypatch.setattr(harness, "run_trial", spy)
        monkeypatch.setattr(Scenario, "with_updates", spy)
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        scenario = dataclasses.replace(self._scenario(), **overrides)
        with pytest.raises(ParameterError, match=field):
            relative_error_baseline(prob, scenario, trials=1, seed=0)
        assert calls == []

    def test_repeated_candidate_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda sc, seed: calls.append(seed))
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        scenario = self._scenario().with_updates(byzantine_count=2)
        with pytest.raises(ParameterError, match=r"candidate \(0, 1, 2, 3, 4\) is listed more"):
            relative_error_baseline(prob, scenario, trials=1, seed=0,
                                    candidates=[(0, 1, 2, 3, 4), (0, 2, 5, 8, 10),
                                                (4, 3, 2, 1, 0)])
        assert calls == []

    def test_empty_candidate_list_rejected(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=3, byzantine_count=0)
        with pytest.raises(ParameterError, match="empty"):
            relative_error_baseline(prob, self._scenario(), trials=1, seed=0, candidates=[])

    @pytest.mark.parametrize("candidate", [(0, 1.5, 2, 3, 4), (0, True, 2, 3, 4)])
    def test_non_integer_candidate_rejected_before_any_trial(self, monkeypatch, candidate):
        # (0, 1.5, 2, 3, 4) used to run as (0, 1, 2, 3, 4)
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda sc, seed: calls.append(seed))
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        with pytest.raises(ParameterError, match="^candidate index must be an integer, got"):
            relative_error_baseline(prob, self._scenario().with_updates(byzantine_count=2),
                                    trials=1, seed=0, candidates=[(0, 2, 5, 8, 10), candidate])
        assert calls == []

    def test_out_of_range_candidate_rejected_by_name(self):
        prob = AssignmentProblem(n_workers=11, unreliable_count=3, byzantine_count=0)
        with pytest.raises(ParameterError, match=r"^candidate \(0, 1, 11\) must hold distinct"):
            relative_error_baseline(prob, self._scenario(), trials=1, seed=0,
                                    candidates=[(11, 0, 1)])
