import dataclasses
from itertools import combinations

import numpy as np
import pytest

from alcc_lab.dft_code import build_code
from alcc_lab.localization import (
    JointLocalizationResult,
    independent_localize,
    joint_localize,
)
from alcc_lab.numeric import DimensionError, ParameterError
from alcc_lab.threat import complex_normal
from test_dft_code import true_locator


@pytest.fixture(scope="module")
def code():
    return build_code(15, 7)


def noisy(coeffs, var, rng):
    return coeffs + complex_normal(rng, 0.0, var, coeffs.shape)


def stack_locators(rows, capability):
    """The joint search's input: (P, capability+1) coefficients, zero above
    each row's degree, and the (P,) degrees."""
    coeffs = np.zeros((len(rows), capability + 1), dtype=complex)
    for out, row in zip(coeffs, rows):
        out[: row.size] = row
    return coeffs, np.array([row.size - 1 for row in rows])


def draw_joint_case(rng, n):
    """Random joint-search inputs whose working set stays small.

    Degrees are mixed; coefficients are rounded and partly zero, so root
    metrics and subset scores tie exactly; a candidate set and constraint
    thinning are each drawn at random (thinning always above capability 3).
    """
    capability = int(rng.integers(2, min(8, (n - 1) // 2) + 1))
    rows = []
    for _ in range(int(rng.integers(1, 7))):
        degree = int(rng.integers(1, capability + 1))
        coeffs = np.round(complex_normal(rng, 0.0, 2.0, degree + 1), 1)
        coeffs[rng.random(degree + 1) < 0.3] = 0.0
        rows.append(coeffs)
    candidates = None
    if rng.random() < 0.5:
        size = int(rng.integers(capability, n + 1))
        candidates = rng.choice(n, size=size, replace=False)
    constraint = None
    if capability > 3 or rng.random() < 0.3:
        constraint = int(rng.integers(capability, capability + 5))
    coeffs, degrees = stack_locators(rows, capability)
    return coeffs, degrees, capability, candidates, constraint


def per_subset_joint_localize(coeffs, degrees, capability, n, constraint_length=None,
                              candidates=None, rng=None):
    """Reference joint search: one Python pass per capability-sized subset.

    Returns the result, each row's detections in the winning subset (the
    smallest evaluations of its scored locator there), and the number of
    other subsets that tie the winner.
    """
    cand = np.arange(n) if candidates is None else np.unique(candidates)
    polys = [row[: d + 1] for row, d in zip(coeffs, degrees)]
    full_idx = [i for i, d in enumerate(degrees) if d == capability]
    locators = np.array(coeffs, dtype=complex)
    group = []
    if full_idx:
        averaged = np.mean([polys[i] for i in full_idx], axis=0)
        locators[full_idx] = averaged
        group.append((averaged, capability, full_idx))
    for i, d in enumerate(degrees):
        if d < capability:
            group.append((polys[i], d, [i]))

    initial = set()
    for poly, degree, _ in group:
        initial |= set(independent_localize(poly, degree, n, cand).tolist())
    initial_union = np.array(sorted(initial))
    working = initial_union
    used = working.size
    if constraint_length is not None:
        used = min(max(1, constraint_length), working.size)
        if used < working.size:
            working = np.sort(rng.choice(working, size=used, replace=False))

    subset_size = min(capability, working.size)
    metrics = [np.abs(np.fft.fft(poly, n)) ** 2 for poly, _, _ in group]
    best_obj, best_subset, best_picks, totals = np.inf, None, None, []
    for subset in combinations(range(working.size), subset_size):
        sel = np.array(subset)
        total = 0.0
        picks = []
        for (_, degree, _), metric in zip(group, metrics):
            vals = metric[working[sel]]
            order = np.argsort(vals, kind="stable")[: min(degree, vals.size)]
            total += float(vals[order].sum())
            picks.append(np.sort(working[sel[order]]))
        totals.append(total)
        if total < best_obj:
            best_obj, best_subset, best_picks = total, working[sel], picks

    per_poly = [None] * len(polys)
    for (_, _, members), picked in zip(group, best_picks):
        for i in members:
            per_poly[i] = picked
    result = JointLocalizationResult(
        chosen_subset=best_subset,
        locators=locators,
        objective=best_obj,
        initial_union=initial_union,
        constraint_used=used,
        union_bound_violated=bool(initial_union.size > capability),
        subsets_evaluated=len(totals),
    )
    return result, per_poly, totals.count(best_obj) - 1


def detections(result, degrees, n):
    """Each row's detected set: restricted localization of its locator in the chosen subset."""
    size = result.chosen_subset.size
    return [independent_localize(locator, min(d, size), n, candidates=result.chosen_subset)
            for locator, d in zip(result.locators, degrees)]


def detected_union(result, degrees, n):
    return np.unique(np.concatenate(detections(result, degrees, n)))


def assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def assert_same_result(actual, expected):
    """Every JointLocalizationResult field equal, arrays in dtype and value."""
    for f in dataclasses.fields(JointLocalizationResult):
        a, e = getattr(actual, f.name), getattr(expected, f.name)
        if isinstance(e, np.ndarray):
            assert_same_array(a, e)
        else:
            assert type(a) is type(e) and a == e, f.name


class TestIndependent:
    def test_single_error_exact(self, code):
        poly = true_locator(code, [5])
        assert independent_localize(poly, 1, 15).tolist() == [5]

    def test_two_errors_exact(self, code):
        poly = true_locator(code, [3, 9])
        assert independent_localize(poly, 2, 15).tolist() == [3, 9]

    def test_candidate_superset_restriction(self, code):
        poly = true_locator(code, [3, 9])
        out = independent_localize(poly, 2, 15, candidates=[3, 9, 12])
        assert out.tolist() == [3, 9]

    @pytest.mark.parametrize("candidates", [(3, 1, 1, 2), [9, 3, 9], np.array([4, 4])])
    def test_repeated_candidate_rejected(self, code, candidates):
        poly = true_locator(code, [3])
        with pytest.raises(ParameterError, match=r"^candidates \(.*\) must hold distinct"):
            independent_localize(poly, 1, 15, candidates=candidates)
        with pytest.raises(ParameterError, match=r"^candidates \(.*\) must hold distinct"):
            joint_localize(*stack_locators([poly], 4), capability=4, n=15,
                           candidates=candidates)

    @pytest.mark.parametrize("candidates", [[0, 2.5, 4], [0, True, 4], np.array([0.0, 3.0])])
    def test_non_integer_candidate_rejected_by_name(self, code, candidates):
        # 2.5 and True used to be read as 2 and 1
        poly = true_locator(code, [3])
        with pytest.raises(ParameterError, match="^candidates index must be an integer, got"):
            independent_localize(poly, 1, 15, candidates=candidates)
        with pytest.raises(ParameterError, match="^candidates index must be an integer, got"):
            joint_localize(*stack_locators([poly], 4), capability=4, n=15,
                           candidates=candidates)

    def test_count_exceeding_candidates_rejected(self, code):
        poly = true_locator(code, [3])
        with pytest.raises(ParameterError):
            independent_localize(poly, 3, 15, candidates=[3, 9])

    def test_exact_for_all_supports_at_capability(self):
        for n, k in [(7, 3), (15, 7)]:
            c = build_code(n, k)
            for size in range(1, c.capability + 1):
                for support in combinations(range(n), size):
                    poly = true_locator(c, list(support))
                    out = independent_localize(poly, size, n)
                    assert out.tolist() == list(support)


class TestRestricted:
    def test_full_candidate_set_identical_to_independent(self, code):
        rng = np.random.default_rng(0)
        poly = noisy(true_locator(code, [2, 8]), 0.1, rng)
        full = independent_localize(poly, 2, 15)
        restricted = independent_localize(poly, 2, 15, candidates=list(range(15)))
        assert np.array_equal(full, restricted)

    def test_exact_inside_unreliable_set(self, code):
        unreliable = [3, 6, 9, 11, 14]
        poly = true_locator(code, [6, 11])
        assert independent_localize(poly, 2, 15, candidates=unreliable).tolist() == [6, 11]

    def test_neighbors_outside_the_set_cannot_be_reported(self, code):
        # independent localization sometimes picks a neighbor of the true
        # error; the restricted variant never leaves the unreliable set
        unreliable = np.array([3, 9, 12])
        rng = np.random.default_rng(1)
        neighbor_hits = 0
        for _ in range(300):
            poly = noisy(true_locator(code, [3]), 0.1, rng)
            free = independent_localize(poly, 1, 15)
            fixed = independent_localize(poly, 1, 15, candidates=unreliable)
            assert fixed[0] in unreliable
            if free[0] in (2, 4):
                neighbor_hits += 1
        assert neighbor_hits > 0


class TestJoint:
    def test_noiseless_all_full_degree_reduces_to_average(self):
        code = build_code(31, 15)
        rng = np.random.default_rng(3)
        support = np.sort(rng.choice(31, size=8, replace=False))
        clean = np.array([true_locator(code, support) for _ in range(12)])
        degrees = np.full(12, 8)
        result = joint_localize(clean, degrees, capability=8, n=31)
        assert np.array_equal(detected_union(result, degrees, 31), support)
        for detected in detections(result, degrees, 31):
            assert np.array_equal(detected, support)
        # noisy rows: every row gets the detection of the rows' mean
        for var in (0.01, 0.3, 3.0):
            rows = noisy(clean, var, rng)
            result = joint_localize(rows, degrees, capability=8, n=31)
            expected = independent_localize(rows.mean(axis=0), 8, 31)
            assert np.array_equal(detected_union(result, degrees, 31), expected)
            for detected in detections(result, degrees, 31):
                assert np.array_equal(detected, expected)

    def test_mixed_degrees_recover_full_union(self):
        code = build_code(31, 15)
        support = np.array([1, 5, 9, 14, 18, 22, 26, 30])
        full = true_locator(code, support)
        drop_first = true_locator(code, support[1:])
        drop_last = true_locator(code, support[:-1])
        coeffs, degrees = stack_locators([full, drop_first, drop_last], 8)
        result = joint_localize(coeffs, degrees, capability=8, n=31)
        assert np.array_equal(detected_union(result, degrees, 31), support)
        found = detections(result, degrees, 31)
        assert np.array_equal(found[1], support[1:])
        assert np.array_equal(found[2], support[:-1])

    def test_constraint_thinning_is_seeded_and_deterministic(self):
        code = build_code(31, 15)
        rng = np.random.default_rng(4)
        support = np.sort(rng.choice(31, size=8, replace=False))
        coeffs = np.array([noisy(true_locator(code, support), 0.3, rng) for _ in range(6)])
        degrees = np.full(6, 8)
        first = joint_localize(coeffs, degrees, 8, 31, constraint_length=5,
                               rng=np.random.default_rng(99))
        second = joint_localize(coeffs, degrees, 8, 31, constraint_length=5,
                                rng=np.random.default_rng(99))
        assert np.array_equal(first.chosen_subset, second.chosen_subset)
        assert first.objective == second.objective
        assert first.constraint_used == 5

    def test_objective_is_certified_minimum(self):
        # the search must return exactly what the per-subset reference loop
        # returns, field for field, on a noisy round and on random inputs, and
        # restricted localization of its locators in its subset must detect
        # what the reference picks there
        code = build_code(15, 7)
        rng = np.random.default_rng(5)
        support = np.array([2, 6, 10, 13])
        full = [noisy(true_locator(code, support), 0.5, rng) for _ in range(3)]
        low = [noisy(true_locator(code, support[:3]), 0.5, rng) for _ in range(2)]
        low.append(noisy(true_locator(code, support[:2]), 0.5, rng))
        coeffs, degrees = stack_locators(full + low, 4)
        expected, picks, _ = per_subset_joint_localize(coeffs, degrees, 4, 15)
        result = joint_localize(coeffs, degrees, capability=4, n=15)
        assert_same_result(result, expected)
        for found, picked in zip(detections(result, degrees, 15), picks, strict=True):
            assert_same_array(found, picked)

        tied = 0
        for n in (7, 11, 15, 31):
            for _ in range(200):
                coeffs, degrees, capability, candidates, constraint = draw_joint_case(rng, n)
                seed = int(rng.integers(2**32))
                expected, picks, ties = per_subset_joint_localize(
                    coeffs, degrees, capability, n, constraint, candidates,
                    np.random.default_rng(seed),
                )
                result = joint_localize(
                    coeffs, degrees, capability, n, constraint, candidates,
                    np.random.default_rng(seed),
                )
                assert_same_result(result, expected)
                for found, picked in zip(detections(result, degrees, n), picks, strict=True):
                    assert_same_array(found, picked)
                tied += ties > 0
        assert tied > 0  # the lexicographic tie-break was exercised

    def test_monte_carlo_joint_beats_independent(self):
        code = build_code(31, 15)
        rng = np.random.default_rng(6)
        trials, m_polys, var = 120, 25, 0.1
        ind_errors = joint_errors = 0
        for _ in range(trials):
            support = np.sort(rng.choice(31, size=8, replace=False))
            base = true_locator(code, support)
            coeffs = np.array([noisy(base, var, rng) for _ in range(m_polys)])
            if any(
                not np.array_equal(independent_localize(row, 8, 31), support)
                for row in coeffs
            ):
                ind_errors += 1
            degrees = np.full(m_polys, 8)
            result = joint_localize(coeffs, degrees, capability=8, n=31)
            if not np.array_equal(detections(result, degrees, 31)[0], support):
                joint_errors += 1
        assert joint_errors <= ind_errors

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            joint_localize(np.zeros((0, 5)), [], capability=4, n=15)

    @pytest.mark.parametrize("degree", [5, -1])
    def test_degree_outside_capability_rejected(self, degree):
        coeffs = np.zeros((2, 5), dtype=complex)
        coeffs[:, 0] = 1.0
        with pytest.raises(ParameterError, match="0..capability"):
            joint_localize(coeffs, [2, degree], capability=4, n=15)

    @pytest.mark.parametrize("shape,degrees", [
        ((2, 4), [2, 3]),     # one column short of capability + 1
        ((2, 6), [2, 3]),     # one column over
        ((2, 5), [2, 3, 3]),  # a degree for a row that is not there
        ((2, 5), [[2, 3]]),   # degrees not a vector
    ])
    def test_wrong_width_rejected(self, shape, degrees):
        coeffs = np.zeros(shape, dtype=complex)
        coeffs[:, 0] = 1.0
        with pytest.raises(DimensionError):
            joint_localize(coeffs, degrees, capability=4, n=15)

    def test_nonzero_above_degree_rejected(self, code):
        coeffs, degrees = stack_locators(
            [true_locator(code, [1, 5]), true_locator(code, [2, 6, 9])], 4
        )
        joint_localize(coeffs, degrees, capability=4, n=15)
        coeffs[0, 3] = 1e-300  # row 0 has degree 2
        with pytest.raises(ParameterError, match="above its degree"):
            joint_localize(coeffs, degrees, capability=4, n=15)

    @pytest.mark.parametrize("constraint_length", [0, -1])
    def test_constraint_length_below_one_rejected(self, code, constraint_length):
        # a length of 0 used to search one candidate quietly
        coeffs, degrees = stack_locators([true_locator(code, [1, 5, 9])], 4)
        with pytest.raises(ParameterError, match="constraint_length"):
            joint_localize(coeffs, degrees, capability=4, n=15,
                           constraint_length=constraint_length, rng=np.random.default_rng(0))
        result = joint_localize(coeffs, degrees, capability=4, n=15, constraint_length=1,
                                rng=np.random.default_rng(0))
        assert result.constraint_used == 1

    def test_union_bound_violation_is_reported(self):
        code = build_code(15, 7)
        rng = np.random.default_rng(7)
        coeffs = np.array([noisy(true_locator(code, [1, 5, 9, 12]), 2.0, rng)
                           for _ in range(8)])
        result = joint_localize(coeffs, np.full(8, 4), capability=4, n=15,
                                rng=np.random.default_rng(0))
        assert result.union_bound_violated == (result.initial_union.size > 4)


def test_all_strategies_exact_when_noise_free():
    for n, k in [(7, 3), (15, 7)]:
        code = build_code(n, k)
        v = code.capability
        rng = np.random.default_rng(8)
        for _ in range(20):
            size = int(rng.integers(1, v + 1))
            support = np.sort(rng.choice(n, size=size, replace=False))
            poly = true_locator(code, support)
            assert independent_localize(poly, size, n).tolist() == support.tolist()
            restricted = independent_localize(poly, size, n, candidates=support)
            assert restricted.tolist() == support.tolist()
            coeffs, degrees = stack_locators([poly], v)
            joint = joint_localize(coeffs, degrees, capability=v, n=n)
            assert np.array_equal(detections(joint, degrees, n)[0], support)
