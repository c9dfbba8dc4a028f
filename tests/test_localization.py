import dataclasses
from itertools import combinations

import numpy as np
import pytest

from alcc_lab.dft_code import LocatorPolynomial, build_code, true_locator
from alcc_lab.localization import (
    JointLocalizationResult,
    average_locators,
    independent_localize,
    joint_localize,
    root_metric,
)
from alcc_lab.numeric import ParameterError
from alcc_lab.threat import complex_normal


@pytest.fixture(scope="module")
def code():
    return build_code(15, 7)


def noisy(poly, var, rng):
    noise = complex_normal(rng, 0.0, var, poly.degree + 1)
    return LocatorPolynomial(coeffs=poly.coeffs + noise, degree=poly.degree)


def draw_joint_case(rng, n):
    """Random joint-search inputs whose working set stays small.

    Degrees are mixed; coefficients are rounded and partly zero, so root
    metrics and subset scores tie exactly; a candidate set and constraint
    thinning are each drawn at random (thinning always above capability 3).
    """
    capability = int(rng.integers(2, min(8, (n - 1) // 2) + 1))
    polys = []
    for _ in range(int(rng.integers(1, 7))):
        degree = int(rng.integers(1, capability + 1))
        coeffs = np.round(complex_normal(rng, 0.0, 2.0, degree + 1), 1)
        coeffs[rng.random(degree + 1) < 0.3] = 0.0
        polys.append(LocatorPolynomial(coeffs=coeffs, degree=degree))
    candidates = None
    if rng.random() < 0.5:
        size = int(rng.integers(capability, n + 1))
        candidates = rng.choice(n, size=size, replace=False)
    constraint = None
    if capability > 3 or rng.random() < 0.3:
        constraint = int(rng.integers(capability, capability + 5))
    return polys, capability, candidates, constraint


def per_subset_joint_localize(polys, capability, n, constraint_length=None,
                              candidates=None, rng=None):
    """Reference joint search: one Python pass per capability-sized subset.

    Returns the result and the number of other subsets that tie the winner.
    """
    cand = np.arange(n) if candidates is None else np.unique(candidates)
    full_idx = [i for i, p in enumerate(polys) if p.degree == capability]
    group = []
    if full_idx:
        averaged = average_locators([polys[i] for i in full_idx])
        group.append((averaged, capability, full_idx))
    for i, p in enumerate(polys):
        if p.degree < capability:
            group.append((p, p.degree, [i]))

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
    metrics = [root_metric(poly, n, working) for poly, _, _ in group]
    best_obj, best_subset, best_picks, totals = np.inf, None, None, []
    for subset in combinations(range(working.size), subset_size):
        sel = np.array(subset)
        total = 0.0
        picks = []
        for (_, degree, _), metric in zip(group, metrics):
            vals = metric[sel]
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
    union = np.array(sorted(set(np.concatenate(best_picks).tolist())))
    result = JointLocalizationResult(
        per_poly=per_poly,
        union=union,
        chosen_subset=best_subset,
        objective=best_obj,
        initial_union=initial_union,
        constraint_used=used,
        union_bound_violated=bool(initial_union.size > capability),
        subsets_evaluated=len(totals),
    )
    return result, totals.count(best_obj) - 1


def assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def assert_same_result(actual, expected):
    """Every JointLocalizationResult field equal, arrays in dtype and value."""
    for f in dataclasses.fields(JointLocalizationResult):
        a, e = getattr(actual, f.name), getattr(expected, f.name)
        if f.name == "per_poly":
            assert len(a) == len(e)
            for pa, pe in zip(a, e):
                assert_same_array(pa, pe)
        elif isinstance(e, np.ndarray):
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


class TestAveraging:
    def test_single_polynomial_unchanged(self, code):
        poly = true_locator(code, [1, 4])
        avg = average_locators([poly])
        assert np.array_equal(avg.coeffs, poly.coeffs)

    def test_mixed_degrees_rejected(self, code):
        with pytest.raises(ParameterError):
            average_locators([true_locator(code, [1]), true_locator(code, [1, 2])])

    def test_noise_variance_shrinks_like_one_over_m(self, code):
        base = true_locator(code, [2, 7, 11])
        m, var, reps = 10, 0.04, 1000
        rng = np.random.default_rng(2)
        sq_residuals = []
        for _ in range(reps):
            avg = average_locators([noisy(base, var, rng) for _ in range(m)])
            sq_residuals.append(np.abs(avg.coeffs - base.coeffs) ** 2)
        observed = float(np.mean(sq_residuals))
        assert abs(observed - var / m) <= 0.2 * (var / m)

    def test_affine_average_keeps_normalization(self, code):
        g = true_locator(code, [5, 9])
        flipped = LocatorPolynomial(coeffs=-g.coeffs + 2.0, degree=g.degree)
        avg = average_locators([g, flipped])
        assert avg.coeffs[0] == 1.0


class TestJoint:
    def test_noiseless_all_full_degree_reduces_to_average(self):
        code = build_code(31, 15)
        rng = np.random.default_rng(3)
        support = np.sort(rng.choice(31, size=8, replace=False))
        polys = [true_locator(code, support) for _ in range(12)]
        result = joint_localize(polys, capability=8, n=31)
        expected = independent_localize(average_locators(polys), 8, 31)
        assert np.array_equal(result.union, support)
        for detected in result.per_poly:
            assert np.array_equal(detected, expected)

    def test_mixed_degrees_recover_full_union(self):
        code = build_code(31, 15)
        support = np.array([1, 5, 9, 14, 18, 22, 26, 30])
        full = true_locator(code, support)
        drop_first = true_locator(code, support[1:])
        drop_last = true_locator(code, support[:-1])
        result = joint_localize([full, drop_first, drop_last], capability=8, n=31)
        assert np.array_equal(result.union, support)
        assert np.array_equal(result.per_poly[1], support[1:])
        assert np.array_equal(result.per_poly[2], support[:-1])

    def test_constraint_thinning_is_seeded_and_deterministic(self):
        code = build_code(31, 15)
        rng = np.random.default_rng(4)
        support = np.sort(rng.choice(31, size=8, replace=False))
        polys = [noisy(true_locator(code, support), 0.3, rng) for _ in range(6)]
        first = joint_localize(polys, 8, 31, constraint_length=5,
                               rng=np.random.default_rng(99))
        second = joint_localize(polys, 8, 31, constraint_length=5,
                                rng=np.random.default_rng(99))
        assert np.array_equal(first.chosen_subset, second.chosen_subset)
        assert first.objective == second.objective
        assert first.constraint_used == 5

    def test_objective_is_certified_minimum(self):
        # the search must return exactly what the per-subset reference loop
        # returns, field for field, on a noisy round and on random inputs
        code = build_code(15, 7)
        rng = np.random.default_rng(5)
        support = np.array([2, 6, 10, 13])
        full = [noisy(true_locator(code, support), 0.5, rng) for _ in range(3)]
        low = [noisy(true_locator(code, support[:3]), 0.5, rng) for _ in range(2)]
        low.append(noisy(true_locator(code, support[:2]), 0.5, rng))
        expected, _ = per_subset_joint_localize(full + low, 4, 15)
        assert_same_result(joint_localize(full + low, capability=4, n=15), expected)

        tied = 0
        for n in (7, 11, 15, 31):
            for _ in range(200):
                polys, capability, candidates, constraint = draw_joint_case(rng, n)
                seed = int(rng.integers(2**32))
                expected, ties = per_subset_joint_localize(
                    polys, capability, n, constraint, candidates,
                    np.random.default_rng(seed),
                )
                result = joint_localize(
                    polys, capability, n, constraint, candidates,
                    np.random.default_rng(seed),
                )
                assert_same_result(result, expected)
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
            polys = [noisy(base, var, rng) for _ in range(m_polys)]
            if any(
                not np.array_equal(independent_localize(p, 8, 31), support)
                for p in polys
            ):
                ind_errors += 1
            result = joint_localize(polys, capability=8, n=31)
            if not np.array_equal(result.per_poly[0], support):
                joint_errors += 1
        assert joint_errors <= ind_errors

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            joint_localize([], capability=4, n=15)

    def test_union_bound_violation_is_reported(self):
        code = build_code(15, 7)
        rng = np.random.default_rng(7)
        polys = [noisy(true_locator(code, [1, 5, 9, 12]), 2.0, rng) for _ in range(8)]
        result = joint_localize(polys, capability=4, n=15,
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
            joint = joint_localize([poly], capability=v, n=n)
            assert np.array_equal(joint.per_poly[0], support)
