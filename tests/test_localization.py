from itertools import combinations

import numpy as np
import pytest

from alcc_lab.dft_code import LocatorPolynomial, build_code, true_locator
from alcc_lab.localization import (
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
    return poly.perturbed(complex_normal(rng, 0.0, var, poly.degree + 1))


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
        # re-enumerate the search space independently and compare; the search
        # scores the averaged full-degree polynomial plus each lower-degree one
        code = build_code(15, 7)
        rng = np.random.default_rng(5)
        support = np.array([2, 6, 10, 13])
        full = [noisy(true_locator(code, support), 0.5, rng) for _ in range(3)]
        low = [noisy(true_locator(code, support[:3]), 0.5, rng) for _ in range(2)]
        low.append(noisy(true_locator(code, support[:2]), 0.5, rng))
        result = joint_localize(full + low, capability=4, n=15)
        working = result.initial_union
        assert working.size <= 12
        scored = [average_locators(full)] + low
        size = min(4, working.size)
        best = np.inf
        for subset in combinations(working.tolist(), size):
            total = 0.0
            for poly in scored:
                metric = root_metric(poly, 15, np.array(subset))
                total += float(np.sort(metric)[: poly.degree].sum())
            best = min(best, total)
        assert np.isclose(result.objective, best)
        assert result.subsets_evaluated == len(
            list(combinations(working.tolist(), size))
        )

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
