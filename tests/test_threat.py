import itertools

import numpy as np
import pytest
from scipy import optimize, stats

from alcc_lab.numeric import ParameterError
from alcc_lab.threat import (
    ByzantinePlan,
    PrecisionModel,
    complex_normal,
    design_strong_collusion,
    design_weak_collusion,
    inject,
    optimal_zero_probability,
    plan_from_effective_base,
)


def all_one_plan(locations, u=3, h=3, **kwargs):
    bases = np.ones((len(locations), u, h), dtype=int)
    return ByzantinePlan(locations=tuple(locations), bases=bases, **kwargs)


class TestInject:
    def test_empty_plan_zero_precision_is_identity(self):
        rng = np.random.default_rng(0)
        results = complex_normal(rng, 0.0, 1.0, (5, 3, 3))
        out = inject(results, None, PrecisionModel("synthetic", 0.0), rng)
        assert np.array_equal(out, results)

    def test_support_fidelity_bit_exact(self):
        rng = np.random.default_rng(1)
        results = complex_normal(rng, 0.0, 1.0, (7, 3, 4))
        bases = (np.random.default_rng(2).random((2, 3, 4)) < 0.5).astype(int)
        plan = ByzantinePlan(locations=(2, 5), bases=bases)
        out = inject(results, plan, PrecisionModel("synthetic", 0.0),
                     np.random.default_rng(3))
        delta = out - results
        for a, q in enumerate(plan.locations):
            assert np.array_equal(delta[q] != 0, bases[a].astype(bool))
        untouched = [i for i in range(7) if i not in plan.locations]
        assert np.array_equal(out[untouched], results[untouched])

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        results = complex_normal(rng, 0.0, 1.0, (6, 2, 2))
        plan = all_one_plan([1, 3], u=2, h=2)
        precision = PrecisionModel("synthetic", 1e-4)
        one = inject(results, plan, precision, np.random.default_rng(42))
        two = inject(results, plan, precision, np.random.default_rng(42))
        assert np.array_equal(one, two)

    def test_default_noise_law_moments(self):
        # CN(10, 1e3) draws: sample mean and variance close to the law
        rng = np.random.default_rng(5)
        results = np.zeros((31, 40, 40), dtype=complex)
        plan = all_one_plan([0, 7, 14, 21], u=40, h=40,
                            noise_mean=10.0 + 0j, noise_var=1e3)
        out = inject(results, plan, PrecisionModel("synthetic", 0.0), rng)
        draws = out[list(plan.locations)].ravel()
        assert abs(draws.mean() - 10.0) < 1.0
        assert abs(np.var(draws) - 1e3) < 100.0

    def test_locator_mode_leaves_returns_untouched(self):
        rng = np.random.default_rng(6)
        results = complex_normal(rng, 0.0, 1.0, (5, 2, 2))
        out = inject(results, None, PrecisionModel("locator", 0.5),
                     np.random.default_rng(7))
        assert np.array_equal(out, results)

    def test_reduced_mode_rounds_to_float32(self):
        results = np.full((2, 1, 1), 1.0 + 1e-12 + 0j)
        out = inject(results, None, PrecisionModel("reduced", 0.0),
                     np.random.default_rng(8))
        assert out.dtype == complex
        assert np.array_equal(out, results.astype(np.complex64).astype(complex))

    def test_one_draw_matches_per_location_draws_bit_for_bit(self):
        # reference: one complex_normal block per location, ascending, added on
        # the mask; the stream must stay aligned for the precision noise after it.
        # Plans list their locations as drawn, sorted, or sorted in reverse.
        for seed, arrange in itertools.product(range(50), ("drawn", "ascending", "descending")):
            rng = np.random.default_rng(seed)
            n, u, h = int(rng.integers(3, 32)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
            count = int(rng.integers(1, n + 1))
            locations = rng.choice(n, size=count, replace=False)
            if arrange != "drawn":
                locations = np.sort(locations)[:: 1 if arrange == "ascending" else -1]
            bases = (rng.random((count, u, h)) < 0.6).astype(int)
            plan = ByzantinePlan(tuple(locations.tolist()), bases,
                                 noise_mean=complex(*rng.standard_normal(2)),
                                 noise_var=float(rng.uniform(0, 1e3)))
            results = complex_normal(rng, 0.0, 1.0, (n, u, h))
            precision = PrecisionModel("synthetic", 1e-3)

            ref_rng = np.random.default_rng(seed + 1)
            expected = results.copy()
            for a in np.argsort(locations):
                mask = bases[a].astype(bool)
                noise = complex_normal(ref_rng, plan.noise_mean, plan.noise_var, (u, h))
                expected[locations[a]][mask] += noise[mask]
            expected += complex_normal(ref_rng, 0.0, 1e-3, expected.shape)

            got_rng = np.random.default_rng(seed + 1)
            out = inject(results, plan, precision, got_rng)
            assert out.tobytes() == expected.tobytes()
            assert got_rng.bytes(16) == ref_rng.bytes(16)

    def test_effective_base_round_trip(self):
        rng = np.random.default_rng(9)
        b_eff = (rng.random((6, 2)) < 0.5).astype(int)
        plan = plan_from_effective_base(b_eff, [4, 9], u=2, h=3)
        # bases[a] is column a of the effective base, in row-major (u, h) order
        assert plan.bases.shape == (2, 2, 3)
        assert np.array_equal(plan.bases.reshape(2, -1).T, b_eff)


class TestStrongCollusion:
    def test_single_row(self):
        b = design_strong_collusion(1, 4, np.random.default_rng(0))
        assert b.tolist() == [[1, 1, 1, 1]]

    def test_weight_census(self):
        b = design_strong_collusion(9, 4, np.random.default_rng(1))
        weights = sorted(b.sum(axis=1).tolist())
        assert weights == [3] * 8 + [4]

    def test_exactly_one_all_one_row_across_seeds(self):
        for seed in range(100):
            b = design_strong_collusion(12, 5, np.random.default_rng(seed))
            assert int((b.sum(axis=1) == 5).sum()) == 1

    def test_degenerate_single_colluder_warns(self):
        with pytest.warns(UserWarning):
            b = design_strong_collusion(4, 1, np.random.default_rng(2))
        assert b.tolist() == [[1]] * 4


class TestWeakCollusion:
    def test_tiny_zero_probability_gives_all_ones(self):
        b = design_weak_collusion(50, 8, 1e-9, np.random.default_rng(0))
        assert b.all()

    def test_zero_fraction_within_binomial_band(self):
        p = 0.3
        b = design_weak_collusion(1250, 8, p, np.random.default_rng(1))
        entries = b.size
        zeros = entries - int(b.sum())
        sigma = np.sqrt(entries * p * (1 - p))
        assert abs(zeros - entries * p) <= 3 * sigma

    def test_chi_square_goodness_of_fit(self):
        p = 0.257
        rng = np.random.default_rng(2)
        b = design_weak_collusion(12_500, 8, p, rng)
        zeros = b.size - int(b.sum())
        ones = int(b.sum())
        result = stats.chisquare(
            [zeros, ones], [b.size * p, b.size * (1 - p)]
        )
        assert result.pvalue > 0.01

    def test_all_one_row_rate_at_optimum(self):
        v, m = 8, 40_000
        p = optimal_zero_probability(v)
        b = design_weak_collusion(m, v, p, np.random.default_rng(3))
        all_one_rows = int((b.sum(axis=1) == v).sum())
        expected = m * (1 - p) ** v
        assert np.isclose(expected / m, 0.0929, atol=5e-4)
        assert abs(all_one_rows - expected) <= 4 * np.sqrt(expected)

    def test_probability_bounds(self):
        with pytest.raises(ParameterError):
            design_weak_collusion(4, 4, 0.0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            design_weak_collusion(4, 4, 1.0, np.random.default_rng(0))


class TestOptimalZeroProbability:
    def test_reported_value_for_eight(self):
        assert abs(optimal_zero_probability(8) - 0.257) <= 1e-3

    def test_closed_form_for_two(self):
        assert np.isclose(optimal_zero_probability(2), 0.5)

    @pytest.mark.parametrize("v", range(2, 17))
    def test_matches_golden_section_oracle(self, v):
        objective = lambda p: p + (1 - p) ** v
        found = optimize.minimize_scalar(
            objective, bracket=(1e-6, 0.5, 1 - 1e-6), method="golden",
            options={"xtol": 1e-12},
        ).x
        assert abs(optimal_zero_probability(v) - found) <= 1e-6

    @pytest.mark.parametrize("v", range(2, 17))
    def test_first_order_condition(self, v):
        p = optimal_zero_probability(v)
        assert abs(1 - v * (1 - p) ** (v - 1)) <= 1e-9

    def test_small_v_rejected(self):
        with pytest.raises(ParameterError):
            optimal_zero_probability(1)
