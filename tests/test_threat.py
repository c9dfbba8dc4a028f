import itertools

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from alcc_lab.numeric import ParameterError
from alcc_lab.threat import (
    ByzantinePlan,
    add_noise,
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


def two_draw_complex_normal(rng, mean, var, size):
    """complex_normal as two draws of `size` joined by a `1j *` product, the reference."""
    draws = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return mean + np.sqrt(var / 2.0) * draws


def two_draw_inject(results, plan, precision_mode, precision_var, rng):
    """inject's noise as complex products of the real draws, the reference."""
    out = np.array(results, dtype=complex)
    if plan is not None and plan.count:
        locations, bases = np.asarray(plan.locations), plan.bases
        order = np.argsort(locations)
        locations, bases = locations[order], bases[order]
        draws = rng.standard_normal((plan.count, 2) + out.shape[1:])
        noise = plan.noise_mean + np.sqrt(plan.noise_var / 2.0) * (
            draws[:, 0] + 1j * draws[:, 1]
        )
        hit = out[locations]
        np.add(hit, noise, out=hit, where=bases.astype(bool))
        out[locations] = hit
    if precision_mode == "synthetic" and precision_var > 0:
        out += two_draw_complex_normal(rng, 0.0, precision_var, out.shape)
    elif precision_mode == "reduced":
        out = out.astype(np.complex64).astype(complex)
    return out


# finite means, signed zeros among them, and variances from zero to large
MEANS = st.one_of(
    st.sampled_from([0.0, -0.0, 10.0, complex(-0.0, -0.0), complex(0.0, -0.0), -2.5 + 3j]),
    st.floats(-1e3, 1e3),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)
VARIANCES = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e6))
SIZES = st.one_of(st.integers(0, 6), st.lists(st.integers(0, 5), max_size=3).map(tuple))


class TestComplexNormal:
    @given(mean=MEANS, var=VARIANCES, size=SIZES, seed_=st.integers(0, 2**32 - 1))
    @example(mean=complex(-0.0, -0.0), var=0.0, size=(3, 4), seed_=1)
    @example(mean=-0.0, var=0.0, size=7, seed_=2)
    @seed(20261020)
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_two_draws(self, mean, var, size, seed_):
        """The same stream and the same bytes, signed zeros included, as two
        draws of `size` joined by complex products."""
        got_rng, ref_rng = np.random.default_rng(seed_), np.random.default_rng(seed_)
        got = complex_normal(got_rng, mean, var, size)
        want = two_draw_complex_normal(ref_rng, mean, var, size)
        assert (got.dtype, np.shape(got)) == (want.dtype, np.shape(want))
        assert got.tobytes() == want.tobytes()
        assert got_rng.bytes(16) == ref_rng.bytes(16)

    @pytest.mark.parametrize("mean,var,name", [
        (0.0, -1.0, "var"), (0.0, np.nan, "var"), (0.0, np.inf, "var"),
        (np.nan, 1.0, "mean"), (complex(np.inf, 0.0), 1.0, "mean"),
        (complex(0.0, -np.inf), 1.0, "mean"),
    ])
    def test_bad_law_rejected_by_name_before_any_draw(self, mean, var, name):
        rng = np.random.default_rng(11)
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            complex_normal(rng, mean, var, (2, 3))
        assert rng.bytes(16) == np.random.default_rng(11).bytes(16)


class TestByzantinePlan:
    @pytest.mark.parametrize("field,value", [
        ("noise_var", -1.0), ("noise_var", np.nan), ("noise_var", np.inf),
        ("noise_mean", complex(np.nan, 0.0)), ("noise_mean", np.inf),
    ])
    def test_bad_noise_law_rejected_by_name(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be"):
            all_one_plan([1, 3], **{field: value})


class TestInject:
    @pytest.mark.parametrize("locations", [(1, 2.5), (True, 3)])
    def test_non_integer_plan_location_rejected_by_name(self, locations):
        # 2.5 used to fail with an IndexError, and True to add the noise at index 1
        with pytest.raises(ParameterError, match="^plan locations index must be an integer"):
            inject(np.zeros((5, 3, 3), dtype=complex), all_one_plan(locations), "synthetic",
                   0.0, np.random.default_rng(0))

    def test_out_of_range_plan_location_rejected(self):
        with pytest.raises(ParameterError, match=r"^plan locations \(1, 5\) must hold"):
            inject(np.zeros((5, 3, 3), dtype=complex), all_one_plan([5, 1]), "synthetic",
                   0.0, np.random.default_rng(0))

    def test_empty_plan_zero_precision_is_identity(self):
        rng = np.random.default_rng(0)
        results = complex_normal(rng, 0.0, 1.0, (5, 3, 3))
        out = inject(results, None, "synthetic", 0.0, rng)
        assert np.array_equal(out, results)

    def test_support_fidelity_bit_exact(self):
        rng = np.random.default_rng(1)
        results = complex_normal(rng, 0.0, 1.0, (7, 3, 4))
        bases = (np.random.default_rng(2).random((2, 3, 4)) < 0.5).astype(int)
        plan = ByzantinePlan(locations=(2, 5), bases=bases)
        out = inject(results, plan, "synthetic", 0.0,
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
        one = inject(results, plan, "synthetic", 1e-4, np.random.default_rng(42))
        two = inject(results, plan, "synthetic", 1e-4, np.random.default_rng(42))
        assert np.array_equal(one, two)

    def test_default_noise_law_moments(self):
        # CN(10, 1e3) draws: sample mean and variance close to the law
        rng = np.random.default_rng(5)
        results = np.zeros((31, 40, 40), dtype=complex)
        plan = all_one_plan([0, 7, 14, 21], u=40, h=40,
                            noise_mean=10.0 + 0j, noise_var=1e3)
        out = inject(results, plan, "synthetic", 0.0, rng)
        draws = out[list(plan.locations)].ravel()
        assert abs(draws.mean() - 10.0) < 1.0
        assert abs(np.var(draws) - 1e3) < 100.0

    def test_locator_mode_leaves_returns_untouched(self):
        rng = np.random.default_rng(6)
        results = complex_normal(rng, 0.0, 1.0, (5, 2, 2))
        out = inject(results, None, "locator", 0.5,
                     np.random.default_rng(7))
        assert np.array_equal(out, results)

    def test_reduced_mode_rounds_to_float32(self):
        results = np.full((2, 1, 1), 1.0 + 1e-12 + 0j)
        out = inject(results, None, "reduced", 0.0,
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

            ref_rng = np.random.default_rng(seed + 1)
            expected = results.copy()
            for a in np.argsort(locations):
                mask = bases[a].astype(bool)
                noise = complex_normal(ref_rng, plan.noise_mean, plan.noise_var, (u, h))
                expected[locations[a]][mask] += noise[mask]
            expected += complex_normal(ref_rng, 0.0, 1e-3, expected.shape)

            got_rng = np.random.default_rng(seed + 1)
            out = inject(results, plan, "synthetic", 1e-3, got_rng)
            assert out.tobytes() == expected.tobytes()
            assert got_rng.bytes(16) == ref_rng.bytes(16)

    @pytest.mark.parametrize("mode", ["synthetic", "locator", "reduced"])
    def test_no_mask_adds_to_whole_blocks_without_touching_results(self, mode):
        """``mask=None`` gives the bytes and stream of an all-True mask, and
        leaves ``results`` as it was, in a new array."""
        for seed_ in range(20):
            rng = np.random.default_rng(seed_)
            n, u, h = int(rng.integers(2, 32)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
            locations = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            results = complex_normal(rng, 0.0, 1.0, (n, u, h))
            before = results.copy()
            mask = np.ones((len(locations), u, h), dtype=bool)
            got_rng, ref_rng = np.random.default_rng(seed_ + 1), np.random.default_rng(seed_ + 1)
            got = add_noise(results, locations, None, 10.0, 1e3, mode, 1e-3, got_rng)
            want = add_noise(results, locations, mask, 10.0, 1e3, mode, 1e-3, ref_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bytes(16) == ref_rng.bytes(16)
            assert results.tobytes() == before.tobytes()
            assert not np.shares_memory(got, results)

    @given(mode=st.sampled_from(("synthetic", "locator", "reduced")),
           with_plan=st.booleans(), n=st.integers(1, 12), u=st.integers(1, 5),
           h=st.integers(1, 5), noise_mean=MEANS, noise_var=VARIANCES,
           precision_var=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           seed_=st.integers(0, 2**32 - 1))
    @example(mode="synthetic", with_plan=True, n=5, u=2, h=3, noise_mean=complex(-0.0, -0.0),
             noise_var=0.0, precision_var=0.0, seed_=3)
    @seed(20261020)
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_two_draw_expressions(self, mode, with_plan, n, u, h, noise_mean,
                                              noise_var, precision_var, seed_):
        """Every precision mode, with and without a plan, gives the bytes and the
        stream of the noise built by complex products of the real draws."""
        aux = np.random.default_rng(seed_)
        results = aux.standard_normal((n, u, h)) + 1j * aux.standard_normal((n, u, h))
        plan = None
        if with_plan:
            count = int(aux.integers(0, n + 1))
            plan = ByzantinePlan(tuple(aux.choice(n, size=count, replace=False).tolist()),
                                 (aux.random((count, u, h)) < 0.6).astype(int),
                                 noise_mean=noise_mean, noise_var=noise_var)
        got_rng, ref_rng = np.random.default_rng(seed_ + 1), np.random.default_rng(seed_ + 1)
        got = inject(results, plan, mode, precision_var, got_rng)
        want = two_draw_inject(results, plan, mode, precision_var, ref_rng)
        assert got.dtype == want.dtype == complex
        assert got.tobytes() == want.tobytes()
        assert got_rng.bytes(16) == ref_rng.bytes(16)

    @pytest.mark.parametrize("mode,var,message", [
        ("exact", 0.0, "precision_mode must be one of"),
        ("synthetic", -1e-3, "precision_var must be non-negative"),
        ("locator", -1.0, "precision_var must be non-negative"),
        ("synthetic", np.nan, "precision_var must be non-negative and finite"),
        ("synthetic", np.inf, "precision_var must be non-negative and finite"),
        ("reduced", np.nan, "precision_var must be non-negative and finite"),
    ])
    def test_bad_precision_rejected_before_any_draw(self, mode, var, message):
        rng = np.random.default_rng(10)
        with pytest.raises(ParameterError, match=message):
            inject(np.zeros((5, 2, 2), dtype=complex), all_one_plan([1], u=2, h=2),
                   mode, var, rng)
        assert rng.bytes(16) == np.random.default_rng(10).bytes(16)

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
