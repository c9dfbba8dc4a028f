import math

import numpy as np
import pytest

from alcc_lab import bounds
from alcc_lab.bounds import (
    assignment_pair_log_bound,
    confusability,
    dominant_term_bound,
    gamma_bounds,
    kappa,
    localization_upper_bound,
    locator_gain,
    pep_lower_bound,
    strong_collusion_objective,
)
from alcc_lab.numeric import ParameterError


def sigma_diff_sq(sigma_p_sq: float, a: int, theta_d: float) -> float:
    """Reference variance of the evaluation difference: sigma_p^2 * (a - sum cos(l*theta))."""
    return sigma_p_sq * (a - sum(math.cos(l * theta_d) for l in range(1, a + 1)))


def reference_pep(n, support, probe, eta, sigma_p_sq, true_index=None):
    """The pairwise bound composed field by field as the removed PepContext did."""
    support = sorted(int(q) for q in support)
    true_index = support[0] if true_index is None else int(true_index)
    c = locator_gain(n, support, probe)
    c_re, c_im = c.real, c.imag
    kap = kappa(n, len(support), abs(int(probe) - true_index), eta)
    ratio = kap / (1.0 + kap)
    c_sq = c_re**2 + c_im**2
    if sigma_p_sq == 0.0:
        return 0.0 if c_sq > 0.0 else ratio
    return ratio * math.exp(-eta * c_sq * ratio / (4.0 * sigma_p_sq))


def reference_union(n, support, sigma_p_sq, eta):
    """(value, raw_sum, pair_count) summed one pair at a time in probe-major order."""
    support = sorted(int(q) for q in support)
    others = [j for j in range(n) if j not in support]
    total = 0.0
    for probe in others:
        for true_index in support:
            total += reference_pep(n, support, probe, eta, sigma_p_sq, true_index)
    return min(total, 1.0), total, len(support) * len(others)


def reference_dominant(a_c, n, sigma_p_sq, eta):
    """The dominant term as the exp of its own log, kappa/(1+kappa) spelled out."""
    kap = kappa(n, a_c, 1, eta)
    ratio = kap / (1.0 + kap)
    return math.exp(math.log(a_c) + math.log(ratio) - eta * 1.0 * ratio / (4.0 * sigma_p_sq))


def reference_gamma_bounds(n, a, eta):
    ratios = []
    for gap in range(1, n):
        kap = kappa(n, a, gap, eta)
        ratios.append(kap / (1.0 + kap))
    return min(ratios), max(ratios)


def reference_strong(m_rows, v, omega, n, sigma_p_sq, eta):
    """The strong-collusion objective with both of its terms written out."""
    kap2 = kappa(n, v - 1, 1, eta)
    ratio2 = kap2 / (1.0 + kap2)
    reduced_term = (v - 1) * ratio2 * math.exp(-eta * 1.0 * ratio2 / (4.0 * sigma_p_sq))
    if omega == 0:
        return reduced_term
    kap1 = kappa(n, v, 1, eta)
    ratio1 = kap1 / (1.0 + kap1)
    full_term = v * ratio1 * math.exp(-omega * eta * 1.0 * ratio1 / (4.0 * sigma_p_sq))
    share = 1.0 / (m_rows - omega + 1)
    return share * full_term + (m_rows - omega) * share * reduced_term


SURROGATE_GRID = [(n, var, eta) for n in (15, 31, 63)
                  for var in (1e-4, 1e-3, 1e-2, 0.1, 1.0) for eta in (1.0, 10.0)]


class TestReferencePins:
    """The bounds match their written-out reference compositions.

    Bit for bit, apart from the strong-collusion objective, whose all-one term
    now scales the noise rather than the exponent by omega.
    """

    def test_dominant_term_bit_for_bit(self):
        for n, var, eta in SURROGATE_GRID:
            for a in range(1, 9):
                assert dominant_term_bound(a, n, var, eta).hex() == reference_dominant(
                    a, n, var, eta).hex()

    def test_gamma_bounds_bit_for_bit(self):
        for n, _, eta in SURROGATE_GRID:
            for a in range(1, 9):
                got = tuple(x.hex() for x in gamma_bounds(n, a, eta))
                assert got == tuple(x.hex() for x in reference_gamma_bounds(n, a, eta))

    def test_strong_collusion_within_rounding(self):
        # 28,980 values: m in {10, 25, 100}, v = 2..8 and every omega
        for n, var, eta in SURROGATE_GRID:
            for m in (10, 25, 100):
                for v in range(2, 9):
                    for omega in range(m + 1):
                        got = strong_collusion_objective(m, v, omega, n, var, eta)
                        ref = reference_strong(m, v, omega, n, var, eta)
                        assert abs(got - ref) <= 1e-12 * ref, (m, v, omega, n, var, eta)

    def test_pep_lower_bound_on_criterion_4_contexts(self):
        rng = np.random.default_rng(40_240_810)  # criterion 4's contexts
        grid = [0.0] + [1e-4 * 10**j for j in range(7)]
        for _ in range(100):
            n = int(rng.integers(8, 48))
            size = int(rng.integers(1, 5))
            support = rng.choice(n, size=size, replace=False)
            probe = int(rng.choice([j for j in range(n) if j not in support]))
            for var in grid:
                for true_index in (None, *support.tolist()):
                    got = pep_lower_bound(n, support, probe, 10.0, var, true_index)
                    assert got.hex() == reference_pep(
                        n, support, probe, 10.0, var, true_index).hex()

    def test_localization_upper_bound_fields(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            size = int(rng.integers(0, min(n, 6)))
            support = rng.choice(n, size=size, replace=False).tolist()
            var = float(10 ** rng.uniform(-4, 3))
            eta = float(rng.uniform(0.5, 20.0))
            bound = localization_upper_bound(n, support, var, eta)
            value, raw_sum, pair_count = reference_union(n, support, var, eta)
            assert (bound.value.hex(), bound.raw_sum.hex(), bound.pair_count) == (
                value.hex(), raw_sum.hex(), pair_count)


class TestKappa:
    def test_antipodal_hand_value(self):
        # A=1, gap=N/2 on even N: kappa = 2/(eta * (1 - cos pi)) = 2/(2 eta)
        assert np.isclose(kappa(10, 1, 5, eta=10.0), 0.1)

    def test_grows_as_gap_shrinks(self):
        values = [kappa(31, 1, gap, 10.0) for gap in (1, 2, 3, 4)]
        assert values[0] > values[1] > values[2] > values[3]

    def test_matches_direct_summation(self):
        n, a, gap, eta = 31, 8, 1, 10.0
        total = 0.0
        for l in range(1, a + 1):
            total += 1.0 - math.cos(l * 2.0 * math.pi * gap / n)
        assert abs(kappa(n, a, gap, eta) - 2.0 / (eta * total)) <= 1e-12

    def test_gap_range_enforced(self):
        with pytest.raises(ParameterError):
            kappa(10, 1, 0, 10.0)


class TestSigmaDiff:
    def test_zero_angle_degenerates(self):
        assert sigma_diff_sq(0.5, 3, 0.0) == 0.0

    def test_single_term(self):
        theta = 0.7
        assert np.isclose(sigma_diff_sq(2.0, 1, theta), 2.0 * (1 - math.cos(theta)))

    def test_kappa_identity(self):
        # kappa = (2/eta) * sigma_p^2 / sigma_diff^2 across random parameters
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 64))
            a = int(rng.integers(1, 6))
            gap = int(rng.integers(1, n))
            eta = float(rng.uniform(0.5, 20))
            var = float(rng.uniform(1e-4, 10))
            theta = 2 * math.pi * gap / n
            lhs = kappa(n, a, gap, eta)
            rhs = (2.0 / eta) * var / sigma_diff_sq(var, a, theta)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestPepLowerBound:
    @staticmethod
    def _term(sigma_p_sq=0.01, c_sq=1.25):
        """The per-pair formula at N=31, A=4, eta=10 and index gap 4 (true 3, probe 7)."""
        return bounds._pep_term(31, 4, 4, 10.0, sigma_p_sq, c_sq)

    def test_zero_constants_give_prefactor(self):
        kap = kappa(31, 4, 4, 10.0)
        assert np.isclose(self._term(c_sq=0.0), kap / (1 + kap))

    def test_large_noise_limit_from_below(self):
        kap = kappa(31, 4, 4, 10.0)
        limit = kap / (1 + kap)
        small = self._term(sigma_p_sq=1.0)
        large = self._term(sigma_p_sq=1e6)
        assert small < large < limit

    def test_zero_noise_limit(self):
        assert self._term(sigma_p_sq=0.0) == 0.0

    def test_value_in_unit_interval(self):
        value = self._term()
        assert 0.0 < value < 1.0

    def test_nondecreasing_in_noise_for_random_contexts(self):
        rng = np.random.default_rng(1)
        grid = [1e-4 * 10**j for j in range(7)]
        for _ in range(100):
            n = int(rng.integers(8, 48))
            support_size = int(rng.integers(1, 5))
            support = rng.choice(n, size=support_size, replace=False)
            probe = int(rng.choice([j for j in range(n) if j not in support]))
            values = []
            for var in grid:
                values.append(pep_lower_bound(n, support, probe, 10.0, var))
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12

    @staticmethod
    def simulated_pairwise_rate(n, support, probe, sigma_p_sq, draws=40_000, seed=10):
        """Rate and standard error of |g(gamma^probe)|^2 < |g(gamma^true)|^2, true the
        smallest support index, with CN(0, sigma^2) added to all a+1 locator coefficients
        (as `precision_mode=locator` adds it)."""
        coeffs = np.ones(1, dtype=complex)
        for q in support:  # g(z) = prod (1 - z / gamma^q), ascending, g_0 = 1
            coeffs = np.convolve(coeffs, [1.0, -np.exp(2j * np.pi * q / n)])
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((draws, coeffs.size)) + 1j * rng.standard_normal(
            (draws, coeffs.size))
        noisy = coeffs + np.sqrt(sigma_p_sq / 2.0) * noise
        powers = np.arange(coeffs.size)
        at = lambda q: np.abs(noisy @ np.exp(-2j * np.pi * q * powers / n)) ** 2  # noqa: E731
        rate = float(np.mean(at(probe) < at(min(support))))
        return rate, math.sqrt(rate * (1.0 - rate) / draws)

    @pytest.mark.parametrize("n,support,probe,sigma_p_sq", [
        (31, (0, 4, 8, 12, 16, 19, 23, 27), 1, 0.1),  # the spread support of criterion 5
        (11, (0, 3), 1, 0.1),
    ])
    def test_lies_below_the_simulated_rate(self, n, support, probe, sigma_p_sq):
        rate, se = self.simulated_pairwise_rate(n, support, probe, sigma_p_sq)
        assert pep_lower_bound(n, support, probe, 10.0, sigma_p_sq) < rate + 4 * se

    def test_exceeds_the_simulated_rate_where_kappa_ratio_passes_one_half(self):
        """Small a, gap 1 and large N give kappa/(1+kappa) > 1/2. As sigma^2 grows the
        two grid values become exchangeable and the rate tends to 1/2, while the
        bound tends to kappa/(1+kappa): there it is no lower bound."""
        n, support, probe, sigma_p_sq = 41, (28, 30), 27, 0.158
        assert bounds._gamma(n, len(support), 1, 10.0) > 0.5
        rate, se = self.simulated_pairwise_rate(n, support, probe, sigma_p_sq)
        bound = pep_lower_bound(n, support, probe, 10.0, sigma_p_sq)
        assert abs(rate - 0.483) < 4 * se and round(bound, 3) == 0.729
        assert bound > rate + 4 * se

    def test_identical_indices_rejected(self):
        with pytest.raises(ParameterError, match="probe and true index must differ"):
            pep_lower_bound(31, [3, 9], 3, 10.0, 0.01)
        with pytest.raises(ParameterError, match="probe and true index must differ"):
            pep_lower_bound(31, [3, 9], 9, 10.0, 0.01, true_index=9)


class TestUnionBound:
    def test_empty_support(self):
        assert localization_upper_bound(10, [], 0.1, 10.0).value == 0.0

    def test_single_error_hand_assembled(self):
        n, eta, var = 3, 10.0, 0.5
        support = [0]
        bound = localization_upper_bound(n, support, var, eta)
        total = 0.0
        for probe in (1, 2):
            c = locator_gain(n, support, probe)
            kap = kappa(n, 1, abs(probe - 0), eta)
            ratio = kap / (1 + kap)
            total += ratio * math.exp(-eta * abs(c) ** 2 * ratio / (4 * var))
        assert np.isclose(bound.raw_sum, total)
        assert bound.pair_count == 2

    def test_clamped_to_unit(self):
        bound = localization_upper_bound(31, list(range(8)), 1e3, 10.0)
        assert bound.raw_sum > 1.0
        assert bound.value == 1.0
        small = localization_upper_bound(31, [0, 5], 1e-3, 10.0)
        assert small.value == small.raw_sum < 1.0

    @pytest.mark.parametrize("support", [[3, 3], [0, 11], [-1, 2]])
    def test_repeated_or_out_of_range_support_rejected(self, support):
        with pytest.raises(ParameterError, match="distinct indices"):
            localization_upper_bound(11, support, 0.1, 10.0)


class TestDominantTerm:
    def test_nondecreasing_in_count(self):
        values = [dominant_term_bound(a, 31, 0.01, 10.0) for a in range(1, 9)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo

    def test_single_count_is_plain_pair_term(self):
        kap = kappa(31, 1, 1, 10.0)
        ratio = kap / (1 + kap)
        expected = ratio * math.exp(-10.0 * ratio / (4 * 0.01))
        assert np.isclose(dominant_term_bound(1, 31, 0.01, 10.0), expected)

    def test_log_decomposition(self):
        for a in range(1, 9):
            kap = kappa(31, a, 1, 10.0)
            ratio = kap / (1 + kap)
            direct = math.log(a) + math.log(ratio) - (10.0 * 1.0 / (4 * 0.01)) * ratio
            assert abs(math.log(dominant_term_bound(a, 31, 0.01, 10.0)) - direct) <= 1e-9


class TestStrongCollusionObjective:
    def test_full_averaging_boundary(self):
        m, v, n = 10, 8, 31
        value = strong_collusion_objective(m, v, m, n, 0.01, 10.0)
        kap = kappa(n, v, 1, 10.0)
        ratio = kap / (1 + kap)
        expected = v * ratio * math.exp(-m * 10.0 * ratio / (4 * 0.01))
        assert np.isclose(value, expected)

    def test_single_all_one_row_is_optimal(self):
        m, v, n, var = 100, 8, 31, 0.01
        values = [strong_collusion_objective(m, v, om, n, var, 10.0)
                  for om in range(m + 1)]
        assert int(np.argmax(values)) == 1

    def test_decreasing_beyond_one(self):
        m, v, n, var = 100, 8, 31, 0.01
        values = [strong_collusion_objective(m, v, om, n, var, 10.0)
                  for om in range(2, m + 1)]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo

    def test_averaged_noise_underflow_takes_the_limit(self):
        # 5e-324 / 5 rounds to 0.0: the all-one rows' term is its zero-noise limit
        assert 5e-324 / 5 == 0.0
        assert strong_collusion_objective(10, 8, 5, 31, 5e-324, 10.0) == 0.0

    def test_omega_range_enforced(self):
        with pytest.raises(ParameterError):
            strong_collusion_objective(10, 8, 11, 31, 0.01, 10.0)


BAD_NOISE_VALUES = [0.0, -1.0, math.nan, math.inf]


class TestNoiseParameterChecks:
    """Every entry point that takes eta and sigma_p_sq rejects them unless finite and positive."""

    ENTRY_POINTS = {
        "union": lambda eta, var: localization_upper_bound(11, [0, 3], var, eta),
        "dominant": lambda eta, var: dominant_term_bound(2, 11, var, eta),
        "strong": lambda eta, var: strong_collusion_objective(10, 8, 1, 31, var, eta),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("value", BAD_NOISE_VALUES)
    @pytest.mark.parametrize("field", ["eta", "sigma_p_sq"])
    def test_rejected_by_name(self, entry, value, field):
        args = {"eta": 10.0, "sigma_p_sq": 0.01, field: value}
        with pytest.raises(ParameterError, match=f"^{field} must be finite and positive"):
            self.ENTRY_POINTS[entry](args["eta"], args["sigma_p_sq"])


class TestGammaBounds:
    def test_max_is_nearest_gap(self):
        lo, hi = gamma_bounds(31, 2, 10.0)
        kap1 = kappa(31, 2, 1, 10.0)
        assert np.isclose(hi, kap1 / (1 + kap1))
        assert 0.0 < lo < hi


class TestConfusability:
    def test_probe_inside_support_is_zero(self):
        assert confusability([2, 5], 5, 11) == 0.0

    def test_antipodal_chord_is_four(self):
        assert np.isclose(confusability([0], 5, 10, metric="chord"), 4.0)

    def test_chord_metric_rotation_invariant(self):
        support = [1, 4, 7]
        probe = 9
        base = confusability(support, probe, 11, metric="chord")
        for shift in range(1, 11):
            rotated = [(q + shift) % 11 for q in support]
            value = confusability(rotated, (probe + shift) % 11, 11, metric="chord")
            assert abs(value - base) <= 1e-12 * max(1.0, base)

    def test_integer_metric_literal_reading(self):
        assert confusability([1, 4], 6, 11) == (6 - 1) ** 2 * (6 - 4) ** 2

    def test_unknown_metric_rejected(self):
        with pytest.raises(ParameterError):
            confusability([1], 2, 5, metric="manhattan")


def pair_bound(support, probe, metric="integer"):
    """The dominant term itself, exp of its log bound (N=11, eta=10, gamma 0.2)."""
    return math.exp(assignment_pair_log_bound(support, probe, 11, 10.0, 0.2, 1.0,
                                              metric=metric))


class TestAssignmentPairBound:
    def test_zero_distance_gives_one(self):
        assert pair_bound([3], 3) == 1.0

    def test_rotation_invariance_under_chord_metric(self):
        support, probe = [1, 5], 8
        base = pair_bound(support, probe, metric="chord")
        rotated = pair_bound([(q + 3) % 11 for q in support], (probe + 3) % 11,
                             metric="chord")
        assert abs(base - rotated) <= 1e-12
