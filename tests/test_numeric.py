import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcc_lab import dft_code
from alcc_lab.numeric import (
    DimensionError,
    ParameterError,
    dft_matrix,
    least_squares,
    numerical_rank,
    poly_eval,
)


class TestDftMatrix:
    def test_size_one_is_identity(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_size_two_hand_value(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(dft_matrix(2), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 31, 64])
    def test_unitary(self, n):
        w = dft_matrix(n)
        assert np.abs(w @ w.conj().T - np.eye(n)).max() <= 1e-10

    def test_zero_size_rejected(self):
        with pytest.raises(DimensionError):
            dft_matrix(0)


class TestLeastSquares:
    def test_identity_system(self):
        b = np.array([1.0, 1j, -2.0])
        sol = least_squares(np.eye(3), b)
        assert np.allclose(sol.x, b, atol=1e-12)

    def test_overdetermined_hand_value(self):
        sol = least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        assert np.allclose(sol.x, [1.0], atol=1e-12)

    def test_vandermonde_round_trip(self):
        nodes = np.array([1.0, -1.0])
        coeffs = np.array([2.0 - 1j, 0.5 + 0.25j])
        vand = nodes[:, None] ** np.arange(2)
        sol = least_squares(vand, vand @ coeffs)
        assert np.allclose(sol.x, coeffs, atol=1e-12)

    def test_residual_beats_random_competitors(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
            b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            sol = least_squares(a, b)
            residual = np.linalg.norm(a @ sol.x - b)
            for _ in range(100):
                y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                assert residual <= np.linalg.norm(a @ y - b) + 1e-9

    def test_rank_deficient_minimum_norm(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        sol = least_squares(a, np.array([3.0, 3.0, 3.0]))
        assert sol.rank == 1
        assert sol.cond == np.inf or sol.cond > 1e12
        # minimum-norm solution of x1 + x2 = 3 splits evenly
        assert np.allclose(sol.x, [1.5, 1.5], atol=1e-9)

    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            least_squares(np.eye(2), np.zeros(3))
        with pytest.raises(DimensionError):
            least_squares(np.zeros((2, 3)), np.zeros(2))


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3)), 1e-6) == 0

    def test_outer_product_rank_one(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert numerical_rank(np.outer(u, v.conj()), 1e-6) == 1

    def test_two_error_hankel_rank(self):
        # syndrome Hankel of a clean 2-error pattern on the (15,7) code
        code = dft_code.build_code(15, 7)
        error = np.zeros(15, dtype=complex)
        error[[3, 9]] = [2.0 + 1j, -1.5]
        s = dft_code.syndrome(code, error)
        hankel = dft_code.hankel_syndrome_matrix(code, s)
        assert numerical_rank(hankel, 1e-6) == 2

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        tols = [1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 0.9]
        ranks = [numerical_rank(m, t) for t in tols]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_tolerance_range_enforced(self):
        with pytest.raises(ParameterError):
            numerical_rank(np.eye(2), 0.0)


class TestPolyEval:
    def test_constant(self):
        assert poly_eval([5.0], 123.0 + 4j) == 5.0

    def test_known_root(self):
        assert abs(poly_eval([-1.0, 0.0, 1.0], 1.0)) < 1e-15

    def test_hand_value_at_i(self):
        assert np.isclose(poly_eval([1.0, 2.0, 3.0], 1j), -2.0 + 2.0j)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 32))
    @settings(max_examples=30, deadline=None)
    def test_matches_power_sum(self, seed, degree):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        z = complex(rng.standard_normal(), rng.standard_normal()) * 0.9
        naive = sum(c * z**j for j, c in enumerate(coeffs))
        fast = poly_eval(coeffs, z)
        assert abs(fast - naive) <= 1e-12 * max(1.0, abs(naive))
