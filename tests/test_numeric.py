import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcc_lab import dft_code, numeric
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


EPS = np.finfo(float).eps


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _with_singular_values(rng, sv, rows):
    """Stack U diag(sv) V^H of (len(sv), rows, cols) systems with random unitary U, V."""
    stack, cols = sv.shape
    u = np.linalg.qr(_crandn(rng, stack, rows, cols))[0]
    v = np.linalg.qr(_crandn(rng, stack, cols, cols))[0]
    return (u * sv[:, None, :]) @ v.conj().swapaxes(-1, -2)


def _assert_matches_lstsq(a, b):
    """Each system of the stack solves as np.linalg.lstsq(rcond=None) solves it alone.

    x agrees within the least-squares perturbation bound eps * kappa * (|x| +
    kappa |r| / s_max) of the kept singular values, rank agrees exactly, and
    cond lies in [kappa_2, cols * kappa_2]; a system lstsq cuts reports a cond
    at or beyond its cut-off.
    """
    sol = least_squares(a, b)
    rows, cols = a.shape[-2:]
    vector = b.ndim == a.ndim - 1
    stack = a.shape[:-2]
    assert sol.x.shape == stack + (cols,) + (() if vector else b.shape[-1:])
    assert sol.rank.shape == stack and sol.cond.shape == stack
    for idx in np.ndindex(stack):
        x_ref, _, rank_ref, sv = np.linalg.lstsq(a[idx], b[idx], rcond=None)
        assert sol.rank[idx] == rank_ref
        kept = sv[:rank_ref] if rank_ref else np.ones(1)
        kappa = kept[0] / kept[-1]
        resid = np.linalg.norm(b[idx] - a[idx] @ x_ref)
        tol = 64 * EPS * kappa * (np.linalg.norm(x_ref) + kappa * resid / kept[0])
        assert np.linalg.norm(sol.x[idx] - x_ref) <= tol
        if rank_ref == cols:
            kappa2 = sv[0] / sv[-1]
            slack = 64 * EPS * kappa2
            assert kappa2 * (1 - slack) <= sol.cond[idx] <= cols * kappa2 * (1 + slack)
        else:
            assert sol.cond[idx] >= 1 / (EPS * max(rows, cols))


class TestLeastSquaresAgainstLstsq:
    """Pins the stacked solver system by system against np.linalg.lstsq."""

    def test_well_conditioned(self):
        rng = np.random.default_rng(10)
        _assert_matches_lstsq(_crandn(rng, 40, 7, 4), _crandn(rng, 40, 7))

    def test_graded_singular_values_straddle_cutoff(self):
        rng = np.random.default_rng(11)
        rows, cols = 8, 4
        cutoff = EPS * max(rows, cols)
        smallest = cutoff * np.array([1e10, 1e4, 30.0, 3.0, 0.4, 0.1, 1e-3, 0.0])
        sv = np.repeat(np.geomspace(1.0, 1e-3, cols - 1)[None], 3 * smallest.size, 0)
        sv = np.column_stack([sv, np.tile(smallest, 3)])
        a = _with_singular_values(rng, sv, rows)
        b = a @ _crandn(rng, sv.shape[0], cols)[..., None]
        _assert_matches_lstsq(a, b[..., 0])
        # both sides of the cut-off are exercised
        ranks = least_squares(a, b[..., 0]).rank
        assert set(ranks.tolist()) == {cols - 1, cols}

    def test_exactly_rank_deficient(self):
        rng = np.random.default_rng(12)
        a = _crandn(rng, 4, 6, 3)
        a[0, :, 1] = 0.0  # zero column
        a[1, :, 2] = a[1, :, 0]  # repeated column
        a[2] = np.outer(_crandn(rng, 6), _crandn(rng, 3))  # rank one
        a[3] = 0.0
        b = _crandn(rng, 4, 6)
        _assert_matches_lstsq(a, b)
        sol = least_squares(a, b)
        assert sol.rank.tolist() == [2, 2, 1, 0]
        assert sol.x[0, 1] == 0.0

    def test_mixed_stack_rows_solve_as_alone(self):
        rng = np.random.default_rng(13)
        a = _crandn(rng, 6, 5, 3)
        a[1, :, 0] = 0.0
        a[4] = 0.0
        b = _crandn(rng, 6, 5)
        sol = least_squares(a, b)
        for i in range(a.shape[0]):
            alone = least_squares(a[i], b[i])
            assert sol.rank[i] == alone.rank
            assert np.allclose(sol.x[i], alone.x, rtol=1e-12, atol=1e-14)
            assert np.isclose(sol.cond[i], alone.cond, rtol=1e-12) or (
                np.isinf(sol.cond[i]) and np.isinf(alone.cond)
            )
        _assert_matches_lstsq(a, b)

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(14)
        a = _crandn(rng, 5, 6, 3)
        a[2, :, 1] = 0.0
        _assert_matches_lstsq(a, _crandn(rng, 5, 6, 4))

    @pytest.mark.parametrize("rhs_tail", [(), (2,)])
    def test_empty_stack(self, rhs_tail):
        sol = least_squares(np.zeros((0, 4, 3)), np.zeros((0, 4) + rhs_tail))
        assert sol.x.shape == (0, 3) + rhs_tail
        assert sol.rank.shape == (0,) and sol.cond.shape == (0,)

    @pytest.mark.parametrize(
        "shape", [(256, 4, 4), (256, 8, 4), (25, 16, 8), (25, 4, 2), (25, 2, 2)]
    )
    def test_workload_shapes(self, shape):
        # consistent systems plus a small residual, as the decoder's noisy solves
        rng = np.random.default_rng(shape[0] * shape[1] + shape[2])
        a = _crandn(rng, *shape)
        b = a @ _crandn(rng, shape[0], shape[2], 1) + 1e-6 * _crandn(rng, shape[0], shape[1], 1)
        _assert_matches_lstsq(a, b[..., 0])

    def test_locator_systems_of_a_real_code(self):
        # the syndrome windows dft_code.locator_polynomial hands to the solver
        code = dft_code.build_code(15, 7)
        rng = np.random.default_rng(15)
        errors = np.zeros((30, 15), dtype=complex)
        for row in errors:
            row[rng.choice(15, 3, replace=False)] = _crandn(rng, 3)
        s = dft_code.syndrome(code, errors)[..., : 2 * code.capability]
        for count in (2, 3):
            windows = np.lib.stride_tricks.sliding_window_view(s, count + 1, axis=-1)
            _assert_matches_lstsq(windows[..., :count], -windows[..., count])


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


class TestLeastSquaresPaths:
    def test_only_cut_systems_are_solved_by_svd(self, monkeypatch):
        solved = []
        svd_solve = numeric._svd_least_squares

        def spy(a, rhs):
            solved.append(a.shape[0])
            return svd_solve(a, rhs)

        monkeypatch.setattr(numeric, "_svd_least_squares", spy)
        rng = np.random.default_rng(16)
        a = _crandn(rng, 8, 5, 3)
        a[2, :, 1] = 0.0  # exactly singular R
        a[5, :, 2] = a[5, :, 0]  # R diagonal at rounding level
        least_squares(a, _crandn(rng, 8, 5))
        assert solved == [2]

    def test_cond_is_frobenius_condition_number(self):
        rng = np.random.default_rng(17)
        a = _crandn(rng, 20, 6, 4)
        expected = [np.linalg.norm(m) * np.linalg.norm(np.linalg.pinv(m)) for m in a]
        assert np.allclose(least_squares(a, _crandn(rng, 20, 6)).cond, expected, rtol=1e-10)
