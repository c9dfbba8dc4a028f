import dataclasses
import warnings
from itertools import combinations
from typing import Literal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcc_lab import dft_code, selftest
from alcc_lab.numeric import (
    DimensionError,
    ParameterError,
    check_fields,
    check_index_set,
    dft_matrix,
    least_squares,
    numerical_rank,
    poly_eval,
)


class TestCheckIndexSet:
    @pytest.mark.parametrize("values", [
        (4, 0, 2), [4, 0, 2], np.array([4, 0, 2]), np.array([4, 0, 2], dtype=np.uint8),
        (np.int64(4), 0, np.int32(2)), range(0, 5, 2)[::-1],
    ])
    def test_returns_the_sorted_int_array(self, values):
        got = check_index_set("pool", values, 5)
        assert got.tolist() == [0, 2, 4] and got.dtype == int

    def test_empty_set_is_an_empty_int_array(self):
        got = check_index_set("pool", (), 5)
        assert got.shape == (0,) and got.dtype == int

    @pytest.mark.parametrize("values", [
        (0, 2.5), (0, 2.0), (True, 3), [np.True_, 3], ("1", 2), np.array([0.0, 1.0]),
        np.array([[0, 1]]),
    ])
    def test_non_integer_rejected_by_name(self, values):
        with pytest.raises(ParameterError, match="^pool index must be an integer, got"):
            check_index_set("pool", values, 5)

    @pytest.mark.parametrize("values,named", [
        ((3, 3), r"\(3, 3\)"), ((5, 0), r"\(0, 5\)"), ((-1, 2), r"\(-1, 2\)"),
    ], ids=["repeated", "above", "negative"])
    def test_repeated_or_out_of_range_rejected_by_name(self, values, named):
        with pytest.raises(ParameterError, match=f"^pool {named} must hold distinct indices in 0..4$"):
            check_index_set("pool", values, 5)


@dataclasses.dataclass(frozen=True)
class Checked:
    count: int = 1
    scale: float = 1.5
    flag: bool = True
    mode: Literal["a", "b"] = "a"
    indices: tuple[int, ...] | None = None
    limit: int | None = None

    def __post_init__(self):
        check_fields(self)


class TestCheckFields:
    def test_plain_values_kept_as_they_are(self):
        count, scale, mode = 10**20, 2.5, "".join("ab")[1:]
        got = Checked(count=count, scale=scale, mode=mode, indices=(3, 1))
        assert got.count is count and got.scale is scale and got.mode is mode
        assert got.indices == (3, 1)

    def test_numpy_scalars_and_sequences_stored_plain(self):
        got = Checked(count=np.int64(3), scale=2, flag=np.False_, mode=np.str_("b"),
                      indices=[np.int32(3), 1], limit=np.uint16(4))
        want = Checked(count=3, scale=2.0, flag=False, mode="b", indices=(3, 1), limit=4)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert [type(getattr(got, f.name)) for f in dataclasses.fields(Checked)] == [
            int, float, bool, str, tuple, int]
        assert type(got.indices[0]) is int

    @pytest.mark.parametrize("field,value,message", [
        ("count", 2.0, "count must be an integer, got 2.0"),
        ("count", None, "count must be an integer, got None"),
        ("scale", float("nan"), "scale must be finite and real, got nan"),
        ("scale", False, "scale must be finite and real, got False"),
        ("scale", "1", "scale must be finite and real, got '1'"),
        ("flag", 1, "flag must be a bool, got 1"),
        ("mode", "c", "mode must be one of ('a', 'b'), got 'c'"),
        ("indices", (1, 2.5), "indices index must be an integer, got 2.5"),
        ("indices", 3, "indices must be a sequence of integers, got 3"),
        ("limit", True, "limit must be an integer, got True"),
    ])
    def test_bad_value_rejected_by_name(self, field, value, message):
        with pytest.raises(ParameterError) as info:
            Checked(**{field: value})
        assert str(info.value) == message

    def test_unsupported_annotation_is_a_type_error(self):
        @dataclasses.dataclass(frozen=True)
        class Named:
            name: str = "x"

            def __post_init__(self):
                check_fields(self)

        with pytest.raises(TypeError, match="no check"):
            Named()


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
        assert np.allclose(least_squares(np.eye(3), b), b, atol=1e-12)

    def test_overdetermined_hand_value(self):
        x = least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        assert np.allclose(x, [1.0], atol=1e-12)

    def test_vandermonde_round_trip(self):
        nodes = np.array([1.0, -1.0])
        coeffs = np.array([2.0 - 1j, 0.5 + 0.25j])
        vand = nodes[:, None] ** np.arange(2)
        assert np.allclose(least_squares(vand, vand @ coeffs), coeffs, atol=1e-12)

    def test_residual_beats_random_competitors(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
            b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            residual = np.linalg.norm(a @ least_squares(a, b) - b)
            for _ in range(100):
                y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                assert residual <= np.linalg.norm(a @ y - b) + 1e-9

    def test_rank_deficient_minimum_norm(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        x = least_squares(a, np.array([3.0, 3.0, 3.0]))
        # minimum-norm solution of x1 + x2 = 3 splits evenly
        assert np.allclose(x, [1.5, 1.5], atol=1e-9)

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
    kappa |r| / s_max) of the kept singular values.
    """
    x = least_squares(a, b)
    cols = a.shape[-1]
    vector = b.ndim == a.ndim - 1
    stack = a.shape[:-2]
    assert x.shape == stack + (cols,) + (() if vector else b.shape[-1:])
    for idx in np.ndindex(stack):
        x_ref, _, rank_ref, sv = np.linalg.lstsq(a[idx], b[idx], rcond=None)
        kept = sv[:rank_ref] if rank_ref else np.ones(1)
        kappa = kept[0] / kept[-1]
        resid = np.linalg.norm(b[idx] - a[idx] @ x_ref)
        tol = 64 * EPS * kappa * (np.linalg.norm(x_ref) + kappa * resid / kept[0])
        assert np.linalg.norm(x[idx] - x_ref) <= tol


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
        ranks = {np.linalg.lstsq(m, rhs, rcond=None)[2] for m, rhs in zip(a, b[..., 0])}
        assert ranks == {cols - 1, cols}

    def test_exactly_rank_deficient(self):
        rng = np.random.default_rng(12)
        a = _crandn(rng, 4, 6, 3)
        a[0, :, 1] = 0.0  # zero column
        a[1, :, 2] = a[1, :, 0]  # repeated column
        a[2] = np.outer(_crandn(rng, 6), _crandn(rng, 3))  # rank one
        a[3] = 0.0
        b = _crandn(rng, 4, 6)
        _assert_matches_lstsq(a, b)
        assert least_squares(a, b)[0, 1] == 0.0

    def test_mixed_stack_rows_solve_as_alone(self):
        rng = np.random.default_rng(13)
        a = _crandn(rng, 6, 5, 3)
        a[1, :, 0] = 0.0
        a[4] = 0.0
        b = _crandn(rng, 6, 5)
        x = least_squares(a, b)
        for i in range(a.shape[0]):
            assert np.allclose(x[i], least_squares(a[i], b[i]), rtol=1e-12, atol=1e-14)
        _assert_matches_lstsq(a, b)

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(14)
        a = _crandn(rng, 5, 6, 3)
        a[2, :, 1] = 0.0
        _assert_matches_lstsq(a, _crandn(rng, 5, 6, 4))

    @pytest.mark.parametrize("rhs_tail", [(), (2,)])
    def test_empty_stack(self, rhs_tail):
        x = least_squares(np.zeros((0, 4, 3)), np.zeros((0, 4) + rhs_tail))
        assert x.shape == (0, 3) + rhs_tail

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


def _svd_rank(m, rel_tol):
    """Reference count: singular values above rel_tol times the largest, per matrix."""
    sv = np.linalg.svd(m, compute_uv=False)
    return np.count_nonzero(sv > rel_tol * sv[..., :1], axis=-1)


RANK_TOLS = (1e-12, 1e-9, 1e-7, 1e-6, 1e-4, 1e-2, 0.3)
RANK_NOISE = (0.0, 1e-15, 1e-9, 1e-6, 1e-3)


def _hankel_stack(n, k, rows, rng):
    """(noise, codeword, v, v) Hankel matrices of the (n, k) code.

    Every error size 0..v, ``rows`` clustered and ``rows`` random supports a
    size, each pattern under every noise level of RANK_NOISE.
    """
    code = dft_code.build_code(n, k)
    patterns = []
    for size in range(code.capability + 1):
        clustered = (rng.integers(0, n, rows)[:, None] + np.arange(size)) % n
        scattered = np.argsort(rng.random((rows, n)), axis=1)[:, :size]
        for support in (clustered, scattered):
            errors = np.zeros((rows, n), dtype=complex)
            values = rng.uniform(1.0, 10.0, support.shape)
            values = values * np.exp(2j * np.pi * rng.random(support.shape))
            np.put_along_axis(errors, support, values, axis=1)
            patterns.append(errors)
    errors = np.concatenate(patterns)
    noise = np.array(RANK_NOISE)[:, None, None] * _crandn(rng, len(RANK_NOISE), *errors.shape)
    return dft_code.hankel_syndrome_matrix(code, dft_code.syndrome(code, errors + noise))


@pytest.mark.parametrize(
    "n, k", [(7, 3), (11, 7), (15, 7), (16, 2), (17, 1), (20, 1), (24, 6), (31, 1), (31, 5)]
)
def test_rank_matches_the_svd_count_on_hankel_stacks(n, k):
    """Clustered supports at N >= 16 put a singular value near 1e-6, and the
    noise levels put others near every tolerance: each count is the SVD's."""
    hankel = _hankel_stack(n, k, 12, np.random.default_rng(100 * n + k))
    for rel_tol in RANK_TOLS:
        np.testing.assert_array_equal(numerical_rank(hankel, rel_tol), _svd_rank(hankel, rel_tol))


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the stacks `numerical_rank` hands to its SVD fallback."""
    svd, seen = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        seen.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


class TestRankFallback:
    """The Gram count, and the SVD for matrices near its cut, give the SVD's counts."""

    @pytest.mark.parametrize("rel_tol, fallback", [(1e-6, []), (1e-9, [(1, 4, 4)])])
    def test_single_matrix_returns_a_numpy_integer(self, svd_calls, rel_tol, fallback):
        # rank 2: the two rounding eigenvalues are clear of a 1e-12 cut, not of 1e-18
        rng = np.random.default_rng(20)
        m = _crandn(rng, 4, 2) @ _crandn(rng, 2, 4)
        rank = numerical_rank(m, rel_tol)
        assert svd_calls == fallback
        assert isinstance(rank, np.integer) and rank == _svd_rank(m, rel_tol) == 2

    def test_zero_matrix_in_a_stack_counts_zero(self, svd_calls):
        stack = _crandn(np.random.default_rng(21), 3, 4, 4)
        stack[1] = 0.0
        ranks = numerical_rank(stack, 1e-6)
        assert svd_calls == [(1, 4, 4)]
        assert ranks.tolist() == [4, 0, 4] == _svd_rank(stack, 1e-6).tolist()

    def test_every_rank_deficient_row_falls_back_at_a_small_tolerance(self, svd_calls):
        code = dft_code.build_code(15, 7)
        rng = np.random.default_rng(22)
        errors = np.zeros((6, 15), dtype=complex)
        np.put_along_axis(errors, np.argsort(rng.random((6, 15)), axis=1)[:, :2],
                          _crandn(rng, 6, 2), axis=1)
        hankel = dft_code.hankel_syndrome_matrix(code, dft_code.syndrome(code, errors))
        ranks = numerical_rank(hankel, 1e-9)
        assert svd_calls == [(6, 4, 4)]
        assert ranks.tolist() == [2] * 6 == _svd_rank(hankel, 1e-9).tolist()

    @pytest.mark.parametrize("wide", [False, True])
    def test_wide_and_tall_matrices(self, wide):
        rng = np.random.default_rng(23)
        sv = np.array([[1.0, 0.5, 1e-3, 2e-6, 1e-10]] * 4) * np.geomspace(1.0, 1e3, 4)[:, None]
        m = _with_singular_values(rng, sv, 8)
        if wide:
            m = m.conj().swapaxes(-1, -2)
        for rel_tol in RANK_TOLS:
            np.testing.assert_array_equal(numerical_rank(m, rel_tol), _svd_rank(m, rel_tol))

    @pytest.mark.parametrize("scale", [2.0**600, 1e150, 1e-156, 1e-310])
    def test_extreme_scales_match_the_svd(self, scale):
        # the Gram of the first would overflow, of the last two underflow
        rng = np.random.default_rng(24)
        sv = np.array([[1.0, 0.3, 1e-3, 2e-6, 1e-10]] * 20)
        m = _with_singular_values(rng, sv, 6) * scale
        for rel_tol in RANK_TOLS:
            np.testing.assert_array_equal(numerical_rank(m, rel_tol), _svd_rank(m, rel_tol))

    def test_vector_rejected(self):
        with pytest.raises(DimensionError):
            numerical_rank(np.ones(3), 1e-6)


class TestDeterminantCertificate:
    """Square matrices whose |det| bound clears the cut count n without an eigensolve."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_svd_count_on_random_stacks(self, seed, n):
        # every lower singular value at 0.25..1e3 times the cut, so counts of
        # 1..n and matrices on both sides of the cut; scales 1e-140..1e140
        rng = np.random.default_rng(seed)
        lead = (2, 3, 2, 4)
        rel_tol = 10 ** rng.uniform(-13, np.log10(0.3))
        sv = rel_tol * 10 ** rng.uniform(np.log10(0.25), 3, (np.prod(lead), n))
        sv[:, 0] = 1.0
        sv = -np.sort(-np.minimum(sv, 1.0), axis=-1)
        m = _with_singular_values(rng, sv, n) * 10 ** rng.uniform(-140, 140, (len(sv), 1, 1))
        m = m.reshape(lead + (n, n))
        ranks = numerical_rank(m, rel_tol)
        assert ranks.shape == lead
        np.testing.assert_array_equal(ranks, _svd_rank(m, rel_tol))

    def test_extreme_entries_raise_no_warning(self):
        # squared norms that overflow or underflow, an exact zero and a
        # subnormal matrix, in one stack
        rng = np.random.default_rng(30)
        stack = _crandn(rng, 6, 4, 4) * np.array([1e300, 1e160, 1e-160, 1e-310, 0.0, 1.0])[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks = numerical_rank(stack, 1e-6)
        np.testing.assert_array_equal(ranks, _svd_rank(stack, 1e-6))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 3, 3), (0, 3, 5)])
    def test_empty_stack_counts_nothing(self, shape):
        ranks = numerical_rank(np.zeros(shape, dtype=complex), 1e-6)
        assert ranks.shape == shape[:-2] and np.issubdtype(ranks.dtype, np.integer)

    def test_selftest_full_rank_stacks_skip_the_eigensolve(self, monkeypatch, svd_calls):
        """On the selftest's (15, 7) size-4 stacks, eigvalsh sees only the
        Grams of matrices whose bound misses 2*rel_tol + 4n^2*eps."""
        eigvalsh, grams = np.linalg.eigvalsh, []

        def spy(a, *args, **kwargs):
            grams.append(a)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        code = dft_code.build_code(15, 7)
        rng = np.random.default_rng(2024)
        support = np.array(list(combinations(range(15), 4)))
        errors = np.zeros((len(support), 15), dtype=complex)
        values = rng.uniform(1.0, 10.0, support.shape) * np.exp(2j * np.pi * rng.random(support.shape))
        np.put_along_axis(errors, support, values, axis=1)
        clean = _crandn(rng, 7) @ code.generator
        hankel = dft_code.hankel_syndrome_matrix(code, dft_code.syndrome(code, clean + errors))
        rel_tol, n = 1e-6, 4
        expected = []
        for start in range(0, len(hankel), selftest.STACK_ROWS):
            stack = hankel[start : start + selftest.STACK_ROWS]
            assert (numerical_rank(stack, rel_tol) == n).all()
            unit = stack / np.linalg.norm(stack, axis=(-2, -1))[:, None, None]
            bound = np.abs(np.linalg.det(unit)) * (n - 1) ** ((n - 1) / 2)
            missed = stack[bound <= 2 * rel_tol + 4 * n * n * np.finfo(float).eps]
            if len(missed):
                expected.append(missed.conj().swapaxes(-1, -2) @ missed)
        assert svd_calls == []
        assert sum(map(len, expected)) <= 0.02 * len(hankel)
        np.testing.assert_allclose(np.concatenate(grams), np.concatenate(expected), rtol=1e-12)


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


@given(
    seed=st.integers(0, 2**31 - 1),
    lead=st.lists(st.integers(0, 3), min_size=0, max_size=2),
    cols=st.integers(1, 6),
    extra_rows=st.integers(0, 10),
    rhs_cols=st.one_of(st.none(), st.integers(1, 4)),
    defects=st.lists(st.sampled_from(["none", "zero column", "zero"]), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_least_squares_matches_lstsq_on_random_stacks(seed, lead, cols, extra_rows, rhs_cols,
                                                      defects):
    """Stacks of zero to two leading axes, vector or matrix right-hand sides,
    some systems with a zero column or zero throughout."""
    rng = np.random.default_rng(seed)
    rows = cols + extra_rows
    lead = tuple(lead)
    a = _crandn(rng, *lead, rows, cols)
    for idx in np.ndindex(lead):
        defect = defects[int(rng.integers(len(defects)))]
        if defect == "zero column":
            a[idx][:, int(rng.integers(cols))] = 0.0
        elif defect == "zero":
            a[idx] = 0.0
    b = _crandn(rng, *lead, rows, *(() if rhs_cols is None else (rhs_cols,)))
    _assert_matches_lstsq(a, b)
