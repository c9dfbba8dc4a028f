import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from alcc_lab import dft_code, selftest
from alcc_lab.dft_code import (
    CapabilityExceededError,
    build_code,
    correct_codeword,
    estimate_error_count,
    hankel_syndrome_matrix,
    locator_polynomial,
    recover_error_values,
    syndrome,
)
from alcc_lab.localization import independent_localize
from alcc_lab.numeric import DimensionError, ParameterError
from alcc_lab.threat import complex_normal

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def code_15_7():
    return build_code(15, 7)


def roots(code) -> np.ndarray:
    """Code-locator roots gamma^q, q = 0..N-1."""
    return np.exp(-2j * np.pi * np.arange(code.n) / code.n)


def true_locator(code, locations) -> np.ndarray:
    """Noise-free ascending locator coefficients, g_0 = 1, with roots at the given indices."""
    coeffs = np.array([1.0 + 0j])
    for q in np.asarray(locations, dtype=int):
        coeffs = np.convolve(coeffs, np.array([1.0, -1.0 / roots(code)[q]]))
    return coeffs


def inject(code, support, values, message_seed=0):
    """Clean codeword plus errors at the support; returns (clean, received)."""
    rng = np.random.default_rng(message_seed)
    message = complex_normal(rng, 0.0, 1.0, code.k)
    clean = message @ code.generator
    received = clean.copy()
    received[np.asarray(support)] += np.asarray(values)
    return clean, received


class TestBuildCode:
    @pytest.mark.parametrize("n,k,v", [(31, 15, 8), (11, 7, 2), (7, 3, 2)])
    def test_capability(self, n, k, v):
        assert build_code(n, k).capability == v

    def test_generator_parity_orthogonal(self):
        code = build_code(15, 7)
        product = code.generator @ code.parity.conj().T
        assert np.abs(product).max() <= 1e-12

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ParameterError):
            build_code(7, 7)

    def test_repeated_build_returns_one_read_only_code(self):
        code = build_code(15, 7)
        assert build_code(15, 7) is code
        for arr in (code.generator, code.parity, code.parity_h, code.gram):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        # the layout of parity.conj().T, so syndrome products keep their bits
        assert code.parity_h.strides == code.parity.conj().T.strides
        assert np.array_equal(code.parity_h, code.parity.conj().T)


class TestSyndrome:
    def test_zero_vector(self, code_15_7):
        assert np.allclose(syndrome(code_15_7, np.zeros(15)), 0.0)

    def test_clean_codeword_is_silent(self, code_15_7):
        rng = np.random.default_rng(1)
        message = complex_normal(rng, 0.0, 1.0, 7)
        word = message @ code_15_7.generator
        s = syndrome(code_15_7, word)
        assert np.linalg.norm(s) <= 1e-9 * np.linalg.norm(word)

    def test_unit_impulse_reads_parity_column(self, code_15_7):
        q = 4
        impulse = np.zeros(15, dtype=complex)
        impulse[q] = 1.0
        s = syndrome(code_15_7, impulse)
        assert np.allclose(s, code_15_7.parity[:, q].conj(), atol=1e-14)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        code = build_code(15, 7)
        rng = np.random.default_rng(seed)
        r1 = complex_normal(rng, 0.0, 1.0, 15)
        r2 = complex_normal(rng, 0.0, 1.0, 15)
        lhs = syndrome(code, r1 + r2)
        rhs = syndrome(code, r1) + syndrome(code, r2)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_length_mismatch_rejected(self, code_15_7):
        with pytest.raises(DimensionError):
            syndrome(code_15_7, np.zeros(14))


class TestErrorCount:
    def test_zero_syndrome(self, code_15_7):
        assert estimate_error_count(code_15_7, np.zeros(8)) == 0

    @pytest.mark.parametrize("support,values", [
        ([6], [3.0 + 1j]),
        ([2, 5, 11], [1.0, -2.0 + 1j, 0.5j]),
    ])
    def test_clean_patterns(self, code_15_7, support, values):
        _, received = inject(code_15_7, support, values)
        s = syndrome(code_15_7, received)
        assert estimate_error_count(code_15_7, s) == len(support)

    def test_hankel_shape(self, code_15_7):
        s = np.arange(8, dtype=complex)
        hankel = hankel_syndrome_matrix(code_15_7, s)
        assert hankel.shape == (4, 4)
        assert hankel[1, 0] == s[1] and hankel[0, 3] == s[3]


class TestLocatorPolynomial:
    def test_single_error_root(self, code_15_7):
        q = 5
        _, received = inject(code_15_7, [q], [2.0 - 1j])
        s = syndrome(code_15_7, received)
        coeffs = locator_polynomial(code_15_7, s, 1)
        assert coeffs.shape == (2,) and coeffs[0] == 1.0
        root = roots(code_15_7)[q]
        assert abs(np.polyval(coeffs[::-1], root)) <= 1e-8

    def test_two_errors_factor_match(self, code_15_7):
        support = [3, 9]
        _, received = inject(code_15_7, support, [1.5, -2.0 + 1j])
        s = syndrome(code_15_7, received)
        coeffs = locator_polynomial(code_15_7, s, 2)
        expected = true_locator(code_15_7, support)
        assert np.abs(coeffs - expected).max() <= 1e-8

    def test_full_capability_minimizers(self, code_15_7):
        support = np.array([0, 4, 7, 12])
        rng = np.random.default_rng(3)
        _, received = inject(code_15_7, support,
                             complex_normal(rng, 2.0, 4.0, 4))
        s = syndrome(code_15_7, received)
        coeffs = locator_polynomial(code_15_7, s, 4)
        metric = np.abs(np.polyval(coeffs[::-1], roots(code_15_7))) ** 2
        assert set(np.argsort(metric)[:4].tolist()) == set(support.tolist())

    def test_count_bounds(self, code_15_7):
        with pytest.raises(CapabilityExceededError):
            locator_polynomial(code_15_7, np.zeros(8), 5)


class TestValueRecovery:
    def test_single_injection(self, code_15_7):
        _, received = inject(code_15_7, [8], [3.0 + 4.0j])
        s = syndrome(code_15_7, received)
        values = recover_error_values(code_15_7, s, [8])
        assert abs(values[0] - (3.0 + 4.0j)) <= 1e-8

    def test_empty_locations(self, code_15_7):
        assert recover_error_values(code_15_7, np.zeros(8), []).size == 0

    def test_two_injections(self, code_15_7):
        injected = np.array([1.0 - 2.0j, -0.5 + 1.0j])
        _, received = inject(code_15_7, [2, 13], injected)
        s = syndrome(code_15_7, received)
        values = recover_error_values(code_15_7, s, [2, 13])
        assert np.abs(values - injected).max() <= 1e-8

    def test_underdetermined_rejected(self, code_15_7):
        with pytest.raises(CapabilityExceededError):
            recover_error_values(code_15_7, np.zeros(8), list(range(9)))


class TestCorrection:
    def test_exact_correction_silences_syndrome(self, code_15_7):
        support = [1, 6]
        values = np.array([2.0, -1.0 + 3.0j])
        _, received = inject(code_15_7, support, values)
        corrected = correct_codeword(received, support, values)
        s = syndrome(code_15_7, corrected)
        assert np.linalg.norm(s) <= 1e-9 * np.linalg.norm(corrected)

    def test_empty_correction_is_identity(self, code_15_7):
        r = np.arange(15, dtype=complex)
        assert np.array_equal(correct_codeword(r, [], []), r)

    def test_full_pipeline_at_capability(self):
        code = build_code(31, 15)
        rng = np.random.default_rng(4)
        support = np.sort(rng.choice(31, size=8, replace=False))
        clean, received = inject(code, support, complex_normal(rng, 3.0, 4.0, 8))
        s = syndrome(code, received)
        count = estimate_error_count(code, s)
        assert count == 8
        coeffs = locator_polynomial(code, s, count)
        detected = independent_localize(coeffs, count, 31)
        assert np.array_equal(detected, support)
        values = recover_error_values(code, s, detected)
        corrected = correct_codeword(received, detected, values)
        assert np.linalg.norm(corrected - clean) <= 1e-6 * np.linalg.norm(clean)


def test_rank_mode_matches_oracle_on_clean_patterns():
    """Exhaustive over (7,3): rank-estimated counts equal the true counts."""
    code = build_code(7, 3)
    rng = np.random.default_rng(5)
    for size in range(1, code.capability + 1):
        for support in combinations(range(7), size):
            values = complex_normal(rng, 1.5, 1.0, size)
            values += values / np.abs(values)  # keep magnitudes >= 1
            _, received = inject(code, list(support), values)
            s = syndrome(code, received)
            assert estimate_error_count(code, s) == size


@st.composite
def stacked_error_patterns(draw):
    """A code with N <= 15, one support size in 1..v and a stack of supports.

    Above N = 15 the fixed 1e-6 rank tolerance undercounts some clustered
    supports of five or more errors, so the rank count is checked only here.
    """
    n = draw(st.integers(3, 15))
    code = build_code(n, draw(st.integers(1, n - 2)))
    size = draw(st.integers(1, code.capability))
    rows = draw(st.integers(1, 6))
    support = [sorted(draw(st.permutations(range(n)))[:size]) for _ in range(rows)]
    return code, np.array(support), draw(st.integers(0, 2**32 - 1))


def decode(code, received, size):
    """Rank count, detected support and corrected word(s) at a known size."""
    s = syndrome(code, received)
    coeffs = locator_polynomial(code, s, size)
    detected = independent_localize(coeffs, size, code.n)
    values = recover_error_values(code, s, detected)
    return estimate_error_count(code, s), detected, correct_codeword(received, detected, values)


@given(stacked_error_patterns())
@settings(max_examples=80, deadline=None)
def test_stacked_noise_free_decode_is_exact_and_rowwise(case):
    code, support, seed = case
    rows, size = support.shape
    rng = np.random.default_rng(seed)
    clean = complex_normal(rng, 0.0, 1.0, (rows, code.k)) @ code.generator
    errors = np.zeros_like(clean)
    values = rng.uniform(1.0, 10.0, support.shape) * np.exp(2j * np.pi * rng.random(support.shape))
    np.put_along_axis(errors, support, values, axis=-1)
    received = clean + errors

    counts, detected, corrected = decode(code, received, size)
    assert counts.tolist() == [size] * rows
    assert np.array_equal(detected, support)
    clean_norm = np.linalg.norm(clean, axis=-1)
    assert (np.linalg.norm(corrected - clean, axis=-1) <= 1e-9 * clean_norm).all()
    for j in range(rows):
        count, found, word = decode(code, received[j], size)
        assert count == counts[j]
        assert np.array_equal(found, detected[j])
        assert np.linalg.norm(word - corrected[j]) <= 1e-12 * clean_norm[j]


# largest ratio |x - x_lstsq| / (eps ||L^+||_F ||s||) seen over 13,000 random
# draws of consistent and random syndromes: 23; no trend with cond(L)
C_VALUE_RECOVERY = 256


def draw_support(draw, n, count):
    """Sorted support of ``count`` indices of 0..n-1: half the draws adjacent
    (cyclically), the worst-conditioned columns, half arbitrary."""
    if draw(st.booleans()):
        return np.sort((draw(st.integers(0, n - 1)) + np.arange(count)) % n)
    return np.array(sorted(draw(st.permutations(range(n)))[:count]))


def draw_syndromes(draw, rng, lhs):
    """Syndromes (rows, N-K) for the (rows, N-K, count) systems ``lhs``.

    Half the stacks are consistent (errors on the support plus small noise, as
    in a trial), half are arbitrary vectors with a least-squares residual.
    """
    rows, n_minus_k, count = lhs.shape
    if draw(st.booleans()):
        e = complex_normal(rng, 0.0, 1.0, (rows, count))
        s = (lhs @ e[..., None])[..., 0]
        return s + complex_normal(rng, 0.0, 1e-6, s.shape)
    return complex_normal(rng, 0.0, 1.0, (rows, n_minus_k))


def value_systems(code, support):
    """(..., N-K, count) matrices L of the systems s = L e on each row's support."""
    return code.parity.conj().T[support].swapaxes(-1, -2)


def lstsq_rows(lhs, s):
    """np.linalg.lstsq's solution of each system, and the value-recovery
    tolerance C_VALUE_RECOVERY * eps * ||L^+||_F * ||s||, per row."""
    expected = np.array([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(lhs, s)])
    pinv_norm = np.array([np.linalg.norm(np.linalg.pinv(a)) for a in lhs])
    tol = C_VALUE_RECOVERY * EPS * pinv_norm[:, None] * np.linalg.norm(s, axis=-1, keepdims=True)
    return expected, tol


@st.composite
def shared_supports(draw):
    """A code with N <= 31, one support of 1..v indices and a stack of 1-30 syndromes."""
    n = draw(st.integers(3, 31))
    code = build_code(n, draw(st.integers(1, n - 2)))
    count = draw(st.integers(1, code.capability))
    support = draw_support(draw, n, count)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 30))
    lhs = np.broadcast_to(value_systems(code, support), (rows, code.n - code.k, count))
    return code, support, draw_syndromes(draw, rng, lhs)


@given(shared_supports())
@settings(max_examples=200, deadline=None)
def test_value_recovery_on_a_shared_support_matches_lstsq(case):
    code, support, s = case
    lhs = value_systems(code, support)
    # one system, every syndrome a right-hand-side column
    expected = np.linalg.lstsq(lhs, s.T, rcond=None)[0].T
    tol = (C_VALUE_RECOVERY * EPS * np.linalg.norm(np.linalg.pinv(lhs))
           * np.linalg.norm(s, axis=-1, keepdims=True))
    tiled = recover_error_values(code, s, np.tile(support, (len(s), 1)))
    shared = recover_error_values(code, s, support)
    for values in (tiled, shared):
        assert values.shape == expected.shape
        assert (np.abs(values - expected) <= tol).all()
    # leading axes of a stack are flattened into the columns, in order
    stacked = recover_error_values(code, np.stack([s, s]), support)
    flat = recover_error_values(code, np.concatenate([s, s]), support)
    assert np.array_equal(stacked, flat.reshape(2, *shared.shape))


@st.composite
def mixed_supports(draw):
    """A code with N <= 31, one support size in 1..v, and 1-30 syndromes, each
    with its own support."""
    n = draw(st.integers(3, 31))
    code = build_code(n, draw(st.integers(1, n - 2)))
    count = draw(st.integers(1, code.capability))
    rows = draw(st.integers(1, 30))
    support = np.array([draw_support(draw, n, count) for _ in range(rows)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return code, support, draw_syndromes(draw, rng, value_systems(code, support))


@given(mixed_supports())
@settings(max_examples=200, deadline=None)
def test_value_recovery_per_codeword_matches_lstsq(case):
    code, support, s = case
    expected, tol = lstsq_rows(value_systems(code, support), s)
    values = recover_error_values(code, s, support)
    assert values.shape == expected.shape
    assert (np.abs(values - expected) <= tol).all()


@pytest.mark.parametrize("n,k,count", [(31, 15, 8), (31, 19, 6), (31, 23, 4)])
def test_adjacent_support_with_residual_matches_lstsq(n, k, count):
    """Adjacent columns at N = 31, the worst-conditioned sets a trial can
    detect, with arbitrary syndromes whose least-squares residual is large."""
    code = build_code(n, k)
    support = np.arange(count)
    s = complex_normal(np.random.default_rng(7), 0.0, 1.0, (50, n - k))
    expected, tol = lstsq_rows(np.broadcast_to(value_systems(code, support), (50, n - k, count)), s)
    dft_code._value_operator.cache_clear()
    for locations in (support, np.tile(support, (50, 1))):
        assert (np.abs(recover_error_values(code, s, locations) - expected) <= tol).all()


def test_ill_conditioned_set_is_solved_by_least_squares(monkeypatch):
    """15 adjacent columns of the (31, 15) parity: the 16 x 15 systems have a
    normal matrix of Frobenius cond about 1.5e12, so both shapes solve by
    `least_squares`."""
    code = build_code(31, 15)
    support = np.arange(15)
    lhs = value_systems(code, support)
    e = complex_normal(np.random.default_rng(6), 0.0, 1.0, (5, 15))
    s = e @ lhs.T  # consistent
    expected, tol = lstsq_rows(np.broadcast_to(lhs, (5, 16, 15)), s)
    assert np.abs(expected - e).max() <= 1e-6
    solved = []
    lstsq = dft_code.least_squares

    def spy(a, b):
        solved.append(np.shape(a))
        return lstsq(a, b)

    monkeypatch.setattr(dft_code, "least_squares", spy)
    dft_code._value_operator.cache_clear()
    for locations in (support, np.tile(support, (5, 1))):
        solved.clear()
        values = recover_error_values(code, s, locations)
        assert solved and all(shape[-2:] == (16, 15) for shape in solved)
        assert (np.abs(values - expected) <= tol).all()


def test_square_ill_conditioned_set_is_solved_through_its_matrix(monkeypatch):
    """16 adjacent columns of the (31, 15) parity: the normal matrix has
    Frobenius cond about 6e13, but the square systems solve through H[:, Q]
    itself, under the guard, and still match lstsq."""
    code = build_code(31, 15)
    support = np.arange(16)
    lhs = value_systems(code, support)
    e = complex_normal(np.random.default_rng(6), 0.0, 1.0, (5, 16))
    s = e @ lhs.T  # consistent: with N-K = count every syndrome is
    expected, tol = lstsq_rows(np.broadcast_to(lhs, (5, 16, 16)), s)
    assert np.abs(expected - e).max() <= 1e-6
    monkeypatch.setattr(dft_code, "least_squares", None)  # any fallback would raise
    dft_code._value_operator.cache_clear()
    for locations in (support, np.tile(support, (5, 1))):
        assert (np.abs(recover_error_values(code, s, locations) - expected) <= tol).all()


def test_singular_normal_matrix_stack_is_solved_by_least_squares(monkeypatch, code_15_7):
    """An ``inv`` that rejects the stack of normal matrices sends every system to
    `least_squares`, which still gives the least-squares values."""
    support = np.array([[1, 4, 9], [0, 2, 3], [5, 6, 14]])
    s = complex_normal(np.random.default_rng(8), 0.0, 1.0, (3, 8))
    expected, tol = lstsq_rows(value_systems(code_15_7, support), s)
    inv, rejected = np.linalg.inv, []

    def reject_first(a):
        if not rejected:
            rejected.append(np.shape(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", reject_first)
    values = recover_error_values(code_15_7, s, support)
    assert rejected == [(3, 3, 3)]
    assert (np.abs(values - expected) <= tol).all()


def norm_guard(m, m_inv):
    """The fallback mask from two `np.linalg.norm` calls: the reference."""
    cond = np.linalg.norm(m, axis=(-2, -1)) * np.linalg.norm(m_inv, axis=(-2, -1))
    return ~(cond <= 1e8)


def inverse_as_solved(m):
    """The inverse as `_normal_solve` takes it: NaN of m's layout when inv rejects m."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return np.full_like(m, np.nan)


def with_cond(rng, conds, size=2):
    """(len(conds), size, size) complex matrices of the given Frobenius conds:
    U diag(1, .., 1, s) V^H with s from (size-1 + s^2)(size-1 + s^-2) = cond^2."""
    c2, r = np.asarray(conds, dtype=float) ** 2, size - 1
    # s^2 solves r x^2 + (r^2 + 1 - c^2) x + r = 0, the smaller root
    b = r * r + 1 - c2
    x = 2 * r / (-b + np.sqrt(b * b - 4 * r * r))  # written without cancellation
    sv = np.ones((len(c2), size))
    sv[:, -1] = np.sqrt(x)
    u = np.linalg.qr(complex_normal(rng, 0.0, 1.0, (len(c2), size, size)))[0]
    v = np.linalg.qr(complex_normal(rng, 0.0, 1.0, (len(c2), size, size)))[0]
    return (u * sv[:, None, :]) @ v.conj().swapaxes(-1, -2)


class TestSolveGuard:
    """`_normal_solve`'s guard sends the same systems to the fallback as
    Frobenius conds from `np.linalg.norm`."""

    @given(p=st.integers(1, 30), size=st.integers(1, 6), scale=st.sampled_from(
           [1e-100, 1e-8, 1.0, 1e8, 1e100]), transposed=st.booleans(),
           seed_=st.integers(0, 2**32 - 1))
    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    def test_random_stacks(self, p, size, scale, transposed, seed_):
        rng = np.random.default_rng(seed_)
        m = complex_normal(rng, 0.0, 1.0, (p, size, size))
        # columns shrunk by up to 1e-12, so conds on both sides of 1e8
        m *= 10.0 ** rng.uniform(-12, 0, (p, 1, size)) * scale
        if transposed:  # the square path's lhs, a transposed view
            m = m.conj().swapaxes(-1, -2)
        m_inv = inverse_as_solved(m)
        assert np.array_equal(dft_code._needs_fallback(m, m_inv), norm_guard(m, m_inv))

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_stacks_either_side_of_1e8(self, size, transposed):
        below, above = 1e8 * (1 - 1e-6), 1e8 * (1 + 1e-6)
        m = with_cond(np.random.default_rng(size), [below, above, below, above], size)
        if transposed:
            m = m.conj().swapaxes(-1, -2)
        m_inv = inverse_as_solved(m)
        expected = np.array([False, True, False, True])
        assert np.array_equal(norm_guard(m, m_inv), expected)
        assert np.array_equal(dft_code._needs_fallback(m, m_inv), expected)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_exactly_singular_stack(self, transposed):
        m = complex_normal(np.random.default_rng(3), 0.0, 1.0, (3, 3, 3))
        m[1, 2] = 0.0  # a zero row: inv rejects the stack and it reads as NaN
        if transposed:
            m = m.conj().swapaxes(-1, -2)
        m_inv = inverse_as_solved(m)
        assert np.isnan(m_inv).all() and m_inv.flags.c_contiguous != transposed
        assert dft_code._needs_fallback(m, m_inv).all() and norm_guard(m, m_inv).all()


def test_shared_set_operator_is_read_only_and_cached(code_15_7):
    dft_code._value_operator.cache_clear()
    support = np.array([2, 9, 11])
    s = complex_normal(np.random.default_rng(5), 0.0, 1.0, (4, 8))
    values = recover_error_values(code_15_7, s, support)
    op = dft_code._value_operator(15, 7, (2, 9, 11))
    assert op.shape == (8, 3) and not op.flags.writeable
    with pytest.raises(ValueError):
        op[0, 0] = 0.0
    lhs = code_15_7.parity[:, support].conj()
    assert np.allclose(op, np.linalg.pinv(lhs).T, rtol=0, atol=1e-12)
    # the call above built it; every later call with the set gets the same object
    assert dft_code._value_operator(15, 7, (2, 9, 11)) is op
    assert np.array_equal(recover_error_values(code_15_7, s, support), values)
    info = dft_code._value_operator.cache_info()
    assert (info.misses, info.hits) == (1, 3)


# largest ratio |g - g_lstsq| / (eps k_F (||g|| + ||W^+||_F ||r||)), k_F =
# ||W||_F ||W^+||_F, seen over 15,000 random draws of consistent and random
# syndromes: 13, for the QR solve and the normal-matrix solve alike
C_LOCATOR = 256


def locator_systems(code, s, count):
    """Windows W (..., 2v-count, count) and right-hand sides b (..., 2v-count) of
    the locator systems W (g_count, ..., g_1) = b, one per syndrome."""
    v = code.capability
    windows = s[..., np.arange(2 * v - count)[:, None] + np.arange(count + 1)]
    return windows[..., :count], -windows[..., count]


def locator_lstsq_rows(code, s, count):
    """np.linalg.lstsq's (g_count, ..., g_1) of each syndrome's locator system,
    and the tolerance C_LOCATOR * eps * k_F * (||g|| + ||W^+||_F ||r||) per row."""
    expected, tol = [], []
    for w, b in zip(*locator_systems(code, s, count)):
        g = np.linalg.lstsq(w, b, rcond=None)[0]
        pinv_norm = np.linalg.norm(np.linalg.pinv(w))
        residual = np.linalg.norm(b - w @ g)
        bound = pinv_norm * np.linalg.norm(w) * (np.linalg.norm(g) + pinv_norm * residual)
        expected.append(g)
        tol.append(C_LOCATOR * EPS * bound)
    return np.array(expected), np.array(tol)[:, None]


def unknowns(coeffs):
    """(g_count, ..., g_1) of ascending locator coefficients with g_0 = 1."""
    assert (coeffs[..., 0] == 1).all()
    return coeffs[..., :0:-1]


@st.composite
def locator_stacks(draw):
    """A code with N <= 31, a count in 1..v, and 1-30 syndromes, each of errors
    on its own support of that size or arbitrary (see `draw_syndromes`)."""
    n = draw(st.integers(3, 31))
    code = build_code(n, draw(st.integers(1, n - 2)))
    count = draw(st.integers(1, code.capability))
    rows = draw(st.integers(1, 30))
    support = np.array([draw_support(draw, n, count) for _ in range(rows)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return code, count, draw_syndromes(draw, rng, value_systems(code, support))


@given(locator_stacks())
@settings(max_examples=200, deadline=None)
def test_locator_matches_lstsq(case):
    code, count, s = case
    expected, tol = locator_lstsq_rows(code, s, count)
    coeffs = locator_polynomial(code, s, count)
    assert coeffs.shape == (len(s), count + 1)
    assert (np.abs(unknowns(coeffs) - expected) <= tol).all()
    # a stack's leading axes are kept, and each syndrome is its own system
    assert np.array_equal(locator_polynomial(code, s[None], count), coeffs[None])
    assert np.abs(unknowns(locator_polynomial(code, s[0], count)) - expected[0]).max() <= tol[0, 0]


@pytest.mark.parametrize(
    "n,k,count,noise", [(31, 15, 7, 1e-6), (31, 19, 5, 1e-6), (23, 9, 6, 1e-6), (15, 7, 4, 0.0)],
    ids=["31-15-7", "31-19-5", "23-9-6", "15-7-4-noise-free"],
)
def test_adjacent_support_locator_matches_lstsq(monkeypatch, n, k, count, noise):
    """Errors on adjacent indices, with small noise or none: below v the
    locator's normal matrices have Frobenius cond from 2e5 to 4e7, under the
    guard; at count = v = 4 on (15, 7) the square windows W have cond_F(W) at
    most 4.2e4 while cond_F(G) reaches 1.6e9. So every system is solved
    without `least_squares` and still matches lstsq."""
    code = build_code(n, k)
    rng = np.random.default_rng(11)
    e = complex_normal(rng, 0.0, 1.0, (50, count))
    s = e @ value_systems(code, np.arange(count)).T + complex_normal(rng, 0.0, noise, (50, n - k))
    expected, tol = locator_lstsq_rows(code, s, count)
    monkeypatch.setattr(dft_code, "least_squares", None)  # any fallback would raise
    assert (np.abs(unknowns(locator_polynomial(code, s, count)) - expected) <= tol).all()


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_default_selftest_makes_no_least_squares_call(monkeypatch, seed):
    """Every system of the default selftest codes is under the guard: the
    count-v locator systems of (15, 7) are square and solve through W."""
    monkeypatch.setattr(dft_code, "least_squares", None)  # any fallback would raise
    report = selftest.run_exhaustive_decode_check(values_per_support=1, seed=seed)
    assert report.passed and report.decodes_run == 2034


def test_ill_conditioned_locator_systems_are_solved_by_least_squares(monkeypatch):
    """A = v = 8 adjacent errors on (31, 15): the square windows have Frobenius
    cond from 1.6e10 to 5e10, so the guard sends exactly those systems of a
    stack to `least_squares`; spread supports stay on the inverse of W."""
    code = build_code(31, 15)
    support = np.array([np.arange(8), np.arange(0, 31, 4)[:8]] * 3)
    e = complex_normal(np.random.default_rng(6), 0.0, 1.0, support.shape)
    s = np.einsum("pc,pcr->pr", e, code.parity.conj().T[support])
    expected, tol = locator_lstsq_rows(code, s, 8)
    solved = []
    lstsq = dft_code.least_squares

    def spy(a, b):
        solved.append(np.shape(a))
        return lstsq(a, b)

    monkeypatch.setattr(dft_code, "least_squares", spy)
    coeffs = locator_polynomial(code, s, 8)
    assert solved == [(3, 8, 8)]
    assert (np.abs(unknowns(coeffs) - expected) <= tol).all()


def test_rejected_locator_normal_matrices_are_solved_by_least_squares(monkeypatch, code_15_7):
    """An ``inv`` that rejects the stack of locator normal matrices sends every
    system to `least_squares`, which still gives the least-squares coefficients."""
    s = complex_normal(np.random.default_rng(9), 0.0, 1.0, (4, 8))
    expected, tol = locator_lstsq_rows(code_15_7, s, 3)
    inv, rejected, solved = np.linalg.inv, [], []
    lstsq = dft_code.least_squares

    def reject_first(a):
        if not rejected:
            rejected.append(np.shape(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    def spy(a, b):
        solved.append(np.shape(a))
        return lstsq(a, b)

    monkeypatch.setattr(np.linalg, "inv", reject_first)
    monkeypatch.setattr(dft_code, "least_squares", spy)
    coeffs = locator_polynomial(code_15_7, s, 3)
    assert rejected == [(4, 3, 3)] and solved == [(4, 5, 3)]
    assert (np.abs(unknowns(coeffs) - expected) <= tol).all()


def test_zero_syndrome_locator_falls_back_without_warnings(code_15_7):
    """An all-zero syndrome makes every window zero: its normal matrix has a
    zero determinant, and `least_squares` gives the minimum-norm locator,
    g = (1, 0, ..., 0)."""
    s = np.zeros((2, 8), dtype=complex)
    s[1] = complex_normal(np.random.default_rng(10), 0.0, 1.0, 8)
    coeffs = locator_polynomial(code_15_7, s, 2)
    assert np.array_equal(coeffs[0], [1, 0, 0])
    expected, tol = locator_lstsq_rows(code_15_7, s[1:], 2)
    assert (np.abs(unknowns(coeffs[1:]) - expected) <= tol).all()


def reference_locator(code, s, count):
    """Unknowns (P, count), (g_count, ..., g_1), and the fallback mask (P,) of
    each locator system W y = b, solved as `_normal_solve` solved every count:
    y = inv(W) b for square W, else from G = W^H W with one corrected
    semi-normal step; a system past the guard, or every system when ``inv``
    rejects the stack, by `least_squares`."""
    w, b = locator_systems(code, s, count)
    wh = w.conj().swapaxes(-1, -2)
    square = w.shape[-2] == count
    m = w if square else wh @ w
    m_inv = inverse_as_solved(m)
    with np.errstate(all="ignore"):  # rows past the guard are solved again below
        if square:
            y = (m_inv @ b[..., None])[..., 0]
        else:
            y = (m_inv @ (wh @ b[..., None]))[..., 0]
            r = b - (w @ y[..., None])[..., 0]
            y += (m_inv @ (wh @ r[..., None]))[..., 0]
        fallback = norm_guard(m, m_inv)
    if fallback.any():
        y[fallback] = dft_code.least_squares(w[fallback], b[fallback])
    return y, fallback


def locator_tolerance(code, s, count, y):
    """C_LOCATOR * eps * k_F * (||y|| + ||W^+||_F ||b - W y||) per system, from
    the singular values of W; infinite for a singular W."""
    w, b = locator_systems(code, s, count)
    sv = np.linalg.svd(w, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        pinv_norm = np.sqrt((1.0 / sv**2).sum(axis=-1))
        k_f = np.sqrt((sv**2).sum(axis=-1)) * pinv_norm
        residual = np.linalg.norm(b - (w @ y[..., None])[..., 0], axis=-1)
        bound = k_f * (np.linalg.norm(y, axis=-1) + pinv_norm * residual)
    return np.where(np.isfinite(bound), C_LOCATOR * EPS * bound, np.inf)[:, None]


@st.composite
def small_count_locator_stacks(draw):
    """A code with N in 5..31, a count of 1 or 2 whose windows are square
    (count = v) or not, 1-256 syndromes (see `draw_syndromes`) and a scale
    from 1e-100 to 1e100.

    Past about 1e77 either way the normal matrices' squared norms overflow
    or underflow, and both routes solve by `least_squares`; the closed form
    does so without a floating-point warning, which the suite makes an error.
    """
    count = draw(st.integers(1, 2))
    square = draw(st.booleans())
    n = draw(st.integers(5 if square or count == 1 else 7, 31))
    if square:  # N - K in {2v, 2v + 1} with v = count
        code = build_code(n, n - 2 * count - draw(st.integers(0, min(1, n - 2 * count - 1))))
    else:
        code = build_code(n, draw(st.integers(1, n - 2 * count - 2)))
    rows = draw(st.integers(1, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # adjacent supports, the worst-conditioned windows
        support = np.sort((rng.integers(0, n, (rows, 1)) + np.arange(count)) % n, axis=-1)
    else:
        support = np.sort(rng.random((rows, n)).argsort(axis=-1)[:, :count], axis=-1)
    s = draw_syndromes(draw, rng, value_systems(code, support))
    return code, count, s * 10.0 ** draw(st.integers(-100, 100))


class TestSmallCountLocator:
    """`locator_polynomial` at counts 1 and 2 against the route every count took
    through `_normal_solve`, which is kept here as `reference_locator`."""

    @given(small_count_locator_stacks())
    @seed(20261021)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_normal_solve_route(self, case):
        code, count, s = case
        expected, _ = reference_locator(code, s, count)
        coeffs = locator_polynomial(code, s, count)
        assert coeffs.shape == (len(s), count + 1) and np.isfinite(coeffs).all()
        tol = locator_tolerance(code, s, count, expected)
        assert (np.abs(unknowns(coeffs) - expected) <= tol).all()
        # the same detections, apart from rows whose metric ties exactly at the cut
        ref_coeffs = np.concatenate([np.ones((len(s), 1)), expected[:, ::-1]], axis=1)
        metric = np.sort(np.abs(np.fft.fft(ref_coeffs, code.n, axis=-1)) ** 2, axis=-1)
        untied = metric[:, count - 1] != metric[:, count]
        found = independent_localize(coeffs, count, code.n)
        assert np.array_equal(found[untied],
                              independent_localize(ref_coeffs, count, code.n)[untied])

    @pytest.mark.parametrize("scale", [1e-50, 1.0, 1e50])
    @pytest.mark.parametrize("n,k", [(11, 7), (12, 7), (15, 7), (31, 15)])
    def test_fallback_decisions_either_side_of_1e8(self, monkeypatch, n, k, scale):
        """Count-2 stacks whose guarded matrix (W when square, else G) has a
        Frobenius cond of 1e8 (1 -/+ 1e-6): the same systems fall back."""
        code = build_code(n, k)
        conds = [1e8 * (1 - 1e-6), 1e8 * (1 + 1e-6)] * 2
        s = syndromes_with_cond(code, conds, np.random.default_rng(n)) * scale
        _, expected = reference_locator(code, s, 2)
        assert expected.tolist() == [False, True, False, True]
        solved = []
        lstsq = dft_code.least_squares

        def spy(a, b):
            solved.append(np.asarray(a).copy())
            return lstsq(a, b)

        monkeypatch.setattr(dft_code, "least_squares", spy)
        locator_polynomial(code, s, 2)
        w, _ = locator_systems(code, s, 2)
        assert len(solved) == 1 and np.array_equal(solved[0], w[expected])

    @pytest.mark.parametrize("n,k,count", [(7, 5, 1), (11, 7, 2), (11, 5, 1), (15, 7, 2)],
                             ids=["square-1", "square-2", "normal-1", "normal-2"])
    def test_exactly_singular_window_falls_back_without_warnings(self, monkeypatch, n, k, count):
        """A zero syndrome and a constant one make W, and G, exactly singular:
        those systems go to `least_squares`, with no floating-point warning."""
        code = build_code(n, k)
        s = complex_normal(np.random.default_rng(count), 0.0, 1.0, (4, n - k))
        s[1] = 0.0
        s[3] = 1.0 - 2.0j
        solved = []
        lstsq = dft_code.least_squares

        def spy(a, b):
            solved.extend(np.asarray(a))
            return lstsq(a, b)

        monkeypatch.setattr(dft_code, "least_squares", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = locator_polynomial(code, s, count)
        w, b = locator_systems(code, s, count)
        expected = lstsq(w, b)
        tol = locator_tolerance(code, s, count, expected)
        assert np.isfinite(coeffs).all()
        assert (np.abs(unknowns(coeffs) - expected) <= tol).all()
        for row in (1, 3) if count == 2 else (1,):  # a 1 x 1 window is singular only at 0
            assert any(np.array_equal(a, w[row]) for a in solved)
            assert np.abs(unknowns(coeffs)[row] - expected[row]).max() <= 1e-14


@pytest.mark.parametrize("count", [3, 4])
@pytest.mark.parametrize("scale", [1e80, 1e-80])
def test_far_scaled_locator_falls_back_without_warnings(monkeypatch, scale, count):
    """At counts 3 and 4, syndromes near 1e80 or 1e-80 overflow the guard's
    squared norms of G or inv(G): every system goes to `least_squares`, with
    no floating-point warning."""
    code = build_code(31, 15)
    s = complex_normal(np.random.default_rng(count), 0.0, 1.0, (4, 16)) * scale
    solved = []
    lstsq = dft_code.least_squares

    def spy(a, b):
        solved.append(len(a))
        return lstsq(a, b)

    monkeypatch.setattr(dft_code, "least_squares", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = locator_polynomial(code, s, count)
    assert solved == [4]
    assert np.isfinite(coeffs).all()


def syndromes_with_cond(code, conds, rng):
    """(len(conds), N-K) syndromes whose count-2 locator matrix, W when square
    (v = 2) and G = W^H W otherwise, has each given Frobenius cond.

    A square W = [[s0, s1], [s1, s2]] is complex symmetric: U diag(1, t) U^T
    with U unitary has cond_F = (1 + t^2) / t. Otherwise the syndrome is a
    geometric sequence, whose windows have rank 1, plus e times a random
    vector, with e tuned by Newton steps on log cond against log e.
    """
    v = code.capability
    s = complex_normal(rng, 0.0, 1.0, (len(conds), code.n - code.k))
    for row, cond in zip(s, conds):
        if v == 2:
            t = 1 / (cond / 2 + np.sqrt(cond * cond / 4 - 1))  # the root below 1 of t^2 - cond t + 1
            u = np.linalg.qr(complex_normal(rng, 0.0, 1.0, (2, 2)))[0]
            w = (u * [1.0, t]) @ u.T
            row[:3] = w[0, 0], w[0, 1], w[1, 1]
            continue
        z = np.exp(2j * np.pi * rng.random())
        base, direction = z ** np.arange(len(row)), row.copy()

        def log_cond(e):
            w, _ = locator_systems(code, base + e * direction, 2)
            g = w.conj().T @ w
            return np.log(np.linalg.norm(g) * np.linalg.norm(np.linalg.inv(g)))

        e = 1e-4
        for _ in range(50):
            # cond ~ e^-2 near rank 1, so a Newton step with slope -2 in log-log
            step = (log_cond(e) - np.log(cond)) / 2
            e *= np.exp(step)
            if abs(step) < 1e-12:
                break
        row[:] = base + e * direction
    return s
