import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from alcc_lab import codec, dft_code
from alcc_lab.codec import (
    FUNCTIONS,
    GRAM,
    IDENTITY,
    EncodingParams,
    MetricError,
    db,
    encode_shares,
    lagrange_basis,
    make_batch,
    reconstruct,
    relative_error,
)
from alcc_lab.numeric import DimensionError, ParameterError


def small_params(**overrides):
    defaults = dict(n_workers=7, k=2, t=0, degree=2, beta=1.5, sigma_pad=1.0)
    defaults.update(overrides)
    return EncodingParams(**defaults)


def two_draw_make_batch(params, blocks, rng):
    """make_batch with its padding as two draws joined by complex products, the reference."""
    blocks = np.asarray(blocks, dtype=float)
    m, n = blocks.shape[1:]
    if params.t:
        scale = params.sigma_pad / np.sqrt(params.t)
        padding = scale * (
            rng.standard_normal((params.t, m, n))
            + 1j * rng.standard_normal((params.t, m, n))
        ) / np.sqrt(2)
    else:
        padding = np.zeros((0, m, n), dtype=complex)
    return np.concatenate([blocks.astype(complex), padding], axis=0)


class TestParams:
    def test_paper_scale_dimension(self):
        params = EncodingParams(n_workers=31, k=5, t=3, degree=2,
                                beta=1.5, sigma_pad=1e6)
        assert params.code_dimension == 15

    def test_dimension_bound_enforced(self):
        with pytest.raises(ParameterError):
            EncodingParams(n_workers=5, k=5, t=3, degree=2)

    @pytest.mark.parametrize("field,value", [
        ("beta", float("nan")), ("beta", float("inf")),
        ("sigma_pad", float("nan")), ("sigma_pad", float("inf")),
    ])
    def test_non_finite_scale_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            small_params(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("n_workers", 11.0), ("k", 2.5), ("t", 1.0), ("t", True), ("degree", 2.0),
        ("degree", False), ("k", "2"),
    ])
    def test_non_integer_dimension_rejected_by_name(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
            small_params(**{field: value})

    def test_numpy_integers_accepted(self):
        params = small_params(n_workers=np.int64(11), k=np.int32(2), t=np.uint8(1))
        assert params.code_dimension == small_params(n_workers=11, k=2, t=1).code_dimension


class TestLagrangeBasis:
    def test_single_node_is_one(self):
        params = EncodingParams(n_workers=3, k=1, t=0, degree=1)
        assert np.allclose(lagrange_basis(params, 0.3 + 4j), [1.0])

    def test_indicator_at_nodes(self):
        params = small_params()
        for r, node in enumerate(params.encoding_nodes):
            basis = lagrange_basis(params, node)
            expected = np.zeros(params.nodes)
            expected[r] = 1.0
            assert np.abs(basis - expected).max() <= 1e-9

    def test_two_node_hand_value(self):
        # nodes at +1 and -1: l_1(0) = (0 - (-1)) / (1 - (-1)) = 0.5
        params = EncodingParams(n_workers=3, k=2, t=0, degree=1, beta=1.0)
        assert np.isclose(lagrange_basis(params, 0.0)[0], 0.5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_partition_of_unity(self, seed):
        params = EncodingParams(n_workers=31, k=5, t=3, degree=2)
        rng = np.random.default_rng(seed)
        radius = 2 * params.beta * np.sqrt(rng.uniform())
        z = radius * np.exp(2j * np.pi * rng.uniform())
        assert abs(lagrange_basis(params, z).sum() - 1.0) <= 1e-9


class TestShareBasisCache:
    def test_basis_is_built_once_per_params_and_read_only(self):
        params = small_params()
        basis = codec._share_basis(params)
        assert codec._share_basis(small_params()) is basis
        np.testing.assert_array_equal(basis, lagrange_basis(params, params.eval_points))
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0


class TestReconstructMapCache:
    def test_map_is_built_once_per_params_and_read_only(self):
        params = small_params()
        recon = codec._reconstruct_map(params)
        assert codec._reconstruct_map(small_params()) is recon
        assert recon.shape == (params.k, params.n_workers)
        with pytest.raises(ValueError):
            recon[0, 0] = 0.0


class TestEncodeShares:
    def test_single_block_constant_polynomial(self):
        params = EncodingParams(n_workers=5, k=1, t=0, degree=1)
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((1, 3, 2))
        shares = encode_shares(make_batch(params, blocks, rng), params)
        for share in shares:
            assert np.allclose(share, blocks[0], atol=1e-12)

    def test_reinterpolation_recovers_blocks(self):
        params = EncodingParams(n_workers=9, k=3, t=1, degree=2, sigma_pad=1.0)
        rng = np.random.default_rng(1)
        blocks = rng.standard_normal((3, 4, 2))
        shares = encode_shares(make_batch(params, blocks, rng), params)
        # fit the encoding polynomial from its N evaluations, read it at the nodes
        vand = params.eval_points[:, None] ** np.arange(params.nodes)
        flat = shares.reshape(params.n_workers, -1)
        coeffs = np.linalg.lstsq(vand, flat, rcond=None)[0]
        for r in range(params.k):
            z = params.encoding_nodes[r]
            rec = sum(coeffs[j] * z**j for j in range(params.nodes))
            rel = np.linalg.norm(rec.reshape(4, 2) - blocks[r])
            assert rel <= 1e-6 * max(1.0, np.linalg.norm(blocks[r]))

    def test_paper_setting_runs(self):
        params = EncodingParams(n_workers=31, k=5, t=3, degree=2,
                                beta=1.5, sigma_pad=1e6)
        rng = np.random.default_rng(2)
        batch = make_batch(params, rng.standard_normal((5, 20, 5)), rng)
        shares = encode_shares(batch, params)
        assert batch.shape == (8, 20, 5)
        assert shares.shape == (31, 20, 5)
        assert params.code_dimension == 15

    @given(k=st.integers(1, 4), t=st.integers(0, 3), m=st.integers(0, 5), n=st.integers(0, 5),
           sigma_pad=st.one_of(st.just(0.0), st.floats(0.0, 1e7)),
           seed_=st.integers(0, 2**32 - 1))
    @example(k=2, t=2, m=3, n=2, sigma_pad=0.0, seed_=4)
    @seed(20261020)
    @settings(max_examples=120, deadline=None)
    def test_batch_bytes_match_two_draws(self, k, t, m, n, sigma_pad, seed_):
        """The same stream and the same bytes, signed zeros included, as two
        padding draws joined by complex products."""
        params = EncodingParams(n_workers=k + t, k=k, t=t, degree=1, sigma_pad=sigma_pad)
        blocks = np.random.default_rng(seed_).standard_normal((k, m, n))
        got_rng, ref_rng = np.random.default_rng(seed_ + 1), np.random.default_rng(seed_ + 1)
        got = make_batch(params, blocks, got_rng)
        want = two_draw_make_batch(params, blocks, ref_rng)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bytes(16) == ref_rng.bytes(16)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 2, 1), ()])
    def test_blocks_not_3d_rejected_by_shape(self, shape):
        params = EncodingParams(n_workers=5, k=2, t=1, degree=1)
        with pytest.raises(DimensionError, match=re.escape(f"(k, m, n), got shape {shape}")):
            make_batch(params, np.zeros(shape), np.random.default_rng(0))

    def test_padding_scale(self):
        params = EncodingParams(n_workers=31, k=5, t=3, degree=2, sigma_pad=1e3)
        rng = np.random.default_rng(3)
        batch = make_batch(params, rng.standard_normal((5, 50, 40)), rng)
        observed = np.sqrt(np.mean(np.abs(batch[params.k:]) ** 2))
        assert np.isclose(observed, 1e3 / np.sqrt(3), rtol=0.05)


class TestReconstruct:
    @pytest.mark.parametrize("n,k,t", [(7, 2, 1), (9, 3, 1), (12, 4, 0), (31, 5, 3)])
    def test_identity_function_round_trip(self, n, k, t):
        params = EncodingParams(n_workers=n, k=k, t=t, degree=1, sigma_pad=1.0)
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((k, 3, 2))
        shares = encode_shares(make_batch(params, blocks, rng), params)
        estimate = reconstruct(IDENTITY.apply(shares), params)
        assert relative_error(blocks, estimate) <= 1e-8

    def test_gram_function_matches_direct_oracle(self):
        params = small_params()  # k=2, t=0, degree=2, N=7, K=3
        rng = np.random.default_rng(6)
        blocks = rng.standard_normal((2, 4, 3))
        batch = make_batch(params, blocks, rng)
        shares = encode_shares(batch, params)
        estimate = reconstruct(GRAM.apply(shares), params)
        oracle = GRAM.apply(blocks)
        assert relative_error(oracle, estimate) <= 1e-6

    def test_uncorrected_errors_degrade_at_least_20db(self):
        params = EncodingParams(n_workers=31, k=5, t=3, degree=2, sigma_pad=1.0)
        rng = np.random.default_rng(8)
        clean_errs, noisy_errs = [], []
        for _ in range(10):
            blocks = rng.standard_normal((5, 20, 5))
            batch = make_batch(params, blocks, rng)
            returns = GRAM.apply(encode_shares(batch, params))
            oracle = GRAM.apply(blocks)
            clean_errs.append(relative_error(oracle, reconstruct(returns, params)))
            corrupted = returns.copy()
            for q in rng.choice(31, size=2, replace=False):
                corrupted[q] += 10 + np.sqrt(1e3 / 2) * (
                    rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                )
            noisy_errs.append(relative_error(oracle, reconstruct(corrupted, params)))
        gap_db = db(np.mean(noisy_errs)) - db(np.mean(clean_errs))
        assert gap_db >= 20.0

    def test_partial_returns_rejected(self):
        params = small_params()
        with pytest.raises(DimensionError, match="all 7 evaluations"):
            reconstruct(np.zeros((2, 3, 3)), params)


class TestCodewordStructure:
    def test_returned_rows_have_zero_syndrome(self):
        # worker outputs, entry by entry, are codewords of the (N, K) code
        params = EncodingParams(n_workers=31, k=5, t=3, degree=2, sigma_pad=1e6)
        rng = np.random.default_rng(9)
        batch = make_batch(params, rng.standard_normal((5, 20, 5)), rng)
        returns = GRAM.apply(encode_shares(batch, params))
        code = dft_code.build_code(31, params.code_dimension)
        rows = returns.reshape(31, -1).T
        syn = dft_code.syndrome(code, rows)
        assert np.linalg.norm(syn) <= 1e-6 * np.linalg.norm(rows)

    def test_reconstruction_permutation_equivariant(self):
        params = EncodingParams(n_workers=9, k=2, t=1, degree=2, sigma_pad=1.0)
        rng = np.random.default_rng(10)
        batch = make_batch(params, rng.standard_normal((2, 3, 3)), rng)
        returns = GRAM.apply(encode_shares(batch, params))
        direct = reconstruct(returns, params)
        mapping = np.array([3, 1, 4, 0, 8, 2, 7, 5, 6])
        # worker mapping[i] holds evaluation i; invert before decoding
        per_worker = np.empty_like(returns)
        per_worker[mapping] = returns
        recovered = per_worker[mapping]
        assert np.array_equal(reconstruct(recovered, params), direct)


class TestRelativeError:
    def test_exact_match_is_zero(self):
        y = np.ones((2, 2))
        assert relative_error(y, y) == 0.0

    def test_double_is_one(self):
        y = np.ones((3, 2))
        assert np.isclose(relative_error(y, 2 * y), 1.0)

    def test_hand_value(self):
        assert np.isclose(relative_error(np.array([[3.0, 4.0]]), np.zeros((1, 2))), 1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricError):
            relative_error(np.zeros((2, 2)), np.ones((2, 2)))

    def test_db_convention(self):
        assert np.isclose(db(0.1), -20.0)

    def test_db_of_zero_is_minus_inf_without_a_warning(self):
        # the suite turns a RuntimeWarning raised in the package into an error
        assert db(0.0) == -np.inf


def test_function_registry():
    assert set(FUNCTIONS) == {"gram", "identity"}
    assert FUNCTIONS["gram"].degree == 2
