"""Encode, reconstruct and the root metric against test-local reference formulas.

Each of the three is a fixed linear map of its scenario (the root metric is
the squared modulus of one). The references below are the formulas the
library first used: an einsum over the share basis, an inverse DFT cut to K
coefficients followed by Horner evaluation at the first k encoding nodes,
and Horner evaluation of the locator at gamma^q = exp(-2j*pi*q/n).

Every tolerance has the form c * eps * ||map||_F * ||input||_F, with c
stated per test. Forward-error bounds for an inner product of length L put
c near 2L for the difference of two evaluation orders; random inputs sit far
below that, so each constant is set about twenty times the largest ratio
seen over 3,000 random draws rather than at the worst case.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcc_lab.codec import EncodingParams, _share_basis, encode_shares, reconstruct
from alcc_lab.localization import _grid_metric, independent_localize
from alcc_lab.numeric import ParameterError, poly_eval

EPS = np.finfo(float).eps
# largest ratio |new - ref| / (eps ||map|| ||input||) seen over 3,000 draws:
# encode 0.44, reconstruct 0.79, root metric 3.4
C_ENCODE = 8
C_RECONSTRUCT = 16
C_ROOT_METRIC = 64


@st.composite
def encodings(draw):
    """EncodingParams with N <= 31, degree in {1, 2}, beta in [0.5, 3], K <= N."""
    n = draw(st.integers(2, 31))
    degree = draw(st.sampled_from((1, 2)))
    nodes = draw(st.integers(1, (n - 1) // degree + 1))
    k = draw(st.integers(1, nodes))
    beta = draw(st.floats(0.5, 3.0))
    return EncodingParams(n_workers=n, k=k, t=nodes - k, degree=degree,
                          beta=beta, sigma_pad=1.0)


def complex_draws(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def reference_encode(batch, params):
    return np.einsum("ir,rmn->imn", _share_basis(params), batch)


def reference_reconstruct_complex(returns, params):
    count, u, h = returns.shape
    coeffs = np.fft.ifft(returns.reshape(count, u * h), axis=0)[: params.code_dimension]
    out = poly_eval(coeffs.T, params.encoding_nodes[: params.k])
    return out.T.reshape(params.k, u, h)


def reference_reconstruct_map(params):
    """The complex (k, N) map whose real part reconstruct takes, one column per return."""
    n = params.n_workers
    return reference_reconstruct_complex(np.eye(n).reshape(n, n, 1), params)[..., 0]


def reference_root_magnitude(coeffs, n):
    return np.abs(poly_eval(coeffs, np.exp(-2j * np.pi * np.arange(n) / n)))


@given(encodings(), st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_encode_matches_einsum(params, seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 6, size=2)
    # padding rows may sit orders of magnitude above the data rows
    scale = 10.0 ** rng.uniform(-3, 6, size=(params.nodes, 1, 1))
    batch = scale * complex_draws(rng, (params.nodes, m, n))
    shares = encode_shares(batch, params)
    expected = reference_encode(batch, params)
    assert shares.shape == expected.shape == (params.n_workers, m, n)
    tol = C_ENCODE * EPS * np.linalg.norm(_share_basis(params)) * np.linalg.norm(batch)
    assert np.abs(shares - expected).max() <= tol


@given(encodings(), st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_reconstruct_matches_ifft_and_horner(params, seed):
    rng = np.random.default_rng(seed)
    u, h = rng.integers(1, 6, size=2)
    returns = complex_draws(rng, (params.n_workers, u, h))
    estimate = reconstruct(returns, params)
    expected = reference_reconstruct_complex(returns, params).real
    assert estimate.shape == expected.shape == (params.k, u, h)
    recon = reference_reconstruct_map(params)
    tol = C_RECONSTRUCT * EPS * np.linalg.norm(recon) * np.linalg.norm(returns)
    assert np.abs(estimate - expected).max() <= tol


@given(st.integers(1, 31), st.data())
@settings(max_examples=200, deadline=None)
def test_root_metric_matches_horner_at_roots_of_unity(n, data):
    degree = data.draw(st.integers(0, n - 1))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    stack = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
    coeffs = complex_draws(rng, stack + (degree + 1,))
    metric = _grid_metric(coeffs, n)
    expected = reference_root_magnitude(coeffs, n)
    assert metric.shape == expected.shape == stack + (n,)
    # the map is the (n, degree+1) evaluation matrix, |entries| = 1; compare |g|
    vand_norm = np.sqrt(n * (degree + 1))
    tol = C_ROOT_METRIC * EPS * vand_norm * np.linalg.norm(coeffs, axis=-1, keepdims=True)
    assert (np.abs(np.sqrt(metric) - expected) <= tol).all()


@pytest.mark.parametrize("n", [7, 31])
def test_root_metric_candidates_index_the_full_grid(n):
    rng = np.random.default_rng(n)
    coeffs = complex_draws(rng, (4, 3))
    cand = np.array([n - 1, 0, 3])
    full = _grid_metric(coeffs, n)
    # candidates are read ascending (np.unique), whatever order they were given in
    picked = independent_localize(coeffs, 2, n, cand)
    for row, found in zip(full, picked):
        expected = sorted(sorted(cand, key=lambda q: (row[q], q))[:2])
        assert found.tolist() == expected
    assert np.array_equal(picked, independent_localize(coeffs, 2, n, np.sort(cand)))


@pytest.mark.parametrize("n,degree", [(7, 7), (7, 9), (31, 31)])
def test_root_metric_rejects_degree_at_least_n(n, degree):
    # an FFT of length n would silently drop the coefficients above degree n-1
    with pytest.raises(ParameterError, match="more coefficients"):
        _grid_metric(np.ones(degree + 1, dtype=complex), n)
