"""Lagrange encoding, share evaluation, and reconstruction.

Data blocks and random padding blocks are combined into a matrix polynomial
which is evaluated at the N-th roots of unity; workers apply a degree-D
matrix polynomial to their share, and the master recovers the block outputs
by interpolating the composed polynomial and evaluating it back at the
encoding nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numeric import DimensionError, ParameterError, as_finite_complex, least_squares


class InsufficientEvaluationsError(ValueError):
    """Fewer evaluations than the interpolation degree requires."""


class MetricError(ValueError):
    """Relative error is undefined for a zero reference."""


@dataclass(frozen=True)
class MatrixPolynomial:
    """A degree-D polynomial map applied entrywise-polynomially to a matrix."""

    name: str
    degree: int
    apply: Callable[[np.ndarray], np.ndarray]


# X^T X, the sole function used by the experiments. Plain transpose (no
# conjugation) so the map stays a polynomial in the entries.
GRAM = MatrixPolynomial("gram", 2, lambda x: x.swapaxes(-1, -2) @ x)
IDENTITY = MatrixPolynomial("identity", 1, lambda x: x)

FUNCTIONS = {fn.name: fn for fn in (GRAM, IDENTITY)}


@dataclass(frozen=True)
class EncodingParams:
    """Parameters of one encoding: N workers, k data blocks, t padding blocks.

    The worker function has degree `degree`, so interpolation of the composed
    polynomial needs K = (k + t - 1) * degree + 1 evaluations.
    """

    n_workers: int
    k: int
    t: int
    degree: int
    beta: float = 1.5
    sigma_pad: float = 1e6

    def __post_init__(self):
        if self.k < 1 or self.t < 0 or self.degree < 1:
            raise ParameterError("need k >= 1, t >= 0, degree >= 1")
        if self.beta <= 0 or self.sigma_pad < 0:
            raise ParameterError("beta must be positive and sigma_pad non-negative")
        if self.code_dimension > self.n_workers:
            raise ParameterError(
                f"code dimension K={self.code_dimension} exceeds N={self.n_workers}"
            )

    @property
    def nodes(self) -> int:
        return self.k + self.t

    @property
    def code_dimension(self) -> int:
        """Evaluations needed to interpolate the composed polynomial."""
        return (self.k + self.t - 1) * self.degree + 1

    @property
    def eval_points(self) -> np.ndarray:
        """N-th roots of unity gamma^i, i = 0..N-1, gamma = exp(-2*pi*i/N)."""
        return np.exp(-2j * np.pi * np.arange(self.n_workers) / self.n_workers)

    @property
    def encoding_nodes(self) -> np.ndarray:
        """Interpolation nodes beta * omega^r on the radius-beta circle."""
        return self.beta * np.exp(-2j * np.pi * np.arange(self.nodes) / self.nodes)


def make_batch(params: EncodingParams, blocks, rng: np.random.Generator) -> np.ndarray:
    """Stack the k data blocks over t blocks of i.i.d. padding, (k+t, m, n) complex.

    The padding is circular-symmetric Gaussian with std sigma_pad/sqrt(t).
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.shape[0] != params.k:
        raise ParameterError(f"expected {params.k} data blocks, got {blocks.shape[0]}")
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


def lagrange_basis(params: EncodingParams, z) -> np.ndarray:
    """Lagrange basis (l_1(z), ..., l_{k+t}(z)) over the encoding nodes.

    For array-valued z the result has shape z.shape + (k+t,).
    """
    nodes = params.encoding_nodes
    q = nodes.size
    if q < 1:
        raise ParameterError("need at least one encoding node")
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zf = np.atleast_1d(z)[..., None]  # (..., 1)
    diffs = zf - nodes  # (..., q)
    out = np.empty(zf.shape[:-1] + (q,), dtype=complex)
    for r in range(q):
        others = [l for l in range(q) if l != r]
        num = np.prod(diffs[..., others], axis=-1)
        den = np.prod(nodes[r] - nodes[others])
        out[..., r] = num / den
    return out[0] if scalar else out


def encode_shares(batch, params: EncodingParams) -> np.ndarray:
    """Evaluate the encoding polynomial at the N-th roots of unity, (N, m, n)."""
    stacked = np.asarray(batch)
    if stacked.shape[0] != params.nodes:
        raise ParameterError(
            f"batch holds {stacked.shape[0]} matrices, expected {params.nodes}"
        )
    basis = lagrange_basis(params, params.eval_points)  # (N, k+t)
    return np.einsum("ir,rmn->imn", basis, stacked)


def reconstruct(
    returns,
    params: EncodingParams,
    eval_indices=None,
) -> np.ndarray:
    """Recover the k block outputs from worker returns.

    `returns` stacks per-evaluation output matrices as (count, u, h), aligned
    with `eval_indices` (default: all N evaluations in order). With all N
    evaluations present the interpolation is an inverse DFT truncated to K
    coefficients; with a subset (at least K values) the Vandermonde system is
    solved by least squares. Outputs are projected to their real part.
    """
    returns = as_finite_complex(returns, "returns")
    if returns.ndim != 3:
        raise DimensionError("returns must be stacked as (count, u, h)")
    n = params.n_workers
    kdim = params.code_dimension
    count, u, h = returns.shape
    flat = returns.reshape(count, u * h)

    if eval_indices is None:
        if count != n:
            raise InsufficientEvaluationsError(
                f"expected all {n} evaluations when no indices are given, got {count}"
            )
        coeffs = np.fft.ifft(flat, axis=0)[:kdim]  # (K, u*h)
    else:
        eval_indices = np.asarray(eval_indices, dtype=int)
        if eval_indices.shape[0] != count:
            raise DimensionError("eval_indices must match the number of returns")
        if count < kdim:
            raise InsufficientEvaluationsError(
                f"need at least K={kdim} evaluations, got {count}"
            )
        if count == n and np.array_equal(np.sort(eval_indices), np.arange(n)):
            order = np.argsort(eval_indices)
            coeffs = np.fft.ifft(flat[order], axis=0)[:kdim]
        else:
            points = params.eval_points[eval_indices]
            vand = points[:, None] ** np.arange(kdim)[None, :]
            coeffs = least_squares(vand, flat).x

    # evaluate the fitted polynomial back at the first k encoding nodes
    out = np.empty((params.k, u * h), dtype=complex)
    for j, z in enumerate(params.encoding_nodes[: params.k]):
        acc = np.zeros(u * h, dtype=complex)
        for c in range(kdim - 1, -1, -1):
            acc = acc * z + coeffs[c]
        out[j] = acc
    return out.real.reshape(params.k, u, h)


def relative_error(y_ref, y_est) -> float:
    """Frobenius-norm ratio ||y_ref - y_est|| / ||y_ref||."""
    y_ref = np.asarray(y_ref, dtype=float)
    y_est = np.asarray(y_est, dtype=float)
    if y_ref.shape != y_est.shape:
        raise DimensionError("reference and estimate must have matching shapes")
    ref_norm = float(np.linalg.norm(y_ref))
    if ref_norm == 0.0:
        raise MetricError("relative error undefined for a zero reference")
    return float(np.linalg.norm(y_ref - y_est)) / ref_norm


def db(value: float) -> float:
    """Amplitude-ratio decibels: 20*log10(value)."""
    return 20.0 * float(np.log10(value))
