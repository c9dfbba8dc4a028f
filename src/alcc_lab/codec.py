"""Lagrange encoding, share evaluation, and reconstruction.

Data blocks and random padding blocks are combined into a matrix polynomial
which is evaluated at the N-th roots of unity; workers apply a degree-D
matrix polynomial to their share, and the master recovers the block outputs
by interpolating the composed polynomial and evaluating it back at the
encoding nodes.

Both steps are fixed linear maps of the `EncodingParams`: encoding is the
(N, k+t) share basis (the Lagrange basis over the encoding nodes, evaluated
at the N roots of unity), and reconstruction is the (k, N) map that takes
the inverse DFT, keeps K coefficients and evaluates them at the first k
encoding nodes. Each is built once per distinct (frozen, hashable)
`EncodingParams` value, shared read-only, and applied as one matrix product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numeric import DimensionError, ParameterError, as_finite_complex, check_integer, poly_eval


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
        for name in ("n_workers", "k", "t", "degree"):
            check_integer(name, getattr(self, name))
        if self.k < 1 or self.t < 0 or self.degree < 1:
            raise ParameterError("need k >= 1, t >= 0, degree >= 1")
        if not (0 < self.beta < np.inf and 0 <= self.sigma_pad < np.inf):
            raise ParameterError("beta must be positive and sigma_pad non-negative, both finite")
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

    The padding is circular-symmetric Gaussian with std sigma_pad/sqrt(t):
    one (2, t, m, n) draw, all the real parts then all the imaginary parts,
    scaled in place with the complex products and quotient of
    ``scale * (re + 1j*im) / sqrt(2)``, so its bytes are that expression's.
    Blocks that are not (k, m, n) raise DimensionError.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 3:
        raise DimensionError(f"blocks must be stacked as (k, m, n), got shape {blocks.shape}")
    if blocks.shape[0] != params.k:
        raise ParameterError(f"expected {params.k} data blocks, got {blocks.shape[0]}")
    batch = np.empty((params.nodes, *blocks.shape[1:]), dtype=complex)
    batch[: params.k] = blocks
    if params.t:
        padding = batch[params.k:]
        padding.real, padding.imag = rng.standard_normal((2, *padding.shape))
        np.multiply(params.sigma_pad / np.sqrt(params.t), padding, out=padding)
        np.divide(padding, np.sqrt(2), out=padding)
    return batch


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


@functools.lru_cache(maxsize=128)
def _share_basis(params: EncodingParams) -> np.ndarray:
    """Read-only (N, k+t) Lagrange basis at the N-th roots of unity, one per params."""
    basis = lagrange_basis(params, params.eval_points)
    basis.flags.writeable = False
    return basis


def encode_shares(batch, params: EncodingParams) -> np.ndarray:
    """Evaluate the encoding polynomial at the N-th roots of unity, (N, m, n)."""
    stacked = np.asarray(batch)
    if stacked.shape[0] != params.nodes:
        raise ParameterError(
            f"batch holds {stacked.shape[0]} matrices, expected {params.nodes}"
        )
    flat = _share_basis(params) @ stacked.reshape(params.nodes, -1)
    return flat.reshape((params.n_workers,) + stacked.shape[1:])


@functools.lru_cache(maxsize=128)
def _reconstruct_map(params: EncodingParams) -> np.ndarray:
    """Read-only (k, N) map from the N returns to the composed polynomial at the k data nodes.

    Column j is the polynomial interpolated from the j-th unit return (its
    inverse DFT cut to K coefficients), evaluated at the first k encoding nodes.
    """
    n = params.n_workers
    coeffs = np.fft.ifft(np.eye(n), axis=0)[: params.code_dimension]  # (K, N)
    recon = poly_eval(coeffs.T, params.encoding_nodes[: params.k]).T
    recon.flags.writeable = False
    return recon


def reconstruct(returns, params: EncodingParams) -> np.ndarray:
    """Recover the k block outputs from all N worker returns.

    `returns` stacks the per-evaluation output matrices as (N, u, h), in
    evaluation order. One product with the cached (k, N) reconstruction map
    interpolates the composed polynomial (inverse DFT, K coefficients) and
    evaluates it at the first k encoding nodes. Outputs are projected to
    their real part.
    """
    returns = as_finite_complex(returns, "returns")
    if returns.ndim != 3:
        raise DimensionError("returns must be stacked as (count, u, h)")
    count, u, h = returns.shape
    if count != params.n_workers:
        raise DimensionError(f"expected all {params.n_workers} evaluations, got {count}")
    out = _reconstruct_map(params) @ returns.reshape(count, u * h)
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
    """Amplitude-ratio decibels: 20*log10(value), -inf for an exact 0."""
    return 20.0 * float(np.log10(value)) if value != 0 else -np.inf
