"""(N, K) DFT code construction and the four decoder blocks.

The generator is the first K rows of the unitary DFT matrix and the parity
check is the remaining N-K rows, so G H^dagger = 0 by unitarity. The decoder
blocks are: syndrome projection, error-count estimation (Hankel rank),
locator-polynomial solve, and error-value recovery/subtraction. Each block
takes one codeword (its syndrome, locator, ...) or a stack of them along
leading axes; a stack shares one error count or one detected-set size.
The locator and value recovery share one solve: a square system through the
inverse of its own matrix, any other from its normal matrix with one
refinement step, and the SVD of `numeric.least_squares` only past the guard.
Value recovery and correction also take one detected set shared by the whole
stack: the recovery is then one product with the set's operator, built once
per (N, K, set) and cached.

A code depends only on (N, K), so `build_code` builds each one once and
returns the same `DftCode`, with read-only generator, parity and H^dagger H,
to every caller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numeric import (
    DimensionError,
    ParameterError,
    as_finite_complex,
    dft_matrix,
    least_squares,
    numerical_rank,
)


class CapabilityExceededError(ValueError):
    """Declared or estimated error count exceeds the code capability."""


@dataclass(frozen=True)
class DftCode:
    """An (N, K) code over the complex field built from the unitary DFT matrix."""

    n: int
    k: int
    generator: np.ndarray = field(repr=False)
    parity: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)  # H^dagger H, (N, N)

    @property
    def capability(self) -> int:
        """Maximum number of correctable errors v = floor((N-K)/2)."""
        return (self.n - self.k) // 2


@functools.lru_cache(maxsize=128)
def build_code(n: int, k: int, /) -> DftCode:
    """The (N, K) DFT code, built on the first call for (n, k) and shared after.

    (n, k) are positional-only: the cache keys a keyword call apart from a
    positional one, so taking keywords would build a second, equal code.
    """
    if not 1 <= k < n:
        raise ParameterError(f"need 1 <= K < N, got N={n}, K={k}")
    w = dft_matrix(n)
    w.flags.writeable = False  # generator and parity are views of w
    gram = w[k:].conj().T @ w[k:]
    gram.flags.writeable = False
    return DftCode(n=n, k=k, generator=w[:k], parity=w[k:], gram=gram)


def syndrome(code: DftCode, r) -> np.ndarray:
    """Project received words (..., N) onto the parity rows: s = r @ H^dagger, (..., N-K)."""
    r = as_finite_complex(r, "received")
    if r.shape[-1] != code.n:
        raise DimensionError(f"received length {r.shape[-1]} != N={code.n}")
    return r @ code.parity.conj().T


def hankel_syndrome_matrix(code: DftCode, s) -> np.ndarray:
    """(..., v, v) Hankel matrices whose rank counts the errors (rows s[i..i+v-1])."""
    s = np.asarray(s, dtype=complex)
    v = code.capability
    if s.shape[-1] < 2 * v - 1:
        raise DimensionError("syndrome too short for the Hankel window")
    return sliding_window_view(s, v, axis=-1)[..., :v, :]


def estimate_error_count(code: DftCode, s, rel_tol: float = 1e-6):
    """Number of errors behind each syndrome: the numerical rank of its Hankel matrix."""
    return numerical_rank(hankel_syndrome_matrix(code, s), rel_tol)


def locator_polynomial(code: DftCode, s, count: int) -> np.ndarray:
    """Solve the syndrome recursion for the locator coefficients, (..., count+1).

    The locator's roots among gamma^q mark the corrupted evaluation indices;
    its coefficients are ascending, with g_0 = 1. Row i (i = 0..2v-count-1)
    reads sum_j s[i+j] * g_{count-j} = -s[i+count]; that system W g = b over
    every syndrome window is solved by `_normal_solve`, through W itself at
    count = v, where W is square, else from its normal matrix. Every syndrome
    of a stack shares `count`, but each is its own system.
    """
    s = np.asarray(s, dtype=complex)
    v = code.capability
    if not 1 <= count <= v:
        raise CapabilityExceededError(f"count must lie in 1..v={v}, got {count}")
    windows = s[..., _window_index(v, count)].reshape(-1, 2 * v - count, count + 1)
    # W g = b in the row form `_normal_solve` takes: -g @ conj(W)^H = -b
    x = _normal_solve(windows[..., :count].conj(), windows[:, None, :, count])
    # x is -(g_count, ..., g_1); flip into ascending coefficients after g_0 = 1
    coeffs = np.ones((len(x), count + 1), dtype=complex)
    np.negative(x[:, 0, ::-1], out=coeffs[:, 1:])
    return coeffs.reshape(s.shape[:-1] + (count + 1,))


@functools.lru_cache(maxsize=128)
def _window_index(v: int, count: int) -> np.ndarray:
    """Read-only (2v-count, count+1) positions of the syndrome windows, row i at i..i+count."""
    index = np.arange(2 * v - count)[:, None] + np.arange(count + 1)
    index.flags.writeable = False
    return index


def _normal_solve(a: np.ndarray, s: np.ndarray, gram=None) -> np.ndarray:
    """Least-squares rows x (P, m, cols) of x @ a^H = s (P, m, rows), one inverse per stack.

    A square stack solves through M = a^H, x = s @ inv(M), with no refinement
    step: on s = I, a shared set's operator, its rounded residual would cost
    the cond(M) * eps accuracy. Any other stack takes the corrected semi-normal
    equations (Bjorck 1987) with M = G = a^H a, ``gram`` when the caller holds
    it: x = s @ a @ inv(G), then x += (s - x @ a^H) @ a @ inv(G). A system whose
    Frobenius cond(M) is above 1e8, or every system when ``inv`` rejects the
    stack, is solved by `least_squares` instead.
    """
    lhs = a.conj().swapaxes(-1, -2)  # x @ lhs is x's right-hand side
    square = a.shape[-2] == a.shape[-1]
    m = lhs if square else (lhs @ a if gram is None else gram)
    try:
        m_inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:  # an exactly singular M: the whole stack falls back
        m_inv = np.full_like(m, np.nan)
    cond = np.linalg.norm(m, axis=(-2, -1)) * np.linalg.norm(m_inv, axis=(-2, -1))
    if square:
        x = s @ m_inv
    else:
        x = s @ a @ m_inv
        x += (s - x @ lhs) @ a @ m_inv
    fallback = ~(cond <= 1e8)  # a NaN cond falls back too
    if fallback.any():
        a, b = a[fallback].conj(), s[fallback].swapaxes(-1, -2)
        x[fallback] = least_squares(a, b).swapaxes(-1, -2)
    return x


def _solve_values(code: DftCode, s: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Values (P, m, count) of s (P, m, N-K) on Q = locations[p], with G = (H^dagger H)[Q, Q]."""
    columns = code.parity.T[locations].swapaxes(-1, -2)  # (P, N-K, count), H[:, Q]
    return _normal_solve(columns, s, code.gram[locations[..., :, None], locations[..., None, :]])


@functools.lru_cache(maxsize=128)
def _value_operator(n: int, k: int, locations: tuple) -> np.ndarray:
    """Read-only (N-K, count) least-squares operator of one detected set.

    The systems s = e @ conj(H[:, set]).T share their matrix, so each row of
    ``s @ op`` is the least-squares solution for that row: op is the
    `_solve_values` of the identity, row j the values of the j-th unit syndrome.
    """
    op = _solve_values(build_code(n, k), np.eye(n - k)[None], np.array([locations]))[0]
    op.flags.writeable = False
    return op


def recover_error_values(code: DftCode, s, locations) -> np.ndarray:
    """Least-squares solve of s = e @ H^dagger on the detected columns, (..., count).

    ``locations`` (..., count) gives each syndrome of ``s`` (..., N-K) its own
    set and system; `_normal_solve` solves them with one batched inverse of
    their normal matrices. ``locations`` (count,) is one set shared by every
    syndrome: the values are ``s @ op`` with the set's cached (N-K, count)
    operator.
    """
    locations = np.asarray(locations, dtype=int)
    count = locations.shape[-1]
    if count > code.n - code.k:
        raise CapabilityExceededError(
            f"{count} locations exceed the {code.n - code.k} syndrome equations"
        )
    if count == 0:
        return np.zeros(np.shape(s)[:-1] + (0,), dtype=complex)
    s = as_finite_complex(s, "syndrome")
    lead = s.shape[:-1] if locations.ndim == 1 else locations.shape[:-1]
    if s.shape != lead + (code.n - code.k,):
        raise DimensionError(f"syndrome shape {s.shape} is not {lead} + (N-K={code.n - code.k},)")
    rows = s.reshape(-1, s.shape[-1])
    if locations.ndim == 1:
        values = rows @ _value_operator(code.n, code.k, tuple(locations.tolist()))
    else:
        values = _solve_values(code, rows[:, None], locations.reshape(-1, count))[:, 0]
    return values.reshape(lead + (count,))


def correct_codeword(r, locations, values) -> np.ndarray:
    """Subtract recovered error values at their locations, per codeword of a stack.

    ``locations`` is (..., count), one set per codeword, or (count,), one set
    shared by every codeword.
    """
    r = np.asarray(r, dtype=complex).copy()
    locations = np.asarray(locations, dtype=int)
    if locations.ndim == 1:
        r[..., locations] -= values
    else:
        np.put_along_axis(r, locations, np.take_along_axis(r, locations, -1) - values, -1)
    return r
