"""(N, K) DFT code construction and the four decoder blocks.

The generator is the first K rows of the unitary DFT matrix and the parity
check is the remaining N-K rows, so G H^dagger = 0 by unitarity. The decoder
blocks are: syndrome projection, error-count estimation (Hankel rank),
locator-polynomial solve, and error-value recovery/subtraction. Each block
takes one codeword (its syndrome, locator, ...) or a stack of them along
leading axes; a stack shares one error count or one detected-set size.
The locator at counts 1 and 2 is solved in closed form, elementwise over the
stack: a square system by division or Cramer's rule, any other from its 1 x 1
or 2 x 2 normal matrix, inverted by its adjugate, with one refinement step.
Larger counts and value recovery share one solve, `_normal_solve`: a square
system through the inverse of its own matrix, any other from its normal
matrix with one refinement step. Both guard every system by the Frobenius
condition number of the matrix they invert, and take the SVD of
`numeric.least_squares` only past it.
Value recovery and correction also take one detected set shared by the whole
stack: the recovery is then one product with the set's operator, built once
per (N, K, set) and cached.

A code depends only on (N, K), so `build_code` builds each one once and
returns the same `DftCode`, with read-only generator, parity, H^dagger and
H^dagger H, to every caller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

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
    parity_h: np.ndarray = field(repr=False)  # H^dagger, (N, N-K)
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
    conj = w[k:].conj()
    conj.flags.writeable = False
    parity_h = conj.T  # the layout of parity.conj().T, so products keep their bits
    gram = parity_h @ w[k:]
    gram.flags.writeable = False
    return DftCode(n=n, k=k, generator=w[:k], parity=w[k:], parity_h=parity_h, gram=gram)


def syndrome(code: DftCode, r) -> np.ndarray:
    """Project received words (..., N) onto the parity rows: s = r @ H^dagger, (..., N-K)."""
    r = as_finite_complex(r, "received")
    if r.shape[-1] != code.n:
        raise DimensionError(f"received length {r.shape[-1]} != N={code.n}")
    return r @ code.parity_h


def hankel_syndrome_matrix(code: DftCode, s) -> np.ndarray:
    """(..., v, v) Hankel matrices whose rank counts the errors (rows s[i..i+v-1])."""
    s = np.asarray(s, dtype=complex)
    v = code.capability
    if s.shape[-1] < 2 * v - 1:
        raise DimensionError("syndrome too short for the Hankel window")
    return s[..., _window_index(v, v - 1)[:v]]


def estimate_error_count(code: DftCode, s, rel_tol: float = 1e-6):
    """Number of errors behind each syndrome: the numerical rank of its Hankel matrix."""
    return numerical_rank(hankel_syndrome_matrix(code, s), rel_tol)


def locator_polynomial(code: DftCode, s, count: int) -> np.ndarray:
    """Solve the syndrome recursion for the locator coefficients, (..., count+1).

    The locator's roots among gamma^q mark the corrupted evaluation indices;
    its coefficients are ascending, with g_0 = 1. Row i (i = 0..2v-count-1)
    reads sum_j s[i+j] * g_{count-j} = -s[i+count]: a system W g = b over
    every syndrome window. Counts 1 and 2 are solved in closed form,
    elementwise over the stack (`_small_locator`); a larger count by
    `_normal_solve`, through W itself at count = v, where W is square, else
    from its normal matrix. Every syndrome of a stack shares `count`, but
    each is its own system.
    """
    s = np.asarray(s, dtype=complex)
    v = code.capability
    if not 1 <= count <= v:
        raise CapabilityExceededError(f"count must lie in 1..v={v}, got {count}")
    rows = s.reshape(-1, s.shape[-1])
    if count <= 2:
        coeffs = _small_locator(rows, v, count)
    else:
        windows = rows[:, _window_index(v, count)]
        # W g = b in the row form `_normal_solve` takes: -g @ conj(W)^H = -b
        x = _normal_solve(windows[..., :count].conj(), windows[:, None, :, count])
        # x is -(g_count, ..., g_1); flip into ascending coefficients after g_0 = 1
        coeffs = np.ones((len(x), count + 1), dtype=complex)
        np.negative(x[:, 0, ::-1], out=coeffs[:, 1:])
    return coeffs.reshape(s.shape[:-1] + (count + 1,))


def _small_locator(s: np.ndarray, v: int, count: int) -> np.ndarray:
    """Ascending locator coefficients (P, count+1) of syndrome rows s (P, N-K), count 1 or 2.

    Each row's windows F = [W b] give the system W x = b, x = -(g_count, ..,
    g_1). For an M of count rows, `_null` gives z with M z = 0 and z_count =
    det M, up to sign, so z reversed over z_count is (1, g_1, .., g_count).
    A square system (count = v) takes M = F: division or Cramer's rule. Any
    other takes M = [G W^H b] with G = W^H W, the normal equations solved by
    the adjugate of G, then one corrected semi-normal step as in
    `_normal_solve`: z gains `_null([G W^H r])` for the residual r = b - W x =
    F z / z_count. The guard is `_normal_solve`'s, on W or G: the Frobenius
    cond ||M||_F ||adj M||_F / |det M| against 1e8, where ||adj M||_F is 1 at
    count 1 and ||M||_F at count 2. A NaN cond, or a det that is zero or
    subnormal, fails it too; those systems are solved by `least_squares`, and
    nothing warns on the way. Every array here holds one entry per row of
    its last axis, (..., P), so each operation runs over the whole stack.
    """
    cols = s.T[_window_index(v, count).T]  # F^T: W's columns, then b, (count+1, 2v-count, P)
    square = cols.shape[1] == count
    with np.errstate(all="ignore"):
        if square:
            m = cols.swapaxes(0, 1)  # F
        else:
            conj = cols[:count].conj()
            m = (conj[:, None] * cols).sum(axis=2)  # [G W^H b], (count, count+1, P)
        z = _null(m)
        det = z[count]
        z = z / det  # the coefficients, reversed
        if not square:
            residual = (cols * z[:, None]).sum(axis=0)  # b - W x
            m[:, count] = (conj * residual).sum(axis=1)
            z[:count] += _null(m)[:count] / det
        m = m[:, :count]  # W or G, the matrix the guard judges
        size = np.abs(det)
        norm = size if count == 1 else (m * m.conj()).real.sum(axis=(0, 1))
        ok = (size >= _TINY) & (norm / size <= 1e8)
    coeffs = z[::-1].T
    coeffs[:, 0] = 1.0  # z_count / z_count, which complex division may round
    if not ok.all():
        bad = ~ok
        w, b = cols[:count, :, bad].T, cols[count, :, bad]
        coeffs[bad, 1:] = -least_squares(w, b)[:, ::-1]
    return coeffs


_TINY = 2.0**-1022  # the smallest normal float
# the entries of a (2, 3) M whose products give the cross product of its rows
_CROSS_ROWS = np.array([[0], [1], [0], [1]])
_CROSS_COLS = np.array([[1, 2, 0], [2, 0, 1], [2, 0, 1], [1, 2, 0]])
_SWAP_SIGN = np.array([[1.0], [-1.0]])


def _null(m: np.ndarray) -> np.ndarray:
    """z (count+1, ...) with m z = 0 for m (count, count+1, ...), count 1 or 2.

    z_count is det(m[:count, :count]) at count 2, and its negative at count 1:
    z is (m_01, -m_00) for one row, the cross product of the rows for two.
    """
    if len(m) == 1:
        return m[0, ::-1] * _SWAP_SIGN
    f = m[_CROSS_ROWS, _CROSS_COLS]
    return f[0] * f[1] - f[2] * f[3]


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
    fallback = _needs_fallback(m, m_inv)
    if square:
        x = s @ m_inv
    else:
        x = s @ a @ m_inv
        x += (s - x @ lhs) @ a @ m_inv
    if fallback.any():
        a, b = a[fallback].conj(), s[fallback].swapaxes(-1, -2)
        x[fallback] = least_squares(a, b).swapaxes(-1, -2)
    return x


def _needs_fallback(m: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, whether its Frobenius cond(M) is above 1e8 or NaN.

    cond(M) = ||M||_F ||inv(M)||_F. Each squared norm is one dot product of
    the matrix's entries, read as a row of floats from one contiguous copy of
    both stacks, whatever their layouts.
    """
    size = 2 * m.shape[-2] * m.shape[-1]  # floats per matrix
    # concatenate keeps a layout both share, such as a transposed lhs and its NaN inverse
    both = np.ascontiguousarray(np.concatenate((m, m_inv)))
    rows = both.view(float).reshape(2, *m.shape[:-2], 1, size)
    with np.errstate(over="ignore"):  # an overflowing norm gives an inf cond: fallback
        norms = np.sqrt((rows @ rows.swapaxes(-1, -2))[..., 0, 0])
        return ~(norms[0] * norms[1] <= 1e8)  # a NaN cond falls back too


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
