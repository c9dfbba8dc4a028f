"""(N, K) DFT code construction and the four decoder blocks.

The generator is the first K rows of the unitary DFT matrix and the parity
check is the remaining N-K rows, so G H^dagger = 0 by unitarity. The decoder
blocks are: syndrome projection, error-count estimation (Hankel rank),
locator-polynomial solve, and error-value recovery/subtraction. Each block
takes one codeword (its syndrome, locator, ...) or a stack of them along
leading axes; a stack shares one error count or one detected-set size.
"""

from __future__ import annotations

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

    @property
    def capability(self) -> int:
        """Maximum number of correctable errors v = floor((N-K)/2)."""
        return (self.n - self.k) // 2

    @property
    def roots(self) -> np.ndarray:
        """Code-locator roots gamma^q, q = 0..N-1."""
        return np.exp(-2j * np.pi * np.arange(self.n) / self.n)


def build_code(n: int, k: int) -> DftCode:
    if not 1 <= k < n:
        raise ParameterError(f"need 1 <= K < N, got N={n}, K={k}")
    w = dft_matrix(n)
    return DftCode(n=n, k=k, generator=w[:k], parity=w[k:])


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


@dataclass(frozen=True)
class LocatorPolynomial:
    """Error-locator polynomial, ascending coefficients.

    Its roots among gamma^q mark the corrupted evaluation indices. The
    declared degree equals the error count used to build it. Solved locators
    are normalized to g_0 = 1; noisy copies may carry a perturbed constant
    term.
    """

    coeffs: np.ndarray  # (..., degree + 1)
    degree: int
    # (...) Frobenius condition number ||A||_F ||pinv(A)||_F of the syndrome
    # system, from the QR solve or, where lstsq would cut, the SVD; nan if unsolved
    cond: np.ndarray | float = np.nan

    def __post_init__(self):
        if self.coeffs.shape[-1] != self.degree + 1:
            raise DimensionError("coefficient count must be degree + 1")


def locator_polynomial(code: DftCode, s, count: int) -> LocatorPolynomial:
    """Solve the syndrome recursion for the locator coefficients.

    Row i (i = 0..2v-count-1) reads sum_j s[i+j] * g_{count-j} = -s[i+count]
    with g_0 = 1; the stacked system is solved by least squares, using every
    available syndrome window. Every syndrome of a stack shares `count`.
    """
    s = np.asarray(s, dtype=complex)
    v = code.capability
    if not 1 <= count <= v:
        raise CapabilityExceededError(f"count must lie in 1..v={v}, got {count}")
    windows = sliding_window_view(s[..., : 2 * v], count + 1, axis=-1)
    sol = least_squares(windows[..., :count], -windows[..., count])
    # unknown order is (g_count, ..., g_1); flip into ascending coefficients
    coeffs = np.insert(sol.x[..., ::-1], 0, 1.0, axis=-1)
    return LocatorPolynomial(coeffs=coeffs, degree=count, cond=sol.cond)


def true_locator(code: DftCode, locations) -> LocatorPolynomial:
    """Noise-free locator with roots exactly at the given evaluation indices."""
    locations = np.asarray(locations, dtype=int)
    coeffs = np.array([1.0 + 0j])
    for q in locations:
        coeffs = np.convolve(coeffs, np.array([1.0, -1.0 / code.roots[q]]))
    return LocatorPolynomial(coeffs=coeffs, degree=locations.size)


def recover_error_values(code: DftCode, s, locations) -> np.ndarray:
    """Least-squares solve of s = e @ H^dagger on the columns in locations (..., count)."""
    locations = np.asarray(locations, dtype=int)
    if locations.shape[-1] > code.n - code.k:
        raise CapabilityExceededError(
            f"{locations.shape[-1]} locations exceed the {code.n - code.k} syndrome equations"
        )
    if locations.shape[-1] == 0:
        return np.zeros(locations.shape, dtype=complex)
    # (..., N-K, count): s_j = sum_a e_a conj(H[j, q_a])
    lhs = code.parity.conj().T[locations].swapaxes(-1, -2)
    return least_squares(lhs, s).x


def correct_codeword(r, locations, values) -> np.ndarray:
    """Subtract recovered error values at their locations, per codeword of a stack."""
    r = np.asarray(r, dtype=complex).copy()
    locations = np.asarray(locations, dtype=int)
    np.put_along_axis(r, locations, np.take_along_axis(r, locations, -1) - values, -1)
    return r
