"""Complex linear-algebra and polynomial kernels shared by every other module.

All polynomials are 1-D complex arrays in ascending-degree order. All
operations here are pure functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class ParameterError(ValueError):
    """A configuration value is outside its valid range."""


def as_finite_complex(a, name: str = "array") -> np.ndarray:
    """Coerce to a complex ndarray, rejecting NaN/Inf entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-by-n DFT matrix with omega = exp(-2*pi*i/n) and 1/sqrt(n) scaling."""
    if n < 1:
        raise DimensionError(f"DFT matrix size must be >= 1, got {n}")
    idx = np.arange(n)
    # reduce exponents mod n before exp() so large products stay accurate
    powers = np.outer(idx, idx) % n
    return np.exp(-2j * np.pi * powers / n) / np.sqrt(n)


@dataclass(frozen=True)
class LstsqSolution:
    """Least-squares solution plus conditioning metadata."""

    x: np.ndarray
    rank: int
    cond: float


def least_squares(a, b) -> LstsqSolution:
    """Minimize ||a @ x - b||_2.

    Returns the minimum-norm solution for rank-deficient systems and a
    condition estimate from the singular values. Requires at least as many
    rows as columns.
    """
    a = as_finite_complex(a, "lhs")
    b = as_finite_complex(b, "rhs")
    if a.ndim != 2:
        raise DimensionError("lhs must be a matrix")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"lhs has {a.shape[0]} rows but rhs has {b.shape[0]}")
    if a.shape[0] < a.shape[1]:
        raise DimensionError("system must have rows >= cols")
    x, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    if sv.size == 0 or sv[0] == 0.0:
        cond = np.inf
    elif sv[-1] <= np.finfo(float).eps * sv[0]:
        cond = np.inf
    else:
        cond = float(sv[0] / sv[-1])
    return LstsqSolution(x=x, rank=int(rank), cond=cond)


def numerical_rank(m, rel_tol: float) -> int:
    """Count singular values above rel_tol times the largest one."""
    if not 0.0 < rel_tol < 1.0:
        raise ParameterError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    m = as_finite_complex(m, "matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def poly_eval(coeffs, z):
    """Horner evaluation of an ascending-order polynomial at scalar or array z."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size == 0:
        raise ParameterError("polynomial needs at least one coefficient")
    return np.polyval(coeffs[::-1], z)
