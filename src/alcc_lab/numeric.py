"""Complex linear-algebra and polynomial kernels shared by every other module.

Polynomials are complex arrays in ascending-degree order along the last
axis; leading axes stack independent problems. All operations here are pure
functions over immutable inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class ParameterError(ValueError):
    """A configuration value is outside its valid range."""


class RuntimeGuardError(RuntimeError):
    """A request would exceed the configured simulation budget."""


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
    """Least-squares solution plus conditioning metadata, one rank and cond per system.

    ``cond`` is the Frobenius condition number ||a||_F * ||pinv(a)||_F, which
    lies in [kappa_2, cols * kappa_2]; it is inf for a system whose smallest
    singular value is at most eps times its largest.
    """

    x: np.ndarray
    rank: np.ndarray
    cond: np.ndarray


_EPS = np.finfo(float).eps


def least_squares(a, b) -> LstsqSolution:
    """Minimize ||a @ x - b||_2 for a (..., rows, cols) stack, rows >= cols.

    ``b`` is (..., rows) or (..., rows, k) with the same leading axes as ``a``.
    Each system is solved by Householder QR, x = R^-1 Q^H b, and cond comes
    from the same R^-1 as ||R||_F * ||R^-1||_F. One ``np.linalg.qr(mode="raw")``
    of [a | b] holds R and Q^H b in the upper triangle of its factored array;
    the Householder vectors below R's diagonal are zeroed through a read-only
    mask cached per ``cols``. Only the systems with cond >= 1 / (eps *
    max(rows, cols)), or with a zero or non-finite diagonal of R, are solved
    again by SVD as np.linalg.lstsq (which does not take stacks) solves them:
    singular values <= eps * max(rows, cols) * s_max count as zero and x is
    the minimum-norm solution. Every system lstsq would cut meets that test,
    so rank and x differ from the full-rank QR answer only there.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    vector = b.ndim == a.ndim - 1
    rhs = b[..., None] if vector else b
    if a.ndim < 2 or rhs.shape[:-1] != a.shape[:-1]:
        raise DimensionError(f"lhs {a.shape} and rhs {b.shape} do not form linear systems")
    rows, cols = a.shape[-2:]
    if rows < cols:
        raise DimensionError("system must have rows >= cols")
    augmented = np.concatenate([a, rhs], axis=-1)
    if not np.isfinite(augmented).all():
        as_finite_complex(a, "lhs")
        as_finite_complex(b, "rhs")
    # raw mode returns the factored [a | b] transposed: R in its leading
    # cols x cols block, Householder vectors below it, and Q^H b beside it
    factored = np.linalg.qr(augmented, mode="raw")[0].swapaxes(-1, -2)
    r, qhb = factored[..., :cols, :cols], factored[..., :cols, cols:]
    np.copyto(r, 0, where=_strict_lower(cols))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    singular = ~(np.isfinite(diag) & (diag != 0)).all(axis=-1)
    if singular.any():
        # an exactly singular R would make inv raise for the whole stack
        r[singular] = np.eye(cols)
    r_inv = np.linalg.inv(r)
    with np.errstate(over="ignore", invalid="ignore"):
        x = r_inv @ qhb
        cond = np.asarray(np.sqrt(_frobenius_sq(r) * _frobenius_sq(r_inv)))
    # written as a negation so that a NaN cond falls back too
    fallback = singular | ~(cond < 1.0 / (_EPS * max(rows, cols)))
    rank = np.full(a.shape[:-2], cols)
    if fallback.any():
        x[fallback], rank[fallback], cond[fallback] = _svd_least_squares(
            a[fallback], rhs[fallback]
        )
    return LstsqSolution(x=x[..., 0] if vector else x, rank=rank, cond=cond)


@functools.lru_cache(maxsize=128)
def _strict_lower(cols: int) -> np.ndarray:
    """Read-only (cols, cols) mask of the entries below the diagonal."""
    mask = np.tri(cols, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _frobenius_sq(m):
    return np.square(np.abs(m)).sum(axis=(-2, -1))


def _svd_least_squares(a, rhs):
    """np.linalg.lstsq's x and rank, and the Frobenius cond, for a stack with matrix rhs."""
    rows, cols = a.shape[-2:]
    u, sv, vh = np.linalg.svd(a, full_matrices=False)
    kept = sv > _EPS * max(rows, cols) * sv[..., :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=kept)
    x = vh.conj().swapaxes(-1, -2) @ (inv[..., None] * (u.conj().swapaxes(-1, -2) @ rhs))
    well_posed = sv[..., -1] > _EPS * sv[..., 0]
    # singular values relative to the largest lie in (eps, 1] where cond is finite
    t = np.divide(sv, sv[..., :1], out=np.ones_like(sv), where=well_posed[..., None])
    cond = np.where(well_posed, np.sqrt((t**2).sum(-1) * (t**-2.0).sum(-1)), np.inf)
    return x, kept.sum(axis=-1), cond


def numerical_rank(m, rel_tol: float):
    """Count singular values above rel_tol times the largest one, per matrix of a stack."""
    if not 0.0 < rel_tol < 1.0:
        raise ParameterError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    m = as_finite_complex(m, "matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    return np.count_nonzero(sv > rel_tol * sv[..., :1], axis=-1)


def poly_eval(coeffs, z):
    """Horner evaluation (np.polyval's recurrence) of ascending-order polynomials.

    ``coeffs`` (..., d+1) at scalar or array z gives coeffs.shape[:-1] + z.shape.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim == 0 or coeffs.shape[-1] == 0:
        raise ParameterError("polynomial needs at least one coefficient")
    z = np.asarray(z)
    lift = (...,) + (np.newaxis,) * z.ndim
    acc = np.zeros(coeffs.shape[:-1] + z.shape, dtype=complex)
    for c in np.moveaxis(coeffs, -1, 0)[::-1]:
        acc = acc * z + c[lift]
    return acc
