"""Complex linear-algebra and polynomial kernels shared by every other module.

Polynomials are complex arrays in ascending-degree order along the last
axis; leading axes stack independent problems. All operations here are pure
functions over immutable inputs.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import typing

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class ParameterError(ValueError):
    """A configuration value is outside its valid range."""


class RuntimeGuardError(RuntimeError):
    """A request would exceed the configured simulation budget."""


def check_integer(name: str, value) -> int:
    """``value`` as a plain int; ParameterError naming ``name`` unless it is an integer.

    An integer is what `operator.index` takes, a bool apart: 2.0 and True
    are rejected.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def check_index_set(name: str, values, n: int) -> np.ndarray:
    """``values`` as a sorted int array; ParameterError naming ``name`` unless
    they are distinct integers (`check_integer`'s) in 0..n-1."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        idx = values.tolist()
    else:
        idx = [i if type(i) is int else check_integer(f"{name} index", i) for i in values]
    idx.sort()
    if idx and (idx[0] < 0 or idx[-1] >= n) or len(set(idx)) < len(idx):
        raise ParameterError(f"{name} {tuple(idx)} must hold distinct indices in 0..{n - 1}")
    return np.array(idx, dtype=int)


def check_fields(obj) -> None:
    """Check each field of dataclass ``obj`` by its kind (`field_kinds`) and store it plain.

    A value is stored as `check_value` returns it, so numpy scalars and lists
    compare, hash and print as their plain twins; an int, float, bool or str
    of that type is stored as it is.
    """
    values = obj.__dict__  # written directly: a frozen dataclass refuses setattr
    for name, (kind, unchecked) in field_kinds(type(obj)).items():
        if type(values[name]) not in unchecked:
            values[name] = check_value(name, kind, values[name])


@functools.lru_cache(maxsize=16)
def field_kinds(cls) -> dict:
    """{name: (kind, types taken unchecked)} of dataclass ``cls``; the one reader of the
    annotations, each class read once: ``int``, ``float``, ``bool``, ``tuple[int, ...]`` (kind
    ``tuple``) or ``Literal[...]`` of strings (kind: its names), ``| None`` taking None."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        unchecked = (type(None),) if type(None) in typing.get_args(hint) else ()
        if unchecked:
            (hint,) = set(typing.get_args(hint)) - set(unchecked)
        kind = typing.get_args(hint) if typing.get_origin(hint) is typing.Literal else hint
        kind = tuple if kind == tuple[int, ...] else kind
        if kind not in (int, float, bool, tuple) and type(kind) is not tuple:
            raise TypeError(f"{cls.__name__}.{name}: no check for {hint}")
        kinds[name] = (kind, unchecked + ((kind,) if kind in (int, bool) else ()))
    return kinds


def check_value(name: str, kind, value):
    """``value`` as the plain value of a field of kind ``kind``; ParameterError naming ``name``."""
    if kind is float:
        if (type(value) is float or isinstance(value, numbers.Real)
                and not isinstance(value, bool)) and math.isfinite(value):
            return float(value)
        raise ParameterError(f"{name} must be finite and real, got {value!r}")
    if kind is int:
        return check_integer(name, value)
    if kind is bool:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        raise ParameterError(f"{name} must be a bool, got {value!r}")
    if kind is tuple:
        try:
            return tuple(i if type(i) is int else check_integer(f"{name} index", i)
                         for i in value)
        except TypeError:
            raise ParameterError(f"{name} must be a sequence of integers, got {value!r}") from None
    if isinstance(value, str) and value in kind:
        return str(value)
    raise ParameterError(f"{name} must be one of {kind}, got {value!r}")


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


def least_squares(a, b) -> np.ndarray:
    """Minimum-norm minimizer x of ||a @ x - b||_2 for a (..., rows, cols) stack, rows >= cols.

    ``b`` is (..., rows) or (..., rows, k) with the same leading axes as ``a``,
    and x is (..., cols) or (..., cols, k). Each system is solved by SVD with
    the cut-off of np.linalg.lstsq (which does not take stacks): singular
    values <= eps * max(rows, cols) * s_max count as zero.
    """
    a = as_finite_complex(a, "lhs")
    b = as_finite_complex(b, "rhs")
    vector = b.ndim == a.ndim - 1
    rhs = b[..., None] if vector else b
    if a.ndim < 2 or rhs.shape[:-1] != a.shape[:-1]:
        raise DimensionError(f"lhs {a.shape} and rhs {b.shape} do not form linear systems")
    rows, cols = a.shape[-2:]
    if rows < cols:
        raise DimensionError("system must have rows >= cols")
    x = np.linalg.pinv(a, rcond=np.finfo(float).eps * max(rows, cols)) @ rhs
    return x[..., 0] if vector else x


def numerical_rank(m, rel_tol: float):
    """Count singular values above rel_tol times the largest one, per matrix of a stack.

    A square n x n matrix scaled to unit Frobenius norm has sigma_max <= 1, and
    its other n-1 singular values, whose squares sum to at most 1, multiply to
    at most (n-1)**-((n-1)/2): so sigma_min >= |det| * (n-1)**((n-1)/2). One
    batched determinant of the scaled stack gives that bound (as ``slogdet``,
    whose logarithm neither underflows nor overflows at any n), and a matrix
    whose bound exceeds 2*rel_tol + 4*n**2*eps counts n. The allowance covers
    the rounding of the LU (about n*eps, times a pivot growth of up to n), of
    the determinant's product and of the SVD's singular values (each about
    n*eps); the factor 2 leaves room for larger growth. So the SVD's count
    is n as well. Every other matrix goes to `_gram_rank`, which also returns
    the SVD's count: the rank-deficient ones, those near the cut, exact
    zeros, those with a Frobenius norm outside [2**-500, 2**500], and every
    matrix of a non-square stack.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ParameterError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    m = as_finite_complex(m, "matrix")
    if m.ndim < 2:
        raise DimensionError(f"numerical_rank needs a matrix or a stack of them, got {m.shape}")
    n, cols = m.shape[-2:]
    if n != cols:
        return _gram_rank(m, rel_tol)[()]
    with np.errstate(over="ignore"):  # an overflowing norm falls outside the range below
        sq = (m.real**2 + m.imag**2).sum(axis=(-2, -1))
    in_range = (sq >= 2.0**-1000) & (sq <= 2.0**1000)
    scale = np.sqrt(np.divide(1.0, sq, out=np.zeros_like(sq), where=in_range))
    # log |det| of each unit-norm matrix; -inf for a singular one and one out of range
    log_det = np.linalg.slogdet(m * scale[..., None, None])[1]
    eps = np.finfo(float).eps
    log_cut = math.log(2 * rel_tol + 4 * n * n * eps) - 0.5 * (n - 1) * math.log(max(n - 1, 1))
    rank = np.full(sq.shape, n)
    rest = log_det <= log_cut
    if rest.any():
        rank[rest] = _gram_rank(m[rest], rel_tol)
    return rank[()]


def _gram_rank(m, rel_tol: float) -> np.ndarray:
    """`numerical_rank`'s count for any stack, from the eigenvalues of each Gram.

    The count is taken from the eigenvalues of each matrix's Gram (M^H M, or
    M M^H for a wide M): those above rel_tol**2 times the largest, one batched
    ``eigvalsh`` per stack. For an r x k matrix (r >= k; n = max(r, k), u =
    eps/2) forming the Gram moves an eigenvalue by at most (r+2)*k*u*lambda_max,
    ``eigvalsh`` adds about n*u*lambda_max, and a squared singular value of the
    SVD is off by about 4n*u*lambda_max: the two counts can part only at an
    eigenvalue within n*(n+4)*eps*lambda_max of the cut. A matrix with an
    eigenvalue within twice that, 2n(n+4)*eps*lambda_max, of the cut (an
    exactly zero matrix among them) is counted from its singular values, so
    every count is the SVD's. So is every matrix with lambda_max below
    2**-1000, whose Gram underflow could blur, and every matrix of a stack
    that holds an entry of modulus 2**500 or more, whose Gram could overflow.
    """
    rows, cols = m.shape[-2:]
    a = m if np.abs(m).max(initial=0.0) < 2.0**500 else np.zeros_like(m)
    ah = a.conj().swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(ah @ a if rows >= cols else a @ ah)
    top = lam[..., -1:]
    cut = rel_tol**2 * top
    n = max(rows, cols)
    band = 2 * n * (n + 4) * np.finfo(float).eps * top + 2.0**-1000
    near = (np.abs(lam - cut) <= band).any(axis=-1)
    rank = np.asarray(np.count_nonzero(lam > cut, axis=-1))
    if near.any():
        sv = np.linalg.svd(m[near], compute_uv=False)
        rank[near] = np.count_nonzero(sv > rel_tol * sv[..., :1], axis=-1)
    return rank


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
