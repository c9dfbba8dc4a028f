"""Closed-form localization error-rate bounds and attack objectives.

Everything here evaluates analytical quantities: the pairwise-error lower
bound and its kappa constant, union-style sums over confusable index pairs,
the dominant-neighbor bound and its monotone behavior in the error count,
the strong-collusion objective over the number of all-one rows, and the
confusability terms used by the share-assignment optimizer. All of them rest
on one surrogate, kappa/(1+kappa) * exp(-eta c^2 kappa / (4 sigma^2 (1+kappa))),
and every kappa/(1+kappa) comes from one private `_gamma`. The single-pair
bound and the union sum take a code size, a true support and the noise
directly, and share one private per-pair formula. The dominant term is that
surrogate at gap 1 with c^2 = 1, times the error count; the strong-collusion
objective is two dominant terms, the all-one one at noise sigma^2 / omega.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numeric import ParameterError, check_index_set


def check_noise_parameters(eta: float, sigma_p_sq: float) -> None:
    """Raise ParameterError, naming the field, unless both are finite and positive."""
    for name, value in (("eta", eta), ("sigma_p_sq", sigma_p_sq)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be finite and positive, got {value!r}")


def kappa(n: int, a: int, index_gap: int, eta: float) -> float:
    """kappa = 2 / (eta * sum_{l=1..a} (1 - cos(l * 2*pi*gap/n)))."""
    if not 1 <= index_gap <= n - 1:
        raise ParameterError(f"index gap must lie in 1..{n - 1}")
    if a < 1:
        raise ParameterError("degree must be at least 1")
    theta = 2.0 * math.pi * index_gap / n
    total = sum(1.0 - math.cos(l * theta) for l in range(1, a + 1))
    if total <= 0.0:
        raise ZeroDivisionError("all cosine terms are one; kappa undefined")
    return 2.0 / (eta * total)


def locator_gain(n: int, support, probe: int) -> complex:
    """Locator value at the probe root for a g_0 = 1 locator on the support.

    Equals prod_a (1 - gamma^probe / gamma^{q_a}).
    """
    roots = np.exp(-2j * np.pi * np.asarray(support, dtype=int) / n)
    z = np.exp(-2j * np.pi * probe / n)
    return complex(np.prod(1.0 - z / roots))


def _gamma(n: int, a: int, gap: int, eta: float) -> float:
    """kappa/(1+kappa) at one index gap: the prefactor and exponent scale of every term."""
    kap = kappa(n, a, gap, eta)
    return kap / (1.0 + kap)


def _pep_term(n: int, a: int, gap: int, eta: float, sigma_p_sq: float, c_sq: float) -> float:
    """kappa/(1+kappa) * exp(-eta * c^2 * kappa / (4 sigma^2 (1+kappa))).

    Returns the 0 limit when sigma_p_sq is exactly zero (exponent -> -inf).
    """
    ratio = _gamma(n, a, gap, eta)
    if sigma_p_sq == 0.0:
        return 0.0 if c_sq > 0.0 else ratio
    return ratio * math.exp(-eta * c_sq * ratio / (4.0 * sigma_p_sq))


def pep_lower_bound(
    n: int, support, probe: int, eta: float, sigma_p_sq: float, true_index: int | None = None
) -> float:
    """Pairwise-error lower bound for confusing `true_index` (default: the
    smallest support index) with `probe`, c taken from the true support.

    It is no lower bound where kappa/(1+kappa) > 1/2 (small a, gap 1, large
    N) and sigma^2 is large: the simulated pairwise rate tends to 1/2 there,
    the bound to kappa/(1+kappa).
    """
    support = sorted(int(q) for q in support)
    true_index = support[0] if true_index is None else int(true_index)
    if true_index == probe:
        raise ParameterError("probe and true index must differ")
    c = locator_gain(n, support, probe)
    return _pep_term(n, len(support), abs(int(probe) - true_index), eta, sigma_p_sq,
                     c.real**2 + c.imag**2)


@dataclass(frozen=True)
class UnionBound:
    """A sum of pairwise surrogate terms and its value clamped to one."""

    value: float
    raw_sum: float
    pair_count: int


def localization_upper_bound(
    n: int, support, sigma_p_sq: float, eta: float
) -> UnionBound:
    """Sum of the pairwise surrogate over all (probe not in support, true in
    support) pairs, clamped to one.

    The per-pair term is a lower bound, so this composite is a surrogate
    objective rather than a certified bound on the empirical rate.
    """
    check_noise_parameters(eta, sigma_p_sq)
    support = check_index_set("support", support, n).tolist()
    others = [j for j in range(n) if j not in support]
    total = 0.0
    for probe in others:
        c = locator_gain(n, support, probe)
        for true_index in support:
            total += _pep_term(n, len(support), abs(probe - true_index), eta, sigma_p_sq,
                               c.real**2 + c.imag**2)
    return UnionBound(value=min(total, 1.0), raw_sum=total, pair_count=len(support) * len(others))


def dominant_term_bound(a_c: int, n: int, sigma_p_sq: float, eta: float) -> float:
    """a_c times the nearest-neighbor (gap 1) pairwise surrogate (dominant-pair bound)."""
    if a_c < 1:
        raise ParameterError("degree must be at least 1")
    check_noise_parameters(eta, sigma_p_sq)
    ratio = _gamma(n, a_c, 1, eta)
    return math.exp(math.log(a_c) + math.log(ratio) - eta * ratio / (4.0 * sigma_p_sq))


def strong_collusion_objective(
    m_rows: int, v: int, omega: int, n: int, sigma_p_sq: float, eta: float
) -> float:
    """Approximate localization-error objective when omega rows are all-one.

    The omega all-one rows collapse into one averaged polynomial whose
    effective noise shrinks by omega; the remaining rows contribute the
    dominant degree-(v-1) term. omega = 0 means no full-degree polynomial
    exists at all.
    """
    if not 0 <= omega <= m_rows:
        raise ParameterError("omega must lie in 0..m_rows")
    if v < 2:
        raise ParameterError("need v >= 2 so that degree v-1 rows exist")
    reduced_term = dominant_term_bound(v - 1, n, sigma_p_sq, eta)
    if omega == 0:
        return reduced_term
    averaged_var = sigma_p_sq / omega
    # a subnormal sigma^2 can underflow to 0 here: take the term's limit, 0
    full_term = dominant_term_bound(v, n, averaged_var, eta) if averaged_var > 0 else 0.0
    share = 1.0 / (m_rows - omega + 1)
    return share * full_term + (m_rows - omega) * share * reduced_term


@functools.lru_cache(maxsize=64)
def gamma_bounds(n: int, a: int, eta: float) -> tuple[float, float]:
    """Exhaustive (min, max) of kappa/(1+kappa) over index gaps 1..n-1.

    Cached: an assignment scan resolves it once for every subset it scores.
    """
    ratios = [_gamma(n, a, gap, eta) for gap in range(1, n)]
    return min(ratios), max(ratios)


def confusability(support, probe: int, n: int, metric: str = "integer") -> float:
    """Squared product of differences between the probe and the support.

    metric="integer" takes the literal index differences; metric="chord"
    takes root-of-unity differences (rotation invariant).
    """
    support = np.asarray(support, dtype=int)
    if metric == "integer":
        prod = float(np.prod((probe - support).astype(float)))
        return prod * prod
    if metric == "chord":
        roots = np.exp(-2j * np.pi * support / n)
        z = np.exp(-2j * np.pi * probe / n)
        return float(np.abs(np.prod(z - roots)) ** 2)
    raise ParameterError(f"unknown confusability metric {metric!r}")


def assignment_pair_log_bound(
    support, probe: int, n: int, eta: float, gamma_max: float, sigma_p_sq: float,
    metric: str = "integer",
) -> float:
    """Log of exp(-eta * H * gamma_max / (4 sigma^2)) for one (support, probe)."""
    h = confusability(support, probe, n, metric)
    return -eta * h * gamma_max / (4.0 * sigma_p_sq)
