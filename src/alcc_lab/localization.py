"""Error-localization strategies for noisy locator polynomials.

A locator is an array of ascending coefficients, g_0 = 1; a stack of them is
(..., degree+1). Roots are constrained to the N-th-roots-of-unity grid, so
localization orders |g(gamma^q)|^2 over candidate indices instead of
extracting roots. On that grid the locator values are the length-N DFT of the
zero-padded coefficients, so one FFT scores every index of a stack of
locators. Three strategies: independent per polynomial, restricted to an
unreliable index set (independent with a candidate set), and joint across all
polynomials of one decoding round. The independent strategy also takes a
stack of locators that share one degree. The joint strategy takes a (P, v+1)
coefficient matrix, zero above each row's degree, with its (P,) degrees, and
scores all capability-sized subsets of its working set in one array pass. It
returns the winning subset and the locators it scored: each polynomial's
detections are restricted localization of its locator inside that subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

import numpy as np

from .numeric import DimensionError, ParameterError, RuntimeGuardError, check_index_set

# largest subset count the joint search scores before demanding a constraint
# length; its (S, size) index, metric and sorted arrays grow with it, and
# C(20, 8) = 125,970 subsets of 8 take about 8 MB each
_MAX_SUBSETS = 200_000


def _grid_metric(coeffs, n: int) -> np.ndarray:
    """|g(gamma^q)|^2 at every q = 0..n-1 for a stack of ascending coefficient rows.

    On the grid gamma^q = exp(-2j*pi*q/n) a locator's values are the length-n
    DFT of its zero-padded coefficients.
    """
    if coeffs.shape[-1] > n:
        raise ParameterError(
            f"a degree-{coeffs.shape[-1] - 1} locator has more coefficients than N={n}"
        )
    return np.abs(np.fft.fft(coeffs, n, axis=-1)) ** 2


def _smallest(metric, count: int, cand=None) -> np.ndarray:
    """Sorted candidates holding the `count` smallest metric values, ties to the smaller.

    ``cand`` (ascending) names the candidate at each metric position; None
    means the positions themselves.
    """
    if count > metric.shape[-1]:
        raise ParameterError(f"cannot pick {count} of {metric.shape[-1]} candidates")
    # candidates ascending => stable tie-break
    order = np.argsort(metric, axis=-1, kind="stable")[..., :count]
    return np.sort(order if cand is None else cand[order], axis=-1)


def independent_localize(coeffs, count: int, n: int, candidates=None) -> np.ndarray:
    """Indices of the `count` smallest |g(gamma^q)|^2, ties to the smaller index.

    ``coeffs`` is one locator (degree+1,) or a stack (..., degree+1). Returns
    sorted index arrays, (..., count) for a stack of locators.
    """
    metric = _grid_metric(coeffs, n)
    if candidates is None:
        return _smallest(metric, count)
    cand = check_index_set("candidates", candidates, n)
    return _smallest(metric[..., cand], count, cand)


@dataclass(frozen=True)
class JointLocalizationResult:
    """The sorted winning subset, the locators it was scored with, and diagnostics."""

    chosen_subset: np.ndarray
    locators: np.ndarray = field(repr=False)
    objective: float
    initial_union: np.ndarray = field(repr=False)
    constraint_used: int = 0
    union_bound_violated: bool = False
    subsets_evaluated: int = 0


def joint_localize(
    coeffs,
    degrees,
    capability: int,
    n: int,
    constraint_length: int | None = None,
    candidates=None,
    rng: np.random.Generator | None = None,
) -> JointLocalizationResult:
    """Solve for a common root support across all locator polynomials.

    ``coeffs`` (P, capability+1) holds one locator per row, zero above its
    entry of ``degrees`` (P,). Degree-`capability` rows are averaged into a
    single locator; lower-degree ones stay individual. Candidate roots are the
    union of the per-locator independent detections, optionally thinned to a
    random subset of size `constraint_length`, which must be at least 1.
    Every capability-sized subset of the working set is scored, in one array
    pass, by the summed smallest evaluations of each scored locator, and the
    minimum wins (ties to the lexicographically smallest subset).

    Returns the winning subset and, as `locators`, the input rows with the
    degree-`capability` ones replaced by their average; it detects nothing.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    degrees = np.asarray(degrees, dtype=int)
    if degrees.size == 0:
        raise ParameterError("joint localization needs at least one locator")
    if not ((degrees >= 0) & (degrees <= capability)).all():
        raise ParameterError("locator degrees must lie in 0..capability")
    if degrees.ndim != 1 or coeffs.shape != (degrees.size, capability + 1):
        raise DimensionError(
            f"{degrees.size} locators of capability {capability} need "
            f"({degrees.size}, {capability + 1}) coefficients, got {coeffs.shape}"
        )
    if (coeffs[np.arange(capability + 1) > degrees[:, None]] != 0).any():
        raise ParameterError("a locator has a nonzero coefficient above its degree")
    if constraint_length is not None and constraint_length < 1:
        raise ParameterError(f"constraint_length must be at least 1, got {constraint_length}")
    cand = np.arange(n) if candidates is None else check_index_set("candidates", candidates, n)

    full = degrees == capability
    locators = coeffs.copy()
    if full.any():
        locators[full] = coeffs[full].mean(axis=0)
    # one metric matrix in one FFT: the averaged full-degree locator first,
    # then the lower-degree ones in input order
    scored = np.concatenate([np.flatnonzero(full)[:1], np.flatnonzero(~full)])
    scored_degrees = degrees[scored]
    metric = _grid_metric(locators[scored], n)

    initial_union = np.unique(np.concatenate(
        [_smallest(m[cand], d, cand) for m, d in zip(metric, scored_degrees)]
    ))

    violated = initial_union.size > capability
    working = initial_union
    used = working.size
    if constraint_length is not None:
        used = min(constraint_length, working.size)
        if used < working.size:
            if rng is None:
                raise ParameterError("constraint thinning needs an rng")
            working = np.sort(rng.choice(working, size=used, replace=False))

    subset_size = min(capability, working.size)
    evaluated = comb(working.size, subset_size)
    if evaluated > _MAX_SUBSETS:
        raise RuntimeGuardError(
            f"joint search over C({working.size},{subset_size}) subsets is too "
            "large; pass a smaller constraint_length"
        )
    # (S, size) positions into `working`, lexicographic
    subsets = np.fromiter(
        chain.from_iterable(combinations(range(working.size), subset_size)),
        dtype=int, count=evaluated * subset_size,
    ).reshape(evaluated, subset_size)
    scores = np.zeros(evaluated)
    for m, degree in zip(metric[:, working], scored_degrees):
        vals = m[subsets]
        vals.sort(axis=-1)
        scores += vals[:, :degree].sum(axis=-1)
    best = int(np.argmin(scores))  # first minimum: lexicographic tie-break
    return JointLocalizationResult(
        chosen_subset=working[subsets[best]],
        locators=locators,
        objective=float(scores[best]),
        initial_union=initial_union,
        constraint_used=used,
        union_bound_violated=bool(violated),
        subsets_evaluated=evaluated,
    )
