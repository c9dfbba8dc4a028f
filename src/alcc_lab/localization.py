"""Error-localization strategies for noisy locator polynomials.

Roots are constrained to the N-th-roots-of-unity grid, so localization
orders |g(gamma^q)|^2 over candidate indices instead of extracting roots.
On that grid the locator values are the length-N DFT of the zero-padded
coefficients, so one FFT scores every index of a stack of locators.
Three strategies: independent per polynomial, restricted to an unreliable
index set (independent with a candidate set), and joint across all
polynomials of one decoding round. The independent strategy also takes a
stack of locators that share one degree. The joint strategy builds one
metric matrix for all its locators and scores all capability-sized subsets
of its working set in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

import numpy as np

from .dft_code import LocatorPolynomial
from .numeric import ParameterError, RuntimeGuardError

# largest subset count the joint search scores before demanding a constraint
# length; its (S, size) index, metric and sorted arrays grow with it, and
# C(20, 8) = 125,970 subsets of 8 take about 8 MB each
_MAX_SUBSETS = 200_000


def _candidate_array(n: int, candidates) -> np.ndarray:
    if candidates is None:
        return np.arange(n)
    cand = np.unique(np.asarray(candidates, dtype=int))
    if cand.size == 0 or cand.min() < 0 or cand.max() >= n:
        raise ParameterError("candidate indices must be distinct and lie in 0..N-1")
    return cand


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


def root_metric(poly: LocatorPolynomial, n: int, candidates=None) -> np.ndarray:
    """|g(gamma^q)|^2 for each candidate index q, (..., candidates), candidates ascending.

    Without candidates, every index q = 0..n-1 is one, with no gather.
    """
    metric = _grid_metric(poly.coeffs, n)
    return metric if candidates is None else metric[..., _candidate_array(n, candidates)]


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


def independent_localize(
    poly: LocatorPolynomial, count: int, n: int, candidates=None
) -> np.ndarray:
    """Indices of the `count` smallest |g(gamma^q)|^2, ties to the smaller index.

    Returns sorted index arrays, (..., count) for a stack of locators.
    """
    metric = _grid_metric(poly.coeffs, n)
    if candidates is None:
        return _smallest(metric, count)
    cand = _candidate_array(n, candidates)
    return _smallest(metric[..., cand], count, cand)


def average_locators(polys) -> LocatorPolynomial:
    """Coefficient-wise mean of locators that all share one declared degree."""
    polys = list(polys)
    if not polys:
        raise ParameterError("need at least one polynomial to average")
    degree = polys[0].degree
    if any(p.degree != degree for p in polys):
        raise ParameterError("all averaged polynomials must share one degree")
    coeffs = np.mean([p.coeffs for p in polys], axis=0)
    return LocatorPolynomial(coeffs=coeffs, degree=degree)


@dataclass(frozen=True)
class JointLocalizationResult:
    """Per-polynomial detected index sets plus search diagnostics."""

    per_poly: list
    union: np.ndarray
    chosen_subset: np.ndarray
    objective: float
    initial_union: np.ndarray = field(repr=False)
    constraint_used: int = 0
    union_bound_violated: bool = False
    subsets_evaluated: int = 0


def joint_localize(
    polys,
    capability: int,
    n: int,
    constraint_length: int | None = None,
    candidates=None,
    rng: np.random.Generator | None = None,
) -> JointLocalizationResult:
    """Solve for a common root support across all locator polynomials.

    Degree-`capability` polynomials are averaged into a single polynomial;
    lower-degree ones stay individual. Candidate roots are the union of the
    per-polynomial independent detections, optionally thinned to a random
    subset of size `constraint_length`. Every capability-sized subset of the
    working set is scored, in one array pass, by the summed smallest
    evaluations of each scored polynomial, and the minimum wins (ties to the
    lexicographically smallest subset).

    Returns detected sets aligned with the input polynomial order; inputs of
    degree `capability` all share the averaged polynomial's detection.
    """
    polys = list(polys)
    if not polys:
        raise ParameterError("joint localization needs at least one polynomial")
    if any(p.degree > capability for p in polys):
        raise ParameterError("polynomial degree exceeds the stated capability")
    cand = _candidate_array(n, candidates)

    full_idx = [i for i, p in enumerate(polys) if p.degree == capability]
    low_idx = [i for i, p in enumerate(polys) if p.degree < capability]
    group: list[tuple[LocatorPolynomial, int, list]] = []
    if full_idx:
        averaged = average_locators([polys[i] for i in full_idx])
        group.append((averaged, capability, full_idx))
    for i in low_idx:
        group.append((polys[i], polys[i].degree, [i]))

    # one (P, N) metric matrix: every scored locator, zero-padded, in one FFT
    padded = np.zeros((len(group), capability + 1), dtype=complex)
    for row, (poly, degree, _) in zip(padded, group):
        row[: degree + 1] = poly.coeffs
    metric = _grid_metric(padded, n)
    degrees = [degree for _, degree, _ in group]

    initial_union = np.unique(np.concatenate(
        [_smallest(m[cand], d, cand) for m, d in zip(metric, degrees)]
    ))

    violated = initial_union.size > capability
    working = initial_union
    used = working.size
    if constraint_length is not None:
        used = min(max(1, constraint_length), working.size)
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
    for m, degree in zip(metric[:, working], degrees):
        vals = m[subsets]
        vals.sort(axis=-1)
        scores += vals[:, :degree].sum(axis=-1)
    best = int(np.argmin(scores))  # first minimum: lexicographic tie-break
    chosen = working[subsets[best]]
    picks = [_smallest(m[chosen], min(d, subset_size), chosen)
             for m, d in zip(metric, degrees)]

    per_poly: list = [None] * len(polys)
    for (_, _, members), picked in zip(group, picks):
        for i in members:
            per_poly[i] = picked

    return JointLocalizationResult(
        per_poly=per_poly,
        union=np.unique(np.concatenate(picks)),
        chosen_subset=chosen,
        objective=float(scores[best]),
        initial_union=initial_union,
        constraint_used=used,
        union_bound_violated=bool(violated),
        subsets_evaluated=evaluated,
    )
