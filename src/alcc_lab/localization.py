"""Error-localization strategies for noisy locator polynomials.

Roots are constrained to the N-th-roots-of-unity grid, so localization
orders |g(gamma^q)|^2 over candidate indices instead of extracting roots.
Three strategies: independent per polynomial, restricted to an unreliable
index set (independent with a candidate set), and joint across all
polynomials of one decoding round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

# largest candidate-subset enumeration accepted before demanding a
# constraint length; C(20, 8) sits just under this
_MAX_SUBSETS = 200_000

from .dft_code import LocatorPolynomial
from .numeric import ParameterError, poly_eval


def _candidate_array(n: int, candidates) -> np.ndarray:
    if candidates is None:
        return np.arange(n)
    cand = np.unique(np.asarray(candidates, dtype=int))
    if cand.size == 0 or cand.min() < 0 or cand.max() >= n:
        raise ParameterError("candidate indices must be distinct and lie in 0..N-1")
    return cand


def root_metric(poly: LocatorPolynomial, n: int, candidates=None) -> np.ndarray:
    """|g(gamma^q)|^2 for each candidate index q, in candidate order."""
    cand = _candidate_array(n, candidates)
    points = np.exp(-2j * np.pi * cand / n)
    return np.abs(poly_eval(poly.coeffs, points)) ** 2


def independent_localize(
    poly: LocatorPolynomial, count: int, n: int, candidates=None
) -> np.ndarray:
    """Indices of the `count` smallest |g(gamma^q)|^2, ties to the smaller index.

    Returns a sorted index array.
    """
    cand = _candidate_array(n, candidates)
    if count > cand.size:
        raise ParameterError(f"cannot pick {count} of {cand.size} candidates")
    metric = root_metric(poly, n, cand)
    order = np.argsort(metric, kind="stable")  # candidates ascending => stable tie-break
    return np.sort(cand[order[:count]])


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
    working set is scored by the summed smallest evaluations and the minimum
    wins (ties to the lexicographically smallest subset).

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

    initial = set()
    for poly, degree, _ in group:
        initial |= set(independent_localize(poly, degree, n, cand).tolist())
    initial_union = np.array(sorted(initial))

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
    if comb(working.size, subset_size) > _MAX_SUBSETS:
        raise ParameterError(
            f"joint search over C({working.size},{subset_size}) subsets is too "
            "large; pass a smaller constraint_length"
        )
    metrics = [root_metric(poly, n, working) for poly, _, _ in group]

    best_obj = np.inf
    best_subset = None
    best_picks = None
    evaluated = 0
    for subset in combinations(range(working.size), subset_size):
        sel = np.array(subset)
        evaluated += 1
        total = 0.0
        picks = []
        for (poly, degree, _), metric in zip(group, metrics):
            vals = metric[sel]
            take = min(degree, vals.size)
            order = np.argsort(vals, kind="stable")[:take]
            total += float(vals[order].sum())
            picks.append(np.sort(working[sel[order]]))
        if total < best_obj:  # strict: first (lexicographic) subset wins ties
            best_obj = total
            best_subset = working[sel]
            best_picks = picks

    per_poly: list = [None] * len(polys)
    for (_, _, members), picked in zip(group, best_picks):
        for i in members:
            per_poly[i] = picked
    union = np.array(sorted(set(np.concatenate(best_picks).tolist()))) if best_picks else np.array([], dtype=int)

    return JointLocalizationResult(
        per_poly=per_poly,
        union=union,
        chosen_subset=best_subset,
        objective=best_obj,
        initial_union=initial_union,
        constraint_used=used,
        union_bound_violated=bool(violated),
        subsets_evaluated=evaluated,
    )
