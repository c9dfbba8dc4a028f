"""Choice of evaluation indices for unreliable workers.

The optimizer minimizes the expected dominant confusability term over the
Byzantine supports inside a candidate index set; an empirical baseline scans
candidate sets by simulated relative error instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .bounds import assignment_pair_log_bound, check_noise_parameters, gamma_bounds
from .numeric import ParameterError, RuntimeGuardError

# exhaustive search refuses more subsets than this; beam search has no limit
_EXHAUSTIVE_LIMIT = 1_000_000
# a subset with more Byzantine supports than this averages over random draws of them
_EXPECTATION_LIMIT = 10_000
_EXPECTATION_SAMPLES = 10_000
_SIMULATION_LIMIT = 100_000  # relative_error_baseline refuses more runs unless forced


@dataclass(frozen=True)
class AssignmentProblem:
    """One instance: pick `unreliable_count` of N indices facing
    `byzantine_count` adversaries at noise level sigma_p_sq."""

    n_workers: int
    unreliable_count: int
    byzantine_count: int
    eta: float = 10.0
    sigma_p_sq: float = 1.0
    metric: str = "integer"

    def __post_init__(self):
        if not 0 < self.unreliable_count <= self.n_workers:
            raise ParameterError("need 0 < unreliable count <= N")
        if self.byzantine_count > self.unreliable_count:
            raise ParameterError("byzantine count cannot exceed the unreliable count")
        check_noise_parameters(self.eta, self.sigma_p_sq)


def _support_iter(subset, a: int, rng):
    if math.comb(len(subset), a) <= _EXPECTATION_LIMIT:
        yield from combinations(subset, a)
        return
    if rng is None:
        raise ParameterError("Monte-Carlo expectation needs an rng")
    subset = np.asarray(subset)
    for _ in range(_EXPECTATION_SAMPLES):
        yield tuple(np.sort(rng.choice(subset, size=a, replace=False)).tolist())


def problem2_log_objective(subset, prob: AssignmentProblem, rng=None) -> float:
    """Log of the expected max-over-probes confusability term for one subset.

    Computed with log-sum-exp so that tiny terms still rank correctly. Each
    (support, probe) bound is computed once per problem and looked up after.
    """
    subset = tuple(sorted(int(i) for i in subset))
    if len(subset) != prob.unreliable_count:
        raise ParameterError("subset size must equal the unreliable count")
    if len(set(subset)) < len(subset) or subset[0] < 0 or subset[-1] >= prob.n_workers:
        raise ParameterError(
            f"subset {subset} must hold distinct indices in 0..{prob.n_workers - 1}"
        )
    a = prob.byzantine_count
    if len(subset) == a:
        return -math.inf  # no non-Byzantine probe exists; degenerate zero
    gmax = gamma_bounds(prob.n_workers, a, prob.eta)[1]
    table = _pair_log_bounds(prob.n_workers, prob.eta, gmax, prob.sigma_p_sq, prob.metric)

    def bound(support, j):
        value = table.get((support, j))
        if value is None:
            value = table[support, j] = assignment_pair_log_bound(
                support, j, prob.n_workers, prob.eta, gmax, prob.sigma_p_sq, prob.metric
            )
        return value

    exps = [max(bound(support, j) for j in subset if j not in support)
            for support in _support_iter(subset, a, rng)]
    peak = max(exps)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(sum(math.exp(e - peak) for e in exps)) - math.log(len(exps))


@functools.lru_cache(maxsize=8)
def _pair_log_bounds(n: int, eta: float, gamma_max: float, sigma_p_sq: float,
                     metric: str) -> dict:
    """Table of log bounds per (support, probe), filled as scans first reach each pair.

    The bound depends on a problem only through these arguments, so every
    subset of a scan, and every partial problem of a beam search, shares one.
    A table holds at most C(N, A) * (N - A) entries; the 8 most recently used
    tables are kept.
    """
    return {}


@dataclass(frozen=True)
class AssignmentSolution:
    subset: tuple
    objective: float
    log_objective: float
    evaluated: int
    search: str


def solve_assignment(
    prob: AssignmentProblem,
    search: str = "exhaustive",
    beam_width: int = 64,
    rng: np.random.Generator | None = None,
) -> AssignmentSolution:
    """Minimize the expected dominant confusability over index subsets.

    Exhaustive search certifies the optimum (ties broken lexicographically);
    beam search grows subsets keeping the best `beam_width` partials per level.
    """
    n, mu = prob.n_workers, prob.unreliable_count
    evaluated = 0
    if search == "exhaustive":
        if math.comb(n, mu) > _EXHAUSTIVE_LIMIT:
            raise RuntimeGuardError(
                f"exhaustive search over C({n},{mu}) subsets exceeds the limit; "
                "use beam search"
            )
        finalists = combinations(range(n), mu)
    elif search == "beam":
        if beam_width < 1:
            raise ParameterError(f"beam_width must be at least 1, got {beam_width}")
        finalists = [(i,) for i in range(n)]
        for size in range(2, mu + 1):
            seen = set()
            children = []
            for state in finalists:
                for j in range(n):
                    if j in state:
                        continue
                    child = tuple(sorted(state + (j,)))
                    if child not in seen:
                        seen.add(child)
                        children.append(child)
            if size > prob.byzantine_count:
                partial = replace(prob, unreliable_count=size)
                scored = [(problem2_log_objective(child, partial, rng), child)
                          for child in children]
                evaluated += len(scored)
                scored.sort(key=lambda t: (t[0], t[1]))
                finalists = [c for _, c in scored[:beam_width]]
            else:
                finalists = children
    else:
        raise ParameterError(f"unknown search mode {search!r}")
    # combinations come in lexicographic order, so the least (value, subset)
    # is the first subset that reaches the least value
    best = None
    for subset in finalists:
        val = problem2_log_objective(subset, prob, rng)
        evaluated += 1
        if best is None or (val, subset) < best:
            best = (val, subset)
    log_obj, subset = best
    obj = 0.0 if log_obj == -math.inf else math.exp(log_obj)
    return AssignmentSolution(subset, obj, log_obj, evaluated, search)


def canonical_class(subset, n: int) -> tuple:
    """Lexicographically smallest rotation/reflection of a mod-n index set."""
    subset = sorted(int(i) % n for i in subset)
    best = None
    for pts in (subset, [(-x) % n for x in subset]):
        for shift in range(n):
            cand = tuple(sorted((x + shift) % n for x in pts))
            if best is None or cand < best:
                best = cand
    return best


def contiguous_subset(n: int, mu: int) -> tuple:
    return tuple(sorted(i % n for i in range(mu)))


@dataclass(frozen=True)
class BaselineResult:
    subset: tuple
    mean_error: float
    table: dict = field(repr=False)
    simulations: int = 0


def relative_error_baseline(
    prob: AssignmentProblem,
    scenario,
    trials: int,
    seed: int,
    candidates=None,
    force: bool = False,
) -> BaselineResult:
    """Pick the subset minimizing empirical mean relative error.

    Runs `trials` seeded end-to-end simulations per candidate subset of the
    given scenario (the scenario's unreliable set is overridden per
    candidate; every candidate's scenario is built, and so validated, before
    the first trial). Refuses more than 100,000 total runs unless forced.
    Trial seeds are shared across candidates so the comparison is paired.
    The scan runs seed-major, every candidate at one seed before the next
    seed, so consecutive trials share their data, encoding and worker
    results (see `harness`); each candidate's errors are still averaged in
    seed order, which gives the same table as a candidate-major loop.
    The scenario must have the problem's `n_workers` and `byzantine_count`.
    """
    from . import harness  # local import: harness sits above this module

    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    if candidates is None:
        n_candidates = math.comb(prob.n_workers, prob.unreliable_count)
    else:
        candidates = [tuple(sorted(int(i) for i in subset)) for subset in candidates]
        if not candidates:
            raise ParameterError("the candidate list is empty")
        for subset in candidates:
            if len(subset) != prob.unreliable_count:
                raise ParameterError(
                    f"candidate {subset} does not have {prob.unreliable_count} indices"
                )
        if len(set(candidates)) < len(candidates):
            repeated = next(c for i, c in enumerate(candidates) if c in candidates[:i])
            raise ParameterError(f"candidate {repeated} is listed more than once")
        n_candidates = len(candidates)
    total = n_candidates * trials
    if total > _SIMULATION_LIMIT and not force:
        raise RuntimeGuardError(
            f"{total} simulations exceed the guard of {_SIMULATION_LIMIT}; "
            "pass force=True to override"
        )
    for name in ("n_workers", "byzantine_count"):
        if getattr(scenario, name) != getattr(prob, name):
            raise ParameterError(
                f"scenario {name}={getattr(scenario, name)} contradicts the problem's "
                f"{getattr(prob, name)}"
            )
    if candidates is None:
        candidates = combinations(range(prob.n_workers), prob.unreliable_count)
    # build, and so validate, every candidate's scenario before the first trial
    scenarios = []
    for subset in candidates:
        try:
            scenarios.append((subset, scenario.with_updates(unreliable=subset)))
        except ParameterError as exc:
            raise ParameterError(f"candidate {subset}: {exc}") from exc
    errors = [[] for _ in scenarios]
    for s in harness.trial_seeds(seed, 0, trials):
        for (_, sc), found in zip(scenarios, errors):
            found.append(harness.run_trial(sc, s).e_rel)
    table = {subset: float(np.mean(found)) for (subset, _), found in zip(scenarios, errors)}
    best = min(table, key=lambda k: (table[k], k))
    return BaselineResult(
        subset=best, mean_error=table[best], table=table, simulations=total
    )
