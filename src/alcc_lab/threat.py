"""Byzantine noise injection, base-matrix designs, and precision-noise models.

Byzantine workers add complex Gaussian noise on the support of their binary
base matrices; precision noise models floating-point error either as white
noise on the returned matrices, as noise on locator coefficients, or as a
genuine float32 round-trip.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numeric import ParameterError


def complex_normal(rng: np.random.Generator, mean, var, size) -> np.ndarray:
    """Circular-symmetric complex Gaussian draws with the given mean and variance."""
    draws = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return mean + np.sqrt(var / 2.0) * draws


@dataclass(frozen=True)
class ByzantinePlan:
    """Adversary locations, per-location binary base matrices, and noise law.

    `bases[a]` masks which output entries worker `locations[a]` corrupts;
    nonzero noise appears only where the mask is one.
    """

    locations: tuple
    bases: np.ndarray = field(repr=False)  # (A, u, h) of 0/1
    noise_mean: complex = 10.0 + 0j
    noise_var: float = 1e3

    def __post_init__(self):
        if len(self.locations) != len(set(self.locations)):
            raise ParameterError("byzantine locations must be distinct")
        if self.bases.shape[0] != len(self.locations):
            raise ParameterError("one base matrix per byzantine location required")
        if not np.isin(self.bases, (0, 1)).all():
            raise ParameterError("base matrices must be binary")

    @property
    def count(self) -> int:
        return len(self.locations)


def plan_from_effective_base(
    b_eff, locations, u: int, h: int, noise_mean=10.0 + 0j, noise_var: float = 1e3
) -> ByzantinePlan:
    """Build a plan from an effective base matrix (rows = output entries)."""
    b_eff = np.asarray(b_eff)
    if b_eff.shape != (u * h, len(locations)):
        raise ParameterError(f"effective base must be {(u * h, len(locations))}")
    bases = np.stack([b_eff[:, a].reshape(u, h) for a in range(len(locations))])
    return ByzantinePlan(
        locations=tuple(locations), bases=bases, noise_mean=noise_mean, noise_var=noise_var
    )


_PRECISION_MODES = ("synthetic", "locator", "reduced")


@dataclass(frozen=True)
class PrecisionModel:
    """Exactly one precision-noise mode with its variance.

    synthetic: additive CN(0, variance) on every returned entry.
    locator:   returns untouched; CN(0, variance) is added to locator
               coefficients at the decoder.
    reduced:   float32 round-trip of the returned matrices (variance unused).
    """

    mode: str = "synthetic"
    variance: float = 0.0

    def __post_init__(self):
        if self.mode not in _PRECISION_MODES:
            raise ParameterError(f"mode must be one of {_PRECISION_MODES}")
        if self.variance < 0:
            raise ParameterError("variance must be non-negative")


def inject(
    results,
    plan: ByzantinePlan | None,
    precision: PrecisionModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply Byzantine and precision noise to per-worker results (N, u, h).

    Byzantine draws are made in ascending location order, then precision
    noise is applied, so outputs are bit-reproducible for a given rng state.
    """
    out = np.asarray(results, dtype=complex).copy()
    n = out.shape[0]
    if plan is not None and plan.count:
        if max(plan.locations) >= n or min(plan.locations) < 0:
            raise ParameterError("plan locations must lie in 0..N-1")
        order = np.argsort(np.asarray(plan.locations))
        for a in order:
            q = plan.locations[a]
            mask = plan.bases[a].astype(bool)
            noise = complex_normal(rng, plan.noise_mean, plan.noise_var, out.shape[1:])
            out[q][mask] += noise[mask]
    if precision.mode == "synthetic" and precision.variance > 0:
        out += complex_normal(rng, 0.0, precision.variance, out.shape)
    elif precision.mode == "reduced":
        out = out.astype(np.complex64).astype(complex)
    return out


def design_strong_collusion(m_rows: int, v: int, rng: np.random.Generator) -> np.ndarray:
    """Effective base matrix for colluders sharing the full matrix.

    Row 0 is all ones; every other row has exactly v-1 ones at uniformly
    random positions, which denies the decoder its averaging step on all but
    one polynomial.
    """
    if m_rows < 1:
        raise ParameterError("need at least one row")
    if v < 1:
        raise ParameterError("need at least one colluder")
    if v == 1:
        warnings.warn("v=1 is degenerate: every row is all-one", stacklevel=2)
        return np.ones((m_rows, 1), dtype=int)
    b = np.ones((m_rows, v), dtype=int)
    zero_cols = rng.integers(0, v, size=m_rows - 1)
    b[np.arange(1, m_rows), zero_cols] = 0
    return b


def design_weak_collusion(
    m_rows: int, v: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Effective base matrix with i.i.d. Bernoulli entries, P(entry = 0) = p."""
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie in (0, 1), got {p}")
    if m_rows < 1 or v < 1:
        raise ParameterError("need at least one row and one colluder")
    return (rng.random((m_rows, v)) >= p).astype(int)


def optimal_zero_probability(v: int) -> float:
    """Zero-probability p* minimizing p + (1-p)^v, the weak colluders' tradeoff.

    Stationary point of the normalized zero count plus the all-one-row
    fraction: p* = 1 - (1/v)^(1/(v-1)).
    """
    if v < 2:
        raise ParameterError("p* needs v >= 2")
    return 1.0 - (1.0 / v) ** (1.0 / (v - 1))
