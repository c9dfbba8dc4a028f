"""Byzantine noise injection, base-matrix designs, and precision noise.

Byzantine workers add complex Gaussian noise on the support of their binary
base matrices; precision noise models floating-point error either as white
noise on the returned matrices, as noise on locator coefficients, or as a
genuine float32 round-trip. `inject` applies both, taking the precision
mode and variance as plain arguments.
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
        if not ((self.bases == 0) | (self.bases == 1)).all():
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
    bases = b_eff.T.reshape(len(locations), u, h)
    return ByzantinePlan(
        locations=tuple(locations), bases=bases, noise_mean=noise_mean, noise_var=noise_var
    )


PRECISION_MODES = ("synthetic", "locator", "reduced")


def inject(
    results,
    plan: ByzantinePlan | None,
    precision_mode: str,
    precision_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply Byzantine and precision noise to per-worker results (N, u, h).

    Precision modes:
    synthetic: additive CN(0, precision_var) on every returned entry.
    locator:   returns untouched; CN(0, precision_var) is added to locator
               coefficients at the decoder.
    reduced:   float32 round-trip of the returned matrices (variance unused).

    Byzantine draws are made in ascending location order, then precision
    noise is applied, so outputs are bit-reproducible for a given rng state.
    The Byzantine noise of all A locations is one (A, 2, u, h) draw: location
    by location, the real then the imaginary parts, the same stream as A
    `complex_normal` draws of one (u, h) block each.
    """
    if precision_mode not in PRECISION_MODES:
        raise ParameterError(f"precision_mode must be one of {PRECISION_MODES}")
    if precision_var < 0:
        raise ParameterError("precision_var must be non-negative")
    out = np.array(results, dtype=complex)
    n = out.shape[0]
    if plan is not None and plan.count:
        if max(plan.locations) >= n or min(plan.locations) < 0:
            raise ParameterError("plan locations must lie in 0..N-1")
        locations, bases = np.asarray(plan.locations), plan.bases
        if list(plan.locations) != sorted(plan.locations):
            order = np.argsort(locations)
            locations, bases = locations[order], bases[order]
        draws = rng.standard_normal((plan.count, 2) + out.shape[1:])
        noise = plan.noise_mean + np.sqrt(plan.noise_var / 2.0) * (
            draws[:, 0] + 1j * draws[:, 1]
        )
        hit = out[locations]
        np.add(hit, noise, out=hit, where=bases.astype(bool))
        out[locations] = hit
    if precision_mode == "synthetic" and precision_var > 0:
        out += complex_normal(rng, 0.0, precision_var, out.shape)
    elif precision_mode == "reduced":
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
