"""Byzantine noise injection, base-matrix designs, and precision noise.

Byzantine workers add complex Gaussian noise on the support of their binary
base matrices; precision noise models floating-point error either as white
noise on the returned matrices, as noise on locator coefficients, or as a
genuine float32 round-trip. The noise arithmetic is in one place,
`add_noise`: arrays in, one standard-normal draw for both kinds of noise,
and no checks. `inject` is its checking wrapper, which takes a
`ByzantinePlan` and the precision mode and variance as plain arguments. A
trial's threat stage (`harness`) calls `add_noise` directly, with values its
`Scenario` checked when it was built.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numeric import ParameterError


def _check_noise_law(mean, var, mean_name: str, var_name: str) -> None:
    """Reject a non-finite mean or a negative or non-finite variance, by name."""
    if not cmath.isfinite(mean):
        raise ParameterError(f"{mean_name} must be finite, got {mean}")
    if not 0 <= var < math.inf:
        raise ParameterError(f"{var_name} must be non-negative and finite, got {var}")


def _scaled_complex(re, im, mean, var) -> np.ndarray:
    """mean + sqrt(var/2) * (re + 1j*im), built in one complex array.

    The products and sums are the ones the expression makes, in its operand
    order, so the bytes are its bytes, signed zeros included.
    """
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    np.multiply(np.sqrt(var / 2.0), out, out=out)
    return np.add(mean, out, out=out)


def complex_normal(rng: np.random.Generator, mean, var, size) -> np.ndarray:
    """Circular-symmetric complex Gaussian draws with the given mean and variance.

    One (2, *size) standard-normal draw: all the real parts, then all the
    imaginary parts, the same stream as two draws of ``size``. A negative or
    non-finite ``var`` or a non-finite ``mean`` raises ParameterError.
    """
    _check_noise_law(mean, var, "mean", "var")
    shape = np.empty(size, dtype=bool).shape  # an int size read as (size,)
    draws = rng.standard_normal((2, *shape))
    return _scaled_complex(draws[0], draws[1], mean, var)


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
        _check_noise_law(self.noise_mean, self.noise_var, "noise_mean", "noise_var")

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


def add_noise(results, locations, mask, noise_mean, noise_var,
              precision_mode: str, precision_var: float, rng: np.random.Generator) -> np.ndarray:
    """A complex copy of results (N, u, h) with Byzantine, then precision, noise; no checks.

    Worker ``locations[a]`` (ascending, distinct, in 0..N-1) adds
    CN(noise_mean, noise_var) where ``mask[a]`` (u, h) is True. The precision
    mode and variance act as in `inject`. One standard-normal draw makes all
    the noise: location by location the real then the imaginary parts of its
    (u, h) block, then the real and the imaginary parts of the (N, u, h)
    precision noise, the stream of one `complex_normal` draw per location
    and one for the precision noise. The caller has checked every argument.
    """
    out = np.array(results, dtype=complex)
    block = out.shape[1:]
    byzantine = len(locations) * math.prod(block)
    precision = out.size if precision_mode == "synthetic" and precision_var > 0 else 0
    if byzantine or precision:
        draws = rng.standard_normal(2 * (byzantine + precision))
    if byzantine:
        d = draws[: 2 * byzantine].reshape(len(locations), 2, *block)
        noise = _scaled_complex(d[:, 0], d[:, 1], noise_mean, noise_var)
        hit = out[locations]
        np.add(hit, noise, out=hit, where=mask)
        out[locations] = hit
    if precision:
        d = draws[2 * byzantine:].reshape(2, *out.shape)
        out += _scaled_complex(d[0], d[1], 0.0, precision_var)
    elif precision_mode == "reduced":
        out = out.astype(np.complex64).astype(complex)
    return out


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
    The checks are here; the noise is `add_noise`'s, which the trial's threat
    stage calls directly on the values its `Scenario` checked.
    """
    if precision_mode not in PRECISION_MODES:
        raise ParameterError(f"precision_mode must be one of {PRECISION_MODES}")
    if not 0 <= precision_var < math.inf:
        raise ParameterError(f"precision_var must be non-negative and finite, got {precision_var}")
    locations, mask = (), None
    noise_mean, noise_var = 0.0, 0.0
    if plan is not None and plan.count:
        if max(plan.locations) >= np.shape(results)[0] or min(plan.locations) < 0:
            raise ParameterError("plan locations must lie in 0..N-1")
        order = np.argsort(plan.locations)
        locations, mask = np.asarray(plan.locations)[order], plan.bases[order].astype(bool)
        noise_mean, noise_var = plan.noise_mean, plan.noise_var
    return add_noise(results, locations, mask, noise_mean, noise_var,
                     precision_mode, precision_var, rng)


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
