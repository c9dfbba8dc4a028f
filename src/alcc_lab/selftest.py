"""Exhaustive noise-free decoder check used by the CLI selftest and the
acceptance suite.

For each small code, every error support up to the capability is enumerated;
random error values of magnitude at least one are injected on clean
codewords, and the trial's own decoder, `harness.decode` on a scenario of
that code with rank counts and independent localization, must detect the
support and restore the codeword. The codewords of one support size are
decoded in stacks of up to STACK_ROWS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import dft_code, harness
from .numeric import ParameterError, check_integer
from .scenario import Scenario
from .threat import complex_normal

DEFAULT_CODES = ((7, 3), (11, 7), (15, 7))

# codewords per batched decode: large enough that per-call overhead stays
# small, small enough that a stack's working arrays stay in a few MB. 256
# also keeps the largest syndrome product, (256, 15) @ (15, 8) of the (15, 7)
# code, at 30,720 multiply-adds, below where multithreaded OpenBLAS can jump
# from tens of microseconds to milliseconds (about 65,000 on 2 vCPUs; see
# README, Conventions)
STACK_ROWS = 256


@dataclass(frozen=True)
class SelftestReport:
    supports_checked: int
    decodes_run: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _failed_decodes(scenario, clean, support, rng) -> int:
    """Count the failed decodes of clean + errors on each row's support (rows, size).

    Errors have magnitude in [1, 10] and uniform phase. A row passes when the
    trial's decoder detects exactly its support and restores the clean word.
    """
    size = support.shape[1]
    values = rng.uniform(1.0, 10.0, support.shape)
    values = values * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, support.shape))
    received = np.tile(clean, (support.shape[0], 1))
    np.put_along_axis(received, support, np.take_along_axis(received, support, -1) + values, -1)
    corrected, groups = harness.decode(scenario, received, rng)
    ok = np.zeros(len(support), dtype=bool)
    for rows, found in groups:
        if found.shape[-1] == size:
            ok[rows] = (found == support[rows]).all(axis=-1)
    ok &= np.linalg.norm(corrected - clean, axis=-1) <= 1e-6 * np.linalg.norm(clean)
    return int(np.count_nonzero(~ok))


def run_exhaustive_decode_check(
    values_per_support: int = 20,
    seed: int = 2024,
    log=None,
) -> SelftestReport:
    values_per_support = check_integer("values_per_support", values_per_support)
    if values_per_support < 1:
        raise ParameterError(
            f"values_per_support must be at least 1, got {values_per_support}"
        )
    rng = np.random.default_rng(seed)
    supports = 0
    decodes = 0
    failures = 0
    for n, k in DEFAULT_CODES:
        code = dft_code.build_code(n, k)
        scenario = Scenario(n_workers=n, k=k, t=0, function="identity", error_count_mode="rank")
        v = code.capability
        message = complex_normal(rng, 0.0, 1.0, k)
        clean = message @ code.generator
        code_failures = 0
        for size in range(1, v + 1):
            support = np.fromiter(chain.from_iterable(combinations(range(n), size)),
                                  dtype=int).reshape(-1, size)
            rows = np.repeat(support, values_per_support, axis=0)
            supports += len(support)
            decodes += len(rows)
            for start in range(0, len(rows), STACK_ROWS):
                code_failures += _failed_decodes(
                    scenario, clean, rows[start : start + STACK_ROWS], rng
                )
        failures += code_failures
        if log is not None:
            status = "ok" if code_failures == 0 else f"{code_failures} failures"
            log(f"({n},{k}) v={v}: {status}")
    return SelftestReport(supports_checked=supports, decodes_run=decodes, failures=failures)
