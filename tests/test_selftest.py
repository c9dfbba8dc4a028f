"""The exhaustive decode check against a pinned copy of its own decoder.

``reference_failures`` is the selftest's decoder as it was when it wired the
`dft_code` and `localization` blocks together itself: every row's locator is
solved at the true support size, and a row whose rank count differs has
failed already. The check must count the same failures per code, with and
without a fault injected through the module attributes that both decoders
call.
"""

import re
from itertools import combinations

import numpy as np
import pytest

from alcc_lab import dft_code, harness, localization, selftest
from alcc_lab.numeric import ParameterError
from alcc_lab.threat import complex_normal


def _failed_decodes(code, clean, support, rng) -> int:
    size = support.shape[1]
    values = rng.uniform(1.0, 10.0, support.shape)
    values = values * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, support.shape))
    received = np.tile(clean, (support.shape[0], 1))
    np.put_along_axis(received, support, np.take_along_axis(received, support, -1) + values, -1)
    syn = dft_code.syndrome(code, received)
    ok = dft_code.estimate_error_count(code, syn) == size
    coeffs = dft_code.locator_polynomial(code, syn, size)
    detected = localization.independent_localize(coeffs, size, code.n)
    ok &= (detected == support).all(axis=-1)
    values = dft_code.recover_error_values(code, syn, detected)
    corrected = dft_code.correct_codeword(received, detected, values)
    ok &= np.linalg.norm(corrected - clean, axis=-1) <= 1e-6 * np.linalg.norm(clean)
    return int(np.count_nonzero(~ok))


def reference_failures(values_per_support, seed) -> dict:
    """Failures per (n, k) of the pinned decoder, on the check's own draws."""
    rng = np.random.default_rng(seed)
    failures = {}
    for n, k in selftest.DEFAULT_CODES:
        code = dft_code.build_code(n, k)
        clean = complex_normal(rng, 0.0, 1.0, k) @ code.generator
        failures[n, k] = 0
        for size in range(1, code.capability + 1):
            rows = np.repeat(np.array(list(combinations(range(n), size))),
                             values_per_support, axis=0)
            for start in range(0, len(rows), selftest.STACK_ROWS):
                failures[n, k] += _failed_decodes(
                    code, clean, rows[start : start + selftest.STACK_ROWS], rng)
    return failures


def check_failures(values_per_support, seed) -> dict:
    """Failures per (n, k) that `run_exhaustive_decode_check` logs."""
    lines = []
    report = selftest.run_exhaustive_decode_check(values_per_support, seed, log=lines.append)
    failures = {}
    for line in lines:
        n, k, status = re.fullmatch(r"\((\d+),(\d+)\) v=\d+: (.*)", line).groups()
        failures[int(n), int(k)] = 0 if status == "ok" else int(status.split()[0])
    assert sum(failures.values()) == report.failures
    return failures


def count_one_more(monkeypatch):
    """Every third row of a call counts one error more, up to the capability."""
    estimate = dft_code.estimate_error_count

    def faulty(code, s, *args, **kwargs):
        counts = estimate(code, s, *args, **kwargs).copy()
        counts[::3] = np.minimum(counts[::3] + 1, code.capability)
        return counts

    monkeypatch.setattr(dft_code, "estimate_error_count", faulty)


def move_one_pick(monkeypatch):
    """Every fifth row of a call swaps its first pick for the first index it left out."""
    localize = localization.independent_localize

    def faulty(coeffs, count, n, candidates=None):
        found = localize(coeffs, count, n, candidates=candidates)
        for row in found.reshape(-1, count)[::5]:
            row[0] = np.setdiff1d(np.arange(n), row)[0]
            row.sort()
        return found

    monkeypatch.setattr(localization, "independent_localize", faulty)


def skip_correction(monkeypatch):
    """Every seventh row of a call is left uncorrected."""
    correct = dft_code.correct_codeword

    def faulty(r, locations, values):
        corrected = correct(r, locations, values)
        corrected[::7] = np.asarray(r)[::7]
        return corrected

    monkeypatch.setattr(dft_code, "correct_codeword", faulty)


FAULTS = {"none": lambda monkeypatch: None, "count": count_one_more,
          "localize": move_one_pick, "correct": skip_correction}
# at seed 3 each fault fails exactly the rows it touches and can change
FAILURES_AT_SEED_3 = {"none": 0, "count": 200, "localize": 414, "correct": 296}


@pytest.mark.parametrize("seed", [0, 3, 2024])
@pytest.mark.parametrize("fault", FAULTS)
def test_failures_per_code_match_the_pinned_decoder(monkeypatch, fault, seed):
    FAULTS[fault](monkeypatch)
    expected = reference_failures(1, seed)
    assert check_failures(1, seed) == expected
    assert (sum(expected.values()) == 0) == (fault == "none")
    if seed == 3:
        assert sum(expected.values()) == FAILURES_AT_SEED_3[fault]


def test_a_fault_in_the_trial_decoder_fails_every_decode(monkeypatch):
    """The check decodes with `harness.decode`, so a fault in a step that only
    the trial's decoder has fails every decode."""
    monkeypatch.setattr(harness, "_correct_codewords",
                        lambda code, received, syndromes, groups: received)
    report = selftest.run_exhaustive_decode_check(values_per_support=1, seed=0)
    assert report.failures == report.decodes_run == 2034


@pytest.mark.parametrize("values", [1.5, True])
def test_non_integer_values_per_support_rejected_by_name(values):
    # 1.5 and True used to run 2,034 decodes, as at 1
    with pytest.raises(ParameterError,
                       match=f"^values_per_support must be an integer, got {values!r}$"):
        selftest.run_exhaustive_decode_check(values_per_support=values)
