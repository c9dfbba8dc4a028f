"""The decoder against a fixed reference: trial rows of five sweep grids.

``data/decode_reference.csv`` holds the trial rows that a sweep wrote for
these grids, at two trials per point, or as `SCENARIOS` sets them. The rows of the first three grids were
written when every codeword was still decoded on its own (one locator solve,
localization and value recovery per codeword). The decoder now works on
stacks of codewords, which may move the last bits of ``e_rel`` but must not
change a detected support. The grids cover oracle counting with independent
localization on all-one base matrices (byzantine), the joint search with
constraint length 8 on weak-collusion bases (collusion), and
locator-coefficient noise (joint_vs_independent, independent half only: its
joint half took tens of seconds when the fixture was written). The
collusion_strong rows were written later, by the stacked decoder whose joint
search still made its own per-locator picks, so they pin that decoder, not
the per-codeword one. Its strong bases give one all-one row and rows of
degree v-1, so the joint search scores an averaged locator among
lower-degree ones. The assignment_study rows were written by the decoder
that still solved every locator through `dft_code._normal_solve`: twenty
trials of criterion 8's scenario at N = 11 (v = 2), restricted to the pool
{0, 2, 5, 8, 10} with oracle counts of 2, so every locator is a square
2 x 2 system.
"""

import csv
import dataclasses
from pathlib import Path

import pytest

from alcc_lab.harness import write_sweep_csv
from alcc_lab.scenario import load_config

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "data" / "decode_reference.csv"
FIELDS = ("grid", "seed", "A", "sigma_p2", "strategy", "e_rel", "loc_correct")
GRIDS = {
    "byzantine_sweep": {},
    "collusion_sweep": {},
    "joint_vs_independent": {"strategies": ("independent",)},
    "collusion_strong": {},
    "assignment_study": {},
}
# scenario fields set per grid; a grid not named here runs two trials per point
SCENARIOS = {"assignment_study": {"trials": 20, "unreliable": (0, 2, 5, 8, 10)}}


def sweep_rows(grid: str, tmp_path) -> list:
    """Trial rows of one config's grid, with its `SCENARIOS` fields, as FIELDS."""
    base, spec = load_config(ROOT / "configs" / f"{grid}.cfg")
    spec = dataclasses.replace(spec, **GRIDS[grid])
    path = tmp_path / f"{grid}.csv"
    write_sweep_csv(base.with_updates(**SCENARIOS.get(grid, {"trials": 2})), spec, path)
    rows = []
    with open(path, newline="") as fh:
        for _, seed, a, sigma, strategy, e_rel, _, loc in list(csv.reader(fh))[1:]:
            rows.append(dict(zip(FIELDS, (grid, seed, a, sigma, strategy, e_rel, loc))))
    return rows


def reference_rows(grid: str) -> list:
    with open(REFERENCE, newline="") as fh:
        return [row for row in csv.DictReader(fh) if row["grid"] == grid]


@pytest.mark.parametrize("grid", GRIDS)
def test_matches_reference(grid, tmp_path):
    expected = reference_rows(grid)
    actual = sweep_rows(grid, tmp_path)
    assert expected, f"no reference rows for {grid}"
    assert len(actual) == len(expected)
    for ref, row in zip(expected, actual):
        for key in ("seed", "A", "sigma_p2", "strategy", "loc_correct"):
            assert row[key] == ref[key], (grid, ref["seed"], key)
        e_ref, e_new = float(ref["e_rel"]), float(row["e_rel"])
        # locator-mode rows sit near 1e-13, so a purely relative tolerance is wrong
        assert abs(e_new - e_ref) <= 1e-6 * e_ref + 1e-12, (grid, ref["seed"])
