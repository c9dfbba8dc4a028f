"""Smoke runs of the experiment scripts at their smallest useful size."""

import csv
import importlib.util
from pathlib import Path

import pytest

from alcc_lab import localization

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,rows", [
    ("run_assignment_study", ["--trials", "1", "--skip-scan"], 3),
    ("run_collusion_sweep", ["--trials", "1"], 21),
    ("run_joint_localization_study",
     ["--trials", "1", "--counts", "1", "--variances", "1e-3"], 3),
], ids=["assignment_study", "collusion_sweep", "joint_localization_study"])
def test_script_writes_its_csv(tmp_path, name, argv, rows):
    out = tmp_path / f"{name}.csv"
    load_script(name).main(argv + ["--out", str(out)])
    with open(out) as fh:
        table = list(csv.reader(fh))
    assert len(table) == rows
    assert all(len(row) == len(table[0]) for row in table)


def test_joint_study_keeps_its_rows_on_a_guard_trip(tmp_path, monkeypatch, capsys):
    # no joint search fits a budget of zero subsets: the first grid point's
    # independent row is written, then its joint trials trip the guard
    monkeypatch.setattr(localization, "_MAX_SUBSETS", 0)
    out = tmp_path / "joint.csv"
    argv = ["--trials", "1", "--counts", "1", "--variances", "1e-3", "--out", str(out)]
    assert load_script("run_joint_localization_study").main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("guard: joint search over C(")
    with open(out) as fh:
        table = list(csv.reader(fh))
    assert [row[:3] for row in table] == [["A", "sigma_p2", "strategy"], ["1", "0.001", "independent"]]
