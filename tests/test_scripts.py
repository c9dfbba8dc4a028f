"""Smoke runs of the experiment scripts at their smallest useful size."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,rows", [
    ("run_assignment_study", ["--trials", "1", "--skip-scan"], 3),
], ids=["assignment_study"])
def test_script_writes_its_csv(tmp_path, name, argv, rows):
    out = tmp_path / f"{name}.csv"
    load_script(name).main(argv + ["--out", str(out)])
    with open(out) as fh:
        table = list(csv.reader(fh))
    assert len(table) == rows
    assert all(len(row) == len(table[0]) for row in table)
