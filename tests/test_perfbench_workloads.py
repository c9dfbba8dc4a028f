"""Every workload the benchmark runs must build and run a unit cleanly.

``perfbench/run.py`` builds each workload named in ``BENCHMARK.json`` and
runs its units; a library change that breaks one of the calls a workload
makes would otherwise only show as a failed benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load_workloads():
    # workloads.py imports its siblings calibrate and spans by their bare names
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(PERFBENCH))


workloads = _load_workloads()


@pytest.mark.parametrize("name", NAMES)
def test_first_unit_runs_cleanly(name):
    workload = workloads.WORKLOADS[name](seed=1)
    with workload.instrumented():
        workload.run_unit(0)
    assert workload.attempted > 0
    assert workload.errors == []
    assert workload.problems == []
