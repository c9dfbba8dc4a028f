"""Every function the benchmark traces must stay reachable under its traced name.

``perfbench/run.py --trace 1`` looks each entry of ``perfbench/spans.py``'s
``TRACED`` up with ``getattr`` on ``alcc_lab.<module>``; a rename or a
deletion would make it fail with an AttributeError.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name", spans.TRACED)
def test_traced_name_resolves_to_a_callable(name):
    module, *path = name.split(".")
    target = importlib.import_module(f"{spans.PACKAGE}.{module}")
    for attr in path:
        target = getattr(target, attr)
    assert callable(target)
