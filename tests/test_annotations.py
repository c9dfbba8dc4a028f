"""Only `numeric` reads dataclass annotations, so the field kinds have one source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alcc_lab"
READERS = {"get_type_hints", "get_args", "get_origin"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_but_numeric_reads_annotations(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    found = names & READERS
    if path.name == "numeric.py":
        assert found, "numeric reads the annotations; this test's names are stale"
    else:
        assert not found, f"{path.name} calls {sorted(found)}; read numeric.field_kinds"
