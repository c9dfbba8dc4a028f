"""Every memoizing cache in alcc_lab is bounded, so a long run keeps a flat peak RSS,
and a cached constructor builds each value once."""

import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import pytest

import alcc_lab
from alcc_lab.dft_code import build_code

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alcc_lab"


def cached_functions() -> dict:
    """Qualified name -> function for every lru_cache wrapper defined in an alcc_lab module."""
    found = {}
    for info in pkgutil.iter_modules(alcc_lab.__path__):
        module = importlib.import_module(f"alcc_lab.{info.name}")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members += [(f"{name}.{attr}", getattr(value, "__func__", value))
                            for attr, value in vars(obj).items()]
            for qualname, fn in members:
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                    found[f"{info.name}.{qualname}"] = fn
    return found


CACHED = cached_functions()


def test_walk_finds_the_known_caches():
    assert {"dft_code.build_code", "dft_code._window_index",
            "dft_code._value_operator", "harness._prefix"} <= set(CACHED)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_rebinds_a_global(path):
    # a module-level memo kept by hand is rebound through `global`; the walk above misses it
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert not found, f"{path.name} has a global statement at lines {found}; use an lru_cache"


@pytest.mark.parametrize("name", sorted(CACHED))
def test_cache_is_bounded(name):
    maxsize = CACHED[name].cache_info().maxsize
    assert maxsize is not None and math.isfinite(maxsize)


def test_build_code_takes_positional_arguments_only():
    # a keyword call would be cached apart from the positional one
    assert build_code(15, 7) is build_code(15, 7)
    with pytest.raises(TypeError):
        build_code(n=15, k=7)
    with pytest.raises(TypeError):
        build_code(15, k=7)
