import ast
import re
import types
from pathlib import Path

import pytest

import mstdkit


def test_all_lists_only_public_names_that_resolve():
    assert len(set(mstdkit.__all__)) == len(mstdkit.__all__)
    for name in mstdkit.__all__:
        assert not isinstance(getattr(mstdkit, name), types.ModuleType), name
    namespace = {}
    exec("from mstdkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mstdkit.__all__)


SRC = Path(mstdkit.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names_used(tree) -> set:
    """Every identifier read in the module, including ``__all__``'s strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    tree = MODULES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    assert imported - _names_used(tree) == set()


def test_every_private_function_is_referenced():
    used = set().union(*map(_names_used, MODULES.values()))
    private = {
        node.name
        for tree in MODULES.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    assert private - used == set()


def test_every_constant_is_read():
    """Each module-level UPPER_CASE constant is loaded somewhere in src/."""
    loaded, constants = set(), set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            constants.update(
                t.id
                for t in targets
                if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
            )
    assert constants and constants - loaded == set()
