import ast
import re
import types
from pathlib import Path

import pytest

import mstdkit
from mstdkit.setops import I64_MAX


def test_all_lists_only_public_names_that_resolve():
    assert len(set(mstdkit.__all__)) == len(mstdkit.__all__)
    for name in mstdkit.__all__:
        assert not isinstance(getattr(mstdkit, name), types.ModuleType), name
    namespace = {}
    exec("from mstdkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mstdkit.__all__)


SRC = Path(mstdkit.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_version_matches_pyproject():
    # a regex, as Python 3.10 has no tomllib
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'(?m)^version = "([^"]*)"$', pyproject) == [mstdkit.__version__]


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


def test_only_search_imports_numpy():
    """numpy serves the spectrum tables in ``search.py`` and nothing else."""
    importers = set()
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            if "numpy" in roots:
                importers.add(name)
    assert importers == {"search.py"}


# -- integer ranges ------------------------------------------------------------

_A = mstdkit.IntSet([0, 2, 3])
_G7 = mstdkit.find_group_mstd(7)  # |2A| > |A - A|
_D7 = mstdkit.GroupSubset(mstdkit.GroupSpec((7,)), frozenset({(0,), (1,), (3,)}))  # |A - A| > |2A|


def _ranged(entry, name, call, lo, hi, message):
    return pytest.param(name, call, lo, hi, message, id=f"{entry}-{name}")


# each entry point's ranged integer argument: its call at a value v, the
# least and greatest v it takes (None for an open end), and its message for
# a v outside them
RANGES = [
    _ranged("sum_diff", "h", lambda v: mstdkit.sum_diff(_A, v, 0), 0, None,
            "h must be at least 0"),
    _ranged("sum_diff", "k", lambda v: mstdkit.sum_diff(_A, 1, v), 0, None,
            "k must be at least 0"),
    _ranged("h_fold", "h", lambda v: mstdkit.h_fold(_A, v), 0, None, "h must be at least 0"),
    _ranged("ParityGraph", "n", lambda v: mstdkit.ParityGraph(v, (0,) * v), 2, None,
            "n must be at least 2"),
    _ranged("from_mask", "n", lambda v: mstdkit.ParityGraph.from_mask(v, 0), 2, None,
            "n must be at least 2"),
    _ranged("coverage_bound", "n", mstdkit.coverage_bound, 2, None, "n must be at least 2"),
    _ranged("count_covering", "n", mstdkit.count_covering, 2, 4096, "n must be in [2, 4096]"),
    _ranged("miss_count", "n", lambda v: mstdkit.miss_count(v, 0, 0), 2, 4096,
            "n must be in [2, 4096]"),
    _ranged("miss_count", "b", lambda v: mstdkit.miss_count(7, v, 0), 0, 6,
            "b must be in [0, 6]"),
    _ranged("miss_count", "parity", lambda v: mstdkit.miss_count(7, 0, v), 0, 1,
            "parity must be in [0, 1]"),
    _ranged("find_group_mstd", "n", mstdkit.find_group_mstd, 2, 4096, "n must be in [2, 4096]"),
    _ranged("LatticeSet", "dimension", lambda v: mstdkit.LatticeSet(v, ()), 1, None,
            "dimension must be at least 1"),
    _ranged("sublattice_box", "hi", lambda v: mstdkit.sublattice_box(_G7.spec, 0, v), 0, None,
            "hi must be at least 0"),
    _ranged("group_sum_diff", "h", lambda v: mstdkit.group_sum_diff(_G7, v, 1), 0, None,
            "h must be at least 0"),
    _ranged("group_sum_diff", "k", lambda v: mstdkit.group_sum_diff(_G7, 1, v), 0, None,
            "k must be at least 0"),
    _ranged("lattice_sum_diff", "h",
            lambda v: mstdkit.lattice_sum_diff(mstdkit.to_lattice(_G7), v, 1), 0, None,
            "h must be at least 0"),
    _ranged("lattice_sum_diff_card", "k",
            lambda v: mstdkit.lattice_sum_diff_card(mstdkit.to_lattice(_G7), 1, v), 0, None,
            "k must be at least 0"),
    _ranged("thicken", "t", lambda v: mstdkit.thicken(_G7, v), 1, None, "t must be at least 1"),
    _ranged("embedding_consistency", "h", lambda v: mstdkit.embedding_consistency(_G7, v, 0),
            1, None, "h must be at least 1"),
    _ranged("embedding_consistency", "k", lambda v: mstdkit.embedding_consistency(_G7, 1, v),
            0, None, "k must be at least 0"),
    _ranged("find_thickness", "t_max",
            lambda v: mstdkit.find_thickness(_G7, (2, 0), (1, 1), v), 1, None,
            "t_max must be at least 1"),
    _ranged("find_thickness", "h1", lambda v: mstdkit.find_thickness(_D7, (v, 1), (2, 0), 4),
            1, None, "h1 must be at least 1"),
    _ranged("find_thickness", "k1", lambda v: mstdkit.find_thickness(_G7, (2, v), (1, 1), 4),
            0, None, "k1 must be at least 0"),
    _ranged("find_thickness", "h2", lambda v: mstdkit.find_thickness(_G7, (2, 0), (v, 1), 4),
            1, None, "h2 must be at least 1"),
    _ranged("find_thickness", "k2", lambda v: mstdkit.find_thickness(_D7, (1, 1), (2, v), 4),
            0, None, "k2 must be at least 0"),
    _ranged("thickening_bounds", "h", lambda v: mstdkit.thickening_bounds(_G7, v, 0, 1),
            1, None, "h must be at least 1"),
    _ranged("thickening_bounds", "k", lambda v: mstdkit.thickening_bounds(_G7, 1, v, 1),
            0, None, "k must be at least 0"),
    _ranged("thickening_bounds", "t", lambda v: mstdkit.thickening_bounds(_G7, 1, 0, v),
            1, None, "t must be at least 1"),
    _ranged("linearize", "cap_l", lambda v: mstdkit.linearize(mstdkit.to_lattice(_G7), v),
            1, None, "cap_l must be at least 1"),
    _ranged("embed_report", "t_max", lambda v: mstdkit.embed_report(_G7, v), 1, None,
            "t_max must be at least 1"),
    _ranged("exhaustive_spectrum", "range_max", lambda v: mstdkit.exhaustive_spectrum(v, 0, 0),
            0, 24, "range_max must be in [0, 24]"),
    _ranged("exhaustive_spectrum", "min_size", lambda v: mstdkit.exhaustive_spectrum(3, v, 4),
            0, 4, "min_size must be in [0, 4]"),
    _ranged("exhaustive_spectrum", "max_size", lambda v: mstdkit.exhaustive_spectrum(3, 1, v),
            1, 4, "max_size must be in [1, 4]"),
    _ranged("random_search", "range_max", lambda v: mstdkit.random_search(v, 1, 1, 0),
            None, I64_MAX - 1, f"range_max must be at most {I64_MAX - 1}"),
    # at 42, the library's message, not rng.sample's
    _ranged("random_search", "size", lambda v: mstdkit.random_search(40, v, 1, 0), 1, 41,
            "size must be in [1, 41]"),
    _ranged("random_search", "trials", lambda v: mstdkit.random_search(40, 2, v, 0), 1, None,
            "trials must be at least 1"),
]


@pytest.mark.parametrize("name, call, lo, hi, message", RANGES)
def test_integer_range_rejects_each_side_naming_the_parameter(name, call, lo, hi, message):
    assert message.startswith(f"{name} must be ")
    for v in [end + step for end, step in ((lo, -1), (hi, 1)) if end is not None]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(v)


@pytest.mark.parametrize("name, call, lo, hi, message", RANGES)
def test_integer_range_accepts_its_ends(name, call, lo, hi, message):
    for v in {lo, hi} - {None}:
        try:
            call(v)
        except RuntimeError:  # in range, but no result: find_group_mstd(2), t_max = 1
            pass


def test_range_messages_keep_their_wording():
    messages = {param.values[-1] for param in RANGES}
    assert {"n must be in [2, 4096]", "t_max must be at least 1",
            "range_max must be in [0, 24]"} <= messages
