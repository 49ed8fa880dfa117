"""Fuzzing of the input boundary: the JSON and text parsers and ``construct --params``.

Every input either gives a value that round-trips exactly or raises
``ValueError`` (exit code 2 at the command line), and never another
exception.  Integer parameters are drawn small or far beyond every size
budget, so an accepted construction stays cheap and an over-large one must
be refused before anything is built.
"""

import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from mstdkit import IntSet
from mstdkit.cli import FAMILIES, main
from mstdkit.grouplattice import GroupSubset

DEEP = "[" * 100_000

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# small values, and values far past every size budget and the 64-bit range
ints = (
    st.integers(-3, 40)
    | st.integers(1 << 40, 1 << 80)
    | st.integers(-(1 << 80), -(1 << 40))
)


def _texts(structured):
    """JSON text of structured values, of arbitrary values, and arbitrary text."""
    return (
        structured.map(json.dumps)
        | json_values.map(json.dumps)
        | st.text(max_size=40)
    )


intset_json = _texts(
    st.fixed_dictionaries({"elements": st.lists(ints | json_scalars, max_size=6)})
)
group_json = _texts(
    st.fixed_dictionaries(
        {
            "moduli": st.lists(ints | json_scalars, max_size=3),
            "elements": st.lists(st.lists(ints, max_size=3), max_size=4),
        }
    )
)


@given(intset_json)
@example(DEEP)
@example('{"elements": [9223372036854775808]}')
def test_intset_from_json(text):
    try:
        a = IntSet.from_json(text)
    except ValueError:
        return
    assert list(a.elements) == json.loads(text)["elements"]
    assert IntSet.from_json(a.to_json()) == a


# zeros of decimal digit blocks that int() reads but the text format does not
NON_ASCII_ZEROS = "\u0660\u0966\u07c0\uff10"
int_texts = st.lists(ints).map(lambda xs: " ".join(map(str, xs)))


def _non_ascii(text, zero):
    return text.translate({ord("0") + i: ord(zero) + i for i in range(10)})


@given(
    int_texts
    | st.lists(ints).map(lambda xs: " ".join(f"{x:_}" for x in xs))  # digit groups
    | st.builds(_non_ascii, int_texts, st.sampled_from(NON_ASCII_ZEROS))
    | st.text(max_size=40)
)
@example("-9223372036854775809 0")
@example("1_000")
@example("\u0663 4")
def test_intset_from_text(text):
    try:
        a = IntSet.from_text(text)
    except ValueError:
        return
    tokens = text.split()
    assert all(tok.isascii() and "_" not in tok for tok in tokens)
    assert list(a.elements) == [int(tok) for tok in tokens]
    assert IntSet.from_text(a.to_text()) == a


@given(group_json)
@example(DEEP)
@example('{"moduli": [4294967296, 4294967296], "elements": []}')
def test_group_subset_from_json(text):
    try:
        a = GroupSubset.from_json(text)
    except ValueError:
        return
    data = json.loads(text)
    assert list(a.spec.moduli) == data["moduli"]
    assert sorted(map(list, a.elements)) == sorted(data["elements"])
    assert GroupSubset.from_json(a.to_json()) == a


gap_params = st.fixed_dictionaries(
    {},
    optional={
        "base": ints,
        "dims": st.lists(st.lists(ints, min_size=3, max_size=3), max_size=3),
    },
)
param_names = sorted({n for req, opt, _ in FAMILIES.values() for n in req + opt})
params_json = _texts(
    st.dictionaries(
        st.sampled_from(param_names) | st.text(max_size=3),
        ints | gap_params | json_values,
        max_size=6,
    )
)


def _family_and_params(family):
    """A family with its own parameter names at small values, or arbitrary params."""
    required, optional, _ = FAMILIES[family]
    near_valid = st.fixed_dictionaries(
        {name: st.integers(0, 12) for name in required},
        optional={name: gap_params for name in optional},
    )
    return st.tuples(st.just(family), near_valid.map(json.dumps) | params_json)


def _construct(capsys, family, params):
    code = main(["construct", "--family", family, f"--params={params}"])
    return code, capsys.readouterr().out


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FAMILIES)).flatmap(_family_and_params))
@example(("gap", '{"m": 9, "k": 2, "r": 6, "s": 7}'))
@example(("t1", DEEP))
@example(("t2", '{"k": 1099511627776}'))
@example(("gap", '{"m": 8, "k": 2, "r": 2, "s": 3, "p": {"dims": [], "x": 1}}'))
@example(("gap", json.dumps(dict(m=40, k=2, r=5, s=9, p={"dims": [[1, 0, 1 << 40]]}))))
def test_construct_params(capsys, case):
    family, params = case
    code, out = _construct(capsys, family, params)
    assert code in (0, 2)
    if code == 0:
        data = json.loads(out)
        assert data["params"] == json.loads(params)
        assert data["delta"] >= 1
        assert _construct(capsys, family, json.dumps(data["params"])) == (0, out)
