import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mstdkit
from mstdkit import GroupSubset, IntSet, embed_report, find_group_mstd, mstd_delta
from mstdkit import cli
from mstdkit.cli import main
from mstdkit.setops import I64_MAX, I64_MIN

A1 = [0, 2, 3, 4, 7, 11, 12, 14]
A2 = [0, 2, 3, 4, 7, 9, 13, 14, 16]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestConstruct:
    def test_t1(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--family", "t1",
            "--params", '{"m": 4, "d": 1, "k": 3}',
        )
        assert code == 0
        data = json.loads(out)
        assert data["set"] == A1
        assert data["delta"] == 1
        assert data["a_star"] == 14
        assert data["family"] == "t1"

    def test_t2(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "t2", "--params", '{"k": 2}')
        data = json.loads(out)
        assert code == 0
        assert data["set"] == A2
        assert data["a_star"] == 16

    def test_t3(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--family", "t3",
            "--params", '{"m": 4, "d": 1, "k": 3}',
        )
        data = json.loads(out)
        assert code == 0
        assert data["a_star"] == 20
        assert data["delta"] >= 1

    def test_hr(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "hr", "--params", '{"k": 3}')
        assert json.loads(out)["set"] == A1

    def test_gap_families(self, capsys):
        params = '{"m": 6, "k": 2, "r": 2, "s": 3, "p": {"base": 0, "dims": []}}'
        code, out, _ = run_cli(capsys, "construct", "--family", "gap", "--params", params)
        data = json.loads(out)
        assert code == 0 and data["delta"] >= 1
        assert data["a_star"] == 26

        params2 = '{"m": 8, "k": 2, "r": 2, "s": 3, "p": {"base": 0, "dims": []}}'
        code, out, _ = run_cli(capsys, "construct", "--family", "gap2", "--params", params2)
        data = json.loads(out)
        assert code == 0 and data["delta"] >= 1

    def test_validation_error_reported(self, capsys):
        code, out, err = run_cli(
            capsys, "construct", "--family", "t1",
            "--params", '{"m": 4, "d": 2, "k": 3}',
        )
        assert code == 2
        assert "m/2" in err

    def test_missing_param_reported(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--family", "t1", "--params", "{}")
        assert code == 2 and "needs parameter" in err

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("t1", '{"m": 4.5, "d": 1, "k": 3}', "m must be an integer, got 4.5"),
            ("t2", '{"k": 2.0}', "k must be an integer, got 2.0"),
            ("t1", '{"m": 4, "d": true, "k": 3}', "d must be an integer, got true"),
            ("t1", "[4, 1, 3]", "--params must be a JSON object"),
            ("hr", '"k"', "--params must be a JSON object"),
            ("gap", '{"m": 6, "k": 2, "r": 2, "s": 3, "p": {"base": 0.5, "dims": []}}',
             "p.base must be an integer"),
            ("gap", '{"m": 6, "k": 2, "r": 2, "s": 3, "p": {"base": 0, "dims": [[1, 2]]}}',
             'p must be {"base"'),
            ("gap", '{"m": 6, "k": 2, "r": 2, "s": 3, "p": [0]}', 'p must be {"base"'),
            ("t2", '{"k": 2, "m": 9}', "family 't2' does not take parameter(s): m"),
            ("gap", '{"m": 6, "k": 2, "r": 2, "s": 3, "p": {"dims": [], "x": 0}}',
             'p must be {"base"'),
            ("t1", "[" * 100_000, "nested too deeply"),
            # over-large families are refused before anything is built
            ("t2", '{"k": 1099511627776}', "dense-kernel limit"),
            ("hr", '{"k": 1099511627776}', "dense-kernel limit"),
            ("t1", '{"m": 1099511627776, "d": 1, "k": 3}', "dense-kernel limit"),
            ("t3", '{"m": 5, "d": 1, "k": 1099511627776}', "dense-kernel limit"),
            ("gap", '{"m": 1099511627776, "k": 2, "r": 2, "s": 3}', "dense-kernel limit"),
            ("gap2", '{"m": 9, "k": 1099511627776, "r": 2, "s": 3}', "dense-kernel limit"),
            ("gap", '{"m": 40, "k": 2, "r": 5, "s": 9, "p": {"dims": [[1, 0, 1099511627776]]}}',
             "progression points exceed the budget"),
            # min(lstar) + max(lstar) = 12 > (k-1)m: the set would not be MSTD
            ("gap2", '{"m": 9, "k": 2, "r": 6, "s": 7}', "min(lstar) + max(lstar) <= (k-1)*m"),
        ],
    )
    def test_bad_params_rejected(self, capsys, family, params, message):
        code, out, err = run_cli(capsys, "construct", "--family", family, "--params", params)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


class TestCount:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "7")
        data = json.loads(out)
        assert code == 0
        assert data == {"n": 7, "covering": 28, "bound": 16, "meets_bound": True}

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "6", "--table")
        data = json.loads(out)
        assert code == 0
        assert len(data["misses"]) == 12
        by_g = {tuple(row["g"]): row["count"] for row in data["misses"]}
        assert by_g[(1, 0)] == 8 and by_g[(0, 1)] == 16 and by_g[(0, 0)] == 0

    def test_cap_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "4096", "--table")
        assert code == 0
        data = json.loads(out)
        assert data["bound"] <= data["covering"] < 2**4096
        assert len(data["misses"]) == 2 * 4096

    @pytest.mark.parametrize("n", ["1", "4097"])
    def test_out_of_range_rejected(self, capsys, n):
        code, out, err = run_cli(capsys, "count", "--n", n)
        assert code == 2 and out == ""
        assert "error: n must be in [2, 4096]" in err


class TestGroupSearchAndEmbed:
    def test_search_then_embed(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "group-search", "--n", "7")
        assert code == 0
        data = json.loads(out)
        assert data["moduli"] == [7, 2]
        assert len(data["elements"]) == 7

        path = tmp_path / "witness.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "embed", "--input", str(path), "--t-max", "16")
        assert code == 0
        result = json.loads(out)
        assert result["delta"] >= 1
        assert result["t_used"] >= 1
        image = IntSet(result["set"])
        assert mstd_delta(image).delta == result["delta"]

    def test_search_random_seeded(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "group-search", "--n", "8", "--strategy", "random", "--seed", "5"
        )
        code2, out2, _ = run_cli(
            capsys, "group-search", "--n", "8", "--strategy", "random", "--seed", "5"
        )
        assert code1 == code2 == 0 and out1 == out2

    def test_search_first_rejects_a_seed(self, capsys):
        code, out, err = run_cli(capsys, "group-search", "--n", "7", "--seed", "5")
        assert code == 2 and out == ""
        assert "error: strategy 'first' does not take parameter(s): seed" in err

    def test_search_random_needs_a_seed(self, capsys):
        code, out, err = run_cli(capsys, "group-search", "--n", "9", "--strategy", "random")
        assert code == 2 and out == ""
        assert err == "error: strategy 'random' needs a seed\n"

    def test_search_over_cap_rejected(self, capsys):
        code, out, err = run_cli(capsys, "group-search", "--n", "4097")
        assert code == 2 and out == ""
        assert "error: n must be in [2, 4096]" in err

    def test_no_witness_error(self, capsys):
        code, _, err = run_cli(capsys, "group-search", "--n", "4")
        assert code == 2 and "no covering" in err

    def test_embed_rejects_non_mstd(self, capsys, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text('{"moduli": [5], "elements": [[0], [1], [4]]}')
        code, _, err = run_cli(capsys, "embed", "--input", str(path))
        assert code == 2 and "not an MSTD subset" in err

    @pytest.mark.parametrize("t_max", ["0", "-1"])
    def test_embed_rejects_t_max_below_one(self, capsys, tmp_path, t_max):
        _, witness, _ = run_cli(capsys, "group-search", "--n", "7")
        path = tmp_path / "witness.json"
        path.write_text(witness)
        code, out, err = run_cli(capsys, "embed", "--input", str(path), "--t-max", t_max)
        assert code == 2 and out == ""
        assert err == "error: t_max must be at least 1\n"

    def test_embed_over_point_budget(self, capsys, tmp_path):
        # the n = 7 covering witness times {0} in (Z/2)^22 is still group MSTD;
        # thickness 2 would build 7 * 2^24 lattice points
        eps = (1, 1, 0, 1, 0, 0, 0)
        path = tmp_path / "lifted.json"
        path.write_text(json.dumps({
            "moduli": [7, 2] + [2] * 22,
            "elements": [[i, e] + [0] * 22 for i, e in enumerate(eps)],
        }))
        code, out, err = run_cli(capsys, "embed", "--input", str(path))
        assert code == 2 and out == ""
        assert "error: thickness search: 117440512 lattice points exceed the budget" in err

    def test_embed_has_no_fold_budget_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--input", "-", "--cap-l", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap-l 2" in capsys.readouterr().err

    def test_embed_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "embed", "--input", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"moduli": [7.9, 2], "elements": [[true, 0], [2, false]]}',
             "modulus must be an integer, got 7.9"),
            ('{"moduli": [7, 2], "elements": [[true, 0], [2, false]]}',
             "residue must be an integer, got true"),
            ('{"moduli": [7, 2], "elements": {"0": [1, 0]}}', "must be lists"),
        ],
    )
    def test_embed_rejects_non_strict_integers(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "embed", "--input", str(path))
        assert code == 2 and out == "" and message in err

    def test_embed_rejects_empty_subset(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"moduli": [5], "elements": []}')
        code, out, err = run_cli(capsys, "embed", "--input", str(path))
        assert (code, out, err) == (2, "", "error: subset must be nonempty\n")


@pytest.mark.parametrize("value", ["1_0", "\u0667", " 7", "7.0", "0x7", ""])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "{}"],
        ["group-search", "--n", "{}"],
        ["group-search", "--strategy", "random", "--n", "9", "--seed", "{}"],
        ["embed", "--input", "-", "--t-max", "{}"],
        ["spectrum", "--range-max", "{}", "--max-size", "3"],
        ["spectrum", "--range-max", "4", "--min-size", "{}", "--max-size", "3"],
        ["spectrum", "--range-max", "4", "--max-size", "{}"],
    ],
)
def test_integer_flags_take_only_decimal_integers(capsys, argv, value):
    # read as the text wire format reads integers: "1_0" is not 10, nor is
    # the Arabic-Indic digit seven (U+0667) 7
    with pytest.raises(SystemExit) as exc:
        main([value if a == "{}" else a for a in argv])
    assert exc.value.code == 2
    assert f"{value!r} is not a decimal integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "parse, text, key, argv",
    [
        (IntSet.from_json, '{"elements": [1, 2], "elements": [5]}', "elements", None),
        (GroupSubset.from_json, '{"moduli": [7, 2], "elements": [[0, 0]], "moduli": [5, 2]}',
         "moduli", ["embed", "--input", "-"]),
        (cli._parse_params, '{"m": 4, "d": 1, "k": 3, "k": 4}', "k",
         ["construct", "--family", "t1", "--params", "{}"]),
    ],
    ids=["intset", "group-subset", "params"],
)
def test_duplicate_json_keys_rejected(capsys, monkeypatch, parse, text, key, argv):
    # json.loads alone keeps the last of repeated keys
    message = f'duplicate JSON key "{key}"'
    with pytest.raises(ValueError, match=re.escape(message)):
        parse(text)
    if argv is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, *[text if a == "{}" else a for a in argv])
        assert code == 2 and out == "" and err == f"error: {message}\n"


def test_version_flag_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"mstd {mstdkit.__version__}\n"


def test_parser_is_shared_and_keeps_no_state(capsys):
    assert cli._parser() is cli._parser()
    code, out, _ = run_cli(capsys, "spectrum", "--range-max", "4", "--max-size", "5", "--format", "csv")
    assert code == 0 and out.startswith("delta,count,witness\n")
    # the earlier call's --format does not stick to the shared parser
    code, out, _ = run_cli(capsys, "spectrum", "--range-max", "4", "--max-size", "5")
    assert code == 0 and json.loads(out)["enumerated"] == 32


REPO = Path(__file__).resolve().parents[1]


def _readme_lines(heading: str, prefix: str) -> list[str]:
    """The lines starting with ``prefix`` of the ``sh`` block under ``heading``."""
    section = (REPO / "README.md").read_text().split(f"\n{heading}\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith(prefix)]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _readme_lines("## CLI", "mstd ")
    commands = {line.split()[1] for line in lines}
    assert commands == {"construct", "embed", "count", "group-search", "spectrum"}
    for line in lines:
        argv = shlex.split(line)[1:]
        target = None
        if argv[-2:-1] == [">"]:  # `> file`, the one redirect the examples use
            argv, target = argv[:-2], argv[-1]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)
        if "csv" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == ["delta", "count", "witness"], line
            assert all(len(row) == 3 for row in rows), line
        else:
            assert out == json.dumps(json.loads(out), indent=2) + "\n", line
        if target is not None:
            (tmp_path / target).write_text(out)


def test_readme_scripts_run(capsys, monkeypatch):
    # each ``python scripts/...`` line of the README, run in process, prints
    # the sample facts the README states
    lines = _readme_lines("## Scripts", "python scripts/")
    outputs = {}
    for line in lines:
        script, *args = shlex.split(line)[1:]
        monkeypatch.setattr(sys, "argv", [script, *args])
        runpy.run_path(str(REPO / script), run_name="__main__")
        outputs[Path(script).stem] = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and outputs.keys() == {"spectrum_scan", "coverage_scan", "embed_demo"}

    rows = {line.split()[0]: line for line in outputs["spectrum_scan"]}
    assert "no positive delta" in rows["[0,13]"]
    assert "positive={1: 4}" in rows["[0,14]"]
    assert rows["[0,14]"].endswith("witness delta=1: 0 1 2 4 5 9 12 13 14")

    rows = {line.split()[0]: line.split() for line in outputs["coverage_scan"]}
    assert rows["7"][1:3] == ["28", "16"]

    demo = outputs["embed_demo"]
    i = next(i for i, line in enumerate(demo) if line.startswith("n=7: "))
    assert demo[i].startswith("n=7: t=2 radix=53 ") and demo[i].endswith(" delta=3")
    assert demo[i + 1].startswith("  set: ") and len(demo[i + 1].split()) == 1 + 28


def test_embed_demo_reports_a_failed_embed_per_n():
    # t_max = 1 is too small for n = 7 (it needs t = 2): one line, no traceback
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "embed_demo.py"),
         "--min-n", "7", "--max-n", "8", "--t-max", "1"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "n=7: thickness search: no thickness up to 1 transfers the inequality"
    assert lines[1].startswith("n=8: ")


def test_embed_demo_default_t_max_reaches_n_22():
    # the first covering witness needs t = n - 5 for n = 7..24, so n = 22
    # needs t = 17, within the default t_max of 32 that embed_report shares
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "embed_demo.py"), "--min-n", "22", "--max-n", "22"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("n=22: t=17 radix=1493 "), lines[0]
    assert not any("no thickness" in line for line in lines)


def test_embed_demo_exits_on_a_wrong_delta(capsys, monkeypatch):
    # a delta that mstd_delta of the image does not confirm is printed, and
    # the script exits with status 1 after the last n
    def wrong(witness, t_max):
        result = embed_report(witness, t_max=t_max)
        if witness.spec.moduli[0] != 8:
            return result
        return dataclasses.replace(result, delta=result.delta + 1)

    monkeypatch.setattr(mstdkit, "embed_report", wrong)
    monkeypatch.setattr(sys, "argv", ["embed_demo.py", "--min-n", "7", "--max-n", "9"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(REPO / "scripts" / "embed_demo.py"), run_name="__main__")
    assert exit_info.value.code == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "MISMATCH" in line] == ["  MISMATCH: embed reported delta=7"]
    assert lines[-2].startswith("n=9: ")


@pytest.mark.parametrize(
    "script, args, name",
    [
        ("spectrum_scan.py", ["--max-range", "25"], "--max-range"),
        ("spectrum_scan.py", ["--max-range", "0"], "--max-range"),
        ("coverage_scan.py", ["--min-n", "1"], "--min-n"),
        ("coverage_scan.py", ["--max-n", "4097"], "--max-n"),
        ("embed_demo.py", ["--min-n", "1"], "--min-n"),
        ("embed_demo.py", ["--max-n", "4097"], "--max-n"),
        ("embed_demo.py", ["--t-max", "0"], "--t-max"),
    ],
)
def test_scripts_reject_out_of_range_parameters(script, args, name):
    # refused by argparse before any output, with the usage line and no traceback
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert f"error: {name} must be" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "script, args, shown",
    [
        ("coverage_scan.py", ["--min-n", "٤", "--max-n", "10"], "'٤'"),
        ("embed_demo.py", ["--max-n", "1_0"], "'1_0'"),
        ("spectrum_scan.py", ["--max-range", "7.0"], "'7.0'"),
    ],
)
def test_scripts_take_only_decimal_integers(script, args, shown):
    # the flags read integers as ``mstd`` does: no digit groups, no
    # non-ASCII digits, no decimal point
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"{shown} is not a decimal integer" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "value",
    [
        # every subcommand's shape: int lists, nested dicts and lists of
        # dicts, an empty list (gap "dims") and an empty dict (no witnesses)
        {"family": "gap", "params": {"m": 6, "p": {"base": 0, "dims": []}}, "set": [0, 2]},
        {"n": 2, "covering": 0, "meets_bound": True, "misses": [{"g": [0, 1], "count": 3}]},
        {"moduli": [7, 2], "elements": [[0, 1], [1, 0]]},
        {"range_max": 0, "spectrum": {"0": 1, "-1": 2}, "witnesses": {}},
        {"t_used": 2, "set": [-(1 << 70), 3], "delta": 1},
        # values that leave the fast paths
        [], {}, [[]], [True, 1], [1, 2.5, None], {"\u00e9\"": "\u00fc\n"}, {1: [2]}, 7,
        # the construct and embed "set", and ints at str's digit limit
        IntSet(), IntSet([5]), IntSet([I64_MIN, 0, I64_MAX]),
        {"t_used": 1, "inner": {"set": IntSet([-3, 0, 7]), "empty": IntSet()}},
        [10**4299, -(10**4299)],
    ],
)
def test_json_emitter_matches_indented_dumps(value):
    assert cli._to_json(value) == json.dumps(_listed(value), indent=2)


def _listed(value):
    """``value`` with each ``IntSet`` in it replaced by the list of its elements."""
    if type(value) is IntSet:
        return list(value.elements)
    if type(value) is list:
        return [_listed(v) for v in value]
    if type(value) is dict:
        return {k: _listed(v) for k, v in value.items()}
    return value


@given(st.builds(IntSet, st.lists(st.integers(I64_MIN, I64_MAX))))
def test_json_emitter_writes_an_intset_as_its_list(s):
    assert cli._to_json(s) == json.dumps(list(s.elements), indent=2)
    nested = {"t_used": 2, "set": s}
    assert cli._to_json(nested) == json.dumps({"t_used": 2, "set": list(s.elements)}, indent=2)


json_values = st.recursive(
    st.integers() | st.booleans() | st.none() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@given(json_values | st.lists(st.integers(), max_size=8))
def test_json_emitter_matches_indented_dumps_on_nested_values(value):
    assert cli._to_json(value) == json.dumps(value, indent=2)


class TestSpectrum:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--range-max", "8", "--min-size", "1", "--max-size", "9"
        )
        data = json.loads(out)
        assert code == 0
        assert data["enumerated"] == 2**9 - 1
        assert sum(data["spectrum"].values()) == data["enumerated"]

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--range-max", "6", "--min-size", "1",
            "--max-size", "7", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,count,witness"
        assert len(lines) > 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_closed_stdout_exits_quietly(self, fmt):
        """A reader that closes the pipe (``mstd ... | head``) gets no traceback."""
        env = _src_env()
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader at all, so the first write fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mstdkit", "spectrum", "--range-max", "8",
                 "--max-size", "9", "--format", fmt],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1 and proc.stderr == ""


# the six parameter sets of the benchmark's construct jobs
BENCH_FAMILY_PARAMS = {
    "t1": {"m": 800, "d": 3, "k": 800},
    "t3": {"m": 500, "d": 7, "k": 500},
    "t2": {"k": 20000},
    "hr": {"k": 20000},
    "gap": {"m": 400, "k": 300, "r": 40, "s": 72, "p": {"base": 0, "dims": [[2, 0, 5], [11, 0, 3]]}},
    "gap2": {"m": 600, "k": 400, "r": 40, "s": 60, "p": {"base": 0, "dims": [[3, 0, 4]]}},
}

GRID_PROGRESSIONS = [
    None,  # "p" left out: the one-point progression {0}
    {"base": 0, "dims": [[1, 0, 2]]},
    {"base": 0, "dims": [[2, 0, 2]]},
    {"base": 0, "dims": [[1, 0, 2], [3, 0, 2]]},
]


def _construct_grid():
    """``construct`` argument lists over every family, built and refused."""
    for family in ("t1", "t3"):
        for m in range(4, 10):
            for d in range(m + 1):
                for k in range(10):
                    yield family, {"m": m, "d": d, "k": k}
    for family in ("t2", "hr"):
        for k in range(12):
            yield family, {"k": k}
    for family in ("gap", "gap2"):
        for p in GRID_PROGRESSIONS:
            for m in range(4, 16):
                for r in range(1, m):
                    for s in range(r + 1, m):
                        for k in (1, 2, 3):
                            params = {"m": m, "k": k, "r": r, "s": s}
                            if p is not None:
                                params["p"] = p
                            yield family, params
    yield from BENCH_FAMILY_PARAMS.items()


# sha256 of the grid's (argv, exit code, stdout, stderr) records, recorded
# before the family tail counted with setops._fold_delta
CONSTRUCT_GRID_SHA256 = "f8cf0e976f1a1a159921617f6c15bacda95980fe7161b8bed574ea460527a1a9"


def test_construct_grid_output_pinned(capsys):
    digest = hashlib.sha256()
    runs = 0
    for family, params in _construct_grid():
        argv = ["construct", "--family", family, "--params", json.dumps(params)]
        record = [argv, *run_cli(capsys, *argv)]
        digest.update(json.dumps(record).encode() + b"\n")
        runs += 1
    assert runs == 11826
    assert digest.hexdigest() == CONSTRUCT_GRID_SHA256


# sha256 of the (n, exit code, stdout, stderr) records of ``embed`` on the
# first covering witness for n = 7..16, recorded before the embed image was
# re-checked through its factorization
EMBED_SHA256 = "41f8407e9d3a460bac19b458cc271808073942721a314bf59719a9eceb1484ff"


def test_embed_outputs_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    for n in range(7, 17):
        path = tmp_path / f"witness-n{n}.json"
        path.write_text(find_group_mstd(n).to_json())
        record = [n, *run_cli(capsys, "embed", "--input", str(path), "--t-max", "32")]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == EMBED_SHA256


# Imports the CLI, runs ``main`` on each argv of the JSON list in argv[1] with
# stdout captured, then checks _strict_int, and reports whether numpy was
# loaded after each step.
_MODULES_SCRIPT = """
import contextlib, io, json, sys
from mstdkit.cli import main
from mstdkit.setops import _strict_int

out = {"imported": "numpy" in sys.modules, "codes": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out["codes"].append(main(argv))
out["after_main"] = "numpy" in sys.modules
out["rejected"] = []
for value in (2.0, True):
    try:
        _strict_int("x", value)
    except ValueError as e:
        out["rejected"].append(str(e))
out["accepted"] = _strict_int("x", 7)
out["after_strict_int"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def _modules_after(*argvs) -> dict:
    """``_MODULES_SCRIPT``'s report from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


class TestNumpyImport:
    """numpy is imported by the spectrum scan alone: neither at startup nor by
    any other command."""

    def test_construct_and_count_never_import_numpy(self):
        argvs = [
            ["construct", "--family", family, "--params", json.dumps(params)]
            for family, params in BENCH_FAMILY_PARAMS.items()
        ]
        argvs += [["count", "--n", "22"], ["count", "--n", "8", "--table"]]
        report = _modules_after(*argvs)
        assert report["codes"] == [0] * 8
        assert not report["imported"] and not report["after_main"]
        # _strict_int without numpy loaded: the same values pass and fail
        assert report["rejected"] == [
            "x must be an integer, got 2.0", "x must be an integer, got true",
        ]
        assert report["accepted"] == 7
        assert not report["after_strict_int"]

    def test_embed_and_group_search_never_import_numpy(self, tmp_path):
        group = tmp_path / "group.json"
        group.write_text(find_group_mstd(24).to_json())
        report = _modules_after(
            ["embed", "--input", str(group)],
            ["group-search", "--n", "24"],
            ["group-search", "--n", "24", "--strategy", "random", "--seed", "3"],
        )
        assert report["codes"] == [0, 0, 0]
        assert not report["imported"] and not report["after_main"]

    def test_spectrum_imports_numpy(self):
        report = _modules_after(
            ["spectrum", "--range-max", "5", "--min-size", "1", "--max-size", "6"]
        )
        assert report["codes"] == [0]
        assert not report["imported"] and report["after_main"]
