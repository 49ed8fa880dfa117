import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mstdkit import IntSet, mstd_delta
from mstdkit import cli
from mstdkit.cli import main

A1 = [0, 2, 3, 4, 7, 11, 12, 14]
A2 = [0, 2, 3, 4, 7, 9, 13, 14, 16]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_parser_is_shared_and_keeps_no_state(capsys):
    assert cli._parser() is cli._parser()
    code, out, _ = run_cli(capsys, "spectrum", "--range-max", "4", "--max-size", "5", "--format", "csv")
    assert code == 0 and out.startswith("delta,count,witness\n")
    # the earlier call's --format does not stick to the shared parser
    code, out, _ = run_cli(capsys, "spectrum", "--range-max", "4", "--max-size", "5")
    assert code == 0 and json.loads(out)["enumerated"] == 32


def _readme_cli_examples() -> list[str]:
    """The ``mstd ...`` lines of the ``sh`` block under README's "## CLI"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("mstd ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_examples()
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
    ],
)
def test_json_emitter_matches_indented_dumps(value):
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
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
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
