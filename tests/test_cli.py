"""End-to-end CLI tests: golden outputs validated against the JSON schemas."""

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from maclane.cli import main

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "maclane.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, json.loads(proc.stdout)


def check(name, payload):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


class TestCommands:
    def test_valuate(self):
        code, out = run_cli("valuate", "--p", "2",
                            "--chain", "x:1/2; x^2+2:3/2", "--poly", "x^4+4")
        assert code == 0
        check("valuate", out)
        assert out["value"] == "3"

    def test_valuate_function_field(self):
        code, out = run_cli("valuate", "--base", "Fpt", "--p", "3",
                            "--chain", "x:1/3", "--poly", "x^3+t")
        assert code == 0
        check("valuate", out)
        assert out["value"] == "1"

    def test_expand(self):
        code, out = run_cli("expand", "--p", "2", "--poly", "x^4+4",
                            "--key", "x^2+2")
        assert code == 0
        check("expand", out)
        assert out["digits"] == ["8", "-4", "1"]

    def test_polygon(self, tmp_path):
        svg = tmp_path / "np.svg"
        code, out = run_cli("polygon", "--p", "2", "--poly", "x^2+2",
                            "--svg", str(svg))
        assert code == 0
        check("polygon", out)
        assert out["points"] == [[0, "1"], [2, "0"]]
        assert out["sides"][0]["slope"] == "-1/2"
        assert svg.read_text().startswith("<svg")

    def test_augment(self):
        code, out = run_cli("augment", "--p", "2", "--chain", "x:1/2",
                            "--key", "x^2+2", "--alpha", "inf")
        assert code == 0
        check("augment", out)
        assert out["chain"] == "x:1/2; x^2+2:inf"
        assert out["ramification_index"] == 2
        assert out["inertia_degree"] == 1

    def test_approach(self):
        code, out = run_cli("approach", "--p", "2", "--poly", "x^2+2")
        assert code == 0
        check("approach", out)
        assert out["in_vf"] is True
        assert out["already_maximal"] is False
        assert out["alpha1"] == "1/2"

    def test_approach_alpha1_null_past_the_boundary(self):
        code, out = run_cli("approach", "--p", "2", "--chain", "x:1/2",
                            "--poly", "x^2+2")
        assert code == 0
        check("approach", out)
        assert out["in_vf"] is True
        assert out["alpha1"] is None

    def test_max_aug(self):
        code, out = run_cli("max-aug", "--p", "2", "--poly", "x^2+2",
                            "--key", "x")
        assert code == 0
        check("max-aug", out)
        assert out["alpha1"] == "1/2"

    def test_valuate_zero_polynomial(self):
        code, out = run_cli("valuate", "--poly", "0")
        assert code == 0
        check("valuate", out)
        assert out["value"] == "inf"

    def test_factor(self):
        code, out = run_cli("factor", "--p", "5", "--poly", "x^2+1")
        assert code == 0
        check("factor", out)
        assert [e["factor"] for e in out["entries"]] == ["y+2", "y+3"]

    def test_extensions(self, tmp_path):
        dot = tmp_path / "tree.dot"
        code, out = run_cli("extensions", "--p", "3", "--poly", "x^2+1",
                            "--dot", str(dot))
        assert code == 0
        check("extensions", out)
        assert out["count_lower_bound"] == 1
        assert out["all_terminal"] is True
        assert out["branches"][0]["chain"] == "x:0; x^2+1:inf"
        assert dot.read_text().startswith("digraph")

    def test_artin_schreier(self):
        code, out = run_cli("artin-schreier", "--base", "Fpt", "--p", "3",
                            "--a", "1/t^3")
        assert code == 0
        check("artin-schreier", out)
        assert out["case"] == "ramified-p"
        assert out["improvements"] == 1
        assert out["max_of_s"] == ["-1/3", "1/t"]

    def test_artin_schreier_poly_alias(self):
        code, out = run_cli("artin-schreier", "--base", "Fpt", "--p", "2",
                            "--poly", "1/t^2")
        assert code == 0
        assert out["case"] == "ramified-p"

    def test_artin_schreier_split_unbounded(self):
        code, out = run_cli("artin-schreier", "--base", "Fpt", "--p", "2",
                            "--poly", "t")
        assert code == 0
        check("artin-schreier", out)
        assert out["max_of_s"] == "unbounded"

    def test_json_side_file(self, tmp_path):
        path = tmp_path / "out.json"
        code, out = run_cli("valuate", "--poly", "x", "--json", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == out


class TestErrors:
    def test_parse_error_exits_2(self):
        code, out = run_cli("valuate", "--poly", "x+))")
        assert code == 2
        check("error", out)
        assert out["error"]["type"] == "ValueError"

    def test_bad_augmentation_exits_2(self):
        code, out = run_cli("augment", "--p", "2", "--key", "x^2+3*x+2",
                            "--alpha", "2")
        assert code == 2
        check("error", out)

    def test_missing_required_flag_exits_2(self):
        code, out = run_cli("valuate")
        assert code == 2
        check("error", out)

    def test_composite_p_exits_2(self):
        code, out = run_cli("valuate", "--p", "6", "--poly", "x")
        assert code == 2
        check("error", out)

    @pytest.mark.parametrize("argv", [
        ["valuate", "--poly", "x", "--chain", "x:1/0"],
        ["augment", "--key", "x+1", "--alpha", "1/0"],
    ])
    def test_zero_denominator_value_exits_2(self, argv):
        code, out = run_cli(*argv)
        assert code == 2
        check("error", out)
        assert out["error"]["type"] == "ValueError"

    def test_huge_exponent_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maclane.cli", "valuate", "--poly", "x^100000000"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        out = json.loads(proc.stdout)
        check("error", out)
        assert out["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["valuate", "--poly", "x^1000*x^1000"],
        ["valuate", "--base", "Fpt", "--p", "2", "--poly", "(t^999)^999"],
        ["valuate", "--poly", "(2^999)^999"],
        ["valuate", "--base", "Fpt", "--p", "2", "--poly", "t^1000*t^1000*t^1000"],
    ])
    def test_size_bound_exits_2(self, argv, capsys):
        assert main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        check("error", out)
        assert "bound" in out["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["valuate", "--poly=" + "(" * 400 + "x" + ")" * 400],
        ["valuate", "--poly=" + "-" * 1200 + "x"],
    ])
    def test_deep_nesting_exits_2(self, argv, capsys):
        assert main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        check("error", out)
        assert "nested too deeply" in out["error"]["message"]

    @pytest.mark.parametrize("missing", [True, False])
    @pytest.mark.parametrize("argv", [
        ["valuate", "--poly", "x", "--json"],
        ["polygon", "--poly", "x^2+2", "--svg"],
        ["extensions", "--poly", "x^2+2", "--dot"],
    ])
    def test_unwritable_side_file_exits_2(self, tmp_path, argv, missing, capsys):
        # a file in a directory that does not exist, or a path that is a directory
        path = str(tmp_path / "missing" / "out") if missing else str(tmp_path)
        assert main(argv + [path]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        check("error", out)
        assert out["error"]["type"] == "ValueError"
        assert path in out["error"]["message"]
        assert captured.err == ""

    def test_huge_p_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["valuate", "--p", "1000000000000000003", "--poly", "x"]) == 2
        assert time.perf_counter() - start < 1
        out = json.loads(capsys.readouterr().out)
        check("error", out)
        assert "2^32" in out["error"]["message"]
        assert main(["valuate", "--p", "4294967291", "--poly", "x"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "0"

    @pytest.mark.parametrize("argv", [
        ["extensions", "--poly", "x^2+2", "--budget", "3"],
        ["artin-schreier", "--base", "Fpt", "--a", "1/t^2", "--budget", "3"],
    ])
    def test_budget_flag_is_gone(self, argv, capsys):
        assert main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        check("error", out)
        assert "--budget" in out["error"]["message"]

    @pytest.mark.parametrize("argv, expected", [
        (["extensions", "--p", "2", "--poly", "((x^2+x+1)^2+2)^2+4*x"], 0),
        (["valuate", "--poly", "x+))"], 2),
    ])
    def test_closed_stdout_keeps_exit_code(self, tmp_path, argv, expected):
        # a reader that is already gone, as with `| head -c 1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        path = tmp_path / "out.json"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "maclane.cli", *argv, "--json", str(path)],
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == expected
        assert proc.stderr == b""
        assert json.loads(path.read_text())

    def test_invariant_error_exits_3(self, monkeypatch, capsys):
        # no real input reaches this path, so force it through the dispatch
        import maclane.cli as cli
        from maclane import InvariantError

        def boom(args, base):
            raise InvariantError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "cmd_valuate", boom)
        assert main(["valuate", "--poly", "x"]) == 3
        out = json.loads(capsys.readouterr().out)
        check("error", out)
        assert out["error"]["type"] == "InvariantError"


FPT2 = ["--base", "Fpt", "--p", "2"]
FPT3 = ["--base", "Fpt", "--p", "3"]

# Every subcommand over both bases, in-process; stdout and exit codes are
# pinned in tests/golden/cli_main.txt.
GOLDEN_ARGVS = [
    ["valuate", "--chain", "x:1/2; x^2+2:3/2", "--poly", "x^4+4"],
    ["valuate", "--p", "3", "--poly", "(2/3)*x^3-x/5+7/9"],
    ["valuate", "--poly", "x^2+"],
    ["expand", "--p", "3", "--poly", "(2/3)*x^3-x/5+7/9", "--key", "x+1"],
    ["polygon", "--p", "5", "--poly", "x^5+50*x-1", "--key", "x-1"],
    ["augment", "--p", "3", "--key", "x^2+1", "--alpha", "1"],
    ["augment", "--chain", "x:1/2", "--key", "x^2+2", "--alpha", "inf"],
    ["approach", "--poly", "x^2+2"],
    ["max-aug", "--p", "5", "--poly", "x^2+1", "--key", "x+2"],
    ["factor", "--p", "3", "--chain", "x:0; x^2+1:1", "--poly", "(x^2+1)^2+9*x"],
    ["factor", "--p", "5", "--poly", "x^2+1"],
    ["extensions", "--poly", "x^4+2*x^3+4*x^2+4*x+2"],
    ["extensions", "--poly", "((x^2+x+1)^2+2)^2+4*x"],
    ["artin-schreier", "--a", "2"],
    ["valuate", *FPT3, "--chain", "x:1/3", "--poly", "x^3+t"],
    ["valuate", *FPT3, "--poly", "x^2+(t+1)/(t^2+2)*x+1/(t+1)"],
    ["expand", *FPT2, "--poly", "x^3+x/(t+1)+t", "--key", "x+1"],
    ["polygon", *FPT2, "--poly", "x^2+x+1/t"],
    ["augment", *FPT3, "--key", "x", "--alpha", "1/3"],
    ["augment", *FPT2, "--key", "x^2+x+1", "--alpha", "1"],
    ["approach", *FPT2, "--poly", "x^2+x+t"],
    ["max-aug", *FPT2, "--poly", "x^2+x+t", "--key", "x+1"],
    ["factor", *FPT2, "--poly", "x^2+x+t"],
    ["extensions", *FPT3, "--poly", "x^3+2*x+2*t"],
    ["extensions", *FPT2, "--poly", "(x^2+x+1)^2+t"],
    ["artin-schreier", *FPT2, "--a", "1/t^2"],
    ["artin-schreier", *FPT3, "--a", "1/(t^3+t)"],
    ["artin-schreier", "--base", "Fpt", "--p", "5", "--a", "1/t"],
]


def test_golden_outputs(capsys):
    lines = []
    for argv in GOLDEN_ARGVS:
        code = main(argv)
        lines.append(f"$ maclane {shlex.join(argv)}\nexit {code}\n{capsys.readouterr().out}")
    assert "".join(lines) == (Path(__file__).resolve().parent / "golden" / "cli_main.txt").read_text()
