import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticecount
import latticecount.cli as cli
import latticecount.oracle as oracle
from latticecount import validate_dilation
from latticecount.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_simplex_file,
)

STD_TRIANGLE_FILE = """\
# standard triangle, facets dilated to (0, 0, 3)
simplex n=2
-1 0
0 -1
1 1
t: 0 0 3
"""

MIXED_FILE = """\
simplex n=2
-1 0
0 -1
2 3
t: 0 0 6
"""

INTERVAL_FILE = """\
simplex n=1
-1
2
t: 0 1
"""

UNIT_SQUARE_FILE = """\
polygon
0 0
1 0
1 1
0 1
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("triangle", STD_TRIANGLE_FILE),
        ("mixed", MIXED_FILE),
        ("interval", INTERVAL_FILE),
        ("square", UNIT_SQUARE_FILE),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_count_closure_auto(files, capsys):
    assert main(["count", files["triangle"], "--mode", "closure"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "10"


def test_count_interior(files, capsys):
    assert main(["count", files["mixed"], "--mode", "interior"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_count_engines_agree(files, capsys):
    for engine in ("recursion", "oracle", "auto"):
        assert main(["count", files["triangle"], "--engine", engine]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "10"


def test_count_machine_mode_deterministic(files, capsys):
    assert main(["count", files["triangle"], "--machine"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["count", files["triangle"], "--machine"]) == EXIT_OK
    assert capsys.readouterr().out == first
    assert "count=10" in first
    assert "cross_checked=yes" in first


def test_count_auto_validates_dilation_twice(files, capsys, monkeypatch):
    # once in the CLI, once inside the brute-force cross-check
    calls = []

    def counting(system, t):
        calls.append(tuple(t))
        return validate_dilation(system, t)

    monkeypatch.setattr(cli, "validate_dilation", counting)
    monkeypatch.setattr(oracle, "validate_dilation", counting)
    assert main(["count", files["triangle"], "--engine", "auto", "--machine"]) == EXIT_OK
    assert "cross_checked=yes" in capsys.readouterr().out
    assert len(calls) == 2


def test_commands_unchanged_under_optimize_flag(files):
    # python -O strips assert statements; invariants must not rely on them
    env = dict(os.environ)
    src = str(Path(latticecount.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "from latticecount.cli import entry; entry()"
    triangle = "--a1 2 --a2 1 --c1 3 --c2 5 --t1 -3 --t2 1 --t3 40".split()
    for args in (
        ["triangle", *triangle, "--check-oracle"],
        ["count", files["triangle"], "--engine", "auto", "--machine"],
        ["count", files["mixed"], "--engine", "auto", "--mode", "interior"],
    ):
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-c", code, *args],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            for flags in ([], ["-O"])
        ]
        assert runs[0].returncode == EXIT_OK, runs[0].stderr
        assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("simplex n=2\n1 0\nt: 0 0\n")
    assert main(["count", str(bad)]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["count", "/nonexistent/problem.txt"]) == EXIT_PARSE


def test_empty_dilation_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("simplex n=2\n-1 0\n0 -1\n1 1\nt: 0 0 -1\n")
    assert main(["count", str(empty)]) == EXIT_INVALID


def test_cell_budget_env_guard(files, capsys, monkeypatch):
    monkeypatch.setenv("LATTICECOUNT_CELL_BUDGET", "2")
    assert main(["count", files["triangle"], "--engine", "oracle"]) == EXIT_INVALID
    assert "budget" in capsys.readouterr().err


def test_negative_cell_budget_exits_2(files, capsys, monkeypatch):
    # a negative budget would silently switch off the auto cross-check
    monkeypatch.setenv("LATTICECOUNT_CELL_BUDGET", "-1")
    for engine in ("auto", "oracle"):
        assert main(["count", files["triangle"], "--engine", engine]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "LATTICECOUNT_CELL_BUDGET" in captured.err


def test_degenerate_interior_is_geometric_zero(tmp_path, capsys):
    point = tmp_path / "point.txt"
    point.write_text("simplex n=2\n-1 0\n0 -1\n1 1\nt: 0 0 0\n")
    for engine in ("recursion", "oracle", "auto"):
        assert main(["count", str(point), "--mode", "interior", "--engine", engine]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0"


def test_reciprocity_command(files, capsys):
    assert main(["reciprocity", files["triangle"]]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "10" in out


def test_triangle_command(capsys):
    args = "--a1 1 --a2 1 --c1 1 --c2 1 --t1 1 --t2 1 --t3 5".split()
    assert main(["triangle", *args, "--check-oracle"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "10"


def test_triangle_command_invalid_dilation(capsys):
    args = "--a1 1 --a2 1 --c1 1 --c2 1 --t1 3 --t2 3 --t3 1".split()
    assert main(["triangle", *args]) == EXIT_INVALID


def test_triangle_command_bad_spec(capsys):
    args = "--a1 1 --a2 1 --c1 2 --c2 4 --t1 1 --t2 1 --t3 5".split()
    assert main(["triangle", *args]) == EXIT_PARSE


def test_polygon_command(files, capsys):
    assert main(["polygon", files["square"]]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "4"
    assert main(["polygon", files["square"], "--mode", "interior"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"


def test_polygon_command_rejects_nonsimple(tmp_path, capsys):
    bow = tmp_path / "bow.txt"
    bow.write_text("polygon\n0 0\n2 2\n2 0\n0 2\n")
    assert main(["polygon", str(bow)]) == EXIT_PARSE


def test_interpolate_command(files, capsys):
    assert main(
        ["interpolate", files["interval"], "--period", "2", "--degree", "1"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "1 + 1/2*s" in out
    assert "1/2 + 1/2*s" in out
    assert "holdout PASS" in out


def test_interpolate_machine_mode(files, capsys):
    assert main(
        ["interpolate", files["interval"], "--period", "2", "--degree", "1", "--machine"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "holdout=PASS" in out


def test_parse_round_trip(files):
    with open(files["triangle"]) as handle:
        system, t = parse_simplex_file(handle.read())
    assert system.n == 2
    assert t == (0, 0, 3)
    assert system.b == (0, 0, 3)
