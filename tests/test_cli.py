"""Command-line behavior and exit codes."""

from __future__ import annotations

import pytest

from dpcolor.cli import main
from dpcolor import serialize_rotation_text
from conftest import make_cycle


@pytest.fixture()
def c4_file(tmp_path, c4):
    p = tmp_path / "c4.rot"
    p.write_text(serialize_rotation_text(c4))
    return str(p)


@pytest.fixture()
def k4_file(tmp_path, k4):
    p = tmp_path / "k4.rot"
    p.write_text(serialize_rotation_text(k4))
    return str(p)


def test_faces_command(c4_file, capsys):
    assert main(["faces", c4_file]) == 0
    out = capsys.readouterr().out
    assert "(outer)" in out and out.count("face ") == 2


def test_cycles_command(k4_file, tmp_path, capsys):
    assert main(["cycles", k4_file, "--max", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("cycle len 3") == 4
    assert out.count("cycle len 4") == 3
    # a cycle longer than the default recursion limit, at its whole length
    p = tmp_path / "c1200.rot"
    p.write_text(serialize_rotation_text(make_cycle(1200)))
    assert main(["cycles", str(p), "--max", "1200"]) == 0
    assert capsys.readouterr().out.startswith("cycle len 1200: 0 1 2 ")


def test_class_command(c4_file, capsys):
    assert main(["class", c4_file]) == 0
    out = capsys.readouterr().out
    assert "g1" in out and "yes" in out


def test_structure_lemmas_exit_code(k4_file, c4_file, capsys):
    # the 4-clique trips a theorem check; the plain cycle does not
    assert main(["structure", k4_file, "--lemmas"]) == 1
    assert main(["structure", c4_file, "--lemmas"]) == 0


def test_solve_found_and_not_found(c4_file, tmp_path, c4, capsys):
    assert main(["solve", c4_file, "--k", "2"]) == 0
    swap = tmp_path / "swap.rot"
    swap.write_text("""4
1 3
2 0
3 1
0 2
covers:
0 1: 1>2 2>1
0 3: 1>1 2>2
1 2: 1>1 2>2
2 3: 1>1 2>2
""")
    assert main(["solve", str(swap), "--k", "2"]) == 1


def test_dp_and_list_chromatic(c4_file, capsys):
    assert main(["dp-chromatic", c4_file, "--max", "4"]) == 0
    assert "dp-chromatic: 3" in capsys.readouterr().out
    assert main(["list-chromatic", c4_file, "--max", "4"]) == 0
    assert "list-chromatic: 2" in capsys.readouterr().out


def test_extend_command(c4_file, capsys):
    assert main(["extend", c4_file, "--cycle", "0,1,2,3",
                 "--colors", "1,2,1,2", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out


def test_extend_sampled_reports_seed(c4_file, capsys):
    assert main(["extend", c4_file, "--cycle", "0,1",
                 "--colors", "1,2", "--k", "4",
                 "--samples", "25", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "samples=25" in out and "seed=7" in out


def test_extend_rejects_vacuous_input(c4_file, capsys):
    # colors outside 1..k, or equal colors across the straight tree edge 0-1,
    # are valid under no cover; a verdict on them would be vacuous
    base = ["extend", c4_file, "--cycle", "0,1", "--k", "4"]
    assert main(base + ["--colors", "9,9"]) == 2
    assert "1..4" in capsys.readouterr().err
    assert main(base + ["--colors", "1,1"]) == 2
    captured = capsys.readouterr()
    assert "vacuous" in captured.err and captured.out == ""
    assert main(["extend", c4_file, "--cycle", "0,7", "--colors", "1,2",
                 "--k", "4"]) == 2
    # a repeated vertex would silently keep only one of its colors
    assert main(["extend", c4_file, "--cycle", "0,0,1", "--colors", "1,2,1",
                 "--k", "4"]) == 2
    assert "repeats" in capsys.readouterr().err
    assert main(base + ["--colors", "1,2", "--samples", "-3"]) == 2
    assert "samples must be at least 1" in capsys.readouterr().err


def test_extend_exhaustive_budget(k4_file, capsys):
    # K4 has beta = 3, so k = 6 gives 720**3 covers, over DEFAULT_COVER_BUDGET
    assert main(["extend", k4_file, "--cycle", "0,1,2", "--colors", "1,2,3",
                 "--k", "6"]) == 2
    assert "exceed budget" in capsys.readouterr().err


def test_discharge_command(c4_file, capsys):
    assert main(["discharge", c4_file, "--rules", "g1"]) == 0
    out = capsys.readouterr().out
    assert "conservation=ok" in out and "replay=ok" in out


def test_corpus_command(capsys):
    assert main(["corpus", "--n", "3..4", "--class", "g1"]) == 0
    out = capsys.readouterr().out
    assert "# corpus graph 0" in out and "outer:" in out


def test_corpus_rejects_empty_size_range(capsys):
    # an empty range would print no graph and exit 0, a silent vacuous answer
    assert main(["corpus", "--n", "5..3"]) == 2
    captured = capsys.readouterr()
    assert "empty size range 5..3" in captured.err and captured.out == ""


def test_input_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.rot"
    bad.write_text("definitely not a graph\n\x01")
    assert main(["faces", str(bad)]) == 2
    assert main(["faces", str(tmp_path / "missing.rot")]) == 2


def test_format_override(tmp_path, capsys):
    # force graph6 parsing of a payload that auto-detection also accepts
    p = tmp_path / "k4.g6"
    p.write_text("C~\n")
    assert main(["faces", str(p), "--format", "graph6"]) == 0
    assert capsys.readouterr().out.count("face ") == 4
    # rotation-text forced onto a graph6 payload is a clean input error
    assert main(["faces", str(p), "--format", "rotation-text"]) == 2
