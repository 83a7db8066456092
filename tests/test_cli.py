import json
from fractions import Fraction

import pytest

from flatvol.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_json_document(capsys):
    code, out, err = _run(capsys, "eval", "--g", "0", "--alpha", "1/2,1/2,1/2,1/2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["g", "n", "alpha", "i0", "convention", "v", "volhat", "terms"]
    assert doc["g"] == 0 and doc["n"] == 4
    assert doc["alpha"] == ["1/2", "1/2", "1/2", "1/2"]
    assert doc["i0"] == 1
    assert doc["convention"] == {"s_exponent": "shifted", "term_sign": "prefactor"}
    assert doc["v"] == "-1/2"
    assert abs(doc["volhat"] - 2.4674011002723395) < 1e-15
    assert all(list(t) == ["tree", "value"] for t in doc["terms"])
    total = sum(Fraction(t["value"]) for t in doc["terms"])
    assert total == Fraction(-1, 2)


def test_eval_text_format(capsys):
    code, out, _ = _run(capsys, "eval", "--g", "1", "--alpha", "1/2,3/2", "--format", "text")
    assert code == 0
    assert "v = -1/192" in out


def test_eval_wall_point_null_volhat(capsys):
    code, out, _ = _run(capsys, "eval", "--g", "1", "--alpha", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["v"] == "0" and doc["volhat"] is None


def test_exit_code_2_paths(capsys):
    # entries sum wrong
    code, _, err = _run(capsys, "eval", "--g", "0", "--alpha", "1/2,1/2,1/2")
    assert code == 2 and err.startswith("error:")
    # unstable shape
    code, _, err = _run(capsys, "eval", "--g", "0", "--alpha", "1/2,-1/2")
    assert code == 2 and err.startswith("error:")
    # i0 outside the marking set
    code, _, err = _run(capsys, "eval", "--g", "0", "--alpha", "1/2,1/2,1/2,1/2", "--i0", "7")
    assert code == 2 and err.startswith("error:")
    # volhat rejects walls outright
    code, _, err = _run(capsys, "volhat", "--g", "1", "--alpha", "1,1")
    assert code == 2 and "wall" in err
    # riemann refuses k that leaves a twist level non-integral
    code, _, err = _run(capsys, "riemann", "--g", "1", "--alpha", "3/2,1/2", "--k", "3")
    assert code == 2 and err.startswith("error:")


def test_byte_stable_output(capsys):
    argv = ("eval", "--g", "1", "--alpha", "5/4,5/4,1/2", "--i0", "2")
    _, first, _ = _run(capsys, *argv)
    _, second, _ = _run(capsys, *argv)
    assert first == second
    argv = ("scan", "--g", "1", "--steps", "7")
    _, first, _ = _run(capsys, *argv)
    _, second, _ = _run(capsys, *argv)
    assert first == second


def test_scan_csv_shape(capsys):
    code, out, _ = _run(capsys, "scan", "--g", "1", "--steps", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,alpha,v_num,v_den,volhat,flag"
    assert len(lines) == 6
    # t = 1 is on the grid for steps = 5: row 3 is the wall
    wall = lines[3].split(",")
    assert wall[0] == "1.0" and wall[-1] == "wall"
    assert wall[2] == "0" and wall[4] == ""


def test_scan_json_format(capsys):
    code, out, _ = _run(capsys, "scan", "--g", "1", "--steps", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == 1 and len(doc["rows"]) == 3
    assert doc["rows"][0]["flag"] == ""


def test_graphs_listing(capsys):
    code, out, _ = _run(capsys, "graphs", "--g", "0", "--n", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    # one trivial single-vertex graph, three with an outer vertex
    assert sum("--" in ln for ln in lines) == 3

    code, out, _ = _run(capsys, "graphs", "--g", "1", "--n", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 3


def test_aab_formats(capsys):
    code, out, _ = _run(capsys, "aab")
    assert code == 0
    assert out.split("\n")[0] == "a_1 = -1/24"

    code, out, _ = _run(capsys, "aab", "--gmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g,num,den" and lines[1] == "1,-1,24"

    code, out, _ = _run(capsys, "aab", "--gmax", "1", "--format", "json")
    assert json.loads(out)["a"] == ["-1/24"]


def test_q_command(capsys):
    code, out, _ = _run(capsys, "q", "--g", "0", "--alpha", "1/2,1/2,1/2,1/2")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["q"] - (-4.0)) < 1e-12
    assert abs(doc["det_sym"] - doc["det_closed"]) < 1e-12


def test_riemann_csv(capsys):
    code, out, _ = _run(capsys, "riemann", "--g", "1", "--alpha", "3/2,1/2", "--k", "20,40")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "graph,k,lattice,exact,rel_error"
    assert len(lines) > 1


def test_validate_exits_clean(capsys):
    code, out, _ = _run(capsys, "validate")
    assert code == 0
    assert "overall: ok" in out

    code, out, _ = _run(capsys, "validate", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_help_lists_subcommands():
    text = build_parser().format_help()
    for name in ("eval", "volhat", "scan", "graphs", "aab", "q", "riemann", "validate"):
        assert name in text


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ("eval", "--g", "2", "--alpha", "1/2,7/2")
    _, stdout_text, _ = _run(capsys, *argv)
    target = tmp_path / "value.json"
    code, out, _ = _run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout_text
