"""End-to-end checks of the `theta3` command line.

Everything goes through cli.main(argv) with capsys catching the JSON
report; one subprocess test at the bottom exercises the installed
console script for real.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import theta3
from theta3 import cli
from theta3.construct import catalog_matroid
from theta3.gf2 import bits_from_str

from oracles import oracle_is_complete, oracle_theta_graphs

REPORT_KEYS = {"command", "input", "verdict", "witness", "trace", "recipe", "timings"}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_report_skeleton_and_exit_zero_on_closed(capsys):
    code, rep = run_cli(capsys, "check", "PG(3)")
    assert code == 0
    assert REPORT_KEYS <= set(rep)
    assert rep["command"] == "check"
    assert rep["verdict"] is True
    assert rep["witness"] is None
    assert rep["trace"] is None and rep["recipe"] is None
    assert rep["input"] == {"argument": "PG(3)", "size": 7, "rank": 3}
    assert rep["timings"]["total_s"] >= 0


def test_check_exit_one_with_validated_witness(capsys):
    code, rep = run_cli(capsys, "check", "THETA(2,2,2)")
    assert code == 1
    assert rep["verdict"] is False
    wit = rep["witness"]
    arcs = frozenset(frozenset(a) for a in wit["arcs"])
    w = bits_from_str(wit["completing_vector"])
    m = catalog_matroid("THETA(2,2,2)")
    assert (arcs, w) in oracle_theta_graphs(m)
    assert oracle_is_complete(m, arcs) == (False, None)
    assert wit["complete"] is False and wit["completed_by"] is None


def test_check_no_shortcut_same_verdict(capsys):
    code, _ = run_cli(capsys, "check", "PG(3)", "--no-shortcut")
    assert code == 0


def test_closure_mstar_k33_fills_the_geometry(capsys):
    code, rep = run_cli(capsys, "closure", "MSTAR_K33")
    assert code == 0
    assert rep["verdict"] == "final = PG(4 over GF(2)), 15 elements"
    assert rep["final"]["size"] == 15 and rep["final"]["rank"] == 4
    tr = rep["trace"]
    assert tr["initial_size"] == 9 and tr["final_size"] == 15
    assert len(tr["rounds"]) == 1
    rnd = tr["rounds"][0]
    assert len(rnd["added"]) == 6
    assert len(rnd["witnesses"]) == 6
    for wit in rnd["witnesses"]:
        assert set(wit) == {"arcs", "completing_vector"}


def test_closure_strategy_flag(capsys):
    code, rep = run_cli(capsys, "closure", "MSTAR_K33", "--strategy", "one_at_a_time")
    assert code == 0
    assert rep["trace"]["final_size"] == 15
    assert all(len(r["added"]) == 1 for r in rep["trace"]["rounds"])


def test_decompose_in_class_single_vertex(capsys):
    code, rep = run_cli(capsys, "decompose", "MK(4)")
    assert code == 0
    assert rep["verdict"] == "InClass"
    assert rep["recipe"]["term"] == "MK(4)"
    assert rep["recipe"]["loops"] == [] and rep["recipe"]["parallel"] == []
    tree = rep["tree"]
    assert len(tree["vertices"]) == 1 and tree["edges"] == []
    assert tree["vertices"][0]["kind"] == "ThreeConnected"
    assert tree["vertices"][0]["size"] == 6


def test_decompose_not_in_class_carries_witness(capsys):
    code, rep = run_cli(capsys, "decompose", "THETA(2,2,2)")
    assert code == 1
    assert rep["verdict"] == "NotInClass"
    assert rep["recipe"] is None
    arcs = frozenset(frozenset(a) for a in rep["witness"]["arcs"])
    m = catalog_matroid("THETA(2,2,2)")
    assert oracle_is_complete(m, arcs) == (False, None)


def test_decompose_tiny_input_note(capsys):
    code, rep = run_cli(capsys, "decompose", "CIRCUIT(3)")
    assert code == 0
    assert any("fewer than 4 elements" in n for n in rep["notes"])
    assert rep["tree"]["vertices"][0]["kind"] == "Circuit"


def test_build_joins_argv_tokens(capsys):
    code, rep = run_cli(capsys, "build", "P(C(3),", "MK(3);", "base=e3,1-2)")
    assert code == 0
    assert rep["verdict"] == "built"
    assert rep["recipe"]["term"] == "P(C(3), MK(3); base=e3,1-2)"
    assert rep["matroid"]["size"] == 5 and rep["matroid"]["rank"] == 3


def test_build_parse_error_exits_two(capsys):
    code, rep = run_cli(capsys, "build", "P(C(3))")
    assert code == 2
    assert "error" in rep and rep["verdict"] is None


def test_build_label_clash_exits_two(capsys):
    # the text grammar carries no relabel maps, so two C(3) leaves
    # instantiate with the same constructor labels and cannot glue
    code, rep = run_cli(capsys, "build", "P(C(3), C(3); base=e3)")
    assert code == 2
    assert "collision" in rep["error"]


def test_catalog_listing(capsys):
    code, rep = run_cli(capsys, "catalog")
    assert code == 0
    assert rep["verdict"] == "ok"
    keys = [k for k, _ in rep["entries"]]
    assert {"F7", "F7STAR", "MSTAR_K5", "MSTAR_K33", "M_K24"} <= set(keys)
    assert "MK(n)" in keys and "PG(r)" in keys
    assert all(desc for _, desc in rep["entries"])


def test_crossval_exhaustive_rank3_is_clean(capsys):
    code, rep = run_cli(
        capsys, "crossval", "--exhaustive-rank", "3", "--samples", "0"
    )
    assert code == 0
    assert rep["verdict"] is True
    assert rep["checked"] == 128
    assert rep["mismatches"] == []


def test_crossval_seeded_runs_repeat(capsys):
    argv = ("crossval", "--exhaustive-rank", "2", "--samples", "6", "--seed", "3")
    _, rep1 = run_cli(capsys, *argv)
    _, rep2 = run_cli(capsys, *argv)
    rep1.pop("timings")
    rep2.pop("timings")
    assert rep1 == rep2
    assert rep1["checked"] == 8 + 6


# -- file and graph input ---------------------------------------------------


def render_matroid_file(m):
    lines = [f"dim {m.dim}"]
    lines += [f"{lab} {m.col_str(lab)}" for lab in m.labels]
    return "\n".join(lines) + "\n"


def test_file_input_round_trips_through_check(capsys, tmp_path):
    m = catalog_matroid("MK(4)")
    path = tmp_path / "mk4.matroid"
    path.write_text("# cycle matroid of K4\n" + render_matroid_file(m))
    code, rep = run_cli(capsys, "check", str(path))
    assert code == 0
    assert rep["input"]["size"] == 6 and rep["input"]["rank"] == 3


def test_graph_file_input(capsys, tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text("u v a\nv w b\nw u c  # closing edge\n")
    code, rep = run_cli(capsys, "check", str(path), "--graph")
    assert code == 0
    assert rep["input"]["size"] == 3 and rep["input"]["rank"] == 2


def test_parse_error_reports_line_number(capsys, tmp_path):
    path = tmp_path / "bad.matroid"
    path.write_text("dim 3\na 101\nb 10\n")
    code, rep = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "line 3" in rep["error"]


def test_parse_error_missing_header(capsys, tmp_path):
    path = tmp_path / "headless.matroid"
    path.write_text("a 101\n")
    code, rep = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "expected 'dim d'" in rep["error"]

    path.write_text("# only a comment\n")
    code, rep = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "missing 'dim d'" in rep["error"]


def test_parse_error_dim_too_large(capsys, tmp_path):
    path = tmp_path / "wide.matroid"
    path.write_text("dim 17\n")
    code, rep = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "MAX_DIM" in rep["error"]


def test_unknown_input_exits_two(capsys):
    code, rep = run_cli(capsys, "check", "NO_SUCH_KEY")
    assert code == 2
    assert "neither a catalog key nor a file" in rep["error"]


def test_decompose_rejects_disconnected_file(capsys, tmp_path):
    path = tmp_path / "two_coloops.matroid"
    path.write_text("dim 2\na 10\nb 01\n")
    code, rep = run_cli(capsys, "decompose", str(path))
    assert code == 2
    assert "components" in rep["error"]
    assert "['a']" in rep["error"] and "['b']" in rep["error"]


# -- budgets, internal errors, argparse plumbing ----------------------------


# MSTAR_K5 is no good for these: its refutation lands within a handful
# of search nodes, so small budgets are simply not exceeded.  A closed
# matroid forces the full scan, which costs thousands of nodes.


def test_budget_nodes_exit_three(capsys):
    code, rep = run_cli(capsys, "check", "MK(7)", "--max-subsets", "5")
    assert code == 3
    assert rep["error"].startswith("budget exceeded")


def test_budget_seconds_exit_three(capsys):
    # the clock is only consulted every few thousand nodes, so the
    # instance must be large enough to reach a checkpoint
    code, rep = run_cli(capsys, "check", "MK(7)", "--max-seconds", "1e-9")
    assert code == 3
    assert "budget exceeded" in rep["error"]


def test_budget_validation(capsys):
    code, rep = run_cli(capsys, "check", "PG(2)", "--max-subsets", "0")
    assert code == 2
    assert "--max-subsets" in rep["error"]

    code, rep = run_cli(capsys, "check", "PG(2)", "--max-seconds", "-1")
    assert code == 2
    assert "--max-seconds" in rep["error"]


def test_unexpected_exception_exits_four(capsys, monkeypatch):
    def boom(args, budget, report):
        raise RuntimeError("classification mismatch: injected")

    monkeypatch.setitem(cli._COMMANDS, "check", boom)
    code = cli.main(["check", "PG(2)"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 4
    assert rep["error"] == "internal error: RuntimeError: classification mismatch: injected"
    assert rep["verdict"] is None
    assert "timings" in rep
    assert "Traceback" in captured.err


def test_help_and_usage_errors(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "usage" in out

    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_run_wrapper(capsys):
    assert cli.run("check", ["PG(2)"]) == 0
    capsys.readouterr()


def test_console_script_subprocess():
    exe = shutil.which("theta3")
    if exe is None:
        argv = [sys.executable, "-m", "theta3.cli"]
    else:
        argv = [exe]
    # the child imports the same theta3 package this suite imported
    src = str(Path(theta3.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        argv + ["closure", "F7STAR"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["verdict"] == "final = PG(4 over GF(2)), 15 elements"
