"""Smoke tests of the example scripts under scripts/.

Each script is loaded in-process with runpy (without running its
`__main__` block) and its main() is called; a few known lines of the
printed output are asserted.
"""

from __future__ import annotations

import json
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str) -> dict:
    return runpy.run_path(str(SCRIPTS / name), run_name="script_under_test")


def test_worked_closures_prints_the_traces(capsys):
    assert _load("worked_closures.py")["main"]([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "=== MSTAR_K33: 9 elements, rank 4 ===" in lines
    assert "  + 0110   completes theta {2,4} {3,7} {6,8}" in lines
    assert sum(line.startswith("fixed point: ") for line in lines) == 3


def test_classify_gallery_prints_recipes_and_refutations(capsys):
    assert _load("classify_gallery.py")["main"]() == 0
    out = capsys.readouterr().out
    assert "dual of the seven-point plane: NOT IN CLASS" in out
    assert "(missing 1100)" in out
    assert "IN CLASS" in out.replace("NOT IN CLASS", "")


def test_growth_runs_the_smallest_rung_in_a_child(capsys):
    # P(PG(11), C(3)) is closed: the pair route finds no target with
    # three pairs, and the certificate proves it in one node.
    argv = ["--only", "pgc3/11/check", "--max-seconds", "10"]
    assert _load("growth.py")["main"](argv) == 0
    (row,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert row["status"] == "ok" and row["answer"] == {"closed": True}
    assert row["nodes"] == 1 and row["family"] == "P(PG(r), C(3))"
    assert row["seconds"] < 1 and row["peak_rss_mb"] > 0


def test_growth_pass_by_target_stops_at_its_first_hit(capsys):
    # P(PG(13), C(3)) minus p2 under --no-shortcut goes target by
    # target, and its first target refutes in two nodes; reading every
    # target's names first took seconds.
    argv = ["--only", "pgc3-p2/13/no-shortcut", "--max-seconds", "10"]
    assert _load("growth.py")["main"](argv) == 0
    (row,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert row["status"] == "ok" and row["answer"] == {"closed": False}
    assert row["nodes"] == 2 and row["seconds"] < 1


def test_growth_scan_rung_pins_its_node_count(capsys):
    # M(K7) under --no-shortcut: the pair route (35 nodes), the walk for
    # the circuits of 4 to 6 elements (2538, 6307 before the walk's
    # look-ahead) and one node per candidate pair past the size test,
    # 2783 in all (6563 before the scan dropped the circuits of 5 or 6
    # elements whose flat closes no incomplete theta).
    argv = ["--only", "mk/7/no-shortcut", "--max-seconds", "10"]
    assert _load("growth.py")["main"](argv) == 0
    (row,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert row["status"] == "ok" and row["answer"] == {"closed": True}
    assert row["nodes"] == 2783 and row["family"] == "M(K_n)"


def test_growth_split_search_rungs_pin_their_node_counts(capsys):
    # The rank-9 spike is 3-connected, not a block and sparse (18
    # elements), so decompose tries every vector of its span as a
    # split, 2^9 - 1 = 511 nodes.  PG(8) minus a point (254 elements) is
    # past cut_walk's counting bound, 2^7 + 1, so it takes none.
    argv = ["--only", "spike/9/decompose", "pgminus/8/decompose", "--max-seconds", "10"]
    assert _load("growth.py")["main"](argv) == 0
    spike, pgminus = map(json.loads, capsys.readouterr().out.splitlines())
    for row in (spike, pgminus):
        assert row["status"] == "ok" and row["answer"] == {"vertices": 1}
        assert row["seconds"] < 1
    assert spike["nodes"] == 511 and spike["family"] == "rank-r spike"
    assert pgminus["nodes"] == 0 and pgminus["family"] == "PG(r) minus a point"


def test_growth_spike_scan_rungs_pin_their_node_counts(capsys):
    # The rank-9 spike is not in the class: check lists its circuits of
    # 4 to 9 elements (504 nodes of 529) and refutes it in the scan,
    # whose largest bucket holds 71 circuits.  The closure reaches PG(9)
    # in three rounds and 2808 nodes.
    rows = ["spike/9/check", "spike/9/closure"]
    assert _load("growth.py")["main"](["--only", *rows, "--max-seconds", "10"]) == 0
    check, closure = map(json.loads, capsys.readouterr().out.splitlines())
    for row in (check, closure):
        assert row["status"] == "ok" and row["family"] == "rank-r spike"
        assert row["seconds"] < 1
    assert check["answer"] == {"closed": False} and check["nodes"] == 529
    assert closure["answer"] == {"size": 511, "rounds": 3} and closure["nodes"] == 2808


def test_growth_wheel_and_cographic_rungs_pin_their_node_counts(capsys):
    # W10 (20 elements, rank 10) is not in the class: check finds no
    # pair-route theta, the certificate names all of it in 20 nodes, and
    # the scan refutes it in 1016 more; one closure round adds every
    # missing edge of K11, and decompose tries all 2^10 - 1 vectors of
    # its span.  M*(K_(3,6)) (18 elements, rank 10) goes the same way:
    # 18 certificate nodes, 255 in the scan, and 1023 in decompose.
    rows = ["w/10/check", "w/10/closure", "w/10/decompose"]
    rows += ["mstar-k3n/6/check", "mstar-k3n/6/decompose"]
    assert _load("growth.py")["main"](["--only", *rows, "--max-seconds", "10"]) == 0
    got = {row["row"]: row for row in map(json.loads, capsys.readouterr().out.splitlines())}
    want = {
        "w/10/check": ({"closed": False}, 1036),
        "w/10/closure": ({"size": 55, "rounds": 1}, 1400),
        "w/10/decompose": ({"vertices": 1}, 1023),
        "mstar-k3n/6/check": ({"closed": False}, 273),
        "mstar-k3n/6/decompose": ({"vertices": 1}, 1023),
    }
    for name, (answer, nodes) in want.items():
        row = got[name]
        assert row["status"] == "ok" and row["seconds"] < 1, row
        assert (row["answer"], row["nodes"]) == (answer, nodes), row


def test_growth_glued_wheel_and_block_decompose_rungs_pin_their_node_counts(capsys):
    # Two W6 glued on the rim edge t0 with that edge deleted (22
    # elements, rank 11) are not in the class: check finds no pair-route
    # theta, the certificate names all of it in 22 nodes, and the scan
    # refutes it in 2038 more.  Its tree is the two wheels, joined by
    # the marker of the deleted edge: decompose splits it at that edge's
    # vector, the 23rd it tries, then tries all 63 vectors of each
    # wheel's span.  M(K7) and PG(4) are blocks, which decompose
    # recognizes without a search.
    rows = ["w2/6/check", "w2/6/decompose", "mk/7/decompose", "pg/4/decompose"]
    assert _load("growth.py")["main"](["--only", *rows, "--max-seconds", "10"]) == 0
    check, glued, mk, pg = map(json.loads, capsys.readouterr().out.splitlines())
    for row in (check, glued, mk, pg):
        assert row["status"] == "ok" and row["seconds"] < 1
    assert check["family"] == glued["family"] == "two W_n glued on a rim edge, edge deleted"
    assert check["answer"] == {"closed": False} and check["nodes"] == 2060
    assert glued["answer"] == {"vertices": 2} and glued["nodes"] == 149
    for row in (mk, pg):
        assert row["answer"] == {"vertices": 1} and row["nodes"] == 0
