"""End-to-end checks of the `theta3` command line.

Everything goes through cli.main(argv) with capsys catching the JSON
report; one subprocess test at the bottom exercises the installed
console script for real.
"""

import errno
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import theta3
from theta3 import cli, construct, decompose, theta
from theta3.budget import CHECK_EVERY, Budget
from theta3.construct import catalog_matroid
from theta3.gf2 import bits_from_str
from theta3.matroid import BinaryMatroid, same_matroid

from corpus import complete_graph_edges
from oracles import oracle_is_circuit, oracle_is_complete, oracle_rank, oracle_theta_graphs

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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "MSTAR_K5"],
        ["closure", "MSTAR_K33"],
        ["decompose", "MK(4)"],
        ["build", "P(C(3), C(3); base=e3)"],
        ["catalog"],
    ],
)
def test_report_is_one_json_line(capsys, argv):
    cli.main(argv)
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1, argv
    assert isinstance(json.loads(out), dict)


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


def test_build_deeply_nested_term_exits_two(capsys):
    term = "D(" * 2000 + "C(3)" + ", C(3))" * 2000
    code, rep = run_cli(capsys, "build", term)
    assert code == 2
    assert "nests deeper" in rep["error"]


def test_build_label_clash_exits_two(capsys):
    # the text grammar carries no relabel maps, so two C(3) leaves
    # instantiate with the same constructor labels and cannot glue
    code, rep = run_cli(capsys, "build", "P(C(3), C(3); base=e3)")
    assert code == 2
    assert "collision" in rep["error"]


@pytest.mark.parametrize("base, label", [("ae1", "ae1"), ("e1,zz", "zz")])
def test_build_names_an_unknown_base_label(capsys, base, label):
    # a base that names no element of its side's constructor labels, on
    # the left and on the right; KeyError's own str was the bare repr
    code, rep = run_cli(capsys, "build", f"P(C(5), C(3); base={base})")
    assert code == 2
    assert rep["error"] == f"unknown label {label!r}"


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


def test_crossval_compares_with_the_direct_scan(capsys, monkeypatch):
    # The projective shortcut is the classifier's PG leaf in another
    # form, so the side crossval checks against must not take it.
    shortcuts = []
    real = cli.is_theta3_closed

    def closed(M, **kwargs):
        shortcuts.append(kwargs.get("use_shortcut", True))
        return real(M, **kwargs)

    monkeypatch.setattr(cli, "is_theta3_closed", closed)
    code, rep = run_cli(capsys, "crossval", "--exhaustive-rank", "3", "--samples", "4")
    assert code == 0
    assert len(shortcuts) == rep["checked"] == 128 + 4
    assert not any(shortcuts)


def test_crossval_flags_a_missing_certificate(capsys, monkeypatch):
    # every subset of the rank-2 geometry is closed, so a certificate
    # that hands back the whole input as the piece outside the class
    # sends the classifier into a witness search that finds nothing
    monkeypatch.setattr(decompose, "certificate", lambda M, budget=None: M)
    code, rep = run_cli(capsys, "crossval", "--exhaustive-rank", "2", "--samples", "0")
    assert code == 1
    assert rep["checked"] == 8
    issues = [m["issue"] for m in rep["mismatches"]]
    assert len(issues) == 8
    assert all(i.startswith("classification mismatch: the piece on") for i in issues)


@pytest.mark.parametrize(
    "recipe",
    [
        construct.BuildRecipe(None, loops=("p1", "p2", "p3")),  # same labels, not a triangle
        construct.BuildRecipe(construct.Leaf("C", 3)),  # a triangle on e1, e2, e3
    ],
)
def test_crossval_flags_a_recipe_that_does_not_rebuild(capsys, monkeypatch, recipe):
    real = cli.classify_theta3

    def classify(M, budget=None):
        if M.size == 3:  # the whole triangle PG(2)
            return decompose.Verdict(True, recipe)
        return real(M, budget=budget)

    monkeypatch.setattr(cli, "classify_theta3", classify)
    code, rep = run_cli(capsys, "crossval", "--exhaustive-rank", "2", "--samples", "0")
    assert code == 1
    assert rep["checked"] == 8
    assert rep["mismatches"] == [
        {
            "labels": ["p1", "p2", "p3"],
            "issue": "recipe does not reproduce the circuit family",
            "kind": "exhaustive",
        }
    ]


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


def test_dim_zero_file_reads_a_lone_label_as_a_loop(capsys, tmp_path):
    # reports print a dim-0 element as ["e1", ""], and its file line is
    # the label alone
    m = catalog_matroid("CIRCUIT(1)")
    path = tmp_path / "c1.matroid"
    path.write_text(render_matroid_file(m))
    assert path.read_text() == "dim 0\ne1 \n"
    code, rep = run_cli(capsys, "check", str(path))
    assert code == 0 and rep["verdict"] is True
    assert rep["input"] == {"argument": str(path), "size": 1, "rank": 0}
    assert cli.parse_matroid("dim 0\ne1\ne2  # a loop\n").cols == (0, 0)


def test_graph_file_input(capsys, tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text("u v a\nv w b\nw u c  # closing edge\n")
    code, rep = run_cli(capsys, "check", str(path), "--graph")
    assert code == 0
    assert rep["input"]["size"] == 3 and rep["input"]["rank"] == 2


def test_graph_input_is_limited_by_rank_not_vertices(capsys, tmp_path):
    path_edges = [f"x{i} x{i+1} t{i}" for i in range(16)]
    path = tmp_path / "chorded_path.graph"
    path.write_text("\n".join(path_edges + ["x2 x8 chord"]) + "\n")
    code, rep = run_cli(capsys, "check", str(path), "--graph")
    assert code == 0
    assert rep["input"] == {"argument": str(path), "size": 17, "rank": 16}

    path = tmp_path / "long_path.graph"
    path.write_text("\n".join(path_edges + ["x16 x17 t16"]) + "\n")
    code, rep = run_cli(capsys, "check", str(path), "--graph")
    assert code == 2
    assert "rank 17" in rep["error"] and "MAX_DIM" in rep["error"]


def test_catalog_theta_checks_its_rank_before_building_the_graph(capsys):
    # the billion-edge graph is never built
    code, rep = run_cli(capsys, "check", "THETA(1000000000,1,1)")
    assert code == 2
    assert rep["error"] == "graph of rank 1000000000 exceeds MAX_DIM = 16"
    assert rep["timings"]["total_s"] < 1


def write_graph(path, edges):
    path.write_text("".join(f"{u} {v} {lab}\n" for u, v, lab in edges))
    return str(path)


def test_graph_check_witness_in_forest_coordinates(capsys, tmp_path):
    # W16 has 17 vertices, so its columns are over a spanning forest.  The
    # circuit-pair scan needs 65591 nodes.  The flows need 3: the first
    # non-adjacent pair of vertices with three neighbours, in edge-list
    # order, is r0 and r2, and the three paths between them are forced.
    edges = [("h", f"r{i}", f"s{i}") for i in range(16)]
    edges += [(f"r{i}", f"r{(i + 1) % 16}", f"t{i}") for i in range(16)]
    path = write_graph(tmp_path / "W16.graph", edges)
    code, rep = run_cli(capsys, "check", path, "--graph", "--max-subsets", "2000")
    assert code == 1 and rep["verdict"] is False
    assert rep["input"] == {"argument": path, "size": 32, "rank": 16}
    m = construct.cycle_matroid(edges)
    wit = rep["witness"]
    arcs = [frozenset(a) for a in wit["arcs"]]
    assert arcs == [{"s0", "s2"}, {"t0", "t1"}, {f"t{i}" for i in range(2, 16)}]
    w = 0
    for lab in arcs[0]:
        w ^= m.col_of(lab)
    assert bits_from_str(wit["completing_vector"]) == w
    assert w not in m.colset
    assert wit["complete"] is False and wit["completed_by"] is None
    # oracle_validate_theta would list all 2^18 subsets; the definition
    # by circuits is cheaper: the union of any two arcs is a circuit
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        assert oracle_is_circuit(m, arcs[a] | arcs[b])
    assert oracle_rank(m, arcs[0] | arcs[1] | arcs[2]) == 18 - 2
    code, _ = run_cli(capsys, "check", path, "--graph", "--max-subsets", "3")
    assert code == 1
    code, _ = run_cli(
        capsys, "check", path, "--graph", "--no-shortcut", "--max-subsets", "2000"
    )
    assert code == 3


def test_graph_check_flows_honour_the_node_budget(capsys, tmp_path):
    path = write_graph(tmp_path / "k23.graph", construct.complete_bipartite_edges(2, 3))
    code, rep = run_cli(capsys, "check", path, "--graph", "--max-subsets", "1")
    assert code == 3
    assert rep["error"].startswith("budget exceeded")


def test_graph_check_routes_agree_on_k23(capsys, tmp_path):
    edges = construct.complete_bipartite_edges(2, 3)
    path = write_graph(tmp_path / "k23.graph", edges)
    code, flows = run_cli(capsys, "check", path, "--graph")
    assert code == 1
    code, scan = run_cli(capsys, "check", path, "--graph", "--no-shortcut")
    assert code == 1
    assert flows["verdict"] is scan["verdict"] is False
    assert flows["input"] == scan["input"]
    m = construct.cycle_matroid(edges)
    for rep in (flows, scan):
        arcs = frozenset(map(frozenset, rep["witness"]["arcs"]))
        w = bits_from_str(rep["witness"]["completing_vector"])
        assert (arcs, w) in oracle_theta_graphs(m)


def random_edge_file(rng):
    """The text of an edge file: a multigraph on at most 6 vertices, or a
    sparse one on 17 to 20 vertices of rank 13 to 17, with loops,
    parallel edges, comments, and now and then a repeated label or a
    malformed line."""
    if rng.random() < 0.6:
        n = rng.randint(1, 6)
        p = rng.random()
        ends = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    else:
        # a forest of rank r (vertex v >= n - r hangs from an earlier one)
        # plus up to three chords, so the scan stays cheap
        n = rng.randint(17, 20)
        r = rng.randint(13, min(17, n - 1))
        ends = [(rng.randrange(v), v) for v in range(n - r, n)]
        ends += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
    ends += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))]
    rng.shuffle(ends)
    lines = [f"x{a} x{b} e{k}" for k, (a, b) in enumerate(ends)]
    if lines and rng.random() < 0.15:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i] = lines[i].rsplit(" ", 1)[0] + " " + lines[j].rsplit(" ", 1)[1]
    if rng.random() < 0.1:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["x0 x1", "x0 x1 e0 e1", "x0"]))
    lines = [line + rng.choice(["", "  # note"]) for line in lines]
    lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# comment", "   "]))
    return "\n".join(lines) + "\n"


def graph_outcome(build, text):
    """(size, rank) of build(edges) for an edge file, or the error it raises."""
    try:
        built = build(cli.parse_graph(text))
    except Exception as exc:
        return type(exc), str(exc)
    return built.size, built.rank


def test_graph_route_reads_edge_files_as_the_cycle_matroid_route(capsys, tmp_path):
    # check --graph reads size, rank and the input errors from its own
    # pass over the edges; --no-shortcut builds the cycle matroid after
    # that pass.  Both must report the same input and fail alike, the
    # flows must agree with the scan, and the pass must read each file
    # as cycle_matroid does.
    rng = random.Random(21)
    # a path of rank 17, and one whose last label repeats the first:
    # the rank is reported as cycle_matroid reports it, and a repeated
    # label first, with its lines, as the file is read
    path17 = "".join(f"x{i} x{i + 1} e{i}\n" for i in range(17))
    repeat17 = "".join(f"x{i} x{i + 1} e{i % 16}\n" for i in range(17))
    texts = ["", "# nothing but a comment\n\n   # and another\n", path17, repeat17]
    texts += [random_edge_file(rng) for _ in range(300)]
    errors, wide = [], 0
    for i, text in enumerate(texts):
        path = tmp_path / f"g{i}.graph"
        path.write_text(text)
        results = []
        for extra in ((), ("--no-shortcut",)):
            code = cli.main(["check", str(path), "--graph", *extra])
            out = capsys.readouterr().out
            assert out.count("\n") == 1 and code in (0, 1, 2, 3), text
            results.append((code, json.loads(out)))
        (code, flows), (scan_code, scan) = results
        assert code == scan_code, text
        assert flows["input"] == scan["input"], text
        assert flows.get("error") == scan.get("error"), text
        assert flows["verdict"] == scan["verdict"], text
        assert graph_outcome(theta._Graph, text) == graph_outcome(
            construct.cycle_matroid, text
        ), text
        errors.append(flows.get("error"))
        wide += code < 2 and flows["input"]["rank"] >= 13
    # every kind of outcome was met: verdicts, on 17 to 20 vertices too,
    # a malformed line, a repeated label and a rank above 16
    assert None in errors and wide
    assert any(e and e.startswith("line ") for e in errors)
    assert any(e and e.endswith(": labels must be pairwise distinct") for e in errors)
    assert any(e and e.startswith("graph of rank") for e in errors)
    assert errors[2] == "graph of rank 17 exceeds MAX_DIM = 16"
    assert errors[3] == (
        "line 17: label 'e0' is already on line 1: labels must be pairwise distinct"
    )


def random_matroid_file(rng):
    """The text of a matroid file: up to 10 columns of dimension 0 to 6,
    with loops, parallel copies, comments and blank lines, and now and
    then a missing, malformed or too large `dim`, a column of the wrong
    length or alphabet, or a repeated label."""
    dim = rng.randint(0, 6)
    cols = [rng.randrange(1 << dim) for _ in range(rng.randint(0, 10))]
    cols += [rng.choice(cols) for _ in range(rng.randint(0, 2)) if cols]
    cols += [0] * (rng.random() < 0.3)
    rng.shuffle(cols)
    lines = [f"e{k} " + format(c, f"0{dim}b")[-dim:] * bool(dim) for k, c in enumerate(cols)]
    if lines and rng.random() < 0.1:
        i = rng.randrange(len(lines))
        lab, col = lines[i].partition(" ")[::2]
        lines[i] = lab + " " + rng.choice([col + "0", col[1:], "2" * dim, col + " 1"])
    if lines and rng.random() < 0.1:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i] = lines[j].split()[0] + " " + lines[i].partition(" ")[2]
    lines = [line + rng.choice(["", "  # note"]) for line in lines]
    header = f"dim {dim}"
    if rng.random() < 0.1:
        header = rng.choice(["", "dim", "dim x", "dim -1", f"dim {dim} {dim}", "dim 17"])
    lines.insert(0, header)
    lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# comment", "   "]))
    return "\n".join(lines) + "\n"


def _one_report(capsys, argv):
    """Run the CLI; assert one JSON line and an exit code of 0 to 3."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and code in (0, 1, 2, 3), argv
    rep = json.loads(out)
    assert isinstance(rep, dict) and ("error" in rep) == (code >= 2), argv
    return code, rep


def test_generated_matroid_files_never_crash(capsys, tmp_path):
    # check, decompose and closure read the file the same way; whatever
    # it holds, each answers with one report and never exits 4
    rng = random.Random(22)
    texts = ["", "dim 0\n", "dim 3\n", "dim 2\nz 00\n", "e1 101\n"]
    texts += [random_matroid_file(rng) for _ in range(200)]
    errors = []
    for i, text in enumerate(texts):
        path = tmp_path / f"m{i}.matroid"
        path.write_text(text)
        for argv in (["check"], ["check", "--no-shortcut"], ["decompose"], ["closure"]):
            code, rep = _one_report(capsys, [*argv, str(path), "--max-subsets", "20000"])
            errors.append(rep.get("error"))
    assert None in errors
    assert "missing 'dim d' header line" in errors
    assert any(e and e.endswith(": labels must be pairwise distinct") for e in errors)
    assert any(e and "column must be" in e for e in errors)
    assert any(e and "expected 'dim d'" in e for e in errors)
    assert any(e and "exceeds MAX_DIM" in e for e in errors)


def random_build_term(rng, depth=0):
    """Recipe text: leaves of size 0 to 5, parallel connections at a
    label that may or may not be on both sides, and direct sums, which
    often repeat a leaf's labels."""
    kind = rng.choice(["C", "MK", "PG"] + ["P", "D"] * (depth < 2))
    if kind in ("C", "MK", "PG"):
        return f"{kind}({rng.randint(0, 5)})"
    left, right = random_build_term(rng, depth + 1), random_build_term(rng, depth + 1)
    if kind == "D":
        return f"D({left}, {right})"
    labels = ["e1", "e3", "1-2", "2-3", "p1", "p3", "x"]
    base = rng.choice(labels)
    if rng.random() < 0.5:
        base += "," + rng.choice(labels)
    return f"P({left}, {right}; base={base})"


def test_generated_build_terms_never_crash(capsys):
    rng = random.Random(23)
    terms = ["C(0)", "MK(0)", "MK(1)", "PG(0)", "PG(20)", "D(C(3))", "P(C(3), C(3); base=e3)"]
    terms += [random_build_term(rng) for _ in range(300)]
    codes = []
    for term in terms:
        if rng.random() < 0.1:
            term = term[: rng.randrange(len(term))]
        code, rep = _one_report(capsys, ["build", term])
        if code == 0:
            assert rep["verdict"] == "built"
            again = construct.evaluate_term(construct.parse_recipe(rep["recipe"]["term"]))
            assert rep["matroid"]["size"] == again.size
        codes.append(code)
    assert codes.count(0) > 30 and codes.count(2) > 30


def test_graph_check_builds_no_cycle_matroid_on_a_closed_graph(capsys, tmp_path, monkeypatch):
    # cycle_matroid and the graph pass's own matroid both build the
    # columns in construct._incidence_matroid
    calls = []
    real = construct._incidence_matroid

    def counted(edges, verts):
        calls.append(len(edges))
        return real(edges, verts)

    monkeypatch.setattr(construct, "_incidence_matroid", counted)
    closed = write_graph(tmp_path / "k5.graph", complete_graph_edges(5))
    code, rep = run_cli(capsys, "check", closed, "--graph")
    assert code == 0 and rep["input"] == {"argument": closed, "size": 10, "rank": 4}
    assert calls == []
    # a witness needs the cycle matroid for its completing vector, once
    open_ = write_graph(tmp_path / "k23.graph", construct.complete_bipartite_edges(2, 3))
    code, rep = run_cli(capsys, "check", open_, "--graph")
    assert code == 1 and rep["witness"]["complete"] is False
    assert calls == [6]


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


def test_parse_error_dim_needs_decimal_digits(capsys, tmp_path):
    # "²" is a digit to str.isdigit but not to int()
    path = tmp_path / "superscript.matroid"
    path.write_text("dim ²\na 10\n", encoding="utf-8")
    code, rep = run_cli(capsys, "check", str(path))
    assert code == 2
    assert rep["error"].startswith("line 1: expected 'dim d'")


def test_build_leaf_parameter_needs_decimal_digits(capsys):
    code, rep = run_cli(capsys, "build", "C(²)")
    assert code == 2
    assert rep["error"].startswith("C needs an integer parameter")


def test_parse_error_dim_too_large(capsys, tmp_path):
    path = tmp_path / "wide.matroid"
    path.write_text("dim 17\n")
    code, rep = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "MAX_DIM" in rep["error"]


@pytest.mark.parametrize("flags", [(), ("--graph",)])
def test_input_file_that_is_not_utf8_exits_two(capsys, tmp_path, flags):
    path = tmp_path / "latin1.matroid"
    path.write_bytes(b"dim 2\n\xe9 10\n")
    code = cli.main(["check", str(path), *flags])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"].startswith("'utf-8' codec can't decode byte 0xe9")


def test_unknown_input_exits_two(capsys):
    code, rep = run_cli(capsys, "check", "NO_SUCH_KEY")
    assert code == 2
    assert "neither a catalog key nor a file" in rep["error"]


@pytest.mark.parametrize(
    "kind, error",
    [
        ("missing", "{arg!r} is neither a catalog key nor a file"),
        ("directory", f"[Errno {errno.EISDIR}] Is a directory: {{arg!r}}"),
        ("nul", "{arg!r} is neither a catalog key nor a file"),
        ("not utf-8", "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
        ("bad bit", "line 2: column must be 3 characters of 0/1, got '120'"),
        ("short column", "line 2: column must be 3 characters of 0/1, got '10'"),
    ],
)
def test_loader_errors(capsys, tmp_path, kind, error):
    # the file is opened once, with no existence test first; each input
    # keeps the exit code and the message it had with that test
    arg = str(tmp_path / "m.matroid")
    if kind == "directory":
        os.mkdir(arg)
    elif kind == "nul":
        arg += "\0"
    elif kind != "missing":
        body = {"not utf-8": b"e1 1\xff0", "bad bit": b"e1 120", "short column": b"e1 10"}
        Path(arg).write_bytes(b"dim 3\n" + body[kind] + b"\n")
    code, rep = run_cli(capsys, "check", arg)
    assert code == 2 and rep["error"] == error.format(arg=arg)


@pytest.mark.parametrize(
    "flags, text, lines",
    [
        ((), "dim 2\na 10\n# b\nb 01\na 11\n", (5, 2)),
        (("--graph",), "x y a\n\ny z b\nz x a\n", (4, 1)),
    ],
)
def test_repeated_label_names_both_lines(capsys, tmp_path, flags, text, lines):
    path = tmp_path / "repeat.txt"
    path.write_text(text)
    code, rep = run_cli(capsys, "check", str(path), *flags)
    assert code == 2 and rep["error"] == (
        "line %d: label 'a' is already on line %d: labels must be pairwise distinct" % lines
    )


def test_decompose_rejects_disconnected_file(capsys, tmp_path):
    path = tmp_path / "two_coloops.matroid"
    path.write_text("dim 2\na 10\nb 01\n")
    code, rep = run_cli(capsys, "decompose", str(path))
    assert code == 2
    assert "components" in rep["error"]
    assert "['a']" in rep["error"] and "['b']" in rep["error"]


def test_decompose_lists_components_in_order_of_their_first_element(capsys, tmp_path):
    path = tmp_path / "two_pairs.matroid"
    path.write_text("dim 2\na 10\nb 01\nc 01\nd 10\n")
    code, rep = run_cli(capsys, "decompose", str(path))
    assert code == 2
    assert rep["error"].endswith("components: [['a', 'd'], ['b', 'c']]")


@pytest.mark.parametrize(
    "text, error",
    [
        ("dim 2\n", "decomposition needs at least one element"),
        ("dim 2\na 10\nb 01\n", "decompose needs a connected matroid; components: [['a'], ['b']]"),
    ],
    ids=["empty", "two_coloops"],
)
def test_decompose_error_carries_no_tree_note(capsys, tmp_path, text, error):
    # The note on inputs of fewer than 4 elements describes the tree, so
    # it is added only once the tree is built.
    path = tmp_path / "small.matroid"
    path.write_text(text)
    code, rep = run_cli(capsys, "decompose", str(path))
    assert code == 2 and rep["error"] == error
    assert "notes" not in rep and "tree" not in rep


# -- budgets, internal errors, argv plumbing --------------------------------


# MSTAR_K5 is no good for these: its refutation lands within a handful
# of search nodes, so small budgets are simply not exceeded.  A closed
# matroid forces the full scan, which costs thousands of nodes, once
# --no-shortcut turns off the recipe certificate that would prove it
# closed in a few dozen.


def test_budget_nodes_exit_three(capsys):
    code, rep = run_cli(capsys, "check", "MK(7)", "--max-subsets", "5")
    assert code == 3
    assert rep["error"].startswith("budget exceeded")


def test_budget_seconds_exit_three(capsys):
    # every charge of the budget reads the clock, so a search of any
    # size stops at its first charge past the limit
    code, rep = run_cli(capsys, "check", "MK(7)", "--no-shortcut", "--max-seconds", "1e-9")
    assert code == 3
    assert "budget exceeded" in rep["error"]


def test_batched_scan_honours_max_seconds(capsys, monkeypatch):
    # The pair scan charges its pairs in batches and must still read the
    # clock at least once per CHECK_EVERY of them.  On a clock that
    # moves one microsecond per node charged, a 0.034 s limit falls in
    # M(K8)'s scan: its pair route and circuit walk take 30875 nodes and
    # the whole check 38875.  The limit must stop the scan within one
    # batch of its 34000th node, whatever the speed of the host.
    reads = []

    def elapsed(budget):
        reads.append(budget.nodes)
        return budget.nodes / 1e6

    monkeypatch.setattr(Budget, "elapsed", elapsed)
    code, rep = run_cli(capsys, "check", "MK(8)", "--no-shortcut", "--max-seconds", "0.034")
    assert code == 3
    assert "time budget exhausted" in rep["error"]
    assert 34000 < reads[-1] <= 34000 + CHECK_EVERY


def test_circuit_enumeration_honours_max_seconds(capsys):
    # both instances spend their time listing circuits
    code, rep = run_cli(capsys, "check", "MK(9)", "--no-shortcut", "--max-seconds", "0.2")
    assert code == 3
    assert "time budget exhausted" in rep["error"]
    assert rep["timings"]["total_s"] < 2

    code, rep = run_cli(capsys, "check", "PG(12)", "--no-shortcut", "--max-seconds", "1")
    assert code == 3
    assert "time budget exhausted" in rep["error"]


def test_incomplete_theta_scan_honours_max_seconds(capsys, tmp_path):
    # The rank-15 spike (tip e0, legs {e_i, e_i + e0} for i = 1..14, and
    # the sum z of e_1..e_14) spends its closure's time in the scan,
    # whose largest bucket holds 4109 circuits.  The scan reads the clock once
    # per circuit it pairs, so the limit stops it within one row of
    # pairs; the whole closure takes seconds.
    r = 15
    cols = [1] + [c for i in range(1, r) for c in (1 << i, 1 << i | 1)] + [(1 << r) - 2]
    labels = ["e0"] + [f"{x}{i}" for i in range(1, r) for x in "ab"] + ["z"]
    spike = BinaryMatroid(tuple(labels), tuple(cols), r)
    path = tmp_path / "spike15.matroid"
    path.write_text(render_matroid_file(spike))
    code, rep = run_cli(capsys, "closure", str(path), "--max-seconds", "0.5")
    assert code == 3
    assert "time budget exhausted" in rep["error"]
    assert rep["timings"]["total_s"] < 1.5


def test_circuit_enumeration_counts_against_max_subsets(capsys):
    # one node per cycle tried, so a node cap now stops circuit listing
    code, rep = run_cli(capsys, "check", "PG(12)", "--no-shortcut", "--max-subsets", "100000")
    assert code == 3
    assert "node budget exhausted" in rep["error"]

    # M(K9)'s pair route takes 126 nodes and its walk 456421 more, so
    # this cap falls in the walk
    code, rep = run_cli(capsys, "check", "MK(9)", "--no-shortcut", "--max-subsets", "300000")
    assert code == 3
    assert "node budget exhausted" in rep["error"]


@pytest.mark.parametrize("key", ["MK(9)", "MK(12)"])
def test_check_certifies_large_complete_graphs_within_a_node_budget(capsys, key):
    # the recipe certificate proves M(K_n) closed without listing circuits
    code, rep = run_cli(capsys, "check", key, "--max-subsets", "1000000")
    assert code == 0
    assert rep["verdict"] is True and rep["witness"] is None


def test_check_reports_the_certificate_recipe(capsys, tmp_path):
    # Above rank 4 check proves a closed verdict by the recipe
    # certificate, and the report carries that recipe: its printed term,
    # with the loops and parallel copies put back, rebuilds the input.
    m = catalog_matroid("MK(9)")
    doubled = m.extend("z", 0).extend("1-2'", m.col_of("1-2"))
    path = tmp_path / "mk9_doubled.matroid"
    path.write_text(render_matroid_file(doubled))
    for argument, want in (("MK(9)", m), (str(path), doubled)):
        code, rep = run_cli(capsys, "check", argument)
        assert code == 0 and rep["verdict"] is True and rep["witness"] is None
        recipe = rep["recipe"]
        rebuilt = construct.BuildRecipe(
            construct.parse_recipe(recipe["term"]),
            tuple(recipe["loops"]),
            tuple(map(tuple, recipe["parallel"])),
        ).evaluate()
        assert same_matroid(want, rebuilt), argument
    assert recipe["loops"] == ["z"] and recipe["parallel"] == [["1-2'", "1-2"]]
    # the projective shortcut and the scan prove nothing to print
    for argv in (["PG(5)"], ["MK(4)"], ["MK(7)", "--no-shortcut"]):
        _, rep = run_cli(capsys, "check", *argv)
        assert rep["recipe"] is None, argv


def test_budget_validation(capsys):
    code, rep = run_cli(capsys, "check", "PG(2)", "--max-subsets", "0")
    assert code == 2
    assert "--max-subsets" in rep["error"]

    code, rep = run_cli(capsys, "check", "PG(2)", "--max-seconds", "-1")
    assert code == 2
    assert "--max-seconds" in rep["error"]


def test_crossval_rejects_negative_samples(capsys):
    # a negative count once ran the exhaustive sweep alone and exited 0
    code, rep = run_cli(capsys, "crossval", "--exhaustive-rank", "2", "--samples", "-1")
    assert code == 2
    assert rep["error"] == "--samples must be >= 0"
    assert rep["verdict"] is None and "checked" not in rep


def test_crossval_rejects_a_bad_sample_rank_before_the_sweep(capsys, monkeypatch):
    # the rank-4 sweep checks 32768 subsets; a bad --sample-rank must not
    # wait for it
    def sweep(sub, budget):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "_crossval_instance", sweep)
    code, rep = run_cli(
        capsys, "crossval", "--exhaustive-rank", "4", "--samples", "2", "--sample-rank", "-1"
    )
    assert code == 2
    assert rep["error"] == "projective_geometry needs rank >= 1"
    assert rep["verdict"] is None and "checked" not in rep


def test_budget_validation_rejects_nan_seconds(capsys):
    # NaN compares false against everything, so it would switch the
    # time limit off; infinity is a legitimate "no limit"
    code, rep = run_cli(capsys, "check", "F7STAR", "--max-seconds", "nan")
    assert code == 2
    assert "--max-seconds" in rep["error"]

    code, rep = run_cli(capsys, "check", "F7STAR", "--max-seconds", "inf")
    assert code == 1
    assert rep["verdict"] is False


def test_decompose_long_separation_search_hits_the_budget(capsys, tmp_path):
    # a piece with no cut point is split at a vector of its span that no
    # column carries, so a 3-connected piece that is not a block, and
    # has no more than 2^(r-1) + 1 elements, has all 2^r - 1 vectors of
    # its span tried, one node each.  The rank-15 spike (tip e0, legs
    # {e_i, e_i + e0} for i = 1..14, and the sum of e_1..e_14; 30
    # elements) is such a piece: its search takes 32767 nodes, so it
    # must run out of a cap of 30000, not out of time or stack.
    cols = [1] + [c for i in range(1, 15) for c in (1 << i, 1 << i | 1)]
    cols.append(sum(1 << i for i in range(1, 15)))
    labels = ["e0"] + [f"{x}{i}" for i in range(1, 15) for x in "ab"] + ["z"]
    lines = ["dim 15"] + [f"{lab} {format(c, '015b')[::-1]}" for lab, c in zip(labels, cols)]
    path = tmp_path / "spike15.matroid"
    path.write_text("\n".join(lines) + "\n")
    code, rep = run_cli(capsys, "decompose", str(path), "--max-subsets", "30000")
    assert code == 3
    assert rep["error"] == "budget exceeded: node budget exhausted (30001 > 30000)"


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


def test_decompose_has_no_order_flag(capsys):
    assert cli.main(["decompose", "--help"]) == 0
    assert "--order" not in capsys.readouterr().out
    assert cli.main(["decompose", "MK(4)", "--order", "reverse"]) == 2
    capsys.readouterr()


def test_decompose_builds_one_tree(capsys, monkeypatch, tmp_path):
    built = []
    real = decompose.canonical_tree_decomposition

    def counting(*args, **kwargs):
        built.append(args[0].size)
        return real(*args, **kwargs)

    for module in (decompose, cli):
        monkeypatch.setattr(module, "canonical_tree_decomposition", counting)
    # the golden non-simple input: the report's tree is the only tree,
    # since the classifier reads its verdict off the certificate
    doubled = next(e for e in json.loads(GOLDEN.read_text()) if "input_file" in e)
    path = tmp_path / "p_c3_c3_doubled.txt"
    path.write_text(doubled["input_file"], encoding="utf-8")
    for argument in ("THETA(1,2,2)", "M_K24", str(path)):
        built.clear()
        _, rep = run_cli(capsys, "decompose", argument)
        assert len(rep["tree"]["vertices"]) > 1, argument
        assert built == [rep["input"]["size"]], argument


def test_decompose_walks_once(capsys, monkeypatch, tmp_path):
    # the tree and the verdict come from one walk: the classifier reads
    # its verdict off the tree's walk, never runs the certificate, and
    # no piece reaches the block recognizer twice
    seen = []
    certified = []
    recognize = construct.complete_graph_mapping

    def counting(M):
        seen.append((M.labels, M.cols))
        return recognize(M)

    for module in (construct, decompose):
        monkeypatch.setattr(module, "complete_graph_mapping", counting, raising=False)
    certify = decompose.certificate

    def certificate(M, budget=None):
        certified.append(M.size)
        return certify(M, budget)

    monkeypatch.setattr(decompose, "certificate", certificate)
    doubled = next(e for e in json.loads(GOLDEN.read_text()) if "input_file" in e)
    path = tmp_path / "p_c3_c3_doubled.txt"
    path.write_text(doubled["input_file"], encoding="utf-8")
    for argument, code in (("MK(5)", 0), ("M_K24", 1), ("F7STAR", 1), (str(path), 0)):
        seen.clear()
        for budget in ([], ["--max-subsets", "1000"]):
            got, rep = run_cli(capsys, "decompose", argument, *budget)
            assert got == code and rep["tree"]["vertices"], argument
        assert seen and len(seen) == 2 * len(set(seen)), argument
    assert certified == []


def test_closed_reader_keeps_the_exit_code(capsys, monkeypatch, tmp_path):
    # `theta3 check F7STAR | head -c0`: the reader is gone before the
    # report is written, so the write fails with EPIPE
    class ClosedPipe(io.TextIOBase):
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
        assert cli.main(["check", "F7STAR"]) == 1
        assert cli.main(["catalog"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_help_to_a_closed_reader_exits_zero_without_a_traceback():
    # `theta3 check -h | head -c0`: the pipe's read end is closed before
    # the help is written, so the write fails with EPIPE
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "theta3.cli", "check", "-h"],
            stdout=write,
            stderr=subprocess.PIPE,
            timeout=60,
            env=child_env(),
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_run_wrapper(capsys):
    assert cli.run("check", ["PG(2)"]) == 0
    capsys.readouterr()


def child_env() -> dict[str, str]:
    """The environment of a child that imports the same theta3 package
    this suite imported."""
    src = str(Path(theta3.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_subprocess():
    exe = shutil.which("theta3")
    if exe is None:
        argv = [sys.executable, "-m", "theta3.cli"]
    else:
        argv = [exe]
    proc = subprocess.run(
        argv + ["closure", "F7STAR"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["verdict"] == "final = PG(4 over GF(2)), 15 elements"


# -- golden reports ------------------------------------------------------------

GOLDEN = Path(__file__).with_name("golden_reports.json")


def test_reports_match_golden_file(capsys, tmp_path, monkeypatch):
    # Each entry holds an argv, its exit code and its report minus
    # `timings`.  THETA(3,3,3) has 3-element arcs, so the pair-route
    # prepass misses it and the circuit-pair scan answers; the MSTAR_K5
    # closure takes the pair-route branch on its 25- and 52-element rounds.
    # An entry with `input_file` reads that text from the file its argv
    # names: p_c3_c3_doubled.txt is non-simple, so its recipe adds a
    # parallel copy back (`recipe.parallel`) after the term is built.
    # `decompose merges.graph --graph` pins a tree read off one cut
    # point, v3v4: the cocircuit {v3v4, m1, m2, m3} joined to a triangle
    # and two 4-element circuits, every vertex in the input's
    # coordinates.
    # The `check --graph` entries pin the flows' witnesses on W6 and the
    # Petersen graph, whose three paths depend on the BFS order, and the
    # scan's witness on W6 with --no-shortcut.  `closure w6.graph --graph`
    # pins the flows' closure: one round that adds the nine missing rim
    # chords, each with its three paths.  `closure PG6from12.matroid`
    # pins a closure answered by the pair route alone: 12 points of
    # PG(6, 2) reach all 63 in five rounds that add 3, 5, 2, 24 and 17
    # vectors, 51 witnesses whose arcs are built from label pairs.
    monkeypatch.chdir(tmp_path)
    for entry in json.loads(GOLDEN.read_text()):
        if "input_file" in entry:
            Path(entry["argv"][1]).write_text(entry["input_file"], encoding="utf-8")
        code, rep = run_cli(capsys, *entry["argv"])
        rep.pop("timings")
        assert (code, rep) == (entry["exit"], entry["report"]), entry["argv"]
