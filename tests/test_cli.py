"""Command line wiring, run in-process through main(argv).

Exit code contract: 0 for success or a decided query, 1 for a detected
violation (improper coloring, falsified claim, an avoidance query with no
avoiding coloring), 2 for unusable input, 3 for a guard or budget refusal,
4 for an internal error (any other exception).
"""

import argparse
import json
import re
import time
from pathlib import Path

import pytest

from rturan import cli, constructions, graphs
from rturan.cli import main
from rturan.graphs import (PARSE_VERTEX_GUARD, graph_to_json_obj, load_graph,
                           parse_graph)
from rturan.oracle import (COLORING_EDGE_GUARD, EXSTAR_VERTEX_GUARD,
                           clique_packing)
from rturan.induction import run_induction, verify_certificate


@pytest.fixture
def f2k_file(tmp_path):
    path = str(tmp_path / "f.txt")
    assert main(["construct", "f2k", "--k", "2", "-o", path]) == 0
    return path


@pytest.fixture
def k4_file(tmp_path):
    path = str(tmp_path / "m.txt")
    assert main(["construct", "mm", "--k", "2", "-o", path]) == 0
    return path


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# === construct ===

def test_construct_writes_by_extension(tmp_path, capsys):
    txt = str(tmp_path / "g.txt")
    jsn = str(tmp_path / "g.json")
    assert main(["construct", "blowup", "--k", "2", "--n", "16",
                 "-o", txt]) == 0
    assert main(["construct", "blowup", "--k", "2", "--n", "16",
                 "-o", jsn]) == 0
    assert load_graph(txt) == load_graph(jsn)
    g = load_graph(txt)
    assert g.n == 16 and g.m == 32
    capsys.readouterr()


def test_construct_stdout_is_parseable(capsys):
    code, out = run(capsys, ["construct", "mm", "--k", "2"])
    assert code == 0
    g = parse_graph(out)
    assert g.n == 4 and g.m == 6


def test_construct_guard_rejected(capsys):
    assert main(["construct", "f2k", "--k", "1"]) == 2


def test_construct_blowup_refuses_negative_n(capsys):
    assert main(["construct", "blowup", "--k", "2", "--n", "-5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: needs n >= 0\n"


def test_oversized_construction_is_refused_before_it_builds(capsys):
    start = time.perf_counter()
    for argv in (["f2k", "--k", "20"], ["f2k", "--k", "1000000000"],
                 ["mm", "--k", "20"], ["blowup", "--k", "3", "--n", "100000"],
                 ["blowup", "--k", "2", "--n", "1000000000"]):
        assert main(["construct"] + argv) == 3, argv
    # 2^40 edges, or a 2^(10^9) label space, never get allocated
    assert time.perf_counter() - start < 1.0
    assert "refused: construct" in capsys.readouterr().err
    # no copy fits, so there is nothing to build but isolated vertices
    code, out = run(capsys, ["construct", "blowup", "--k", "1000000000",
                             "--n", "10"])
    assert code == 0 and parse_graph(out).m == 0


@pytest.mark.parametrize("argv,edges", [
    (["f2k", "--k", "2"], 16),
    (["mm", "--k", "3"], 28),
    (["blowup", "--k", "2", "--n", "20"], 32),
])
def test_construction_edge_guard_boundary(monkeypatch, capsys, argv, edges):
    monkeypatch.setattr(graphs, "EDGE_GUARD", edges)
    code, out = run(capsys, ["construct"] + argv)
    assert code == 0 and parse_graph(out).m == edges
    monkeypatch.setattr(graphs, "EDGE_GUARD", edges - 1)
    assert main(["construct"] + argv) == 3


# === graph ===

def test_validate_proper_file(f2k_file, tmp_path, capsys):
    code, out = run(capsys, ["graph", "validate", f2k_file])
    assert code == 0
    assert "proper coloring: yes" in out
    assert "n=8 m=16" in out
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0 0\n")
    code, out = run(capsys, ["graph", "validate", str(empty)])
    assert code == 0 and "n=0 m=0 colors=0 min_degree=0" in out
    code, out = run(capsys, ["graph", "validate", str(empty), "--json"])
    assert code == 0 and json.loads(out)["min_degree"] == 0


def test_validate_flags_clash(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2 1\n0 1 0\n1 2 0\n")
    code, out = run(capsys, ["graph", "validate", str(bad)])
    assert code == 1


def test_missing_file_is_input_error(capsys):
    assert main(["graph", "validate", "/nonexistent/g.txt"]) == 2


def test_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["graph", "validate", str(bad)]) == 2


def test_huge_vertex_count_is_refused_at_parse(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("2000000 0 0\n")
    start = time.perf_counter()
    assert main(["graph", "validate", str(huge)]) == 3
    # refused before two million vertices are allocated (seconds of work)
    assert time.perf_counter() - start < 1.0
    assert "refused: parse" in capsys.readouterr().err
    huge.write_text(json.dumps({"n": 2000000, "colors": 0, "edges": []}))
    assert main(["graph", "validate", str(huge)]) == 3
    at_guard = tmp_path / "at_guard.txt"
    at_guard.write_text(f"{PARSE_VERTEX_GUARD} 0 0\n")
    code, out = run(capsys, ["graph", "validate", str(at_guard)])
    assert code == 0 and f"n={PARSE_VERTEX_GUARD}" in out


def test_huge_edge_count_is_refused_at_parse(tmp_path, monkeypatch, capsys):
    huge = tmp_path / "huge.txt"
    # refused on the header, not for the missing edge lines (exit 2)
    huge.write_text(f"10 {graphs.EDGE_GUARD + 1} 1\n0 1 0\n")
    assert main(["graph", "validate", str(huge)]) == 3
    assert "refused: parse" in capsys.readouterr().err
    monkeypatch.setattr(graphs, "EDGE_GUARD", 3)
    star = [[0, v, v - 1] for v in range(1, 5)]
    # a palette of m colors, so that at m = 3 the palette guard passes too
    for m in (3, 4):
        text = f"5 {m} {m}\n" + "".join(f"{u} {v} {c}\n" for u, v, c in star[:m])
        huge.write_text(text)
        assert main(["graph", "validate", str(huge)]) == (0 if m == 3 else 3)
        huge.write_text(json.dumps({"n": 5, "colors": m, "edges": star[:m]}))
        assert main(["graph", "validate", str(huge)]) == (0 if m == 3 else 3)


def test_convert_round_trip(f2k_file, tmp_path, capsys):
    out_json = str(tmp_path / "g.json")
    assert main(["graph", "convert", f2k_file, "--to", "json",
                 "-o", out_json]) == 0
    assert load_graph(out_json) == load_graph(f2k_file)
    code, out = run(capsys, ["graph", "convert", out_json, "--to", "text"])
    assert code == 0
    assert parse_graph(out) == load_graph(f2k_file)


@pytest.mark.parametrize("to,out", [("json", "g.txt"), ("text", "g.json")])
def test_convert_refuses_a_format_its_output_name_contradicts(
        f2k_file, tmp_path, capsys, to, out):
    path = tmp_path / out
    assert main(["graph", "convert", f2k_file, "--to", to,
                 "-o", str(path)]) == 2
    assert not path.exists()
    assert capsys.readouterr().err.startswith("error: --to ")


# === rainbow ===

def test_longest_json(f2k_file, capsys):
    code, out = run(capsys, ["rainbow", "longest", f2k_file, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["proven_optimal"] is True
    assert len(obj["best"]["colors"]) == 3


def test_longest_budget_refusal(f2k_file, capsys):
    assert main(["rainbow", "longest", f2k_file, "--budget", "1"]) == 3
    capsys.readouterr()
    # a negative budget is unusable input, not an exhausted search
    for argv in (["rainbow", "longest", f2k_file, "--budget", "-1"],
                 ["suite", "--instances", "2", "--budget", "-3"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "budget must be" in err, argv


def test_exists_decided_both_ways(f2k_file, capsys):
    code, out = run(capsys, ["rainbow", "exists", f2k_file,
                             "--length", "3"])
    assert code == 0 and "exists" in out
    code, out = run(capsys, ["rainbow", "exists", f2k_file,
                             "--length", "4"])
    assert code == 0 and "no rainbow path" in out


def test_exists_undecided(f2k_file, capsys):
    assert main(["rainbow", "exists", f2k_file, "--length", "3",
                 "--budget", "1"]) == 3


def test_deep_path_file_is_refused_not_crashed(tmp_path, capsys):
    n = 3000
    path = tmp_path / "long.txt"
    path.write_text(f"{n} {n - 1} {n - 1}\n"
                    + "".join(f"{i} {i + 1} {i}\n" for i in range(n - 1)))
    assert main(["rainbow", "longest", str(path)]) == 3
    assert "refused: search" in capsys.readouterr().err
    code, out = run(capsys, ["rainbow", "exists", str(path),
                             "--length", "5"])
    assert code == 0 and "0,1,2,3,4,5" in out


def test_search_past_the_table_guard_is_refused(tmp_path, capsys):
    # 25,000 edges (i, i + 50,000) on 100,000 vertices pass every parse
    # guard, but their search table could need 5.0e9 bits
    n, m = PARSE_VERTEX_GUARD, 25_000
    path = tmp_path / "wide.txt"
    path.write_text(f"{n} {m} 1\n"
                    + "".join(f"{i} {i + n // 2} 0\n" for i in range(m)))
    assert main(["rainbow", "longest", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("refused: search: the search table")


def test_deep_walks_are_refused_not_crashed(tmp_path, capsys):
    # a rainbow 600-cycle: every vertex is a terminal, and the matching
    # recursion goes one level per terminal
    n = 600
    cycle = tmp_path / "cycle.txt"
    cycle.write_text(f"{n} {n} {n}\n" + "".join(
        f"{min(i, (i + 1) % n)} {max(i, (i + 1) % n)} {i}\n"
        for i in range(n)))
    assert main(["engine", "claims", str(cycle)]) == 3
    assert "refused: matching" in capsys.readouterr().err
    # the coloring walk recurses once per edge
    path = tmp_path / "path.txt"
    path.write_text("1101 1100 2\n"
                    + "".join(f"{i} {i + 1} {i % 2}\n" for i in range(1100)))
    assert main(["oracle", "colorings", str(path), "--count",
                 "--guard", "5000"]) == 3
    assert "refused: colorings" in capsys.readouterr().err
    # K_1200 is refused before it is built
    assert main(["oracle", "exstar", "--n", "1200", "--len", "3",
                 "--guard", "5000"]) == 3
    assert "refused: exstar: m=719400" in capsys.readouterr().err


# === bounds ===

def test_bounds_csv(capsys):
    code, out = run(capsys, ["bounds", "--kmax", "8", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,lower,upper_new,upper_old,eg_baseline"
    assert len(lines) == 9
    assert lines[7].startswith("7,7/2,11,11,")


def test_bounds_json(capsys):
    code, out = run(capsys, ["bounds", "--kmax", "10", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["k"] for r in rows] == list(range(1, 11))


def test_bounds_row_guard(monkeypatch, capsys):
    start = time.perf_counter()
    assert main(["bounds", "--kmax", str(10 ** 9)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "refused: bounds" in capsys.readouterr().err
    monkeypatch.setattr(constructions, "BOUND_TABLE_GUARD", 12)
    code, out = run(capsys, ["bounds", "--kmax", "12", "--csv"])
    assert code == 0 and len(out.strip().splitlines()) == 13
    assert main(["bounds", "--kmax", "13", "--csv"]) == 3
    assert capsys.readouterr().out == ""


# === engine ===

def test_profile_fixed_path(k4_file, capsys):
    code, out = run(capsys, ["engine", "profile", k4_file,
                             "--path", "1,0,2"])
    assert code == 0
    assert "far edge: color 2 (fresh)" in out


def test_terminals_modes(f2k_file, capsys):
    code, out = run(capsys, ["engine", "terminals", f2k_file,
                             "--mode", "both"])
    assert code == 0
    assert "rules within oracle: yes" in out
    code, out = run(capsys, ["engine", "terminals", f2k_file,
                             "--mode", "oracle"])
    assert code == 0 and "oracle terminals:" in out


def test_aux_modes(k4_file, capsys):
    for mode in ("rules", "oracle", "both"):
        code, out = run(capsys, ["engine", "aux", k4_file,
                                 "--path", "1,0,2", "--mode", mode])
        assert code == 0


def test_aux_json_renders_both_flavours_alike(k4_file, capsys):
    code, out = run(capsys, ["engine", "aux", k4_file, "--path", "1,0,2",
                             "--mode", "both", "--json"])
    obj = json.loads(out)
    assert code == 0 and obj["sound"] is True
    for tag in ("rules", "oracle"):
        assert set(obj[tag]) == {"vertices", "edges", "min_degree"}


K4_RULES = """\
rule terminals: 0,1,2
      endpoints: 1,2
       far_jump: 0,1,2
      fresh_end: 0,1
    fresh_start: 0,2
       nice_end: 0,1
     nice_start: 0,2
"""
F2K_RULES = """\
rule terminals: 0,1,4,6
      endpoints: 0,6
       far_jump: 0,1,4,6
      fresh_end: 0,4
    fresh_start: 1,6
       nice_end: 1,4
     nice_start: 1,4
"""
K4_AUX = "3 terminals, 3 pairs, min degree 2\n  0 -- 1\n  0 -- 2\n  1 -- 2\n"
F2K_AUX = ("4 terminals, 4 pairs, min degree 2\n"
           "  0 -- 4\n  0 -- 6\n  1 -- 4\n  1 -- 6\n")
K4_PATH = {"vertices": [1, 0, 2], "colors": [0, 1], "edges": 2}
F2K_PATH = {"vertices": [0, 4, 1, 6], "colors": [0, 1, 3], "edges": 3}
K4_AUX_OBJ = {"vertices": [0, 1, 2], "edges": [[0, 1], [0, 2], [1, 2]],
              "min_degree": 2}
F2K_AUX_OBJ = {"vertices": [0, 1, 4, 6],
               "edges": [[0, 4], [0, 6], [1, 4], [1, 6]], "min_degree": 2}
# (command, graph) -> (--mode rules text, --mode both text,
#                      --mode both JSON); the rules JSON is the both JSON
#                      without "oracle" and "sound"
ENGINE_OUTPUTS = {
    ("terminals", "k4"): (
        K4_RULES,
        K4_RULES + "oracle terminals: 0,1,2\nrules within oracle: yes\n",
        {"path": K4_PATH, "oracle": {"terminals": [0, 1, 2]}, "sound": True,
         "rules": {"terminals": [0, 1, 2], "fires": 7, "by_rule": {
             "endpoints": [1, 2], "far_jump": [0, 1, 2],
             "fresh_end": [0, 1], "fresh_start": [0, 2],
             "nice_end": [0, 1], "nice_start": [0, 2]}}}),
    ("terminals", "f2k"): (
        F2K_RULES,
        F2K_RULES + "oracle terminals: 0,1,4,6\nrules within oracle: yes\n",
        {"path": F2K_PATH, "oracle": {"terminals": [0, 1, 4, 6]},
         "sound": True,
         "rules": {"terminals": [0, 1, 4, 6], "fires": 8, "by_rule": {
             "endpoints": [0, 6], "far_jump": [0, 1, 4, 6],
             "fresh_end": [0, 4], "fresh_start": [1, 6],
             "nice_end": [1, 4], "nice_start": [1, 4]}}}),
    ("aux", "k4"): (
        "rules aux graph: " + K4_AUX,
        "rules aux graph: " + K4_AUX + "oracle aux graph: " + K4_AUX
        + "rules within oracle: yes\n",
        {"path": K4_PATH, "rules": K4_AUX_OBJ, "oracle": K4_AUX_OBJ,
         "sound": True}),
    ("aux", "f2k"): (
        "rules aux graph: " + F2K_AUX,
        "rules aux graph: " + F2K_AUX + "oracle aux graph: " + F2K_AUX
        + "rules within oracle: yes\n",
        {"path": F2K_PATH, "rules": F2K_AUX_OBJ, "oracle": F2K_AUX_OBJ,
         "sound": True}),
}


@pytest.mark.parametrize("cmd,graph", sorted(ENGINE_OUTPUTS))
def test_engine_rule_outputs_are_pinned(cmd, graph, request, capsys):
    # k4 on the fixed path 1,0,2; f2k on its proven longest path
    argv = ["engine", cmd, request.getfixturevalue(graph + "_file")]
    if graph == "k4":
        argv += ["--path", "1,0,2"]
    rules_text, both_text, both = ENGINE_OUTPUTS[cmd, graph]
    rules = {k: v for k, v in both.items() if k not in ("oracle", "sound")}
    for mode, text, obj in (("rules", rules_text, rules),
                            ("both", both_text, both)):
        assert run(capsys, argv + ["--mode", mode]) == (0, text)
        assert run(capsys, argv + ["--mode", mode, "--json"]) == (
            0, json.dumps(obj, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("cmd", ["terminals", "aux"])
def test_rule_mode_on_a_one_vertex_path_is_input_error(tmp_path, capsys,
                                                       cmd):
    path = tmp_path / "g.txt"
    path.write_text("4 2 2\n0 1 0\n2 3 1\n")
    assert main(["engine", cmd, str(path), "--path", "3",
                 "--mode", "rules"]) == 2
    assert capsys.readouterr() == (
        "", "error: profile needs a path with at least one edge\n")


def test_single_vertex_path_oracles(tmp_path, capsys):
    # on a one-vertex path that vertex is the only terminal, with no pairs
    path = tmp_path / "g.txt"
    path.write_text("4 2 2\n0 1 0\n2 3 1\n")
    code, out = run(capsys, ["engine", "terminals", str(path), "--path", "3",
                             "--mode", "oracle", "--json"])
    assert code == 0 and json.loads(out)["oracle"] == {"terminals": [3]}
    code, out = run(capsys, ["engine", "aux", str(path), "--path", "3",
                             "--mode", "oracle", "--json"])
    assert code == 0
    assert json.loads(out)["oracle"] == {"vertices": [3], "edges": [],
                                         "min_degree": 0}


@pytest.mark.parametrize("cmd", ["profile", "terminals", "aux", "claims"])
def test_engine_on_a_graph_with_no_vertices_is_input_error(tmp_path, capsys,
                                                           cmd):
    path = tmp_path / "empty.txt"
    path.write_text("0 0 0\n")
    assert main(["engine", cmd, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cmd", ["profile", "terminals", "aux", "claims"])
def test_engine_empty_path_is_input_error(k4_file, capsys, cmd):
    # an empty --path is a path with no vertices, not a request to search
    assert main(["engine", cmd, k4_file, "--path", ""]) == 2
    assert capsys.readouterr() == ("", "error: empty vertex sequence\n")


@pytest.mark.parametrize("raw", ["1,,0,2", "1,0,"])
def test_engine_path_with_an_empty_item_is_input_error(k4_file, capsys, raw):
    # an empty item is a typo, not a separator to skip
    assert main(["engine", "profile", k4_file, "--path", raw]) == 2
    assert capsys.readouterr() == (
        "", f"error: path argument {raw!r} is not a comma list of ids\n")


@pytest.mark.parametrize("raw", ["1_0,2", "+1,0,2", "١,0,2", "1,0,2.0"])
def test_engine_path_items_are_graph_file_tokens(k4_file, capsys, raw):
    # int() reads "1_0" as 10 and "+1" and the Arabic-Indic one as 1; the
    # text graph lexer refuses all of them, and so does --path
    assert main(["engine", "profile", k4_file, "--path", raw]) == 2
    assert capsys.readouterr() == (
        "", f"error: path argument {raw!r} is not a comma list of ids\n")
    # blanks around an item are stripped, as between tokens of a graph file
    assert main(["engine", "profile", k4_file, "--path", "1, 0, 2"]) == 0


@pytest.mark.parametrize("cmd", ["profile", "terminals", "aux"])
def test_engine_path_and_budget_are_a_usage_error(k4_file, capsys, cmd):
    # a given path needs no search, so a budget beside it would go unused
    with pytest.raises(SystemExit) as e:
        main(["engine", cmd, k4_file, "--path", "1,0,2", "--budget", "0"])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


def test_engine_claims_spends_its_budget_on_a_given_path(k4_file, capsys):
    # the maximality probe of the given path runs under the budget
    assert main(["engine", "claims", k4_file, "--path", "1,0,2",
                 "--budget", "0"]) == 3
    assert "search budget too small" in capsys.readouterr().err
    assert main(["engine", "claims", k4_file, "--path", "1,0,2",
                 "--budget", "1000"]) == 0


def test_claims_clean(f2k_file, capsys):
    code, out = run(capsys, ["engine", "claims", f2k_file])
    assert code == 0
    assert "0 falsified" in out


def test_induct_writes_certificate(f2k_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, out = run(capsys, ["engine", "induct", f2k_file, "--k", "3",
                             "-o", cert_path])
    assert code == 0
    # k is the longest allowed path, so the bound is 9*3/7 + 2 = 41/7
    assert out.splitlines()[0] == ("n=8 edges=16 longest allowed path k=3 "
                                   "bound=41/7/vertex")
    assert "edge bound holds: yes" in out
    g = load_graph(f2k_file)
    cert = run_induction(g, 3)
    with open(cert_path, "r", encoding="utf-8") as fh:
        assert json.load(fh) == cert.to_json_obj()
    assert cert.total_edges == 16 and cert.holds
    assert verify_certificate(cert, g)


def test_induct_rejects_broken_promise(f2k_file, capsys):
    assert main(["engine", "induct", f2k_file, "--k", "1"]) == 2


def test_claims_and_induct_refuse_an_improper_coloring(tmp_path, capsys):
    # the claims assume a proper coloring, so an "ok" on this graph would
    # prove nothing; both commands refuse it with the same message
    path = tmp_path / "imp.txt"
    path.write_text("4 3 2\n0 1 0\n1 2 0\n2 3 1\n")
    msg = "error: coloring is not proper (1 clashes, first at vertex 1)\n"
    for argv in (["engine", "claims", str(path)],
                 ["engine", "claims", str(path), "--path", "0,1,2"],
                 ["engine", "induct", str(path), "--k", "2"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == msg, argv


@pytest.mark.parametrize("cmd", ["profile", "terminals", "aux"])
def test_engine_commands_refuse_an_improper_coloring(tmp_path, capsys, cmd):
    # the profile and the rules assume a proper coloring: on this graph the
    # profile would merge the two color-0 edges at vertex 1 into one color
    path = tmp_path / "imp.txt"
    path.write_text("4 3 2\n0 1 0\n1 2 0\n2 3 1\n")
    msg = "error: coloring is not proper (1 clashes, first at vertex 1)\n"
    for argv in (["engine", cmd, str(path)],
                 ["engine", cmd, str(path), "--path", "1,2,3"],
                 ["engine", cmd, str(path), "--json"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", msg), argv


# === oracle ===

def test_oracle_exstar_json(capsys):
    code, out = run(capsys, ["oracle", "exstar", "--n", "5", "--len", "3",
                             "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 6
    assert obj["witness"]["m"] == 6


def test_oracle_exstar_guard(capsys):
    assert main(["oracle", "exstar", "--n", "9", "--len", "3"]) == 3


def test_oracle_guard_defaults_are_the_library_guards():
    parser = cli.build_parser()
    xs = parser.parse_args(["oracle", "exstar", "--n", "3", "--len", "2"])
    co = parser.parse_args(["oracle", "colorings", "g.txt"])
    assert xs.guard == EXSTAR_VERTEX_GUARD
    assert co.guard == COLORING_EDGE_GUARD


def test_oracle_colorings_count(k4_file, capsys):
    code, out = run(capsys, ["oracle", "colorings", k4_file, "--count"])
    assert code == 0
    assert out.strip() == "8"


def test_oracle_colorings_avoidance(k4_file, capsys):
    code, out = run(capsys, ["oracle", "colorings", k4_file, "--len", "3"])
    assert code == 0
    assert parse_graph(out).m == 6
    code, out = run(capsys, ["oracle", "colorings", k4_file, "--len", "2"])
    assert code == 1


def test_oracle_colorings_guard(f2k_file, capsys):
    assert main(["oracle", "colorings", f2k_file, "--count"]) == 3


def test_oracle_colorings_limit(k4_file, capsys):
    code, out = run(capsys, ["oracle", "colorings", k4_file, "--limit", "2"])
    assert code == 0
    assert sum(line.startswith("4 6 ") for line in out.splitlines()) == 2
    for bad in ("0", "-1"):
        code, out = run(capsys, ["oracle", "colorings", k4_file,
                                 "--limit", bad])
        assert code == 2 and out == ""
    # --count and --len print no list, so a --limit beside them is refused
    for argv in (["--count", "--limit", "5"], ["--len", "3", "--limit", "0"]):
        with pytest.raises(SystemExit) as e:
            main(["oracle", "colorings", k4_file] + argv)
        assert e.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_oracle_eg(capsys):
    code, out = run(capsys, ["oracle", "eg", "--n", "10", "--k", "4"])
    assert code == 0
    assert "at most 15 edges" in out and "packing gives 13" in out


def test_oracle_eg_refuses_bad_sizes(capsys):
    for argv in (["--n", "-5", "--k", "3"], ["--n", "5", "--k", "0"]):
        code, out = run(capsys, ["oracle", "eg"] + argv)
        assert code == 2 and out == "", argv
    # the packing's size is checked before it is built or anything printed
    for fmt in ([], ["--json"]):
        code, out = run(capsys, ["oracle", "eg", "--n",
                                 str(PARSE_VERTEX_GUARD + 1), "--k", "3",
                                 "--witness"] + fmt)
        assert code == 3 and out == "", fmt


def test_oracle_eg_json_carries_the_witness(capsys):
    code, out = run(capsys, ["oracle", "eg", "--n", "6", "--k", "3",
                             "--witness", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["witness"] == graph_to_json_obj(clique_packing(6, 3))
    assert obj["witness"]["m"] == obj["packing_edges"] == 6
    code, out = run(capsys, ["oracle", "eg", "--n", "6", "--k", "3",
                             "--json"])
    assert code == 0 and "witness" not in json.loads(out)


# === suite ===

def test_suite_json(capsys):
    code, out = run(capsys, ["suite", "--instances", "6", "--n-min", "5",
                             "--n-max", "6", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["instances"] == 6


def test_suite_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "instances": 9, "n_min": 5,
                               "n_max": 6, "kind": "bare_path"}))
    code, out = run(capsys, ["suite", "--config", str(cfg),
                             "--instances", "3", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["instances"] == 3
    assert obj["config"]["kind"] == "bare_path"
    assert obj["config"]["seed"] == 4


def test_suite_refuses_sizes_it_cannot_build(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 1000}))
    for argv in (["--n-max", "1000", "--instances", "1"],
                 ["--config", str(cfg)]):
        assert main(["suite"] + argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("refused: suite: m=499500")


def test_suite_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "colour": 1}))
    assert main(["suite", "--config", str(cfg)]) == 2
    cfg.write_text("{ not json")
    assert main(["suite", "--config", str(cfg)]) == 2


def _graph_files(n, m, colors, rows):
    """One graph as a text file and as a JSON file, each field written as
    the raw token given."""
    text = f"{n} {m} {colors}\n" + "".join(f"{u} {v} {c}\n"
                                           for u, v, c in rows)
    edges = ", ".join(f"[{u}, {v}, {c}]" for u, v, c in rows)
    return {"txt": text, "json": f'{{"n": {n}, "m": {m}, "colors": '
                                 f'{colors}, "edges": [{edges}]}}'}


# a 20-edge path whose color ids sit near 5 * 10^7: its palette passes
# EDGE_GUARD, so the palette guard refuses it
_PALETTE = (21, 20, 50_000_020, [(i, i + 1, 50_000_000 + i) for i in range(20)])

MALFORMED = [
    ("n=1e400", ("1e400", 1, 1, [(0, 1, 0)]), 2),
    ("m=1e400", (2, "1e400", 1, [(0, 1, 0)]), 2),
    ("color=1e400", (2, 1, 1, [(0, 1, "1e400")]), 2),
    ("n=NaN", ("NaN", 1, 1, [(0, 1, 0)]), 2),
    ("m=NaN", (2, "NaN", 1, [(0, 1, 0)]), 2),
    ("color=NaN", (2, 1, 1, [(0, 1, "NaN")]), 2),
    ("n=3.7", ("3.7", 1, 1, [(0, 1, 0)]), 2),
    ("color=true", (2, 1, 2, [(0, 1, "true")]), 2),  # not color 1
    ("u>v", (2, 1, 1, [(1, 0, 0)]), 2),  # "1 0 c" and [1, 0, c]
    ("palette", _PALETTE, 3),
]


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name,fields,code", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_graph_files_exit_2_or_3(tmp_path, capsys, fmt, name,
                                           fields, code):
    path = tmp_path / f"g.{fmt}"
    path.write_text(_graph_files(*fields)[fmt])
    if name == "palette" and fmt == "txt":
        assert path.stat().st_size == 296
    for argv in (["graph", "validate"], ["rainbow", "longest"]):
        assert main(argv + [str(path)]) == code, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("error: " if code == 2 else "refused: parse")


@pytest.mark.parametrize("obj", [{"instances": "5"}, {"seed": 1.5},
                                 {"tamper": 1}, {"n_max": True},
                                 {"edge_prob": "0.3"}, {"budget": []}])
def test_suite_rejects_mistyped_config_field(tmp_path, capsys, obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["suite", "--config", str(cfg)]) == 2
    assert "config field" in capsys.readouterr().err


def test_negative_palette_is_input_error(tmp_path, capsys):
    bad = tmp_path / "g.txt"
    bad.write_text("3 0 -4\n")
    assert main(["graph", "validate", str(bad)]) == 2
    assert "palette" in capsys.readouterr().err


def test_unknown_command_exits_with_usage_error(f2k_file, capsys):
    # a flag pair where one flag would be dropped is a usage error too
    for argv in (["frobnicate"], ["bounds", "--csv", "--json"],
                 ["oracle", "colorings", f2k_file, "--count", "--len", "3"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
        assert capsys.readouterr().out == ""


def test_internal_error_exits_4_in_one_line(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_oracle_eg", broken)
    assert main(["oracle", "eg", "--n", "5", "--k", "2"]) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"


def test_bad_config_and_graph_files_are_input_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for raw in (b"[1, 2]", b"\xff"):
        cfg.write_bytes(raw)
        assert main(["suite", "--config", str(cfg)]) == 2
    g = tmp_path / "g.json"
    for raw in (b"\xff\xfe", b'{"n": 2, "colors": 1, "edges": [], "m": [0]}'):
        g.write_bytes(raw)
        assert main(["graph", "validate", str(g)]) == 2
    assert "internal error" not in capsys.readouterr().err


# === every output mode ===

# (argv with FILE for the f2k fixture, exit code, first line of text output);
# a --json mode must print one JSON object or list instead
OUTPUT_MODES = [
    (["graph", "validate", "FILE", "--json"], 0, None),
    (["rainbow", "longest", "FILE"], 0, "longest rainbow path: 3 edges"),
    (["rainbow", "exists", "FILE", "--length", "3", "--json"], 0, None),
    (["bounds", "--kmax", "3"], 0,
     "   k      lower    upper_new  upper_old       eg"),
    (["engine", "profile", "FILE", "--json"], 0, None),
    (["engine", "claims", "FILE", "--json"], 0, None),
    (["engine", "induct", "FILE", "--k", "3", "--json"], 0, None),
    (["oracle", "exstar", "--n", "4", "--len", "3"], 0,
     "exstar(n=4, path_edges=3) = 6"),
    (["oracle", "eg", "--n", "10", "--k", "4", "--json"], 0, None),
    (["oracle", "eg", "--n", "5", "--k", "2", "--witness"], 0,
     "no path with 2 edges on 5 vertices: at most 5/2 edges, "
     "clique packing gives 2"),
    (["suite", "--instances", "3", "--n-max", "6"], 0,
     "3 instances in"),
]


@pytest.mark.parametrize("argv,code,head", OUTPUT_MODES,
                         ids=[" ".join(a[:2]) + (" json" if "--json" in a
                                                  else "")
                              for a, _, _ in OUTPUT_MODES])
def test_output_modes(f2k_file, capsys, argv, code, head):
    got, out = run(capsys, [f2k_file if a == "FILE" else a for a in argv])
    assert got == code
    if "--json" in argv:
        assert isinstance(json.loads(out), (dict, list))
    else:
        assert out.splitlines()[0].startswith(head)


# === the documented command lists ===

def parser_commands() -> set:
    """(group, subcommand) for every subparser build_parser() defines, with
    subcommand None for a group that has none."""
    def subparsers(parser) -> dict:
        return next((a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)), {})
    return {(group, sub)
            for group, p in subparsers(cli.build_parser()).items()
            for sub in (subparsers(p) or [None])}


def documented_commands(lines) -> set:
    """(group, subcommand) named by each `rt ...` line, expanding a|b
    alternatives; a line whose third word is an option or an argument
    names a group with no subcommand."""
    out = set()
    for line in lines:
        words = line.split()
        if words[:1] != ["rt"]:
            continue
        subs = [None]
        if len(words) > 2 and re.fullmatch(r"[a-z0-9]+(\|[a-z0-9]+)*",
                                           words[2]):
            subs = words[2].split("|")
        out.update((words[1], sub) for sub in subs)
    return out


def test_documented_command_lists_match_the_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    # the docstring table: the command column ends at the first wide gap
    table = [re.split(r"\s{2,}", line.strip())[0]
             for line in cli.__doc__.splitlines()]
    want = parser_commands()
    assert ("engine", "claims") in want and ("bounds", None) in want
    assert documented_commands(block.splitlines()) == want
    assert documented_commands(table) == want
