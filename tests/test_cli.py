"""Command line wiring, run in-process through main(argv).

Exit code contract: 0 for success or a decided query, 1 for a detected
violation (improper coloring, falsified claim, an avoidance query with no
avoiding coloring), 2 for unusable input, 3 for a guard or budget refusal,
4 for an internal error (any other exception).
"""

import json
import time

import pytest

from rturan import cli
from rturan.cli import main
from rturan.graphs import PARSE_VERTEX_GUARD, load_graph, parse_graph
from rturan.induction import certificate_from_json_obj, verify_certificate


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


# === graph ===

def test_validate_proper_file(f2k_file, capsys):
    code, out = run(capsys, ["graph", "validate", f2k_file])
    assert code == 0
    assert "proper coloring: yes" in out
    assert "n=8 m=16" in out


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


def test_convert_round_trip(f2k_file, tmp_path, capsys):
    out_json = str(tmp_path / "g.json")
    assert main(["graph", "convert", f2k_file, "--to", "json",
                 "-o", out_json]) == 0
    assert load_graph(out_json) == load_graph(f2k_file)
    code, out = run(capsys, ["graph", "convert", out_json, "--to", "text"])
    assert code == 0
    assert parse_graph(out) == load_graph(f2k_file)


# === rainbow ===

def test_longest_json(f2k_file, capsys):
    code, out = run(capsys, ["rainbow", "longest", f2k_file, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["proven_optimal"] is True
    assert len(obj["best"]["colors"]) == 3


def test_longest_budget_refusal(f2k_file, capsys):
    assert main(["rainbow", "longest", f2k_file, "--budget", "1"]) == 3


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


def test_claims_clean(f2k_file, capsys):
    code, out = run(capsys, ["engine", "claims", f2k_file])
    assert code == 0
    assert "0 falsified" in out


def test_induct_writes_certificate(f2k_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, out = run(capsys, ["engine", "induct", f2k_file, "--k", "3",
                             "-o", cert_path])
    assert code == 0
    assert "edge bound holds: yes" in out
    with open(cert_path, "r", encoding="utf-8") as fh:
        cert = certificate_from_json_obj(json.load(fh))
    assert cert.total_edges == 16 and cert.holds
    assert verify_certificate(cert, load_graph(f2k_file))


def test_induct_rejects_broken_promise(f2k_file, capsys):
    assert main(["engine", "induct", f2k_file, "--k", "1"]) == 2


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


def test_oracle_eg(capsys):
    code, out = run(capsys, ["oracle", "eg", "--n", "10", "--k", "4"])
    assert code == 0
    assert "at most 15 edges" in out and "packing gives 13" in out


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


def test_suite_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "colour": 1}))
    assert main(["suite", "--config", str(cfg)]) == 2
    cfg.write_text("{ not json")
    assert main(["suite", "--config", str(cfg)]) == 2


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


def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


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
