"""Claim battery behavior: what runs, what skips, and that a planted lie
gets falsified instead of sliding through."""

import ast
import importlib
from pathlib import Path

import pytest

import rturan.claims
from rturan.claims import ClaimContext, check_claims
from rturan.constructions import bipartite_f2k, maamoun_meyniel
from rturan.corpus import build_claim_context
from rturan.errors import GuardError, PathError, PreconditionError
from rturan.graphs import ColoredGraph, one_factorized_complete
from rturan.profile import compute_profile
from rturan.search import RainbowPath, path_from_vertices
from rturan.terminals import (build_aux_oracle, matching_stats,
                              maximum_matching)


def hand_graph():
    edges = [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4),
             (0, 3, 9), (0, 4, 10), (5, 1, 8), (5, 2, 7), (0, 5, 2)]
    return ColoredGraph.from_edges(6, edges, num_colors=11)


def reversed_window_graph():
    # fresh start chords at 2,3 and fresh end chords at 2,3 put the low
    # pivot (3) above the high pivot (2)
    edges = [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4),
             (0, 2, 11), (0, 3, 12), (5, 2, 13), (5, 3, 14)]
    return ColoredGraph.from_edges(6, edges, num_colors=15)


# === the worked instance, ordered window ===

def test_hand_instance_hypotheses():
    g = hand_graph()
    rep = check_claims(build_claim_context(g, path_from_vertices(g, range(6))))
    assert rep.hypotheses == {
        "maximal": True, "min_degree": False, "standing": True,
        "pivots": True, "window_order": True, "window_reversed": False,
    }


def test_hand_instance_outcomes():
    g = hand_graph()
    rep = check_claims(build_claim_context(g, path_from_vertices(g, range(6))))
    assert rep.k == 5
    assert rep.counts() == {"ok": 18, "falsified": 0, "skipped": 5}
    assert rep.all_ok and rep.falsified == ()
    status = {o.name: o.status for o in rep.outcomes}
    for name in ("window_chord_terminals", "outer_window_floor",
                 "inner_window_floor", "pivot_split"):
        assert status[name] == "ok"
    for name in ("fresh_floor", "nice_floor", "terminal_count_floor",
                 "aux_degree_floor"):
        assert status[name] == "skipped"
    assert status["disjoint_window_floor"] == "skipped"


def test_battery_runs_every_claim_in_order_behind_its_gates():
    g = hand_graph()
    rep = check_claims(build_claim_context(g, path_from_vertices(g, range(6))))
    window = ("standing", "pivots", "window_order")
    assert [(o.name, o.requires) for o in rep.outcomes] == [
        ("exit_colors_on_path", ("maximal",)),
        ("exit_swap_disjoint", ("maximal",)),
        ("exit_color_budget", ("maximal",)),
        ("swap_counts_match_fresh", ("maximal",)),
        ("residual_forms_agree", ()),
        ("fresh_floor", ("maximal", "min_degree")),
        ("nice_floor", ("maximal", "min_degree")),
        ("far_jump_terminals", ()),
        ("fresh_chord_terminals", ()),
        ("nice_chord_terminals", ()),
        ("window_chord_terminals", window),
        ("fresh_ranges_trim", ()),
        ("nice_ranges_trim", ("standing",)),
        ("pivot_split", ("maximal", "pivots")),
        ("outer_window_floor", window),
        ("inner_window_floor", window),
        ("disjoint_window_floor", ("maximal", "window_reversed")),
        ("terminal_count_floor", ("maximal", "min_degree")),
        ("aux_degree_floor", ("maximal", "min_degree")),
        ("matching_exists_floor", ()),
        ("matched_pair_nonedges", ()),
        ("matched_pair_degree_bound", ("maximal",)),
        ("matching_step_bound", ("maximal",)),
    ]


def test_skip_details_name_the_missing_hypothesis():
    g = hand_graph()
    rep = check_claims(build_claim_context(g, path_from_vertices(g, range(6))))
    details = {o.name: o.detail for o in rep.outcomes
               if o.status == "skipped"}
    assert details["fresh_floor"] == "needs min_degree"
    assert details["disjoint_window_floor"] == "needs window_reversed"


def test_auto_pstar_matches_explicit():
    g = hand_graph()
    auto = check_claims(build_claim_context(g))
    explicit = check_claims(
        build_claim_context(g, path_from_vertices(g, range(6))))
    assert auto.k == explicit.k == 5
    assert auto.counts() == explicit.counts()


# === reversed window ===

def test_reversed_window_swaps_the_gates():
    g = reversed_window_graph()
    rep = check_claims(build_claim_context(g, path_from_vertices(g, range(6))))
    assert rep.hypotheses["window_reversed"] and \
        not rep.hypotheses["window_order"]
    status = {o.name: o.status for o in rep.outcomes}
    assert status["disjoint_window_floor"] == "ok"
    assert status["outer_window_floor"] == "skipped"
    assert status["window_chord_terminals"] == "skipped"
    assert rep.all_ok


# === a non-maximal path skips, a lied-about one falsifies ===

def test_non_maximal_pstar_skips_maximal_claims():
    g = hand_graph()
    rep = check_claims(
        build_claim_context(g, path_from_vertices(g, [1, 2, 3])))
    assert rep.hypotheses["maximal"] is False
    status = {o.name: o.status for o in rep.outcomes}
    assert status["exit_colors_on_path"] == "skipped"
    assert status["residual_forms_agree"] == "ok"
    assert rep.all_ok


def test_false_maximality_gets_caught():
    g = hand_graph()
    p = path_from_vertices(g, [1, 2, 3])
    prof = compute_profile(g, p)
    aux = build_aux_oracle(g, p)
    ctx = ClaimContext(g=g, prof=prof, maximal=True, aux=aux,
                       mstats=matching_stats(g, p, maximum_matching(aux)))
    rep = check_claims(ctx)
    assert not rep.all_ok
    assert "exit_colors_on_path" in rep.falsified


# === stock colorings come out clean ===

@pytest.mark.parametrize("g", [maamoun_meyniel(2), bipartite_f2k(2)])
def test_stock_colorings_no_falsification(g):
    rep = check_claims(build_claim_context(g))
    assert rep.all_ok
    assert rep.hypotheses["maximal"] is True


# === guards ===

def test_budget_guard_auto_pstar():
    with pytest.raises(GuardError):
        check_claims(
            build_claim_context(one_factorized_complete(12), budget=3))


def test_budget_guard_maximality_probe():
    g = one_factorized_complete(12)
    p = path_from_vertices(g, list(range(10)))
    with pytest.raises(GuardError):
        check_claims(build_claim_context(g, p, budget=2))


def test_single_vertex_path_refused():
    with pytest.raises(PreconditionError):
        check_claims(build_claim_context(hand_graph(), RainbowPath((0,), ())))


def test_context_builder_refuses_a_bad_path_before_probing(monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("maximality probed before the path was checked")

    monkeypatch.setattr("rturan.corpus.has_rainbow_path", no_probe)
    g = bipartite_f2k(3)
    p = path_from_vertices(g, [0, 8, 1, 10, 4, 9, 3, 12])  # a longest one
    recolored = RainbowPath(p.vertices, p.colors[::-1])
    with pytest.raises(PathError):
        build_claim_context(g, recolored)
    with pytest.raises(PreconditionError):
        build_claim_context(g, RainbowPath((0,), ()))


def test_context_builder_probes_maximality():
    g = hand_graph()
    ctx = build_claim_context(g, path_from_vertices(g, [1, 2, 3]))
    assert ctx.maximal is False
    ctx2 = build_claim_context(g)
    assert ctx2.maximal is True and ctx2.prof.path.length == 5


def test_battery_imports_no_search_or_layer_function():
    # the battery is a pure function of its context: it may name the record
    # types of the layers below it, never call into them
    tree = ast.parse(Path(rturan.claims.__file__).read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = (node.module or "").removeprefix("rturan.")
        assert module != "search", "claims imports from rturan.search"
        if module in ("profile", "terminals"):
            owner = importlib.import_module(f"rturan.{module}")
            for alias in node.names:
                assert isinstance(getattr(owner, alias.name), type), \
                    f"claims imports {module}.{alias.name}"
