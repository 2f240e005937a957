"""Claim battery behavior: what runs, what skips, and that a planted lie
gets falsified instead of sliding through."""

import pytest

from rturan.claims import (ClaimContext, build_claim_context, check_claims)
from rturan.constructions import bipartite_f2k, maamoun_meyniel
from rturan.errors import GuardError, PreconditionError
from rturan.graphs import ColoredGraph, one_factorized_complete
from rturan.profile import compute_profile
from rturan.search import RainbowPath, path_from_vertices
from rturan.terminals import (build_aux_oracle, matching_stats,
                              maximum_matching, terminal_oracle)


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
    rep = check_claims(g, path_from_vertices(g, range(6)))
    assert rep.hypotheses == {
        "maximal": True, "min_degree": False, "standing": True,
        "pivots": True, "window_order": True, "window_reversed": False,
    }


def test_hand_instance_outcomes():
    g = hand_graph()
    rep = check_claims(g, path_from_vertices(g, range(6)))
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


def test_skip_details_name_the_missing_hypothesis():
    g = hand_graph()
    rep = check_claims(g, path_from_vertices(g, range(6)))
    details = {o.name: o.detail for o in rep.outcomes
               if o.status == "skipped"}
    assert details["fresh_floor"] == "needs min_degree"
    assert details["disjoint_window_floor"] == "needs window_reversed"


def test_auto_pstar_matches_explicit():
    g = hand_graph()
    auto = check_claims(g)
    explicit = check_claims(g, path_from_vertices(g, range(6)))
    assert auto.k == explicit.k == 5
    assert auto.counts() == explicit.counts()


# === reversed window ===

def test_reversed_window_swaps_the_gates():
    g = reversed_window_graph()
    rep = check_claims(g, path_from_vertices(g, range(6)))
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
    rep = check_claims(g, path_from_vertices(g, [1, 2, 3]))
    assert rep.hypotheses["maximal"] is False
    status = {o.name: o.status for o in rep.outcomes}
    assert status["exit_colors_on_path"] == "skipped"
    assert status["residual_forms_agree"] == "ok"
    assert rep.all_ok


def test_false_maximality_gets_caught():
    g = hand_graph()
    p = path_from_vertices(g, [1, 2, 3])
    prof = compute_profile(g, p)
    ts = terminal_oracle(g, p)
    aux = build_aux_oracle(g, p)
    pairs = maximum_matching(aux)
    ctx = ClaimContext(g=g, pstar=p, prof=prof, maximal=True, terminals=ts,
                       aux=aux, pairs=pairs,
                       mstats=matching_stats(g, p, pairs))
    rep = check_claims(g, ctx=ctx)
    assert not rep.all_ok
    assert "exit_colors_on_path" in rep.falsified


# === stock colorings come out clean ===

@pytest.mark.parametrize("g", [maamoun_meyniel(2), bipartite_f2k(2)])
def test_stock_colorings_no_falsification(g):
    rep = check_claims(g)
    assert rep.all_ok
    assert rep.hypotheses["maximal"] is True


# === guards ===

def test_budget_guard_auto_pstar():
    with pytest.raises(GuardError):
        check_claims(one_factorized_complete(12), budget=3)


def test_budget_guard_maximality_probe():
    g = one_factorized_complete(12)
    p = path_from_vertices(g, list(range(10)))
    with pytest.raises(GuardError):
        check_claims(g, p, budget=2)


def test_single_vertex_path_refused():
    with pytest.raises(PreconditionError):
        check_claims(hand_graph(), RainbowPath((0,), ()))


def test_context_builder_probes_maximality():
    g = hand_graph()
    ctx = build_claim_context(g, path_from_vertices(g, [1, 2, 3]))
    assert ctx.maximal is False
    ctx2 = build_claim_context(g)
    assert ctx2.maximal is True and ctx2.pstar.length == 5
