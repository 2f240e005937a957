"""Property tests over generated graphs (hypothesis, when installed).

Graphs are drawn small enough for the exhaustive oracles: up to 7
vertices, every edge colored with a color free at both ends, so each drawn
graph is properly colored. Runs are derandomized, so a failure replays.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from rturan.graphs import (ColoredGraph, parse_graph, serialize_graph,  # noqa: E402
                           serialize_graph_json, validate_proper)
from rturan.profile import compute_profile  # noqa: E402
from rturan.search import (longest_rainbow_path,  # noqa: E402
                           path_from_vertices)
from rturan.terminals import (build_aux_oracle, build_aux_rules,  # noqa: E402
                              terminal_oracle, terminal_rules)

from spanning_brute import reference_aux  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)


@st.composite
def proper_graphs(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    palette = draw(st.integers(1, 7))
    used = [set() for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if not draw(st.booleans()):
                continue
            free = [c for c in range(palette)
                    if c not in used[u] and c not in used[v]]
            if not free:
                continue
            c = draw(st.sampled_from(free))
            used[u].add(c)
            used[v].add(c)
            edges.append((u, v, c))
    sides = draw(st.none() | st.lists(st.integers(0, 1), min_size=n,
                                      max_size=n))
    return ColoredGraph.from_edges(n, edges, num_colors=palette, sides=sides)


@SETTINGS
@given(proper_graphs())
def test_parse_serialize_round_trip(g):
    assert validate_proper(g).is_proper
    for text in (serialize_graph(g), serialize_graph_json(g)):
        back = parse_graph(text)
        assert back == g and back.sides == g.sides
        assert back._bits == g._bits


@SETTINGS
@given(proper_graphs())
def test_rules_stay_inside_the_oracles(g):
    pstar = longest_rainbow_path(g).best
    assume(pstar is not None and pstar.length >= 1)
    report = terminal_rules(g, compute_profile(g, pstar))
    terminals = terminal_oracle(g, pstar)
    assert report.rule_terminals <= terminals
    aux_rules = build_aux_rules(g, pstar, report)
    aux_oracle = build_aux_oracle(g, pstar)
    assert aux_rules.edges <= aux_oracle.edges
    ends = {v for e in aux_rules.edges for v in e}
    assert ends <= set(aux_rules.vertices) <= terminals


@SETTINGS
@given(proper_graphs(), st.integers(2, 7))
def test_terminals_are_the_aux_pair_ends(g, size):
    # on a path of at least two vertices, every terminal ends a spanning
    # path whose other end differs, so the terminals are the pair ends; and
    # the pairs learned from end rotations are those of a full search per
    # root
    pstar = longest_rainbow_path(g).best
    assume(pstar is not None and pstar.length >= 1)
    pstar = path_from_vertices(g, pstar.vertices[:size])
    terminals = terminal_oracle(g, pstar)
    aux = build_aux_oracle(g, pstar)
    assert terminals == frozenset(v for e in aux.edges for v in e)
    assert terminals == frozenset(aux.vertices)
    assert aux == reference_aux(g, pstar)
