import json

import pytest

from rturan.errors import GraphError
from rturan.graphs import (ColoredGraph, GraphSkeleton, complete_bipartite,
                           complete_graph, disjoint_union, graph_from_json_obj,
                           graph_to_json_obj, induced_subgraph, load_graph,
                           one_factorization, one_factorized_complete,
                           parse_graph, save_graph, serialize_graph,
                           serialize_graph_json, validate_proper)


def small():
    return ColoredGraph.from_edges(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0),
                                       (0, 3, 1)], num_colors=2)


# === skeletons and colored graphs ===

def test_skeleton_basics():
    s = GraphSkeleton(3, ((0, 1), (1, 2)))
    assert s.m == 2
    g = s.with_colors([5, 3])
    assert g.num_colors == 6
    assert g.color_of(0, 1) == 5 and g.color_of(2, 1) == 3


def test_skeleton_rejects_bad_edges():
    with pytest.raises(GraphError):
        GraphSkeleton(3, ((0, 3),))
    with pytest.raises(GraphError):
        GraphSkeleton(3, ((1, 1),))
    with pytest.raises(GraphError):
        GraphSkeleton(3, ((0, 1), (1, 0)))


def test_colored_graph_accessors():
    g = small()
    assert g.n == 4 and g.m == 4
    assert g.degree(0) == 2 and g.min_degree() == 2
    assert g.has_edge(3, 0) and not g.has_edge(0, 2)
    assert g.colors_at(1) == frozenset({0, 1})
    assert g.used_colors() == frozenset({0, 1})
    assert set(g.neighbors(2)) == {(1, 1), (3, 0)}
    with pytest.raises(GraphError):
        g.color_of(0, 2)


def test_color_range_checked():
    with pytest.raises(GraphError):
        ColoredGraph.from_edges(2, [(0, 1, 5)], num_colors=3)
    with pytest.raises(GraphError):
        ColoredGraph.from_edges(2, [(0, 1, -1)], num_colors=3)


def test_negative_palette_rejected():
    with pytest.raises(GraphError):
        ColoredGraph(3, (), -4)
    with pytest.raises(GraphError):
        parse_graph("3 0 -4\n")


def test_validate_proper_finds_clash():
    assert validate_proper(small()).is_proper
    bad = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)], num_colors=1)
    rep = validate_proper(bad)
    assert not rep.is_proper
    v, c, e1, e2 = rep.violations[0]
    assert v == 1 and c == 0 and {e1, e2} == {(0, 1), (1, 2)}


# === stock skeletons ===

def test_complete_graphs():
    assert complete_graph(5).m == 10
    kb = complete_bipartite(2, 3)
    assert kb.m == 6 and kb.sides == (0, 0, 1, 1, 1)


def test_one_factorization_even():
    fac = one_factorization(6)
    assert len(fac) == 5
    seen = set()
    for matching in fac:
        assert len(matching) == 3
        verts = [v for e in matching for v in e]
        assert sorted(verts) == list(range(6))
        seen.update(matching)
    assert len(seen) == 15


def test_one_factorization_odd_refused():
    with pytest.raises(GraphError):
        one_factorization(5)


def test_one_factorized_complete_is_proper():
    g = one_factorized_complete(8)
    assert g.m == 28 and g.num_colors == 7
    assert validate_proper(g).is_proper


# === composition ===

def test_disjoint_union_offsets():
    g = small()
    u_shared = disjoint_union([g, g], share_colors=True)
    assert u_shared.n == 8 and u_shared.m == 8 and u_shared.num_colors == 2
    u_split = disjoint_union([g, g], share_colors=False)
    assert u_split.num_colors == 4
    assert u_split.color_of(4, 5) == 2


def test_induced_subgraph_remap():
    g = small()
    sub, remap = induced_subgraph(g, [0, 1, 3])
    assert sub.n == 3 and sub.m == 2
    assert sub.color_of(remap[0], remap[1]) == 0
    assert sub.color_of(remap[0], remap[3]) == 1
    with pytest.raises(GraphError):
        induced_subgraph(g, [0, 9])


# === serialization ===

def test_text_round_trip():
    g = small()
    assert parse_graph(serialize_graph(g)) == g


def test_json_round_trip():
    g = small()
    assert graph_from_json_obj(json.loads(serialize_graph_json(g))) == g
    assert parse_graph(serialize_graph_json(g)) == g


def test_sides_survive_both_formats():
    g = ColoredGraph.from_edges(3, [(0, 2, 0)], num_colors=1,
                                sides=(0, 0, 1))
    assert parse_graph(serialize_graph(g)).sides == (0, 0, 1)
    assert graph_from_json_obj(graph_to_json_obj(g)).sides == (0, 0, 1)


def test_save_load_by_extension(tmp_path):
    g = small()
    for name in ("g.txt", "g.json"):
        path = str(tmp_path / name)
        save_graph(g, path)
        assert load_graph(path) == g
    assert (tmp_path / "g.json").read_text().lstrip().startswith("{")


@pytest.mark.parametrize("text", [
    "",
    "1 2\n",
    "3 1 1\n",
    "3 1 1\n0 1\n",
    "3 1 1\n0 5 0\n",
    "3 1 1\nx y z\n",
    "2 2 1\n0 1 0\n0 1 0\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphError):
        parse_graph(text)


def test_json_m_mismatch_rejected():
    obj = graph_to_json_obj(small())
    obj["m"] = 99
    with pytest.raises(GraphError):
        graph_from_json_obj(obj)
