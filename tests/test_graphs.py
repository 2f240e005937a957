import json
import random
import re
import tracemalloc

import pytest

from rturan import graphs
from rturan.constructions import bipartite_f2k, blowup, maamoun_meyniel
from rturan.corpus import random_instance
from rturan.errors import GraphError, GuardError
from rturan.graphs import (PARSE_VERTEX_GUARD, ColoredGraph, GraphSkeleton,
                           complete_graph, disjoint_union, graph_from_json_obj,
                           graph_to_json_obj, induced_subgraph, load_graph,
                           one_factorization, one_factorized_complete,
                           parse_graph, save_graph, serialize_graph,
                           serialize_graph_json, validate_proper)
from rturan.search import has_rainbow_path, longest_rainbow_path


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


def test_skeleton_refuses_a_negative_vertex_count():
    for build in (lambda: GraphSkeleton(-3, ()), lambda: complete_graph(-1),
                  lambda: ColoredGraph(-3, (), 0)):
        with pytest.raises(GraphError, match="negative vertex count"):
            build()


def test_colored_graph_accessors():
    g = small()
    assert g.n == 4 and g.m == 4
    assert g.degree(0) == 2 and g.min_degree() == 2
    assert g.has_edge(3, 0) and not g.has_edge(0, 2)
    assert {c for (_, c) in g.neighbors(1)} == {0, 1}
    assert g.used_colors() == frozenset({0, 1})
    assert set(g.neighbors(2)) == {(1, 1), (3, 0)}
    with pytest.raises(GraphError):
        g.color_of(0, 2)


def test_color_range_checked():
    with pytest.raises(GraphError):
        ColoredGraph.from_edges(2, [(0, 1, 5)], num_colors=3)
    with pytest.raises(GraphError):
        ColoredGraph.from_edges(2, [(0, 1, -1)], num_colors=3)


def test_colored_edges_checked_like_skeleton_edges():
    for bad, msg in [(((0, 3),), "bad edge (0,3) for n=3"),
                     (((0, 1), (0, 1)), "duplicate edge (0,1)")]:
        with pytest.raises(GraphError, match=re.escape(msg)):
            GraphSkeleton(3, bad)
        with pytest.raises(GraphError, match=re.escape(msg)):
            ColoredGraph(3, tuple(e + (0,) for e in bad), 1)


def test_construction_sorts_only_what_is_out_of_order():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 9)
        rows = [(u, v, rng.randrange(4)) for u in range(n)
                for v in range(u + 1, n) if rng.random() < 0.5]
        ordered = ColoredGraph(n, tuple(rows), 4)
        rng.shuffle(rows)
        shuffled = ColoredGraph(n, tuple(rows), 4)
        assert shuffled == ordered and ordered.edges == tuple(sorted(rows))
        for g in (ordered, shuffled):
            for v in range(n):
                assert list(g.neighbors(v)) == sorted(
                    (b if a == v else a, c) for (a, b, c) in rows
                    if v in (a, b))
        skeleton = GraphSkeleton(n, tuple((u, v) for (u, v, _) in rows))
        colors = [ordered.color_of(u, v) for (u, v) in skeleton.edges]
        assert skeleton.with_colors(colors) == ColoredGraph.from_edges(
            n, rows, num_colors=max(colors, default=-1) + 1)


def test_edge_refusals_come_before_color_refusals():
    # edges are checked in the order given, and a bad edge or a repeated
    # one anywhere is named before a color outside the palette; of the
    # colors, the least edge's is named
    for rows, msg in [
            (((0, 1, 7), (0, 3, 0)), "bad edge (0,3) for n=3"),
            (((1, 2, 7), (0, 1, 0), (0, 1, 0)), "duplicate edge (0,1)"),
            (((1, 2, 8), (0, 2, 7), (0, 1, 0)),
             "color 7 outside palette 0..0")]:
        with pytest.raises(GraphError, match=re.escape(msg)):
            ColoredGraph(3, rows, 1)


def test_skeleton_sides_checked_like_colored_graph_sides():
    for bad, msg in [((5, 7), "sides entries must be 0 or 1"),
                     ((0,), "sides tag length != n")]:
        with pytest.raises(GraphError, match=re.escape(msg)):
            GraphSkeleton(2, ((0, 1),), sides=bad)
        with pytest.raises(GraphError, match=re.escape(msg)):
            ColoredGraph(2, ((0, 1, 0),), 1, sides=bad)
    s = GraphSkeleton(2, ((0, 1),), sides=[0, 1])
    assert s.sides == (0, 1)
    hash(s)  # a list kept as sides would make the skeleton unhashable
    assert s.with_colors([0]).sides == (0, 1)
    assert ColoredGraph(2, ((0, 1, 0),), 1, sides=[1, 0]).sides == (1, 0)


def test_adjacency_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        ColoredGraph(2, (), 0, None, {"junk": 1})
    assert small() == ColoredGraph(4, small().edges, 2)


def test_bit_table_is_derived_state():
    with pytest.raises(TypeError):
        ColoredGraph(2, (), 0, None, ((),) * 2)
    with pytest.raises(TypeError):
        ColoredGraph(2, (), 0, _bits=((),) * 2)
    g, h = small(), small()
    assert "_bits_cache" not in vars(g)  # built on the first search, not here
    assert h._bits is h._bits  # built once, then kept
    assert g == h and hash(g) == hash(h)
    for g in (small(), bipartite_f2k(2), maamoun_meyniel(3), blowup(2, 9),
              one_factorized_complete(6), ColoredGraph(3, (), 0),
              ColoredGraph.from_edges(4, [(0, 1, 9), (1, 2, 4), (2, 3, 7)])):
        # a color's bit is that of its rank among the colors in use
        rank = {c: r for r, c in enumerate(sorted(g.used_colors()))}
        table = [tuple((w, 1 << w, 1 << rank[c]) for (w, c) in g.neighbors(v))
                 for v in range(g.n)]
        assert list(g._bits) == table


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
    # vertex i of the subgraph is the i-th smallest kept id: 0, 1, 3
    sub = induced_subgraph(g, [3, 0, 1])
    assert sub.n == 3 and sub.m == 2
    assert sub.color_of(0, 1) == 0
    assert sub.color_of(0, 2) == 1
    with pytest.raises(GraphError):
        induced_subgraph(g, [0, 9])


# === serialization ===

def test_text_round_trip():
    g = small()
    assert parse_graph(serialize_graph(g)) == g
    # blank lines, anywhere, are skipped
    assert parse_graph("\n" + serialize_graph(g).replace("\n", "\n\n")) == g


def test_json_round_trip():
    g = small()
    assert graph_from_json_obj(json.loads(serialize_graph_json(g))) == g
    assert parse_graph(serialize_graph_json(g)) == g


def test_sides_survive_both_formats():
    g = ColoredGraph.from_edges(3, [(0, 2, 0)], num_colors=1,
                                sides=(0, 0, 1))
    assert parse_graph(serialize_graph(g)).sides == (0, 0, 1)
    assert graph_from_json_obj(graph_to_json_obj(g)).sides == (0, 0, 1)


def test_empty_sides_tag_survives_text():
    g = ColoredGraph(0, (), 1, ())
    assert parse_graph(serialize_graph(g)).sides == ()
    # on a graph with vertices a bare tag is ignored, as it always was
    assert parse_graph("2 0 0\n# sides\n").sides is None


def test_both_formats_read_back_the_same_graph():
    # the constructions and the first 200 instances of each criterion-08
    # sweep, drawn as run_suite draws them
    graphs = [bipartite_f2k(2), bipartite_f2k(3), maamoun_meyniel(2),
              maamoun_meyniel(3), blowup(2, 16), blowup(2, 20), blowup(2, 7),
              one_factorized_complete(6), ColoredGraph(0, (), 0, ()),
              ColoredGraph(3, (), 2)]
    for seed, kind in ((808, "random"), (909, "bare_path")):
        rng = random.Random(seed)
        graphs += [random_instance(rng, rng.randint(5, 12), 0.45, kind)
                   for _ in range(200)]
    for g in graphs:
        assert parse_graph(serialize_graph(g)) == g
        assert parse_graph(serialize_graph_json(g)) == g


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
    "3 1 2\n0 1 0\n1 2 1\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphError):
        parse_graph(text)


def test_json_m_mismatch_rejected():
    obj = graph_to_json_obj(small())
    obj["m"] = 99
    with pytest.raises(GraphError):
        graph_from_json_obj(obj)


def test_parse_refuses_huge_vertex_count():
    with pytest.raises(GuardError) as e:
        parse_graph("2000000 0 0\n")
    assert e.value.topic == "parse"
    with pytest.raises(GuardError):
        parse_graph('{"n": 2000000, "colors": 0, "edges": []}')
    with pytest.raises(GuardError):
        parse_graph(f"{PARSE_VERTEX_GUARD + 1} 0 0\n")
    at_guard = parse_graph(f"{PARSE_VERTEX_GUARD} 1 1\n0 1 0\n")
    assert at_guard.n == PARSE_VERTEX_GUARD and at_guard.m == 1


def test_loading_a_long_path_builds_no_search_table(tmp_path):
    # The search table holds two ints of up to n bits per edge end, so on
    # a path it grows as n^2 / 4 bytes (2.5 GB at PARSE_VERTEX_GUARD).
    # Loading, validating and converting never search, so they never
    # build it; nor does an exists query longer than n - 1 edges, which
    # the cap refuses before any search.
    n = 20_000
    path = tmp_path / "path.txt"
    path.write_text(f"{n} {n - 1} {n - 1}\n"
                    + "".join(f"{i} {i + 1} {i}\n" for i in range(n - 1)))
    g = load_graph(str(path))
    assert validate_proper(g).is_proper
    assert parse_graph(serialize_graph_json(g)) == g
    assert has_rainbow_path(g, n).found is False
    assert "_bits_cache" not in vars(g)


def test_search_table_past_its_guard_is_refused_before_it_is_built(
        monkeypatch):
    # 50,000 edges (i, i + 50,000) on 100,000 vertices, all of color 0: a
    # file under 1 MB whose table could need 2 * m * (n + 1) = 1.0e10 bits
    n = PARSE_VERTEX_GUARD
    g = ColoredGraph.from_edges(n, [(i, i + n // 2, 0)
                                    for i in range(n // 2)])
    assert 2 * g.m * (g.n + 1) > graphs.SEARCH_TABLE_GUARD
    with pytest.raises(GuardError) as e:
        longest_rainbow_path(g)
    assert e.value.topic == "search"
    assert "_bits_cache" not in vars(g)
    # the bound is 2 * m * (n + colors in use): 2 * 4 * (4 + 2) on small()
    monkeypatch.setattr(graphs, "SEARCH_TABLE_GUARD", 47)
    with pytest.raises(GuardError):
        small()._bits
    monkeypatch.setattr(graphs, "SEARCH_TABLE_GUARD", 48)
    assert small()._bits


def test_search_table_does_not_grow_with_color_ids(tmp_path):
    # a 1000-edge path whose color ids sit near the palette guard: the
    # table holds color ranks, so it stays small
    path = tmp_path / "path.txt"
    path.write_text("1001 1000 250000\n" + "".join(
        f"{i} {i + 1} {249_000 + i}\n" for i in range(1000)))
    g = load_graph(str(path))
    tracemalloc.start()
    try:
        g._bits
        size = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size < 2_000_000
    # the same path, its colors shifted: same longest path, same search
    low = ColoredGraph.from_edges(201, [(i, i + 1, i) for i in range(200)])
    high = ColoredGraph.from_edges(201, [(i, i + 1, 249_000 + i)
                                         for i in range(200)])
    a, b = longest_rainbow_path(low), longest_rainbow_path(high)
    assert a.best.vertices == b.best.vertices
    assert a.nodes_expanded == b.nodes_expanded
