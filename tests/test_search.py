"""Search behavior on graphs small enough to check by hand or by a second,
dumber search written here in the test."""

import ast
import random
import sys
import tracemalloc
import types
from collections import Counter
from itertools import islice, permutations
from pathlib import Path

import pytest

import rturan
from rturan import search
from rturan.constructions import bipartite_f2k, maamoun_meyniel
from rturan.corpus import (RunConfig, build_claim_context, random_instance,
                           sweep)
from rturan.errors import GuardError, PathError, PreconditionError
from rturan.graphs import (ColoredGraph, complete_graph,
                           one_factorized_complete)
from rturan.oracle import proper_colorings
from rturan.search import (SUPPLY_FIELD_BITS, ExistsOutcome, RainbowPath,
                           has_rainbow_path, is_rainbow, longest_rainbow_path,
                           path_from_vertices, spanning_rainbow_path_between,
                           spanning_rainbow_path_from)
from rturan.profile import compute_profile
from rturan.terminals import (build_aux_oracle, build_aux_rules,
                              terminal_rules)

from spanning_brute import enumerate_rainbow_paths_on


def rainbow_path_graph(n):
    return ColoredGraph.from_edges(n, [(i, i + 1, i) for i in range(n - 1)])


def rainbow_triangle():
    return ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)],
                                   num_colors=3)


def brute_longest(g):
    """Reference value: try every vertex permutation prefix."""
    best = 0
    for r in range(g.n, 0, -1):
        for perm in permutations(range(g.n), r):
            ok = all(g.has_edge(u, v) for u, v in zip(perm, perm[1:]))
            if not ok:
                continue
            cs = [g.color_of(u, v) for u, v in zip(perm, perm[1:])]
            if len(set(cs)) == len(cs):
                best = max(best, r - 1)
        if best == r - 1:
            return best
    return best


def rainbow_sequences(g, length):
    """Rainbow vertex sequences with `length` edges, lexicographically."""
    for perm in permutations(range(g.n), length + 1):
        if not all(g.has_edge(u, v) for u, v in zip(perm, perm[1:])):
            continue
        cs = [g.color_of(u, v) for u, v in zip(perm, perm[1:])]
        if len(set(cs)) == len(cs):
            yield perm


def seeded_graphs(seed, count, n_max=6, colors=4, n_min=1):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(n_min, n_max + 1)
        edges = [(u, v, rng.randrange(colors))
                 for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.6]
        yield ColoredGraph.from_edges(n, edges, num_colors=colors)


# === RainbowPath the value type ===

def test_path_invariants():
    p = RainbowPath((2, 0, 1), (4, 3))
    assert p.length == 2 and p.endpoints == (2, 1)
    assert p.is_rainbow()
    assert not RainbowPath((0, 1, 2), (5, 5)).is_rainbow()


def test_path_from_lists_is_the_tuple_path():
    p = RainbowPath([0, 1, 2], [0, 1])
    assert p == RainbowPath((0, 1, 2), (0, 1))
    assert hash(p) == hash(RainbowPath((0, 1, 2), (0, 1)))
    g = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 1)])
    rep = terminal_rules(g, compute_profile(g, p))
    assert build_aux_rules(g, p, rep).edges == {(0, 2)}
    assert build_claim_context(g, p).maximal


@pytest.mark.parametrize("vs,cs", [
    ((), ()),
    ((0, 1), ()),
    ((0, 1, 0), (1, 2)),
])
def test_path_rejects_malformed(vs, cs):
    with pytest.raises(PathError):
        RainbowPath(vs, cs)


def test_path_from_vertices_reads_colors():
    g = rainbow_triangle()
    p = path_from_vertices(g, [1, 0, 2])
    assert p.colors == (0, 2)


@pytest.mark.parametrize("vs", [[], [0, 0], [0, 5], [0, 1, 0]])
def test_path_from_vertices_rejects(vs):
    g = rainbow_triangle()
    with pytest.raises(PathError):
        path_from_vertices(g, vs)


def test_path_from_vertices_error_messages():
    g = ColoredGraph.from_edges(4, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
    for vs, msg in [([], "empty vertex sequence"),
                    ([0, 0], "repeated vertex in (0, 0)"),
                    ([0, 5], "vertex 5 not in graph"),
                    ([0, 1, 3], "missing edge (1,3)"),
                    ([3, 1], "missing edge (3,1)")]:
        with pytest.raises(PathError) as e:
            path_from_vertices(g, vs)
        assert str(e.value) == msg


def test_is_rainbow_checks_recorded_colors():
    g = rainbow_triangle()
    assert is_rainbow(g, path_from_vertices(g, [0, 1, 2]))
    with pytest.raises(PathError):
        is_rainbow(g, RainbowPath((0, 1), (2,)))


# === exact longest ===

def test_longest_on_rainbow_triangle():
    out = longest_rainbow_path(rainbow_triangle())
    assert out.proven_optimal and out.best.length == 2


def test_longest_monochromatic_star():
    g = ColoredGraph.from_edges(4, [(0, i, 0) for i in (1, 2, 3)],
                                num_colors=1)
    out = longest_rainbow_path(g)
    assert out.best.length == 1 and out.proven_optimal


def test_longest_witness_is_canonical():
    out = longest_rainbow_path(rainbow_triangle())
    assert out.best.vertices[0] < out.best.vertices[-1]


def test_longest_agrees_with_brute_force():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randrange(2, 7)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    edges.append((u, v, rng.randrange(4)))
        if not edges:
            continue
        g = ColoredGraph.from_edges(n, edges, num_colors=4)
        out = longest_rainbow_path(g)
        assert out.proven_optimal
        assert out.best.length == brute_longest(g)
        assert is_rainbow(g, out.best)


def test_budget_can_leave_search_undecided():
    g = one_factorized_complete(10)
    out = longest_rainbow_path(g, budget=3)
    assert not out.proven_optimal


def test_pinned_refuses_an_unproven_search_and_an_empty_graph():
    with pytest.raises(GuardError, match="^search: budget too small"):
        longest_rainbow_path(one_factorized_complete(10), budget=3).pinned()
    with pytest.raises(PreconditionError):
        longest_rainbow_path(ColoredGraph(0, (), 1, ())).pinned()
    g = bipartite_f2k(2)
    out = longest_rainbow_path(g)
    assert out.pinned() is out.best and out.best.length == 3


def test_search_ends_where_its_best_reaches_the_cap():
    # the rainbow path on 6 vertices: the first 5-edge path, from root 0,
    # reaches the cap min(n - 1, colors) = 5, so the search ends there,
    # proven, at its sixth node, and a budget of 6 nodes is enough
    g = ColoredGraph.from_edges(6, [(v, v + 1, v) for v in range(5)])
    for budget in (6, None):
        out = longest_rainbow_path(g, budget=budget)
        assert out.proven_optimal and out.nodes_expanded == 6
        assert out.best.vertices == tuple(range(6))
    # with no edge the cap is 0, and the first root's path reaches it
    out = longest_rainbow_path(ColoredGraph.from_edges(20, []), budget=1)
    assert out.proven_optimal and out.nodes_expanded == 1


def test_longest_budget_counts_the_refused_node():
    g = one_factorized_complete(10)
    out = longest_rainbow_path(g, budget=5)
    assert out.nodes_expanded == 6 and not out.proven_optimal
    assert out.best.vertices == (0, 1, 2, 3, 4)
    # nothing beat a single vertex: the fallback path is vertex 0
    out = longest_rainbow_path(g, budget=0)
    assert out.nodes_expanded == 1 and out.best.vertices == (0,)
    with pytest.raises(PreconditionError, match="budget"):
        longest_rainbow_path(g, budget=-1)


def criterion_08(seed, kind, count):
    """The first `count` (label, graph) of the criterion-08 sweep `seed`."""
    return sweep(RunConfig(seed=seed, instances=count, n_min=5, n_max=12,
                           kind=kind))


def suite_graphs(count):
    """The first `count` instances of the criterion-08 sweeps, both kinds."""
    for seed, kind in ((808, "random"), (909, "bare_path")):
        yield from (g for _, g in criterion_08(seed, kind, count))


def searches_of(graphs):
    """A run for the supply_cut fixture: longest and every exists query on
    each graph, and the nodes they expanded."""
    def run():
        outs = [(longest_rainbow_path(g),
                 [has_rainbow_path(g, L) for L in range(g.n + 1)])
                for g in graphs]
        nodes = sum(o.nodes_expanded + sum(e.nodes_expanded for e in es)
                    for o, es in outs)
        return [(o.best, [(e.found, e.witness) for e in es])
                for o, es in outs], nodes
    return run


def test_witnesses_are_lexicographically_least(supply_cut):
    # the graphs on 7 or 8 vertices are at least LAYOUT_FLOOR_BITS wide,
    # so their searches build the layout
    wide = list(seeded_graphs(31, 6, n_min=7, n_max=8, colors=6))
    assert all(g.m + len(g.used_colors()) >= search.LAYOUT_FLOOR_BITS
               for g in wide)
    graphs = list(seeded_graphs(31, 60)) + wide
    # the color-supply cut fired in these searches and changed no answer,
    # so the brute force below checks it too
    outs = supply_cut(searches_of(graphs))
    for g, (best, exists) in zip(graphs, outs):
        length = best.length
        assert best.vertices == next(rainbow_sequences(g, length))
        assert next(rainbow_sequences(g, length + 1), None) is None
        for L, (found, witness) in enumerate(exists):
            first = next(rainbow_sequences(g, L), None)
            assert found is (first is not None)
            assert (witness.vertices if witness else None) == first
    # too large to enumerate: the longest search's one pass must record the
    # first path of its length, the one a first-hit search stops at
    for g in suite_graphs(100):
        best = longest_rainbow_path(g).best
        assert best == has_rainbow_path(g, best.length).witness


@pytest.mark.parametrize("query,nodes", [
    (lambda: longest_rainbow_path(bipartite_f2k(3)), 458_000),
    (lambda: longest_rainbow_path(maamoun_meyniel(3)), 3_092),
    (lambda: has_rainbow_path(maamoun_meyniel(3), 7), 3_088),
    (lambda: has_rainbow_path(bipartite_f2k(3), 8), 458_000),
], ids=["f2k3-longest", "mm3-longest", "mm3-exists7", "f2k3-exists8"])
def test_frozen_node_counts(query, nodes):
    assert query().nodes_expanded == nodes


def suite_instance(label):
    """The random/808 instance with this label, "808:idx", replayed alone."""
    idx = int(label.split(":")[1])
    return next(islice(criterion_08(808, "random", idx + 1), idx, None))[1]


def test_frozen_node_count_of_the_heaviest_suite_instance(supply_cut):
    # 808:230 (n 12, 13 colors, color slack 2) is the heaviest longest
    # search of the random/808 sweep, 65,286 nodes with the color-supply
    # cut shut. 808:24 (slack 0, 11 colors, longest 10) is the heaviest
    # with the cut shut everywhere, 72,548 nodes, and 4,198 with the cut
    # on but forcing off.
    g = suite_instance("808:230")

    def run():
        out = longest_rainbow_path(g)
        return out.best, out.nodes_expanded

    # the cut fired and kept the witness of the search with it shut
    supply_cut(run)
    assert run()[1] == 10_088
    g = suite_instance("808:24")
    assert longest_rainbow_path(g).nodes_expanded == 1_285


@pytest.mark.parametrize("seed,kind,nodes", [(808, "random", 53_442),
                                             (909, "bare_path", 25_930)])
def test_sweep_longest_node_totals_are_pinned(seed, kind, nodes):
    # the longest searches of the first 500 instances of each criterion-08
    # sweep: a change to the kernel's cuts or to its gate moves these
    total = sum(longest_rainbow_path(g).nodes_expanded
                for _, g in criterion_08(seed, kind, 500))
    assert total == nodes


def scale_sweep(n_min, n_max):
    """The scale target's 40 instances: random, seed 5, n_min..n_max."""
    return sweep(RunConfig(seed=5, instances=40, n_min=n_min, n_max=n_max,
                           kind="random"))


def test_scale_sweep_longest_nodes_are_pinned():
    # 5:21 (n 19, 17 colors, longest 16) took 2,582,381 nodes before the
    # pre-check refuted its 17-edge path at the root; the exists query for
    # that path then expands no node
    total = 0
    for label, g in scale_sweep(19, 20):
        nodes = longest_rainbow_path(g).nodes_expanded
        total += nodes
        if label == "5:21":
            assert nodes == 378
            out = has_rainbow_path(g, 17)
            assert (out.found, out.nodes_expanded) == (False, 0)
    assert total == 51_203


def one_color_short(graphs):
    """The graphs whose longest rainbow path misses one color in use."""
    return [g for g in graphs
            if longest_rainbow_path(g).best.length
            == len(g.used_colors()) - 1]


def test_tight_rules_keep_every_answer_and_cut_nodes(monkeypatch):
    # the pre-check and forcing against the same searches with the layout
    # off (LAYOUT_FLOOR_BITS past every width), on every one-color-short
    # instance of both sweeps and of the scale target at n 15..16
    graphs = one_color_short(
        list(suite_graphs(500)) + [g for _, g in scale_sweep(15, 16)])

    def run():
        outs, nodes = [], 0
        for g in graphs:
            best = longest_rainbow_path(g)
            spend = has_rainbow_path(g, len(g.used_colors()))
            outs.append((best.best, spend.found, spend.witness))
            nodes += best.nodes_expanded + spend.nodes_expanded
        return outs, nodes

    outs, nodes = run()
    with monkeypatch.context() as patch:
        patch.setattr(search, "LAYOUT_FLOOR_BITS", sys.maxsize)
        plain, plain_nodes = run()
    assert outs == plain
    assert nodes < plain_nodes
    # the floor shuts the supply cut too, so this shows that the pre-check
    # and forcing cut nodes: with the cut on at every width and both rules
    # off, the same searches took 239,983 nodes
    assert nodes < 239_983
    assert len(graphs) > 150 and all(found is not True
                                     for _, found, _ in outs)


def padded(n, singles):
    """n vertices: the single-edge colors `singles` (one (u, v) each,
    colors 0, 1, ...), and two more colors on the other pairs of vertices
    1..n-1 (improper), so the graph is as wide as LAYOUT_FLOOR_BITS asks
    and lim is the number of colors."""
    edges = [(u, v, c) for c, (u, v) in enumerate(singles)]
    taken = {(u, v) for u, v in singles}
    k = len(singles)
    edges += [(u, v, k + (u + v) % 2) for u in range(1, n)
              for v in range(u + 1, n) if (u, v) not in taken]
    g = ColoredGraph.from_edges(n, edges)
    colors = len(g.used_colors())
    assert colors < n and g.m + colors >= search.LAYOUT_FLOOR_BITS
    return g


@pytest.mark.parametrize("singles,spends", [
    ([(0, 1), (0, 2), (0, 3)], False),   # three meet vertex 0
    ([(1, 2), (2, 3), (1, 3)], False),   # they close a triangle
    ([(0, 1), (1, 2), (3, 4)], True),    # a linear forest: no refutation
])
def test_precheck_against_brute_force(singles, spends):
    g = padded(8, singles)
    colors = len(g.used_colors())
    classes = search._color_classes(g._bits)
    assert search._spends_every_color(classes) is spends
    every = next(rainbow_sequences(g, colors), None)
    out = has_rainbow_path(g, colors)
    assert out.found is (every is not None)
    assert (out.witness.vertices if out.witness else None) == every
    best = longest_rainbow_path(g)
    assert best.best.vertices == next(rainbow_sequences(g, best.best.length))
    assert next(rainbow_sequences(g, best.best.length + 1), None) is None
    if not spends:
        # refuted before the roots: lim drops to colors - 1, below the
        # asked length, so the search expands no node
        assert out.nodes_expanded == 0

# === the color-supply cut's carry-field count ===

def supply_counts(g, fn, *args):
    """fn(*args), for each node where the longest/exists kernel computed
    the color-supply count, (the colors of the classes the count found dead
    and unused, the colors of those brute force finds, the number of
    vertices the path has left), and the same triple for each node where
    its forcing read the unused classes with no edge in the scope but at
    the current vertex. Brute force reads the graph: a class is dead when
    every edge of its color has an end the path has left, and unused when
    no edge of the path has its color."""
    walk = next(c for c in search._dfs.__code__.co_consts
                if isinstance(c, types.CodeType) and c.co_name == "walk")
    seen = []
    forced = []
    layouts = {}

    def node(frame, record, name, spare):
        at = frame.f_locals
        table = at["nbrs"]
        if id(table) not in layouts:
            # each guard bit's color
            field = at["field"]
            layouts[id(table)] = (
                {cbit & ((1 << field) - 1): g.color_of(u, w)
                 for u, row in enumerate(table) for (w, _, cbit) in row},
                table)
        color_of, _ = layouts[id(table)]
        edges = g.edges
        bits, cmask, cur = at[name], at["cmask"], at["cur"]
        found = {color_of[b] for b in color_of if b & bits and not b & cmask}
        left = set(cur[:-1])
        # forcing spares the edges at the current vertex
        spared = {cur[-1]} if spare else set()
        used = {g.color_of(a, b) for a, b in zip(cur, cur[1:])}
        brute = {c for (_, _, c) in edges if c not in used} - {
            c for (u, v, c) in edges if u not in left and v not in left
            and not {u, v} & spared}
        record.append((found, brute, len(left)))

    def trace(frame, event, arg):
        if frame.f_code is not walk:
            return None

        def line(frame, event, arg):
            # the line after the count's first line: `dead` is set, and
            # no later line of this node is traced; its return event
            # still comes here, and reads `spent` where forcing set it
            if event == "line" and "dead" in frame.f_locals:
                node(frame, seen, "dead", False)
                frame.f_trace_lines = False
            elif event == "return" and "spent" in frame.f_locals:
                node(frame, forced, "spent", True)
            return line
        return line

    sys.settrace(trace)
    try:
        return fn(*args), seen, forced
    finally:
        sys.settrace(None)


def gated_suite_graphs(count):
    """Suite instances (proper colorings) on which the longest search may
    build its layout: color slack colors in use - (n - 1) <= 2, and at
    least LAYOUT_FLOOR_BITS wide (m + colors in use)."""
    return [g for g in suite_graphs(count)
            if len(g.used_colors()) <= g.n + 1
            and g.m + len(g.used_colors()) >= search.LAYOUT_FLOOR_BITS]


def test_supply_count_equals_brute_force_on_proper_colorings():
    nodes = slack2 = forcing = 0
    for g in gated_suite_graphs(40):
        _, seen, forced = supply_counts(g, longest_rainbow_path, g)
        for found, brute, _ in seen + forced:
            assert found == brute
        nodes += len(seen)
        forcing += len(forced)
        if len(g.used_colors()) == g.n + 1:
            slack2 += len(seen)
    # 808:230, the heaviest gated instance, at color slack 2
    g = suite_instance("808:230")
    _, seen, _ = supply_counts(g, longest_rainbow_path, g)
    assert all(found == brute for found, brute, _ in seen)
    assert nodes > 1000 and slack2 > 0
    assert len(seen) > 10_000
    # forcing, on 808:24 (one color short) and on its exists query for
    # every color
    g = suite_instance("808:24")
    for fn, args in ((longest_rainbow_path, ()),
                     (has_rainbow_path, (len(g.used_colors()),))):
        _, seen, forced = supply_counts(g, fn, g, *args)
        assert all(found == brute for found, brute, _ in seen + forced)
        forcing += len(forced)
    assert forcing > 500


def improper_graph(seed):
    """A random coloring, not proper, of a random graph on 7 or 8
    vertices with 4 to 6 colors."""
    rng = random.Random(seed)
    n, k, p = rng.choice([7, 8]), rng.choice([4, 5, 6]), rng.choice(
        [0.4, 0.5, 0.6])
    return ColoredGraph.from_edges(n, [
        (u, v, rng.randrange(k)) for u in range(n) for v in range(u + 1, n)
        if rng.random() < p])


def test_supply_count_equals_brute_force_on_improper_colorings():
    # a class that is not a matching can lose every edge to fewer dead
    # vertices than it has edges; the count sees it as dead, so it may
    # cut more than a count of one edge per dead vertex, never less. The
    # 8-vertex graphs are wide enough for forcing, where a class may keep
    # several edges at the current vertex, each a step the search takes.
    nodes = past_matching = forcing = 0
    rng = random.Random(43)
    wide = [ColoredGraph.from_edges(8, [
        (u, v, rng.randrange(6)) for u in range(8) for v in range(u + 1, 8)
        if rng.random() < 0.5]) for _ in range(8)]
    # in these, a forced class has two edges at the current vertex and only
    # the second leads to the path that every witness check below expects
    wide += [improper_graph(seed) for seed in (205, 227, 295, 312)]
    for g in [*seeded_graphs(41, 80, n_max=7), *wide]:
        out, seen, forced = supply_counts(g, longest_rainbow_path, g)
        nodes += len(seen)
        forcing += len(forced)
        if g.n:
            length = out.best.length
            assert out.best.vertices == next(rainbow_sequences(g, length))
            assert next(rainbow_sequences(g, length + 1), None) is None
        for found, brute, left in seen + forced:
            assert found == brute
        for found, brute, left in seen:
            past_matching += any(
                sum(c == d for (_, _, d) in g.edges) > left for c in found)
    assert nodes > 100 and past_matching > 0 and forcing > 100


def test_wide_gated_input_builds_no_layout(monkeypatch):
    # color slack far below 1 opens the gate, but the layout would be
    # m + colors bits wide, past SUPPLY_FIELD_BITS: the search runs on the
    # plain table alone and does what it does with the cut shut
    g = random_instance(random.Random(1), 400, 0.1, "random")
    colors = len(g.used_colors())
    assert colors <= g.n and g.m + colors > SUPPLY_FIELD_BITS
    assert min(Counter(c for (_, _, c) in g.edges).values()) * 2 < g.n
    tracemalloc.start()
    try:
        g._bits
        table = tracemalloc.get_traced_memory()[1]
        out = longest_rainbow_path(g, budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a layout table would take about 50 MB here, the plain one 2 MB
    assert peak < 1.5 * table
    monkeypatch.setattr(search, "SUPPLY_FIELD_BITS", 0)
    shut = longest_rainbow_path(g, budget=2000)
    assert (out.best, out.nodes_expanded) == (shut.best, shut.nodes_expanded)


def test_narrow_gated_input_builds_no_layout(monkeypatch):
    # below LAYOUT_FLOOR_BITS the layout costs more per node than it saves:
    # the K5 colorings (gated at 5 or 6 colors, 15 or 16 bits) and 808:2
    # (n 8, 12 edges, 5 colors, a class of one edge) search on the plain
    # table alone
    g = suite_instance("808:2")
    colors = len(g.used_colors())
    assert colors <= g.n + 1 and g.m + colors < search.LAYOUT_FLOOR_BITS
    assert min(Counter(c for (_, _, c) in g.edges).values()) * 2 < g.n

    def refuse(*args):
        raise AssertionError("a layout was built")

    monkeypatch.setattr(search, "_supply_layout", refuse)
    for h in [g, *proper_colorings(complete_graph(5))]:
        longest_rainbow_path(h)
        for length in range(1, h.n):
            has_rainbow_path(h, length)


def test_layout_no_depth_can_read_is_not_built(monkeypatch):
    # a proper 3-coloring of 13 vertices, 18 edges (21 bits, inside the
    # band): the path 0..12 in colors 0, 1, 0, 1, ... and six chords in
    # color 2. Every class has 6 edges, so none can be empty above depth
    # 6, while the search ends at its first path of lim = 3 edges: the cut
    # is never read
    edges = [(v, v + 1, v % 2) for v in range(12)]
    edges += [(v, v + 3, 2) for v in (0, 1, 2, 6, 7, 8)]
    g = ColoredGraph(13, tuple(sorted(edges)), 3)
    assert search.LAYOUT_FLOOR_BITS <= g.m + 3 <= SUPPLY_FIELD_BITS
    assert set(Counter(c for (_, _, c) in g.edges).values()) == {6}

    def refuse(*args):
        raise AssertionError("a layout was built")

    monkeypatch.setattr(search, "_supply_layout", refuse)
    for floor in (search.LAYOUT_FLOOR_BITS, sys.maxsize):
        monkeypatch.setattr(search, "LAYOUT_FLOOR_BITS", floor)
        out = longest_rainbow_path(g)
        assert (out.best.vertices, out.nodes_expanded) == ((0, 1, 2, 5), 4)
        found = has_rainbow_path(g, 3)
        assert (found.found, found.nodes_expanded) == (True, 4)


def test_deep_search_is_refused():
    g = rainbow_path_graph(3000)
    with pytest.raises(GuardError):
        longest_rainbow_path(g)
    # a short query stops long before the recursion limit
    assert has_rainbow_path(g, 5).witness.vertices == (0, 1, 2, 3, 4, 5)


def _recursive_walks(tree):
    """(enclosing function, nested function) for each nested function that
    calls itself by name."""
    found = []

    def visit(node, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                if outer is not None and any(
                        isinstance(c, ast.Call)
                        and isinstance(c.func, ast.Name)
                        and c.func.id == child.name
                        for c in ast.walk(child)):
                    found.append((outer, child))
                visit(child, child)
            else:
                visit(child, outer)

    visit(tree, None)
    return found


def _catches_recursion_error(fn) -> bool:
    for node in ast.walk(fn):
        for handler in getattr(node, "handlers", ()):
            kind = handler.type
            names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
            if any(isinstance(x, ast.Name) and x.id == "RecursionError"
                   for x in names):
                return True
    return False


def test_every_recursive_walk_refuses_deep_inputs():
    # a walk that recurses once per level of its input ends in a traceback
    # on a deep enough input, unless the function around it turns the
    # RecursionError into a GuardError
    guarded = set()
    for path in sorted(Path(rturan.__file__).parent.glob("*.py")):
        for outer, inner in _recursive_walks(ast.parse(path.read_text())):
            assert _catches_recursion_error(outer), \
                f"{path.name}: {outer.name} lets {inner.name} overflow"
            guarded.add(outer.name)
    assert {"_dfs", "_span_ends", "_class_spans", "_colorings",
            "maximum_matching"} <= guarded


# === existence queries ===

def test_has_rainbow_path_decides():
    g = maamoun_meyniel(2)
    assert has_rainbow_path(g, 2).found is True
    assert has_rainbow_path(g, 3).found is False
    assert has_rainbow_path(g, 3).witness is None
    empty = ColoredGraph(0, (), 0)
    assert has_rainbow_path(empty, 0) == ExistsOutcome(False, None, 0)


def test_has_rainbow_path_budget_undecided():
    g = one_factorized_complete(10)
    out = has_rainbow_path(g, 9, budget=2)
    assert out.found is None


def test_exists_budget_counts_the_refused_node():
    g = one_factorized_complete(10)
    # the hit is the fourth node: a budget of four decides, three does not
    assert has_rainbow_path(g, 3, budget=4).found is True
    out = has_rainbow_path(g, 3, budget=3)
    assert out.found is None and out.nodes_expanded == 4
    # refused before the length shortcuts answer without a search
    for length in (0, 3, 99):
        with pytest.raises(PreconditionError, match="budget"):
            has_rainbow_path(g, length, budget=-1)


def test_exists_witness_checks_out():
    g = bipartite_f2k(2)
    out = has_rainbow_path(g, 3)
    assert out.found and out.witness.length == 3
    assert is_rainbow(g, out.witness)


# === spanning searches over a fixed vertex set ===

def test_spanning_from_anchor():
    g = rainbow_triangle()
    p = spanning_rainbow_path_from(g, {0, 1, 2}, 1)
    assert p is not None and p.vertices[0] == 1
    assert set(p.vertices) == {0, 1, 2}
    assert spanning_rainbow_path_from(g, {2}, 2) == RainbowPath((2,), ())
    with pytest.raises(PathError, match="start 0 not in vertex set"):
        spanning_rainbow_path_from(g, {1, 2}, 0)


def test_spanning_between_endpoints():
    g = rainbow_triangle()
    p = spanning_rainbow_path_between(g, {0, 1, 2}, 0, 2)
    assert p is not None and p.endpoints == (0, 2)
    g2 = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)], num_colors=1)
    assert spanning_rainbow_path_between(g2, {0, 1, 2}, 0, 2) is None
    with pytest.raises(PathError, match="distinct"):
        spanning_rainbow_path_between(g, {0, 1, 2}, 1, 1)


def test_deep_spanning_search_is_refused():
    g = rainbow_path_graph(1100)
    with pytest.raises(GuardError):
        spanning_rainbow_path_from(g, range(1100), 0)


def test_deep_class_search_is_refused():
    # V(P*), the whole rainbow path of 1,100 vertices, has color slack 0,
    # so the aux oracle searches it by color class, one level per class
    g = rainbow_path_graph(1100)
    with pytest.raises(GuardError, match="path search recursed"):
        build_aux_oracle(g, path_from_vertices(g, range(1100)))


def test_enumerate_guard():
    g = one_factorized_complete(20)
    with pytest.raises(GuardError):
        list(enumerate_rainbow_paths_on(g, range(20), guard=16))
    found = list(enumerate_rainbow_paths_on(rainbow_triangle(), range(3)))
    assert sorted(p.vertices for p in found) == [(0, 1, 2), (0, 2, 1),
                                                 (1, 0, 2)]
