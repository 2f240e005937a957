"""Search behavior on graphs small enough to check by hand or by a second,
dumber search written here in the test."""

import ast
import random
import sys
import tracemalloc
import types
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

import rturan
from rturan import search
from rturan.constructions import bipartite_f2k, maamoun_meyniel
from rturan.corpus import build_claim_context, random_instance
from rturan.errors import GuardError, PathError, PreconditionError
from rturan.graphs import ColoredGraph, one_factorized_complete
from rturan.search import (SPAN_SUPPLY_FIELD_BITS, SUPPLY_FIELD_BITS,
                           ExistsOutcome, RainbowPath,
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


def seeded_graphs(seed, count, n_max=6, colors=4):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, n_max + 1)
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


def suite_graphs(count):
    """The first `count` instances of the criterion-08 sweeps, both kinds."""
    for seed, kind in ((808, "random"), (909, "bare_path")):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_instance(rng, rng.randint(5, 12), 0.45, kind)


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
    graphs = list(seeded_graphs(31, 60))
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
    (lambda: longest_rainbow_path(maamoun_meyniel(3)), 11_152),
    (lambda: has_rainbow_path(maamoun_meyniel(3), 7), 11_152),
    (lambda: has_rainbow_path(bipartite_f2k(3), 8), 458_000),
], ids=["f2k3-longest", "mm3-longest", "mm3-exists7", "f2k3-exists8"])
def test_frozen_node_counts(query, nodes):
    assert query().nodes_expanded == nodes


def test_frozen_node_count_of_the_heaviest_suite_instance():
    # instance 24 of the random/808 criterion-08 sweep, drawn as run_suite
    # draws it, was its heaviest longest search: 72,548 nodes without the
    # color-supply cut
    rng = random.Random(808)
    for _ in range(25):
        g = random_instance(rng, rng.randint(5, 12), 0.45, "random")
    assert longest_rainbow_path(g).nodes_expanded == 4_198


# === the color-supply cut's carry-field count ===

def supply_counts(g, fn, *args):
    """fn(*args), and for each node where a path kernel computed the
    color-supply count, (the colors of the classes the count found dead and
    unused, the colors of those brute force finds, the number of vertices
    the path has left). Brute force reads the graph: a class is dead when
    every edge of its color inside the scope (the graph, or the vertex set
    of a spanning search) has an end the path has left, and unused when no
    edge of the path has its color."""
    walks = {next(c for c in kernel.__code__.co_consts
                  if isinstance(c, types.CodeType) and c.co_name == "walk")
             for kernel in (search._dfs, search._span_ends)}
    seen = []
    layouts = {}

    def node(frame):
        at = frame.f_locals
        table = at.get("adj", at.get("nbrs"))
        if id(table) not in layouts:
            # each guard bit's color, and the edges inside the scope
            field = at["field"]
            scope = at.get("full", (1 << g.n) - 1)
            layouts[id(table)] = (
                {cbit & ((1 << field) - 1): g.color_of(u, w)
                 for u, row in enumerate(table) for (w, _, cbit) in row},
                [(u, v, c) for (u, v, c) in g.edges
                 if scope >> u & 1 and scope >> v & 1], table)
        color_of, edges, _ = layouts[id(table)]
        dead, cmask, cur = at["dead"], at["cmask"], at["cur"]
        found = {color_of[b] for b in color_of if b & dead and not b & cmask}
        left = set(cur[:-1])
        used = {g.color_of(a, b) for a, b in zip(cur, cur[1:])}
        brute = {c for (_, _, c) in edges if c not in used} - {
            c for (u, v, c) in edges if u not in left and v not in left}
        seen.append((found, brute, len(left)))

    def trace(frame, event, arg):
        if frame.f_code not in walks:
            return None

        def line(frame, event, arg):
            # the line after the count's first line: `dead` is set, and
            # no later line of this node is traced
            if "dead" in frame.f_locals:
                node(frame)
                frame.f_trace_lines = False
            return line
        return line

    sys.settrace(trace)
    try:
        return fn(*args), seen
    finally:
        sys.settrace(None)


def gated_suite_graphs(count):
    """Suite instances (proper colorings) whose color slack opens the
    color-supply gate."""
    return [g for g in suite_graphs(count)
            if len(g.used_colors()) <= g.n]


def test_supply_count_equals_brute_force_on_proper_colorings():
    nodes = spans = 0
    for g in gated_suite_graphs(20):
        best, seen = supply_counts(g, longest_rainbow_path, g)
        _, span_seen = supply_counts(g, build_aux_oracle, g, best.best)
        for found, brute, _ in seen + span_seen:
            assert found == brute
        nodes += len(seen)
        spans += len(span_seen)
    assert nodes > 1000 and spans > 1000


def test_supply_count_equals_brute_force_on_improper_colorings():
    # a class that is not a matching can lose every edge to fewer dead
    # vertices than it has edges; the count sees it as dead, so it may
    # cut more than a count of one edge per dead vertex, never less
    nodes = spans = past_matching = 0
    for g in seeded_graphs(41, 80, n_max=7):
        out, seen = supply_counts(g, longest_rainbow_path, g)
        nodes += len(seen)
        if g.n:
            length = out.best.length
            assert out.best.vertices == next(rainbow_sequences(g, length))
            assert next(rainbow_sequences(g, length + 1), None) is None
            for start in range(g.n):
                _, span_seen = supply_counts(g, spanning_rainbow_path_from,
                                             g, range(g.n), start)
                spans += len(span_seen)
                seen += span_seen
        for found, brute, left in seen:
            assert found == brute
            past_matching += any(
                sum(c == d for (_, _, d) in g.edges) > left for c in found)
    assert nodes > 100 and spans > 1000 and past_matching > 0


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


def test_spanning_layout_bound_is_wider_than_the_longest_search_bound():
    # one-factorized K_48: 1,128 edges and 47 colors, slack 0. The longest
    # search would run it with the cut shut, but a spanning search over
    # its vertices still builds the layout; K_92 (4,186 edges, 91 colors)
    # is past the spanning bound too
    g = one_factorized_complete(48)
    assert SUPPLY_FIELD_BITS < g.m + 47 <= SPAN_SUPPLY_FIELD_BITS
    s = search._span_prep(g, range(48))
    assert (s.slack, s.field) == (0, g.m + 47)
    g = one_factorized_complete(92)
    s = search._span_prep(g, range(92))
    assert g.m + 91 > SPAN_SUPPLY_FIELD_BITS and (s.slack, s.field) == (0, 0)

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
    assert {"_dfs", "_span_ends", "_colorings",
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


def test_enumerate_guard():
    g = one_factorized_complete(20)
    with pytest.raises(GuardError):
        list(enumerate_rainbow_paths_on(g, range(20), guard=16))
    found = list(enumerate_rainbow_paths_on(rainbow_triangle(), range(3)))
    assert sorted(p.vertices for p in found) == [(0, 1, 2), (0, 2, 1),
                                                 (1, 0, 2)]
