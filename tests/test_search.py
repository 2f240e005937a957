"""Search behavior on graphs small enough to check by hand or by a second,
dumber search written here in the test."""

from itertools import permutations

import pytest

from rturan.constructions import bipartite_f2k, maamoun_meyniel
from rturan.errors import GuardError, PathError
from rturan.graphs import ColoredGraph, one_factorized_complete
from rturan.search import (RainbowPath, has_rainbow_path, is_rainbow,
                           longest_rainbow_path, path_from_vertices,
                           spanning_rainbow_path_between,
                           spanning_rainbow_path_from)

from spanning_brute import enumerate_rainbow_paths_on


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


# === RainbowPath the value type ===

def test_path_invariants():
    p = RainbowPath((2, 0, 1), (4, 3))
    assert p.length == 2 and p.endpoints == (2, 1)
    assert p.is_rainbow()
    assert p.reversed().vertices == (1, 0, 2)
    assert p.canonical().vertices == (1, 0, 2)
    assert p.index_of(0) == 1
    assert not RainbowPath((0, 1, 2), (5, 5)).is_rainbow()


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


def test_is_rainbow_checks_recorded_colors():
    g = rainbow_triangle()
    assert is_rainbow(g, [0, 1, 2])
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
    import random
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
    assert out.budget_exhausted and not out.proven_optimal


# === existence queries ===

def test_has_rainbow_path_decides():
    g = maamoun_meyniel(2)
    assert has_rainbow_path(g, 2).found is True
    assert has_rainbow_path(g, 3).found is False
    assert has_rainbow_path(g, 3).witness is None


def test_has_rainbow_path_budget_undecided():
    g = one_factorized_complete(10)
    out = has_rainbow_path(g, 9, budget=2)
    assert out.found is None


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


def test_spanning_between_endpoints():
    g = rainbow_triangle()
    p = spanning_rainbow_path_between(g, {0, 1, 2}, 0, 2)
    assert p is not None and p.endpoints == (0, 2)
    g2 = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)], num_colors=1)
    assert spanning_rainbow_path_between(g2, {0, 1, 2}, 0, 2) is None


def test_enumerate_guard():
    g = one_factorized_complete(20)
    with pytest.raises(GuardError):
        list(enumerate_rainbow_paths_on(g, range(20), guard=16))
    found = list(enumerate_rainbow_paths_on(rainbow_triangle(), range(3)))
    assert sorted(p.vertices for p in found) == [(0, 1, 2), (0, 2, 1),
                                                 (1, 0, 2)]
