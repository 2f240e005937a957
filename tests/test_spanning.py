"""The spanning-path kernel against brute force.

Every answer of the spanning searches, and of the terminal and auxiliary
oracles built on them, is compared with a plain enumeration of vertex
orders (spanning_brute). The witnesses must be the first such path in
ascending DFS order, which is lexicographic order of the vertex sequence.
"""

import random

import pytest

from rturan.corpus import random_instance
from rturan.errors import PathError
from rturan.graphs import ColoredGraph
from rturan.search import (longest_rainbow_path, path_from_vertices,
                           spanning_rainbow_ends_from,
                           spanning_rainbow_path_between,
                           spanning_rainbow_path_from)
from rturan.terminals import build_aux_oracle, terminal_oracle

from spanning_brute import rainbow_orders


def check_spanning_searches(g, vset):
    """Compare every from/between/ends query on vset with brute force."""
    orders = list(rainbow_orders(g, vset))
    vs = sorted(set(vset))
    for u in vs:
        from_u = [o for o in orders if o[0] == u]
        p = spanning_rainbow_path_from(g, vset, u)
        assert (p.vertices if p else None) == (from_u[0] if from_u else None)
        others = [w for w in vs if w != u]
        assert spanning_rainbow_ends_from(g, vset, u, others) == \
            frozenset(o[-1] for o in from_u)
        for w in others:
            to_w = [o for o in from_u if o[-1] == w]
            p = spanning_rainbow_path_between(g, vset, u, w)
            assert (p.vertices if p else None) == (to_w[0] if to_w else None)
            # a subset of the wanted ends is answered by the same search
            assert spanning_rainbow_ends_from(g, vset, u, [w]) == \
                frozenset([w] if to_w else [])


def check_oracles(g, pstar):
    """Terminal set and aux edges on V(pstar) against brute force. pstar is
    any rainbow path of g, longest or not, as `--path` allows."""
    orders = list(rainbow_orders(g, pstar.vertices))
    ends = frozenset(o[0] for o in orders)
    assert terminal_oracle(g, pstar) == ends
    aux = build_aux_oracle(g, pstar)
    assert aux.vertices == tuple(sorted(ends))
    assert aux.edges == frozenset((o[0], o[-1]) for o in orders
                                  if o[0] < o[-1])


def seeded_graphs(kind):
    rng = random.Random(f"spanning-{kind}")
    return [random_instance(rng, rng.randint(3, 7),
                            rng.choice((0.3, 0.5, 0.8)), kind)
            for _ in range(40)]


@pytest.mark.parametrize("kind", ["random", "bare_path"])
def test_oracles_match_brute_force(kind):
    for g in seeded_graphs(kind):
        check_oracles(g, longest_rainbow_path(g).best)


@pytest.mark.parametrize("kind", ["random", "bare_path"])
def test_oracles_on_shorter_paths_match_brute_force(kind):
    rng = random.Random(f"shorter-{kind}")
    for g in seeded_graphs(kind):
        # every proper prefix of P*, down to one vertex, is a rainbow path
        # that is not longest
        pstar = longest_rainbow_path(g).best
        for j in range(1, len(pstar.vertices)):
            check_oracles(g, path_from_vertices(g, pstar.vertices[:j]))
        # and so, mostly, is the first rainbow path on a random vertex set
        vs = rng.sample(range(g.n), rng.randint(1, g.n))
        for order in rainbow_orders(g, vs):
            check_oracles(g, path_from_vertices(g, order))
            break


@pytest.mark.parametrize("kind", ["random", "bare_path"])
def test_spanning_searches_match_brute_force(kind):
    rng = random.Random(5)
    for g in seeded_graphs(kind):
        check_spanning_searches(g, range(g.n))
        # a random subset exercises sets that may have no spanning path
        check_spanning_searches(g, rng.sample(range(g.n), rng.randint(2, g.n)))


# === hand cases for the single-way-in prune ===

def graph(n, edges):
    return ColoredGraph.from_edges(n, edges)


def test_vertex_adjacent_only_to_start():
    # 1 hangs off 0, so a path from 0 must end right after it: impossible
    g = graph(4, [(0, 1, 0), (0, 2, 1), (2, 3, 2)])
    vs = range(4)
    assert spanning_rainbow_path_from(g, vs, 0) is None
    assert spanning_rainbow_path_between(g, vs, 0, 3) is None
    assert spanning_rainbow_path_from(g, vs, 1).vertices == (1, 0, 2, 3)
    assert spanning_rainbow_ends_from(g, vs, 0, [1, 2, 3]) == frozenset()
    # ...unless it is the only vertex left
    assert spanning_rainbow_path_between(g, [0, 1], 0, 1).vertices == (0, 1)
    check_spanning_searches(g, vs)


def test_two_single_way_in_vertices():
    # 1 and 4 each have one neighbour: only a path from one to the other
    g = graph(5, [(0, 1, 0), (0, 2, 1), (2, 3, 2), (3, 4, 3)])
    vs = range(5)
    for start in (0, 2, 3):
        assert spanning_rainbow_path_from(g, vs, start) is None
    assert spanning_rainbow_path_from(g, vs, 1).vertices == (1, 0, 2, 3, 4)
    assert spanning_rainbow_ends_from(g, vs, 1, [0, 2, 3, 4]) == {4}
    assert spanning_rainbow_ends_from(g, vs, 4, [0, 1, 2, 3]) == {1}
    check_spanning_searches(g, vs)


def test_target_with_one_way_in():
    # 3 is reached only through 2; a chord 0-2 gives two ways to get there
    g = graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 2, 3)])
    vs = range(4)
    assert spanning_rainbow_path_between(g, vs, 0, 3).vertices == (0, 1, 2, 3)
    assert spanning_rainbow_path_between(g, vs, 1, 3).vertices == (1, 0, 2, 3)
    assert spanning_rainbow_path_between(g, vs, 2, 3) is None
    assert spanning_rainbow_path_between(g, vs, 0, 1) is None
    assert spanning_rainbow_ends_from(g, vs, 0, [1, 2, 3]) == {3}
    check_spanning_searches(g, vs)


def test_repeated_color_blocks_the_only_route():
    # the same graph with the chord colored like the edge 2-3
    g = graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 2, 2)])
    vs = range(4)
    assert spanning_rainbow_path_between(g, vs, 1, 3) is None
    assert spanning_rainbow_path_between(g, vs, 0, 3).vertices == (0, 1, 2, 3)
    check_spanning_searches(g, vs)


def test_ends_from_refuses_bad_ends():
    g = graph(3, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(PathError):
        spanning_rainbow_ends_from(g, range(3), 0, [0])
    with pytest.raises(PathError):
        spanning_rainbow_ends_from(g, range(3), 0, [5])
    with pytest.raises(PathError):
        spanning_rainbow_ends_from(g, [0, 1], 2, [1])
    assert spanning_rainbow_ends_from(g, range(3), 0, []) == frozenset()
    assert spanning_rainbow_ends_from(g, range(3), 0, [2]) == {2}
