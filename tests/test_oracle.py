"""Exhaustive oracles cross-checked against independent counters.

Canonical proper edge colorings of a skeleton correspond one-to-one with
partitions of the edge set into matchings, so the counts here are verified
twice over: once by a set-partition recursion on the first remaining edge,
once (for tiny skeletons) by normalizing every raw color assignment to
first-appearance order and counting distinct results.
"""

import ast
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from rturan import oracle
from rturan.errors import GuardError, PreconditionError
from rturan.graphs import (PARSE_VERTEX_GUARD, ColoredGraph, GraphSkeleton,
                           complete_graph, validate_proper)
from rturan.oracle import (_colorings, clique_packing, coloring_avoiding,
                           count_proper_colorings, erdos_gallai_bound,
                           exstar_small, packing_edge_count,
                           proper_colorings)
from rturan.search import has_rainbow_path


def count_matching_partitions(edges):
    memo = {}

    def count(rem):
        if not rem:
            return 1
        if rem in memo:
            return memo[rem]
        rest = sorted(rem)
        e0 = rest[0]
        total = 0

        def grow(block, cands):
            nonlocal total
            total += count(rem - block)
            used = {v for e in block for v in e}
            for i, e in enumerate(cands):
                if used & set(e):
                    continue
                grow(block | {e}, cands[i + 1:])

        grow(frozenset({e0}), rest[1:])
        memo[rem] = total
        return total

    return count(frozenset(edges))


def count_by_normalization(skel):
    seen = set()
    incident = [[] for _ in range(skel.n)]
    for i, (u, v) in enumerate(skel.edges):
        incident[u].append(i)
        incident[v].append(i)
    for cs in product(range(skel.m), repeat=skel.m):
        if any(len({cs[i] for i in inc}) != len(inc) for inc in incident):
            continue
        order, norm = {}, []
        for c in cs:
            order.setdefault(c, len(order))
            norm.append(order[c])
        seen.add(tuple(norm))
    return len(seen)


def naive_exstar(n, path_edges):
    all_edges = list(combinations(range(n), 2))
    for m in range(len(all_edges), 0, -1):
        for subset in combinations(all_edges, m):
            if colorable_avoiding(n, subset, path_edges):
                return m
    return 0


def colorable_avoiding(n, edges, path_edges):
    m = len(edges)
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    eindex = {}
    for i, (u, v) in enumerate(edges):
        eindex[(u, v)] = eindex[(v, u)] = i
    for cs in product(range(m), repeat=m):
        if any(len({cs[i] for i in inc}) != len(inc) for inc in incident):
            continue
        if not has_naive_rainbow_path(n, eindex, cs, path_edges):
            return True
    return False


def has_naive_rainbow_path(n, eindex, cs, path_edges):
    if path_edges + 1 > n:
        return False
    for perm in permutations(range(n), path_edges + 1):
        idx = [eindex.get(pair) for pair in zip(perm, perm[1:])]
        if None in idx:
            continue
        colors = [cs[i] for i in idx]
        if len(set(colors)) == len(colors):
            return True
    return False


def subset_exstar(n, path_edges):
    """The downward scan over edge subsets, one avoidance search each."""
    all_edges = complete_graph(n).edges
    for m in range(len(all_edges), -1, -1):
        for subset in combinations(all_edges, m):
            if coloring_avoiding(GraphSkeleton(n, subset), path_edges,
                                 guard=m) is not None:
                return m
    return 0


def plain_exstar(n, path_edges):
    """exstar_small's downward scan on the plain kernel, which tries every
    labelled edge subset of K_n: (value, witness edges)."""
    all_edges = complete_graph(n).edges
    for least in range(len(all_edges), -1, -1):
        cs = next(_colorings(n, all_edges, path_edges, least), None)
        if cs is not None:
            kept = [(u, v, c) for (u, v), c in zip(all_edges, cs)
                    if c is not None]
            return len(kept), ColoredGraph.from_edges(n, kept).edges
    raise AssertionError("an edgeless graph avoids every path")


def obeys_leader_rules(n, cs):
    """Row prefix: a coloured (u, v) whose (u, v - 1) is uncoloured needs an
    earlier coloured edge at v - 1 or v. Degree cap: no vertex has more
    coloured edges than vertex 0. cs runs over K_n's edges in row order."""
    touched, deg = set(), [0] * n
    for i, ((u, v), c) in enumerate(zip(complete_graph(n).edges, cs)):
        if c is None:
            continue
        if v > u + 1 and cs[i - 1] is None and not {v - 1, v} & touched:
            return False
        touched |= {u, v}
        deg[u] += 1
        deg[v] += 1
    return max(deg) <= deg[0]


def class_keys(n, stream):
    """One key per isomorphism class of partial colorings of K_n: the least
    of the n! vertex relabellings, colours renamed by first use and
    uncoloured edges read as -1."""
    edges = complete_graph(n).edges
    index = {e: i for i, e in enumerate(edges)}
    maps = [[index[min(p[u], p[v]), max(p[u], p[v])] for (u, v) in edges]
            for p in permutations(range(n))]
    keys = set()
    for cs in stream:
        best = None
        for to in maps:
            img = [None] * len(edges)
            for i, c in enumerate(cs):
                img[to[i]] = c
            names = {}
            key = tuple(-1 if c is None else names.setdefault(c, len(names))
                        for c in img)
            best = key if best is None else min(best, key)
        keys.add(best)
    return keys


def path_skeleton(edges):
    return GraphSkeleton(edges + 1, tuple((i, i + 1) for i in range(edges)))


# === canonical coloring counts ===

@pytest.mark.parametrize("skel,expected", [
    (complete_graph(2), 1),
    (complete_graph(3), 1),
    (complete_graph(4), 8),
    (path_skeleton(3), 2),
    (GraphSkeleton(4, ((0, 1), (0, 2), (0, 3))), 1),
])
def test_counts_match_partition_recursion(skel, expected):
    assert count_proper_colorings(skel) == expected
    assert count_matching_partitions(skel.edges) == expected


def test_counts_match_raw_normalization():
    for skel in (complete_graph(4), path_skeleton(3), complete_graph(3)):
        assert count_proper_colorings(skel) == count_by_normalization(skel)


def test_k5_count_both_ways():
    assert count_proper_colorings(complete_graph(5)) == 332
    assert count_matching_partitions(complete_graph(5).edges) == 332


def test_colorings_come_out_canonical_and_proper():
    for g in proper_colorings(complete_graph(4)):
        assert validate_proper(g).is_proper
        cs = [c for (_, _, c) in g.edges]
        assert cs[0] == 0
        assert all(c <= max(cs[:i]) + 1 for i, c in enumerate(cs) if i)


def seeded_skeletons(count):
    """Skeletons on 2..6 vertices with at least half of all pairs as edges
    (at most 9), where filtering by path length keeps some colorings."""
    rng = random.Random("avoid-filter")
    skels = [complete_graph(4)]
    for _ in range(count):
        n = rng.randint(2, 6)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(len(pairs) // 2, min(9, len(pairs)))
        skels.append(GraphSkeleton(n, tuple(rng.sample(pairs, m))))
    return skels


def test_avoid_filter_agrees_with_post_filter():
    # the pruned enumeration yields exactly the unfiltered stream's
    # colorings without the path, in the same order
    partial = 0
    for skel in seeded_skeletons(150):
        every = list(proper_colorings(skel))
        for length in (1, 2, 3, 4):
            kept = [g for g in every
                    if has_rainbow_path(g, length).found is False]
            assert list(proper_colorings(skel, avoid=length)) == kept, \
                (skel, length)
            partial += 0 < len(kept) < len(every)
    assert partial >= 40


def test_least_spans_every_large_enough_subset():
    # with a floor on the coloured edges, the kernel yields exactly the
    # avoiding colorings of each subset that large, None on the rest
    for skel in seeded_skeletons(10):
        n, edges = skel.n, skel.edges
        for avoid in (None, 2, 3):
            for least in (skel.m - 1, skel.m - 3):
                got = list(_colorings(n, edges, avoid, least))
                want = set()
                for m in range(max(least, 0), skel.m + 1):
                    for keep in combinations(range(skel.m), m):
                        sub = tuple(edges[i] for i in keep)
                        for cs in _colorings(n, sub, avoid):
                            full = [None] * skel.m
                            for i, c in zip(keep, cs):
                                full[i] = c
                            want.add(tuple(full))
                assert len(got) == len(set(got)) and set(got) == want, \
                    (skel, avoid, least)


@pytest.mark.parametrize("n,avoid,least", [
    (4, None, 0), (4, None, 4), (4, 3, 0), (4, 3, 3),
    (5, None, 9), (5, 3, 0), (5, 4, 6),
])
def test_leader_stream_keeps_every_class(n, avoid, least):
    # on K_n in row order, leader mode cuts only colorings that break its
    # two rules, and every isomorphism class keeps a coloring that obeys both
    edges = complete_graph(n).edges
    plain = list(_colorings(n, edges, avoid, least))
    lead = list(_colorings(n, edges, avoid, least, leader=True))
    rest = iter(plain)
    assert all(cs in rest for cs in lead)  # a subsequence, in plain order
    assert all(obeys_leader_rules(n, cs) for cs in lead)
    assert class_keys(n, lead) == class_keys(n, plain)
    assert n < 5 or len(lead) < len(plain)


def test_coloring_avoiding_finds_or_refutes():
    g = coloring_avoiding(complete_graph(4), 3)
    assert g is not None and validate_proper(g).is_proper
    assert has_rainbow_path(g, 3).found is False
    assert coloring_avoiding(path_skeleton(2), 2) is None
    assert coloring_avoiding(complete_graph(5), 4) is None


def test_coloring_guards():
    with pytest.raises(GuardError):
        next(proper_colorings(complete_graph(7)))
    with pytest.raises(GuardError):
        next(proper_colorings(path_skeleton(2), guard=1))
    with pytest.raises(PreconditionError):
        next(proper_colorings(path_skeleton(2), avoid=0))


def test_deep_coloring_walk_is_refused():
    # the walk recurses once per edge: 1100 edges are too deep for it
    skel = path_skeleton(1100)
    with pytest.raises(GuardError, match="coloring walk recursed"):
        count_proper_colorings(skel, guard=5000)
    with pytest.raises(GuardError, match="coloring walk recursed"):
        next(proper_colorings(skel, guard=5000))
    # two alternating colors leave no rainbow 3-edge path, so it goes deep
    with pytest.raises(GuardError, match="coloring walk recursed"):
        coloring_avoiding(skel, 3, guard=5000)


# === exact extremal values ===

FROZEN = {
    (2, 2): 1, (3, 2): 1, (4, 2): 2, (5, 2): 2, (6, 2): 3, (7, 2): 3,
    (2, 3): 1, (3, 3): 3, (4, 3): 6, (5, 3): 6, (6, 3): 7,
    (4, 4): 6, (5, 4): 7, (6, 4): 9,
    (6, 5): 15,
    (7, 3): 9,
}


def test_exstar_frozen_table():
    for (n, length), value in FROZEN.items():
        assert exstar_small(n, length).value == value, (n, length)


def test_exstar_witnesses_are_real():
    for (n, length), value in FROZEN.items():
        res = exstar_small(n, length)
        w = res.witness
        assert w is not None and w.n == n and w.m == value
        assert validate_proper(w).is_proper
        assert has_rainbow_path(w, length).found is False


def test_exstar_matches_naive_search():
    for n in (2, 3, 4):
        for length in (2, 3, 4):
            assert exstar_small(n, length).value == naive_exstar(n, length), \
                (n, length)


def test_exstar_matches_subset_scan():
    for length in (3, 4, 5):
        assert exstar_small(5, length).value == subset_exstar(5, length), \
            length


def test_exstar_equals_plain_scan():
    # the first hit in branch order obeys the leader rules, so leader mode
    # keeps the plain scan's value and its witness
    cases = [(n, length) for n in range(3, 7) for length in (3, 4, 5)]
    for n, length in cases + [(7, 3)]:
        res = exstar_small(n, length)
        assert (res.value, res.witness.edges) == plain_exstar(n, length), \
            (n, length)


def test_exstar_at_eight_vertices():
    # the values the plain scan gave at n = 8, past the default guard
    for length, value in ((3, 12), (4, 16)):
        res = exstar_small(8, length, guard=8)
        w = res.witness
        assert res.value == value and w.n == 8 and w.m == value
        assert validate_proper(w).is_proper
        assert has_rainbow_path(w, length).found is False


def test_exstar_monotone_in_both_arguments():
    for (n, length), value in FROZEN.items():
        if (n - 1, length) in FROZEN:
            assert FROZEN[(n - 1, length)] <= value
        if (n, length - 1) in FROZEN:
            assert FROZEN[(n, length - 1)] <= value


def test_exstar_matching_shortcut():
    for n in range(2, 8):
        res = exstar_small(n, 2)
        assert res.value == n // 2
        assert res.witness.m == n // 2
        assert all(res.witness.degree(v) <= 1 for v in range(n))


def test_exstar_degenerate_inputs():
    assert exstar_small(0, 3).value == 0
    assert exstar_small(1, 3).value == 0
    for n in range(8):
        res = exstar_small(n, 1)
        assert res.value == 0
        assert res.witness == ColoredGraph.from_edges(n, [], num_colors=0)
    with pytest.raises(PreconditionError):
        exstar_small(4, 0)
    with pytest.raises(GuardError):
        exstar_small(8, 3)


# === the uncolored baseline and the packing it compares against ===

def test_erdos_gallai_values():
    assert erdos_gallai_bound(10, 4) == Fraction(15)
    assert erdos_gallai_bound(5, 3) == Fraction(5)
    assert erdos_gallai_bound(7, 2) == Fraction(7, 2)


def test_packing_refuses_bad_sizes():
    for fn in (erdos_gallai_bound, packing_edge_count, clique_packing):
        for n, length in ((-5, 3), (5, 0)):
            with pytest.raises(PreconditionError):
                fn(n, length)


def test_clique_packing_shape():
    g = clique_packing(10, 4)
    assert g.n == 10 and g.m == 13
    assert g.m == packing_edge_count(10, 4)
    assert validate_proper(g).is_proper
    assert has_rainbow_path(g, 4).found is False


def test_packing_leftover_block():
    g = clique_packing(7, 3)
    assert g.m == packing_edge_count(7, 3) == 6
    assert g.degree(6) == 0
    assert has_rainbow_path(g, 3).found is False


def test_exstar_refuses_oversized_inputs_before_building(monkeypatch):
    class Built(Exception):
        pass

    def build(n):
        raise Built(n)

    monkeypatch.setattr(oracle, "complete_graph", build)
    # K_708 has 250,278 edges, over the edge guard; K_707 has 249,571
    with pytest.raises(GuardError, match="edge guard"):
        exstar_small(708, 3, guard=5000)
    with pytest.raises(Built):
        exstar_small(707, 3, guard=5000)
    # the matching witness of the two-edge shortcut is checked too
    with pytest.raises(GuardError, match="vertex guard"):
        exstar_small(PARSE_VERTEX_GUARD + 1, 2, guard=10 * PARSE_VERTEX_GUARD)


def test_exstar_dominates_packing():
    for (n, length), value in FROZEN.items():
        assert value >= packing_edge_count(n, length), (n, length)


def _leader_callers(tree):
    """Top-level names whose body calls _colorings with leader mode on."""
    found = set()
    for top in tree.body:
        for call in ast.walk(top):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if callee == "_colorings" and any(
                    kw.arg in ("leader", None)
                    and not (isinstance(kw.value, ast.Constant)
                             and kw.value.value is False)
                    for kw in call.keywords):
                found.add(getattr(top, "name", None))
    return found


def test_only_the_extremal_scan_turns_on_leader_mode():
    # leader rows are sound only over K_n's edges in row order, which is
    # what exstar_small passes; on any other edge list they cut witnesses
    callers = set()
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        callers |= {(path.name, name)
                    for name in _leader_callers(ast.parse(path.read_text()))}
    assert callers == {("oracle.py", "exstar_small")}
