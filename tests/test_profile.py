"""Profile of one fully worked instance.

The graph: path 0-1-2-3-4-5 with edge colors 0,1,2,3,4, plus chords
(0,3) color 9, (0,4) color 10, (5,1) color 8, (5,2) color 7, and the far
edge (0,5) with the old color 2. Every set below was derived by hand from
the definitions before being asserted.
"""

import random
from collections import Counter

import pytest

from rturan.corpus import random_instance
from rturan.errors import PathError
from rturan.graphs import ColoredGraph, validate_proper
from rturan.profile import compute_profile
from rturan.search import RainbowPath, longest_rainbow_path, path_from_vertices
from rturan.terminals import terminal_rules


def hand_graph():
    edges = [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4),
             (0, 3, 9), (0, 4, 10), (5, 1, 8), (5, 2, 7), (0, 5, 2)]
    return ColoredGraph.from_edges(6, edges, num_colors=11)


def hand_profile():
    g = hand_graph()
    return g, compute_profile(g, path_from_vertices(g, range(6)))


def test_hand_graph_is_proper():
    assert validate_proper(hand_graph()).is_proper


def test_chord_maps():
    _, prof = hand_profile()
    assert prof.k == 5
    assert prof.start_chords == {1: 0, 3: 9, 4: 10, 5: 2}
    assert prof.end_chords == {4: 4, 1: 8, 2: 7, 0: 2}


def test_endpoint_color_partitions():
    _, prof = hand_profile()
    assert prof.start_colors == frozenset({0, 9, 10, 2})
    assert prof.start_out == frozenset()
    assert prof.start_in == prof.start_colors
    assert prof.start_old == frozenset({0, 2})
    assert prof.start_new == frozenset({9, 10})
    assert prof.end_colors == frozenset({4, 8, 7, 2})
    assert prof.end_old == frozenset({4, 2})
    assert prof.end_new == frozenset({8, 7})


def test_swap_sets():
    _, prof = hand_profile()
    assert prof.swap_from_start == frozenset({2, 3})
    assert prof.swap_from_end == frozenset({1, 2})


def test_nice_and_residue():
    _, prof = hand_profile()
    assert prof.start_nice == frozenset({2})
    assert prof.end_nice == frozenset({2})
    assert prof.start_res == frozenset({0})
    assert prof.end_res == frozenset({4})


def test_pivots_and_window():
    _, prof = hand_profile()
    assert (prof.win_lo_outer, prof.win_lo) == (1, 2)
    assert (prof.win_hi, prof.win_hi_outer) == (3, 4)
    assert prof.pivots_present


def test_far_edge_old():
    _, prof = hand_profile()
    assert prof.far_edge_color == 2
    assert not prof.far_edge_is_new


def test_ranged_counters_clip():
    _, prof = hand_profile()
    assert prof.n_start_new(2, 5) == 2
    assert prof.n_start_new(4, 5) == 1
    assert prof.n_start_new(6, 9) == 0
    assert prof.n_end_new(0, 3) == 2
    assert prof.n_end_new(2, 2) == 1
    assert prof.n_start_nice(1, 5) == 1
    assert prof.n_end_nice(0, 0) == 1


def test_out_colors_leave_the_path():
    g = ColoredGraph.from_edges(
        4, [(0, 1, 0), (1, 2, 1), (0, 3, 5)], num_colors=6)
    prof = compute_profile(g, path_from_vertices(g, [0, 1, 2]))
    assert prof.start_out == frozenset({5})
    assert prof.start_in == frozenset({0})
    assert prof.start_res == frozenset({0})


def test_missing_pivots_are_none():
    g = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 1)], num_colors=2)
    prof = compute_profile(g, path_from_vertices(g, [0, 1, 2]))
    assert prof.win_lo is None and prof.win_hi_outer is None
    assert not prof.pivots_present
    assert prof.far_edge_color is None and not prof.far_edge_is_new


def test_profile_rejects_non_rainbow():
    g = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)], num_colors=1)
    with pytest.raises(PathError):
        compute_profile(g, path_from_vertices(g, [0, 1, 2]))


def test_profile_rejects_single_vertex():
    g = hand_graph()
    with pytest.raises(PathError):
        compute_profile(g, RainbowPath((0,), ()))


# === the v_k end is the v_0 end of the reversed path ===

def mirror_cases():
    path = [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4)]
    for extra in ([(0, 3, 9), (0, 4, 10), (5, 1, 8), (5, 2, 7), (0, 5, 2)],
                  [(0, 2, 3), (3, 5, 20)],          # nice start, below
                  [(0, 3, 1), (5, 1, 20)],          # nice start, above
                  [(0, 2, 11), (0, 3, 12), (5, 2, 13), (5, 3, 14)],
                  [(0, 5, 30)]):                    # fresh far edge
        g = ColoredGraph.from_edges(6, path + extra)
        yield g, path_from_vertices(g, range(6))
    rng = random.Random(77)
    for kind in ("random", "bare_path"):
        for _ in range(80):
            g = random_instance(rng, rng.randint(4, 10), 0.45, kind)
            yield g, longest_rainbow_path(g).best


def chord_fires(report, k, mirror=False):
    """The fresh, nice and window fires as a multiset; with `mirror` set,
    each with its side swapped and its chord position i read as k - i."""
    swap = {"start": "end", "end": "start"}
    out = Counter()
    for f in report.fires:
        family, _, side = f.rule.rpartition("_")
        if family not in ("fresh", "nice", "window"):
            continue
        i = f.anchor[1]
        if mirror:
            side, i = swap[side], k - i
        out[(family, side, i, f.terminals, f.witness.vertices)] += 1
    return out


def test_reversed_profile_is_the_profile_of_the_reversed_path():
    rules = Counter()
    for g, p in mirror_cases():
        prof = compute_profile(g, p)
        back = p.reversed()
        assert back.vertices == p.vertices[::-1]
        rev = prof.reversed()
        assert rev is prof.reversed()
        assert rev == compute_profile(g, back)
        assert rev.reversed() == prof
        report = terminal_rules(g, p, prof)
        assert chord_fires(terminal_rules(g, back), p.length, mirror=True) \
            == chord_fires(report, p.length)
        rules.update(f.rule for f in report.fires)
    # every family fires on both sides somewhere
    for family in ("fresh", "nice", "window"):
        assert rules[family + "_start"] and rules[family + "_end"], family
