"""Profile of one fully worked instance.

The graph: path 0-1-2-3-4-5 with edge colors 0,1,2,3,4, plus chords
(0,3) color 9, (0,4) color 10, (5,1) color 8, (5,2) color 7, and the far
edge (0,5) with the old color 2. Every set below was derived by hand from
the definitions before being asserted.
"""

import json
import random
from collections import Counter

import pytest

from rturan.cli import main
from rturan.corpus import random_instance
from rturan.errors import PathError
from rturan.graphs import ColoredGraph, save_graph, validate_proper
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
    assert prof.start.chords == {1: 0, 3: 9, 4: 10, 5: 2}
    # counted from v_5: the chord v_5 v_j sits at 5 - j
    assert prof.end.chords == {1: 4, 4: 8, 3: 7, 5: 2}


def test_endpoint_color_partitions():
    _, prof = hand_profile()
    start, end = prof.start, prof.end
    assert start.colors == frozenset({0, 9, 10, 2})
    assert start.out == frozenset()
    assert start.in_ == start.colors
    assert start.old == frozenset({0, 2})
    assert start.new == frozenset({9, 10})
    assert end.colors == frozenset({4, 8, 7, 2})
    assert end.old == frozenset({4, 2})
    assert end.new == frozenset({8, 7})


def test_swap_sets():
    _, prof = hand_profile()
    assert prof.start.swaps == frozenset({2, 3})
    assert prof.end.swaps == frozenset({1, 2})


def test_nice_and_residue():
    _, prof = hand_profile()
    assert prof.start.nice == frozenset({2})
    assert prof.end.nice == frozenset({2})
    assert prof.start.res == frozenset({0})
    assert prof.end.res == frozenset({4})


def test_pivots_and_window():
    _, prof = hand_profile()
    # fresh chords v_0 v_3, v_0 v_4 and v_5 v_1, v_5 v_2 (1 and 2 are 4
    # and 3 counted from v_5)
    assert prof.start.top == (4, 3) and prof.end.top == (4, 3)
    assert (prof.win_lo, prof.win_hi) == (2, 3)
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
    assert prof.start.out == frozenset({5})
    assert prof.start.in_ == frozenset({0})
    assert prof.start.res == frozenset({0})


def test_missing_pivots_are_none():
    g = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 1)], num_colors=2)
    prof = compute_profile(g, path_from_vertices(g, [0, 1, 2]))
    assert prof.win_lo is None and prof.start.top == (None, None)
    assert not prof.pivots_present
    assert prof.far_edge_color is None and not prof.far_edge_is_new


PROFILE_TEXT = """\
path (5 edges): 0,1,2,3,4,5
      start_colors ( 4): 0,2,9,10
        end_colors ( 4): 2,4,7,8
         start_out ( 0): -
           end_out ( 0): -
         start_old ( 2): 0,2
           end_old ( 2): 2,4
         start_new ( 2): 9,10
           end_new ( 2): 7,8
   swap_from_start ( 2): 2,3
     swap_from_end ( 2): 1,2
        start_nice ( 1): 2
          end_nice ( 1): 2
         start_res ( 1): 0
           end_res ( 1): 4
  pivots: win_lo_outer=1, win_lo=2, win_hi=3, win_hi_outer=4
  far edge: color 2 (old)
"""


def test_cli_profile_of_the_hand_graph(tmp_path, capsys):
    path = str(tmp_path / "hand.txt")
    save_graph(hand_graph(), path)
    argv = ["engine", "profile", path, "--path", "0,1,2,3,4,5"]
    assert main(argv) == 0
    assert capsys.readouterr().out == PROFILE_TEXT
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "path": {"vertices": [0, 1, 2, 3, 4, 5], "colors": [0, 1, 2, 3, 4],
                 "edges": 5},
        "k": 5, "far_edge_color": 2, "far_edge_is_new": False,
        "sets": {"start_colors": [0, 2, 9, 10], "end_colors": [2, 4, 7, 8],
                 "start_out": [], "end_out": [],
                 "start_old": [0, 2], "end_old": [2, 4],
                 "start_new": [9, 10], "end_new": [7, 8],
                 "swap_from_start": [2, 3], "swap_from_end": [1, 2],
                 "start_nice": [2], "end_nice": [2],
                 "start_res": [0], "end_res": [4]},
        "pivots": {"win_lo_outer": 1, "win_lo": 2, "win_hi": 3,
                   "win_hi_outer": 4},
    }


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


def chord_fires(report, mirror=False):
    """The fresh, nice and window fires as a multiset of (family, side,
    witness vertices); with `mirror` set, each with its side swapped. Each
    chord of a family gives a different witness, so the witness tells the
    chords apart."""
    swap = {"start": "end", "end": "start"}
    out = Counter()
    for f in report.fires:
        family, _, side = f.rule.rpartition("_")
        if family not in ("fresh", "nice", "window"):
            continue
        if mirror:
            side = swap[side]
        out[(family, side, f.witness.vertices)] += 1
    return out


def test_reversed_profile_is_the_profile_of_the_reversed_path():
    rules = Counter()
    for g, p in mirror_cases():
        prof = compute_profile(g, p)
        back = p.reversed()
        assert back.vertices == p.vertices[::-1]
        rev = prof.reversed()
        assert (rev.start, rev.end) == (prof.end, prof.start)
        assert rev == compute_profile(g, back)
        assert rev.reversed() == prof
        report = terminal_rules(g, prof)
        assert chord_fires(terminal_rules(g, rev), mirror=True) \
            == chord_fires(report)
        rules.update(f.rule for f in report.fires)
    # every family fires on both sides somewhere
    for family in ("fresh", "nice", "window"):
        assert rules[family + "_start"] and rules[family + "_end"], family
