"""Color profile of a rainbow path inside a properly colored graph.

Fix a rainbow path P = v_0 v_1 .. v_k with edge colors c_1 .. c_k (c_i on
the edge v_{i-1} v_i). Looking from the two endpoints:

  start_colors / end_colors   all colors at v_0 / at v_k (properness makes
                              these as large as the degrees)
  *_out / *_in                colors on edges leaving the path's vertex set
                              vs. staying on it
  *_old / *_new               colors already on P vs. fresh ones
  swap_from_start             path colors c_j freed by a fresh chord v_0 v_j
                              (the rotation v_{j-1}..v_0 v_j..v_k drops c_j);
                              generated by indices 2 <= j <= k
  swap_from_end               path colors c_{j+1} freed by a fresh chord
                              v_k v_j, indices 0 <= j <= k-2
  start_nice / end_nice       endpoint colors that are also swap colors from
                              the opposite end
  start_res / end_res         what is left: old, not nice, not leaving

Pivot indices (None when fewer than two fresh chords exist on that side):
win_lo / win_lo_outer are the second-smallest / smallest j with a fresh
chord v_k v_j; win_hi / win_hi_outer the second-largest / largest j with a
fresh chord v_0 v_j. The window claims run on [win_lo, win_hi].

Everything is computed from the graph as-is. The partition facts that need
P to be a longest rainbow path (e.g. every fresh endpoint color sits on a
chord) are checked by the claim layer, not assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PathError
from .graphs import ColoredGraph
from .search import RainbowPath, is_rainbow


@dataclass(frozen=True)
class PathProfile:
    path: RainbowPath
    start_chords: dict  # i -> color of edge v_0 v_i (includes i=1, the path edge)
    end_chords: dict    # i -> color of edge v_k v_i (includes i=k-1)

    start_colors: frozenset
    end_colors: frozenset
    start_out: frozenset
    start_in: frozenset
    start_old: frozenset
    start_new: frozenset
    end_out: frozenset
    end_in: frozenset
    end_old: frozenset
    end_new: frozenset
    swap_from_start: frozenset
    swap_from_end: frozenset
    start_nice: frozenset
    end_nice: frozenset
    start_res: frozenset
    end_res: frozenset

    win_lo_outer: Optional[int]
    win_lo: Optional[int]
    win_hi: Optional[int]
    win_hi_outer: Optional[int]

    @property
    def k(self) -> int:
        return self.path.length

    @property
    def path_colors(self) -> tuple[int, ...]:
        return self.path.colors

    @property
    def pivots_present(self) -> bool:
        return self.win_lo is not None and self.win_hi is not None

    @property
    def far_edge_color(self) -> Optional[int]:
        """Color of the chord v_0 v_k if that edge exists."""
        return self.start_chords.get(self.k)

    @property
    def far_edge_is_new(self) -> bool:
        """True when v_0 v_k exists and carries a fresh color for either end
        (the whole-path jump applies and the window analysis is skipped)."""
        c = self.far_edge_color
        return c is not None and (c in self.start_new or c in self.end_new)

    # ranged chord counts, range boundaries inclusive and clipped

    def _count(self, chords: dict, members: frozenset, lo: int, hi: int) -> int:
        return sum(1 for i, c in chords.items() if lo <= i <= hi and c in members)

    def n_start_nice(self, lo: int, hi: int) -> int:
        return self._count(self.start_chords, self.start_nice, lo, hi)

    def n_start_new(self, lo: int, hi: int) -> int:
        return self._count(self.start_chords, self.start_new, lo, hi)

    def n_end_nice(self, lo: int, hi: int) -> int:
        return self._count(self.end_chords, self.end_nice, lo, hi)

    def n_end_new(self, lo: int, hi: int) -> int:
        return self._count(self.end_chords, self.end_new, lo, hi)


def _two_smallest(indices):
    s = sorted(indices)
    return (s[0], s[1]) if len(s) >= 2 else (None, None)


def compute_profile(g: ColoredGraph, pstar: RainbowPath) -> PathProfile:
    """Profile of the rainbow path pstar in g (pstar must have >= 1 edge)."""
    if not is_rainbow(g, pstar):
        raise PathError("profile needs a rainbow path")
    if pstar.length < 1:
        raise PathError("profile needs a path with at least one edge")

    verts = pstar.vertices
    k = pstar.length
    on_path = set(verts)
    pos = {v: i for i, v in enumerate(verts)}
    v0, vk = verts[0], verts[-1]
    old = frozenset(pstar.colors)

    def split(v):
        out, chords = set(), {}
        for (w, c) in g.neighbors(v):
            if w in on_path:
                chords[pos[w]] = c
            else:
                out.add(c)
        return frozenset(out), chords

    start_out_raw, start_chords = split(v0)
    end_out_raw, end_chords = split(vk)

    start_colors = frozenset(c for (_, c) in g.neighbors(v0))
    end_colors = frozenset(c for (_, c) in g.neighbors(vk))
    start_in = frozenset(start_chords.values())
    end_in = frozenset(end_chords.values())
    # an out color can repeat on a chord only through improper coloring;
    # out is by definition the complement of in within the endpoint colors
    start_out = start_colors - start_in
    end_out = end_colors - end_in
    start_old = start_colors & old
    start_new = start_colors - old
    end_old = end_colors & old
    end_new = end_colors - old

    swap_from_start = frozenset(
        pstar.colors[i - 1] for i, c in start_chords.items()
        if c in start_new and 2 <= i <= k)
    swap_from_end = frozenset(
        pstar.colors[i] for i, c in end_chords.items()
        if c in end_new and 0 <= i <= k - 2)

    start_nice = start_colors & swap_from_end
    end_nice = end_colors & swap_from_start
    start_res = start_old - (start_nice | start_out)
    end_res = end_old - (end_nice | end_out)

    lo_outer, lo = _two_smallest(
        i for i, c in end_chords.items() if c in end_new)
    hi_outer, hi = _two_smallest(
        -i for i, c in start_chords.items() if c in start_new)
    win_hi_outer = -hi_outer if hi_outer is not None else None
    win_hi = -hi if hi is not None else None

    return PathProfile(
        path=pstar,
        start_chords=start_chords,
        end_chords=end_chords,
        start_colors=start_colors,
        end_colors=end_colors,
        start_out=start_out,
        start_in=start_in,
        start_old=start_old,
        start_new=start_new,
        end_out=end_out,
        end_in=end_in,
        end_old=end_old,
        end_new=end_new,
        swap_from_start=swap_from_start,
        swap_from_end=swap_from_end,
        start_nice=start_nice,
        end_nice=end_nice,
        start_res=start_res,
        end_res=end_res,
        win_lo_outer=lo_outer,
        win_lo=lo,
        win_hi=win_hi,
        win_hi_outer=win_hi_outer,
    )
