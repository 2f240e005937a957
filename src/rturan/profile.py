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

The v_k end is the v_0 end of P read backwards, so one routine reads both
ends, each counted from its own end, and the profile maps the v_k record's
positions back with i -> k - i. reversed() is the profile of P read from
v_k: start and end swap, and every position i becomes k - i. It reuses the
two end records, reads nothing from the graph, and is built once per
profile.

Everything is computed from the graph as-is. The partition facts that need
P to be a longest rainbow path (e.g. every fresh endpoint color sits on a
chord) are checked by the claim layer, not assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
    _ends: tuple = field(repr=False, compare=False)  # (v_0 end, v_k end)

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

    def reversed(self) -> "PathProfile":
        """The profile of the path read from v_k, built from this one's two
        ends without reading the graph; kept after the first call."""
        rev = self.__dict__.get("_reversed")
        if rev is None:
            head, tail = self._ends
            rev = _assemble(self.path.reversed(), tail, head)
            self.__dict__["_reversed"] = rev
        return rev

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


class _End(NamedTuple):
    """One end of a path, read with that end as v_0."""
    chords: dict        # i -> color of edge v_0 v_i
    colors: frozenset   # every color at v_0
    new: frozenset      # those not on the path
    swaps: frozenset    # c_i for each fresh chord v_0 v_i, 2 <= i <= k
    top: tuple          # largest and second-largest fresh chord positions,
                        # (None, None) with fewer than two


def _end(g: ColoredGraph, path: RainbowPath) -> _End:
    verts, colors = path.vertices, path.colors
    pos = {v: i for i, v in enumerate(verts)}
    nbrs = g.neighbors(verts[0])
    chords = {pos[w]: c for (w, c) in nbrs if w in pos}
    at = frozenset(c for (_, c) in nbrs)
    new = at - frozenset(colors)
    fresh = sorted((i for i, c in chords.items() if c in new), reverse=True)
    swaps = frozenset(colors[i - 1] for i in fresh if i >= 2)
    top = tuple(fresh[:2]) if len(fresh) >= 2 else (None, None)
    return _End(chords, at, new, swaps, top)


def _assemble(path: RainbowPath, head: _End, tail: _End) -> PathProfile:
    """The profile of path from its v_0 end `head` and its v_k end `tail`,
    each counted from its own end."""
    k = path.length
    start_in = frozenset(head.chords.values())
    end_in = frozenset(tail.chords.values())
    # an out color can repeat on a chord only through improper coloring;
    # out is by definition the complement of in within the endpoint colors
    start_out = head.colors - start_in
    end_out = tail.colors - end_in
    start_old = head.colors - head.new
    end_old = tail.colors - tail.new
    start_nice = head.colors & tail.swaps
    end_nice = tail.colors & head.swaps
    lo_outer, lo = (None if i is None else k - i for i in tail.top)
    return PathProfile(
        path=path,
        start_chords=head.chords,
        end_chords={k - i: c for i, c in tail.chords.items()},
        start_colors=head.colors,
        end_colors=tail.colors,
        start_out=start_out,
        start_in=start_in,
        start_old=start_old,
        start_new=head.new,
        end_out=end_out,
        end_in=end_in,
        end_old=end_old,
        end_new=tail.new,
        swap_from_start=head.swaps,
        swap_from_end=tail.swaps,
        start_nice=start_nice,
        end_nice=end_nice,
        start_res=start_old - (start_nice | start_out),
        end_res=end_old - (end_nice | end_out),
        win_lo_outer=lo_outer,
        win_lo=lo,
        win_hi=head.top[1],
        win_hi_outer=head.top[0],
        _ends=(head, tail),
    )


def compute_profile(g: ColoredGraph, pstar: RainbowPath) -> PathProfile:
    """Profile of the rainbow path pstar in g (pstar must have >= 1 edge)."""
    if not is_rainbow(g, pstar):
        raise PathError("profile needs a rainbow path")
    if pstar.length < 1:
        raise PathError("profile needs a path with at least one edge")
    return _assemble(pstar, _end(g, pstar), _end(g, pstar.reversed()))
