"""Color profile of a rainbow path inside a properly colored graph.

Fix a rainbow path P = v_0 v_1 .. v_k with edge colors c_1 .. c_k (c_i on
the edge v_{i-1} v_i). PathProfile holds one End record per endpoint:
`start` for v_0 and `end` for v_k. Each record reads its path with that
endpoint as v_0, so its positions count from its own end: position i of
`end` is position k - i on P. A record's fields, at its endpoint x:

  chords      i -> color of the edge x v_i (includes the path edge)
  colors      all colors at x (properness makes this as large as the degree)
  out / in_   colors on edges leaving the path's vertex set vs. on chords
  old / new   colors already on P vs. fresh ones
  swaps       path colors c_i freed by a fresh chord x v_i, 2 <= i <= k
              (the rotation v_{i-1}..v_0 v_i..v_k drops c_i)
  nice        colors at x that are also swap colors of the other end
  res         what is left: old, not nice, not leaving
  top         the largest and second-largest fresh chord positions,
              (None, None) with fewer than two

The window claims read positions on P: win_hi is the second-largest i with
a fresh chord v_0 v_i, win_lo the second-smallest j with a fresh chord
v_k v_j, and the ranged counters n_{start,end}_{new,nice} count chords by
their position on P. reversed() is the profile of P read from v_k: the two
records swap, and nothing is read from the graph.

Everything is computed from the graph as-is. The partition facts that need
P to be a longest rainbow path (e.g. every fresh endpoint color sits on a
chord) are checked by the claim layer, not assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import PathError
from .graphs import ColoredGraph
from .search import RainbowPath, is_rainbow


class End(NamedTuple):
    """One end of a path, read with that end as v_0 (fields in the module
    docstring). nice and res need the other end's swaps, so compute_profile
    fills them in once both ends are read."""
    chords: dict
    colors: frozenset
    out: frozenset
    in_: frozenset
    old: frozenset
    new: frozenset
    swaps: frozenset
    top: tuple
    nice: frozenset = frozenset()
    res: frozenset = frozenset()


@dataclass(frozen=True)
class PathProfile:
    path: RainbowPath
    start: End   # the v_0 end
    end: End     # the v_k end, positions counted from v_k

    @property
    def k(self) -> int:
        return self.path.length

    @property
    def path_colors(self) -> tuple[int, ...]:
        return self.path.colors

    @property
    def win_lo(self) -> Optional[int]:
        i = self.end.top[1]
        return None if i is None else self.k - i

    @property
    def win_hi(self) -> Optional[int]:
        return self.start.top[1]

    @property
    def pivots_present(self) -> bool:
        return self.win_lo is not None and self.win_hi is not None

    @property
    def far_edge_color(self) -> Optional[int]:
        """Color of the chord v_0 v_k if that edge exists."""
        return self.start.chords.get(self.k)

    @property
    def far_edge_is_new(self) -> bool:
        """True when v_0 v_k exists and carries a fresh color for either end
        (the whole-path jump applies and the window analysis is skipped)."""
        c = self.far_edge_color
        return c is not None and (c in self.start.new or c in self.end.new)

    def reversed(self) -> "PathProfile":
        """The profile of the path read from v_k."""
        return PathProfile(self.path.reversed(), self.end, self.start)

    # ranged chord counts by position on P, range boundaries inclusive and
    # clipped

    def n_start_nice(self, lo: int, hi: int) -> int:
        return _count(self.start, self.start.nice, lo, hi)

    def n_start_new(self, lo: int, hi: int) -> int:
        return _count(self.start, self.start.new, lo, hi)

    def n_end_nice(self, lo: int, hi: int) -> int:
        return _count(self.end, self.end.nice, self.k - hi, self.k - lo)

    def n_end_new(self, lo: int, hi: int) -> int:
        return _count(self.end, self.end.new, self.k - hi, self.k - lo)


def _count(end: End, members: frozenset, lo: int, hi: int) -> int:
    return sum(1 for i, c in end.chords.items() if lo <= i <= hi and c in members)


def _end(g: ColoredGraph, path: RainbowPath) -> End:
    verts, colors = path.vertices, path.colors
    pos = {v: i for i, v in enumerate(verts)}
    nbrs = g.neighbors(verts[0])
    chords = {pos[w]: c for (w, c) in nbrs if w in pos}
    at = frozenset(c for (_, c) in nbrs)
    new = at - frozenset(colors)
    fresh = sorted((i for i, c in chords.items() if c in new), reverse=True)
    swaps = frozenset(colors[i - 1] for i in fresh if i >= 2)
    top = tuple(fresh[:2]) if len(fresh) >= 2 else (None, None)
    in_ = frozenset(chords.values())
    # an out color can repeat on a chord only through improper coloring;
    # out is by definition the complement of in within the endpoint colors
    return End(chords, at, at - in_, in_, at - new, new, swaps, top)


def _nice(end: End, far: End) -> End:
    """end with its nice colors, those the far end's swaps free, and its
    residue."""
    nice = end.colors & far.swaps
    return end._replace(nice=nice, res=end.old - (nice | end.out))


def compute_profile(g: ColoredGraph, pstar: RainbowPath) -> PathProfile:
    """Profile of the rainbow path pstar in g (pstar must have >= 1 edge)."""
    if not is_rainbow(g, pstar):
        raise PathError("profile needs a rainbow path")
    if pstar.length < 1:
        raise PathError("profile needs a path with at least one edge")
    head, tail = _end(g, pstar), _end(g, pstar.reversed())
    return PathProfile(pstar, _nice(head, tail), _nice(tail, head))
