"""Exhaustive small-case answers used to cross-check everything else.

Colorings are enumerated canonically: colors appear in first-use order, so
each proper coloring is produced once per color-relabeling class. The
avoidance search prunes the moment a placed color completes a rainbow path
of the forbidden length through the new edge, which is both sound (any bad
path is caught when its last edge lands) and fast (conflicts die early).
Its walks carry vertex and colour bitmasks over per-vertex (neighbour,
1 << neighbour, 1 << colour) tuples, the idiom of search._dfs.

The extremal scan runs the same kernel with a floor `least` on the number of
coloured edges: each edge of the complete graph may also stay uncoloured
(None in the yielded tuple), a branch tried after every colour and taken only
while the coloured edges can still reach `least`. One call therefore searches
every canonical avoiding coloring of every edge subset of at least `least`
edges, and the scan lowers `least` from all pairs to the first hit, whose
coloured edges are the exact maximum and its witness. Vertex counts above the
guard, or a K_n or witness past graphs.check_size, are refused before they
are built, and so is a walk deeper than the interpreter allows.

The scan walks K_n's edges in row order, (0,1), (0,2), ..., (1,2), ..., with
two lex-leader rules that skip the colour branches of an edge:
- row prefix: (u, v) stays uncoloured when (u, v-1) did and neither v-1 nor
  v has a coloured edge yet;
- degree cap: after row 0, (u, v) stays uncoloured when u or v already has
  as many coloured edges as vertex 0.
The scan keeps the first hit in branch order (colours first, then None), and
relabelling the vertices turns a hit that breaks a rule into an earlier one:
swapping v-1 and v colours (u, v-1) with the prefix unchanged, and moving a
vertex of higher degree to 0, its neighbours to 1, 2, ..., makes row 0 longer.
So the first hit obeys both rules, and the scan gives the same value and
witness as one over every labelled edge subset, trying far fewer of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import GuardError, PreconditionError, too_deep
from .graphs import ColoredGraph, GraphSkeleton, check_size, complete_graph

COLORING_EDGE_GUARD = 15
EXSTAR_VERTEX_GUARD = 7


def _colorings(n: int, edges: tuple, avoid: Optional[int],
               least: Optional[int] = None, *,
               leader: bool = False) -> Iterator[tuple]:
    # at least `least` edges coloured (default: all), the others None.
    # `leader` turns on the lex-leader rules of the module docstring. They
    # cut only hits that a vertex relabelling moves earlier, and that holds
    # only when `edges` are K_n's in row order, as exstar_small passes them.
    m = len(edges)
    at = [0] * n  # colour mask at each vertex
    adj: list = [[] for _ in range(n)]  # (w, 1 << w, 1 << c) per placed edge
    chosen = [0] * m
    far = 0  # the second end of the edge just placed

    def right(y: int, vmask: int, cmask: int, rem: int) -> bool:
        # a rainbow path of `rem` more edges from y, off vmask and cmask?
        if rem == 0:
            return True
        for (w, wbit, cbit) in adj[y]:
            if (vmask & wbit) or (cmask & cbit):
                continue
            if right(w, vmask | wbit, cmask | cbit, rem - 1):
                return True
        return False

    def left(x: int, vmask: int, cmask: int, rem: int) -> bool:
        # grow the path back from x, and at every length try to finish it
        # from `far` with the `rem` edges still missing
        if right(far, vmask, cmask, rem):
            return True
        for (w, wbit, cbit) in adj[x]:
            if (vmask & wbit) or (cmask & cbit):
                continue
            if left(w, vmask | wbit, cmask | cbit, rem - 1):
                return True
        return False

    def rec(i, fresh, spare):
        # spare: how many of the edges from i on may still stay uncoloured
        nonlocal far
        if i == m:
            yield tuple(chosen)
            return
        u, v = edges[i]
        ubit, vbit = 1 << u, 1 << v
        busy = at[u] | at[v]
        top = fresh + 1
        if leader:
            if v > u + 1 and chosen[i - 1] is None and not (at[v - 1] | at[v]):
                top = 0  # swapping v - 1 and v colours (u, v - 1) instead
            elif i >= n - 1:
                cap = at[0].bit_count()
                if at[u].bit_count() >= cap or at[v].bit_count() >= cap:
                    top = 0  # a vertex of higher degree could be vertex 0
        for c in range(top):
            cbit = 1 << c
            if busy & cbit:
                continue
            at[u] |= cbit
            at[v] |= cbit
            adj[u].append((v, vbit, cbit))
            adj[v].append((u, ubit, cbit))
            chosen[i] = c
            far = v
            # a rainbow path with `avoid` edges running through the edge u-v?
            if avoid is None or not left(u, ubit | vbit, cbit, avoid - 1):
                yield from rec(i + 1, fresh + (1 if c == fresh else 0), spare)
            at[u] ^= cbit
            at[v] ^= cbit
            adj[u].pop()
            adj[v].pop()
        if spare > 0:
            chosen[i] = None
            yield from rec(i + 1, fresh, spare - 1)

    try:
        yield from rec(0, 0, 0 if least is None else m - least)
    except RecursionError:
        raise too_deep("colorings", "the coloring walk") from None


def _check_coloring_guard(skel: GraphSkeleton, guard: int) -> None:
    if skel.m > guard:
        raise GuardError("colorings",
                         f"{skel.m} edges exceed the exhaustive guard {guard}")


def proper_colorings(skel: GraphSkeleton, avoid: Optional[int] = None,
                     guard: int = COLORING_EDGE_GUARD) -> Iterator[ColoredGraph]:
    """All canonical proper colorings of skel, optionally only those with
    no rainbow path of `avoid` edges. A bad `avoid` or a skeleton over the
    guard is refused at the call, before the first coloring is asked for."""
    if avoid is not None and avoid < 1:
        raise PreconditionError("the forbidden path length must be >= 1 edge")
    _check_coloring_guard(skel, guard)
    return (skel.with_colors(cs)
            for cs in _colorings(skel.n, skel.edges, avoid))


def count_proper_colorings(skel: GraphSkeleton,
                           guard: int = COLORING_EDGE_GUARD) -> int:
    _check_coloring_guard(skel, guard)
    return sum(1 for _ in _colorings(skel.n, skel.edges, None))


def coloring_avoiding(skel: GraphSkeleton, path_edges: int,
                      guard: int = COLORING_EDGE_GUARD) -> Optional[ColoredGraph]:
    """First canonical proper coloring without a rainbow path of the given
    edge count, or None when every proper coloring has one."""
    return next(proper_colorings(skel, avoid=path_edges, guard=guard), None)


def _check_args(n: int, path_edges: int) -> None:
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    if path_edges < 1:
        raise PreconditionError("the forbidden path length must be >= 1 edge")


@dataclass(frozen=True)
class ExstarResult:
    n: int
    path_edges: int
    value: int
    witness: ColoredGraph  # an extremal coloring with no forbidden path


def exstar_small(n: int, path_edges: int,
                 guard: int = EXSTAR_VERTEX_GUARD) -> ExstarResult:
    """Exact maximum edge count of an n-vertex graph that admits a proper
    coloring without a rainbow path of `path_edges` edges."""
    _check_args(n, path_edges)
    if n > guard:
        raise GuardError("exstar",
                         f"n={n} exceeds the exhaustive guard {guard}")
    if path_edges == 2:
        check_size("exstar", n, n // 2)
        # one rainbow-free shape only: a matching (any two touching edges
        # get distinct colors under a proper coloring, which is a rainbow
        # two-edge path already)
        pairs = [(2 * i, 2 * i + 1, i) for i in range(n // 2)]
        witness = ColoredGraph.from_edges(n, pairs, num_colors=max(1, n // 2))
        return ExstarResult(n, path_edges, n // 2, witness)

    check_size("exstar", n, n * (n - 1) // 2)
    all_edges = complete_graph(n).edges
    for least in range(len(all_edges), -1, -1):
        cs = next(_colorings(n, all_edges, path_edges, least, leader=True),
                  None)
        if cs is not None:
            kept = [(u, v, c) for (u, v), c in zip(all_edges, cs)
                    if c is not None]
            witness = ColoredGraph.from_edges(n, kept)
            return ExstarResult(n, path_edges, len(kept), witness)
    raise AssertionError("an edgeless graph avoids every path")


def erdos_gallai_bound(n: int, path_edges: int) -> Fraction:
    """Classical edge ceiling for graphs with no path of `path_edges` edges
    (colorings aside)."""
    _check_args(n, path_edges)
    return Fraction((path_edges - 1) * n, 2)


def packing_edge_count(n: int, path_edges: int) -> int:
    _check_args(n, path_edges)
    size = path_edges
    rest = n % size
    return (size * (size - 1) // 2) * (n // size) + rest * (rest - 1) // 2


def clique_packing(n: int, path_edges: int) -> ColoredGraph:
    """Disjoint cliques on `path_edges` vertices (plus a remainder clique),
    properly colored. Components are too small to hold the forbidden path,
    rainbow or not, so this witnesses the classical lower bound."""
    check_size("construct", n, packing_edge_count(n, path_edges))
    size = path_edges
    edges = []
    palette = 1
    start = 0
    while start < n:
        block = min(size, n - start)
        for u in range(block):
            for v in range(u + 1, block):
                edges.append((start + u, start + v, (u + v) % block))
        if block >= 2:
            palette = max(palette, block)
        start += block
    return ColoredGraph.from_edges(n, edges, num_colors=palette)
