"""Exact rainbow path search.

All searches are depth-first over simple paths with a used-vertex bitmask and
a used-color bitmask (Python ints, so palettes of any size work; nothing
special happens at 128 colors). Neighbor lists are visited in ascending
order, which makes every result deterministic. Both kernels read the
neighbour bit table ColoredGraph builds once per graph, on its first search
(`_bits`: per vertex, one (neighbour, 1 << neighbour, 1 << rank) tuple per
edge, in ascending order, a color's rank being its place among the colors in
use); no search rebuilds it, and a spanning query only filters it down to
its vertex set.

longest_rainbow_path and has_rainbow_path share one recursive kernel, _dfs.
It searches for rainbow paths longer than a floor from every root in
ascending DFS order and keeps the first path of the best length, or, with
`first` set, stops at the first path longer than the floor. Its only prune
is the free-vertex/free-color cap: both free counts drop by one per step,
so depth + min(free vertices, free colors) is the constant
min(n - 1, colors in use), and the search stops once the best length
reaches it. longest_rainbow_path is one run from floor 0 under the
caller's budget, and has_rainbow_path(L) one run from floor L - 1 with
`first` set. Each returns the path the kernel recorded: the first of its
length in ascending DFS order, so the lexicographically least (the cap cuts
nothing until the best length reaches the constant, so the single longest
pass meets every path before it records the first of the best length). The
path needs no orientation fix: had its reverse begun at a smaller root,
that root's search, finished before this one began, would have recorded a
path of this length first.

The spanning searches (paths whose vertex set is a given set, the terminal
and auxiliary oracles' question) share one recursive kernel, _span_ends. It
walks from a root in ascending order and, at the first path it finds to
each end still wanted, calls its caller's hook, hit; the hook returns the
ends its caller no longer wants, and the search stops once none is left.
spanning_rainbow_path_from and spanning_rainbow_path_between stop at their
first hit. The auxiliary oracle (terminals.build_aux_oracle) learns pairs
in its hook, from the path and its end rotations, and drops every end
whose pair with the root it knows by then, so one search per root answers
all of that root's endpoint pairs it does not know yet. The wanted set
only shrinks, so a prune decided against it stays sound after it shrinks.
Two prunes keep it sound and small. Each remaining vertex is scored by its
live neighbours among the remaining vertices and the current one: with none
it can never be entered (dead end), and with exactly one it must be the
path's last vertex, so at most one such vertex may exist, it must be a
wanted end, the color of its one edge must still be unused, and if its only
way in is the current vertex it must be the last vertex left. A vertex with
exactly two live neighbours that is not a wanted end can only be passed
through, so both its edges lie on every completion with a hit, and neither
color may be used yet. A wanted end with two ways is not forced: the path may end there through
either edge. The search also steps only where a wanted end stays
unvisited. Every prune cuts only subtrees without a new hit, so each
witness is the first spanning path to its end in ascending DFS order.

The prune is incremental. Stepping from v to w removes exactly v from the
scored set (the remaining vertices and the current one), and live counts
only fall, so only v's remaining neighbours can drop to two ways, one or
none; every other vertex the parent passed with three or more keeps them.
The colors used grow at every step, though, and the wanted ends shrink, so
a vertex whose colors are tested can fail later without losing a way in:
those are the single-way-in vertex and every two-way vertex, wanted or not.
The root scores every remaining vertex; each child rescans only v's
remaining neighbours plus the parent's single-way-in and two-way vertices,
re-tested against the wanted ends left, the colors used and the new
current vertex. The prune makes the decision the full rescan would at
every node, so the search tree is the same. The color tests read one
{neighbour bit: color bit} row per vertex, which _span_prep builds beside
the vertex set's bit table.

Both kernels recurse once per path vertex. A path deeper than the
interpreter's recursion limit (about a thousand vertices) ends the search
with GuardError("search", ...), which the command line reports as a
refusal (exit 3), not as a crash.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import GuardError, PathError, PreconditionError
from .graphs import ColoredGraph


@dataclass(frozen=True)
class RainbowPath:
    """A path v_0..v_l with its edge colors c_1..c_l (colors[i] belongs to
    the edge vertices[i]..vertices[i+1])."""

    vertices: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.vertices) == 0:
            raise PathError("a path has at least one vertex")
        if len(self.colors) != len(self.vertices) - 1:
            raise PathError("need exactly one color per edge")
        if len(set(self.vertices)) != len(self.vertices):
            raise PathError("repeated vertex")

    @classmethod
    def _prechecked(cls, vertices: tuple, colors: tuple) -> "RainbowPath":
        """A path from parts its caller has already checked, without
        checking them again in __post_init__."""
        p = object.__new__(cls)
        object.__setattr__(p, "vertices", vertices)
        object.__setattr__(p, "colors", colors)
        return p

    @property
    def length(self) -> int:
        return len(self.colors)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    def is_rainbow(self) -> bool:
        return len(set(self.colors)) == len(self.colors)

    def reversed(self) -> "RainbowPath":
        """The same path read from its other end."""
        return RainbowPath._prechecked(self.vertices[::-1], self.colors[::-1])


def path_from_vertices(g: ColoredGraph, vertices: Sequence[int]) -> RainbowPath:
    """Build a RainbowPath from a vertex sequence, reading colors off g.

    Raises PathError if the sequence is not a simple path of g.
    """
    vs = tuple(vertices)
    if not vs:
        raise PathError("empty vertex sequence")
    if len(set(vs)) != len(vs):
        raise PathError(f"repeated vertex in {vs}")
    n = g.n
    for v in vs:
        if not (0 <= v < n):
            raise PathError(f"vertex {v} not in graph")
    col = g._col
    colors = []
    for u, v in zip(vs, vs[1:]):
        c = col.get((u, v) if u < v else (v, u))
        if c is None:
            raise PathError(f"missing edge ({u},{v})")
        colors.append(c)
    # the checks above are __post_init__'s, so the path skips them
    return RainbowPath._prechecked(vs, tuple(colors))


def is_rainbow(g: ColoredGraph, path: RainbowPath) -> bool:
    """True iff `path` is a path of g with pairwise distinct edge colors.

    A path that is not a path of g at all (missing edge, wrong recorded
    color) raises PathError; that situation is an error, not merely
    non-rainbow.
    """
    rebuilt = path_from_vertices(g, path.vertices)
    if rebuilt.colors != path.colors:
        raise PathError("recorded colors disagree with the graph")
    return rebuilt.is_rainbow()


@dataclass(frozen=True)
class SearchOutcome:
    best: Optional[RainbowPath]
    proven_optimal: bool
    nodes_expanded: int

    def pinned(self) -> RainbowPath:
        """The proven longest path; GuardError if the budget ran out first,
        PreconditionError on a graph with no vertices (no path at all)."""
        if not self.proven_optimal:
            raise GuardError("search", "budget too small to pin the longest "
                             "rainbow path")
        if self.best is None:
            raise PreconditionError("the graph has no vertices, so no path")
        return self.best


@dataclass(frozen=True)
class ExistsOutcome:
    """found is True/False when decided, None when the budget ran out."""

    found: Optional[bool]
    witness: Optional[RainbowPath]
    nodes_expanded: int


def _too_deep() -> GuardError:
    return GuardError("search", "the path search recursed past the "
                      f"interpreter's limit ({sys.getrecursionlimit()} frames)")


def _dfs(g: ColoredGraph, lim: int, floor: int, first: bool,
         budget: Optional[int]) -> tuple[int, list[int], int, bool]:
    """Rainbow paths longer than `floor` edges, from every root in ascending
    DFS order.

    Keeps the first path of the best length; with `first` set it stops at
    the first path longer than `floor`. `lim` is min(n - 1, colors in use),
    the constant that depth + min(free vertices, free colors) equals at
    every node; the search stops once the best length reaches it. Every
    node is counted, and once the count passes `budget` the search stops.
    Returns (best length, its vertices, nodes expanded, budget exhausted);
    the vertices are [0] while nothing beat `floor`.
    """
    nbrs = g._bits
    stop = sys.maxsize if budget is None else budget
    nodes = 0
    best_len = floor
    best_seq = [0]
    cur: list[int] = []

    def walk(v: int, vmask: int, cmask: int, depth: int) -> bool:
        nonlocal nodes, best_len, best_seq
        nodes += 1
        if nodes > stop:
            return False
        if depth > best_len:
            best_len = depth
            best_seq = cur.copy()
            if first:
                return False
        if lim <= best_len:
            return True
        for (w, wbit, cbit) in nbrs[v]:
            if (vmask & wbit) or (cmask & cbit):
                continue
            cur.append(w)
            ok = walk(w, vmask | wbit, cmask | cbit, depth + 1)
            cur.pop()
            if not ok:
                return False
        return True

    try:
        for s in range(g.n):
            cur = [s]
            if not walk(s, 1 << s, 0, 0):
                break
    except RecursionError:
        raise _too_deep() from None
    return best_len, best_seq, nodes, nodes > stop


def _check_budget(budget: Optional[int]) -> None:
    # budget 0 is a real budget: the search refuses its first node
    if budget is not None and budget < 0:
        raise PreconditionError("search budget must be >= 0")


def longest_rainbow_path(g: ColoredGraph, budget: Optional[int] = None) -> SearchOutcome:
    """Exact longest rainbow path with deterministic tie-breaking.

    budget bounds the total number of DFS node expansions; when it runs out
    the best path found so far is returned with proven_optimal=False.
    """
    _check_budget(budget)
    if g.n == 0:
        return SearchOutcome(None, True, 0)
    lim = min(g.n - 1, len(g.used_colors()))
    _, seq, nodes, exhausted = _dfs(g, lim, 0, False, budget)
    return SearchOutcome(path_from_vertices(g, seq), not exhausted, nodes)


def has_rainbow_path(g: ColoredGraph, length: int,
                     budget: Optional[int] = None) -> ExistsOutcome:
    """Does g contain a rainbow path with exactly `length` edges?

    Returns found=None (unknown) if the budget is exhausted first; a silent
    False is never produced under budget pressure.
    """
    if length < 0:
        raise PreconditionError("path length must be >= 0")
    _check_budget(budget)
    if length == 0:
        if g.n == 0:
            return ExistsOutcome(False, None, 0)
        return ExistsOutcome(True, RainbowPath((0,), ()), 0)
    lim = min(g.n - 1, len(g.used_colors()))
    if length > lim:
        return ExistsOutcome(False, None, 0)
    got, seq, nodes, exhausted = _dfs(g, lim, length - 1, True, budget)
    if exhausted:
        return ExistsOutcome(None, None, nodes)
    if got == length:
        return ExistsOutcome(True, path_from_vertices(g, seq), nodes)
    return ExistsOutcome(False, None, nodes)


# -- spanning-path machinery (terminal and connection oracles) ---------------

def _span_prep(g: ColoredGraph, vset):
    vs = sorted(set(vset))
    for v in vs:
        if not (0 <= v < g.n):
            raise PathError(f"vertex {v} not in graph")
    full = 0
    for v in vs:
        full |= 1 << v
    # the graph's bit table filtered to the vertex set, indexed by vertex,
    # and the same rows as {neighbour bit: color bit}
    bits = g._bits
    adj: list = [()] * g.n
    adj_mask = [0] * g.n
    cols: list = [None] * g.n
    for v in vs:
        row = [t for t in bits[v] if t[1] & full]
        adj[v] = row
        adj_mask[v] = sum(t[1] for t in row)
        cols[v] = {wbit: cbit for (_, wbit, cbit) in row}
    return vs, full, adj, adj_mask, cols


def _span_ends(start: int, full: int, adj, adj_mask, cols, wanted: int,
               hit) -> None:
    """Spanning rainbow paths over the vertex mask `full` from `start`.

    Calls hit(path) at the first path, in ascending DFS order, to each end
    in the mask `wanted` that is still wanted when the search reaches it.
    `path` is the search's own vertex list, valid only during the call. hit
    returns the mask of ends no longer wanted, this one among them, and the
    search stops once no wanted end is left. `adj`, `adj_mask` and `cols`
    are _span_prep's rows of the vertex set.
    """
    cur = [start]
    left = wanted

    def walk(v: int, vmask: int, cmask: int, scan: int) -> bool:
        nonlocal left
        remaining = full & ~vmask
        # Prunes. A remaining vertex needs a live neighbour in remaining or
        # at v to be entered, and two to be left again. So one with none is
        # a dead end, and one with a single way in must be the path's last
        # vertex: at most one may exist, it must be a wanted end, its edge's
        # color must be unused, and if its way in is v itself it must also
        # be the only vertex left. One with exactly two ways that is not a
        # wanted end must be passed through, so both its edges are on the
        # path and neither color may be used yet.
        # Only the vertices in `scan` can fail: the step into v dropped
        # just the previous vertex from the scope, so only its neighbours
        # lost a way in, and the parent's single-way-in and two-way
        # vertices are carried, as the colors used grow and the wanted
        # ends shrink.
        cur_bit = 1 << v
        scope = remaining | cur_bit
        last = 0
        two = 0
        while scan:
            xbit = scan & -scan
            scan ^= xbit
            x = xbit.bit_length() - 1
            live = adj_mask[x] & scope
            more = live & (live - 1)
            if more:
                if more & (more - 1):
                    continue
                two |= xbit
                if not (xbit & left):
                    row = cols[x]
                    if cmask & (row[more] | row[live ^ more]):
                        return False
                continue
            if live == 0 or last or not (xbit & left):
                return False
            if live == cur_bit and remaining != xbit:
                return False
            if cmask & cols[x][live]:
                return False
            last = xbit
        # what a child must rescan, less the child itself
        rescan = (adj_mask[v] & remaining) | last | two
        for (w, wbit, cbit) in adj[v]:
            if (vmask & wbit) or (cmask & cbit):
                continue
            if remaining == wbit:
                # w completes the path; the prune above made it wanted
                cur.append(w)
                left &= ~hit(cur)
                cur.pop()
                return not left
            # step on only if a wanted end stays unvisited behind w
            if not (left & ~(vmask | wbit)):
                continue
            cur.append(w)
            done = walk(w, vmask | wbit, cmask | cbit, rescan & ~wbit)
            cur.pop()
            if done:
                return True
        return False

    try:
        walk(start, 1 << start, 0, full & ~(1 << start))
    except RecursionError:
        raise _too_deep() from None


def _first_span(g: ColoredGraph, start: int, full: int, adj, adj_mask, cols,
                wanted: int) -> Optional[RainbowPath]:
    """The first spanning path from `start` to any end in `wanted`, in
    ascending DFS order; the search stops at it."""
    found = []

    def hit(path) -> int:
        found.append(path.copy())
        return wanted

    _span_ends(start, full, adj, adj_mask, cols, wanted, hit)
    return path_from_vertices(g, found[0]) if found else None


def spanning_rainbow_path_from(g: ColoredGraph, vset, start: int) -> Optional[RainbowPath]:
    """Some rainbow path whose vertex set is exactly `vset`, starting at
    `start`; None if there is none. Returns the first such path in ascending
    DFS order: the first end the search reaches, where it stops."""
    vs, full, adj, adj_mask, cols = _span_prep(g, vset)
    if start not in vs:
        raise PathError(f"start {start} not in vertex set")
    if len(vs) == 1:
        return RainbowPath((start,), ())
    return _first_span(g, start, full, adj, adj_mask, cols, full & ~(1 << start))


def spanning_rainbow_path_between(g: ColoredGraph, vset, u: int, w: int) -> Optional[RainbowPath]:
    """Some rainbow path with vertex set exactly `vset` and endpoints u and w:
    the first one from u in ascending DFS order."""
    vs, full, adj, adj_mask, cols = _span_prep(g, vset)
    if u not in vs or w not in vs or u == w:
        raise PathError("endpoints must be distinct members of the vertex set")
    return _first_span(g, u, full, adj, adj_mask, cols, 1 << w)

