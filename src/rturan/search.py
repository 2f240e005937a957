"""Exact rainbow path search.

All searches are depth-first over simple paths with a used-vertex bitmask and
a used-color bitmask (Python ints, so palettes of any size work; nothing
special happens at 128 colors). Neighbor lists are visited in ascending
order, which makes every result deterministic. Both kernels read the
neighbour bit table ColoredGraph builds once per graph, on its first search
(`_bits`: per vertex, one (neighbour, 1 << neighbour, 1 << color) tuple per
edge, in ascending order); no search rebuilds it, and a spanning query only
filters it down to its vertex set.

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
walks from a root in ascending order and returns at its first hit, or, in
its second mode, keeps going until it has reached every wanted end, so one
search per root answers all of that root's endpoint pairs. Two prunes keep
it sound and small. Each remaining vertex is scored by its live neighbours
among the remaining vertices and the current one: with none it can never be
entered (dead end), and with exactly one it must be the path's last vertex,
so at most one such vertex may exist, it must be a wanted end, and if its
only way in is the current vertex it must be the last vertex left. The
search also steps only where a wanted end stays unvisited. Every prune cuts
only subtrees without a hit, so each witness is the first spanning path in
ascending DFS order, whichever mode found it.

The prune is incremental. Stepping from v to w removes exactly v from the
scored set (the remaining vertices and the current one), and live counts
only fall, so only v's remaining neighbours can drop to one way in or
none; every other vertex the parent passed with two or more keeps them.
The root scores every remaining vertex; each child rescans only v's
remaining neighbours plus the parent's single-way-in vertex, re-tested
against the wanted ends left and against the new current vertex. The
prune makes the decision the full rescan would at every node, so the
search tree is the same.

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


def is_rainbow(g: ColoredGraph, path) -> bool:
    """True iff `path` is a path of g with pairwise distinct edge colors.

    `path` may be a RainbowPath or a bare vertex sequence. A sequence that is
    not a path at all (repeated vertex, missing edge, wrong recorded color)
    raises PathError; that situation is an error, not merely non-rainbow.
    """
    if isinstance(path, RainbowPath):
        rebuilt = path_from_vertices(g, path.vertices)
        if rebuilt.colors != path.colors:
            raise PathError("recorded colors disagree with the graph")
    else:
        rebuilt = path_from_vertices(g, path)
    return rebuilt.is_rainbow()


@dataclass(frozen=True)
class SearchOutcome:
    best: Optional[RainbowPath]
    proven_optimal: bool
    nodes_expanded: int


@dataclass(frozen=True)
class ExistsOutcome:
    """found is True/False when decided, None when the budget ran out."""

    found: Optional[bool]
    witness: Optional[RainbowPath]
    nodes_expanded: int


def _too_deep() -> GuardError:
    return GuardError("search", "the path search recursed past the "
                      f"interpreter's limit ({sys.getrecursionlimit()} frames)")


def _dfs(g: ColoredGraph, floor: int, first: bool,
         budget: Optional[int]) -> tuple[int, list[int], int, bool]:
    """Rainbow paths longer than `floor` edges, from every root in ascending
    DFS order.

    Keeps the first path of the best length; with `first` set it stops at
    the first path longer than `floor`. Every node is counted, and once the
    count passes `budget` the search stops. Returns (best length, its
    vertices, nodes expanded, budget exhausted); the vertices are [0] while
    nothing beat `floor`.
    """
    nbrs = g._bits
    # depth + min(free vertices, free colors) is this constant at every node
    lim = min(g.n - 1, len(g.used_colors()))
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


def longest_rainbow_path(g: ColoredGraph, budget: Optional[int] = None) -> SearchOutcome:
    """Exact longest rainbow path with deterministic tie-breaking.

    budget bounds the total number of DFS node expansions; when it runs out
    the best path found so far is returned with proven_optimal=False.
    """
    if g.n == 0:
        return SearchOutcome(None, True, 0)
    _, seq, nodes, exhausted = _dfs(g, 0, False, budget)
    return SearchOutcome(path_from_vertices(g, seq), not exhausted, nodes)


def has_rainbow_path(g: ColoredGraph, length: int,
                     budget: Optional[int] = None) -> ExistsOutcome:
    """Does g contain a rainbow path with exactly `length` edges?

    Returns found=None (unknown) if the budget is exhausted first; a silent
    False is never produced under budget pressure.
    """
    if length < 0:
        raise PreconditionError("path length must be >= 0")
    if length == 0:
        if g.n == 0:
            return ExistsOutcome(False, None, 0)
        return ExistsOutcome(True, RainbowPath((0,), ()), 0)
    if length > min(g.n - 1, len(g.used_colors())):
        return ExistsOutcome(False, None, 0)
    got, seq, nodes, exhausted = _dfs(g, length - 1, True, budget)
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
    # the graph's bit table filtered to the vertex set, indexed by vertex
    bits = g._bits
    adj: list = [()] * g.n
    adj_mask = [0] * g.n
    for v in vs:
        row = [t for t in bits[v] if t[1] & full]
        adj[v] = row
        adj_mask[v] = sum(t[1] for t in row)
    return vs, full, adj, adj_mask


def _span_ends(start: int, full: int, adj, adj_mask, wanted: int,
               first: bool) -> dict:
    """Spanning rainbow paths over the vertex mask `full` from `start`.

    Returns {end: vertex list} holding, for each end in the mask `wanted`
    that some such path reaches, the first path to it in ascending DFS
    order. With `first` set the search stops at its first hit; otherwise it
    stops once every wanted end is reached.
    """
    hits: dict = {}
    cur = [start]
    left = wanted

    def walk(v: int, vmask: int, cmask: int, scan: int) -> bool:
        nonlocal left
        remaining = full & ~vmask
        # Prunes. A remaining vertex needs a live neighbour in remaining or
        # at v to be entered, and two to be left again. So one with none is
        # a dead end, and one with a single way in must be the path's last
        # vertex: at most one may exist, it must be a wanted end, and if
        # its way in is v itself it must also be the only vertex left.
        # Only the vertices in `scan` can fail: the step into v dropped
        # just the previous vertex from the scope, so only its neighbours
        # lost a way in, and the parent's single-way-in vertex is carried.
        cur_bit = 1 << v
        scope = remaining | cur_bit
        last = 0
        while scan:
            xbit = scan & -scan
            scan ^= xbit
            live = adj_mask[xbit.bit_length() - 1] & scope
            if live & (live - 1):
                continue
            if live == 0 or last or not (xbit & left):
                return False
            if live == cur_bit and remaining != xbit:
                return False
            last = xbit
        # what a child must rescan, less the child itself
        rescan = (adj_mask[v] & remaining) | last
        for (w, wbit, cbit) in adj[v]:
            if (vmask & wbit) or (cmask & cbit):
                continue
            if remaining == wbit:
                # w completes the path; the prune above made it wanted
                cur.append(w)
                hits[w] = cur.copy()
                cur.pop()
                left ^= wbit
                return first or not left
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
    return hits


def spanning_rainbow_path_from(g: ColoredGraph, vset, start: int) -> Optional[RainbowPath]:
    """Some rainbow path whose vertex set is exactly `vset`, starting at
    `start`; None if there is none. Returns the first such path in ascending
    DFS order and stops there."""
    vs, full, adj, adj_mask = _span_prep(g, vset)
    if start not in vs:
        raise PathError(f"start {start} not in vertex set")
    if len(vs) == 1:
        return RainbowPath((start,), ())
    hits = _span_ends(start, full, adj, adj_mask, full & ~(1 << start), True)
    return path_from_vertices(g, hits.popitem()[1]) if hits else None


def spanning_rainbow_path_between(g: ColoredGraph, vset, u: int, w: int) -> Optional[RainbowPath]:
    """Some rainbow path with vertex set exactly `vset` and endpoints u and w:
    the first one from u in ascending DFS order."""
    vs, full, adj, adj_mask = _span_prep(g, vset)
    if u not in vs or w not in vs or u == w:
        raise PathError("endpoints must be distinct members of the vertex set")
    hits = _span_ends(u, full, adj, adj_mask, 1 << w, True)
    return path_from_vertices(g, hits[w]) if hits else None


def spanning_rainbow_ends_from(g: ColoredGraph, vset, start: int,
                               ends) -> frozenset:
    """The members w of `ends` for which some rainbow path with vertex set
    exactly `vset` joins `start` to w, found in one search.

    Equals the set of w with spanning_rainbow_path_between(g, vset, start, w)
    not None; that call returns the witness.
    """
    vs, full, adj, adj_mask = _span_prep(g, vset)
    if start not in vs:
        raise PathError(f"start {start} not in vertex set")
    wanted = 0
    for w in ends:
        if w not in vs or w == start:
            raise PathError("ends must be members of the vertex set other "
                            "than the start")
        wanted |= 1 << w
    if not wanted:
        return frozenset()
    return frozenset(_span_ends(start, full, adj, adj_mask, wanted, False))
