"""Exact rainbow path search.

All searches are depth-first over simple paths with a used-vertex bitmask and
a used-color bitmask (Python ints, so palettes of any size work; nothing
special happens at 128 colors). Neighbor lists are visited in ascending
order, which makes every result deterministic.

longest_rainbow_path proves optimality in two phases: an aggressively pruned
pass establishes the exact length, then a second ordered pass retrieves the
lexicographically least witness of that length (the first one found in
ascending DFS order; since the reverse of a path is also a path, that
sequence necessarily starts at its smaller endpoint).

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import PathError, PreconditionError
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

    @property
    def length(self) -> int:
        return len(self.colors)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    def is_rainbow(self) -> bool:
        return len(set(self.colors)) == len(self.colors)

    def reversed(self) -> "RainbowPath":
        return RainbowPath(self.vertices[::-1], self.colors[::-1])

    def canonical(self) -> "RainbowPath":
        """Orientation with the smaller endpoint first."""
        if self.length >= 1 and self.vertices[0] > self.vertices[-1]:
            return self.reversed()
        return self

    def index_of(self, v: int) -> int:
        return self.vertices.index(v)


def path_from_vertices(g: ColoredGraph, vertices: Sequence[int]) -> RainbowPath:
    """Build a RainbowPath from a vertex sequence, reading colors off g.

    Raises PathError if the sequence is not a simple path of g.
    """
    vs = tuple(vertices)
    if not vs:
        raise PathError("empty vertex sequence")
    if len(set(vs)) != len(vs):
        raise PathError(f"repeated vertex in {vs}")
    for v in vs:
        if not (0 <= v < g.n):
            raise PathError(f"vertex {v} not in graph")
    colors = []
    for u, v in zip(vs, vs[1:]):
        if not g.has_edge(u, v):
            raise PathError(f"missing edge ({u},{v})")
        colors.append(g.color_of(u, v))
    return RainbowPath(vs, tuple(colors))


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
    budget_exhausted: bool


@dataclass(frozen=True)
class ExistsOutcome:
    """found is True/False when decided, None when the budget ran out."""

    found: Optional[bool]
    witness: Optional[RainbowPath]
    nodes_expanded: int


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget: Optional[int]):
        self.left = budget

    def tick(self) -> bool:
        if self.left is None:
            return True
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _neighbor_table(g: ColoredGraph):
    return [tuple((w, 1 << w, 1 << c) for (w, c) in g.neighbors(v))
            for v in range(g.n)]


def longest_rainbow_path(g: ColoredGraph, budget: Optional[int] = None) -> SearchOutcome:
    """Exact longest rainbow path with deterministic tie-breaking.

    budget bounds the total number of DFS node expansions; when it runs out
    the best path found so far is returned with proven_optimal=False.
    """
    if g.n == 0:
        return SearchOutcome(None, True, 0, False)
    nbrs = _neighbor_table(g)
    color_count = len(g.used_colors())
    bud = _Budget(budget)
    nodes = 0
    best_len = 0
    best_seq: list[int] = [0]
    cur: list[int] = []
    exhausted = False

    def walk(v: int, vmask: int, cmask: int, depth: int, free_v: int, free_c: int) -> bool:
        nonlocal nodes, best_len, best_seq
        nodes += 1
        if not bud.tick():
            return False
        if depth > best_len:
            best_len = depth
            best_seq = cur.copy()
        cap = free_v if free_v < free_c else free_c
        if depth + cap <= best_len:
            return True
        for (w, wbit, cbit) in nbrs[v]:
            if (vmask & wbit) or (cmask & cbit):
                continue
            cur.append(w)
            ok = walk(w, vmask | wbit, cmask | cbit, depth + 1, free_v - 1, free_c - 1)
            cur.pop()
            if not ok:
                return False
        return True

    for s in range(g.n):
        cur = [s]
        if not walk(s, 1 << s, 0, 0, g.n - 1, color_count):
            exhausted = True
            break

    if exhausted:
        best = path_from_vertices(g, best_seq).canonical()
        return SearchOutcome(best, False, nodes, True)

    # retrieval pass: first path of the proven length in ascending DFS order
    target = best_len
    found: Optional[list[int]] = None

    def retrieve(v: int, vmask: int, cmask: int, depth: int, free_v: int, free_c: int) -> None:
        nonlocal nodes, found
        if found is not None:
            return
        nodes += 1
        if depth == target:
            found = cur.copy()
            return
        cap = free_v if free_v < free_c else free_c
        if depth + cap < target:
            return
        for (w, wbit, cbit) in nbrs[v]:
            if (vmask & wbit) or (cmask & cbit):
                continue
            cur.append(w)
            retrieve(w, vmask | wbit, cmask | cbit, depth + 1, free_v - 1, free_c - 1)
            cur.pop()
            if found is not None:
                return

    for s in range(g.n):
        cur = [s]
        retrieve(s, 1 << s, 0, 0, g.n - 1, color_count)
        if found is not None:
            break
    assert found is not None
    best = path_from_vertices(g, found)
    assert best.is_rainbow() and best.vertices[0] <= best.vertices[-1]
    return SearchOutcome(best, True, nodes, False)


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
    nbrs = _neighbor_table(g)
    color_count = len(g.used_colors())
    if length > color_count or length > g.n - 1:
        return ExistsOutcome(False, None, 0)
    bud = _Budget(budget)
    nodes = 0
    cur: list[int] = []
    witness: Optional[list[int]] = None
    exhausted = False

    def walk(v: int, vmask: int, cmask: int, depth: int, free_v: int, free_c: int) -> bool:
        nonlocal nodes, witness, exhausted
        nodes += 1
        if not bud.tick():
            exhausted = True
            return False
        if depth == length:
            witness = cur.copy()
            return False
        cap = free_v if free_v < free_c else free_c
        if depth + cap < length:
            return True
        for (w, wbit, cbit) in nbrs[v]:
            if (vmask & wbit) or (cmask & cbit):
                continue
            cur.append(w)
            ok = walk(w, vmask | wbit, cmask | cbit, depth + 1, free_v - 1, free_c - 1)
            cur.pop()
            if not ok:
                return False
        return True

    for s in range(g.n):
        cur = [s]
        if not walk(s, 1 << s, 0, 0, g.n - 1, color_count):
            break
    if witness is not None:
        return ExistsOutcome(True, path_from_vertices(g, witness).canonical(), nodes)
    if exhausted:
        return ExistsOutcome(None, None, nodes)
    return ExistsOutcome(False, None, nodes)


# -- spanning-path machinery (terminal and connection oracles) ---------------

def _span_prep(g: ColoredGraph, vset):
    vs = sorted(set(vset))
    for v in vs:
        if not (0 <= v < g.n):
            raise PathError(f"vertex {v} not in graph")
    inset = set(vs)
    full = 0
    for v in vs:
        full |= 1 << v
    adj = {v: tuple((w, 1 << w, 1 << c) for (w, c) in g.neighbors(v) if w in inset)
           for v in vs}
    adj_mask = {v: sum(wbit for (_, wbit, _) in adj[v]) for v in vs}
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

    def walk(v: int, vmask: int, cmask: int) -> bool:
        nonlocal left
        remaining = full & ~vmask
        # Prunes. A remaining vertex needs a live neighbour in remaining or
        # at v to be entered, and two to be left again. So one with none is
        # a dead end, and one with a single way in must be the path's last
        # vertex: at most one may exist, it must be a wanted end, and if
        # its way in is v itself it must also be the only vertex left.
        cur_bit = 1 << v
        scope = remaining | cur_bit
        last = 0
        rem = remaining
        while rem:
            xbit = rem & -rem
            rem ^= xbit
            live = adj_mask[xbit.bit_length() - 1] & scope
            if live & (live - 1):
                continue
            if live == 0 or last or not (xbit & left):
                return False
            if live == cur_bit and remaining != xbit:
                return False
            last = xbit
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
            done = walk(w, vmask | wbit, cmask | cbit)
            cur.pop()
            if done:
                return True
        return False

    walk(start, 1 << start, 0)
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
