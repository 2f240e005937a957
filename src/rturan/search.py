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
`first` set, stops at the first path longer than the floor. It has two
cuts. The free-vertex/free-color cap: both free counts drop by one per
step, so depth + min(free vertices, free colors) is the constant
min(n - 1, colors in use), and the search stops once the best length
reaches it. The color-supply cut: a path that goes on from v spends one
new color per edge, each on an edge inside the scope (the unvisited
vertices and v), so a node whose depth plus the number of unused colors
with an edge inside the scope is at most the best length is cut. The
count is exact and costs one big-int addition per node (_supply_layout):
each color class is a field of bits, one per edge and a guard bit above
them; the walk's color mask carries, beside the guard bits of the colors
used, the edges of every vertex the path has left (the dead vertices), in
two regions, one for the edges whose lower end it is and one for the upper
end; and adding one to every field carries into a guard bit exactly where
the class has no edge clear of the dead vertices. Its gate is the color
slack, colors in use - (n - 1): above 1 the cut rarely cuts and still
costs, so it is off. It is also off where every color class has at least
n / 2 edges, as in the xor colorings: a class of a proper coloring is a
matching and loses at most one edge per dead vertex, so there the count
would start only halfway down the path, and it was measured slower. And
it is off where the layout, m + colors in use bits, would be wider than
SUPPLY_FIELD_BITS: every color bit of the walk's table is three layouts
wide, so each step costs more as the layout grows, and past the bound
that outweighs the nodes the cut saves. longest_rainbow_path
is one run from floor 0 under the caller's budget, and has_rainbow_path(L)
one run from floor L - 1 with `first` set. Each returns the path the
kernel recorded: the first of its length in ascending DFS order, so the
lexicographically least. Both cuts drop only subtrees without a path
longer than the best length so far: the cap cuts nothing until the best
length reaches the constant, and the supply cut drops a subtree only where
no path in it beats the best. So the single longest pass meets every path
of the final length before it records the first of them. The path needs
no orientation fix: had its reverse begun at a smaller root, that root's
search, finished before this one began, would have recorded a path of this
length first.

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
Three prunes keep it sound and small. The first is the color-supply cut:
each remaining vertex needs one more edge, of a new color, inside the
scope, so a node is cut once the unused colors with an edge there are
fewer than the vertices left. It reads the same carry-field count as
_dfs, over the layout of the set's own edges. Its gate is the color slack
of the vertex set, the colors inside it minus the edges a spanning path
needs: it is on at 1 or less, where the set's edges plus colors fit
SPAN_SUPPLY_FIELD_BITS, a wider bound than _dfs's, as the cut saves far
more here than it costs.
The other two score each remaining vertex by its live neighbours among the
remaining vertices and the current one: with none it can never be entered
(dead end), and with exactly one it must be the path's last vertex, so at
most one such vertex may exist, it must be a wanted end, the color of its
one edge must still be unused, and if its only way in is the current
vertex it must be the last vertex left. A vertex with exactly two live
neighbours that is not a wanted end can only be passed through, so both
its edges lie on every completion with a hit, and neither color may be
used yet. A wanted end with two ways is not forced: the path may end there
through either edge. The search also steps only where a wanted end stays
unvisited. Every prune cuts only subtrees without a new hit, so each
witness is the first spanning path to its end in ascending DFS order.

The degree prune is incremental. Stepping from v to w removes exactly v
from the scored set (the remaining vertices and the current one), and live
counts only fall, so only v's remaining neighbours can drop to two ways,
one or none; every other vertex the parent passed with three or more keeps
them. The colors used grow at every step, though, and the wanted ends
shrink, so a vertex whose colors are tested can fail later without losing
a way in: those are the single-way-in vertex and every two-way vertex,
wanted or not.
The root scores every remaining vertex; each child rescans only v's
remaining neighbours plus the parent's single-way-in and two-way vertices,
re-tested against the wanted ends left, the colors used and the new
current vertex. The prune makes the decision the full rescan would at
every node, so the search tree is the same.

Both kernels recurse once per path vertex. A path deeper than the
interpreter's recursion limit (about a thousand vertices) ends the search
with GuardError("search", ...), which the command line reports as a
refusal (exit 3), not as a crash. So does a graph whose table could pass
graphs.SEARCH_TABLE_GUARD bits, before any of the table is built.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import GuardError, PathError, PreconditionError, too_deep
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


def _dfs(g: ColoredGraph, colors: int, floor: int, first: bool,
         budget: Optional[int]) -> tuple[int, list[int], int, bool]:
    """Rainbow paths longer than `floor` edges, from every root in ascending
    DFS order.

    Keeps the first path of the best length; with `first` set it stops at
    the first path longer than `floor`. `colors` is the number of colors in
    use. lim = min(n - 1, colors) is the constant that depth + min(free
    vertices, free colors) equals at every node; the search stops once the
    best length reaches it. With the color-supply gate open, a node is cut
    once colors - best length unused color classes have no edge left in
    its scope: of the colors - depth unused colors, at most best length -
    depth then have an edge there, so no path below beats the best. Every
    node is counted,
    and once the count passes `budget` the search stops. Returns (best
    length, its vertices, nodes expanded, budget exhausted); the vertices
    are [0] while nothing beat `floor`.
    """
    n = g.n
    lim = min(n - 1, colors)
    nbrs = g._bits
    stop = sys.maxsize if budget is None else budget
    # The cap and the color-supply cut share one depth test per node,
    # depth >= cut_from, so with the gate shut a node costs what it did
    # without the cut. No depth reaches n. The gate opens at color slack
    # colors - (n - 1) <= 1, where some class has fewer than n / 2 edges
    # and the layout fits SUPPLY_FIELD_BITS, at the depth that can first
    # empty a class: its fewest edges. The walk then reads the layout's
    # table, whose color bits are guard bits carrying the edges of the
    # row's vertex. The cap sets cut_from to 0 once the best length
    # reaches lim.
    cut_from = n
    field = field2 = low = guard = 0
    if colors <= n and g.m + colors <= SUPPLY_FIELD_BITS:
        classes = _color_classes(nbrs)
        smallest = min(map(len, classes.values()), default=n)
        if 2 * smallest < n:
            nbrs, field, low, guard = _supply_layout(nbrs, classes)
            field2 = 2 * field
            cut_from = smallest
    if lim <= floor:
        cut_from = 0
    nodes = 0
    best_len = floor
    best_seq = [0]
    cur: list[int] = []

    def walk(v: int, vmask: int, cmask: int, depth: int) -> bool:
        nonlocal nodes, best_len, best_seq, cut_from
        nodes += 1
        if nodes > stop:
            return False
        if depth > best_len:
            best_len = depth
            best_seq = cur.copy()
            if first:
                return False
            if lim <= depth:
                cut_from = 0
        if depth >= cut_from:
            if lim <= best_len:
                return True
            # the unused classes with no edge left in the scope
            # (_supply_layout), inline: a call per node costs most of it
            dead = ((cmask >> field | cmask >> field2) + low) & guard
            if (dead ^ dead & cmask).bit_count() >= colors - best_len:
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
        for s in range(n):
            cur = [s]
            if not walk(s, 1 << s, 0, 0):
                break
    except RecursionError:
        raise too_deep("search", "the path search") from None
    return best_len, best_seq, nodes, nodes > stop


# The widest carry-field layout (edges plus colors) _dfs builds the
# color-supply cut for; a wider gated graph runs with the cut shut. A
# layout F bits wide makes every color bit of the walk's table 3F bits
# long, so a node costs more as F grows. Longest searches, budget 20,000
# nodes, on 244 gated random_instance graphs (Python 3.11, 2-core Xeon),
# time with the layout over time with the cut shut, geometric mean per
# band of F: 0.29 at 128-256 bits, 0.53 at 256-512, 0.97 at 512-768, 1.01
# at 768-1,024, 1.48 at 1,024-1,536, 2.6-3.5 past 2,048. Per node the
# layout costs 1.5-2.5 times the shut cut up to 1,536 bits and 2.8-3.7
# past 2,048. So the bound is where the cut stops paying for itself in
# this kernel.
SUPPLY_FIELD_BITS = 1024

# The widest layout _span_prep builds, a memory guard and not a measured
# crossover: over a vertex set of color slack <= 1 the cut saves far more
# than it costs at every width measured (the first spanning path over
# V(P*) of gated random_instance graphs at 1,027-1,645 bits took 3-8 ms
# with the layout, and over 5 s for most with the cut shut). A layout of
# F bits over about F edges takes about 0.75 F^2 bytes: 13 MB here.
SPAN_SUPPLY_FIELD_BITS = 4096


def _color_classes(rows) -> dict:
    """The color classes of a bit table (the graph's _bits, or _span_prep's
    rows of a vertex set): {color bit: its edges (v, w), v < w}."""
    classes: dict = {}
    for v, row in enumerate(rows):
        for (w, _, cbit) in row:
            if w > v:
                if cbit in classes:
                    classes[cbit].append((v, w))
                else:
                    classes[cbit] = [(v, w)]
    return classes


def _supply_layout(rows, classes: dict) -> tuple:
    """The carry-field layout of the color-supply cut over a bit table and
    its color classes (_color_classes): (table, F, low, guard).

    Each color class gets one field of the low F bits: one bit per edge,
    then a guard bit; `low` holds each field's lowest bit and `guard` its
    guard bit. `table` is `rows` with each color bit replaced by its
    class's guard bit, plus the edge bits of the row's vertex v: those of
    the edges whose lower end is v at offset F, those whose upper end is v
    at offset 2F. A path's color mask, the OR of its steps' color bits, is
    then its colors' guard bits plus, in the two regions, the edges of
    every vertex it has left, and no two steps share a bit: a vertex is
    left once, and an edge's bit in a region belongs to one of its ends.
    So with d = (((cmask >> F) | (cmask >> 2F)) + low) & guard, the
    guard bits of d & ~cmask are the unused classes with no edge clear of
    the vertices left: one addition carries into a guard bit exactly where
    every edge bit of its field is set. The count is exact on any
    coloring, proper or not.
    """
    lower = [0] * len(rows)
    upper = [0] * len(rows)
    gbit = {}
    field = low = guard = 0
    for cbit, edges in classes.items():
        low |= 1 << field
        for (v, w) in edges:
            lower[v] |= 1 << field
            upper[w] |= 1 << field
            field += 1
        gbit[cbit] = 1 << field
        guard |= 1 << field
        field += 1
    table = []
    for v, row in enumerate(rows):
        left = lower[v] << field | upper[v] << 2 * field
        table.append([(w, wbit, gbit[cbit] | left)
                      for (w, wbit, cbit) in row])
    return table, field, low, guard


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
    _, seq, nodes, exhausted = _dfs(g, len(g.used_colors()), 0, False, budget)
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
    colors = len(g.used_colors())
    if length > min(g.n - 1, colors):
        return ExistsOutcome(False, None, 0)
    got, seq, nodes, exhausted = _dfs(g, colors, length - 1, True, budget)
    if exhausted:
        return ExistsOutcome(None, None, nodes)
    if got == length:
        return ExistsOutcome(True, path_from_vertices(g, seq), nodes)
    return ExistsOutcome(False, None, nodes)


# -- spanning-path machinery (terminal and connection oracles) ---------------

class _SpanSet(NamedTuple):
    """A vertex set prepared for _span_ends: `vs` is the set in ascending
    order and `full` its mask. Indexed by vertex ((), 0 or None off the
    set), `adj` is the graph's bit table filtered to the set, `adj_mask`
    each row's neighbour mask and `cols` each row as {neighbour bit: color
    bit}. `slack` is the set's color slack. Where the color-supply cut is
    open (slack <= 1, and the set's edges plus colors at most
    SPAN_SUPPLY_FIELD_BITS), `field`, `low` and `guard` are the set's
    carry-field layout (_supply_layout), `adj` is its table, and `cols`
    holds the bare guard bits, the color bits a path's color mask tests
    against; otherwise `field` is 0 and the bits are the graph's."""

    vs: list
    full: int
    adj: list
    adj_mask: list
    cols: list
    slack: int
    field: int
    low: int
    guard: int


def _span_prep(g: ColoredGraph, vset) -> _SpanSet:
    vs = sorted(set(vset))
    for v in vs:
        if not (0 <= v < g.n):
            raise PathError(f"vertex {v} not in graph")
    full = 0
    for v in vs:
        full |= 1 << v
    bits = g._bits
    adj: list = [()] * g.n
    adj_mask = [0] * g.n
    cols: list = [None] * g.n
    colors: set = set()
    ends = 0
    for v in vs:
        row = [t for t in bits[v] if t[1] & full]
        adj[v] = row
        adj_mask[v] = sum(t[1] for t in row)
        colors.update(t[2] for t in row)
        ends += len(row)
    slack = len(colors) - (len(vs) - 1)
    field = low = guard = 0
    if slack <= 1 and ends // 2 + len(colors) <= SPAN_SUPPLY_FIELD_BITS:
        adj, field, low, guard = _supply_layout(adj, _color_classes(adj))
    # the bare color bits: a layout's guard bits, below its regions
    mask = (1 << field) - 1 if field else -1
    for v in vs:
        cols[v] = {wbit: cbit & mask for (_, wbit, cbit) in adj[v]}
    return _SpanSet(vs, full, adj, adj_mask, cols, slack, field, low, guard)


def _span_ends(s: _SpanSet, start: int, wanted: int, hit) -> None:
    """Spanning rainbow paths over the prepared vertex set `s` from `start`.

    Calls hit(path) at the first path, in ascending DFS order, to each end
    in the mask `wanted` that is still wanted when the search reaches it.
    `path` is the search's own vertex list, valid only during the call. hit
    returns the mask of ends no longer wanted, this one among them, and the
    search stops once no wanted end is left.
    """
    _, full, adj, adj_mask, cols, slack, field, low, guard = s
    field2 = 2 * field
    need = max(slack, 0)
    cur = [start]
    left = wanted

    def walk(v: int, vmask: int, cmask: int, scan: int) -> bool:
        nonlocal left
        remaining = full & ~vmask
        cur_bit = 1 << v
        # The cuts the module docstring sets out. Color supply: cut once
        # more than `slack` unused classes (and at least one) have no edge
        # left in the scope, the remaining vertices and v (_supply_layout).
        if field:
            dead = ((cmask >> field | cmask >> field2) + low) & guard
            if (dead ^ dead & cmask).bit_count() > need:
                return False
        # Degree prunes, over the vertices in `scan` only: x with no live
        # neighbour in the scope is a dead end; with one it is the path's
        # last vertex; with two, unless x is a wanted end, it is passed
        # through, so neither edge's color may be used yet.
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
        raise too_deep("search", "the path search") from None


def _first_span(g: ColoredGraph, s: _SpanSet, start: int,
                wanted: int) -> Optional[RainbowPath]:
    """The first spanning path from `start` to any end in `wanted`, in
    ascending DFS order; the search stops at it."""
    found = []

    def hit(path) -> int:
        found.append(path.copy())
        return wanted

    _span_ends(s, start, wanted, hit)
    return path_from_vertices(g, found[0]) if found else None


def spanning_rainbow_path_from(g: ColoredGraph, vset, start: int) -> Optional[RainbowPath]:
    """Some rainbow path whose vertex set is exactly `vset`, starting at
    `start`; None if there is none. Returns the first such path in ascending
    DFS order: the first end the search reaches, where it stops."""
    s = _span_prep(g, vset)
    if start not in s.vs:
        raise PathError(f"start {start} not in vertex set")
    if len(s.vs) == 1:
        return RainbowPath((start,), ())
    return _first_span(g, s, start, s.full & ~(1 << start))


def spanning_rainbow_path_between(g: ColoredGraph, vset, u: int, w: int) -> Optional[RainbowPath]:
    """Some rainbow path with vertex set exactly `vset` and endpoints u and w:
    the first one from u in ascending DFS order."""
    s = _span_prep(g, vset)
    if u not in s.vs or w not in s.vs or u == w:
        raise PathError("endpoints must be distinct members of the vertex set")
    return _first_span(g, s, u, 1 << w)

