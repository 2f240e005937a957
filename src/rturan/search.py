"""Exact rainbow path search.

The path walks are depth-first over simple paths with a used-vertex bitmask
and a used-color bitmask (Python ints, so palettes of any size work; nothing
special happens at 128 colors). Neighbor lists are visited in ascending
order, which makes every result deterministic. Every kernel reads the
neighbour bit table ColoredGraph builds once per graph, on its first search
(`_bits`: per vertex, one (neighbour, 1 << neighbour, 1 << rank) tuple per
edge, in ascending order, a color's rank being its place among the colors in
use); no search rebuilds it, and a spanning query only filters it down to
its vertex set.

longest_rainbow_path and has_rainbow_path share one recursive kernel, _dfs,
whose docstring sets out its cuts and the comment above its gate where
each runs. It searches for rainbow paths from every root in ascending DFS
order, keeps the first path of the best length, and stops once that
length reaches its goal: the cap for the longest path, L for
has_rainbow_path(L). Each returns the path the kernel recorded: the first
of its length in ascending DFS order, so the lexicographically least.
Every cut drops only subtrees without a path longer than the best length
so far, so the single longest pass meets every path of the final length
before it records the first of them. The path needs no orientation fix:
had its reverse begun at a smaller root, that root's search, finished
before this one began, would have recorded a path of this length first.

The spanning searches (paths whose vertex set is a given set, the terminal
and auxiliary oracles' question) have two kernels. The vertex walk,
_span_ends, walks from a root in ascending order and, at the first path it
finds to each end still wanted, calls its caller's hook, hit; the hook
returns the ends its caller no longer wants, and the search stops once none
is left. spanning_rainbow_path_from and spanning_rainbow_path_between stop
at their first hit. The auxiliary oracle (terminals.build_aux_oracle)
learns pairs in its hook, from the path and its end rotations, and drops
every end whose pair with the root it knows by then, so one search per root
answers all of that root's endpoint pairs it does not know yet. The wanted
set only shrinks, so a prune decided against it stays sound after it
shrinks. Two prunes score each remaining vertex by its live neighbours
among the remaining vertices and the current one: with none it can never
be entered (dead end), and with exactly one it must be the path's last
vertex, so at most one such vertex may exist, it must be a wanted end, the
color of its one edge must still be unused, and if its only way in is the
current vertex it must be the last vertex left. A vertex with exactly two
live neighbours that is not a wanted end can only be passed through, so
both its edges lie on every completion with a hit, and neither color may be
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

The class search, _class_spans, decides the auxiliary oracle's sets of
color slack 0 or 1 (the colors inside the set minus the edges a spanning
path needs). There a spanning rainbow path takes one edge of every color
class inside the set, or of all but one at slack 1. So the search grows a
linear forest a class at a time. Each node branches on the undecided class
with the fewest choosable edges, those whose two ends have degree below 2
and lie in different fragments (each fragment end points at the other end,
set and undone in O(1)); at slack 1 it may also skip that class, once. It
cuts a node where a vertex with no edge can take none; where three
vertices can take one more edge at most, since each must end the path; and
where the hook's partner masks already hold every pair the path could
still end. Each leaf is a spanning path with an end pair not yet known,
handed to hit.

Every kernel recurses once per path vertex or class. A path deeper than the
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


def _dfs(g: ColoredGraph, colors: int, length: Optional[int],
         budget: Optional[int]) -> tuple[int, list[int], int, bool]:
    """Rainbow paths from every root in ascending DFS order: the longest
    where `length` is None, else one of `length` edges.

    Keeps the first path of the best length, and ends the search once that
    length reaches its goal: `length`, or for the longest the cap below.
    `colors` is the number of colors in use. Every node is counted, and
    once the count passes `budget` the search stops. Returns (best length,
    its vertices, nodes expanded, budget exhausted); the vertices are [0]
    while no path is recorded.

    The cap: both free counts drop by one per step, so depth + min(free
    vertices, free colors) is the constant lim = min(n - 1, colors), and
    no rainbow path is longer. A longest search that records a path of lim
    edges ends there, proven: the walk records only a path longer than the
    best, so nothing after it could be recorded.

    The other rules run where the gate below opens, over the carry-field
    layout (_supply_layout). The color-supply cut: a path that goes on from
    v spends one new color per edge, each on an edge inside the scope (the
    unvisited vertices and v). So where colors - best length of the unused
    classes have no edge left in the scope, at most best length - depth of
    the colors - depth unused colors have one there, no path below beats
    the best, and the node is cut. The count is exact and costs one big-int
    addition per node.

    Where lim is colors, only a path that spends every color beats a best
    length of colors - 1, and such a path takes exactly one edge of every
    color. Two rules refute it. The pre-check, once per search: the edges
    of the colors with a single edge must all lie on the path, so where
    _spends_every_color finds they are not a linear forest, lim drops to
    colors - 1. The longest search then ends at the first path of that
    length, the one the full search keeps, and a query for colors edges is
    refuted before the roots. Forcing, at every node once the best length
    is colors - 1: each unused class must give one edge inside the scope,
    so a class whose only edges there are at v gives the next step. Two of
    them (or an unused class with no edge left) cut the node, since the
    path leaves v once, and one restricts the step to that class's edges
    at v, every one of them where the coloring is improper.
    """
    n = g.n
    lim = min(n - 1, colors)
    nbrs = g._bits
    stop = sys.maxsize if budget is None else budget
    # The gate. The cut, the pre-check and forcing run only where
    # - the color slack colors - (n - 1) is at most 2: at 3 the cut saved
    #   no nodes on random/808 and 0.9% on bare_path/909;
    # - and the layout, m + colors bits, lies between LAYOUT_FLOOR_BITS and
    #   SUPPLY_FIELD_BITS, about where it pays (see there).
    # There the pre-check runs where lim is colors, and then the layout is
    # built where some class has fewer than lim edges. The walk reads it
    # from depth `smallest` on, the fewest edges of a class: each dead
    # vertex takes at most one edge from a class of a proper coloring, so
    # none is empty higher up. Where smallest is lim or more, the search
    # ends at depth lim at the latest, before a node there reads it.
    # One depth test per node, depth >= cut_from, guards the layout's reads,
    # so with no layout (cut_from n, which no depth reaches) a node costs
    # what it did without the cut. With one, cut_from is smallest, and it
    # drops to 0 only for forcing, which checks every node once the best
    # length reaches `reach`: colors - 1 where forcing runs, else n, which
    # no length reaches.
    cut_from = reach = n
    field = field2 = low = guard = 0
    if (colors <= n + 1
            and LAYOUT_FLOOR_BITS <= g.m + colors <= SUPPLY_FIELD_BITS):
        classes = _color_classes(nbrs)
        if lim == colors and not _spends_every_color(classes):
            lim -= 1
        smallest = min(map(len, classes.values()))
        if smallest < lim:
            if lim == colors:
                reach = colors - 1
            nbrs, field, low, guard = _supply_layout(nbrs, classes)
            field2 = 2 * field
            cut_from = smallest
    goal = lim if length is None else length
    if goal > lim:
        # the pre-check refuted every path of this length
        return 0, [0], 0, False
    # the longest search records its root too, so a cap of 0 ends it there
    best_len = -1 if length is None else length - 1
    if reach <= best_len:
        cut_from = 0
    nodes = 0
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
            if depth == goal:
                return False
            if depth == reach:
                cut_from = 0
        if depth >= cut_from:
            # the unused classes with no edge left in the scope
            # (_supply_layout), inline: a call per node costs most of it
            gone = cmask >> field | cmask >> field2
            dead = (gone + low) & guard
            if best_len != reach:
                if (dead ^ dead & cmask).bit_count() >= colors - best_len:
                    return True
            elif nbrs[v]:
                # Forcing. Read as if v were left too (any entry of its
                # row carries its edges), the count gives the unused
                # classes with no edge in the scope but at v. The forced
                # steps get a loop of their own: a filtered row handed to
                # the loop below measured 3-4% slower on the searches with
                # the gate shut.
                left = cmask | nbrs[v][0][2]
                spent = ((left >> field | left >> field2) + low) & guard
                spent ^= spent & cmask
                if spent:
                    if spent & dead or spent & (spent - 1):
                        return True
                    for (w, wbit, cbit) in nbrs[v]:
                        if cbit & spent and not vmask & wbit:
                            cur.append(w)
                            ok = walk(w, vmask | wbit, cmask | cbit,
                                      depth + 1)
                            cur.pop()
                            if not ok:
                                return False
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
# this kernel. Past it a budgeted search runs without the cut, so on a
# dense graph it may prove less and return a shorter path than one with
# the cut: at 1,024-1,536 bits, 19 of 70 searches were proven with the
# layout and 7 without.
SUPPLY_FIELD_BITS = 1024

# The narrowest graph, m + colors in use bits, on which _dfs builds the
# layout and runs the pre-check: below it they cost more per node than the
# nodes they save. Longest searches on the graphs of the first 1000
# instances of the random/808, bare_path/909 and random/31 sweeps (n 5..12;
# Python 3.11, 2-core Xeon) whose gate opens with no floor, CPU time with
# the floor at 1 over past every width, min of 4, per band of m + colors:
# 2.09 at 4-7 bits (127 graphs), 1.85 at 8-11 (332), 1.75 at 12-15
# (383), 1.34 at 16-19 (252), 1.04 at 20-23 (253), 0.56 at 24-27 (209),
# 0.47 at 28-31 (165), 0.15 past 31 (478). Nodes fell in every band from
# 4 bits on (by 26-93%). In 2-bit bands the crossover is 22:
# 1.08-1.10 at 20-21 (132 graphs) and 0.79-0.83 at 22-23 (121), two runs
# of min of 6; the floor stays at 20, within a tenth of it.
LAYOUT_FLOOR_BITS = 20


def _spends_every_color(classes: dict) -> bool:
    """False where no path can spend every color of its color classes
    (_color_classes): the edges of the colors with a single edge must all
    lie on such a path, so they must form a linear forest, and here a
    vertex meets three of them or they close a cycle. True otherwise,
    which proves nothing."""
    meets: dict = {}
    root: dict = {}

    def find(x):
        while x in root:
            root[x] = root.get(root[x], root[x])
            x = root[x]
        return x

    for edges in classes.values():
        if len(edges) != 1:
            continue
        v, w = edges[0]
        for x in (v, w):
            meets[x] = meets.get(x, 0) + 1
            if meets[x] == 3:
                return False
        a, b = find(v), find(w)
        if a == b:
            return False
        root[a] = b
    return True


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
    coloring, proper or not. The regions stay two because the step test
    cmask & cbit reads them too: in one shared region the edge xv's bit
    would sit in the rows of both x and v, so once the path had left v,
    every step out of x would be refused.
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
    _, seq, nodes, exhausted = _dfs(g, len(g.used_colors()), None, budget)
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
    got, seq, nodes, exhausted = _dfs(g, colors, length, budget)
    if exhausted:
        return ExistsOutcome(None, None, nodes)
    if got == length:
        return ExistsOutcome(True, path_from_vertices(g, seq), nodes)
    return ExistsOutcome(False, None, nodes)


# -- spanning-path machinery (terminal and connection oracles) ---------------

class _SpanSet(NamedTuple):
    """A vertex set prepared for the spanning searches: `vs` is the set in
    ascending order and `full` its mask. Indexed by vertex ((), 0 or None
    off the set), `adj` is the graph's bit table filtered to the set,
    `adj_mask` each row's neighbour mask and `cols` each row as {neighbour
    bit: color bit}. `slack` is the set's color slack, the colors inside it
    minus the edges a spanning path needs."""

    vs: list
    full: int
    adj: list
    adj_mask: list
    cols: list
    slack: int


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
    for v in vs:
        row = [t for t in bits[v] if t[1] & full]
        adj[v] = row
        adj_mask[v] = sum(t[1] for t in row)
        cols[v] = {wbit: cbit for (_, wbit, cbit) in row}
        colors.update(cols[v].values())
    slack = len(colors) - (len(vs) - 1)
    return _SpanSet(vs, full, adj, adj_mask, cols, slack)


def _span_ends(s: _SpanSet, start: int, wanted: int, hit) -> None:
    """Spanning rainbow paths over the prepared vertex set `s` from `start`.

    Calls hit(path) at the first path, in ascending DFS order, to each end
    in the mask `wanted` that is still wanted when the search reaches it.
    `path` is the search's own vertex list, valid only during the call. hit
    returns the mask of ends no longer wanted, this one among them, and the
    search stops once no wanted end is left.
    """
    _, full, adj, adj_mask, cols, _ = s
    cur = [start]
    left = wanted

    def walk(v: int, vmask: int, cmask: int, scan: int) -> bool:
        nonlocal left
        remaining = full & ~vmask
        cur_bit = 1 << v
        # The degree prunes the module docstring sets out, over the
        # vertices in `scan` only: x with no live neighbour in the scope is
        # a dead end; with one it is the path's last vertex; with two,
        # unless x is a wanted end, it is passed through, so neither edge's
        # color may be used yet.
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


def _class_spans(s: _SpanSet, known: list, hit) -> None:
    """Spanning rainbow paths over the prepared vertex set `s`, of color
    slack 0 or 1, grown a color class at a time (see the module docstring).
    Calls hit(path), `path` a vertex list, at each path whose end pair is
    not in `known`, one partner mask per vertex, which hit may grow."""
    if s.slack < 0:
        return
    full = s.full
    # the other end of a fragment end's fragment; a lone vertex's is itself
    other = list(range(len(s.adj)))
    chosen: list = []

    def walk(todo: list, skips: int, ends: int, sat: int) -> None:
        # ends: the vertices of degree 1 in the chosen edges; sat: degree 2
        once = twice = 0
        fewest = sys.maxsize
        for i, edges in enumerate(todo):
            count = touch = 0
            for (v, w, bits) in edges:
                if not bits & sat and other[v] != w:
                    count += 1
                    touch |= bits
            if count < fewest:
                if not count and not skips:
                    return
                fewest, at = count, i
            twice |= once & touch
            once |= touch
        free = full & ~sat
        bare = free & ~ends
        if bare & ~once:
            return
        # the vertices whose degree cannot pass 1: each ends the path
        must = bare & ~twice | ends & ~once
        if must.bit_count() > 2:
            return
        # the end pairs still open: two vertices of `free`, every one of
        # `must` among them; cut where each is known
        partners = must if must & (must - 1) else free
        x = must or free
        while x:
            abit = x & -x
            x ^= abit
            if partners & ~abit & ~known[abit.bit_length() - 1]:
                break
        else:
            return
        if not todo:
            nbrs: list = [[] for _ in other]
            for (v, w) in chosen:
                nbrs[v].append(w)
                nbrs[w].append(v)
            path, prev = [(ends & -ends).bit_length() - 1], -1
            for _ in chosen:
                step = nbrs[path[-1]]
                path.append(step[step[0] == prev])
                prev = path[-2]
            hit(path)
            return
        rest = todo[:at] + todo[at + 1:]
        for (v, w, bits) in todo[at]:
            if bits & sat or other[v] == w:
                continue
            a, b = other[v], other[w]
            other[a], other[b] = b, a
            chosen.append((v, w))
            walk(rest, skips, ends ^ bits, sat | ends & bits)
            chosen.pop()
            other[a], other[b] = v, w
        if skips:
            walk(rest, skips - 1, ends, sat)

    try:
        walk([[(v, w, 1 << v | 1 << w) for (v, w) in edges]
              for edges in _color_classes(s.adj).values()], s.slack, 0, 0)
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

