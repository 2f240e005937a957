"""Terminal vertices of a longest rainbow path, found two ways.

A vertex is terminal when some rainbow path using exactly the vertices of
the fixed path P* (and the same number of edges) ends there. The oracle
finds terminals by exhaustive search, as the vertices of its auxiliary
graph (below). The rule engine re-derives them from the chord structure
alone by replaying rotation arguments; every firing carries an explicit
witness path, so an unsound rule cannot slip through silently (it raises
WitnessError).

The rule layer takes each input once and computes none of them:
terminal_rules(g, prof) reads P* off its profile, and build_aux_rules(g,
pstar, report) takes the rule report. The builders compose the layers:
corpus.check_instance hands in the profile of its claim context, and the
command line builds the profile with profile.compute_profile.

Every witness is checked by _witness: it reads the vertex sequence off g (a
simple path, every edge present) and refuses a repeated color or a vertex
set other than V(P*). A fire certifies the two ends of its witness, and the
report's terminals are read off them. build_aux_rules reads each distinct
witness path (P*, the report's, their jump rotations) off g once per call,
and compares recorded colors with it every time they are handed in.

Rule families, in profile.py vocabulary:

  endpoints      v_0 and v_k, witnessed by P* itself
  far_jump       far edge v_0 v_k with a fresh color: cut the cycle
                 anywhere, every vertex becomes terminal
  fresh_start    fresh chord v_0 v_i frees v_{i-1}
  nice_start     chord v_0 v_i whose old color is freed by a fresh chord
                 at the far end; lands on v_{i-1} or v_{i+1} depending on
                 which side of i the matching path edge sits
  window_start   fresh chord v_0 v_i strictly inside the pivot window,
                 rerouted through a low pivot of a different color: v_{i+1}

The v_k end is the v_0 end of P* read backwards, so fresh_end, nice_end and
window_end are the three start rules run on the reversed path (its profile
is PathProfile.reversed()), and their fires are read backwards so they come
in ascending chord position on P*. A fresh chord v_k v_j frees v_{j+1}, and
a window chord v_k v_j lands on v_{j-1}. Fires come family by family
(fresh, nice, window), the start side before the end side, each in
ascending chord position.

The nice rules go silent when the matching path edge sits below the chord
and the chord is the far edge itself (start side i = k, end side i = 0):
the rotation would need the far vertex twice and there is no witness. The
window rules go silent at i = a (start) and i = b (end), where the fresh
rules already produce the claimed terminal.

On top of the terminal set sits an auxiliary graph: two terminals are
adjacent when one rainbow path on V(P*) has both as its endpoints. The
rule flavor connects witness endpoints and jump-rotations of witnesses.
The oracle flavor decides every pair of V(P*) in one pass. V(P*) is
prepared for the spanning kernel once, and one partner bitmask per vertex,
shared by every root, is the only record of the pairs known so far; the
auxiliary graph is read off it at the end. Each spanning path the kernel
finds is closed under end rotations: a chord from an end q_{s-1} to q_i
whose color is off the path, or is the color of the cut edge q_i q_{i+1},
gives the spanning rainbow path q_0..q_i, q_{s-1}..q_{i+1}; the start end
q_0 rotates the same way. Every rotation that shows a pair not yet known
is followed in turn. A rotation finds its chord's position in the path it
rotates and carries that path's color mask, so it builds no position table
and no reversed copy. The far end rotates before the start, chords in
ascending neighbour order. Root u, in ascending order, then searches only
for the later vertices whose pair with u is still unknown, stops once none
is left, and is skipped when there is none. The pairs stay exact. No pair
is invented: each one recorded ends a real spanning rainbow path, by
construction. None is missed: root u's search is exhaustive over its later
partners not yet known, and drops one only once its pair is known. These
rotations are written apart from the rules' (_jump_rotations,
_start_rules), so the oracle stays independent of what it checks: the
oracle's functions call none of the rule layer's, and _jump_rotations
calls none of the oracle's (an AST test in tests/test_spanning.py keeps it
so).

A terminal ends a spanning rainbow path whose other end is a different
vertex, so when P* has two or more vertices the terminals are exactly the
ends of the pairs found, and terminal_oracle reads them off the auxiliary
graph; on a one-vertex P* that vertex is the only terminal and there are
no pairs. A maximum matching of the auxiliary graph drives the
vertex-deletion step of the edge-count bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import PathError, WitnessError, too_deep
from .graphs import ColoredGraph
from .profile import PathProfile
from .search import RainbowPath, _span_ends, _span_prep, path_from_vertices
# unused here, but bound for perfbench's --trace 1, which wraps it here
from .search import spanning_rainbow_path_between  # noqa: F401
# unused here, but bound for perfbench's --trace 1, which wraps it here
from .search import spanning_rainbow_path_from  # noqa: F401


@dataclass(frozen=True)
class RuleFire:
    rule: str
    witness: RainbowPath   # its two ends are the terminals this firing certifies


@dataclass(frozen=True)
class TerminalReport:
    fires: tuple

    @property
    def rule_terminals(self) -> frozenset:
        return frozenset(v for f in self.fires for v in f.witness.endpoints)

    def terminals_by_rule(self) -> dict:
        out: dict = {}
        for f in self.fires:
            out.setdefault(f.rule, set()).update(f.witness.endpoints)
        return {rule: tuple(sorted(vs)) for rule, vs in sorted(out.items())}


def _witness(g: ColoredGraph, span: set, source: str, vertices) -> RainbowPath:
    """The witness `vertices` read off g; refuse it unless it is a rainbow
    path of g whose vertex set is `span`."""
    try:
        w = path_from_vertices(g, vertices)
    except PathError as e:
        raise WitnessError(source, f"witness is not a path: {e}")
    if not w.is_rainbow():
        raise WitnessError(source, "witness repeats a color")
    if set(w.vertices) != span:
        raise WitnessError(source, "witness does not span the path vertices")
    return w


def checked_fire(g: ColoredGraph, pstar: RainbowPath, rule: str,
                 vertices) -> RuleFire:
    """The fire whose witness is the vertex sequence `vertices`; refuse it
    unless that is a rainbow path of g on V(pstar)."""
    w = _witness(g, set(pstar.vertices), rule, vertices)
    return RuleFire(rule, w)


def _start_rules(prof: PathProfile) -> tuple:
    """The fresh, nice and window fires for chords v_0 v_i of prof's path:
    one list per family of witness vertex sequences, in ascending i. On
    the reversed profile these are the end fires, which terminal_rules reads
    backwards so they come in ascending chord position on P*."""
    vs, colors = prof.path.vertices, prof.path_colors
    start, end = prof.start, prof.end
    chords = sorted(start.chords.items())
    fresh, nice, window = [], [], []
    for i, c in chords:
        if c in start.new:
            fresh.append(vs[i - 1::-1] + vs[i:])
        if c in start.nice:
            j = colors.index(c)  # the fresh end chord sits at position j
            if j >= i:
                nice.append(vs[i - 1::-1] + vs[i:j + 1] + vs[:j:-1])
            elif i < prof.k:
                nice.append(vs[j + 1:i + 1] + vs[:j + 1] + vs[:i:-1])
    if prof.pivots_present:
        outer = end.top[0]  # the smallest fresh end chord, counted from v_k
        lo_outer, lo, hi = prof.k - outer, prof.win_lo, prof.win_hi
        for i, c in chords:
            if c not in start.new or not (lo < i <= hi):
                continue
            low = lo_outer if end.chords[outer] != c else lo
            window.append(vs[low + 1:i + 1] + vs[:low + 1] + vs[:i:-1])
    return fresh, nice, window


def terminal_rules(g: ColoredGraph, prof: PathProfile) -> TerminalReport:
    """Replay the rotation rules on prof's path P* and report every firing."""
    pstar, vs = prof.path, prof.path.vertices
    fires = [RuleFire("endpoints", pstar)]

    if prof.far_edge_is_new:
        for i in range(prof.k):
            fires.append(checked_fire(g, pstar, "far_jump",
                                      vs[i::-1] + vs[:i:-1]))

    for family, heads, tails in zip(("fresh", "nice", "window"),
                                    _start_rules(prof),
                                    _start_rules(prof.reversed())):
        for seq in heads:
            fires.append(checked_fire(g, pstar, family + "_start", seq))
        for seq in reversed(tails):
            fires.append(checked_fire(g, pstar, family + "_end", seq))
    return TerminalReport(fires=tuple(fires))


def terminal_oracle(g: ColoredGraph, pstar: RainbowPath) -> frozenset:
    """The vertices of pstar that end a spanning rainbow path of V(pstar):
    the vertices of the oracle's auxiliary graph."""
    return frozenset(build_aux_oracle(g, pstar).vertices)


@dataclass(frozen=True)
class AuxGraph:
    vertices: tuple
    edges: frozenset       # of sorted vertex-id pairs

    def min_degree(self) -> int:
        degree = Counter(v for e in self.edges for v in e)
        return min((degree[v] for v in self.vertices), default=0)


def _jump_rotations(g: ColoredGraph, w: RainbowPath):
    """Endpoint-preserving rotations of a witness path, as (source, vertex
    sequence) pairs.

    A fresh chord v_0 v_i with i >= 2 frees the path edge v_{i-1} v_i:
    cutting it keeps v_k fixed and moves v_0 to v_{i-1}, which is exactly
    what the degree bound on the auxiliary graph exploits. The jump_end
    rotations are the same at v_k: a fresh chord v_k v_j with j <= k - 2
    cuts v_j v_{j+1} and gives v_0..v_j, v_k..v_{j+1}. The jump_end
    rotations come first, then the jump_start ones, each in ascending
    neighbour order.
    """
    vs = w.vertices
    on_path, used = set(vs), set(w.colors)
    out = []
    for (x, c) in g.neighbors(vs[-1]):
        if x in on_path and c not in used:
            j = vs.index(x)
            if j <= len(vs) - 3:
                out.append(("jump_end", vs[:j + 1] + vs[:j:-1]))
    for (x, c) in g.neighbors(vs[0]):
        if x in on_path and c not in used:
            i = vs.index(x)
            if i >= 2:
                out.append(("jump_start", vs[i - 1::-1] + vs[i:]))
    return out


def build_aux_rules(g: ColoredGraph, pstar: RainbowPath,
                    report: TerminalReport) -> AuxGraph:
    """Auxiliary graph from rule witnesses alone.

    Edges come from each witness's endpoint pair and its jump rotations.
    The first check, "base", is P* itself with the colors pstar records:
    the report is handed in apart from pstar, so this is the one check of
    pstar itself. Each distinct sequence is read off g once, and each
    distinct report witness rotated once; recorded colors are compared
    every time. Vertices are the edge ends, each the end of a checked
    spanning witness: the rule terminals, and any terminal no rule names
    that a rotation ends at.
    """
    span = set(pstar.vertices)
    read: dict = {}        # vertex sequence -> the path read off g

    def check(source, vertices, colors=None) -> RainbowPath:
        key = tuple(vertices)
        w = read.get(key)
        if w is None:
            w = read[key] = _witness(g, span, source, key)
        if colors is not None and w.colors != colors:
            raise WitnessError(source,
                               "recorded colors disagree with the graph")
        return w

    check("base", pstar.vertices, pstar.colors)
    rotated = set()
    for f in report.fires:
        w = check("witness", f.witness.vertices, f.witness.colors)
        if w.vertices not in rotated:
            rotated.add(w.vertices)
            for source, seq in _jump_rotations(g, w):
                check(source, seq)
    edges = frozenset(tuple(sorted(w.endpoints)) for w in read.values())
    vertices = {v for e in edges for v in e}
    return AuxGraph(vertices=tuple(sorted(vertices)), edges=edges)


def _rotation_pairs(cols: list, path, known: list) -> None:
    """Record the end pair of the spanning rainbow path `path`, and of every
    path its end rotations reach, in `known` (one partner bitmask per
    vertex). `cols` maps each vertex of V(P*) to its neighbours' bits there
    and their color bits (_SpanSet.cols); `path` ends a pair not yet
    known.

    A chord from the end q_{s-1} to q_i, i <= s - 3, gives the path
    q_0..q_i, q_{s-1}..q_{i+1} on the same vertices; it is rainbow when the
    chord's color is off the path or is the color of the cut edge
    q_i q_{i+1}. A chord from the start q_0 to q_j, j >= 2, gives the path
    q_{s-1}..q_j, q_0..q_{j-1} the same way, the cut edge being
    q_{j-1} q_j. Each chord's position is looked up in q itself, and the
    color mask of a rotated path is q's with the cut edge's color swapped
    for the chord's. The far end of q rotates first, then its start, each
    chord in ascending neighbour order. Only rotations that show a pair
    not yet known are followed, so each pair is rotated at most once.
    Every pair recorded ends a real spanning rainbow path. This is the
    oracle's own rotation, written apart from the rules it checks
    (_jump_rotations, _start_rules).
    """
    s = len(path)

    def learn(a: int, b: int) -> bool:
        if known[a] >> b & 1:
            return False
        known[a] |= 1 << b
        known[b] |= 1 << a
        return True

    learn(path[0], path[-1])
    cb = [cols[a][1 << b] for a, b in zip(path, path[1:])]
    todo = [(path, cb, sum(cb))]
    while todo:
        q, cb, cmask = todo.pop()
        first, last = q[0], q[-1]
        for xbit, cbit in cols[last].items():
            i = q.index(xbit.bit_length() - 1)
            if i > s - 3:
                continue
            cut = cb[i]
            if cmask & cbit and cbit != cut:
                continue
            if learn(first, q[i + 1]):
                todo.append((q[:i + 1] + q[:i:-1],
                             cb[:i] + [cbit] + cb[:i:-1],
                             cmask ^ cut | cbit))
        for xbit, cbit in cols[first].items():
            j = q.index(xbit.bit_length() - 1)
            if j < 2:
                continue
            cut = cb[j - 1]
            if cmask & cbit and cbit != cut:
                continue
            if learn(last, q[j - 1]):
                todo.append((q[:j - 1:-1] + q[:j],
                             cb[:j - 1:-1] + [cbit] + cb[:j - 1],
                             cmask ^ cut | cbit))


def build_aux_oracle(g: ColoredGraph, pstar: RainbowPath) -> AuxGraph:
    """Auxiliary graph by exhaustive search.

    One partner mask per vertex, shared by every root, holds the pairs
    known so far; it is the only record of them. Each spanning path the
    search finds is closed under end rotations (_rotation_pairs), which may
    fill in pairs for any vertex. Root u, in ascending order, then searches
    V(pstar) only for the later vertices whose pair with u is still
    unknown, stops once none is left, and is skipped when there is none.
    The pairs are exactly those of one search per root over every later
    vertex. Every pair recorded ends a real spanning rainbow path: the
    search found it, or a rotation built it. And a pair (u, w), u < w,
    leaves root u's wanted ends only once it is known, while the search is
    exhaustive over the ends still wanted. The edges are read off the
    masks, and the vertices are those with a partner: the ends of the
    pairs, which are exactly the terminals.
    """
    s = _span_prep(g, pstar.vertices)
    if len(s.vs) == 1:
        return AuxGraph(vertices=tuple(s.vs), edges=frozenset())
    known = [0] * g.n

    def hit(path) -> int:
        _rotation_pairs(s.cols, path, known)
        return known[path[0]]

    later = s.full
    for u in s.vs[:-1]:
        later &= ~(1 << u)
        wanted = later & ~known[u]
        if wanted:
            _span_ends(s, u, wanted, hit)
    edges = []
    for a in s.vs:
        rest = known[a] >> a + 1 << a + 1   # a's partners above a
        while rest:
            bbit = rest & -rest
            rest ^= bbit
            edges.append((a, bbit.bit_length() - 1))
    return AuxGraph(vertices=tuple(v for v in s.vs if known[v]),
                    edges=frozenset(edges))


def maximum_matching(aux: AuxGraph) -> tuple:
    """A maximum matching of the auxiliary graph, as sorted vertex pairs.

    Plain bitmask recursion, one level per vertex; an auxiliary graph has
    at most a path's worth of vertices, and one deeper than the
    interpreter allows is refused (GuardError). best(mask) is a maximum
    matching of mask, as index pairs: it starts from the lowest vertex
    left unmatched and takes that vertex's first partner, in ascending
    order, that gives a strictly larger matching. It stops trying partners
    once it reaches mask.bit_count() // 2 pairs, the most any matching of
    mask can have.
    """
    vs = aux.vertices
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for (a, b) in aux.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]

    @lru_cache(maxsize=None)
    def best(mask: int) -> tuple:
        if mask == 0:
            return ()
        cap = mask.bit_count() // 2
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        top = best(rest)
        live = adj[i] & rest
        while live and len(top) < cap:
            j = (live & -live).bit_length() - 1
            live &= live - 1
            sub = best(rest & ~(1 << j))
            if len(sub) >= len(top):
                top = sub + ((i, j),)
        return top

    try:
        pairs = best((1 << len(vs)) - 1)
    except RecursionError:
        raise too_deep("matching", "the matching search") from None
    best.cache_clear()
    return tuple(sorted((vs[i], vs[j]) if vs[i] < vs[j] else (vs[j], vs[i])
                        for i, j in pairs))


@dataclass(frozen=True)
class MatchingReport:
    pairs: tuple           # matching edges as sorted vertex-id pairs
    matched: tuple         # all matched vertices, sorted
    non_edge_counts: tuple # per pair: missing edges from the pair into V(P*)
    incident_edges: int    # edges of g touching a matched vertex
    induced_edges: int     # edges of g inside the matched set

    @property
    def size(self) -> int:
        return len(self.pairs)


def matching_stats(g: ColoredGraph, pstar: RainbowPath,
                   pairs: tuple) -> MatchingReport:
    path_vs = set(pstar.vertices)
    matched = sorted(v for pair in pairs for v in pair)
    mset = set(matched)
    counts = []
    for (ai, bi) in pairs:
        missing = 0
        for x in (ai, bi):
            for y in path_vs - {ai, bi}:
                if not g.has_edge(x, y):
                    missing += 1
        counts.append(missing)
    incident = sum(1 for (u, v, _) in g.edges if u in mset or v in mset)
    induced = sum(1 for (u, v, _) in g.edges if u in mset and v in mset)
    return MatchingReport(pairs=tuple(pairs), matched=tuple(matched),
                          non_edge_counts=tuple(counts),
                          incident_edges=incident, induced_edges=induced)
