"""Terminal vertices of a longest rainbow path, found two ways.

A vertex is terminal when some rainbow path using exactly the vertices of
the fixed path P* (and the same number of edges) ends there. The oracle
finds terminals by exhaustive search: one spanning search from each vertex,
skipping vertices already seen as the far end of an earlier witness. The
rule engine re-derives them from the chord structure alone by replaying
rotation arguments; every firing carries an explicit witness path, so an
unsound rule cannot slip through silently (it raises WitnessError).

Every witness, a rule fire's, P* and the report's handed to the auxiliary
graph, and each jump rotation, is checked once, by _witness: it reads the
vertex sequence off g (a simple path, every edge present), compares the
recorded colors with g's when there are any, and refuses a repeated color
or a vertex set other than V(P*). checked_fire adds that the claimed
terminals are the witness's endpoints.

Rule families, in profile.py vocabulary:

  endpoints      v_0 and v_k, witnessed by P* itself
  far_jump       far edge v_0 v_k with a fresh color: cut the cycle
                 anywhere, every vertex becomes terminal
  fresh_start    fresh chord v_0 v_i frees v_{i-1}
  fresh_end      fresh chord v_k v_j frees v_{j+1}
  nice_start     chord v_0 v_i whose old color is freed by a fresh chord
                 at the far end; lands on v_{i-1} or v_{i+1} depending on
                 which side of i the matching path edge sits
  nice_end       mirror image
  window_start   fresh chord v_0 v_i strictly inside the pivot window,
                 rerouted through a low pivot of a different color: v_{i+1}
  window_end     mirror image: v_{i-1}

The nice rules go silent when the matching path edge sits below the chord
and the chord is the far edge itself (start side i = k, end side i = 0):
the rotation would need the far vertex twice and there is no witness. The
window rules go silent at i = a (start) and i = b (end), where the fresh
rules already produce the claimed terminal.

On top of the terminal set sits an auxiliary graph: two terminals are
adjacent when one rainbow path on V(P*) has both as its endpoints. The
rule flavor connects witness endpoints and jump-rotations of witnesses;
the oracle flavor decides every terminal pair, with one search per
terminal u that reaches all later terminals joined to u. A maximum
matching of the auxiliary graph drives the vertex-deletion step of the
edge-count bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import PathError, WitnessError
from .graphs import ColoredGraph
from .profile import PathProfile, compute_profile
# spanning_rainbow_path_between is not called here, but it stays bound in
# this module: perfbench's traced run (--trace 1) wraps the spanning searches
# at the names terminals looks them up by, and raises AttributeError without
# this one.
from .search import (RainbowPath, path_from_vertices,
                     spanning_rainbow_ends_from,
                     spanning_rainbow_path_between,
                     spanning_rainbow_path_from)


@dataclass(frozen=True)
class RuleFire:
    rule: str
    anchor: tuple          # ("start"|"end"|"far", chord position) or ("path", 0)
    terminals: tuple       # vertex ids this firing certifies
    witness: RainbowPath


@dataclass(frozen=True)
class TerminalReport:
    path: RainbowPath
    fires: tuple
    rule_terminals: frozenset

    def terminals_by_rule(self) -> dict:
        out: dict = {}
        for f in self.fires:
            out.setdefault(f.rule, set()).update(f.terminals)
        return {rule: tuple(sorted(vs)) for rule, vs in sorted(out.items())}


def _witness(g: ColoredGraph, span: set, source: str, vertices,
             colors: Optional[tuple] = None) -> RainbowPath:
    """The witness `vertices` read off g; refuse it unless it is a rainbow
    path of g whose vertex set is `span` and, when `colors` are recorded,
    whose colors are those."""
    try:
        w = path_from_vertices(g, vertices)
    except PathError as e:
        raise WitnessError(source, f"witness is not a path: {e}")
    if colors is not None and w.colors != colors:
        raise WitnessError(source, "recorded colors disagree with the graph")
    if not w.is_rainbow():
        raise WitnessError(source, "witness repeats a color")
    if set(w.vertices) != span:
        raise WitnessError(source, "witness does not span the path vertices")
    return w


def checked_fire(g: ColoredGraph, pstar: RainbowPath, rule: str,
                 anchor: tuple, idx_seq, terminal_positions) -> RuleFire:
    """Build a witness from path positions and refuse anything unsound."""
    verts = pstar.vertices
    w = _witness(g, set(verts), rule, [verts[i] for i in idx_seq])
    claimed = tuple(verts[i] for i in terminal_positions)
    if not set(claimed) <= set(w.endpoints):
        raise WitnessError(rule, "claimed terminal is not a witness endpoint")
    return RuleFire(rule=rule, anchor=anchor, terminals=claimed, witness=w)


def terminal_rules(g: ColoredGraph, pstar: RainbowPath,
                   prof: Optional[PathProfile] = None) -> TerminalReport:
    """Replay the rotation rules on pstar and report every firing."""
    if prof is None:
        prof = compute_profile(g, pstar)
    k = prof.k
    colors = pstar.colors
    fires = [RuleFire("endpoints", ("path", 0),
                      (pstar.vertices[0], pstar.vertices[-1]), pstar)]

    def fire(rule, anchor, idx_seq, terminal_positions):
        fires.append(checked_fire(g, pstar, rule, anchor,
                                  idx_seq, terminal_positions))

    if prof.far_edge_is_new:
        for i in range(k):
            fire("far_jump", ("far", k),
                 list(range(i, -1, -1)) + list(range(k, i, -1)),
                 (i, i + 1))

    for i in sorted(prof.start_chords):
        c = prof.start_chords[i]
        if c not in prof.start_new:
            continue
        fire("fresh_start", ("start", i),
             list(range(i - 1, -1, -1)) + list(range(i, k + 1)),
             (i - 1, k))

    for j in sorted(prof.end_chords):
        c = prof.end_chords[j]
        if c not in prof.end_new:
            continue
        fire("fresh_end", ("end", j),
             list(range(j + 1, k + 1)) + list(range(j, -1, -1)),
             (j + 1, 0))

    for i in sorted(prof.start_chords):
        c = prof.start_chords[i]
        if c not in prof.start_nice:
            continue
        j = colors.index(c)  # the fresh end chord sits at position j
        if j >= i:
            fire("nice_start", ("start", i),
                 list(range(i - 1, -1, -1)) + list(range(i, j + 1))
                 + list(range(k, j, -1)),
                 (i - 1, j + 1))
        elif i < k:
            fire("nice_start", ("start", i),
                 list(range(j + 1, i + 1)) + list(range(0, j + 1))
                 + list(range(k, i, -1)),
                 (j + 1, i + 1))

    for p in sorted(prof.end_chords):
        c = prof.end_chords[p]
        if c not in prof.end_nice:
            continue
        q = colors.index(c) + 1  # the fresh start chord sits at position q
        if q <= p:
            fire("nice_end", ("end", p),
                 list(range(p + 1, k + 1)) + list(range(p, q - 1, -1))
                 + list(range(0, q)),
                 (p + 1, q - 1))
        elif p > 0:
            fire("nice_end", ("end", p),
                 list(range(q - 1, p - 1, -1)) + list(range(k, q - 1, -1))
                 + list(range(0, p)),
                 (q - 1, p - 1))

    lo_outer, lo = prof.win_lo_outer, prof.win_lo
    hi, hi_outer = prof.win_hi, prof.win_hi_outer
    if lo is not None and hi is not None:
        for i in sorted(prof.start_chords):
            c = prof.start_chords[i]
            if c not in prof.start_new or not (lo < i <= hi):
                continue
            low = lo_outer if prof.end_chords[lo_outer] != c else lo
            fire("window_start", ("start", i),
                 list(range(low + 1, i + 1)) + list(range(0, low + 1))
                 + list(range(k, i, -1)),
                 (low + 1, i + 1))
        for p in sorted(prof.end_chords):
            c = prof.end_chords[p]
            if c not in prof.end_new or not (lo <= p < hi):
                continue
            high = hi_outer if prof.start_chords[hi_outer] != c else hi
            fire("window_end", ("end", p),
                 list(range(high - 1, p - 1, -1)) + list(range(k, high - 1, -1))
                 + list(range(0, p)),
                 (high - 1, p - 1))

    found = frozenset(v for f in fires for v in f.terminals)
    return TerminalReport(path=pstar, fires=tuple(fires), rule_terminals=found)


def terminal_oracle(g: ColoredGraph, pstar: RainbowPath) -> frozenset:
    """Exhaustively decide, per vertex of pstar, whether it is terminal.

    The far end of a witness is terminal too (read the witness backwards),
    so a vertex already seen there needs no search of its own.
    """
    vset = frozenset(pstar.vertices)
    found = set()
    for v in pstar.vertices:
        if v in found:
            continue
        p = spanning_rainbow_path_from(g, vset, v)
        if p is not None:
            found.update(p.endpoints)
    return frozenset(found)


@dataclass(frozen=True)
class AuxEdgeFire:
    source: str            # "base", "witness", "jump_start", "jump_end"
    pair: tuple            # sorted vertex ids
    witness: RainbowPath


@dataclass(frozen=True)
class AuxGraph:
    vertices: tuple
    edges: frozenset       # of sorted vertex-id pairs
    _nbrs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nbrs: dict = {}
        for (a, b) in self.edges:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        object.__setattr__(self, "_nbrs",
                           {v: tuple(sorted(ws)) for v, ws in nbrs.items()})

    def neighbors(self, v) -> tuple:
        return self._nbrs.get(v, ())

    def degree(self, v) -> int:
        return len(self._nbrs.get(v, ()))

    def min_degree(self) -> int:
        if not self.vertices:
            return 0
        return min(self.degree(v) for v in self.vertices)


def _jump_rotations(g: ColoredGraph, w: RainbowPath):
    """Endpoint-preserving rotations of a witness path, as (source, vertex
    sequence) pairs.

    For a fresh chord at either end of w, cutting the freed edge keeps one
    endpoint fixed and moves the other, which is exactly what the degree
    bound on the auxiliary graph exploits.
    """
    k = w.length
    used = set(w.colors)
    pos = {v: i for i, v in enumerate(w.vertices)}
    out = []
    for (x, c) in g.neighbors(w.vertices[-1]):
        j = pos.get(x)
        if j is None or c in used or j > k - 2:
            continue
        seq = [w.vertices[i] for i in range(j + 1)]
        seq += [w.vertices[i] for i in range(k, j, -1)]
        out.append(("jump_end", seq))
    for (x, c) in g.neighbors(w.vertices[0]):
        i = pos.get(x)
        if i is None or c in used or i < 2:
            continue
        seq = [w.vertices[t] for t in range(i - 1, -1, -1)]
        seq += [w.vertices[t] for t in range(i, k + 1)]
        out.append(("jump_start", seq))
    return out


def build_aux_rules(g: ColoredGraph, pstar: RainbowPath,
                    report: Optional[TerminalReport] = None):
    """Auxiliary graph from rule witnesses alone.

    Returns (AuxGraph, fires). Edges come from each witness's endpoint pair
    and its jump rotations. Vertices are the rule terminals and every edge
    endpoint: a rotation can end at a terminal no rule names, and each
    endpoint ends a checked spanning witness, so it is terminal too.
    """
    if report is None:
        report = terminal_rules(g, pstar)
    span = set(pstar.vertices)
    fires = []

    def fire(source, vertices, colors=None) -> RainbowPath:
        w = _witness(g, span, source, vertices, colors)
        u, v = w.endpoints
        fires.append(AuxEdgeFire(source=source, pair=(min(u, v), max(u, v)),
                                 witness=w))
        return w

    fire("base", pstar.vertices, pstar.colors)
    for f in report.fires:
        w = fire("witness", f.witness.vertices, f.witness.colors)
        for source, seq in _jump_rotations(g, w):
            fire(source, seq)
    edges = frozenset(f.pair for f in fires)
    vertices = report.rule_terminals.union(*edges)
    return AuxGraph(vertices=tuple(sorted(vertices)), edges=edges), tuple(fires)


def build_aux_oracle(g: ColoredGraph, pstar: RainbowPath,
                     terminals: Optional[frozenset] = None) -> AuxGraph:
    """Auxiliary graph by exhaustive search over terminal pairs: one search
    per terminal u finds every later terminal that a spanning rainbow path
    joins to u."""
    if terminals is None:
        terminals = terminal_oracle(g, pstar)
    vset = frozenset(pstar.vertices)
    ts = sorted(terminals)
    edges = set()
    for i, u in enumerate(ts[:-1]):
        for w in spanning_rainbow_ends_from(g, vset, u, ts[i + 1:]):
            edges.add((u, w))
    return AuxGraph(vertices=tuple(ts), edges=frozenset(edges))


def maximum_matching(aux: AuxGraph) -> tuple:
    """A maximum matching of the auxiliary graph, as sorted vertex pairs.

    Plain bitmask recursion; auxiliary graphs here have at most a path's
    worth of vertices, so this is never large. best(mask) stops trying
    partners once it reaches mask.bit_count() // 2, the most any matching
    of mask can have, so every value, and every pair read back from them,
    is what the full recursion gives.
    """
    vs = aux.vertices
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for (a, b) in aux.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        cap = mask.bit_count() // 2
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        top = best(rest)
        live = adj[i] & rest
        while live and top < cap:
            j = (live & -live).bit_length() - 1
            live &= live - 1
            top = max(top, 1 + best(rest & ~(1 << j)))
        return top

    pairs = []
    mask = (1 << len(vs)) - 1
    while mask:
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        if best(mask) == best(rest):
            mask = rest
            continue
        live = adj[i] & rest
        while live:
            j = (live & -live).bit_length() - 1
            live &= live - 1
            if 1 + best(rest & ~(1 << j)) == best(mask):
                pairs.append((vs[i], vs[j]) if vs[i] < vs[j] else (vs[j], vs[i]))
                mask = rest & ~(1 << j)
                break
    best.cache_clear()
    return tuple(sorted(pairs))


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
