"""Properly edge-colored graphs: the shared data model.

A ColoredGraph is immutable: n vertices named 0..n-1, a set of undirected
edges (u < v, no loops, no multi-edges), a total coloring into dense integer
color ids 0..num_colors-1, and an optional bipartition tag per vertex.
Uncolored edge sets live in GraphSkeleton; a partial coloring is never
represented behind ColoredGraph.

File formats:

  text       line 1: "n m C"; then m lines "u v c"; '#' starts a comment.
             An optional "# sides 0101..." comment carries the bipartition.
  json       {"n":, "m":, "colors":, "edges": [[u,v,c],...], "sides": null|[0,1,...]}

parse_graph(serialize_graph(g)) == g for every valid graph, in both formats.
A file declaring more than PARSE_VERTEX_GUARD vertices is refused before
anything is allocated for them (GuardError, exit 3 on the command line).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import GraphError, GuardError

Edge = tuple[int, int]

PARSE_VERTEX_GUARD = 100_000


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _check_edges(n: int, pairs: Iterable[Edge]) -> None:
    """Refuse an edge outside 0 <= u < v < n, or one listed twice."""
    seen: set[Edge] = set()
    for (u, v) in pairs:
        if not (0 <= u < v < n):
            raise GraphError(f"bad edge ({u},{v}) for n={n}")
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add((u, v))


@dataclass(frozen=True)
class GraphSkeleton:
    """An uncolored graph: vertex count plus sorted edge tuple."""

    n: int
    edges: tuple[Edge, ...]
    sides: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        _check_edges(self.n, self.edges)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        if self.sides is not None and len(self.sides) != self.n:
            raise GraphError("sides tag length != n")

    @property
    def m(self) -> int:
        return len(self.edges)

    def with_colors(self, colors: Sequence[int], num_colors: int | None = None) -> "ColoredGraph":
        """Color this skeleton; colors[i] belongs to self.edges[i]."""
        if len(colors) != self.m:
            raise GraphError("one color per edge required")
        return ColoredGraph.from_edges(
            self.n,
            [(u, v, c) for (u, v), c in zip(self.edges, colors)],
            num_colors=num_colors,
            sides=self.sides,
        )


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable properly-colorable graph data; properness itself is checked
    by validate_proper, not assumed here."""

    n: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, color), u < v, sorted
    num_colors: int
    sides: Optional[tuple[int, ...]] = None
    _nbrs: dict = field(init=False, repr=False, compare=False)
    _col: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("negative vertex count")
        if self.num_colors < 0:
            raise GraphError("negative palette size")
        _check_edges(self.n, ((u, v) for (u, v, _) in self.edges))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in range(self.n)}
        col: dict[Edge, int] = {}
        for (u, v, c) in self.edges:
            if not (0 <= c < self.num_colors):
                raise GraphError(f"color {c} outside palette 0..{self.num_colors - 1}")
            nbrs[u].append((v, c))
            nbrs[v].append((u, c))
            col[(u, v)] = c
        object.__setattr__(self, "_nbrs",
                           {v: tuple(sorted(ws)) for v, ws in nbrs.items()})
        object.__setattr__(self, "_col", col)
        if self.sides is not None:
            if len(self.sides) != self.n:
                raise GraphError("sides tag length != n")
            if any(s not in (0, 1) for s in self.sides):
                raise GraphError("sides entries must be 0 or 1")
            object.__setattr__(self, "sides", tuple(self.sides))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]],
                   num_colors: int | None = None,
                   sides: Optional[Sequence[int]] = None) -> "ColoredGraph":
        es = tuple(sorted((_norm(u, v) + (c,)) for (u, v, c) in edges))
        if num_colors is None:
            num_colors = (max((c for (_, _, c) in es), default=-1)) + 1
        return cls(n, es, num_colors, tuple(sides) if sides is not None else None)

    @property
    def _bits(self) -> tuple:
        """Per vertex, one (neighbour, 1 << neighbour, 1 << color) tuple per
        edge, in ascending order: the table the search kernels read. Built
        on the first search of this graph and kept, so loading, validating
        and converting a graph never pay for its big ints. (Cached by hand:
        functools.cached_property takes a lock on every first read, a few
        microseconds, several percent of a search on K5.)"""
        bits = self.__dict__.get("_bits_cache")
        if bits is None:
            nbrs = self._nbrs
            bits = tuple([tuple([(w, 1 << w, 1 << c) for (w, c) in nbrs[v]])
                          for v in range(self.n)])
            self.__dict__["_bits_cache"] = bits
        return bits

    # -- queries ------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """Sorted (neighbor, color) pairs at v."""
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm(u, v) in self._col

    def color_of(self, u: int, v: int) -> int:
        try:
            return self._col[_norm(u, v)]
        except KeyError:
            raise GraphError(f"no edge ({u},{v})") from None

    def colors_at(self, v: int) -> frozenset[int]:
        return frozenset(c for (_, c) in self._nbrs[v])

    def used_colors(self) -> frozenset[int]:
        return frozenset(c for (_, _, c) in self.edges)

    def skeleton(self) -> GraphSkeleton:
        return GraphSkeleton(self.n, tuple((u, v) for (u, v, _) in self.edges), self.sides)


@dataclass(frozen=True)
class ProperColoringReport:
    is_proper: bool
    # (vertex, color, edge1, edge2): two edges of the same color meeting at vertex
    violations: tuple[tuple[int, int, Edge, Edge], ...]


def validate_proper(g: ColoredGraph) -> ProperColoringReport:
    """Check that no two edges of equal color share an endpoint."""
    violations = []
    for v in range(g.n):
        by_color: dict[int, Edge] = {}
        for (w, c) in g.neighbors(v):
            e = _norm(v, w)
            if c in by_color:
                violations.append((v, c, by_color[c], e))
            else:
                by_color[c] = e
    return ProperColoringReport(not violations, tuple(violations))


# -- constructions shared by every module -----------------------------------

def complete_graph(n: int) -> GraphSkeleton:
    return GraphSkeleton(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> GraphSkeleton:
    """K_{a,b} with the bipartition recorded: side 0 is 0..a-1, side 1 is a..a+b-1."""
    edges = tuple((u, a + w) for u in range(a) for w in range(b))
    return GraphSkeleton(a + b, edges, sides=tuple([0] * a + [1] * b))


def one_factorization(n: int) -> list[list[Edge]]:
    """Round-robin 1-factorization of K_n (n even): n-1 perfect matchings."""
    if n % 2 != 0 or n < 2:
        raise GraphError("1-factorization needs an even vertex count >= 2")
    rounds = []
    others = list(range(n - 1))
    for r in range(n - 1):
        pairs = [_norm(n - 1, others[0])]
        for i in range(1, n // 2):
            pairs.append(_norm(others[i], others[-i]))
        rounds.append(sorted(pairs))
        others = others[1:] + others[:1]
    return rounds

def one_factorized_complete(n: int) -> ColoredGraph:
    """K_n (n even) properly colored with n-1 colors, one per 1-factor."""
    edges = []
    for c, matching in enumerate(one_factorization(n)):
        edges.extend((u, v, c) for (u, v) in matching)
    return ColoredGraph.from_edges(n, edges, num_colors=n - 1)


def disjoint_union(gs: Sequence[ColoredGraph], share_colors: bool) -> ColoredGraph:
    """Disjoint union with vertex offsetting.

    share_colors=True keeps color ids as-is (palette = max of palettes);
    share_colors=False offsets each graph's palette so no color is shared.
    """
    edges: list[tuple[int, int, int]] = []
    v_off = 0
    c_off = 0
    sides: list[int] | None = []
    for g in gs:
        for (u, v, c) in g.edges:
            edges.append((u + v_off, v + v_off, c if share_colors else c + c_off))
        if sides is not None and g.sides is not None:
            sides.extend(g.sides)
        else:
            sides = None
        v_off += g.n
        c_off += g.num_colors
    if share_colors:
        palette = max((g.num_colors for g in gs), default=0)
    else:
        palette = c_off
    return ColoredGraph.from_edges(v_off, edges, num_colors=palette,
                                   sides=sides if sides else None)


def induced_subgraph(g: ColoredGraph, keep: Iterable[int]) -> tuple[ColoredGraph, dict[int, int]]:
    """Subgraph induced on `keep`, relabeled densely.

    Returns (subgraph, old_id -> new_id). The palette is preserved even if
    some colors no longer occur.
    """
    kept = sorted(set(keep))
    if any(not (0 <= v < g.n) for v in kept):
        raise GraphError("keep contains an unknown vertex")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [(remap[u], remap[v], c) for (u, v, c) in g.edges
             if u in remap and v in remap]
    sides = tuple(g.sides[v] for v in kept) if g.sides is not None else None
    return ColoredGraph.from_edges(len(kept), edges, num_colors=g.num_colors,
                                   sides=sides), remap


# -- file I/O ----------------------------------------------------------------

def serialize_graph(g: ColoredGraph) -> str:
    lines = [f"{g.n} {g.m} {g.num_colors}"]
    if g.sides is not None:
        lines.append("# sides " + "".join(str(s) for s in g.sides))
    lines.extend(f"{u} {v} {c}" for (u, v, c) in g.edges)
    return "\n".join(lines) + "\n"


def graph_to_json_obj(g: ColoredGraph) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "colors": g.num_colors,
        "edges": [[u, v, c] for (u, v, c) in g.edges],
        "sides": list(g.sides) if g.sides is not None else None,
    }


def serialize_graph_json(g: ColoredGraph) -> str:
    return json.dumps(graph_to_json_obj(g), indent=1) + "\n"


def _check_vertex_guard(n: int) -> None:
    if n > PARSE_VERTEX_GUARD:
        raise GuardError("parse", f"n={n} exceeds the vertex guard "
                                  f"{PARSE_VERTEX_GUARD}")


def graph_from_json_obj(obj: dict) -> ColoredGraph:
    try:
        n = int(obj["n"])
        _check_vertex_guard(n)
        colors = int(obj["colors"])
        edges = [(int(u), int(v), int(c)) for (u, v, c) in obj["edges"]]
        sides = obj.get("sides")
        if sides is not None:
            sides = tuple(int(s) for s in sides)
        m = int(obj["m"]) if "m" in obj else len(edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"bad json graph object: {exc}") from None
    if m != len(edges):
        raise GraphError("declared m does not match edge list length")
    return ColoredGraph.from_edges(n, edges, num_colors=colors, sides=sides)


def parse_graph(text: str) -> ColoredGraph:
    """Parse either format; JSON is recognized by a leading '{'. A header
    declaring more than PARSE_VERTEX_GUARD vertices raises GuardError."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return graph_from_json_obj(json.loads(text))
        except json.JSONDecodeError as exc:
            raise GraphError(f"bad json: {exc}") from None
    sides: Optional[tuple[int, ...]] = None
    empty_tag = False
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sides"):
                bits = body[len("sides"):].strip()
                if bits and all(ch in "01" for ch in bits):
                    sides = tuple(int(ch) for ch in bits)
                empty_tag = empty_tag or not bits
            continue
        if not line:
            continue
        parts = line.split()
        if not all(p.lstrip("-").isdigit() for p in parts):
            raise GraphError(f"line {lineno}: non-integer token")
        rows.append([int(p) for p in parts])
    if not rows:
        raise GraphError("empty graph file")
    head, body = rows[0], rows[1:]
    if len(head) != 3:
        raise GraphError("header must be 'n m C'")
    n, m, num_colors = head
    _check_vertex_guard(n)
    if empty_tag and n == 0 and sides is None:
        # the bipartition of a graph with no vertices; on n > 0 a bare tag
        # is ignored, like any other tag that does not parse
        sides = ()
    if len(body) != m:
        raise GraphError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for row in body:
        if len(row) != 3:
            raise GraphError(f"edge line needs 'u v c', got {row}")
        u, v, c = row
        if not (0 <= u < v < n):
            raise GraphError(f"edge ({u},{v}) violates 0 <= u < v < n")
        edges.append((u, v, c))
    return ColoredGraph.from_edges(n, edges, num_colors=num_colors, sides=sides)


def load_graph(path: str) -> ColoredGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"graph file is not UTF-8 text: {exc}") from None
    return parse_graph(text)


def save_graph(g: ColoredGraph, path: str) -> None:
    text = serialize_graph_json(g) if path.endswith(".json") else serialize_graph(g)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
