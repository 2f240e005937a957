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

Both end in one acceptance rule: integers only, u < v, m equal to the
number of edge rows. parse_graph(serialize_graph(g)) == g for every valid
graph, in both formats. A file declaring more than PARSE_VERTEX_GUARD
vertices, or more than EDGE_GUARD edges or colors, is refused (GuardError,
exit 3 on the command line): a text file at its header, before any edge
line is stored, and a JSON file once json.loads has built its rows (a
2.75 MB file of 250,001 rows peaks at about 24 MB), before any graph is
built. The constructions check the same guards against their closed-form
sizes before they build anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import GraphError, GuardError

Edge = tuple[int, int]

PARSE_VERTEX_GUARD = 100_000
# a ColoredGraph costs about 470 bytes per edge: 1,000,000 edges took 472 MB
EDGE_GUARD = 250_000
# the search table (ColoredGraph._bits) holds at most 2*m*(n + colors in use)
# bits of big ints; 2^32 bits is 512 MB
SEARCH_TABLE_GUARD = 2 ** 32


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


def _checked_sides(n: int, sides) -> Optional[tuple[int, ...]]:
    """The bipartition tag as a tuple, refused unless n entries of 0/1."""
    if sides is None:
        return None
    if len(sides) != n:
        raise GraphError("sides tag length != n")
    if any(s not in (0, 1) for s in sides):
        raise GraphError("sides entries must be 0 or 1")
    return tuple(sides)


@dataclass(frozen=True)
class GraphSkeleton:
    """An uncolored graph: vertex count plus sorted edge tuple."""

    n: int
    edges: tuple[Edge, ...]
    sides: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("negative vertex count")
        _check_edges(self.n, self.edges)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "sides", _checked_sides(self.n, self.sides))

    @property
    def m(self) -> int:
        return len(self.edges)

    def with_colors(self, colors: Sequence[int]) -> "ColoredGraph":
        """Color this skeleton; colors[i] belongs to self.edges[i]."""
        if len(colors) != self.m:
            raise GraphError("one color per edge required")
        # the edges are already ascending, each with u < v: nothing to sort
        return ColoredGraph(
            self.n,
            tuple([(u, v, c) for (u, v), c in zip(self.edges, colors)]),
            max(colors, default=-1) + 1, self.sides)


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
        """Validate and build in one pass over the edges, in their given
        order: the first edge outside 0 <= u < v < n, or listed twice,
        is refused there; a color outside the palette is refused after the
        pass, at the least such edge. Edges not in ascending order are
        sorted; in ascending order, each neighbour list comes out
        ascending as it is built (v's lower neighbours come first, from
        the edges (u, v), then its upper ones)."""
        n, palette = self.n, self.num_colors
        if n < 0:
            raise GraphError("negative vertex count")
        if palette < 0:
            raise GraphError("negative palette size")
        nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
        col: dict[Edge, int] = {}
        bad_color = None
        prev = (-1, -1)
        ascending = True
        for (u, v, c) in self.edges:
            if not (0 <= u < v < n):
                raise GraphError(f"bad edge ({u},{v}) for n={n}")
            e = (u, v)
            if e in col:
                raise GraphError(f"duplicate edge ({u},{v})")
            if not (0 <= c < palette) and (bad_color is None
                                           or e < bad_color[0]):
                bad_color = (e, c)
            if e < prev:
                ascending = False
            prev = e
            col[e] = c
            nbrs[u].append((v, c))
            nbrs[v].append((u, c))
        if bad_color is not None:
            raise GraphError(f"color {bad_color[1]} outside palette "
                             f"0..{palette - 1}")
        if ascending:
            object.__setattr__(self, "edges", tuple(self.edges))
            object.__setattr__(self, "_nbrs",
                               {v: tuple(ws) for v, ws in nbrs.items()})
        else:
            object.__setattr__(self, "edges", tuple(sorted(self.edges)))
            object.__setattr__(self, "_nbrs",
                               {v: tuple(sorted(ws))
                                for v, ws in nbrs.items()})
        object.__setattr__(self, "_col", col)
        object.__setattr__(self, "sides", _checked_sides(n, self.sides))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]],
                   num_colors: int | None = None,
                   sides: Optional[Sequence[int]] = None) -> "ColoredGraph":
        es = tuple(sorted((_norm(u, v) + (c,)) for (u, v, c) in edges))
        if num_colors is None:
            num_colors = (max((c for (_, _, c) in es), default=-1)) + 1
        return cls(n, es, num_colors, sides)

    @property
    def _bits(self) -> tuple:
        """Per vertex, one (neighbour, 1 << neighbour, 1 << rank) tuple per
        edge, in ascending order: the table the search kernels read. A
        color's rank is its place in sorted(used_colors()), so the color
        ints stay below 2 ** m however large the color ids are; a color
        mask tests the same as one over the ids, as ranks are a bijection.
        Built on the first search of this graph and kept, so loading,
        validating and converting a graph never pay for its big ints. A
        graph whose table could pass SEARCH_TABLE_GUARD bits is refused
        (GuardError) before any of it is built.
        (Cached by hand: functools.cached_property takes a lock on every
        first read, a few microseconds, several percent of a search on K5.)"""
        bits = self.__dict__.get("_bits_cache")
        if bits is None:
            nbrs = self._nbrs
            used = sorted({c for (_, _, c) in self.edges})
            size = 2 * self.m * (self.n + len(used))
            if size > SEARCH_TABLE_GUARD:
                raise GuardError("search", f"the search table needs up to "
                                           f"{size} bits, over the guard "
                                           f"{SEARCH_TABLE_GUARD}")
            cbit = {c: 1 << r for r, c in enumerate(used)}
            bits = tuple([tuple([(w, 1 << w, cbit[c]) for (w, c) in nbrs[v]])
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

    def used_colors(self) -> frozenset[int]:
        return frozenset(c for (_, _, c) in self.edges)

    def skeleton(self) -> GraphSkeleton:
        return GraphSkeleton(self.n, tuple((u, v) for (u, v, _) in self.edges), self.sides)


@dataclass(frozen=True)
class ProperColoringReport:
    is_proper: bool
    # (vertex, color, edge1, edge2): two edges of the same color meeting at vertex
    violations: tuple[tuple[int, int, Edge, Edge], ...]

    def refusal(self) -> str:
        """Why an improper coloring is refused, for the commands that
        assume a proper one."""
        return (f"coloring is not proper ({len(self.violations)} clashes, "
                f"first at vertex {self.violations[0][0]})")


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


def induced_subgraph(g: ColoredGraph, keep: Iterable[int]) -> ColoredGraph:
    """Subgraph induced on `keep`: its vertex i is the i-th smallest kept
    id. The palette is preserved even if some colors no longer occur."""
    kept = sorted(set(keep))
    if any(not (0 <= v < g.n) for v in kept):
        raise GraphError("keep contains an unknown vertex")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [(remap[u], remap[v], c) for (u, v, c) in g.edges
             if u in remap and v in remap]
    sides = tuple(g.sides[v] for v in kept) if g.sides is not None else None
    return ColoredGraph.from_edges(len(kept), edges, num_colors=g.num_colors,
                                   sides=sides)


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


def check_size(topic: str, n: int, m: int, colors: int = 0) -> None:
    """Refuse a graph of more than PARSE_VERTEX_GUARD vertices, or more than
    EDGE_GUARD edges or colors (GuardError); callers check before they
    allocate."""
    if n > PARSE_VERTEX_GUARD:
        raise GuardError(topic, f"n={n} exceeds the vertex guard "
                                f"{PARSE_VERTEX_GUARD}")
    for name, size in (("m", m), ("colors", colors)):
        if size > EDGE_GUARD:
            raise GuardError(topic, f"{name}={size} exceeds the edge guard "
                                    f"{EDGE_GUARD}")


def _ints(xs) -> bool:
    return all(type(x) is int for x in xs)  # a bool or a float is no int


def _graph_from_fields(n, m, colors, rows: list, sides) -> ColoredGraph:
    """The one acceptance rule of both formats: integers only, sizes within
    check_size before anything is built, m equal to the number of rows; the
    ColoredGraph constructor refuses the rest (u >= v, an end outside
    0..n-1, a repeated edge, a color outside the palette, bad sides)."""
    if not _ints((n, m, colors)):
        raise GraphError("n, m and colors must be integers")
    check_size("parse", n, m, colors)
    if m != len(rows):
        raise GraphError(f"expected {m} edge rows, found {len(rows)}")
    if not all(type(r) is list and len(r) == 3 and _ints(r) for r in rows):
        raise GraphError("every edge row must be three integers 'u v c'")
    if sides is not None and not (type(sides) is list and _ints(sides)):
        raise GraphError("sides must be a list of 0s and 1s")
    return ColoredGraph(n, tuple(map(tuple, rows)), colors,
                        None if sides is None else tuple(sides))


def graph_from_json_obj(obj: dict) -> ColoredGraph:
    """A JSON graph object through _graph_from_fields; "m" defaults to the
    number of rows and "sides" to null."""
    try:
        n, colors, rows = obj["n"], obj["colors"], obj["edges"]
    except KeyError as exc:
        raise GraphError(f"bad json graph object: missing {exc}") from None
    if type(rows) is not list:
        raise GraphError("edges must be a list of [u, v, c] rows")
    return _graph_from_fields(n, obj.get("m", len(rows)), colors, rows,
                              obj.get("sides"))


def is_int_token(token: str) -> bool:
    """The text format's integer token: ASCII digits with an optional
    leading '-'."""
    return token.isascii() and token.removeprefix("-").isdigit()


def parse_graph(text: str) -> ColoredGraph:
    """Parse either format (JSON starts with '{'); both end in
    _graph_from_fields. The text lexer checks the header's sizes before it
    reads an edge line, and stops at the first line past the header's m."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError covers an int past the 4300-digit conversion limit
            raise GraphError(f"bad json: {exc}") from None
        return graph_from_json_obj(obj)
    sides: Optional[list[int]] = None
    empty_tag = False
    head: Optional[list[int]] = None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sides"):
                bits = body[len("sides"):].strip()
                if bits and all(ch in "01" for ch in bits):
                    sides = [int(ch) for ch in bits]
                empty_tag = empty_tag or not bits
            continue
        if not line:
            continue
        parts = line.split()
        if not all(map(is_int_token, parts)):
            raise GraphError(f"line {lineno}: non-integer token")
        try:
            row = [int(p) for p in parts]
        except ValueError:  # past int()'s 4300-digit conversion limit
            raise GraphError(f"line {lineno}: integer too long") from None
        if head is None:
            if len(row) != 3:
                raise GraphError("header must be 'n m C'")
            check_size("parse", *row)
            head = row
        elif len(rows) >= head[1]:
            # more lines than the header allows: stop before storing them
            raise GraphError(f"expected {head[1]} edge lines, found more")
        else:
            rows.append(row)
    if head is None:
        raise GraphError("empty graph file")
    if empty_tag and head[0] == 0 and sides is None:
        # the bipartition of a graph with no vertices; on n > 0 a bare tag
        # is ignored, like any other tag that does not parse
        sides = []
    return _graph_from_fields(*head, rows, sides)


def load_graph(path: str) -> ColoredGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"graph file is not UTF-8 text: {exc}") from None
    return parse_graph(text)


def file_format(path: str) -> str:
    """The format save_graph writes to `path`: json by its .json name."""
    return "json" if path.endswith(".json") else "text"


def save_graph(g: ColoredGraph, path: str) -> None:
    text = (serialize_graph_json(g) if file_format(path) == "json"
            else serialize_graph(g))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
