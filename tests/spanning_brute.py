"""References for the spanning searches. rainbow_orders is brute force:
every vertex order of the set is tried, so keep sets small. spanning_pairs
is a plain DFS with no prune, shared with nothing in the library.
reference_aux is the auxiliary-graph oracle without end rotations, one full
search per root.
"""

from itertools import permutations

from rturan.errors import GuardError
from rturan.search import _span_ends, _span_prep, path_from_vertices
from rturan.terminals import AuxGraph


def rainbow_orders(g, vset):
    """Every order of `vset` that is a rainbow path of g, both orientations,
    in lexicographic order (which is ascending DFS order)."""
    for order in permutations(sorted(set(vset))):
        if not all(g.has_edge(u, v) for u, v in zip(order, order[1:])):
            continue
        colors = [g.color_of(u, v) for u, v in zip(order, order[1:])]
        if len(set(colors)) == len(colors):
            yield order


def enumerate_rainbow_paths_on(g, vset, guard=16):
    """All rainbow paths whose vertex set is exactly `vset`, one orientation
    each (smaller endpoint first), in ascending DFS order.

    Refuses vertex sets larger than `guard`.
    """
    vs = sorted(set(vset))
    if len(vs) > guard:
        raise GuardError(f"vertex set of size {len(vs)} exceeds guard {guard}")
    if not vs:
        return
    for order in rainbow_orders(g, vs):
        if order[0] <= order[-1]:
            yield path_from_vertices(g, order)


def spanning_pairs(g, vset):
    """Every end pair (a, b), a < b, of a rainbow path whose vertex set is
    exactly `vset`: a DFS from each vertex over bitmasks of the vertices and
    colors used so far, with no prune."""
    vs = set(vset)
    full = sum(1 << v for v in vs)
    pairs = set()

    def walk(start, v, seen, used):
        if seen == full:
            if start < v:
                pairs.add((start, v))
            return
        for w, c in g.neighbors(v):
            if w in vs and not (seen >> w & 1 or used >> c & 1):
                walk(start, w, seen | 1 << w, used | 1 << c)

    for s in vs:
        walk(s, s, 1 << s, 0)
    return frozenset(pairs)


def reference_aux(g, pstar):
    """The auxiliary graph of V(pstar) from one spanning search per vertex
    u, in ascending order, over every later vertex: no end rotations and no
    pairs shared between roots."""
    s = _span_prep(g, pstar.vertices)
    if len(s.vs) == 1:
        return AuxGraph(vertices=tuple(s.vs), edges=frozenset())
    edges = set()
    later = s.full
    for u in s.vs[:-1]:
        later &= ~(1 << u)

        def hit(path):
            edges.add((u, path[-1]))
            return 1 << path[-1]

        _span_ends(s, u, later, hit)
    ends = {v for e in edges for v in e}
    return AuxGraph(vertices=tuple(sorted(ends)), edges=frozenset(edges))
