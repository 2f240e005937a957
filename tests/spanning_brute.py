"""Brute-force spanning rainbow paths: the reference the search kernel is
checked against. Every vertex order of the set is tried, so keep sets small.
"""

from itertools import permutations

from rturan.errors import GuardError
from rturan.search import path_from_vertices


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
