"""Extremal proper colorings and the bound table.

bipartite_f2k(k) colors K_{2^k,2^k} by labeling both sides with the 2^k
bit-vectors of length k and coloring the edge uv with the vector u xor v.
Along any path the colors telescope: their xor equals the xor of the two
endpoint labels, and a path with an even number of edges has both endpoints
on one side while using each of the 2^k colors at most once, so a rainbow
path through all 2^k colors would force endpoint labels equal to each other
xor'd with zero difference. That kills every rainbow path of length 2^k.

maamoun_meyniel(k) colors the complete graph on the 2^k bit-vectors the same
way (colors are the nonzero vectors, each class a perfect matching); it has
no rainbow path using all 2^k - 1 colors.

Both need k >= 2: at k < 2 the parity/zero-sum argument has no room (a
single color, or none). Every construction checks its closed-form size
against the graph guards (graphs.check_size) before it builds anything, so
an oversized request is refused (GuardError) instead of filling memory;
bound_table likewise refuses more than BOUND_TABLE_GUARD rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import graphs
from .errors import GuardError, PreconditionError
from .graphs import ColoredGraph, check_size, disjoint_union

# bound_table builds every row before it returns. The new bound meets the
# older one at k = 7 and the acceptance table reads 64 rows, so this is ample
BOUND_TABLE_GUARD = 10_000


def _check_k(k: int, n: int = 0) -> None:
    if k < 2:
        raise PreconditionError("needs k >= 2; below that there is no zero-sum structure")
    if n < 0:
        raise PreconditionError("needs n >= 0")


def _xor_order(k: int, size) -> int:
    """2^k for a xor construction with size(2^k) = (vertices, edges),
    refused before anything is built when that size passes the guards."""
    _check_k(k)
    # each family has at least 2^k edges, so past the guard's bit length 2^k
    # is not even formed (at k = 10^9 that int alone is 125 MB)
    if k > graphs.EDGE_GUARD.bit_length():
        raise GuardError("construct", f"k={k}: at least 2^{k} edges exceed "
                                      f"the edge guard {graphs.EDGE_GUARD}")
    q = 1 << k
    check_size("construct", *size(q))
    return q


def bipartite_f2k(k: int) -> ColoredGraph:
    """K_{2^k,2^k} with c(uv) = label(u) xor label(v); 2^k colors.

    Side 0 is vertices 0..2^k-1 (label = id), side 1 is 2^k..2^{k+1}-1
    (label = id - 2^k).
    """
    q = _xor_order(k, lambda q: (2 * q, q * q))
    edges = [(u, q + w, u ^ w) for u in range(q) for w in range(q)]
    return ColoredGraph.from_edges(2 * q, edges, num_colors=q,
                                   sides=tuple([0] * q + [1] * q))


def maamoun_meyniel(k: int) -> ColoredGraph:
    """K_{2^k} on the bit-vectors with c(uv) = (u xor v) - 1; 2^k - 1 colors,
    each color class a perfect matching."""
    q = _xor_order(k, lambda q: (q, q * (q - 1) // 2))
    edges = [(u, v, (u ^ v) - 1) for u in range(q) for v in range(u + 1, q)]
    return ColoredGraph.from_edges(q, edges, num_colors=q - 1)


def lower_bound_edges(k: int, n: int) -> int:
    """Edges of the densest disjoint packing of bipartite_f2k(k) copies into
    n vertices: 4^k * floor(n / 2^{k+1})."""
    _check_k(k, n)
    return (4 ** k) * (n // (2 ** (k + 1)))


def blowup(k: int, n: int) -> ColoredGraph:
    """floor(n / 2^{k+1}) disjoint copies of bipartite_f2k(k), sharing one
    palette, padded with isolated vertices up to exactly n."""
    _check_k(k, n)
    copies = n >> (k + 1)  # n // 2^{k+1}, without forming 2^{k+1}
    check_size("construct", n, copies << (2 * k))
    g = disjoint_union([bipartite_f2k(k)] * copies if copies else [],
                       share_colors=True)
    if g.n < n:
        pad_sides = None
        if g.sides is not None:
            pad_sides = g.sides + tuple([0] * (n - g.n))
        g = ColoredGraph(n, g.edges, g.num_colors, pad_sides)
    return g


@dataclass(frozen=True)
class BoundTableRow:
    """Per-edge coefficients for graphs whose longest rainbow path has at
    most k edges: the packing lower bound, the rotation upper bound 9k/7 + 2,
    the older ceil((3k+1)/2) upper bound, and the uncolored baseline k/2.

    `lower` equals `eg_baseline`: disjoint properly colored copies of
    K_{k+1} hold no path of k + 1 edges, rainbow or not, and have k/2 edges
    per vertex, which meets the Erdos-Gallai bound k*n/2 whenever k + 1
    divides n (oracle.clique_packing). Both columns stay in the table."""

    k: int
    lower: Fraction
    upper_new: Fraction
    upper_old: int
    eg_baseline: Fraction

    def __post_init__(self):
        if self.k < 1:
            raise PreconditionError("needs k >= 1")


def rotation_bound(k: int) -> Fraction:
    """9k/7 + 2: the edges per vertex, and the min-degree hypothesis, when
    no rainbow path has more than k edges."""
    return Fraction(9 * k, 7) + 2


def chord_floor(k: int) -> Fraction:
    """2k/7 + 2: under the min-degree hypothesis, the fresh chords at each
    end of a longest rainbow path and the aux graph's min degree (the nice
    chords at both ends reach twice it)."""
    return Fraction(2 * k, 7) + 2


def matching_step_cap(k: int, m: int) -> int:
    """(3k + 2 - 2m) m: most edges lost deleting m matched terminal pairs
    of a longest rainbow path with k edges."""
    return (3 * k + 2 - 2 * m) * m


def bound_table_row(k: int) -> BoundTableRow:
    return BoundTableRow(
        k=k,
        lower=Fraction(k, 2),
        upper_new=rotation_bound(k),
        upper_old=-((-(3 * k + 1)) // 2),  # ceil((3k+1)/2)
        eg_baseline=Fraction(k, 2),
    )


def bound_table(k_max: int) -> list[BoundTableRow]:
    """Rows k = 1..k_max; a k_max past BOUND_TABLE_GUARD is refused before
    any row is built."""
    if k_max < 1:
        raise PreconditionError("needs k_max >= 1")
    if k_max > BOUND_TABLE_GUARD:
        raise GuardError("bounds", f"k_max={k_max} exceeds the row guard "
                                   f"{BOUND_TABLE_GUARD}")
    return [bound_table_row(k) for k in range(1, k_max + 1)]
