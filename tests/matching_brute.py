"""Reference matchings: what terminals.maximum_matching is checked against.

reference_matching is the bitmask DP without the early stop at
mask.bit_count() // 2, so it explores every partner of every vertex;
brute_matching_size tries edge subsets outright, so keep graphs small.
"""

import itertools
from functools import lru_cache


def reference_matching(aux):
    """A maximum matching of `aux` as sorted vertex pairs: first vertex of
    the mask unmatched if that loses nothing, else matched to its first
    partner that keeps the optimum."""
    vs = aux.vertices
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for (a, b) in aux.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]

    @lru_cache(maxsize=None)
    def best(mask):
        if mask == 0:
            return 0
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        top = best(rest)
        live = adj[i] & rest
        while live:
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
    return tuple(sorted(pairs))


def brute_matching_size(aux):
    """Size of the largest set of pairwise disjoint edges of `aux`."""
    es = sorted(aux.edges)
    for r in range(len(aux.vertices) // 2, 0, -1):
        for combo in itertools.combinations(es, r):
            vs = [v for e in combo for v in e]
            if len(set(vs)) == 2 * r:
                return r
    return 0
