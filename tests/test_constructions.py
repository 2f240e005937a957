"""The two xor colorings, the packing, and the bound table.

Longest-path values asserted here were proven by the exhaustive search in
this repository and spot-checked against the zero-sum argument: colors along
a path telescope to the xor of the endpoint labels, so a bipartite_f2k(k)
rainbow path can never use all 2^k colors.
"""

from fractions import Fraction
from functools import reduce

import pytest

from rturan.constructions import (BoundTableRow, VectorLabel, bipartite_f2k,
                                  blowup, bound_table, bound_table_row,
                                  f2k_label, lower_bound_edges,
                                  maamoun_meyniel)
from rturan.errors import PreconditionError
from rturan.graphs import validate_proper
from rturan.search import longest_rainbow_path

from spanning_brute import enumerate_rainbow_paths_on


# === labels ===

def test_vector_label_xor():
    a, b = VectorLabel(3, 0b101), VectorLabel(3, 0b011)
    assert (a ^ b).bits == 0b110
    with pytest.raises(PreconditionError):
        VectorLabel(3, 8)
    with pytest.raises(PreconditionError):
        a ^ VectorLabel(2, 1)


def test_f2k_label_wraps_second_side():
    assert f2k_label(2, 1).bits == 1
    assert f2k_label(2, 5).bits == 1


# === the bipartite coloring ===

def test_f2k_shape():
    g = bipartite_f2k(2)
    assert g.n == 8 and g.m == 16 and g.num_colors == 4
    assert g.sides == (0, 0, 0, 0, 1, 1, 1, 1)
    assert validate_proper(g).is_proper


def test_f2k_color_identity():
    g = bipartite_f2k(2)
    for u in range(4):
        for w in range(4):
            assert g.color_of(u, 4 + w) == u ^ w


def test_f2k_needs_two_bits():
    for k in (1, 0, -3):
        with pytest.raises(PreconditionError):
            bipartite_f2k(k)


def test_f2k_longest_is_three():
    out = longest_rainbow_path(bipartite_f2k(2))
    assert out.proven_optimal and out.best.length == 3


def test_f2k_paths_telescope():
    g = bipartite_f2k(2)
    for p in enumerate_rainbow_paths_on(g, range(8), guard=20):
        if p.length % 2 == 0:
            u, w = p.endpoints
            assert reduce(lambda x, y: x ^ y, p.colors) == \
                f2k_label(2, u).bits ^ f2k_label(2, w).bits


# === the complete-graph coloring ===

def test_mm_shape_and_matchings():
    g = maamoun_meyniel(2)
    assert g.n == 4 and g.m == 6 and g.num_colors == 3
    assert validate_proper(g).is_proper
    by_color = {}
    for u, v, c in g.edges:
        by_color.setdefault(c, []).append((u, v))
    for c, es in by_color.items():
        assert len(es) == 2
        assert len({v for e in es for v in e}) == 4


def test_mm_longest_is_two():
    out = longest_rainbow_path(maamoun_meyniel(2))
    assert out.proven_optimal and out.best.length == 2


def test_mm_needs_two_bits():
    with pytest.raises(PreconditionError):
        maamoun_meyniel(1)


# === packing ===

def test_lower_bound_edges_values():
    assert lower_bound_edges(2, 8) == 16
    assert lower_bound_edges(2, 16) == 32
    assert lower_bound_edges(2, 7) == 0
    assert lower_bound_edges(3, 16) == 64
    assert lower_bound_edges(3, 15) == 0


def test_lower_bound_edges_guards():
    with pytest.raises(PreconditionError):
        lower_bound_edges(1, 8)
    with pytest.raises(PreconditionError):
        lower_bound_edges(2, -1)


def test_blowup_two_copies():
    g = blowup(2, 16)
    assert g.n == 16 and g.m == 32 and g.num_colors == 4
    assert validate_proper(g).is_proper
    assert g.m == lower_bound_edges(2, 16)


def test_blowup_pads_with_isolated_vertices():
    g = blowup(2, 20)
    assert g.n == 20 and g.m == 32
    assert g.degree(19) == 0
    assert len(g.sides) == 20


def test_blowup_zero_copies():
    g = blowup(2, 7)
    assert g.n == 7 and g.m == 0


# === bound table ===

def test_bound_table_equality_pivot():
    r7 = bound_table_row(7)
    assert r7.upper_new == Fraction(r7.upper_old)
    for k in range(8, 65):
        r = bound_table_row(k)
        assert r.upper_new < r.upper_old


def test_bound_table_row_fields():
    r = bound_table_row(6)
    assert r.upper_new == Fraction(68, 7)
    assert r.upper_old == 10
    assert r.lower == r.eg_baseline == Fraction(3)


def test_bound_table_old_is_ceiling():
    for k in range(1, 30):
        r = bound_table_row(k)
        assert r.upper_old - 1 < Fraction(3 * k + 1, 2) <= r.upper_old


def test_bound_table_guards():
    with pytest.raises(PreconditionError):
        bound_table(0)
    with pytest.raises(PreconditionError):
        BoundTableRow(0, Fraction(1), Fraction(1), 1, Fraction(1))


def test_bound_table_covers_range():
    rows = bound_table(12)
    assert [r.k for r in rows] == list(range(1, 13))
