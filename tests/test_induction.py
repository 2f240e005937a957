"""Edge-bound certificates: building, arithmetic checking, JSON output,
and rejection of tampered records."""

import dataclasses
import json
from fractions import Fraction

import pytest

from rturan import induction
from rturan.constructions import bipartite_f2k
from rturan.errors import FalsificationError, GuardError, PreconditionError
from rturan.graphs import (ColoredGraph, disjoint_union,
                           one_factorized_complete)
from rturan.induction import (InductionCertificate, StepRecord, frac_str,
                              induction_step, run_induction,
                              verify_certificate)


def k4():
    return one_factorized_complete(4)


def double_f2k():
    return disjoint_union([bipartite_f2k(2)] * 2, share_colors=True)


# === the two telescoping runs ===

def test_k4_telescopes_to_six():
    cert = run_induction(k4(), 2)
    assert cert.n == 4 and cert.total_edges == 6 and cert.holds
    assert cert.bound == Fraction(32, 7)
    assert [s.kind for s in cert.steps] == ["low_degree"] * 4
    assert [s.removed_edges for s in cert.steps] == [3, 2, 1, 0]
    assert [s.removed_vertices for s in cert.steps] == \
        [(0,), (1,), (2,), (3,)]
    assert verify_certificate(cert, k4())


def test_double_f2k_telescopes_to_thirtytwo():
    g = double_f2k()
    cert = run_induction(g, 3)
    assert cert.n == 16 and cert.total_edges == 32 and cert.holds
    assert cert.total_edges < cert.bound * cert.n
    assert sum(s.removed_edges for s in cert.steps) == 32
    assert verify_certificate(cert, g)


def test_step_removes_smallest_min_degree_vertex():
    edges = [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4),
             (0, 3, 9), (0, 4, 10), (5, 1, 8), (5, 2, 7), (0, 5, 2)]
    g = ColoredGraph.from_edges(6, edges, num_colors=11)
    rec = induction_step(g, 5)
    assert rec.kind == "low_degree"
    assert rec.removed_vertices == (1,) and rec.removed_edges == 3
    cert = run_induction(g, 5)
    assert cert.steps[0] == rec
    # the later steps delete the other five vertices, in input ids
    assert sorted(v for s in cert.steps[1:] for v in s.removed_vertices) \
        == [0, 2, 3, 4, 5]


def test_matching_branch_step(monkeypatch):
    # No graph small enough to search has min degree 9k/7 + 2 without a
    # longer rainbow path, so the bound is lowered to reach the branch.
    # K_{4,4} xor has min degree 4 and longest rainbow paths of 3 edges.
    g = bipartite_f2k(2)
    monkeypatch.setattr(induction, "rotation_bound", lambda k: Fraction(4))
    rec = induction_step(g, 3)
    assert rec == StepRecord("matching", (0, 1, 4, 6), 12, 16)
    cert = run_induction(g, 3)
    assert cert.steps[0] == rec
    # what is left: the four unmatched vertices and g.m - 12 edges
    assert sorted(v for s in cert.steps[1:] for v in s.removed_vertices) \
        == [2, 3, 5, 7]
    assert sum(s.removed_edges for s in cert.steps[1:]) == g.m - 12 == 4
    # the telescoping budget is strict: 12 edges against 3 * 4 fails
    monkeypatch.setattr(induction, "rotation_bound", lambda k: Fraction(3))
    with pytest.raises(FalsificationError, match="telescoping"):
        induction_step(g, 3)


def test_matching_branch_cap_exit(monkeypatch):
    g = bipartite_f2k(2)
    monkeypatch.setattr(induction, "rotation_bound", lambda k: Fraction(4))
    # the real cap (3k + 2 - 2m) m = 14 at k = 3, m = 2; the step removes 12
    for cap, ok in ((12, True), (11, False)):
        monkeypatch.setattr(induction, "matching_step_cap",
                            lambda k, m, cap=cap: cap)
        if ok:
            assert induction_step(g, 3).removed_edges == 12
        else:
            with pytest.raises(FalsificationError, match="allow 11"):
                induction_step(g, 3)


# === serialization ===

def test_certificate_json_round_trip():
    cert = run_induction(k4(), 2)
    obj = cert.to_json_obj()
    assert obj["bound_value_rational"] == "32/7"
    assert set(obj["steps"][0]) == {"kind", "removed_vertices",
                                    "removed_edges", "bound_used"}
    assert json.loads(json.dumps(obj)) == obj
    assert (obj["n"], obj["k"], obj["total_edges"], obj["holds"]) \
        == (cert.n, cert.k, cert.total_edges, cert.holds)
    assert [tuple(s["removed_vertices"]) for s in obj["steps"]] \
        == [s.removed_vertices for s in cert.steps]


def test_frac_str_forms():
    assert frac_str(Fraction(32, 7)) == "32/7"
    assert frac_str(Fraction(11)) == "11"
    assert frac_str(4) == "4"


# === arithmetic checker ===

def broken(cert, **changes):
    return dataclasses.replace(cert, **changes)


def test_verifier_accepts_then_rejects_mutations():
    cert = run_induction(k4(), 2)
    assert verify_certificate(cert, k4())
    assert not verify_certificate(broken(cert, holds=False), k4())
    assert not verify_certificate(broken(cert, k=3), k4())
    assert not verify_certificate(broken(cert, total_edges=7), k4())
    dup = (cert.steps[0],) + cert.steps[:-1]
    assert not verify_certificate(broken(cert, steps=dup), k4())
    weird = (dataclasses.replace(cert.steps[0], kind="teleport"),) \
        + cert.steps[1:]
    assert not verify_certificate(broken(cert, steps=weird), k4())
    slack = (dataclasses.replace(cert.steps[0],
                                 removed_edges=cert.steps[0].bound_used),) \
        + cert.steps[1:]
    assert not verify_certificate(broken(cert, steps=slack), k4())


def test_verifier_cross_checks_graph():
    cert = run_induction(k4(), 2)
    assert verify_certificate(cert, k4())
    assert not verify_certificate(cert, one_factorized_complete(6))
    assert not verify_certificate(broken(cert, n=5), k4())
    # ids 1..4: the arithmetic holds, but they are not the graph's vertices
    shifted = tuple(dataclasses.replace(
        s, removed_vertices=tuple(v + 1 for v in s.removed_vertices))
        for s in cert.steps)
    assert not verify_certificate(broken(cert, steps=shifted), k4())


def test_verifier_accepts_matching_kind_record():
    # one matching step deleting all of K4 at k = 7
    bound = Fraction(9 * 7, 7) + 2
    step = StepRecord("matching", (0, 1, 2, 3), 6, bound * 4)
    cert = InductionCertificate(n=4, k=7, bound=bound, total_edges=6,
                                holds=True, steps=(step,))
    assert verify_certificate(cert, k4())
    assert not verify_certificate(
        dataclasses.replace(cert, steps=(dataclasses.replace(
            step, bound_used=bound * 3),)), k4())


# === preconditions and guards ===

def test_rejects_improper_coloring():
    bad = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)], num_colors=1)
    with pytest.raises(PreconditionError):
        run_induction(bad, 2)


def test_rejects_nonpositive_k():
    with pytest.raises(PreconditionError):
        run_induction(k4(), 0)


def test_rejects_broken_promise():
    # K4 under a one-factorization holds rainbow paths with 2 edges
    with pytest.raises(PreconditionError):
        run_induction(k4(), 1)


def test_budget_guard():
    with pytest.raises(GuardError):
        run_induction(one_factorized_complete(12), 10, budget=2)


def test_empty_graph_certificate():
    g = ColoredGraph.from_edges(0, [], num_colors=0)
    cert = run_induction(g, 2)
    assert cert.holds and cert.steps == () and cert.total_edges == 0
    assert verify_certificate(cert, g)
