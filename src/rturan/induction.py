"""Vertex-deletion certificate for the global edge bound.

For a properly colored graph whose rainbow paths all have at most k edges,
the total edge count stays below (9k/7 + 2) n. The argument peels vertices
off one batch at a time, and this module replays it step by step on a
concrete graph, recording how many edges each deletion removed and how many
the argument allows. Two branches:

  low_degree   some vertex has degree below 9k/7 + 2: delete it
  matching     every degree is at least 9k/7 + 2; take a longest rainbow
               path (its length may sit below k, the machinery rebases onto
               the actual length), build the terminal auxiliary graph, pick
               a maximum matching, and delete all matched vertices; the
               counting claims cap the edges lost at (3k'+2-2m)m

Each step's removed edge count must fall strictly below its telescoping
budget of (9k/7 + 2) per vertex. If the matching branch ever removes more
than its cap, that is not an input problem but a broken theorem, and the
run stops with FalsificationError rather than producing a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .constructions import matching_step_cap, rotation_bound
from .errors import FalsificationError, GuardError, PreconditionError
from .graphs import ColoredGraph, induced_subgraph, validate_proper
from .search import has_rainbow_path, longest_rainbow_path
from .terminals import build_aux_oracle, matching_stats, maximum_matching
# unused here, but bound for perfbench's --trace 1, which wraps it here
from .terminals import terminal_oracle  # noqa: F401


def frac_str(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class StepRecord:
    kind: str               # "low_degree" or "matching"
    removed_vertices: tuple
    removed_edges: int
    bound_used: Fraction    # telescoping budget for this step, strict


@dataclass(frozen=True)
class InductionCertificate:
    n: int
    k: int
    bound: Fraction         # 9k/7 + 2, edges per vertex
    total_edges: int
    holds: bool
    steps: tuple

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "bound_value_rational": frac_str(self.bound),
            "total_edges": self.total_edges,
            "holds": self.holds,
            "steps": [
                {
                    "kind": s.kind,
                    "removed_vertices": list(s.removed_vertices),
                    "removed_edges": s.removed_edges,
                    "bound_used": frac_str(s.bound_used),
                }
                for s in self.steps
            ],
        }


def verify_certificate(cert: InductionCertificate, g: ColoredGraph) -> bool:
    """Re-run the certificate arithmetic, and check it against g, without
    re-running the search."""
    if cert.bound != rotation_bound(cert.k):
        return False
    if g.n != cert.n or g.m != cert.total_edges:
        return False
    # every vertex of g removed exactly once
    removed = sorted(v for s in cert.steps for v in s.removed_vertices)
    if removed != list(range(cert.n)):
        return False
    total = 0
    for s in cert.steps:
        if s.kind not in ("low_degree", "matching"):
            return False
        if s.bound_used != cert.bound * len(s.removed_vertices):
            return False
        if not s.removed_edges < s.bound_used:
            return False
        total += s.removed_edges
    if total != cert.total_edges:
        return False
    expected = cert.n == 0 or cert.total_edges < cert.bound * cert.n
    return cert.holds == expected


def induction_step(g: ColoredGraph, k: int,
                   budget: Optional[int] = None) -> StepRecord:
    """One deletion step on g, recorded in g's vertex ids."""
    bound = rotation_bound(k)
    dmin = g.min_degree()
    if dmin < bound:
        v = min(u for u in range(g.n) if g.degree(u) == dmin)
        return StepRecord("low_degree", (v,), dmin, bound)

    pstar = longest_rainbow_path(g, budget=budget).pinned()
    k_cur = pstar.length
    if k_cur > k:
        raise PreconditionError(
            f"graph has a rainbow path with {k_cur} edges, over the "
            f"promised {k}")
    stats = matching_stats(g, pstar,
                           maximum_matching(build_aux_oracle(g, pstar)))
    m = stats.size
    cap = matching_step_cap(k_cur, m)
    if stats.incident_edges > cap:
        raise FalsificationError(
            f"matching step removes {stats.incident_edges} edges, the "
            f"counting claims allow {cap} (path length {k_cur}, "
            f"matching size {m})")
    budget_here = bound * (2 * m)
    if not stats.incident_edges < budget_here:
        raise FalsificationError(
            f"matching step removes {stats.incident_edges} edges, "
            f"telescoping needs strictly fewer than {frac_str(budget_here)}")
    return StepRecord("matching", stats.matched, stats.incident_edges,
                      budget_here)


def run_induction(g: ColoredGraph, k: int,
                  budget: Optional[int] = None) -> InductionCertificate:
    if k < 1:
        raise PreconditionError("the path-edge budget k must be at least 1")
    rep = validate_proper(g)
    if not rep.is_proper:
        raise PreconditionError(rep.refusal())
    probe = has_rainbow_path(g, k + 1, budget=budget)
    if probe.found is None:
        raise GuardError("induct", "search budget too small to check the "
                         "input promise")
    if probe.found:
        raise PreconditionError(
            f"graph has a rainbow path with {k + 1} edges; the bound's "
            f"hypothesis fails")

    bound = rotation_bound(k)
    steps = []
    cur = g
    live = list(range(g.n))  # input ids of cur's vertices, ascending
    total = 0
    while cur.n:
        rec = induction_step(cur, k, budget=budget)
        gone = {live[v] for v in rec.removed_vertices}
        steps.append(replace(rec, removed_vertices=tuple(sorted(gone))))
        total += rec.removed_edges
        live = [v for v in live if v not in gone]
        cur = induced_subgraph(g, live)
    assert total == g.m, "telescoped edge count drifted from the graph"
    holds = g.n == 0 or total < bound * g.n
    return InductionCertificate(n=g.n, k=k, bound=bound, total_edges=total,
                                holds=holds, steps=tuple(steps))
