"""Mechanized checks of the counting facts behind the edge bound.

Every check runs against a concrete colored graph and a fixed rainbow path,
with terminal sets computed by exhaustive search (never by the rule engine,
so an engine bug cannot vouch for itself). Checks are gated on the
hypotheses they actually need:

  maximal         no rainbow path in the graph is longer than the fixed one
  min_degree      every vertex has degree at least 9k/7 + 2
  standing        the far edge v_0 v_k is absent or carries an old color
  pivots          both pivot pairs exist (two fresh chords at either end)
  window_order    pivots exist and the window [a, b] is nonempty (a <= b)
  window_reversed pivots exist and a > b

A gated check whose hypotheses fail is reported as skipped, never as a
pass. A check that runs and fails is a falsification: either the input
violated a promise or the machinery is wrong, and the detail string says
which quantities disagreed.

One deliberate scope cut: the nice-chord check skips a chord whose rotation
has no witness construction (start side i = k, end side i = 0, when the
matching path edge lies on the small side). The terminal it would name need
not exist there. The window floors are checked exactly as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constructions import chord_floor, matching_step_cap, rotation_bound
from .errors import GuardError, PreconditionError
from .graphs import ColoredGraph
from .profile import PathProfile, compute_profile
from .search import RainbowPath, has_rainbow_path, longest_rainbow_path
from .terminals import (AuxGraph, MatchingReport, build_aux_oracle,
                        matching_stats, maximum_matching)


@dataclass(frozen=True)
class ClaimOutcome:
    name: str
    status: str        # "ok" | "falsified" | "skipped"
    requires: tuple
    detail: str


@dataclass(frozen=True)
class ClaimReport:
    k: int
    hypotheses: dict
    outcomes: tuple

    @property
    def falsified(self) -> tuple:
        return tuple(o.name for o in self.outcomes if o.status == "falsified")

    @property
    def all_ok(self) -> bool:
        return not self.falsified

    def counts(self) -> dict:
        out = {"ok": 0, "falsified": 0, "skipped": 0}
        for o in self.outcomes:
            out[o.status] += 1
        return out


@dataclass(frozen=True)
class ClaimContext:
    """P* = prof.path, terminals = aux.vertices, matching = mstats.pairs."""
    g: ColoredGraph
    prof: PathProfile
    maximal: bool
    aux: AuxGraph
    mstats: MatchingReport


def build_claim_context(g: ColoredGraph, pstar: Optional[RainbowPath] = None,
                        budget: Optional[int] = None) -> ClaimContext:
    """The context for `pstar`, or for a proven longest path when it is None;
    a given path's maximality is decided by one exists search, run only
    after the path has passed the cheap checks."""
    maximal = pstar is None  # a searched P* is proven longest
    if maximal:
        pstar = longest_rainbow_path(g, budget=budget).pinned()
    if pstar.length < 1:
        raise PreconditionError("claim checking needs a rainbow path with "
                                "at least one edge")
    prof = compute_profile(g, pstar)
    if not maximal:
        probe = has_rainbow_path(g, pstar.length + 1, budget=budget)
        if probe.found is None:
            raise GuardError("claims", "search budget too small to decide "
                             "maximality")
        maximal = not probe.found
    aux = build_aux_oracle(g, pstar)
    mstats = matching_stats(g, pstar, maximum_matching(aux))
    return ClaimContext(g=g, prof=prof, maximal=maximal, aux=aux,
                        mstats=mstats)


def check_claims(ctx: ClaimContext) -> ClaimReport:
    """Every claim on one context, each run only when its gates hold."""
    g, prof, mstats = ctx.g, ctx.prof, ctx.mstats
    k = prof.k
    pos = {v: i for i, v in enumerate(prof.path.vertices)}
    tpos = frozenset(pos[v] for v in ctx.aux.vertices)
    t = len(tpos)

    def t_range(x, y):
        return sum(1 for i in tpos if x <= i <= y)

    start, end = prof.start, prof.end
    l_new, r_new = len(start.new), len(end.new)
    l_nice, r_nice = len(start.nice), len(end.nice)
    l_out, r_out = len(start.out), len(end.out)
    lo, hi = prof.win_lo, prof.win_hi
    chord_q = chord_floor(k)
    # the chord checks read each end as the v_0 end of a view: P* for v_0,
    # P* reversed for v_k, whose terminal position i is k - i on P*
    views = (("start", prof, tpos, lambda i: i),
             ("end", prof.reversed(), frozenset(k - i for i in tpos),
              lambda i: k - i))

    hyp = {
        "maximal": ctx.maximal,
        "min_degree": g.min_degree() >= rotation_bound(k),
        "standing": not prof.far_edge_is_new,
        "pivots": prof.pivots_present,
        "window_order": prof.pivots_present and lo <= hi,
        "window_reversed": prof.pivots_present and lo > hi,
    }

    outcomes = []

    def claim(fn, *requires):
        missing = tuple(h for h in requires if not hyp[h])
        if missing:
            status, detail = "skipped", "needs " + ", ".join(missing)
        else:
            ok, detail = fn()
            status = "ok" if ok else "falsified"
        outcomes.append(ClaimOutcome(name=fn.__name__, status=status,
                                     requires=requires, detail=detail))

    def exit_colors_on_path():
        stray = (start.out | end.out) - set(prof.path_colors)
        return not stray, f"colors leaving the path ends: stray={sorted(stray)}"
    claim(exit_colors_on_path, "maximal")

    def exit_swap_disjoint():
        bad = (start.out & end.swaps) | (end.out & start.swaps)
        return not bad, f"exit/swap overlap={sorted(bad)}"
    claim(exit_swap_disjoint, "maximal")

    def exit_color_budget():
        ok = l_out <= k - r_new and r_out <= k - l_new
        return ok, (f"l_out={l_out} r_out={r_out} vs "
                    f"{k - r_new} and {k - l_new}")
    claim(exit_color_budget, "maximal")

    def swap_counts_match_fresh():
        ok = len(start.swaps) == l_new and len(end.swaps) == r_new
        return ok, (f"|swaps|=({len(start.swaps)},{len(end.swaps)}) "
                    f"fresh=({l_new},{r_new})")
    claim(swap_counts_match_fresh, "maximal")

    def residual_forms_agree():
        ok = all(e.res == e.in_ - (e.new | e.nice) for e in (start, end))
        return ok, "old-side and in-side residual definitions"
    claim(residual_forms_agree)

    def fresh_floor():
        return (l_new >= chord_q and r_new >= chord_q,
                f"l_new={l_new} r_new={r_new} floor={chord_q}")
    claim(fresh_floor, "maximal", "min_degree")

    def nice_floor():
        return (l_nice + r_nice >= 2 * chord_q,
                f"l_nice+r_nice={l_nice + r_nice} floor={2 * chord_q}")
    claim(nice_floor, "maximal", "min_degree")

    def far_jump_terminals():
        if not prof.far_edge_is_new:
            return True, "far edge absent or old, nothing to assert"
        return tpos == frozenset(range(k + 1)), \
            f"terminal positions {sorted(tpos)} should be all of 0..{k}"
    claim(far_jump_terminals)

    def fresh_chord_terminals():
        # an end chord v_k v_j is listed as -j
        bad = [at(i) if side == "start" else -at(i)
               for side, view, tp, at in views
               for i, c in view.start.chords.items()
               if c in view.start.new and (i - 1) not in tp]
        return not bad, f"chords without the freed terminal: {sorted(bad)}"
    claim(fresh_chord_terminals)

    def nice_chord_terminals():
        bad, corners = [], 0
        for side, view, tp, at in views:
            for i, c in view.start.chords.items():
                if c not in view.start.nice:
                    continue
                j = view.path_colors.index(c)
                if j >= i:
                    ok_here = (i - 1) in tp
                elif i < k:
                    ok_here = (i + 1) in tp
                else:
                    corners += 1
                    continue
                if not ok_here:
                    bad.append((side, at(i)))
        return not bad, f"missing terminals at {bad}, corners skipped={corners}"
    claim(nice_chord_terminals)

    def window_chord_terminals():
        bad = []
        for side, view, tp, at in views:
            for i, c in view.start.chords.items():
                if c in view.start.new and view.win_lo <= i <= view.win_hi:
                    if (i - 1) not in tp or (i + 1) not in tp:
                        bad.append((side, at(i)))
        return not bad, f"window chords missing a side: {bad}"
    claim(window_chord_terminals, "standing", "pivots", "window_order")

    def fresh_ranges_trim():
        ok = (prof.n_start_new(0, 1) == 0 and prof.n_end_new(k - 1, k) == 0)
        return ok, "fresh chords may not touch the first or last path edge"
    claim(fresh_ranges_trim)

    def nice_ranges_trim():
        ok = (prof.n_start_nice(0, 1) == 0 and prof.n_end_nice(k - 1, k) == 0)
        return ok, "nice chords may not touch the first or last path edge"
    claim(nice_ranges_trim, "standing")

    def pivot_split():
        ok = (l_new == prof.n_start_new(0, hi) + 1
              and r_new == prof.n_end_new(lo, k) + 1)
        return ok, (f"l_new={l_new} vs below-window {prof.n_start_new(0, hi)}+1; "
                    f"r_new={r_new} vs above-window {prof.n_end_new(lo, k)}+1")
    claim(pivot_split, "maximal", "pivots")

    def outer_window_floor():
        need_lo = (prof.n_start_nice(0, lo) + prof.n_start_new(0, lo)
                   + Fraction(prof.n_end_nice(0, lo), 2))
        need_hi = (prof.n_end_nice(hi, k) + prof.n_end_new(hi, k)
                   + Fraction(prof.n_start_nice(hi, k), 2))
        got_lo, got_hi = 2 * t_range(0, lo - 1), 2 * t_range(hi + 1, k)
        return (got_lo >= need_lo and got_hi >= need_hi,
                f"2t[0,{lo - 1}]={got_lo} vs {need_lo}; "
                f"2t[{hi + 1},{k}]={got_hi} vs {need_hi}")
    claim(outer_window_floor, "standing", "pivots", "window_order")

    def inner_window_floor():
        need = (prof.n_start_nice(lo + 1, hi - 1) + prof.n_end_nice(lo + 1, hi - 1)
                + 2 * (prof.n_start_new(lo + 1, hi) + prof.n_end_new(lo, hi - 1))
                - 2)
        got = 4 * t_range(lo, hi)
        return got >= need, f"4t[{lo},{hi}]={got} vs {need}"
    claim(inner_window_floor, "standing", "pivots", "window_order")

    def disjoint_window_floor():
        return t >= l_new + r_new, f"t={t} vs l_new+r_new={l_new + r_new}"
    claim(disjoint_window_floor, "maximal", "window_reversed")

    def terminal_count_floor():
        q = Fraction(3 * k, 7) + Fraction(3, 2)
        return t >= q, f"t={t} floor={q}"
    claim(terminal_count_floor, "maximal", "min_degree")

    def aux_degree_floor():
        return ctx.aux.min_degree() >= chord_q, \
            f"aux min degree={ctx.aux.min_degree()} floor={chord_q}"
    claim(aux_degree_floor, "maximal", "min_degree")

    def matching_exists_floor():
        q = min(ctx.aux.min_degree(), t // 2)
        return mstats.size >= q, f"matching={mstats.size} floor={q}"
    claim(matching_exists_floor)

    def matched_pair_nonedges():
        m = mstats.size
        need = 2 * m * m - 2 * m - Fraction(sum(mstats.non_edge_counts), 2)
        return mstats.induced_edges >= need, \
            f"induced={mstats.induced_edges} floor={need}"
    claim(matched_pair_nonedges)

    def matched_pair_degree_bound():
        bad = []
        for (ai, bi), ni in zip(mstats.pairs, mstats.non_edge_counts):
            if g.degree(ai) + g.degree(bi) > 3 * k - Fraction(ni, 2):
                bad.append((ai, bi))
        return not bad, f"pairs over the degree cap: {bad}"
    claim(matched_pair_degree_bound, "maximal")

    def matching_step_bound():
        cap = matching_step_cap(k, mstats.size)
        return mstats.incident_edges <= cap, \
            f"incident={mstats.incident_edges} cap={cap}"
    claim(matching_step_bound, "maximal")

    return ClaimReport(k=k, hypotheses=hyp, outcomes=tuple(outcomes))
