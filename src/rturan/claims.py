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
    """Pieces that are expensive enough to share with the suite driver."""
    g: ColoredGraph
    pstar: RainbowPath
    prof: PathProfile
    maximal: bool
    terminals: frozenset
    aux: AuxGraph
    pairs: tuple
    mstats: MatchingReport


def build_claim_context(g: ColoredGraph, pstar: Optional[RainbowPath] = None,
                        budget: Optional[int] = None) -> ClaimContext:
    if pstar is None:
        found = longest_rainbow_path(g, budget=budget)
        if not found.proven_optimal:
            raise GuardError("claims", "search budget too small to pin the "
                             "longest rainbow path")
        pstar = found.best
        maximal = True
    else:
        probe = has_rainbow_path(g, pstar.length + 1, budget=budget)
        if probe.found is None:
            raise GuardError("claims", "search budget too small to decide "
                             "maximality")
        maximal = not probe.found
    if pstar is None or pstar.length < 1:
        raise PreconditionError("claim checking needs a rainbow path with "
                                "at least one edge")
    prof = compute_profile(g, pstar)
    aux = build_aux_oracle(g, pstar)
    terminals = frozenset(aux.vertices)
    pairs = maximum_matching(aux)
    mstats = matching_stats(g, pstar, pairs)
    return ClaimContext(g=g, pstar=pstar, prof=prof, maximal=maximal,
                        terminals=terminals, aux=aux, pairs=pairs,
                        mstats=mstats)


def check_claims(g: ColoredGraph, pstar: Optional[RainbowPath] = None,
                 ctx: Optional[ClaimContext] = None,
                 budget: Optional[int] = None) -> ClaimReport:
    if ctx is None:
        ctx = build_claim_context(g, pstar, budget=budget)
    prof, pstar = ctx.prof, ctx.pstar
    k = prof.k
    colors = pstar.colors
    pos = {v: i for i, v in enumerate(pstar.vertices)}
    tpos = frozenset(pos[v] for v in ctx.terminals)
    t = len(tpos)

    def t_range(x, y):
        return sum(1 for i in tpos if x <= i <= y)

    l_new, r_new = len(prof.start_new), len(prof.end_new)
    l_nice, r_nice = len(prof.start_nice), len(prof.end_nice)
    l_out, r_out = len(prof.start_out), len(prof.end_out)
    lo_outer, lo = prof.win_lo_outer, prof.win_lo
    hi, hi_outer = prof.win_hi, prof.win_hi_outer

    hyp = {
        "maximal": ctx.maximal,
        "min_degree": g.min_degree() >= Fraction(9 * k, 7) + 2,
        "standing": not prof.far_edge_is_new,
        "pivots": prof.pivots_present,
        "window_order": prof.pivots_present and lo <= hi,
        "window_reversed": prof.pivots_present and lo > hi,
    }

    def exit_colors_on_path():
        stray = (prof.start_out - set(colors)) | (prof.end_out - set(colors))
        return not stray, f"colors leaving the path ends: stray={sorted(stray)}"

    def exit_swap_disjoint():
        bad = (prof.start_out & prof.swap_from_end) \
            | (prof.end_out & prof.swap_from_start)
        return not bad, f"exit/swap overlap={sorted(bad)}"

    def exit_color_budget():
        ok = l_out <= k - r_new and r_out <= k - l_new
        return ok, (f"l_out={l_out} r_out={r_out} vs "
                    f"{k - r_new} and {k - l_new}")

    def swap_counts_match_fresh():
        ok = (len(prof.swap_from_start) == l_new
              and len(prof.swap_from_end) == r_new)
        return ok, (f"|swaps|=({len(prof.swap_from_start)},"
                    f"{len(prof.swap_from_end)}) fresh=({l_new},{r_new})")

    def residual_forms_agree():
        ok = (prof.start_res == prof.start_in - (prof.start_new | prof.start_nice)
              and prof.end_res == prof.end_in - (prof.end_new | prof.end_nice))
        return ok, "old-side and in-side residual definitions"

    def fresh_floor():
        q = Fraction(2 * k, 7) + 2
        return (l_new >= q and r_new >= q,
                f"l_new={l_new} r_new={r_new} floor={q}")

    def nice_floor():
        q = Fraction(4 * k, 7) + 4
        return l_nice + r_nice >= q, f"l_nice+r_nice={l_nice + r_nice} floor={q}"

    def far_jump_terminals():
        if not prof.far_edge_is_new:
            return True, "far edge absent or old, nothing to assert"
        return tpos == frozenset(range(k + 1)), \
            f"terminal positions {sorted(tpos)} should be all of 0..{k}"

    def fresh_chord_terminals():
        bad = [i for i, c in prof.start_chords.items()
               if c in prof.start_new and (i - 1) not in tpos]
        bad += [-j for j, c in prof.end_chords.items()
                if c in prof.end_new and (j + 1) not in tpos]
        return not bad, f"chords without the freed terminal: {sorted(bad)}"

    def nice_chord_terminals():
        bad, corners = [], 0
        for i, c in prof.start_chords.items():
            if c not in prof.start_nice:
                continue
            j = colors.index(c)
            if j >= i:
                ok_here = (i - 1) in tpos
            elif i < k:
                ok_here = (i + 1) in tpos
            else:
                corners += 1
                continue
            if not ok_here:
                bad.append(("start", i))
        for p, c in prof.end_chords.items():
            if c not in prof.end_nice:
                continue
            q = colors.index(c) + 1
            if q <= p:
                ok_here = (p + 1) in tpos
            elif p > 0:
                ok_here = (p - 1) in tpos
            else:
                corners += 1
                continue
            if not ok_here:
                bad.append(("end", p))
        return not bad, f"missing terminals at {bad}, corners skipped={corners}"

    def window_chord_terminals():
        bad = []
        for i, c in prof.start_chords.items():
            if c in prof.start_new and lo <= i <= hi:
                if (i - 1) not in tpos or (i + 1) not in tpos:
                    bad.append(("start", i))
        for p, c in prof.end_chords.items():
            if c in prof.end_new and lo <= p <= hi:
                if (p - 1) not in tpos or (p + 1) not in tpos:
                    bad.append(("end", p))
        return not bad, f"window chords missing a side: {bad}"

    def fresh_ranges_trim():
        ok = (prof.n_start_new(0, 1) == 0 and prof.n_end_new(k - 1, k) == 0)
        return ok, "fresh chords may not touch the first or last path edge"

    def nice_ranges_trim():
        ok = (prof.n_start_nice(0, 1) == 0 and prof.n_end_nice(k - 1, k) == 0)
        return ok, "nice chords may not touch the first or last path edge"

    def pivot_split():
        ok = (l_new == prof.n_start_new(0, hi) + 1
              and r_new == prof.n_end_new(lo, k) + 1)
        return ok, (f"l_new={l_new} vs below-window {prof.n_start_new(0, hi)}+1; "
                    f"r_new={r_new} vs above-window {prof.n_end_new(lo, k)}+1")

    def outer_window_floor():
        need_lo = (prof.n_start_nice(0, lo) + prof.n_start_new(0, lo)
                   + Fraction(prof.n_end_nice(0, lo), 2))
        need_hi = (prof.n_end_nice(hi, k) + prof.n_end_new(hi, k)
                   + Fraction(prof.n_start_nice(hi, k), 2))
        got_lo, got_hi = 2 * t_range(0, lo - 1), 2 * t_range(hi + 1, k)
        return (got_lo >= need_lo and got_hi >= need_hi,
                f"2t[0,{lo - 1}]={got_lo} vs {need_lo}; "
                f"2t[{hi + 1},{k}]={got_hi} vs {need_hi}")

    def inner_window_floor():
        need = (prof.n_start_nice(lo + 1, hi - 1) + prof.n_end_nice(lo + 1, hi - 1)
                + 2 * (prof.n_start_new(lo + 1, hi) + prof.n_end_new(lo, hi - 1))
                - 2)
        got = 4 * t_range(lo, hi)
        return got >= need, f"4t[{lo},{hi}]={got} vs {need}"

    def disjoint_window_floor():
        return t >= l_new + r_new, f"t={t} vs l_new+r_new={l_new + r_new}"

    def terminal_count_floor():
        q = Fraction(3 * k, 7) + Fraction(3, 2)
        return t >= q, f"t={t} floor={q}"

    def aux_degree_floor():
        q = Fraction(2 * k, 7) + 2
        return ctx.aux.min_degree() >= q, \
            f"aux min degree={ctx.aux.min_degree()} floor={q}"

    def matching_exists_floor():
        q = min(ctx.aux.min_degree(), t // 2)
        return len(ctx.pairs) >= q, f"matching={len(ctx.pairs)} floor={q}"

    def matched_pair_nonedges():
        m = ctx.mstats.size
        need = 2 * m * m - 2 * m - Fraction(sum(ctx.mstats.non_edge_counts), 2)
        return ctx.mstats.induced_edges >= need, \
            f"induced={ctx.mstats.induced_edges} floor={need}"

    def matched_pair_degree_bound():
        bad = []
        for (ai, bi), ni in zip(ctx.mstats.pairs, ctx.mstats.non_edge_counts):
            if ctx.g.degree(ai) + ctx.g.degree(bi) > 3 * k - Fraction(ni, 2):
                bad.append((ai, bi))
        return not bad, f"pairs over the degree cap: {bad}"

    def matching_step_bound():
        m = ctx.mstats.size
        cap = (3 * k + 2 - 2 * m) * m
        return ctx.mstats.incident_edges <= cap, \
            f"incident={ctx.mstats.incident_edges} cap={cap}"

    battery = (
        ("exit_colors_on_path", ("maximal",), exit_colors_on_path),
        ("exit_swap_disjoint", ("maximal",), exit_swap_disjoint),
        ("exit_color_budget", ("maximal",), exit_color_budget),
        ("swap_counts_match_fresh", ("maximal",), swap_counts_match_fresh),
        ("residual_forms_agree", (), residual_forms_agree),
        ("fresh_floor", ("maximal", "min_degree"), fresh_floor),
        ("nice_floor", ("maximal", "min_degree"), nice_floor),
        ("far_jump_terminals", (), far_jump_terminals),
        ("fresh_chord_terminals", (), fresh_chord_terminals),
        ("nice_chord_terminals", (), nice_chord_terminals),
        ("window_chord_terminals",
         ("standing", "pivots", "window_order"), window_chord_terminals),
        ("fresh_ranges_trim", (), fresh_ranges_trim),
        ("nice_ranges_trim", ("standing",), nice_ranges_trim),
        ("pivot_split", ("maximal", "pivots"), pivot_split),
        ("outer_window_floor",
         ("standing", "pivots", "window_order"), outer_window_floor),
        ("inner_window_floor",
         ("standing", "pivots", "window_order"), inner_window_floor),
        ("disjoint_window_floor",
         ("maximal", "window_reversed"), disjoint_window_floor),
        ("terminal_count_floor", ("maximal", "min_degree"),
         terminal_count_floor),
        ("aux_degree_floor", ("maximal", "min_degree"), aux_degree_floor),
        ("matching_exists_floor", (), matching_exists_floor),
        ("matched_pair_nonedges", (), matched_pair_nonedges),
        ("matched_pair_degree_bound", ("maximal",), matched_pair_degree_bound),
        ("matching_step_bound", ("maximal",), matching_step_bound),
    )

    outcomes = []
    for name, requires, fn in battery:
        missing = tuple(h for h in requires if not hyp[h])
        if missing:
            outcomes.append(ClaimOutcome(
                name=name, status="skipped", requires=requires,
                detail="needs " + ", ".join(missing)))
            continue
        ok, detail = fn()
        outcomes.append(ClaimOutcome(
            name=name, status="ok" if ok else "falsified",
            requires=requires, detail=detail))
    return ClaimReport(k=k, hypotheses=hyp, outcomes=tuple(outcomes))
