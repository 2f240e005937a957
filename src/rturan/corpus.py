"""Randomized sweeps that hammer the rule engine against the oracles.

Each instance is a seeded properly colored graph. The suite pins a proven
longest rainbow path, then cross-checks every layer on it: the profile's
set partitions, the rotation rules against the exhaustive terminal oracle,
the auxiliary edges against the exhaustive pair oracle, and the whole claim
battery with hypotheses evaluated honestly (skips are skips, not passes).
A failure record names the instance by seed and index so any run can be
replayed exactly.

The optional tamper pass corrupts one rule witness per instance and demands
that the witness checker refuses it; a silent acceptance is reported as a
failure of the harness itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from .claims import ClaimContext, check_claims
from .errors import GuardError, PreconditionError, WitnessError
from .graphs import ColoredGraph, validate_proper
from .profile import compute_profile
from .search import longest_rainbow_path
from .terminals import (build_aux_oracle, build_aux_rules, checked_fire,
                        matching_stats, maximum_matching, terminal_rules)
# unused here, but bound for perfbench's --trace 1, which wraps it here
from .terminals import terminal_oracle  # noqa: F401

KINDS = ("random", "bare_path")

# RunConfig field -> accepted types; bool is never an accepted int
_FIELD_TYPES = {"seed": (int,), "instances": (int,), "n_min": (int,),
                "n_max": (int,), "edge_prob": (int, float), "kind": (str,),
                "budget": (int, type(None)), "tamper": (bool,)}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    instances: int = 100
    n_min: int = 5
    n_max: int = 10
    edge_prob: float = 0.45
    kind: str = "random"
    budget: Optional[int] = None
    tamper: bool = False

    def __post_init__(self):
        for name, types in _FIELD_TYPES.items():
            val = getattr(self, name)
            if not isinstance(val, types) or (isinstance(val, bool)
                                              and bool not in types):
                allowed = " or ".join("null" if t is type(None) else t.__name__
                                      for t in types)
                raise PreconditionError(f"config field {name!r} must be "
                                        f"{allowed}, got {val!r}")
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown instance kind {self.kind!r}")
        if not (2 <= self.n_min <= self.n_max):
            raise PreconditionError("need 2 <= n_min <= n_max")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise PreconditionError("edge_prob must lie in [0, 1]")
        if self.instances < 0:
            raise PreconditionError("instances must be nonnegative")

    def to_json_obj(self) -> dict:
        return {"seed": self.seed, "instances": self.instances,
                "n_min": self.n_min, "n_max": self.n_max,
                "edge_prob": self.edge_prob, "kind": self.kind,
                "budget": self.budget, "tamper": self.tamper}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise PreconditionError(f"unknown config keys: {sorted(extra)}")
        return cls(**obj)


@dataclass(frozen=True)
class FailureRecord:
    instance: str
    check: str
    detail: str


@dataclass(frozen=True)
class SuiteSummary:
    config: RunConfig
    instances: int
    failures: tuple
    hypothesis_counts: dict    # hypothesis name -> instances where it held
    claim_counts: dict         # "ok" | "falsified" | "skipped" -> totals
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "config": self.config.to_json_obj(),
            "instances": self.instances,
            "failures": [{"instance": f.instance, "check": f.check,
                          "detail": f.detail} for f in self.failures],
            "hypothesis_counts": dict(self.hypothesis_counts),
            "claim_counts": dict(self.claim_counts),
            "elapsed": self.elapsed,
            "ok": self.ok,
        }


def _greedy_color(rng: random.Random, n: int, skeleton_edges,
                  fixed=(), fresh_bias: float = 0.0) -> ColoredGraph:
    """Properly color edges in a shuffled order. Half the picks take the
    smallest legal color, half take a uniform legal one (a brand new color
    always counts as legal), so old and new chord colors both show up.
    fresh_bias forces a never-used color outright with that probability,
    which is what makes pivot windows appear at suite sizes."""
    at = [set() for _ in range(n)]
    colored = list(fixed)
    palette = 0
    for (u, v, c) in fixed:
        at[u].add(c)
        at[v].add(c)
        palette = max(palette, c + 1)
    pool = list(skeleton_edges)
    rng.shuffle(pool)
    for (u, v) in pool:
        if rng.random() < fresh_bias:
            c = palette
        else:
            legal = [c for c in range(palette + 1)
                     if c not in at[u] and c not in at[v]]
            c = legal[0] if rng.random() < 0.5 else rng.choice(legal)
        at[u].add(c)
        at[v].add(c)
        colored.append((u, v, c))
        palette = max(palette, c + 1)
    return ColoredGraph.from_edges(n, colored, num_colors=max(palette, 1))


def random_instance(rng: random.Random, n: int, edge_prob: float,
                    kind: str = "random") -> ColoredGraph:
    """One seeded properly colored graph with at least one edge."""
    if kind == "bare_path":
        order = list(range(n))
        rng.shuffle(order)
        fixed = tuple((order[i], order[i + 1], i) for i in range(n - 1))
        on_path = {(min(u, v), max(u, v)) for (u, v, _) in fixed}
        chords = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in on_path and rng.random() < edge_prob]
        return _greedy_color(rng, n, chords, fixed=fixed, fresh_bias=0.5)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    if not edges:
        u = rng.randrange(n - 1)
        edges = [(u, u + 1)]
    return _greedy_color(rng, n, edges)


def _profile_partitions(prof) -> Optional[str]:
    path_colors = set(prof.path_colors)
    checks = (
        (prof.start_colors == prof.start_out | prof.start_in
         and not (prof.start_out & prof.start_in), "start out/in split"),
        (prof.end_colors == prof.end_out | prof.end_in
         and not (prof.end_out & prof.end_in), "end out/in split"),
        (prof.start_colors == prof.start_old | prof.start_new
         and not (prof.start_old & prof.start_new), "start old/new split"),
        (prof.end_colors == prof.end_old | prof.end_new
         and not (prof.end_old & prof.end_new), "end old/new split"),
        (prof.start_old <= path_colors, "old start chords reuse path colors"),
        (prof.end_old <= path_colors, "old end chords reuse path colors"),
        (not (prof.start_new & path_colors), "fresh start colors off the path"),
        (not (prof.end_new & path_colors), "fresh end colors off the path"),
        (prof.start_nice <= prof.start_colors, "nice start colors at the end"),
        (prof.end_nice <= prof.end_colors, "nice end colors at the end"),
        (prof.swap_from_start <= path_colors, "start swaps are path colors"),
        (prof.swap_from_end <= path_colors, "end swaps are path colors"),
        (prof.start_res <= prof.start_old, "start residual inside old"),
        (prof.end_res <= prof.end_old, "end residual inside old"),
    )
    bad = [label for ok, label in checks if not ok]
    return None if not bad else "; ".join(bad)


def _tamper_once(g: ColoredGraph, pstar, fires) -> Optional[str]:
    """Corrupt one witness and insist the checker throws it out."""
    pos = {v: i for i, v in enumerate(pstar.vertices)}
    for f in fires:
        vs = f.witness.vertices
        if len(vs) < 3:
            continue
        broken = [pos[v] for v in (vs[:1] + vs[2:])]
        try:
            checked_fire(g, pstar, f.rule, f.anchor, broken, ())
        except WitnessError:
            return None
        return (f"checker accepted a witness with a vertex removed "
                f"(rule {f.rule}, anchor {f.anchor})")
    return None


def check_instance(g: ColoredGraph, label: str,
                   budget: Optional[int] = None,
                   tamper: bool = False) -> tuple:
    """Run every cross-check on one graph.

    Returns (failures, report) where report is the ClaimReport, or None if
    the checks could not get that far.
    """
    fails = []

    def fail(check, detail):
        fails.append(FailureRecord(label, check, detail))

    proper = validate_proper(g)
    if not proper.is_proper:
        fail("proper", f"{len(proper.violations)} color clashes, first: "
             f"{proper.violations[0]}")
        return fails, None

    found = longest_rainbow_path(g, budget=budget)
    if not found.proven_optimal or found.best is None:
        fail("search", "budget too small to pin the longest rainbow path")
        return fails, None
    pstar = found.best
    if pstar.length < 1:
        fail("search", "instance has no rainbow path with an edge")
        return fails, None

    prof = compute_profile(g, pstar)
    broken = _profile_partitions(prof)
    if broken:
        fail("profile", broken)

    try:
        trep = terminal_rules(g, pstar, prof)
    except WitnessError as e:
        fail("witness", f"{e.rule}: {e.detail}")
        return fails, None

    aux_oracle = build_aux_oracle(g, pstar)
    oracle_t = frozenset(aux_oracle.vertices)
    loose = trep.rule_terminals - oracle_t
    if loose:
        fail("terminal_rules", f"rules name non-terminals {sorted(loose)}")

    try:
        aux_rules, _ = build_aux_rules(g, pstar, trep)
    except WitnessError as e:
        fail("witness", f"{e.rule}: {e.detail}")
        return fails, None
    loose_edges = aux_rules.edges - aux_oracle.edges
    if loose_edges:
        fail("aux_rules", f"rule edges missing from the oracle: "
             f"{sorted(loose_edges)}")

    pairs = maximum_matching(aux_oracle)
    ctx = ClaimContext(g=g, pstar=pstar, prof=prof, maximal=True,
                       terminals=oracle_t, aux=aux_oracle, pairs=pairs,
                       mstats=matching_stats(g, pstar, pairs))
    report = check_claims(g, ctx=ctx)
    for name in report.falsified:
        outcome = next(o for o in report.outcomes if o.name == name)
        fail(f"claim:{name}", outcome.detail)

    if tamper:
        accepted = _tamper_once(g, pstar, trep.fires)
        if accepted:
            fail("tamper", accepted)

    return fails, report


def run_suite(config: RunConfig) -> SuiteSummary:
    rng = random.Random(config.seed)
    failures = []
    hyp_counts: dict = {}
    claim_counts = {"ok": 0, "falsified": 0, "skipped": 0}
    start = time.perf_counter()
    for idx in range(config.instances):
        label = f"{config.seed}:{idx}"
        n = rng.randint(config.n_min, config.n_max)
        g = random_instance(rng, n, config.edge_prob, config.kind)
        try:
            fails, report = check_instance(g, label, budget=config.budget,
                                           tamper=config.tamper)
        except GuardError as e:
            fails, report = [FailureRecord(label, "guard", str(e))], None
        failures.extend(fails)
        if report is not None:
            for name, held in report.hypotheses.items():
                if held:
                    hyp_counts[name] = hyp_counts.get(name, 0) + 1
            for status, c in report.counts().items():
                claim_counts[status] += c
    elapsed = time.perf_counter() - start
    return SuiteSummary(config=config, instances=config.instances,
                        failures=tuple(failures),
                        hypothesis_counts=hyp_counts,
                        claim_counts=claim_counts, elapsed=elapsed)
