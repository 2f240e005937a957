"""Randomized sweeps that hammer the rule engine against the oracles.

Each instance is a seeded properly colored graph. `build_claim_context`,
the one builder of the claim battery's context (also behind `rt engine
claims`), pins a proven longest rainbow path and computes its profile, the
exhaustive pair oracle and a maximum matching. The suite cross-checks every
layer on that context: the profile's set partitions, the rotation rules
against the oracle's terminals, the auxiliary edges against the oracle's
pairs, and the whole claim battery with hypotheses evaluated honestly
(skips are skips, not passes). The builder lives here so that perfbench's
traced run, which wraps each layer at its `corpus` name, sees every call.
`sweep(config)` draws a run's instances in order, each labelled "seed:idx"
as its failure records are, so `islice` to idx replays one alone. An
instance whose checks raise anything but a guard refusal becomes a "crash"
record, and the sweep goes on.

The optional tamper pass corrupts one rule witness per instance and demands
that the witness checker refuses it; a silent acceptance is reported as a
failure of the harness itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

from .claims import ClaimContext, check_claims
from .errors import GuardError, PreconditionError, WitnessError
from .graphs import ColoredGraph, check_size, validate_proper
from .profile import compute_profile
from .search import RainbowPath, has_rainbow_path, longest_rainbow_path
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
        if self.budget is not None and self.budget < 0:
            raise PreconditionError("budget must be nonnegative")
        # random_instance draws over every vertex pair of K_{n_max}
        check_size("suite", self.n_max, self.n_max * (self.n_max - 1) // 2)

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
        return {**asdict(self), "ok": self.ok}


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
    """One seeded properly colored graph with at least one edge, so on at
    least two vertices; `kind` is one of KINDS."""
    if kind not in KINDS:
        raise PreconditionError(f"unknown instance kind {kind!r}")
    if n < 2:
        raise PreconditionError("an instance needs n >= 2 vertices")
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


def _profile_partitions(prof) -> Optional[str]:
    """The labels of the profile's broken partitions, joined, or None. Each
    check reads one end's record, counted from that end."""
    path_colors = set(prof.path_colors)

    def split(whole, a, b) -> bool:
        return whole == a | b and not (a & b)

    checks = (
        ("{} out/in split", lambda e: split(e.colors, e.out, e.in_)),
        ("{} old/new split", lambda e: split(e.colors, e.old, e.new)),
        ("old {} chords reuse path colors", lambda e: e.old <= path_colors),
        ("fresh {} colors off the path", lambda e: not (e.new & path_colors)),
        ("nice {} colors at the end", lambda e: e.nice <= e.colors),
        ("{} swaps are path colors", lambda e: e.swaps <= path_colors),
        ("{} residual inside old", lambda e: e.res <= e.old),
    )
    ends = (("start", prof.start), ("end", prof.end))
    bad = [label.format(side) for label, ok in checks
           for side, e in ends if not ok(e)]
    return None if not bad else "; ".join(bad)


def _tamper_once(g: ColoredGraph, pstar, fires) -> Optional[str]:
    """Corrupt one witness and insist the checker throws it out."""
    for f in fires:
        vs = f.witness.vertices
        if len(vs) < 3:
            continue
        try:
            checked_fire(g, pstar, f.rule, vs[:1] + vs[2:])
        except WitnessError:
            return None
        return (f"checker accepted a witness with a vertex removed "
                f"(rule {f.rule}, witness {vs})")
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

    try:
        ctx = build_claim_context(g, budget=budget)
    except GuardError as e:
        fail(e.topic, e.detail)
        return fails, None
    except PreconditionError as e:
        fail("search", str(e))
        return fails, None
    pstar = ctx.prof.path

    broken = _profile_partitions(ctx.prof)
    if broken:
        fail("profile", broken)

    try:
        trep = terminal_rules(g, ctx.prof)
        aux_rules = build_aux_rules(g, pstar, trep)
    except WitnessError as e:
        fail("witness", f"{e.rule}: {e.detail}")
        return fails, None
    loose = trep.rule_terminals.difference(ctx.aux.vertices)
    if loose:
        fail("terminal_rules", f"rules name non-terminals {sorted(loose)}")
    loose_edges = aux_rules.edges - ctx.aux.edges
    if loose_edges:
        fail("aux_rules", f"rule edges missing from the oracle: "
             f"{sorted(loose_edges)}")

    report = check_claims(ctx)
    for o in report.outcomes:
        if o.status == "falsified":
            fail(f"claim:{o.name}", o.detail)

    if tamper:
        accepted = _tamper_once(g, pstar, trep.fires)
        if accepted:
            fail("tamper", accepted)

    return fails, report


def sweep(config: RunConfig) -> Iterator[tuple[str, ColoredGraph]]:
    """(label, graph) per instance, in order: one RNG seeded by config.seed
    draws each vertex count, then each graph."""
    rng = random.Random(config.seed)
    for idx in range(config.instances):
        n = rng.randint(config.n_min, config.n_max)
        yield (f"{config.seed}:{idx}",
               random_instance(rng, n, config.edge_prob, config.kind))


def run_suite(config: RunConfig) -> SuiteSummary:
    failures = []
    hyp_counts: dict = {}
    claim_counts = {"ok": 0, "falsified": 0, "skipped": 0}
    start = time.perf_counter()
    for label, g in sweep(config):
        try:
            fails, report = check_instance(g, label, budget=config.budget,
                                           tamper=config.tamper)
        except GuardError as e:
            fails, report = [FailureRecord(label, "guard", str(e))], None
        except Exception as e:
            # one broken instance must not end the sweep; its label replays it
            fails, report = [FailureRecord(label, "crash",
                                           f"{type(e).__name__}: {e}")], None
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
