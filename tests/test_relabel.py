"""Every layer's answer is invariant under relabelling.

The kernels' prunes read the vertex order and the color ranks, so a
relabelled copy of a graph runs a different search tree; its answers must
still be the original's, read through the relabelling. Each case is the
instance idx of the criterion-08 sweep with that seed, relabelled by maps
drawn from random.Random(label), label = "seed:idx:perm_seed": a vertex
permutation pi, then an injective color renaming sigma into the palette
plus 5 spare ids. mismatches(label) replays one case alone. The induction
certificate's totals are compared on the first INDUCTION_COUNT instances
only; its step counts follow tie order, so they are not compared.

The decide constructions are checked the same way, on the search layer
alone: the canonical proper colorings of K5 with 5 or 6 colors (color slack
1 or 2, where the longest and exists searches build the color-supply
layout) and the xor constructions. A case is labelled "name:perm_seed",
name one of CONSTRUCTIONS or "k5.i" for the i-th canonical coloring, and
decide_mismatches(label) replays it alone.
"""

import random
from functools import lru_cache

from rturan.claims import check_claims
from rturan.constructions import bipartite_f2k, blowup, maamoun_meyniel
from rturan.corpus import RunConfig, build_claim_context, sweep
from rturan.graphs import ColoredGraph, complete_graph
from rturan.induction import run_induction
from rturan.oracle import proper_colorings
from rturan.search import (has_rainbow_path, longest_rainbow_path,
                           path_from_vertices)
from rturan.terminals import build_aux_rules, terminal_rules

SWEEPS = {808: "random", 909: "bare_path"}
COUNT = 200
INDUCTION_COUNT = 100
PERM_SEED = 1
SPARE_COLORS = 5


@lru_cache(maxsize=None)
def suite_graphs(seed: int) -> tuple:
    """The first COUNT instances of the criterion-08 sweep with this seed."""
    return tuple(g for _, g in sweep(RunConfig(
        seed=seed, instances=COUNT, n_min=5, n_max=12, kind=SWEEPS[seed])))


def relabel(g: ColoredGraph, label: str):
    """(pi, h): the vertex map drawn from `label`, and h = pi sigma(g)."""
    rng = random.Random(label)
    pi = list(range(g.n))
    rng.shuffle(pi)
    sigma = rng.sample(range(g.num_colors + SPARE_COLORS), g.num_colors)
    h = ColoredGraph.from_edges(
        g.n, [(pi[u], pi[v], sigma[c]) for (u, v, c) in g.edges],
        num_colors=g.num_colors + SPARE_COLORS)
    return pi, h


def mismatches(label: str) -> list:
    """The layers whose answer on the relabelled copy differs from the
    original's, read through pi."""
    seed, idx, _ = map(int, label.split(":"))
    g = suite_graphs(seed)[idx]
    pi, h = relabel(g, label)

    def edges(aux):
        return frozenset(tuple(sorted((pi[a], pi[b]))) for a, b in aux.edges)

    ctx = build_claim_context(g)
    pstar = ctx.prof.path
    length = pstar.length
    hpath = path_from_vertices(h, [pi[v] for v in pstar.vertices])
    hctx = build_claim_context(h, hpath)
    rules, hrules = terminal_rules(g, ctx.prof), terminal_rules(h, hctx.prof)
    checks = {
        "longest": has_rainbow_path(h, length).found is True
        and has_rainbow_path(h, length + 1).found is False,
        "aux_oracle": edges(ctx.aux) == hctx.aux.edges,
        "rule_terminals": {pi[v] for v in rules.rule_terminals}
        == hrules.rule_terminals,
        "aux_rules": edges(build_aux_rules(g, pstar, rules))
        == build_aux_rules(h, hpath, hrules).edges,
        "claims": [(o.name, o.status) for o in check_claims(ctx).outcomes]
        == [(o.name, o.status) for o in check_claims(hctx).outcomes],
        "matching": ctx.mstats.size == hctx.mstats.size,
    }
    if idx < INDUCTION_COUNT:
        cert, hcert = run_induction(g, length), run_induction(h, length)
        checks["induction"] = ((cert.total_edges, cert.holds)
                               == (hcert.total_edges, hcert.holds))
    return [layer for layer, same in checks.items() if not same]


def test_every_layer_is_invariant_under_relabelling():
    labels = [f"{seed}:{idx}:{PERM_SEED}" for seed in SWEEPS
              for idx in range(COUNT)]
    bad = {label: m for label in labels if (m := mismatches(label))}
    assert not bad, f"relabelled answers differ: {bad}"


CONSTRUCTIONS = {
    "mm2": lambda: maamoun_meyniel(2),
    "mm3": lambda: maamoun_meyniel(3),
    "f2k2": lambda: bipartite_f2k(2),
    "blowup": lambda: blowup(2, 16),
}
CONSTRUCTION_PERM_SEEDS = (1, 2, 3)


@lru_cache(maxsize=None)
def k5_colorings() -> tuple:
    return tuple(proper_colorings(complete_graph(5)))


def construction(name: str) -> ColoredGraph:
    if name.startswith("k5."):
        return k5_colorings()[int(name[3:])]
    return CONSTRUCTIONS[name]()


def search_answers(g: ColoredGraph) -> tuple:
    """The longest length L and the exists verdicts at L and L + 1."""
    length = longest_rainbow_path(g).pinned().length
    return length, [has_rainbow_path(g, k).found
                    for k in (length, length + 1)]


@lru_cache(maxsize=None)
def original_answers(name: str) -> tuple:
    return search_answers(construction(name))


def decide_mismatches(label: str) -> list:
    """The search answers of the relabelled construction that differ from
    the original's."""
    name, _ = label.split(":")
    _, h = relabel(construction(name), label)
    length, exists = original_answers(name)
    hlength, hexists = search_answers(h)
    checks = {"longest": hlength == length,
              "exists": hexists == exists == [True, False]}
    return [layer for layer, same in checks.items() if not same]


def test_decide_constructions_are_invariant_under_relabelling():
    k5 = [f"k5.{i}" for i, g in enumerate(k5_colorings())
          if len(g.used_colors()) in (5, 6)]
    assert len(k5) == 96
    labels = [f"{name}:{PERM_SEED}" for name in k5] + [
        f"{name}:{seed}" for name in CONSTRUCTIONS
        for seed in CONSTRUCTION_PERM_SEEDS]
    bad = {label: m for label in labels if (m := decide_mismatches(label))}
    assert not bad, f"relabelled answers differ: {bad}"
