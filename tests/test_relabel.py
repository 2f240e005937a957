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
"""

import random
from functools import lru_cache

from rturan.claims import check_claims
from rturan.corpus import build_claim_context, random_instance
from rturan.graphs import ColoredGraph
from rturan.induction import run_induction
from rturan.search import has_rainbow_path, path_from_vertices
from rturan.terminals import build_aux_rules, terminal_rules

SWEEPS = {808: "random", 909: "bare_path"}
COUNT = 200
INDUCTION_COUNT = 100
PERM_SEED = 1
SPARE_COLORS = 5


@lru_cache(maxsize=None)
def sweep(seed: int) -> tuple:
    """The first COUNT instances of the criterion-08 sweep with this seed,
    drawn as run_suite draws them."""
    rng = random.Random(seed)
    return tuple(random_instance(rng, rng.randint(5, 12), 0.45, SWEEPS[seed])
                 for _ in range(COUNT))


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
    g = sweep(seed)[idx]
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
