"""Rule engine vs. oracle on hand-built instances.

The main fixture is the same worked graph as in test_profile: path
0-1-2-3-4-5 colored 0..4, chords (0,3)=9, (0,4)=10, (5,1)=8, (5,2)=7,
far edge (0,5)=2. Its nice colors sit exactly in the silent corners
(start chord at i=k, end chord at p=0), so the nice rules must not fire
there; two variants below make each nice branch fire instead.
"""

import random

import pytest

from rturan import terminals
from rturan.constructions import maamoun_meyniel
from rturan.corpus import random_instance
from rturan.errors import GuardError, WitnessError
from rturan.graphs import ColoredGraph
from rturan.profile import compute_profile
from rturan.search import (RainbowPath, is_rainbow, longest_rainbow_path,
                           path_from_vertices)
from rturan.terminals import (AuxGraph, RuleFire, TerminalReport,
                              build_aux_oracle, build_aux_rules,
                              checked_fire, matching_stats,
                              maximum_matching, terminal_oracle,
                              terminal_rules)

from matching_brute import brute_matching_size, reference_matching


def hand_graph():
    edges = [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4),
             (0, 3, 9), (0, 4, 10), (5, 1, 8), (5, 2, 7), (0, 5, 2)]
    return ColoredGraph.from_edges(6, edges, num_colors=11)


def hand_pair():
    g = hand_graph()
    return g, path_from_vertices(g, range(6))


# === rule firings on the worked instance ===

def test_hand_instance_fires():
    g, p = hand_pair()
    rep = terminal_rules(g, compute_profile(g, p))
    assert rep.terminals_by_rule() == {
        "endpoints": (0, 5),
        "fresh_start": (2, 3, 5),
        "fresh_end": (0, 2, 3),
        "window_start": (2, 4),
        "window_end": (1, 3),
    }
    assert rep.rule_terminals == frozenset(range(6))


def test_hand_instance_witnesses_are_sound():
    g, p = hand_pair()
    for f in terminal_rules(g, compute_profile(g, p)).fires:
        assert is_rainbow(g, f.witness)
        assert set(f.witness.vertices) == set(range(6))
        assert f.witness.length == p.length


def test_window_witnesses_exactly():
    g, p = hand_pair()
    by_rule = {f.rule: f
               for f in terminal_rules(g, compute_profile(g, p)).fires
               if f.rule.startswith("window")}
    assert by_rule["window_start"].witness.vertices == (2, 3, 0, 1, 5, 4)
    assert by_rule["window_end"].witness.vertices == (3, 2, 5, 4, 0, 1)


def test_rules_within_oracle():
    g, p = hand_pair()
    rep = terminal_rules(g, compute_profile(g, p))
    assert rep.rule_terminals <= terminal_oracle(g, p)
    assert terminal_oracle(g, p) == frozenset(range(6))


# === nice rules, both live branches ===

def test_nice_start_chord_below_freed_edge():
    # chord (0,2) carries old color 3, freed by the fresh end chord (5,3)
    g = ColoredGraph.from_edges(
        6, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4),
            (0, 2, 3), (3, 5, 20)], num_colors=21)
    p = path_from_vertices(g, range(6))
    fires = {f.rule: f for f in terminal_rules(g, compute_profile(g, p)).fires}
    nice = fires["nice_start"]
    assert nice.witness.vertices == (1, 0, 2, 3, 5, 4)
    assert set(nice.witness.endpoints) == {1, 4}


def test_nice_start_chord_above_freed_edge():
    # chord (0,3) carries old color 1, freed by the fresh end chord (5,1)
    g = ColoredGraph.from_edges(
        6, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4),
            (0, 3, 1), (5, 1, 20)], num_colors=21)
    p = path_from_vertices(g, range(6))
    fires = {f.rule: f for f in terminal_rules(g, compute_profile(g, p)).fires}
    nice = fires["nice_start"]
    assert nice.witness.vertices == (2, 3, 0, 1, 5, 4)
    assert set(nice.witness.endpoints) == {2, 4}


def test_nice_rules_silent_on_far_corner():
    g, p = hand_pair()
    rules = {f.rule for f in terminal_rules(g, compute_profile(g, p)).fires}
    prof_nice = compute_nice(g, p)
    assert prof_nice == (frozenset({2}), frozenset({2}))
    assert "nice_start" not in rules and "nice_end" not in rules


def compute_nice(g, p):
    prof = compute_profile(g, p)
    return prof.start.nice, prof.end.nice


# === whole-path jump ===

def test_far_jump_makes_everything_terminal():
    g = maamoun_meyniel(2)
    p = path_from_vertices(g, [1, 0, 2])
    rep = terminal_rules(g, compute_profile(g, p))
    jumps = [f for f in rep.fires if f.rule == "far_jump"]
    assert len(jumps) == 2
    assert rep.rule_terminals == frozenset({0, 1, 2})
    assert terminal_oracle(g, p) == frozenset({0, 1, 2})


# === the witness checker refuses unsound fires ===

def test_checked_fire_rejects_non_path():
    g, p = hand_pair()
    with pytest.raises(WitnessError):
        checked_fire(g, p, "bogus", [2, 0, 1, 3, 4, 5])


def test_checked_fire_rejects_repeated_color():
    g, p = hand_pair()
    with pytest.raises(WitnessError) as e:
        checked_fire(g, p, "bogus", [4, 0, 5, 2, 3])
    assert "color" in str(e.value)


def test_checked_fire_rejects_non_spanning():
    g, p = hand_pair()
    with pytest.raises(WitnessError) as e:
        checked_fire(g, p, "bogus", [0, 1, 2, 3, 4])
    assert "span" in str(e.value)


# === auxiliary graph ===

def test_aux_rules_subset_of_oracle():
    g, p = hand_pair()
    aux_r = build_aux_rules(g, p, terminal_rules(g, compute_profile(g, p)))
    aux_o = build_aux_oracle(g, p)
    assert set(aux_r.vertices) <= set(aux_o.vertices)
    assert aux_r.edges <= aux_o.edges
    assert (0, 5) in aux_r.edges


def reference_aux_rules(g, p, rep, seen=None):
    """build_aux_rules without its memo: every fire is read off g again,
    every report witness rotated again. `seen` collects each sequence read."""
    span, pairs = set(p.vertices), set()

    def fire(source, vertices, colors=None):
        w = terminals._witness(g, span, source, vertices)
        if colors is not None and w.colors != colors:
            raise WitnessError(source, "recorded colors disagree")
        pairs.add(tuple(sorted(w.endpoints)))
        if seen is not None:
            seen.append(tuple(vertices))
        return w

    fire("base", p.vertices, p.colors)
    for f in rep.fires:
        w = fire("witness", f.witness.vertices, f.witness.colors)
        for source, seq in terminals._jump_rotations(g, w):
            fire(source, seq)
    return AuxGraph(vertices=tuple(sorted(rep.rule_terminals.union(*pairs))),
                    edges=frozenset(pairs))


def suite_instances(seed, kind, count):
    """The first `count` instances of the criterion-08 sweep (n 5..12,
    edge probability 0.45), each with its proven longest path and rule
    report."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_instance(rng, rng.randint(5, 12), 0.45, kind)
        p = longest_rainbow_path(g).best
        yield g, p, terminal_rules(g, compute_profile(g, p))


def reference_jump_rotations(g, w):
    """terminals._jump_rotations written with a {vertex: position} table:
    the jump_end rotations are the jump_start rotations of w read
    backwards, read back again."""
    used = set(w.colors)
    out = []
    for source, vs, back in (("jump_end", w.vertices[::-1], -1),
                             ("jump_start", w.vertices, 1)):
        pos = {v: i for i, v in enumerate(vs)}
        for (x, c) in g.neighbors(vs[0]):
            i = pos.get(x)
            if i is None or c in used or i < 2:
                continue
            out.append((source, (vs[i - 1::-1] + vs[i:])[::back]))
    return out


@pytest.mark.parametrize("seed,kind", [(808, "random"), (909, "bare_path")])
def test_jump_rotations_equal_the_position_table_form(seed, kind):
    # every fire witness of the first 200 instances of each sweep, P*
    # included: the same rotations, in the same order
    sources = set()
    for g, p, rep in suite_instances(seed, kind, 200):
        for f in rep.fires:
            rotations = terminals._jump_rotations(g, f.witness)
            assert rotations == reference_jump_rotations(g, f.witness)
            sources.update(source for source, _ in rotations)
    assert sources == {"jump_end", "jump_start"}


@pytest.mark.parametrize("seed,kind", [(808, "random"), (909, "bare_path")])
def test_aux_rules_equal_the_unmemoized_reference(seed, kind):
    for g, p, rep in suite_instances(seed, kind, 60):
        # the endpoints fire alone: P*'s own rotations, which the fresh
        # fires repeat in a full report
        head = TerminalReport(rep.fires[:1])
        for r in (rep, head):
            assert build_aux_rules(g, p, r) == reference_aux_rules(g, p, r)


@pytest.mark.parametrize("seed,kind", [(808, "random"), (909, "bare_path")])
def test_rule_terminals_are_the_ends_of_the_witnesses(seed, kind):
    # a report is its fires: what they certify is read off their witnesses
    for g, p, rep in suite_instances(seed, kind, 60):
        ends = {v for f in rep.fires for v in f.witness.endpoints}
        assert TerminalReport(rep.fires) == rep
        assert rep.rule_terminals == ends
        aux = build_aux_rules(g, p, rep)
        assert set(aux.vertices) == {v for e in aux.edges for v in e} >= ends


def test_aux_rules_read_each_distinct_sequence_once(monkeypatch):
    # suite instance 909:2: 21 fires, two of them repeated witnesses, and
    # 150 checks in the reference over 91 distinct sequences
    *_, (g, p, rep) = suite_instances(909, "bare_path", 3)
    seen = []
    expected = reference_aux_rules(g, p, rep, seen)
    assert (len(seen), len(set(seen))) == (150, 91)
    reads = []
    witness = terminals._witness

    def counting(g, span, source, vertices):
        reads.append(tuple(vertices))
        return witness(g, span, source, vertices)

    monkeypatch.setattr(terminals, "_witness", counting)
    assert build_aux_rules(g, p, rep) == expected
    assert sorted(reads) == sorted(set(seen))


def test_aux_rules_reread_witnesses_from_the_graph():
    g, p = hand_pair()
    rep = terminal_rules(g, compute_profile(g, p))
    for f in rep.fires:
        w = f.witness
        # the recorded colors, reversed: still distinct, but not g's colors
        forged = RainbowPath(w.vertices, w.colors[::-1])
        bad = TerminalReport(fires=(RuleFire(f.rule, forged),))
        with pytest.raises(WitnessError) as e:
            build_aux_rules(g, p, bad)
        assert e.value.rule == "witness"
    shifted = RainbowPath(p.vertices, p.colors[1:] + (6,))
    with pytest.raises(WitnessError) as e:
        build_aux_rules(g, shifted, rep)
    assert e.value.rule == "base"


def test_aux_rules_vertices_hold_every_edge_end():
    # suite instance 808:115: a jump rotation ends at vertex 5, a terminal
    # no rule names
    rng = random.Random(808)
    for _ in range(116):
        g = random_instance(rng, rng.randint(5, 12), 0.45, "random")
    p = longest_rainbow_path(g).best
    rep = terminal_rules(g, compute_profile(g, p))
    aux = build_aux_rules(g, p, rep)
    assert 5 not in rep.rule_terminals and 5 in aux.vertices
    ends = {v for e in aux.edges for v in e}
    assert ends <= set(aux.vertices) <= terminal_oracle(g, p)
    assert maximum_matching(aux)


def test_aux_graph_accessors():
    aux = AuxGraph(vertices=(0, 1, 2), edges=frozenset({(0, 1), (1, 2)}))
    nbrs = {v: sorted(w for e in aux.edges if v in e for w in e if w != v)
            for v in aux.vertices}
    assert nbrs[1] == [0, 2] and nbrs[0] == [1]
    assert aux.min_degree() == 1
    assert AuxGraph(vertices=(), edges=frozenset()).min_degree() == 0


# === maximum matching ===

def test_matching_on_small_cases():
    path4 = AuxGraph(vertices=(0, 1, 2, 3),
                     edges=frozenset({(0, 1), (1, 2), (2, 3)}))
    assert maximum_matching(path4) == ((0, 1), (2, 3))
    star = AuxGraph(vertices=(0, 1, 2, 3),
                    edges=frozenset({(0, 1), (0, 2), (0, 3)}))
    assert len(maximum_matching(star)) == 1


def test_deep_matching_is_refused():
    # the recursion goes one level per vertex: a 600-cycle is too deep
    n = 600
    cycle = AuxGraph(vertices=tuple(range(n)), edges=frozenset(
        (min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))
    with pytest.raises(GuardError, match="matching search recursed"):
        maximum_matching(cycle)


def test_matching_matches_brute_force():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randrange(2, 9)
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.4)
        aux = AuxGraph(vertices=tuple(range(n)), edges=edges)
        pairs = maximum_matching(aux)
        flat = [v for pr in pairs for v in pr]
        assert len(set(flat)) == len(flat)
        assert all(pr in edges for pr in pairs)
        assert len(pairs) == brute_matching_size(aux)


def test_matching_equals_reference_dp():
    """The early stop changes no pair: 5,000 seeded graphs on 0-12
    vertices with scattered labels, against the DP without it; on up to 8
    vertices the size is also the brute-force maximum."""
    rng = random.Random(4)
    for trial in range(5000):
        n = trial % 13
        vs = tuple(sorted(rng.sample(range(20), n)))
        density = rng.random()
        edges = frozenset((u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                          if rng.random() < density)
        aux = AuxGraph(vertices=vs, edges=edges)
        pairs = maximum_matching(aux)
        assert pairs == reference_matching(aux), (vs, sorted(edges))
        if n <= 8:
            assert len(pairs) == brute_matching_size(aux)


# === matching statistics feeding the deletion step ===

def test_matching_stats_hand_values():
    g, p = hand_pair()
    rep = matching_stats(g, p, ((0, 5), (1, 2)))
    assert rep.matched == (0, 1, 2, 5)
    assert rep.non_edge_counts == (2, 4)
    assert rep.incident_edges == 9
    assert rep.induced_edges == 5
    assert rep.size == 2
