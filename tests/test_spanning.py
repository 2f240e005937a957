"""The spanning-path kernels against brute force.

Every answer of the spanning searches, and of the terminal and auxiliary
oracles built on them, is compared with a plain enumeration of vertex
orders (spanning_brute). The witnesses must be the first such path in
ascending DFS order, which is lexicographic order of the vertex sequence.
The auxiliary oracle, which shares pairs across roots, learns them from
end rotations and searches sets of color slack 0 or 1 by color class, must
also equal the plain one-search-per-root loop of the vertex walk
(spanning_brute.reference_aux), and, since that walk's prunes are shared,
a plain DFS with no prune at all (spanning_brute.spanning_pairs).
"""

import ast
import random
import sys
import types
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from rturan import search, terminals
from rturan.corpus import RunConfig, random_instance, sweep
from rturan.graphs import ColoredGraph
from rturan.search import (longest_rainbow_path, path_from_vertices,
                           spanning_rainbow_path_between,
                           spanning_rainbow_path_from)
from rturan.terminals import build_aux_oracle, terminal_oracle

from spanning_brute import rainbow_orders, reference_aux, spanning_pairs


def check_spanning_searches(g, vset):
    """Compare every from/between query on vset with brute force."""
    orders = list(rainbow_orders(g, vset))
    vs = sorted(set(vset))
    for u in vs:
        from_u = [o for o in orders if o[0] == u]
        p = spanning_rainbow_path_from(g, vset, u)
        assert (p.vertices if p else None) == (from_u[0] if from_u else None)
        for w in vs:
            if w == u:
                continue
            to_w = [o for o in from_u if o[-1] == w]
            p = spanning_rainbow_path_between(g, vset, u, w)
            assert (p.vertices if p else None) == (to_w[0] if to_w else None)


def check_oracles(g, pstar):
    """Terminal set and aux edges on V(pstar) against brute force. pstar is
    any rainbow path of g, longest or not, as `--path` allows."""
    orders = list(rainbow_orders(g, pstar.vertices))
    ends = frozenset(o[0] for o in orders)
    assert terminal_oracle(g, pstar) == ends
    aux = build_aux_oracle(g, pstar)
    assert aux.vertices == tuple(sorted(ends))
    assert aux.edges == frozenset((o[0], o[-1]) for o in orders
                                  if o[0] < o[-1])
    assert aux == reference_aux(g, pstar)


def suite_graphs(seed, kind, count):
    """The first `count` instances of the criterion-08 sweep `seed`."""
    return (g for _, g in sweep(RunConfig(seed=seed, instances=count, n_min=5,
                                          n_max=12, kind=kind)))


def seeded_graphs(kind):
    rng = random.Random(f"spanning-{kind}")
    return [random_instance(rng, rng.randint(3, 7),
                            rng.choice((0.3, 0.5, 0.8)), kind)
            for _ in range(40)]


@pytest.mark.parametrize("kind", ["random", "bare_path"])
def test_oracles_match_brute_force(kind):
    for g in seeded_graphs(kind):
        check_oracles(g, longest_rainbow_path(g).best)


@pytest.mark.parametrize("kind", ["random", "bare_path"])
def test_oracles_on_shorter_paths_match_brute_force(kind):
    rng = random.Random(f"shorter-{kind}")
    for g in seeded_graphs(kind):
        # every proper prefix of P*, down to one vertex, is a rainbow path
        # that is not longest
        pstar = longest_rainbow_path(g).best
        for j in range(1, len(pstar.vertices)):
            check_oracles(g, path_from_vertices(g, pstar.vertices[:j]))
        # and so, mostly, is the first rainbow path on a random vertex set
        vs = rng.sample(range(g.n), rng.randint(1, g.n))
        for order in rainbow_orders(g, vs):
            check_oracles(g, path_from_vertices(g, order))
            break


@pytest.mark.parametrize("kind", ["random", "bare_path"])
def test_spanning_searches_match_brute_force(kind):
    rng = random.Random(5)
    for g in seeded_graphs(kind):
        check_spanning_searches(g, range(g.n))
        # a random subset exercises sets that may have no spanning path
        check_spanning_searches(g, rng.sample(range(g.n), rng.randint(2, g.n)))


def tight_improper_graphs(count):
    """`count` improper colorings of random graphs on 6 to 8 vertices whose
    color slack, colors in use - (n - 1), is 0 or 1: the aux oracle over
    all of V runs the class search, and a class may have several edges at a
    vertex."""
    rng = random.Random("tight-improper")
    graphs = []
    while len(graphs) < count:
        n = rng.randint(6, 8)
        k = n - 1 + rng.randint(0, 1)
        p = rng.choice((0.6, 0.8))
        g = ColoredGraph.from_edges(n, [
            (u, v, rng.randrange(k)) for u in range(n)
            for v in range(u + 1, n) if rng.random() < p])
        if len(g.used_colors()) - (n - 1) in (0, 1):
            graphs.append(g)
    return graphs


def test_spanning_searches_on_tight_improper_colorings_match_brute_force():
    # every from/between query over V against brute force
    for g in tight_improper_graphs(8):
        check_spanning_searches(g, range(g.n))


def test_oracles_on_tight_improper_colorings_match_brute_force():
    # P* a spanning rainbow order of V, of slack 0 or 1, so the aux oracle
    # runs the class search, here on classes with several edges at a vertex
    checked = crowded = 0
    for g in tight_improper_graphs(12):
        order = next(rainbow_orders(g, range(g.n)), None)
        if order is None:
            continue
        check_oracles(g, path_from_vertices(g, order))
        checked += 1
        crowded += any(
            max(Counter(x for e in edges for x in e).values()) > 1
            for edges in search._color_classes(g._bits).values())
    assert checked >= 10 and crowded >= 10


@pytest.mark.parametrize("seed,kind", [(808, "random"), (909, "bare_path")])
def test_aux_oracle_equals_reference_on_suite_instances(seed, kind):
    # the first 200 instances of each criterion-08 sweep
    for g in suite_graphs(seed, kind, 200):
        pstar = longest_rainbow_path(g).best
        assert build_aux_oracle(g, pstar) == reference_aux(g, pstar)


@pytest.mark.parametrize("seed,kind,nmax", [(808, "random", 12),
                                            (909, "bare_path", 9)])
def test_aux_oracle_equals_prune_free_dfs(seed, kind, nmax):
    # the same 200 instances; bare_path above n = 9 is too slow for a DFS
    # without a prune
    for g in suite_graphs(seed, kind, 200):
        if g.n <= nmax:
            pstar = longest_rainbow_path(g).best
            assert (build_aux_oracle(g, pstar).edges
                    == spanning_pairs(g, pstar.vertices))


def walk_calls(fn, *args, kernel=search._span_ends):
    """fn(*args) and the number of walk calls `kernel`, by default the
    spanning kernel, made."""
    walk = next(c for c in kernel.__code__.co_consts
                if isinstance(c, types.CodeType) and c.co_name == "walk")
    walks = 0

    def count(frame, event, arg):
        nonlocal walks
        if event == "call" and frame.f_code is walk:
            walks += 1

    sys.setprofile(count)
    try:
        got = fn(*args)
    finally:
        sys.setprofile(None)
    return got, walks


@lru_cache(maxsize=None)
def suite_walks(seed, kind, count=40, kernel=search._span_ends):
    """Walk calls `kernel` makes in the aux oracle on `count` suite
    instances; the bound and pin tests below share each count."""
    return sum(walk_calls(build_aux_oracle, g,
                          longest_rainbow_path(g).pinned(), kernel=kernel)[1]
               for g in suite_graphs(seed, kind, count))


# The aux oracle walks only the sets of color slack 2 or more: 13 of the
# first 500 random instances, and 33 of the first 40 bare_path ones. The
# walk bounds below count those.
WALKED = {"random": 500, "bare_path": 40}


@pytest.mark.parametrize("seed,kind,most", [(808, "random", 20_134),
                                            (909, "bare_path", 3_540)])
def test_prune_keeps_the_spanning_walk_small(seed, kind, most):
    # the dead-end and single-way-in prune alone keeps the walk this small
    # (bare_path: 3,225 since its sets of slack 1 or less left the walk):
    # with every prune switched off below the root the same instances take
    # 29,442 and 7,437 walk calls
    assert suite_walks(seed, kind, WALKED[kind]) <= most


@pytest.mark.parametrize("seed,kind,most", [(808, "random", 10_244),
                                            (909, "bare_path", 2_380)])
def test_color_tests_keep_the_spanning_walk_smaller(seed, kind, most):
    # the color tests on two-way and single-way-in vertices cut the walk
    # above further, to this (bare_path: 2,132)
    assert suite_walks(seed, kind, WALKED[kind]) <= most


@pytest.mark.parametrize("seed,kind,walks", [(808, "random", 0),
                                             (909, "bare_path", 2_132)])
def test_spanning_walk_totals_are_pinned(seed, kind, walks):
    # the exact totals on the first 40 instances: a change to the kernel,
    # to the rotation closure or to the slack gate that moves them changes
    # which paths the oracle walks
    assert suite_walks(seed, kind) == walks


@pytest.mark.parametrize("seed,kind,nodes", [(808, "random", 1_065),
                                             (909, "bare_path", 106)])
def test_class_search_node_totals_are_pinned(seed, kind, nodes):
    # the same 40 instances, whose sets of slack 1 or less the class search
    # decides: a change to its branching or its cuts moves these
    assert suite_walks(seed, kind, kernel=search._class_spans) == nodes


# === the rotation closure against its position-table form ===

def reference_rotation_pairs(cols, path, known):
    """terminals._rotation_pairs written with a {vertex bit: position} table
    and reversed copies of the path and its colors for each end: the far
    end of q, then q read backwards."""
    s = len(path)

    def learn(a, b):
        if known[a] >> b & 1:
            return False
        known[a] |= 1 << b
        known[b] |= 1 << a
        return True

    learn(path[0], path[-1])
    todo = [(path, [cols[a][1 << b] for a, b in zip(path, path[1:])])]
    while todo:
        q, cb = todo.pop()
        cmask = sum(cb)
        for p, pc in ((q, cb), (q[::-1], cb[::-1])):
            pos = {1 << v: i for i, v in enumerate(p)}
            for xbit, cbit in cols[p[-1]].items():
                i = pos[xbit]
                if i > s - 3 or (cmask & cbit and cbit != pc[i]):
                    continue
                if learn(p[0], p[i + 1]):
                    todo.append((p[:i + 1] + p[:i:-1],
                                 pc[:i] + [cbit] + pc[:i:-1]))


@pytest.mark.parametrize("seed,kind", [(808, "random"), (909, "bare_path")])
def test_rotation_closure_equals_the_position_table_form(monkeypatch, seed,
                                                          kind):
    # the first 200 instances of each criterion-08 sweep: after every hit
    # the partner masks are the reference's, run from the same masks
    closure = terminals._rotation_pairs
    hits = 0

    def checked(cols, path, known):
        nonlocal hits
        expected = list(known)
        reference_rotation_pairs(cols, list(path), expected)
        closure(cols, path, known)
        assert known == expected
        hits += 1

    monkeypatch.setattr(terminals, "_rotation_pairs", checked)
    for g in suite_graphs(seed, kind, 200):
        build_aux_oracle(g, longest_rainbow_path(g).best)
    assert hits > 0


# === hand cases for the single-way-in prune ===

def graph(n, edges):
    return ColoredGraph.from_edges(n, edges)


def test_vertex_adjacent_only_to_start():
    # 1 hangs off 0, so a path from 0 must end right after it: impossible
    g = graph(4, [(0, 1, 0), (0, 2, 1), (2, 3, 2)])
    vs = range(4)
    assert spanning_rainbow_path_from(g, vs, 0) is None
    assert spanning_rainbow_path_between(g, vs, 0, 3) is None
    assert spanning_rainbow_path_from(g, vs, 1).vertices == (1, 0, 2, 3)
    # ...unless it is the only vertex left
    assert spanning_rainbow_path_between(g, [0, 1], 0, 1).vertices == (0, 1)
    check_spanning_searches(g, vs)
    check_oracles(g, path_from_vertices(g, (1, 0, 2, 3)))


def test_two_single_way_in_vertices():
    # 1 and 4 each have one neighbour: only a path from one to the other
    g = graph(5, [(0, 1, 0), (0, 2, 1), (2, 3, 2), (3, 4, 3)])
    vs = range(5)
    for start in (0, 2, 3):
        assert spanning_rainbow_path_from(g, vs, start) is None
    assert spanning_rainbow_path_from(g, vs, 1).vertices == (1, 0, 2, 3, 4)
    check_spanning_searches(g, vs)
    check_oracles(g, path_from_vertices(g, (1, 0, 2, 3, 4)))


def test_target_with_one_way_in():
    # 3 is reached only through 2; a chord 0-2 gives two ways to get there
    g = graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 2, 3)])
    vs = range(4)
    assert spanning_rainbow_path_between(g, vs, 0, 3).vertices == (0, 1, 2, 3)
    assert spanning_rainbow_path_between(g, vs, 1, 3).vertices == (1, 0, 2, 3)
    assert spanning_rainbow_path_between(g, vs, 2, 3) is None
    assert spanning_rainbow_path_between(g, vs, 0, 1) is None
    check_spanning_searches(g, vs)
    check_oracles(g, path_from_vertices(g, (0, 1, 2, 3)))


def test_repeated_color_blocks_the_only_route():
    # the same graph with the chord colored like the edge 2-3
    g = graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 2, 2)])
    vs = range(4)
    assert spanning_rainbow_path_between(g, vs, 1, 3) is None
    assert spanning_rainbow_path_between(g, vs, 0, 3).vertices == (0, 1, 2, 3)
    check_spanning_searches(g, vs)



# === hand cases for the color tests on two-way and single-way-in vertices ===

def test_two_way_vertex_with_a_used_color_cuts():
    # 3 has two ways, to 2 and 4, and is not the wanted end 4, so both its
    # edges lie on any path to 4; 3-4 has the color of 0-1, which every
    # path from 0 starts with, so the search cuts right after 0-1. 3 is not
    # a neighbour of 0: it is checked there only because two-way vertices
    # are carried to the child.
    g = graph(5, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 0), (1, 4, 3),
                  (2, 4, 4)])
    vs = range(5)
    assert walk_calls(spanning_rainbow_path_between, g, vs, 0, 4) == (None, 2)
    assert spanning_rainbow_path_from(g, vs, 0).vertices == (0, 1, 4, 2, 3)
    check_spanning_searches(g, vs)
    check_oracles(g, path_from_vertices(g, (0, 1, 4, 2, 3)))


def test_single_way_in_end_with_a_used_color_cuts():
    # 4 is reached only from 3, by the color of 0-1, so the step 0-1 is cut
    # at once and the path from 0 goes through 2 instead
    g = graph(5, [(0, 1, 0), (0, 2, 1), (0, 3, 2), (1, 2, 3), (1, 3, 4),
                  (2, 3, 5), (3, 4, 0)])
    vs = range(5)
    p, walks = walk_calls(spanning_rainbow_path_from, g, vs, 0)
    assert p.vertices == (0, 2, 1, 3, 4)
    assert walks == 5
    check_spanning_searches(g, vs)
    check_oracles(g, p)


def test_wanted_end_with_two_ways_is_not_forced():
    # after 0-1, the end 4 has two ways, to 2 and 3, and 4-2 has the color
    # of 0-1; as a wanted end 4 may be entered from 3 and end the path
    # there, so it is not cut, and the path 0-1-2-3-4 is found
    g = graph(5, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (2, 4, 0)])
    vs = range(5)
    pstar = path_from_vertices(g, (0, 1, 2, 3, 4))
    assert spanning_rainbow_path_between(g, vs, 0, 4) == pstar
    assert spanning_rainbow_path_from(g, vs, 0) == pstar
    check_spanning_searches(g, vs)
    check_oracles(g, pstar)


# === hand cases for the aux oracle's end rotations ===

def spied_searches(monkeypatch, module):
    """Record [root, hits] for each spanning search `module` starts."""
    log = []
    inner = module._span_ends

    def spy(s, start, wanted, hit):
        rec = [start, 0]
        log.append(rec)

        def counted(path):
            rec[1] += 1
            return hit(path)

        inner(s, start, wanted, counted)

    monkeypatch.setattr(module, "_span_ends", spy)
    return log


def test_rotations_fill_in_the_pairs_of_later_roots(monkeypatch):
    # K4 with six colors: the first path from 0, 0-1-2-3, rotates into a
    # path for every pair, so root 0 stops at its first hit and roots 1
    # and 2 have nothing left to find
    g = graph(4, [(0, 1, 0), (0, 2, 1), (0, 3, 2), (1, 2, 3), (1, 3, 4),
                  (2, 3, 5)])
    pstar = path_from_vertices(g, (0, 1, 2, 3))
    log = spied_searches(monkeypatch, terminals)
    aux = build_aux_oracle(g, pstar)
    assert log == [[0, 1]]
    assert len(aux.edges) == 6
    check_oracles(g, pstar)


def test_root_with_every_later_partner_known_is_skipped(monkeypatch):
    # a rainbow 5-cycle and the chord 1-4 in a sixth color: color slack 2,
    # so the aux oracle walks it. Rotations of the first path from 0 give
    # every pair with 0 and every cycle edge, and root 3's only later
    # vertex, 4, is one of them, so root 3 is skipped; roots 1 and 2 still
    # search for their unknown partners and find none
    g = graph(5, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (0, 4, 4),
                  (1, 4, 5)])
    pstar = path_from_vertices(g, (0, 1, 2, 3, 4))
    log = spied_searches(monkeypatch, terminals)
    aux = build_aux_oracle(g, pstar)
    assert log == [[0, 1], [1, 0], [2, 0]]
    assert aux.edges == {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3),
                         (3, 4)}
    check_oracles(g, pstar)


def test_rotation_by_a_chord_colored_like_the_path_is_refused():
    # the chord 0-3 has the color of the path edge 1-2, so neither end
    # rotation of 0-1-2-3 (to 0-3-2-1 or to 3-0-1-2) is rainbow, and the
    # pairs (0, 1) and (2, 3) do not exist
    g = graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 1)])
    pstar = path_from_vertices(g, (0, 1, 2, 3))
    assert build_aux_oracle(g, pstar).edges == {(0, 3), (1, 2)}
    check_oracles(g, pstar)


def test_path_from_stops_at_its_first_hit(monkeypatch):
    # in K5 with ten colors every order is a rainbow path, so a search
    # that went on would reach all four ends
    g = graph(5, [(u, v, 5 * u + v) for u in range(5) for v in range(u + 1, 5)])
    log = spied_searches(monkeypatch, search)
    assert spanning_rainbow_path_from(g, range(5), 0).vertices == (0, 1, 2, 3, 4)
    assert log == [[0, 1]]


# === the prepared vertex set stays search.py's ===

def _span_set_unpacks(tree):
    """Lines that unpack a _span_prep result into names, or call
    _span_ends with more than its four arguments."""
    def calls(node, name):
        return isinstance(node, ast.Call) and name == getattr(
            node.func, "id", getattr(node.func, "attr", None))

    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and calls(node.value, "_span_prep")
                and any(isinstance(t, (ast.Tuple, ast.List))
                        for t in node.targets)):
            found.add(node.lineno)
        elif (calls(node, "_span_ends")
              and len(node.args) + len(node.keywords) > 4):
            found.add(node.lineno)
    return found


def test_only_search_knows_the_prepared_set_layout():
    # callers pass the _SpanSet record whole and read it by field, so a
    # new kernel table changes search.py alone
    kernel = Path(search.__file__)
    files = sorted(kernel.parent.glob("*.py")) + sorted(
        Path(__file__).parent.glob("*.py"))
    found = {(path.name, line) for path in files if path != kernel
             for line in _span_set_unpacks(ast.parse(path.read_text()))}
    assert found == set()


# === the oracle's rotations stay apart from the rules' ===

RULE_SIDE = {"_jump_rotations", "_start_rules", "checked_fire", "_witness"}
ORACLE_ROOTS = {"_rotation_pairs", "build_aux_oracle", "terminal_oracle"}


def terminals_functions():
    """Each top-level function of terminals.py: the names it calls, and the
    names of the functions nested in it."""
    tree = ast.parse(Path(terminals.__file__).read_text())
    out = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            calls, nested = set(), set()
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    calls.add(getattr(node.func, "id",
                                      getattr(node.func, "attr", None)))
                elif isinstance(node, ast.FunctionDef) and node is not top:
                    nested.add(node.name)
            out[top.name] = (calls, nested)
    return out


def reach(functions, root):
    """The names `root` calls, directly or through the top-level functions
    of terminals.py it calls."""
    seen, todo = set(), [root]
    while todo:
        for name in functions[todo.pop()][0] - seen:
            seen.add(name)
            if name in functions:
                todo.append(name)
    return seen


def test_oracle_rotations_are_written_apart_from_the_rules():
    functions = terminals_functions()
    # the walk finds the calls it looks for
    assert {"_jump_rotations", "_witness"} <= reach(functions,
                                                    "build_aux_rules")
    for root in ORACLE_ROOTS:
        assert reach(functions, root) & RULE_SIDE == set(), root
    oracle = set(ORACLE_ROOTS)
    for root in ORACLE_ROOTS:
        oracle |= functions[root][1]
    assert oracle >= {"learn", "hit"}
    assert reach(functions, "_jump_rotations") & oracle == set()
