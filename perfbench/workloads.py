"""The benchmark's workloads: inputs, one timed pass, and output checks.

Each workload builds its inputs in ``setup`` and runs one pass over them in
``run_pass``; the runner sets up afresh, import included, before every
pass. ``samples`` is how many passes of a run are timed. It is fixed per
workload, never set by the clock, and sized so that the samples fit into
a 25-s run on a slow host with room to spare: a suite pass takes up to
about 6 s, a decide pass about 1 s, an exstar_table pass about 0.07 s. A
pass does every op of the workload, times each op with an ``OpClock``
(which also times the calibration kernel between ops, see
``calibrate.py``), checks every output and returns a ``PassResult``. Ops
call the library through the package or module attribute (``rt.exstar_small``,
``rt.corpus.check_instance``) so the traced run can wrap them there; the
checks below use references bound at set-up, so in a traced run they count
as benchmark glue rather than as library layers.

Why each workload exists:

- suite_random: the criterion-08 sweep users run; ``search.longest`` does
  real work and spanning-from and spanning-between share the time.
- suite_bare_path: the same layers, but spanning-between dominates. Oracle
  rewrites have gone opposite ways on the two suites, so both are kept.
- exstar_table: the exact extremal table of criteria 06/07; oracle only,
  no path search.
- decide: exact verdicts on the constructions; the only workload with
  exhaustive ``search.exists``, ``proper_colorings`` without ``avoid`` and
  ``induction``.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import calibrate

SLOWEST = 5
# Least seconds between two calibration samples (taken only at op ends).
# Host speed spells last seconds, so this samples each one many times at
# about 4% overhead.
CAL_EVERY = 0.025

# Criterion-08 sweep: 500 instances, n 5..12, tamper on. The seeds are part
# of the acceptance gate. ``--seed`` does not change them: the sweep's time
# is dominated by a few heavy instances (per-instance standard deviation is
# about 3.6x the mean on ``random``), so another seed alone moves the suite
# time by about 15%, more than any bound the benchmark could hold.
SUITES = {
    "suite_random": {"seed": 808, "kind": "random"},
    "suite_bare_path": {"seed": 909, "kind": "bare_path"},
}
SUITE_SIZE = {False: 500, True: 12}



def suite_digest(instances: int, ok: int, skipped: int, hypotheses: dict):
    return {"instances": instances, "failures": [],
            "claim_counts": {"falsified": 0, "ok": ok, "skipped": skipped},
            "hypothesis_counts": dict(sorted(hypotheses.items()))}


# Expected suite outputs, keyed by (kind, seed, instances).
SUITE_DIGESTS = {
    ("random", 808, 500): suite_digest(
        500, 6984, 4516, {"maximal": 500, "standing": 484}),
    ("bare_path", 909, 500): suite_digest(
        500, 7201, 4299, {"maximal": 500, "pivots": 190, "standing": 319,
                          "window_order": 169, "window_reversed": 21}),
    ("random", 808, 12): suite_digest(
        12, 167, 109, {"maximal": 12, "standing": 11}),
    ("bare_path", 909, 12): suite_digest(
        12, 175, 101, {"maximal": 12, "pivots": 4, "standing": 9,
                       "window_order": 4}),
}

# Exact extremal values frozen by tests/test_oracle.py (FROZEN). Entries with
# n <= length are C(n, 2): a path of `length` edges needs length + 1 vertices.
EXSTAR_FROZEN = {
    (2, 2): 1, (3, 2): 1, (4, 2): 2, (5, 2): 2, (6, 2): 3, (7, 2): 3,
    (2, 3): 1, (3, 3): 3, (4, 3): 6, (5, 3): 6, (6, 3): 7,
    (4, 4): 6, (5, 4): 7, (6, 4): 9,
    (6, 5): 15,
}


def exstar_table(tiny: bool) -> list:
    """Criteria 06/07 entries: n 2..7 at 2 edges, n 2..5 at 3..5 edges, (6,5).

    (6,3) and (6,4) are left out. Together they take about 10 s, so a run
    holds two repeats of them, and their time swung 8.2-12.5 s between runs
    on a shared 2-core host: a spread of 0.31, over the 0.25 ceiling of a
    bound. The same n! canonical key and coloring search run at n = 5.
    """
    top = 4 if tiny else 5
    return ([(n, 2) for n in range(2, top + 3)]
            + [(n, length) for n in range(2, top + 1) for length in (3, 4, 5)]
            + ([] if tiny else [(6, 5)]))


def exstar_expected(n: int, length: int) -> int:
    if (n, length) in EXSTAR_FROZEN:
        return EXSTAR_FROZEN[(n, length)]
    if n <= length:
        return n * (n - 1) // 2
    raise KeyError(f"no expected value for exstar({n}, {length})")


@dataclass
class PassResult:
    labels: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds, one per op
    failed: list = field(default_factory=list)     # (label, reason)
    digest: dict = field(default_factory=dict)     # deterministic outputs
    slowest_inputs: dict = field(default_factory=dict)  # label -> graph text
    cal: list = field(default_factory=list)        # kernel seconds, in order
    op_cal: list = field(default_factory=list)     # last cal index before op


class OpClock:
    """Per-op timer. ``end`` closes the op that ``start`` (or the previous
    ``end``) opened, so back-to-back ops need no explicit start. Time
    between ``pause`` and ``resume`` (building an op's input) is left out.

    Untraced, the clock times the calibration kernel when it opens, after
    any op that ends CAL_EVERY or more after the last sample, and in
    ``finish``, so every op lies between two samples: ``cal[op_cal[i]]``
    and the next one. Kernel time is never part of an op. Traced passes
    skip calibration, so the kernel never lands inside a span."""

    def __init__(self, result: PassResult, tracer=None):
        self.result = result
        self.tracer = tracer
        self.calibrating = tracer is None
        self._paused = 0.0
        self._heap: list = []
        self._cal_at = 0.0
        if self.calibrating:
            self._calibrate()
        self._last = time.perf_counter()

    def _calibrate(self) -> None:
        self.result.cal.append(calibrate.sample())
        self._cal_at = time.perf_counter()

    def start(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.op = label
        self._last = time.perf_counter()

    def pause(self) -> None:
        self._paused = time.perf_counter()

    def resume(self) -> None:
        self._last += time.perf_counter() - self._paused

    def end(self, label: str, keep=None) -> None:
        now = time.perf_counter()
        lat = now - self._last
        self.result.labels.append(label)
        self.result.latencies.append(lat)
        if self.calibrating:
            self.result.op_cal.append(len(self.result.cal) - 1)
            if now - self._cal_at >= CAL_EVERY:
                self._calibrate()
                now = self._cal_at
        self._last = now
        if keep is not None:
            item = (lat, label, keep)
            if len(self._heap) < SLOWEST:
                heapq.heappush(self._heap, item)
            elif lat > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)

    def finish(self) -> None:
        """Close the pass's timing with a last calibration sample."""
        if self.calibrating:
            self._calibrate()

    def fail(self, label: str, reason: str) -> None:
        self.result.failed.append((label, reason))

    def kept(self) -> list:
        return sorted(self._heap, reverse=True)


def shuffled(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(rt, g, perm: list):
    """The same colored graph with vertex v renamed perm[v]."""
    edges = [(perm[u], perm[v], c) for (u, v, c) in g.edges]
    sides = None
    if g.sides is not None:
        sides = [0] * g.n
        for v, s in enumerate(g.sides):
            sides[perm[v]] = s
    return rt.ColoredGraph.from_edges(g.n, edges, num_colors=g.num_colors,
                                      sides=sides)


# -- suites -------------------------------------------------------------------

class Suite:
    samples = 4

    def __init__(self, name: str):
        self.name = name

    def setup(self, rt, seed: int, tiny: bool):
        spec = SUITES[self.name]
        return rt, rt.RunConfig(seed=spec["seed"], instances=SUITE_SIZE[tiny],
                                n_min=5, n_max=12, kind=spec["kind"],
                                tamper=True)

    def run_pass(self, state, tracer=None) -> PassResult:
        rt, cfg = state
        corpus = rt.corpus
        inner = corpus.check_instance
        res = PassResult()
        clock = OpClock(res, tracer)

        # one op per instance: from the end of the previous check (or the
        # start of the sweep) to the end of this one, generation included
        def timed(g, label, **kwargs):
            try:
                fails, report = inner(g, label, **kwargs)
            except rt.GuardError as e:
                clock.end(label, keep=g)
                clock.fail(label, f"guard: {e}")
                raise
            clock.end(label, keep=g)
            if fails:
                clock.fail(label, "; ".join(f.check for f in fails))
            elif report is None or report.counts()["falsified"]:
                clock.fail(label, "no claim report or a falsified claim")
            if tracer is not None:
                tracer.op = f"{cfg.seed}:{len(res.labels)}"
            return fails, report

        corpus.check_instance = timed
        try:
            clock.start(f"{cfg.seed}:0")
            summary = rt.run_suite(cfg)
        finally:
            corpus.check_instance = inner
        clock.finish()

        res.digest = {
            "instances": summary.instances,
            "failures": [[f.instance, f.check] for f in summary.failures],
            "claim_counts": dict(sorted(summary.claim_counts.items())),
            "hypothesis_counts": dict(sorted(
                summary.hypothesis_counts.items())),
        }
        problems = []
        if summary.instances != len(res.labels):
            problems.append("op count differs from instance count")
        if summary.failures:
            problems.append(f"{len(summary.failures)} failure records")
        if summary.claim_counts["falsified"]:
            problems.append("falsified claims")
        if summary.hypothesis_counts.get("maximal", 0) != summary.instances:
            problems.append("a pinned path was not maximal")
        expected = SUITE_DIGESTS.get((cfg.kind, cfg.seed, cfg.instances))
        if expected != res.digest:
            problems.append("digest differs from the expected one")
        if problems:
            # an aggregate mismatch cannot be pinned to one op: fail them all
            failed = {label for label, _ in res.failed}
            res.failed.extend((label, "; ".join(problems))
                              for label in res.labels if label not in failed)
        res.slowest_inputs = {label: rt.serialize_graph(g)
                              for _, label, g in clock.kept()}
        return res


# -- exact extremal table -----------------------------------------------------

class Exstar:
    samples = 100

    def setup(self, rt, seed: int, tiny: bool):
        # the table is exhaustive: the seed has nothing to change
        return rt, exstar_table(tiny), (rt.search.has_rainbow_path,
                                        rt.graphs.validate_proper,
                                        rt.oracle.packing_edge_count)

    def run_pass(self, state, tracer=None) -> PassResult:
        rt, table, (has_path, validate, packing) = state
        res = PassResult()
        clock = OpClock(res, tracer)
        values = {}
        for (n, length) in table:
            label = f"({n},{length})"
            clock.start(label)
            out = rt.exstar_small(n, length)
            clock.end(label)
            values[f"{n},{length}"] = out.value
            w = out.witness
            why = []
            if out.value != exstar_expected(n, length):
                why.append(f"value {out.value} != "
                           f"{exstar_expected(n, length)}")
            if w.n != n or w.m != out.value:
                why.append("witness size differs from the value")
            if not validate(w).is_proper:
                why.append("witness coloring is not proper")
            if has_path(w, length).found is not False:
                why.append("witness holds the forbidden rainbow path")
            if length >= 3 and not (packing(n, length) <= out.value
                                    < (Fraction(9 * (length - 1), 7) + 2) * n):
                why.append("value outside the criterion-07 bounds")
            if why:
                clock.fail(label, "; ".join(why))
        clock.finish()
        res.digest = {"values": values}
        return res


# -- decide -------------------------------------------------------------------

K5_COLORINGS = 332
# longest rainbow path of maamoun_meyniel(k): 2 at k=2 is criterion 05; the
# exists query one edge longer cross-checks the value at k=3
MM_LONGEST = {2: 2, 3: 6}


class Decide:
    samples = 16

    def setup(self, rt, seed: int, tiny: bool):
        rng = random.Random(seed)

        def shuffle(g):
            return relabel(rt, g, shuffled(g.n, rng))

        k = 2 if tiny else 3
        f2k = shuffle(rt.bipartite_f2k(k))
        mm = shuffle(rt.maamoun_meyniel(k))
        blow = shuffle(rt.blowup(2, 16))
        k4 = shuffle(rt.one_factorized_complete(4))
        doubled = shuffle(rt.disjoint_union([rt.bipartite_f2k(2)] * 2,
                                            share_colors=True))
        k5_perms = [shuffled(5, rng) for _ in range(K5_COLORINGS)]
        # (label, graph, query, argument, expected verdict or length)
        queries = [
            (f"f2k{k}.exists{2 ** k}", f2k, "exists", 2 ** k, False),
            (f"f2k{k}.longest", f2k, "longest", None, 2 ** k - 1),
            (f"mm{k}.longest", mm, "longest", None, MM_LONGEST[k]),
            (f"mm{k}.exists{MM_LONGEST[k] + 1}", mm, "exists",
             MM_LONGEST[k] + 1, False),
            ("blowup.exists4", blow, "exists", 4, False),
        ]
        certs = [("induct.k4", k4, 2, 6), ("induct.doubled", doubled, 3, 32)]
        return rt, queries, k5_perms, certs, rt.search.is_rainbow

    def run_pass(self, state, tracer=None) -> PassResult:
        rt, queries, k5_perms, certs, is_rainbow = state
        res = PassResult()
        clock = OpClock(res, tracer)
        verdicts = {}
        nodes = {}

        def check_exists(label, g, out, length, expected):
            if out.found is not expected:
                clock.fail(label, f"exists={out.found}, expected {expected}")
            elif out.found and not (out.witness.length == length
                                    and is_rainbow(g, out.witness)):
                clock.fail(label, "witness is not a rainbow path of the "
                           "asked length")

        for label, g, query, arg, expected in queries:
            clock.start(label)
            if query == "exists":
                out = rt.has_rainbow_path(g, arg)
                clock.end(label)
                verdicts[label] = out.found
                nodes[label] = out.nodes_expanded
                check_exists(label, g, out, arg, expected)
                continue
            out = rt.longest_rainbow_path(g)
            clock.end(label)
            length = out.best.length if out.best is not None else None
            verdicts[label] = length
            nodes[label] = out.nodes_expanded
            if not out.proven_optimal or length != expected:
                clock.fail(label, f"longest={length} proven="
                           f"{out.proven_optimal}, expected {expected}")
            elif not is_rainbow(g, out.best):
                clock.fail(label, "witness is not rainbow")

        # criterion 04: every canonical proper coloring of K5, relabeled,
        # holds a rainbow path of 4 edges
        colorings = rt.proper_colorings(rt.complete_graph(5))
        hits = k5_nodes = 0
        for i, perm in enumerate(k5_perms):
            label = f"k5.{i}.exists4"
            clock.start(label)
            g = next(colorings, None)
            if g is None:
                clock.end(label)
                clock.fail(label, "fewer colorings than expected")
                continue
            clock.pause()
            g = relabel(rt, g, perm)
            clock.resume()
            out = rt.has_rainbow_path(g, 4)
            clock.end(label)
            hits += out.found is True
            k5_nodes += out.nodes_expanded
            check_exists(label, g, out, 4, True)
        extra = sum(1 for _ in colorings)
        if extra:
            clock.fail("k5", f"{extra} more colorings than expected")
        verdicts["k5.exists4"] = hits
        nodes["k5.exists4"] = k5_nodes

        # criterion 10: deletion certificates
        for label, g, k, total in certs:
            clock.start(label)
            cert = rt.run_induction(g, k)
            clock.end(label)
            verdicts[label] = [cert.total_edges, cert.holds, len(cert.steps)]
            if not (cert.total_edges == total and cert.holds
                    and cert.total_edges < cert.bound * cert.n
                    and rt.verify_certificate(cert, g)):
                clock.fail(label, "certificate does not verify")
        clock.finish()
        res.digest = {"verdicts": verdicts, "nodes": nodes}
        return res


WORKLOADS = {
    "suite_random": Suite("suite_random"),
    "suite_bare_path": Suite("suite_bare_path"),
    "exstar_table": Exstar(),
    "decide": Decide(),
}


# -- traced run: where the wrappers go -----------------------------------------

def _nodes(out):
    return {"nodes": out.nodes_expanded}


def _hit(out):
    return {"hits": out is not None}


def install_trace(tracer, rt) -> None:
    """Wrap every layer entry point at the name its caller looks it up by."""
    corpus, terminals, oracle, induction = (rt.corpus, rt.terminals,
                                            rt.oracle, rt.induction)
    points = [
        # the benchmark's own calls
        (rt, "run_suite", "corpus.run_suite", None),
        (rt, "exstar_small", "oracle.exstar", None),
        (rt, "longest_rainbow_path", "search.longest", _nodes),
        (rt, "has_rainbow_path", "search.exists", _nodes),
        (rt, "run_induction", "induction", lambda c: {"steps": len(c.steps)}),
        # the suite loop (corpus.run_suite, corpus.check_instance)
        (corpus, "random_instance", "corpus.gen", None),
        (corpus, "check_instance", "corpus.check_instance", None),
        (corpus, "validate_proper", "graphs.validate", None),
        (corpus, "longest_rainbow_path", "search.longest", _nodes),
        (corpus, "compute_profile", "profile", None),
        (corpus, "terminal_rules", "terminals.rules", None),
        (corpus, "terminal_oracle", "terminals.oracle", None),
        (corpus, "build_aux_rules", "terminals.aux_rules", None),
        (corpus, "build_aux_oracle", "terminals.aux_oracle", None),
        (corpus, "maximum_matching", "terminals.matching", None),
        (corpus, "matching_stats", "terminals.matching", None),
        (corpus, "check_claims", "claims", lambda r: r.counts()),
        # the spanning-path oracles behind terminals
        (terminals, "spanning_rainbow_path_from", "search.span_from", _hit),
        (terminals, "spanning_rainbow_path_between", "search.span_between",
         _hit),
        # the extremal scan
        (oracle, "coloring_avoiding", "oracle.coloring_avoiding",
         lambda c: {"feasible": c is not None}),
        # run_induction and its deletion steps
        (induction, "validate_proper", "graphs.validate", None),
        (induction, "has_rainbow_path", "search.exists", _nodes),
        (induction, "longest_rainbow_path", "search.longest", _nodes),
        (induction, "terminal_oracle", "terminals.oracle", None),
        (induction, "build_aux_oracle", "terminals.aux_oracle", None),
        (induction, "maximum_matching", "terminals.matching", None),
        (induction, "matching_stats", "terminals.matching", None),
    ]
    for owner, attr, name, count in points:
        tracer.wrap(owner, attr, name, count)
    # the decide workload consumes K5 colorings from the package name; the
    # extremal scan's own use inside coloring_avoiding stays unwrapped
    tracer.wrap_generator(rt, "proper_colorings", "oracle.proper_colorings")
