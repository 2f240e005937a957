"""Command line front end.

Subcommands mirror the library layers:

  rt graph validate|convert      file handling and properness
  rt rainbow longest|exists      exact search
  rt construct f2k|mm|blowup     extremal colorings
  rt bounds                      coefficient table by longest allowed path k
  rt engine profile|terminals|aux|claims|induct
                                 the rotation machinery on a concrete graph
  rt oracle exstar|colorings|eg  small-case brute force
  rt suite                       randomized cross-check sweep

Exit codes: 0 success, 1 property violation or falsification, 2 malformed
input or usage, 3 guard or budget refusal, 4 internal error (a bug: one
line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from itertools import islice

from .claims import check_claims
from .constructions import bipartite_f2k, blowup, bound_table, maamoun_meyniel
from .corpus import RunConfig, build_claim_context, run_suite
from .errors import (FalsificationError, GuardError, GraphError, PathError,
                     PreconditionError, WitnessError)
from .graphs import (ColoredGraph, file_format, is_int_token, load_graph,
                     save_graph, serialize_graph, serialize_graph_json,
                     graph_to_json_obj, validate_proper)
from .induction import frac_str, run_induction, verify_certificate
from .oracle import (COLORING_EDGE_GUARD, EXSTAR_VERTEX_GUARD, clique_packing,
                     coloring_avoiding, count_proper_colorings,
                     erdos_gallai_bound, exstar_small, packing_edge_count,
                     proper_colorings)
from .profile import compute_profile
from .search import (has_rainbow_path, longest_rainbow_path,
                     path_from_vertices)
from .terminals import (build_aux_oracle, build_aux_rules, terminal_oracle,
                        terminal_rules)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=1, sort_keys=True))


def _write_graph(g: ColoredGraph, out) -> None:
    if out is None:
        _emit(serialize_graph(g))
    else:
        save_graph(g, out)


def _fixed_path(g: ColoredGraph, raw: str):
    # a blank argument is a path with no vertices; an empty item elsewhere
    # is malformed, and each item is an integer token of the text format
    items = [x.strip() for x in raw.split(",")] if raw.strip() else []
    bad = PathError(f"path argument {raw!r} is not a comma list of ids")
    if not all(map(is_int_token, items)):
        raise bad
    try:
        ids = [int(x) for x in items]
    except ValueError:  # past int()'s 4300-digit conversion limit
        raise bad from None
    p = path_from_vertices(g, ids)
    if not p.is_rainbow():
        raise PathError("the given path repeats a color")
    return p


def _load_proper(path: str) -> ColoredGraph:
    """The graph at `path`, refused (exit 2) unless properly colored: the
    engine's profile, rules and claims assume a proper coloring."""
    g = load_graph(path)
    proper = validate_proper(g)
    if not proper.is_proper:
        raise PreconditionError(proper.refusal())
    return g


def _pick_path(g: ColoredGraph, args):
    """The path the engine works on: either --path, or a proven longest."""
    if args.path is not None:
        return _fixed_path(g, args.path)
    return longest_rainbow_path(g, budget=args.budget).pinned()


def _path_obj(p) -> dict:
    return {"vertices": list(p.vertices), "colors": list(p.colors),
            "edges": p.length}


# -- graph -------------------------------------------------------------------

def cmd_graph_validate(args) -> int:
    g = load_graph(args.file)
    rep = validate_proper(g)
    if args.json:
        _emit_json({"n": g.n, "m": g.m, "colors": g.num_colors,
                    "min_degree": g.min_degree(),
                    "proper": rep.is_proper,
                    "violations": [list(v[:2]) + [list(v[2]), list(v[3])]
                                   for v in rep.violations]})
    else:
        _emit(f"n={g.n} m={g.m} colors={g.num_colors} "
              f"min_degree={g.min_degree()}")
        if rep.is_proper:
            _emit("proper coloring: yes")
        else:
            _emit(f"proper coloring: no ({len(rep.violations)} clashes)")
            for (v, c, e1, e2) in rep.violations[:10]:
                _emit(f"  color {c} repeats at vertex {v}: {e1} and {e2}")
    return 0 if rep.is_proper else 1


def cmd_graph_convert(args) -> int:
    if args.out is not None and args.to not in (None, file_format(args.out)):
        raise PreconditionError(f"--to {args.to} contradicts -o {args.out}, "
                                f"which writes {file_format(args.out)}")
    g = load_graph(args.file)
    if args.out is None:
        _emit(serialize_graph_json(g) if args.to == "json"
              else serialize_graph(g))
    else:
        save_graph(g, args.out)
    return 0


# -- rainbow -----------------------------------------------------------------

def cmd_rainbow_longest(args) -> int:
    g = load_graph(args.file)
    found = longest_rainbow_path(g, budget=args.budget)
    best = found.best
    if args.json:
        _emit_json({"best": _path_obj(best) if best else None,
                    "proven_optimal": found.proven_optimal,
                    "nodes_expanded": found.nodes_expanded})
        return 0 if found.proven_optimal else 3
    if best is None:
        _emit("no rainbow path found")
    else:
        verts = ",".join(str(v) for v in best.vertices)
        _emit(f"longest rainbow path: {best.length} edges")
        _emit(f"  vertices: {verts}")
        _emit(f"  colors:   {','.join(str(c) for c in best.colors)}")
    if not found.proven_optimal:
        _emit("budget exhausted before the length was proven optimal")
        return 3
    _emit(f"proven optimal ({found.nodes_expanded} nodes)")
    return 0


def cmd_rainbow_exists(args) -> int:
    g = load_graph(args.file)
    out = has_rainbow_path(g, args.length, budget=args.budget)
    if args.json:
        _emit_json({"length": args.length, "found": out.found,
                    "witness": _path_obj(out.witness) if out.witness else None,
                    "nodes_expanded": out.nodes_expanded})
        return 3 if out.found is None else 0
    if out.found is None:
        _emit("undecided: budget exhausted")
        return 3
    if out.found:
        verts = ",".join(str(v) for v in out.witness.vertices)
        _emit(f"rainbow path with {args.length} edges exists: {verts}")
    else:
        _emit(f"no rainbow path with {args.length} edges")
    return 0


# -- construct ---------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.family == "f2k":
        g = bipartite_f2k(args.k)
    elif args.family == "mm":
        g = maamoun_meyniel(args.k)
    else:
        g = blowup(args.k, args.n)
    _write_graph(g, args.out)
    return 0


def cmd_bounds(args) -> int:
    rows = bound_table(args.kmax)
    if args.json:
        _emit_json([{"k": r.k, "lower": frac_str(r.lower),
                     "upper_new": frac_str(r.upper_new),
                     "upper_old": r.upper_old,
                     "eg_baseline": frac_str(r.eg_baseline)} for r in rows])
        return 0
    if args.csv:
        _emit("k,lower,upper_new,upper_old,eg_baseline")
        for r in rows:
            _emit(f"{r.k},{frac_str(r.lower)},{frac_str(r.upper_new)},"
                  f"{r.upper_old},{frac_str(r.eg_baseline)}")
        return 0
    _emit(f"{'k':>4} {'lower':>10} {'upper_new':>12} "
          f"{'upper_old':>10} {'eg':>8}")
    for r in rows:
        _emit(f"{r.k:>4} {frac_str(r.lower):>10} {frac_str(r.upper_new):>12} "
              f"{r.upper_old:>10} {frac_str(r.eg_baseline):>8}")
    return 0


# -- engine ------------------------------------------------------------------

def cmd_engine_profile(args) -> int:
    g = _load_proper(args.file)
    p = _pick_path(g, args)
    prof = compute_profile(g, p)
    ends = {"start": prof.start, "end": prof.end}
    sets = {(f"swap_from_{side}" if name == "swaps" else f"{side}_{name}"):
            getattr(e, name)
            for name in ("colors", "out", "old", "new", "swaps", "nice", "res")
            for side, e in ends.items()}
    lo_outer = prof.end.top[0]
    pivots = {"win_lo_outer": None if lo_outer is None else prof.k - lo_outer,
              "win_lo": prof.win_lo, "win_hi": prof.win_hi,
              "win_hi_outer": prof.start.top[0]}
    if args.json:
        _emit_json({"path": _path_obj(p), "k": prof.k,
                    "far_edge_color": prof.far_edge_color,
                    "far_edge_is_new": prof.far_edge_is_new,
                    "sets": {k: sorted(v) for k, v in sets.items()},
                    "pivots": pivots})
        return 0
    _emit(f"path ({prof.k} edges): "
          + ",".join(str(v) for v in p.vertices))
    for name, val in sets.items():
        _emit(f"  {name:>16} ({len(val):>2}): "
              + (",".join(str(c) for c in sorted(val)) or "-"))
    _emit("  pivots: " + ", ".join(f"{k}={v}" for k, v in pivots.items()))
    far = prof.far_edge_color
    _emit(f"  far edge: "
          + ("absent" if far is None else
             f"color {far} ({'fresh' if prof.far_edge_is_new else 'old'})"))
    return 0


def cmd_engine_terminals(args) -> int:
    g = _load_proper(args.file)
    p = _pick_path(g, args)
    payload: dict = {"path": _path_obj(p)}
    rules = oracle = None
    if args.mode in ("rules", "both"):
        rules = terminal_rules(g, compute_profile(g, p))
        payload["rules"] = {
            "terminals": sorted(rules.rule_terminals),
            "by_rule": {r: list(vs)
                        for r, vs in rules.terminals_by_rule().items()},
            "fires": len(rules.fires),
        }
    if args.mode in ("oracle", "both"):
        oracle = terminal_oracle(g, p)
        payload["oracle"] = {"terminals": sorted(oracle)}
    sound = True
    if rules is not None and oracle is not None:
        loose = rules.rule_terminals - oracle
        sound = not loose
        payload["sound"] = sound
        if loose:
            payload["unsound_terminals"] = sorted(loose)
    if args.json:
        _emit_json(payload)
    else:
        if rules is not None:
            _emit("rule terminals: "
                  + (",".join(str(v) for v in sorted(rules.rule_terminals))
                     or "-"))
            for r, vs in rules.terminals_by_rule().items():
                _emit(f"  {r:>13}: " + ",".join(str(v) for v in vs))
        if oracle is not None:
            _emit("oracle terminals: "
                  + (",".join(str(v) for v in sorted(oracle)) or "-"))
        if rules is not None and oracle is not None:
            _emit("rules within oracle: " + ("yes" if sound else "NO"))
    return 0 if sound else 1


def cmd_engine_aux(args) -> int:
    g = _load_proper(args.file)
    p = _pick_path(g, args)
    payload: dict = {"path": _path_obj(p)}
    auxes: dict = {}
    builders = {"rules": lambda: build_aux_rules(
                    g, p, terminal_rules(g, compute_profile(g, p))),
                "oracle": lambda: build_aux_oracle(g, p)}
    for tag, build in builders.items():
        if args.mode in (tag, "both"):
            aux = auxes[tag] = build()
            payload[tag] = {"vertices": list(aux.vertices),
                            "edges": sorted(map(list, aux.edges)),
                            "min_degree": aux.min_degree()}
    sound = True
    if len(auxes) == 2:
        sound = auxes["rules"].edges <= auxes["oracle"].edges
        payload["sound"] = sound
    if args.json:
        _emit_json(payload)
    else:
        for tag, aux in auxes.items():
            _emit(f"{tag} aux graph: {len(aux.vertices)} terminals, "
                  f"{len(aux.edges)} pairs, min degree {aux.min_degree()}")
            for (a, b) in sorted(aux.edges):
                _emit(f"  {a} -- {b}")
        if len(auxes) == 2:
            _emit("rules within oracle: " + ("yes" if sound else "NO"))
    return 0 if sound else 1


def cmd_engine_claims(args) -> int:
    g = _load_proper(args.file)
    p = _fixed_path(g, args.path) if args.path is not None else None
    rep = check_claims(build_claim_context(g, p, budget=args.budget))
    if args.json:
        _emit_json({"k": rep.k, "hypotheses": rep.hypotheses,
                    "counts": rep.counts(),
                    "outcomes": [{"name": o.name, "status": o.status,
                                  "requires": list(o.requires),
                                  "detail": o.detail}
                                 for o in rep.outcomes]})
        return 0 if rep.all_ok else 1
    _emit(f"path length k={rep.k}; hypotheses: "
          + ", ".join(f"{h}={'yes' if v else 'no'}"
                      for h, v in rep.hypotheses.items()))
    for o in rep.outcomes:
        mark = {"ok": "ok  ", "falsified": "FAIL", "skipped": "skip"}[o.status]
        _emit(f"  [{mark}] {o.name}: {o.detail}")
    c = rep.counts()
    _emit(f"{c['ok']} ok, {c['falsified']} falsified, {c['skipped']} skipped")
    return 0 if rep.all_ok else 1


def cmd_engine_induct(args) -> int:
    g = load_graph(args.file)
    cert = run_induction(g, args.k, budget=args.budget)
    verified = verify_certificate(cert, g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(cert.to_json_obj(), fh, indent=1)
            fh.write("\n")
    if args.json:
        obj = cert.to_json_obj()
        obj["verified"] = verified
        _emit_json(obj)
    else:
        _emit(f"n={cert.n} edges={cert.total_edges} longest allowed path "
              f"k={cert.k} bound={frac_str(cert.bound)}/vertex")
        for i, s in enumerate(cert.steps):
            _emit(f"  step {i}: {s.kind} removed {len(s.removed_vertices)} "
                  f"vertices ({','.join(map(str, s.removed_vertices))}), "
                  f"{s.removed_edges} edges < {frac_str(s.bound_used)}")
        _emit(f"edge bound holds: {'yes' if cert.holds else 'NO'}; "
              f"certificate arithmetic: {'ok' if verified else 'BROKEN'}")
    return 0 if cert.holds and verified else 1


# -- oracle ------------------------------------------------------------------

def cmd_oracle_exstar(args) -> int:
    res = exstar_small(args.n, args.len, guard=args.guard)
    if args.json:
        obj = {"n": res.n, "path_edges": res.path_edges, "value": res.value,
               "witness": graph_to_json_obj(res.witness)}
        _emit_json(obj)
        return 0
    _emit(f"exstar(n={res.n}, path_edges={res.path_edges}) = {res.value}")
    if args.witness:
        _emit(serialize_graph(res.witness))
    return 0


def cmd_oracle_colorings(args) -> int:
    g = load_graph(args.file)
    skel = g.skeleton()
    if args.count:
        total = count_proper_colorings(skel, guard=args.guard)
        _emit(str(total))
        return 0
    if args.len is not None:
        got = coloring_avoiding(skel, args.len, guard=args.guard)
        if got is None:
            _emit(f"every proper coloring has a rainbow path "
                  f"with {args.len} edges")
            return 1
        _emit(serialize_graph(got))
        return 0
    limit = 1 if args.limit is None else args.limit
    if limit < 1:
        raise PreconditionError("--limit must be >= 1")
    for colored in islice(proper_colorings(skel, guard=args.guard), limit):
        _emit(serialize_graph(colored))
    return 0


def cmd_oracle_eg(args) -> int:
    bound = erdos_gallai_bound(args.n, args.k)
    packed = packing_edge_count(args.n, args.k)
    # built before any output, so a refused size prints nothing
    witness = clique_packing(args.n, args.k) if args.witness else None
    if args.json:
        obj = {"n": args.n, "path_edges": args.k, "bound": frac_str(bound),
               "packing_edges": packed}
        if witness is not None:
            obj["witness"] = graph_to_json_obj(witness)
        _emit_json(obj)
        return 0
    _emit(f"no path with {args.k} edges on {args.n} vertices: "
          f"at most {frac_str(bound)} edges, clique packing gives {packed}")
    if witness is not None:
        _emit(serialize_graph(witness))
    return 0


# -- suite -------------------------------------------------------------------

def cmd_suite(args) -> int:
    merged: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                merged = json.load(fh)
            except ValueError as e:  # bad JSON or bad UTF-8
                msg = f"config is not valid JSON: {e}"
                raise PreconditionError(msg) from None
        if not isinstance(merged, dict):
            raise PreconditionError("config must be a JSON object")
    for f in fields(RunConfig):
        val = getattr(args, f.name)
        if val is not None:
            merged[f.name] = val
    config = RunConfig.from_json_obj(merged)
    summary = run_suite(config)
    if args.json:
        _emit_json(summary.to_json_obj())
        return 0 if summary.ok else 1
    _emit(f"{summary.instances} instances in {summary.elapsed:.2f}s "
          f"(seed {config.seed}, kind {config.kind}, "
          f"n in [{config.n_min},{config.n_max}])")
    c = summary.claim_counts
    _emit(f"claim checks: {c['ok']} ok, {c['falsified']} falsified, "
          f"{c['skipped']} skipped")
    hyp = ", ".join(f"{h}={v}" for h, v in sorted(summary.hypothesis_counts.items()))
    _emit(f"hypothesis hits: {hyp or '-'}")
    if summary.ok:
        _emit("no failures")
        return 0
    for f in summary.failures[:25]:
        _emit(f"FAIL {f.instance} {f.check}: {f.detail}")
    if len(summary.failures) > 25:
        _emit(f"... and {len(summary.failures) - 25} more")
    return 1


# -- wiring ------------------------------------------------------------------

def _command(sub, name: str, fn, help: str, *shared: str):
    """Subcommand `name` running fn, with the shared arguments `shared`
    names: "file", "path" (--path or --budget: a fixed path needs no
    search), "budget" (with "path", both may be given) and "json"."""
    p = sub.add_parser(name, help=help)
    if "file" in shared:
        p.add_argument("file")
    flags = p
    if "path" in shared:
        if "budget" not in shared:
            flags = p.add_mutually_exclusive_group()
        flags.add_argument("--path", metavar="V0,V1,...",
                           help="fix the rainbow path instead of searching")
    if "path" in shared or "budget" in shared:
        flags.add_argument("--budget", type=int, default=None,
                           help="search node budget (default: unlimited)")
    if "json" in shared:
        p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rt", description="rainbow path extremal machinery")
    sub = top.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="read, check and convert files")
    gsub = graph.add_subparsers(dest="sub", required=True)
    _command(gsub, "validate", cmd_graph_validate,
             "properness and basic stats", "file", "json")
    cnv = _command(gsub, "convert", cmd_graph_convert,
                   "rewrite between text and json", "file")
    cnv.add_argument("-o", "--out", help="output path (format by extension)")
    cnv.add_argument("--to", choices=("text", "json"), default=None,
                     help="output format (default text; with -o, the one "
                          "its extension picks)")

    rainbow = sub.add_parser("rainbow", help="exact rainbow path search")
    rsub = rainbow.add_subparsers(dest="sub", required=True)
    _command(rsub, "longest", cmd_rainbow_longest, "longest rainbow path",
             "file", "budget", "json")
    ex = _command(rsub, "exists", cmd_rainbow_exists,
                  "rainbow path of a given length?", "file", "budget", "json")
    ex.add_argument("--length", type=int, required=True,
                    help="edge count of the wanted path")

    cons = sub.add_parser("construct", help="extremal colorings")
    csub = cons.add_subparsers(dest="family", required=True)
    for family, about in (("f2k", "complete bipartite xor coloring"),
                          ("mm", "complete graph xor coloring"),
                          ("blowup", "disjoint copies plus padding")):
        c = _command(csub, family, cmd_construct, about)
        c.add_argument("--k", type=int, required=True)
        if family == "blowup":
            c.add_argument("--n", type=int, required=True)
        c.add_argument("-o", "--out")

    bounds = _command(sub, "bounds", cmd_bounds,
                      "per-length coefficient table")
    bounds.add_argument("--kmax", type=int, default=16)
    fmt = bounds.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--csv", action="store_true", help="emit CSV")

    engine = sub.add_parser("engine", help="rotation machinery")
    esub = engine.add_subparsers(dest="sub", required=True)
    _command(esub, "profile", cmd_engine_profile,
             "chord color sets of a path", "file", "path", "json")
    for name, fn, about in (
            ("terminals", cmd_engine_terminals, "terminal vertices, two ways"),
            ("aux", cmd_engine_aux, "terminal pair graph, two ways")):
        _command(esub, name, fn, about, "file", "path", "json").add_argument(
            "--mode", choices=("rules", "oracle", "both"), default="both")
    # the claim battery's maximality probe spends --budget on a given path
    _command(esub, "claims", cmd_engine_claims, "run the claim battery",
             "file", "path", "budget", "json")
    ind = _command(esub, "induct", cmd_engine_induct,
                   "vertex deletion edge bound", "file", "budget", "json")
    ind.add_argument("--k", type=int, required=True,
                     help="longest allowed rainbow path length (edges)")
    ind.add_argument("-o", "--out", help="write the certificate as JSON")

    oracle = sub.add_parser("oracle", help="small case brute force")
    osub = oracle.add_subparsers(dest="sub", required=True)
    xs = _command(osub, "exstar", cmd_oracle_exstar,
                  "exact extremal edge count", "json")
    xs.add_argument("--n", type=int, required=True)
    xs.add_argument("--len", type=int, required=True,
                    help="forbidden rainbow path length (edges)")
    xs.add_argument("--guard", type=int, default=EXSTAR_VERTEX_GUARD,
                    help="largest n the scan will attempt")
    xs.add_argument("--witness", action="store_true",
                    help="print an extremal coloring")
    co = _command(osub, "colorings", cmd_oracle_colorings,
                  "canonical proper colorings")
    co.add_argument("file", help="graph file; only the skeleton is used")
    what = co.add_mutually_exclusive_group()
    what.add_argument("--count", action="store_true")
    what.add_argument("--len", type=int, default=None,
                      help="print a coloring with no rainbow path this long")
    what.add_argument("--limit", type=int, default=None,
                      help="how many colorings to print (default 1)")
    co.add_argument("--guard", type=int, default=COLORING_EDGE_GUARD,
                    help="most edges the enumeration will attempt")
    eg = _command(osub, "eg", cmd_oracle_eg,
                  "classical path bound and packing", "json")
    eg.add_argument("--n", type=int, required=True)
    eg.add_argument("--k", type=int, required=True,
                    help="forbidden path length (edges)")
    eg.add_argument("--witness", action="store_true",
                    help="print the packing coloring")

    suite = _command(sub, "suite", cmd_suite, "randomized cross-check sweep",
                     "budget", "json")
    suite.add_argument("--config", help="RunConfig as JSON; flags override")
    suite.add_argument("--seed", type=int, default=None)
    suite.add_argument("--instances", type=int, default=None)
    suite.add_argument("--n-min", type=int, default=None, dest="n_min")
    suite.add_argument("--n-max", type=int, default=None, dest="n_max")
    suite.add_argument("--edge-prob", type=float, default=None,
                       dest="edge_prob")
    suite.add_argument("--kind", choices=("random", "bare_path"),
                       default=None)
    suite.add_argument("--tamper", action="store_const", const=True,
                       default=None,
                       help="also corrupt one witness per instance and "
                            "check that it is refused")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, PathError, PreconditionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except (WitnessError, FalsificationError) as e:
        print(f"violation: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # a bug, not bad input: say so in one line, without a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
