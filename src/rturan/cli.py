"""Command line front end.

Subcommands mirror the library layers:

  rt graph validate|convert      file handling and properness
  rt rainbow longest|exists      exact search
  rt construct f2k|mm|blowup     extremal colorings
  rt bounds                      coefficient table by forbidden path length
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

from .claims import build_claim_context, check_claims
from .constructions import bipartite_f2k, blowup, bound_table, maamoun_meyniel
from .corpus import RunConfig, run_suite
from .errors import (FalsificationError, GuardError, GraphError, PathError,
                     PreconditionError, WitnessError)
from .graphs import (ColoredGraph, load_graph, save_graph, serialize_graph,
                     serialize_graph_json, graph_to_json_obj, validate_proper)
from .induction import frac_str, run_induction, verify_certificate
from .oracle import (clique_packing, coloring_avoiding, count_proper_colorings,
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
    try:
        ids = [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise PathError(f"path argument {raw!r} is not a comma list of ids")
    p = path_from_vertices(g, ids)
    if not p.is_rainbow():
        raise PathError("the given path repeats a color")
    return p


def _pick_path(g: ColoredGraph, args):
    """The path the engine works on: either --path, or a proven longest."""
    if getattr(args, "path", None):
        return _fixed_path(g, args.path)
    found = longest_rainbow_path(g, budget=getattr(args, "budget", None))
    if not found.proven_optimal or found.best is None:
        raise GuardError("search", "budget too small to pin the longest "
                         "rainbow path; raise --budget or pass --path")
    return found.best


def _path_obj(p) -> dict:
    return {"vertices": list(p.vertices), "colors": list(p.colors),
            "edges": p.length}


# -- graph -------------------------------------------------------------------

def cmd_graph_validate(args) -> int:
    g = load_graph(args.file)
    rep = validate_proper(g)
    if args.json:
        _emit_json({"n": g.n, "m": g.m, "colors": g.num_colors,
                    "min_degree": g.min_degree() if g.n else 0,
                    "proper": rep.is_proper,
                    "violations": [list(v[:2]) + [list(v[2]), list(v[3])]
                                   for v in rep.violations]})
    else:
        _emit(f"n={g.n} m={g.m} colors={g.num_colors} "
              f"min_degree={g.min_degree() if g.n else 0}")
        if rep.is_proper:
            _emit("proper coloring: yes")
        else:
            _emit(f"proper coloring: no ({len(rep.violations)} clashes)")
            for (v, c, e1, e2) in rep.violations[:10]:
                _emit(f"  color {c} repeats at vertex {v}: {e1} and {e2}")
    return 0 if rep.is_proper else 1


def cmd_graph_convert(args) -> int:
    g = load_graph(args.file)
    if args.out is None:
        fmt = "json" if args.to == "json" else "text"
        _emit(serialize_graph_json(g) if fmt == "json" else serialize_graph(g))
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
    g = load_graph(args.file)
    p = _pick_path(g, args)
    prof = compute_profile(g, p)
    sets = {
        "start_colors": prof.start_colors, "end_colors": prof.end_colors,
        "start_out": prof.start_out, "end_out": prof.end_out,
        "start_old": prof.start_old, "end_old": prof.end_old,
        "start_new": prof.start_new, "end_new": prof.end_new,
        "swap_from_start": prof.swap_from_start,
        "swap_from_end": prof.swap_from_end,
        "start_nice": prof.start_nice, "end_nice": prof.end_nice,
        "start_res": prof.start_res, "end_res": prof.end_res,
    }
    pivots = {"win_lo_outer": prof.win_lo_outer, "win_lo": prof.win_lo,
              "win_hi": prof.win_hi, "win_hi_outer": prof.win_hi_outer}
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
    g = load_graph(args.file)
    p = _pick_path(g, args)
    payload: dict = {"path": _path_obj(p)}
    rules = oracle = None
    if args.mode in ("rules", "both"):
        rep = terminal_rules(g, p)
        rules = rep
        payload["rules"] = {
            "terminals": sorted(rep.rule_terminals),
            "by_rule": {r: list(vs)
                        for r, vs in rep.terminals_by_rule().items()},
            "fires": len(rep.fires),
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
    g = load_graph(args.file)
    p = _pick_path(g, args)
    payload: dict = {"path": _path_obj(p)}
    rules_aux = oracle_aux = None
    if args.mode in ("rules", "both"):
        rules_aux, fires = build_aux_rules(g, p)
        payload["rules"] = {"vertices": list(rules_aux.vertices),
                            "edges": sorted(map(list, rules_aux.edges)),
                            "fires": len(fires)}
    if args.mode in ("oracle", "both"):
        oracle_aux = build_aux_oracle(g, p)
        payload["oracle"] = {"vertices": list(oracle_aux.vertices),
                             "edges": sorted(map(list, oracle_aux.edges)),
                             "min_degree": oracle_aux.min_degree()}
    sound = True
    if rules_aux is not None and oracle_aux is not None:
        loose = rules_aux.edges - oracle_aux.edges
        sound = not loose
        payload["sound"] = sound
    if args.json:
        _emit_json(payload)
    else:
        for tag, aux in (("rules", rules_aux), ("oracle", oracle_aux)):
            if aux is None:
                continue
            _emit(f"{tag} aux graph: {len(aux.vertices)} terminals, "
                  f"{len(aux.edges)} pairs, min degree {aux.min_degree()}")
            for (a, b) in sorted(aux.edges):
                _emit(f"  {a} -- {b}")
        if rules_aux is not None and oracle_aux is not None:
            _emit("rules within oracle: " + ("yes" if sound else "NO"))
    return 0 if sound else 1


def cmd_engine_claims(args) -> int:
    g = load_graph(args.file)
    p = _fixed_path(g, args.path) if args.path else None
    ctx = build_claim_context(g, p, budget=args.budget)
    rep = check_claims(g, ctx=ctx)
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
        _emit(f"n={cert.n} edges={cert.total_edges} forbidden length="
              f"{cert.k} bound={frac_str(cert.bound)}/vertex")
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
    shown = 0
    for colored in proper_colorings(skel, guard=args.guard):
        _emit(serialize_graph(colored))
        shown += 1
        if shown >= args.limit:
            break
    return 0


def cmd_oracle_eg(args) -> int:
    bound = erdos_gallai_bound(args.n, args.k)
    packed = packing_edge_count(args.n, args.k)
    if args.json:
        _emit_json({"n": args.n, "path_edges": args.k,
                    "bound": frac_str(bound), "packing_edges": packed})
        return 0
    _emit(f"no path with {args.k} edges on {args.n} vertices: "
          f"at most {frac_str(bound)} edges, clique packing gives {packed}")
    if args.witness:
        _emit(serialize_graph(clique_packing(args.n, args.k)))
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
    for key in ("seed", "instances", "n_min", "n_max", "edge_prob",
                "kind", "budget", "tamper"):
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
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

def _add_json(p) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON")


def _add_path_args(p) -> None:
    p.add_argument("--path", metavar="V0,V1,...",
                   help="fix the rainbow path instead of searching")
    p.add_argument("--budget", type=int, default=None,
                   help="search node budget (default: unlimited)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rt", description="rainbow path extremal machinery")
    sub = top.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="read, check and convert files")
    gsub = graph.add_subparsers(dest="sub", required=True)
    v = gsub.add_parser("validate", help="properness and basic stats")
    v.add_argument("file")
    _add_json(v)
    v.set_defaults(fn=cmd_graph_validate)
    cnv = gsub.add_parser("convert", help="rewrite between text and json")
    cnv.add_argument("file")
    cnv.add_argument("-o", "--out", help="output path (format by extension)")
    cnv.add_argument("--to", choices=("text", "json"), default="text",
                     help="stdout format when no -o is given")
    cnv.set_defaults(fn=cmd_graph_convert)

    rainbow = sub.add_parser("rainbow", help="exact rainbow path search")
    rsub = rainbow.add_subparsers(dest="sub", required=True)
    lg = rsub.add_parser("longest", help="longest rainbow path")
    lg.add_argument("file")
    lg.add_argument("--budget", type=int, default=None)
    _add_json(lg)
    lg.set_defaults(fn=cmd_rainbow_longest)
    ex = rsub.add_parser("exists", help="rainbow path of a given length?")
    ex.add_argument("file")
    ex.add_argument("--length", type=int, required=True,
                    help="edge count of the wanted path")
    ex.add_argument("--budget", type=int, default=None)
    _add_json(ex)
    ex.set_defaults(fn=cmd_rainbow_exists)

    cons = sub.add_parser("construct", help="extremal colorings")
    csub = cons.add_subparsers(dest="family", required=True)
    f2k = csub.add_parser("f2k", help="complete bipartite xor coloring")
    f2k.add_argument("--k", type=int, required=True)
    f2k.add_argument("-o", "--out")
    f2k.set_defaults(fn=cmd_construct, family="f2k")
    mm = csub.add_parser("mm", help="complete graph xor coloring")
    mm.add_argument("--k", type=int, required=True)
    mm.add_argument("-o", "--out")
    mm.set_defaults(fn=cmd_construct, family="mm")
    bl = csub.add_parser("blowup", help="disjoint copies plus padding")
    bl.add_argument("--k", type=int, required=True)
    bl.add_argument("--n", type=int, required=True)
    bl.add_argument("-o", "--out")
    bl.set_defaults(fn=cmd_construct, family="blowup")

    bounds = sub.add_parser("bounds", help="per-length coefficient table")
    bounds.add_argument("--kmax", type=int, default=16)
    bounds.add_argument("--csv", action="store_true", help="emit CSV")
    _add_json(bounds)
    bounds.set_defaults(fn=cmd_bounds)

    engine = sub.add_parser("engine", help="rotation machinery")
    esub = engine.add_subparsers(dest="sub", required=True)
    pr = esub.add_parser("profile", help="chord color sets of a path")
    pr.add_argument("file")
    _add_path_args(pr)
    _add_json(pr)
    pr.set_defaults(fn=cmd_engine_profile)
    tm = esub.add_parser("terminals", help="terminal vertices, two ways")
    tm.add_argument("file")
    tm.add_argument("--mode", choices=("rules", "oracle", "both"),
                    default="both")
    _add_path_args(tm)
    _add_json(tm)
    tm.set_defaults(fn=cmd_engine_terminals)
    ax = esub.add_parser("aux", help="terminal pair graph, two ways")
    ax.add_argument("file")
    ax.add_argument("--mode", choices=("rules", "oracle", "both"),
                    default="both")
    _add_path_args(ax)
    _add_json(ax)
    ax.set_defaults(fn=cmd_engine_aux)
    cl = esub.add_parser("claims", help="run the claim battery")
    cl.add_argument("file")
    _add_path_args(cl)
    _add_json(cl)
    cl.set_defaults(fn=cmd_engine_claims)
    ind = esub.add_parser("induct", help="vertex deletion edge bound")
    ind.add_argument("file")
    ind.add_argument("--k", type=int, required=True,
                     help="forbidden rainbow path length (edges)")
    ind.add_argument("--budget", type=int, default=None)
    ind.add_argument("-o", "--out", help="write the certificate as JSON")
    _add_json(ind)
    ind.set_defaults(fn=cmd_engine_induct)

    oracle = sub.add_parser("oracle", help="small case brute force")
    osub = oracle.add_subparsers(dest="sub", required=True)
    xs = osub.add_parser("exstar", help="exact extremal edge count")
    xs.add_argument("--n", type=int, required=True)
    xs.add_argument("--len", type=int, required=True,
                    help="forbidden rainbow path length (edges)")
    xs.add_argument("--guard", type=int, default=7,
                    help="largest n the scan will attempt")
    xs.add_argument("--witness", action="store_true",
                    help="print an extremal coloring")
    _add_json(xs)
    xs.set_defaults(fn=cmd_oracle_exstar)
    co = osub.add_parser("colorings", help="canonical proper colorings")
    co.add_argument("file", help="graph file; only the skeleton is used")
    co.add_argument("--count", action="store_true")
    co.add_argument("--len", type=int, default=None,
                    help="print a coloring with no rainbow path this long")
    co.add_argument("--limit", type=int, default=1,
                    help="how many colorings to print")
    co.add_argument("--guard", type=int, default=15)
    co.set_defaults(fn=cmd_oracle_colorings)
    eg = osub.add_parser("eg", help="classical path bound and packing")
    eg.add_argument("--n", type=int, required=True)
    eg.add_argument("--k", type=int, required=True,
                    help="forbidden path length (edges)")
    eg.add_argument("--witness", action="store_true",
                    help="print the packing coloring")
    _add_json(eg)
    eg.set_defaults(fn=cmd_oracle_eg)

    suite = sub.add_parser("suite", help="randomized cross-check sweep")
    suite.add_argument("--config", help="RunConfig as JSON; flags override")
    suite.add_argument("--seed", type=int, default=None)
    suite.add_argument("--instances", type=int, default=None)
    suite.add_argument("--n-min", type=int, default=None, dest="n_min")
    suite.add_argument("--n-max", type=int, default=None, dest="n_max")
    suite.add_argument("--edge-prob", type=float, default=None,
                       dest="edge_prob")
    suite.add_argument("--kind", choices=("random", "bare_path"),
                       default=None)
    suite.add_argument("--budget", type=int, default=None)
    suite.add_argument("--tamper", action="store_const", const=True,
                       default=None,
                       help="also corrupt one witness per instance and "
                            "check that it is refused")
    _add_json(suite)
    suite.set_defaults(fn=cmd_suite)
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
