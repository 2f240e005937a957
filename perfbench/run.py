"""rturan benchmark: one command, stdlib only, single process and thread.

    python3 perfbench/run.py --workload suite_random --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``rturan`` from its
``src/``. It runs whole passes of the workload back to back for about
``--seconds``, each after a fresh set-up (import plus inputs), times a
fixed number of them spread over the run, and checks every output of every
pass. Timings are scaled to a reference host speed with the calibration
kernel of ``calibrate.py``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from the traced passes. Details, the slowest ops, replayable
inputs and the span list go to ``perfbench/out/<workload>/``.

``--write-spec`` writes ``BENCHMARK.json`` from ``SPEC`` below; ``--tiny``
shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
from tracer import Tracer
from workloads import WORKLOADS, install_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 25,
    "workloads": [
        {"name": "suite_random",
         "why": "criterion-08 sweep users run (seed 808, random kind); "
                "longest search and both spanning oracles do the work"},
        {"name": "suite_bare_path",
         "why": "same sweep on planted bare paths (seed 909); spanning-"
                "between dominates, so oracle changes that help random can "
                "hurt here"},
        {"name": "exstar_table",
         "why": "exact extremal values of criteria 06/07 up to n=5 (and "
                "n=6,7 where cheap); oracle only: n! canonical key and "
                "coloring_avoiding, no path search"},
        {"name": "decide",
         "why": "exact verdicts on the constructions: exhaustive exists and "
                "longest on K_{8,8}, K5 colorings, induction certificates"},
    ],
    "end_to_end": [
        # bounds from the measured spread (perfbench/README.md): at least
        # three times the widest quartile spread of ten runs
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.15},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "op_tail_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.15},
    ],
    "per_layer": [],  # filled below from LAYER_METRICS
}

# (metric, unit, better); the traced run prints every one on every workload,
# 0 where a workload never enters the layer
LAYER_METRICS = [
    ("search.longest.self_s", "s", "lower"),
    ("search.longest.calls", "count", "lower"),
    ("search.longest.nodes", "count", "lower"),
    ("search.exists.self_s", "s", "lower"),
    ("search.exists.calls", "count", "lower"),
    ("search.exists.nodes", "count", "lower"),
    ("search.span_from.self_s", "s", "lower"),
    ("search.span_from.calls", "count", "lower"),
    ("search.span_from.hit_ratio", "ratio", "higher"),
    ("search.span_between.self_s", "s", "lower"),
    ("search.span_between.calls", "count", "lower"),
    ("search.span_between.hit_ratio", "ratio", "higher"),
    ("terminals.rules.self_s", "s", "lower"),
    ("terminals.oracle.self_s", "s", "lower"),
    ("terminals.aux_rules.self_s", "s", "lower"),
    ("terminals.aux_oracle.self_s", "s", "lower"),
    ("terminals.matching.self_s", "s", "lower"),
    ("profile.self_s", "s", "lower"),
    ("claims.self_s", "s", "lower"),
    ("claims.ok", "count", "higher"),
    ("claims.skipped", "count", "lower"),
    ("claims.falsified", "count", "lower"),
    ("graphs.validate.self_s", "s", "lower"),
    ("corpus.run_suite.self_s", "s", "lower"),
    ("corpus.gen.self_s", "s", "lower"),
    ("corpus.check_instance.self_s", "s", "lower"),
    ("oracle.exstar.self_s", "s", "lower"),
    ("oracle.coloring_avoiding.self_s", "s", "lower"),
    ("oracle.coloring_avoiding.calls", "count", "lower"),
    ("oracle.coloring_avoiding.feasible_ratio", "ratio", "higher"),
    ("oracle.proper_colorings.self_s", "s", "lower"),
    ("oracle.proper_colorings.yielded", "count", "lower"),
    ("induction.self_s", "s", "lower"),
    ("induction.steps", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.glue_s", "s", "lower"),
    ("trace.overhead", "x", "lower"),
]
SPEC["per_layer"] = [{"name": n, "unit": u, "better": b}
                     for n, u, b in LAYER_METRICS]
# (numerator counter, denominator counter) for each ratio metric
RATIOS = {
    "search.span_from.hit_ratio": ("search.span_from.hits",
                                   "search.span_from.calls"),
    "search.span_between.hit_ratio": ("search.span_between.hits",
                                      "search.span_between.calls"),
    "oracle.coloring_avoiding.feasible_ratio": (
        "oracle.coloring_avoiding.feasible", "oracle.coloring_avoiding.calls"),
}

MIN_TRACED = 2       # traced passes per traced run, at least
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10     # samples beyond the reported tail percentile


# -- environment and import -----------------------------------------------------

def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def set_up(wl, seed: int, tiny: bool):
    """Import the package afresh from this checkout's src/ and build the
    workload's inputs. Returns (rturan module, state, seconds taken at
    reference speed).

    Dropping the previous import drops any module-level cache with it, so a
    pass starts as cold as a user's first call in a new process.
    """
    for name in [m for m in sys.modules
                 if m == "rturan" or m.startswith("rturan.")]:
        del sys.modules[name]
    gc.collect()
    before = calibrate.sample()
    t0 = time.perf_counter()
    rt = importlib.import_module("rturan")
    state = wl.setup(rt, seed, tiny)
    dt = time.perf_counter() - t0
    local = (before + calibrate.sample()) / 2
    return rt, state, dt * calibrate.REF_S / local


# -- statistics -------------------------------------------------------------------

def nearest_rank(sorted_vals: list, pct: float):
    k = max(1, -(-len(sorted_vals) * pct // 100))
    return sorted_vals[int(k) - 1], len(sorted_vals) - int(k)


def tail(sorted_vals: list):
    """Highest listed percentile with at least TAIL_BEYOND samples beyond it
    (the median when there are too few samples)."""
    for pct in TAIL_PERCENTILES:
        value, beyond = nearest_rank(sorted_vals, pct)
        if beyond >= TAIL_BEYOND:
            return pct, value, beyond
    value, beyond = nearest_rank(sorted_vals, 50.0)
    return 50.0, value, beyond


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- passes --------------------------------------------------------------------

def run(wl, seed: int, tiny: bool, seconds: float, traced: bool):
    """Run passes back to back, each after a fresh set-up.

    Untraced, the first pass to start at or after each of ``wl.samples``
    evenly spaced times in ``seconds`` is a sample, and the run ends after
    the last sample. A traced run alternates untraced and traced passes, at
    least MIN_TRACED of each so the traced counters can be compared, and
    does not start a pair that the slowest set-up plus pass so far says
    would overrun. Returns (set-up times at reference speed, passes, the
    last rturan module, the last tracer).
    """
    setups, passes = [], []
    tracer = None
    samples = 0
    slowest_pass = 0.0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        trace_this = traced and len(passes) % 2 == 1
        sample = not trace_this and (
            traced or t_pass - t_start >= samples * seconds / wl.samples)
        samples += sample
        rt, state, dt = set_up(wl, seed, tiny)
        setups.append(dt)
        if trace_this:
            tracer = Tracer()
            install_trace(tracer, rt)
            # the kernel must not run inside spans, so a traced pass is
            # calibrated just before and after it
            cal_before = calibrate.sample()
        try:
            t0 = time.perf_counter()
            res = wl.run_pass(state, tracer if trace_this else None)
            wall = time.perf_counter() - t0
        finally:
            if trace_this:
                tracer.restore()
        p = {"wall": wall, "res": res, "traced": trace_this, "sample": sample}
        if trace_this:
            p.update(self=tracer.self_times(), counts=dict(tracer.counts),
                     top=tracer.top_level_s(),
                     cal=(cal_before + calibrate.sample()) / 2)
        passes.append(p)
        now = time.perf_counter()
        slowest_pass = max(slowest_pass, now - t_pass)
        if not traced and samples == wl.samples:
            return setups, passes, rt, tracer
        if (traced and len(passes) % 2 == 0
                and len(passes) >= 2 * MIN_TRACED
                and now - t_start + 2 * slowest_pass > seconds):
            return setups, passes, rt, tracer


def consistency(passes: list) -> list:
    """Deterministic outputs and counters must repeat exactly."""
    problems = set()
    first = passes[0]["res"]
    for p in passes[1:]:
        if p["res"].labels != first.labels:
            problems.add("op labels differ between passes")
        if p["res"].digest != first.digest:
            problems.add("digest differs between passes")
    traced = [p["counts"] for p in passes if p["traced"]]
    if any(c != traced[0] for c in traced[1:]):
        problems.add("trace counters differ between passes")
    return sorted(problems)


def at_reference_speed(p: dict) -> tuple:
    """One pass's op times and glue, scaled to reference host speed.

    Each op is scaled by the mean of the two calibration samples around
    it. Glue is the part of a pass outside its ops and the kernel (output
    checks, input relabeling, generator set-up); it is scaled by the pass's
    median sample. Returns (per-op seconds, glue seconds).
    """
    res = p["res"]
    cal, ref = res.cal, calibrate.REF_S
    ops = [lat * 2 * ref / (cal[k] + cal[k + 1])
           for lat, k in zip(res.latencies, res.op_cal)]
    glue = p["wall"] - sum(res.latencies) - sum(cal)
    return ops, max(glue, 0.0) * ref / statistics.median(cal)


def median_pass(scaled: list) -> tuple:
    """Each op at its median over the sampled passes, plus the median glue.

    ``scaled`` holds ``at_reference_speed`` of each sample. The number of
    samples is fixed per workload, so it does not change when faster code
    fits more passes into a run. Returns (per-op seconds, wall seconds of
    the composed pass).
    """
    per_op = [statistics.median(lat) for lat in zip(*(s[0] for s in scaled))]
    glue = statistics.median(s[1] for s in scaled)
    return per_op, sum(per_op) + glue


def host_speed(samples: list) -> float:
    """Reference kernel time over the median kernel time (1 = reference)."""
    return calibrate.REF_S / statistics.median(
        c for p in samples for c in p["res"].cal)


def end_to_end(samples: list, setup_times: list) -> tuple:
    """The end-to-end metrics. Latency percentiles are over every timed op
    run (ops per pass times sampled passes), not over per-op medians: on
    ``decide`` the median-based p95 sat at the edge of a cluster of 30-us
    K5 ops and moved 12% between runs of one seed."""
    scaled = [at_reference_speed(p) for p in samples]
    per_op, wall = median_pass(scaled)
    srt = sorted(lat for ops, _ in scaled for lat in ops)
    pct, tail_s, beyond = tail(srt)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": len(per_op) / wall,
        "op_p50_ms": nearest_rank(srt, 50.0)[0] * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    tail_info = {"percentile": pct, "samples": len(srt), "beyond": beyond}
    return metrics, tail_info, per_op


def per_layer(passes: list) -> tuple:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = traced[0]["counts"]
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            metrics[name] = statistics.median(p["self"].get(span, 0.0)
                                              for p in traced)
        elif name in RATIOS:
            num, den = RATIOS[name]
            metrics[name] = (counts.get(num, 0) / counts[den]
                             if counts.get(den) else 0.0)
        elif not name.startswith("trace."):
            metrics[name] = counts.get(name, 0)
    t_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = t_wall
    metrics["trace.glue_s"] = statistics.median(p["wall"] - p["top"]
                                                for p in traced)
    # compared at reference speed, as the passes ran at different host
    # speeds; untraced passes also ran the kernel, which is left out
    metrics["trace.overhead"] = statistics.median(
        p["wall"] / p["cal"] for p in traced) / statistics.median(
        (p["wall"] - sum(p["res"].cal)) / statistics.median(p["res"].cal)
        for p in plain)
    # self times telescope to the top-level spans; the rest is glue
    last = traced[-1]
    layer_sum = sum(last["self"].values())
    accounting = {"layers_s": layer_sum, "glue_s": last["wall"] - layer_sum,
                  "wall_s": last["wall"], "top_level_s": last["top"]}
    return metrics, counts, accounting, last["self"]


# -- reporting -----------------------------------------------------------------

def slowest(passes: list, per_op: list, n: int = 5) -> list:
    labels = passes[0]["res"].labels
    order = sorted(range(len(per_op)), key=lambda i: -per_op[i])[:n]
    return [(labels[i], per_op[i] * 1e3) for i in order]


def write_outputs(out: Path, passes: list, summary: dict,
                  spans_tracer=None) -> list:
    out.mkdir(parents=True, exist_ok=True)
    replays = []
    for label, text in passes[-1]["res"].slowest_inputs.items():
        path = out / (label.replace(":", "-") + ".txt")
        path.write_text(text, encoding="utf-8")
        replays.append((label, path))
    if spans_tracer is not None:
        spans_tracer.write_csv(out / "spans.csv")
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return replays


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (smoke test)")
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for details, slowest inputs and spans")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(SPEC, fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    src = ROOT / "src"
    if not (src / "rturan" / "__init__.py").is_file():
        print(f"error: no rturan sources under {src}", file=sys.stderr)
        return 2
    # Compile to bytecode up front, so every set-up imports from it whether
    # or not the environment lets imports write it (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(str(src / "rturan"), quiet=1)
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]

    calibrate.warm_up()
    setup_times, passes, rt, tracer = run(wl, args.seed, args.tiny,
                                          args.seconds, bool(args.trace))
    if Path(rt.__file__).resolve().parent != (src / "rturan").resolve():
        print(f"error: imported rturan from {rt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    timed = [p for p in passes if p["sample"]]
    problems = consistency(passes)
    attempted = sum(len(p["res"].labels) for p in passes)
    failures = [f for p in passes for f in p["res"].failed]
    correct = not problems and not failures

    e2e, tail_info, per_op = end_to_end(timed, setup_times)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} tiny {args.tiny} "
        f"trace {args.trace}")
    print(f"env python {env['python']} ({env['implementation']}), "
        f"nproc {env['nproc']}, cpu {env['cpu_model']}")
    print("setup_s runs: " + " ".join(f"{t:.4f}" for t in setup_times))
    walls = sorted(p["wall"] - sum(p["res"].cal) for p in timed)
    speed = host_speed(timed)
    print(f"{len(timed)} sampled of {len(passes)} passes, measured wall "
        f"(kernel excluded) min {walls[0]:.4f} median "
        f"{statistics.median(walls):.4f} max {walls[-1]:.4f} s; host speed "
        f"{speed:.3f} of reference (kernel median "
        f"{calibrate.REF_S / speed * 1e3:.4f} ms)")
    print(f"ops per pass {len(per_op)}, attempted {attempted}, failed "
        f"{len(failures)}, fail_rate {len(failures) / attempted:.4g}")
    print(f"op tail: p{tail_info['percentile']:g} over {tail_info['samples']} "
        f"timed op runs ({tail_info['beyond']} beyond it)")
    for name, value in e2e.items():
        unit = next(m["unit"] for m in SPEC["end_to_end"]
                    if m["name"] == name)
        print(f"  {name:12s} {value:>12.6g} {unit}")
    print("digest " + json.dumps(passes[0]["res"].digest, sort_keys=True))
    for label, ms in slowest(timed, per_op):
        print(f"slow op {label}: {ms:.3f} ms")
    for label, reason in failures[:10]:
        print(f"FAILED {label}: {reason}")
    for problem in problems:
        print(f"INCONSISTENT {problem}")

    summary = {"workload": args.workload, "seed": args.seed,
               "tiny": args.tiny, "trace": args.trace, "env": env,
               "setup_s": setup_times,
               "pass_walls_s": [p["wall"] for p in timed],
               "host_speed": speed,
               "end_to_end": e2e, "tail": tail_info,
               "slowest_ops_ms": slowest(timed, per_op, 20),
               "digest": passes[0]["res"].digest,
               "failures": failures, "problems": problems}
    metrics = e2e
    spans_tracer = None
    if args.trace:
        layers, counts, acct, last_self = per_layer(passes)
        spans_tracer = tracer
        print(f"traced: layer self times {acct['layers_s']:.4f} s + glue "
            f"{acct['glue_s']:.4f} s = traced wall {acct['wall_s']:.4f} s; "
            f"tracing overhead {layers['trace.overhead']:.3f}x")
        for span, s in sorted(last_self.items(), key=lambda kv: -kv[1]):
            extra = " ".join(f"{k[len(span) + 1:]}={v}"
                             for k, v in sorted(counts.items())
                             if k.startswith(span + "."))
            print(f"  {span:28s} self {s:9.4f} s  {extra}")
        summary.update(per_layer=layers, counters=counts, accounting=acct)
        metrics = layers
        units = {n: u for n, u, _ in LAYER_METRICS}
    else:
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    try:
        replays = write_outputs(Path(args.out) / args.workload, passes,
                                summary, spans_tracer)
    except OSError as e:
        print(f"warning: details not written: {e}", file=sys.stderr)
        replays = []
    for label, path in replays:
        print(f"replay {label}: PYTHONPATH=src python3 -m rturan.cli engine "
            f"claims {os.path.relpath(path)}")

    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
