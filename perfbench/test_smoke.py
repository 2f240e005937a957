"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the result line's schema and metric names against BENCHMARK.json,
that BENCHMARK.json is what ``run.py --write-spec`` writes, that counters
and digests repeat across two processes, that every pass gets a fresh
set-up, that timings scale to reference host speed, and that the command
fails without the sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import SPEC  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, out=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_spec_and_schema():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == SPEC
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert 1 <= on_disk["run_seconds"] <= 60
    assert 2 <= len(on_disk["workloads"]) <= 8
    names = []
    for w in on_disk["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in on_disk["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in on_disk["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in on_disk["end_to_end"] + on_disk["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in on_disk["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in on_disk["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    res = result_line(bench("--workload", workload, "--seed", "3",
                            "--seconds", "0.3", "--trace", str(trace),
                            "--tiny", out=tmp_path))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_counters_and_digest_repeat_across_processes(tmp_path):
    seen = []
    for i in range(2):
        out = tmp_path / str(i)
        result_line(bench("--workload", "suite_bare_path", "--seconds", "0.3",
                          "--trace", "1", "--tiny", out=out))
        detail = json.loads((out / "suite_bare_path" / "result.json")
                            .read_text())
        assert detail["counters"]["search.span_between.calls"] > 0
        seen.append((detail["counters"], detail["digest"]))
    assert seen[0] == seen[1]


def test_slowest_suite_instance_replays(tmp_path):
    result_line(bench("--workload", "suite_random", "--seconds", "0.3",
                      "--tiny", out=tmp_path))
    graphs = sorted((tmp_path / "suite_random").glob("808-*.txt"))
    assert graphs
    proc = subprocess.run(
        [sys.executable, "-m", "rturan.cli", "engine", "claims",
         str(graphs[0])], cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_pass_gets_a_fresh_set_up():
    import run
    from workloads import PassResult

    seen = []

    class Probe:
        samples = 3

        def setup(self, rt, seed, tiny):
            return rt

        def run_pass(self, rt, tracer=None):
            seen.append(rt)
            return PassResult(labels=["op"], latencies=[0.0])

    sys.path.insert(0, str(ROOT / "src"))
    setups, passes, _, _ = run.run(Probe(), 0, True, 0.0, False)
    assert len(setups) == len(passes) == Probe.samples
    assert len({id(rt) for rt in seen}) == len(seen)


def test_timings_scale_to_reference_speed():
    import calibrate
    import run
    from workloads import PassResult

    assert calibrate.kernel() == calibrate.PATHS
    # a host at half the reference speed: the kernel takes 2 * REF_S
    slow = 2 * calibrate.REF_S
    res = PassResult(labels=["a", "b"], latencies=[0.010, 0.004],
                     cal=[slow, slow, slow], op_cal=[0, 1])
    wall = 0.010 + 0.004 + 3 * slow + 0.002   # 2 ms of glue
    ops, glue = run.at_reference_speed({"wall": wall, "res": res})
    assert ops == pytest.approx([0.005, 0.002])
    assert glue == pytest.approx(0.001)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "decide", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
