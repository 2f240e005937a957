"""Config plumbing and the seeded sweep driver."""

import dataclasses
import json
import random
import sys

import pytest

from rturan import corpus
from rturan.claims import check_claims
from rturan.corpus import (KINDS, RunConfig, build_claim_context,
                           check_instance, random_instance, run_suite)
from rturan.errors import GuardError, WitnessError
from rturan.graphs import ColoredGraph, validate_proper
from rturan.profile import compute_profile
from rturan.search import longest_rainbow_path


# === configuration ===

def test_config_defaults_and_round_trip():
    cfg = RunConfig(seed=3, instances=7, kind="bare_path")
    again = RunConfig.from_json_obj(
        json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


@pytest.mark.parametrize("kwargs", [
    {"kind": "hamiltonian"},
    {"n_min": 1},
    {"n_min": 8, "n_max": 5},
    {"edge_prob": 1.5},
    {"instances": -1},
    {"budget": -3},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_config_refuses_sizes_it_cannot_build():
    assert RunConfig(n_min=2, n_max=707).n_max == 707
    for n_max in (708, 100_000):
        with pytest.raises(GuardError, match="edge guard"):
            RunConfig(n_min=2, n_max=n_max)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_json_obj({"seed": 1, "colour": "red"})


# === instance generation ===

@pytest.mark.parametrize("kind", KINDS)
def test_instances_are_proper_and_seeded(kind):
    a = random_instance(random.Random(42), 8, 0.45, kind)
    b = random_instance(random.Random(42), 8, 0.45, kind)
    assert a == b
    assert a.m >= 1
    assert validate_proper(a).is_proper


def test_bare_path_plants_a_spanning_rainbow_path():
    for seed in range(5):
        g = random_instance(random.Random(seed), 7, 0.4, "bare_path")
        out = longest_rainbow_path(g)
        assert out.proven_optimal and out.best.length == 6


def test_sparse_random_instance_still_has_an_edge():
    g = random_instance(random.Random(0), 5, 0.0)
    assert g.m == 1


# === single-instance checking ===

def test_check_instance_clean():
    g = random_instance(random.Random(9), 8, 0.5, "bare_path")
    fails, report = check_instance(g, "unit", tamper=True)
    assert fails == [] and report is not None
    assert report.all_ok


def test_profile_partitions_name_each_broken_end():
    g = random_instance(random.Random(9), 8, 0.5, "bare_path")
    prof = compute_profile(g, longest_rainbow_path(g).pinned())
    assert corpus._profile_partitions(prof) is None
    stray = g.num_colors  # a color on no edge
    # each end's record is broken on its own: a stray out color at v_0 and a
    # stray in color at v_k, neither of them a color at that end
    bad = dataclasses.replace(
        prof, start=prof.start._replace(out=prof.start.out | {stray}),
        end=prof.end._replace(in_=prof.end.in_ | {stray}))
    assert corpus._profile_partitions(bad) == \
        "start out/in split; end out/in split"


def test_check_instance_flags_improper_input():
    bad = ColoredGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)], num_colors=1)
    fails, report = check_instance(bad, "unit")
    assert report is None
    assert [f.check for f in fails] == ["proper"]
    assert fails[0].instance == "unit"


def test_check_instance_reports_exhausted_budget():
    g = random_instance(random.Random(9), 10, 0.6)
    fails, report = check_instance(g, "unit", budget=2)
    assert report is None
    assert [f.check for f in fails] == ["search"]


@pytest.mark.parametrize("g,budget,detail", [
    (ColoredGraph.from_edges(3, []), None,
     "claim checking needs a rainbow path with at least one edge"),
    (ColoredGraph.from_edges(0, []), None,
     "the graph has no vertices, so no path"),
    (ColoredGraph.from_edges(2, [(0, 1, 0)]), -1,
     "search budget must be >= 0"),
])
def test_check_instance_records_refused_context(g, budget, detail):
    fails, report = check_instance(g, "unit", budget=budget)
    assert report is None
    assert [(f.check, f.detail) for f in fails] == [("search", detail)]


def test_check_instance_labels_a_refusal_with_its_layer():
    # a rainbow 600-cycle: the search finishes, and the matching refuses
    # (one recursion level per terminal), so the record names the matching
    n = 600
    cycle = ColoredGraph.from_edges(
        n, [(i, (i + 1) % n, i) for i in range(n)])
    fails, report = check_instance(cycle, "unit")
    assert report is None
    assert [(f.check, f.detail) for f in fails] == [(
        "matching", "the matching search recursed past the interpreter's "
                    f"limit ({sys.getrecursionlimit()} frames)")]


def test_check_instance_stops_at_a_bad_aux_witness(monkeypatch):
    def forged(*args):
        raise WitnessError("witness", "forged")

    monkeypatch.setattr(corpus, "build_aux_rules", forged)
    g = random_instance(random.Random(9), 8, 0.5, "bare_path")
    fails, report = check_instance(g, "unit")
    assert report is None
    assert [(f.check, f.detail) for f in fails] == [
        ("witness", "witness: forged")]


@pytest.mark.parametrize("kind", KINDS)
def test_check_instance_runs_the_claim_pipeline(kind):
    rng = random.Random(808)
    for idx in range(40):
        g = random_instance(rng, rng.randint(5, 12), 0.45, kind)
        _, report = check_instance(g, f"808:{idx}")
        assert report == check_claims(build_claim_context(g)), idx


# === whole sweeps ===

def test_random_sweep_is_clean_and_deterministic():
    cfg = RunConfig(seed=5, instances=30, n_min=5, n_max=9, kind="random")
    s1, s2 = run_suite(cfg), run_suite(cfg)
    assert s1.ok and s1.failures == ()
    assert s1.instances == 30
    assert s1.claim_counts["falsified"] == 0
    assert s1.hypothesis_counts["maximal"] == 30
    assert s1.failures == s2.failures
    assert s1.hypothesis_counts == s2.hypothesis_counts
    assert s1.claim_counts == s2.claim_counts


def test_bare_path_sweep_reaches_the_window_claims():
    cfg = RunConfig(seed=1, instances=40, n_min=6, n_max=9,
                    kind="bare_path", tamper=True)
    s = run_suite(cfg)
    assert s.ok
    assert s.hypothesis_counts["maximal"] == 40
    assert s.hypothesis_counts.get("pivots", 0) >= 5
    assert s.claim_counts["ok"] > 0 and s.claim_counts["falsified"] == 0


def test_crash_in_one_instance_is_recorded_and_the_sweep_goes_on(monkeypatch):
    inner = corpus.check_instance
    seen = []

    def flaky(g, label, **kwargs):
        seen.append(label)
        if label == "5:3":
            raise KeyError("boom")
        return inner(g, label, **kwargs)

    monkeypatch.setattr(corpus, "check_instance", flaky)
    s = run_suite(RunConfig(seed=5, instances=8, n_min=5, n_max=8))
    assert seen == [f"5:{i}" for i in range(8)]
    assert [(f.instance, f.check, f.detail) for f in s.failures] == [
        ("5:3", "crash", "KeyError: 'boom'")]
    assert s.hypothesis_counts["maximal"] == 7
    assert s.claim_counts["falsified"] == 0


def test_summary_serializes():
    s = run_suite(RunConfig(seed=2, instances=3, n_min=5, n_max=6))
    obj = json.loads(json.dumps(s.to_json_obj()))
    assert obj["ok"] is True
    assert obj["instances"] == 3
    assert obj["config"]["seed"] == 2
    assert set(obj["claim_counts"]) == {"ok", "falsified", "skipped"}
    failed = dataclasses.replace(
        s, failures=(corpus.FailureRecord("2:1", "crash", "KeyError: 'x'"),))
    obj = json.loads(json.dumps(failed.to_json_obj()))
    assert list(obj) == ["config", "instances", "failures",
                         "hypothesis_counts", "claim_counts", "elapsed", "ok"]
    assert obj["ok"] is False
    assert obj["failures"] == [
        {"instance": "2:1", "check": "crash", "detail": "KeyError: 'x'"}]


def test_empty_sweep():
    s = run_suite(RunConfig(instances=0))
    assert s.ok and s.instances == 0 and s.hypothesis_counts == {}
