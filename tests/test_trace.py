"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps library
functions at the module attributes their callers look them up by. Installing
its tracer here makes a change that deletes or renames one of those names
fail this suite, not only the benchmark's own smoke test."""

import ast
import sys
from pathlib import Path

import rturan
from rturan.constructions import maamoun_meyniel
from rturan.corpus import RunConfig
from rturan.graphs import one_factorized_complete

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (rturan, rturan.corpus, rturan.terminals, rturan.oracle,
           rturan.induction)


def test_perfbench_trace_installs_on_the_library_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    before = [dict(vars(m)) for m in MODULES]
    try:
        import tracer
        import workloads
        t = tracer.Tracer()
        try:
            workloads.install_trace(t, rturan)
            rturan.run_suite(RunConfig(seed=5, instances=3, n_min=5,
                                       n_max=7, tamper=True))
            # the xor coloring of K_4 has no rainbow Hamiltonian path
            assert rturan.has_rainbow_path(maamoun_meyniel(2), 3).found is False
            assert rturan.run_induction(one_factorized_complete(4), 2).holds
        finally:
            t.restore()
    finally:
        for name in set(sys.modules) - loaded:
            del sys.modules[name]
    counts = t.counts
    assert counts["corpus.run_suite.calls"] == 1
    for layer in ("corpus.check_instance", "search.longest", "profile",
                  "terminals.rules", "terminals.aux_rules",
                  "terminals.aux_oracle", "claims"):
        assert counts[layer + ".calls"] == 3, layer
    # maximum_matching and matching_stats once each per instance, reached
    # only while the claim context is built where the tracer wraps it
    assert counts["terminals.matching.calls"] == 6
    assert counts["search.exists.calls"] >= 1
    assert counts["induction.calls"] == 1
    assert set(t.self_times()) >= {"corpus.run_suite", "terminals.aux_oracle"}
    # every wrapped name is the library's own function again
    for m, attrs in zip(MODULES, before):
        assert all(getattr(m, a) is f for a, f in attrs.items()), m.__name__


def _traced_names(monkeypatch) -> set:
    """(module, name) of every binding the traced run patches."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    try:
        import tracer
        import workloads
        t = tracer.Tracer()
        try:
            workloads.install_trace(t, rturan)
            return {(owner.__name__, attr) for owner, attr, _ in t._patches}
        finally:
            t.restore()
    finally:
        for name in set(sys.modules) - loaded:
            del sys.modules[name]


def test_every_import_is_used_or_bound_for_the_tracer(monkeypatch):
    traced = _traced_names(monkeypatch)
    src = Path(rturan.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree, lines = ast.parse(text), text.splitlines()
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        module = f"rturan.{path.stem}"
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name in used:
                    continue
                where = f"{path.name}:{alias.lineno} imports {name} unused"
                assert "# noqa: F401" in lines[alias.lineno - 1], where
                assert (module, name) in traced, where
