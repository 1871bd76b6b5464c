"""Cache coherence of the analysis pipeline manager.

The contract under test:

* a warm query returns the *same object* the cold query built, does zero
  analysis work (the shared WorkCounter does not move), and counts as a
  cache hit;
* a shape mutation (DCE removing nodes) invalidates everything;
* an expression-only rewrite (copy propagation, constant folding of a
  right-hand side) invalidates exactly the passes that declared
  ``uses_exprs=True`` -- dominance, cycle equivalence, SESE structure
  and the CDG stay warm;
* explicit :meth:`AnalysisManager.invalidate` cascades to declared
  transitive dependents and nothing else.
"""

from __future__ import annotations

import pytest

from repro.cfg.builder import build_cfg
from repro.core.dce import dfg_dead_code_elimination
from repro.lang.parser import parse_program
from repro.opt.copyprop import copy_propagation
from repro.pipeline.manager import AnalysisManager, PassRegistry
from repro.pipeline.passes import default_registry

SRC = """
x := p;
d := p * 3;
y := x + 1;
if (y > 0) { z := y; } else { z := 0 - y; }
print z;
"""

#: Shape-only passes: survive expression rewrites.
SHAPE_PASSES = (
    "cfg", "csr", "dfs", "dom", "pdom", "cycle-equiv", "sese", "cdg",
    "regions", "ntscd",
)
#: Expression-reading passes: recompute after any rewrite.
EXPR_PASSES = (
    "dfg", "defuse", "liveness", "reaching", "available", "pavailable",
    "ssa", "constprop", "constprop-cfg", "constprop-defuse", "sccp",
    "region-summaries", "sparse-range", "sparse-taint", "scvn",
)


def fresh_manager() -> AnalysisManager:
    return AnalysisManager(build_cfg(parse_program(SRC)))


def test_registry_covers_the_split():
    registry = default_registry()
    assert set(SHAPE_PASSES) | set(EXPR_PASSES) == set(registry.names())
    for name in SHAPE_PASSES:
        assert not registry.spec(name).uses_exprs, name
    for name in EXPR_PASSES:
        assert registry.spec(name).uses_exprs, name


# -- warm queries --------------------------------------------------------------


def test_warm_result_is_the_cold_object():
    manager = fresh_manager()
    cold = {name: manager.get(name) for name in default_registry().names()}
    for name, result in cold.items():
        assert manager.get(name) is result, name


def test_hit_miss_accounting():
    manager = fresh_manager()
    manager.run_all()
    manager.run_all()
    for name in default_registry().names():
        stats = manager.stats[name]
        assert stats.misses == 1, name
        # Every pass is hit at least once on the second sweep; substrate
        # passes are hit more often, once per dependent resolution.
        assert stats.hits >= 1, name
        assert stats.invalidations == 0, name


def test_warm_query_does_zero_work():
    """The acceptance criterion: a warm re-query of SESE / cycle-equiv /
    DFG performs no recomputation work at all."""
    manager = fresh_manager()
    manager.run_all()
    counter = manager.metrics.counter
    before = counter.snapshot()
    for name in ("sese", "cycle-equiv", "dfg"):
        manager.get(name)
    assert counter.diff(before) == {}
    for name in ("sese", "cycle-equiv", "dfg"):
        assert manager.stats[name].hits >= 1, name


def test_warm_spans_are_marked_cached():
    manager = fresh_manager()
    manager.get("sese")
    manager.get("sese")
    spans = [s for s in manager.metrics.spans if s.name == "pass:sese"]
    assert [s.cached for s in spans] == [False, True]


def test_dependency_work_is_attributed_to_the_dependency():
    manager = fresh_manager()
    manager.get("sese")  # pulls in cycle-equiv, dom, pdom
    assert any(
        key.startswith("ce_") for key in manager.stats["cycle-equiv"].work
    )
    assert not any(
        key.startswith("ce_") for key in manager.stats["sese"].work
    )


# -- invalidation --------------------------------------------------------------


def test_shape_mutation_invalidates_everything():
    manager = fresh_manager()
    manager.run_all()
    removed = dfg_dead_code_elimination(manager.graph, dfg=manager.get("dfg"))
    assert removed.removed_assignments, "the dead assignment must go"
    for name in default_registry().names():
        assert not manager.cached(name), name
    manager.run_all()
    for name in default_registry().names():
        stats = manager.stats[name]
        assert stats.invalidations == 1, name
        assert stats.misses == 2, name


def test_expr_rewrite_keeps_control_structure_warm():
    manager = fresh_manager()
    manager.run_all()
    warm_sese = manager.get("sese")
    stats = copy_propagation(manager.graph)
    assert stats.rewritten_uses > 0, "the copy x := p must propagate"
    for name in SHAPE_PASSES:
        assert manager.cached(name), name
    for name in EXPR_PASSES:
        assert not manager.cached(name), name
    # The warm shape results are the *same objects* as before the rewrite.
    assert manager.get("sese") is warm_sese
    manager.run_all()
    for name in SHAPE_PASSES:
        assert manager.stats[name].misses == 1, name
        assert manager.stats[name].invalidations == 0, name
    for name in EXPR_PASSES:
        assert manager.stats[name].misses == 2, name
        assert manager.stats[name].invalidations == 1, name


def test_manual_note_rewrite_granularity():
    manager = fresh_manager()
    manager.run_all()
    manager.graph.note_rewrite()  # expression-only
    assert manager.cached("dom") and not manager.cached("dfg")
    manager.run_all()
    manager.graph.note_rewrite(structural=True)
    assert not manager.cached("dom") and not manager.cached("dfg")


def test_explicit_invalidate_cascades_to_declared_dependents():
    manager = fresh_manager()
    manager.run_all()
    dropped = manager.invalidate("dfg")
    assert dropped == {"dfg", "ssa", "sccp", "constprop", "scvn"}
    for name in dropped:
        assert not manager.cached(name), name
    # Unrelated branches of the DAG stay warm.
    for name in ("sese", "defuse", "constprop-defuse", "liveness"):
        assert manager.cached(name), name


def test_downstream_closure():
    registry = default_registry()
    assert registry.downstream("ssa") == {"ssa", "sccp", "scvn"}
    assert registry.downstream("defuse") == {"defuse", "constprop-defuse"}
    sese_down = registry.downstream("sese")
    assert {"sese", "dfg", "ssa", "sccp", "constprop"} <= sese_down
    assert "cdg" not in sese_down
    assert registry.downstream("cfg") == set(registry.names())


def test_rebind_drops_the_whole_cache():
    manager = fresh_manager()
    manager.run_all()
    replacement = manager.graph.copy()
    manager.rebind(replacement)
    assert manager.graph is replacement
    for name in default_registry().names():
        assert not manager.cached(name), name


# -- registry construction -----------------------------------------------------


def test_registry_rejects_duplicates_and_unknown_deps():
    registry = PassRegistry()

    @registry.register("a")
    def _a(graph, deps, counter):
        return 1

    with pytest.raises(ValueError, match="registered twice"):

        @registry.register("a")
        def _a2(graph, deps, counter):
            return 2

    with pytest.raises(ValueError, match="unregistered"):

        @registry.register("b", deps=("missing",))
        def _b(graph, deps, counter):
            return 3

    with pytest.raises(KeyError, match="unknown pass"):
        registry.spec("nope")


def test_registration_order_is_topological():
    registry = default_registry()
    seen: set[str] = set()
    for spec in registry:
        assert set(spec.deps) <= seen, spec.name
        seen.add(spec.name)
