"""The default pass registry: every analysis in the project, as a DAG.

::

    cfg ─┬─ csr ─┬─ dfs
         │       ├─ dom ──────────┐
         │       ├─ pdom ─┬─ cdg  │
         │       ├─ cycle-equiv ──┴─ sese ─┬─ dfg ─┬─ ssa ── sccp
         │       │                         │       ├─ constprop
         │       │                         │       └─ (copyprop, EPR too)
         │       │                         └─ regions ── region-summaries
         │       ├─ liveness / reaching
         │       ├─ available / pavailable
         │       └─ arena ── arena-dataflow
         ├─ defuse ── constprop-defuse
         └─ constprop-cfg

The ``csr`` pass snapshots the CFG into flat arrays
(:class:`repro.perf.csr.CSRGraph`); the graph-structure passes, the
bitset dataflow passes and the arena all run on it, so the snapshot --
and everything memoized on it, such as each direction's reverse
postorder -- is built once per CFG shape version and shared.

Shape-only passes (``uses_exprs=False``) read the graph's nodes, edges
and assignment targets but never an expression: dominance, cycle
equivalence, SESE structure and the CDG all survive copy propagation and
constant folding of right-hand sides.  Everything that reads operands --
the DFG, def-use chains, liveness, reaching definitions, and all four
constant propagators -- recomputes after an expression rewrite.

Pass bodies receive ``(graph, deps, counter)`` and must be pure
functions of the graph and their declared dependencies: the manager
caches results on that assumption.
"""

from __future__ import annotations

from repro.controldep.cdg import control_dependence_items
from repro.controldep.cycle_equiv import cycle_equivalence
from repro.controldep.sese import ProgramStructure
from repro.core.build import build_dfg
from repro.core.constprop import dfg_constant_propagation
from repro.dataflow.available import (
    available_expressions,
    partially_available_expressions,
)
from repro.dataflow.liveness import live_variables
from repro.dataflow.reaching import reaching_definitions
from repro.defuse.chains import build_def_use_chains
from repro.defuse.constprop import defuse_constant_propagation
from repro.graphs.dfs import depth_first_search_csr
from repro.graphs.dominance import edge_dominators, edge_postdominators
from repro.opt.cfg_constprop import cfg_constant_propagation
from repro.perf.csr import build_csr
from repro.pipeline.manager import PassRegistry, register_result_codec
from repro.ssa.from_dfg import build_ssa_from_dfg
from repro.ssa.sccp import sparse_conditional_constant_propagation

_REGISTRY = PassRegistry()


def default_registry() -> PassRegistry:
    """The shared registry of standard passes (do not mutate)."""
    return _REGISTRY


@_REGISTRY.register(
    "cfg", uses_exprs=False, description="validated normalized CFG"
)
def _cfg(graph, deps, counter):
    from repro.robust.validate import check_cfg

    check_cfg(graph, normalized=True)
    return graph


@_REGISTRY.register(
    "csr", deps=("cfg",), uses_exprs=False,
    description="flat-array (CSR) snapshot of the CFG shape",
)
def _csr(graph, deps, counter):
    result = build_csr(graph)
    counter.tick("csr_entries", result.n + result.m)
    return result


@_REGISTRY.register(
    "dfs", deps=("cfg", "csr"), uses_exprs=False,
    description="depth-first numbering and edge classification",
)
def _dfs(graph, deps, counter):
    result = depth_first_search_csr(deps["csr"])
    counter.tick("dfs_nodes_numbered", len(result.pre_number))
    return result


@_REGISTRY.register(
    "dom", deps=("cfg", "csr"), uses_exprs=False,
    description="edge dominator tree (split graph)",
)
def _dom(graph, deps, counter):
    result = edge_dominators(graph, csr=deps["csr"])
    counter.tick("dom_tree_entries", len(result.idom))
    return result


@_REGISTRY.register(
    "pdom", deps=("cfg", "csr"), uses_exprs=False,
    description="edge postdominator tree (split graph)",
)
def _pdom(graph, deps, counter):
    result = edge_postdominators(graph, csr=deps["csr"])
    counter.tick("pdom_tree_entries", len(result.idom))
    return result


@_REGISTRY.register(
    "cycle-equiv", deps=("cfg", "csr"), uses_exprs=False,
    description="O(E) cycle-equivalence classes of CFG edges",
)
def _cycle_equiv(graph, deps, counter):
    return cycle_equivalence(graph, counter, csr=deps["csr"])


@_REGISTRY.register(
    "sese", deps=("cfg", "dom", "pdom", "cycle-equiv"), uses_exprs=False,
    description="canonical SESE regions and the program structure tree",
)
def _sese(graph, deps, counter):
    return ProgramStructure(
        graph,
        dom=deps["dom"],
        pdom=deps["pdom"],
        edge_class=deps["cycle-equiv"],
        counter=counter,
    )


@_REGISTRY.register(
    "regions", deps=("cfg", "sese"), uses_exprs=False,
    description="closure-verified per-region equation systems (PST)",
)
def _regions(graph, deps, counter):
    from repro.regions.systems import build_systems

    return build_systems(graph, deps["sese"], counter)


@_REGISTRY.register(
    "region-summaries", deps=("cfg", "csr", "sese", "regions"),
    description="hierarchical region-summary solve of the four core "
                "analyses (decoded per-edge facts)",
)
def _region_summaries(graph, deps, counter):
    from repro.regions.hierarchical import core_problems, solve_hierarchical

    csr = deps["csr"]
    problems = core_problems(graph, csr)
    out = {}
    for name, problem in sorted(problems.items()):
        masks = solve_hierarchical(csr, deps["regions"], problem, counter)
        out[name] = {
            csr.edge_ids[e]: masks[e] for e in range(csr.m)
        }
    return out


@_REGISTRY.register(
    "cdg", deps=("cfg", "pdom"), uses_exprs=False,
    description="Ferrante-Ottenstein-Warren control dependence sets",
)
def _cdg(graph, deps, counter):
    return control_dependence_items(graph, pdom=deps["pdom"], counter=counter)


@_REGISTRY.register(
    "dfg", deps=("cfg", "sese"),
    description="dependence flow graph (demand-driven, region bypassing)",
)
def _dfg(graph, deps, counter):
    return build_dfg(graph, structure=deps["sese"], counter=counter)


@_REGISTRY.register(
    "defuse", deps=("cfg",),
    description="def-use chains from reaching definitions",
)
def _defuse(graph, deps, counter):
    return build_def_use_chains(graph, counter)


@_REGISTRY.register(
    "liveness", deps=("cfg", "csr"), description="live variables per edge"
)
def _liveness(graph, deps, counter):
    return live_variables(graph, counter=counter, csr=deps["csr"])


@_REGISTRY.register(
    "reaching", deps=("cfg", "csr"),
    description="reaching definitions per edge",
)
def _reaching(graph, deps, counter):
    return reaching_definitions(graph, counter, csr=deps["csr"])


@_REGISTRY.register(
    "available", deps=("cfg", "csr"),
    description="available expressions per edge (EPR safety substrate)",
)
def _available(graph, deps, counter):
    return available_expressions(graph, counter, csr=deps["csr"])


@_REGISTRY.register(
    "pavailable", deps=("cfg", "csr"),
    description="partially available expressions per edge (EPR profitability)",
)
def _pavailable(graph, deps, counter):
    return partially_available_expressions(graph, counter, csr=deps["csr"])


@_REGISTRY.register(
    "ssa", deps=("dfg",),
    description="pruned SSA derived from the DFG (no dominance frontier)",
)
def _ssa(graph, deps, counter):
    return build_ssa_from_dfg(graph, dfg=deps["dfg"], counter=counter)


@_REGISTRY.register(
    "constprop", deps=("dfg",),
    description="DFG constant propagation (Section 4, possible-paths)",
)
def _constprop(graph, deps, counter):
    return dfg_constant_propagation(graph, dfg=deps["dfg"], counter=counter)


@_REGISTRY.register(
    "constprop-cfg", deps=("cfg",),
    description="Kildall vector constant propagation (Figure 4a baseline)",
)
def _constprop_cfg(graph, deps, counter):
    return cfg_constant_propagation(graph, counter)


@_REGISTRY.register(
    "constprop-defuse", deps=("defuse",),
    description="def-use chain constant propagation (all-paths baseline)",
)
def _constprop_defuse(graph, deps, counter):
    return defuse_constant_propagation(graph, chains=deps["defuse"], counter=counter)


@_REGISTRY.register(
    "sccp", deps=("ssa",),
    description="sparse conditional constant propagation over SSA",
)
def _sccp(graph, deps, counter):
    return sparse_conditional_constant_propagation(deps["ssa"], counter=counter)


@_REGISTRY.register(
    "ntscd", deps=("cfg",), uses_exprs=False,
    description="non-termination-sensitive strong control dependence "
                "(Chalupa et al.)",
)
def _ntscd(graph, deps, counter):
    from repro.controldep.ntscd import ntscd

    return ntscd(graph, counter)


@_REGISTRY.register(
    "sparse-range", deps=("cfg",),
    description="sparse interval range analysis with branch refinement "
                "(live-range-splitting engine)",
)
def _sparse_range(graph, deps, counter):
    from repro.sparse.range_analysis import range_analysis

    return range_analysis(graph, counter)


@_REGISTRY.register(
    "sparse-taint", deps=("cfg",),
    description="sparse forward taint tracking (entry values to "
                "prints/stores)",
)
def _sparse_taint(graph, deps, counter):
    from repro.sparse.taint import taint_analysis

    return taint_analysis(graph, counter=counter)


@_REGISTRY.register(
    "scvn", deps=("ssa", "sccp"),
    description="sparse conditional value numbering over SCCP facts",
)
def _scvn(graph, deps, counter):
    from repro.sparse.scvn import sparse_value_numbering

    return sparse_value_numbering(deps["ssa"], deps["sccp"], counter)


@_REGISTRY.register(
    "arena", deps=("cfg", "csr"),
    description="arena lowering: node/edge payload interned into an "
                "expression pool over the CSR snapshot",
)
def _arena(graph, deps, counter):
    from repro.arena import ExpressionPool, lower_cfg

    pool = ExpressionPool(counter=counter)
    return (pool, lower_cfg(graph, pool, counter=counter, csr=deps["csr"]))


@_REGISTRY.register(
    "arena-dataflow", deps=("arena",),
    description="fused arena solve: the four bitset analyses plus vector "
                "constant propagation in one sweep",
)
def _arena_dataflow(graph, deps, counter):
    from repro.arena import analyze_arena

    pool, arena = deps["arena"]
    return analyze_arena(arena, pool, counter=counter)


def _arena_encode(result) -> bytes:
    """Export the ``arena`` pass as its RPA1 wire payload (a one-program
    corpus) instead of a pickle: the versioned varint format is smaller,
    and decode validates the tables and rebuilds the pool's derived
    tables and a graph-less CSR snapshot from scratch -- a detach by
    construction."""
    from repro.arena.arena import ArenaCorpus

    pool, arena = result
    return ArenaCorpus(pool, [arena]).to_bytes()


def _arena_decode(blob: bytes):
    from repro.arena.arena import ArenaCorpus

    corpus = ArenaCorpus.from_bytes(blob)
    return (corpus.pool, corpus.programs[0])


register_result_codec("arena", _arena_encode, _arena_decode)
