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
         │       └─ available / pavailable
         ├─ defuse ── constprop-defuse
         └─ constprop-cfg

The ``csr`` pass snapshots the CFG into flat arrays
(:class:`repro.perf.csr.CSRGraph`); the graph-structure passes and the
bitset dataflow passes all run on it, so the snapshot -- and everything
memoized on it, such as each direction's reverse postorder -- is built
once per CFG shape version and shared.

Shape-only passes (``uses_exprs=False``) read the graph's nodes, edges
and assignment targets but never an expression: dominance, cycle
equivalence, SESE structure and the CDG all survive copy propagation and
constant folding of right-hand sides.  Everything that reads operands --
the DFG, def-use chains, liveness, reaching definitions, and all four
constant propagators -- recomputes after an expression rewrite.

Pass bodies receive ``(graph, deps, counter)`` and must be pure
functions of the graph and their declared dependencies: the manager
caches results on that assumption.

Each fast kernel is declared here once with its reference twin: a pass
carries it as ``oracle=`` (with ``equal=`` where its result type lacks
value equality), and the kernels no pass returns -- node dominators,
anticipatability, Cytron SSA -- sit in :data:`KERNEL_TWINS`.
:func:`twin_pairs` binds both kinds to one graph; the degradation
policy, the chaos harness, the fuzzer, the batch agreement flags and
the equivalence tests all derive from these declarations.  Every body --
pass, reference or kernel twin -- imports its kernel when it runs, so
declaring the registry loads no analysis module and a process imports
the kernels of the passes it resolves.
"""

from __future__ import annotations

import operator
from functools import partial
from importlib import import_module
from typing import Callable

from repro.pipeline.manager import (
    AnalysisManager,
    BuildFn,
    EqualFn,
    PassRegistry,
)

_REGISTRY = PassRegistry()


def default_registry() -> PassRegistry:
    """The shared registry of standard passes (do not mutate)."""
    return _REGISTRY


# -- twin declarations: references and result comparators ---------------------


def _lazy(target: str, counter: bool = True, **kwargs) -> BuildFn:
    """A pass body calling ``module:function`` on the graph (with the
    work counter unless ``counter=False``).  The function is looked up on
    every call: importing stays lazy, and a test can monkeypatch it."""
    module, _, name = target.partition(":")

    def body(graph, deps, work):
        fn = getattr(import_module(module), name)
        if counter:
            return fn(graph, counter=work, **kwargs)
        return fn(graph, **kwargs)

    body.__name__ = body.__qualname__ = name
    return body


def _dfs_reference(graph, deps, counter):
    from repro.graphs.dfs import depth_first_search

    return depth_first_search([graph.start], graph.succs)


def _sese_reference(graph, deps, counter):
    """The program structure rebuilt from the reference substrates."""
    from repro.controldep.cycle_equiv import cycle_equivalence_reference
    from repro.controldep.sese import ProgramStructure
    from repro.graphs.dominance import (
        edge_dominators_reference,
        edge_postdominators_reference,
    )

    return ProgramStructure(
        graph,
        dom=edge_dominators_reference(graph),
        pdom=edge_postdominators_reference(graph),
        edge_class=cycle_equivalence_reference(graph),
        counter=counter,
    )


def _region_summaries_reference(graph, deps, counter):
    """The same four problems over the same CSR, solved by the flat
    bitset fixpoint (no region tree involved)."""
    from repro.perf.bitset import solve_bitset
    from repro.perf.csr import build_csr
    from repro.regions.hierarchical import core_problems

    csr = build_csr(graph)
    problems = core_problems(graph, csr)
    out = {}
    for name, problem in sorted(problems.items()):
        masks = solve_bitset(csr, problem)
        out[name] = {csr.edge_ids[e]: masks[e] for e in range(csr.m)}
    return out


def _node_dom_reference(graph, deps, counter):
    from repro.graphs.dominance import dominator_tree

    return dominator_tree(graph.start, graph.succs, graph.preds)


def _node_pdom_reference(graph, deps, counter):
    from repro.graphs.dominance import dominator_tree

    return dominator_tree(graph.end, graph.preds, graph.succs)


def same_tree(a, b) -> bool:
    """Dominator trees: same root, same immediate dominators."""
    return a.root == b.root and a.idom == b.idom


def same_structure(a, b) -> bool:
    """Program structures: same canonical regions, same node -> region map."""
    if sorted((r.entry, r.exit) for r in a.regions) != sorted(
        (r.entry, r.exit) for r in b.regions
    ):
        return False
    for nid in a.graph.nodes:
        ra, rb = a.region_of_node.get(nid), b.region_of_node.get(nid)
        if (ra and (ra.entry, ra.exit)) != (rb and (rb.entry, rb.exit)):
            return False
    return True


def same_csr(a, b) -> bool:
    """CSR snapshots: same enumeration, adjacency and start/end."""
    return (
        a.node_ids == b.node_ids
        and a.edge_ids == b.edge_ids
        and a.succ_off == b.succ_off
        and a.succ_node == b.succ_node
        and a.succ_edge == b.succ_edge
        and a.pred_off == b.pred_off
        and a.pred_node == b.pred_node
        and a.pred_edge == b.pred_edge
        and (a.start, a.end) == (b.start, b.end)
    )


def same_chains(a, b) -> bool:
    """Def-use chains: the same chain *set* (the sparse projection sorts
    its chains; the dense reference keeps reaching-set order)."""
    def chain_set(result):
        return {(c.var, c.def_node, c.use_node) for c in result.chains}

    return chain_set(a) == chain_set(b)


def same_facts(a, b) -> bool:
    """Results exposing a canonical ``facts()`` surface (sparse range and
    taint, NTSCD) are the same answer iff it matches."""
    return a.facts() == b.facts()


def same_ssa(a, b) -> bool:
    """SSA overlays: names at every def/use/entry site plus each phi's
    result and per-edge arguments."""
    def snapshot(ssa):
        return (
            sorted(ssa.def_names.items()),
            sorted(ssa.use_names.items()),
            sorted(ssa.entry_names.items()),
            sorted(
                (nid, var, phi.result, tuple(sorted(phi.args.items())))
                for nid, by_var in ssa.phis.items()
                for var, phi in by_var.items()
            ),
        )

    return snapshot(a) == snapshot(b)


def same_regions(a, b) -> bool:
    """Region-system assemblies: every system has the same boundary,
    ownership, hierarchy and units."""
    if len(a.systems) != len(b.systems):
        return False
    return all(
        sa.key == sb.key
        and sa.parent == sb.parent
        and sa.nodes == sb.nodes
        and sa.children == sb.children
        and sa.fwd_units == sb.fwd_units
        and sa.bwd_units == sb.bwd_units
        for sa, sb in zip(a.systems, b.systems)
    )


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
    equal=same_csr,
)
def _csr(graph, deps, counter):
    from repro.perf.csr import build_csr

    result = build_csr(graph)
    counter.tick("csr_entries", result.n + result.m)
    return result


@_REGISTRY.register(
    "dfs", deps=("cfg", "csr"), uses_exprs=False,
    description="depth-first numbering and edge classification",
    oracle=_dfs_reference,
)
def _dfs(graph, deps, counter):
    from repro.graphs.dfs import depth_first_search_csr

    result = depth_first_search_csr(deps["csr"])
    counter.tick("dfs_nodes_numbered", len(result.pre_number))
    return result


@_REGISTRY.register(
    "dom", deps=("cfg", "csr"), uses_exprs=False,
    description="edge dominator tree (split graph)",
    oracle=_lazy(
        "repro.graphs.dominance:edge_dominators_reference", counter=False
    ),
    equal=same_tree,
)
def _dom(graph, deps, counter):
    from repro.graphs.dominance import edge_dominators

    result = edge_dominators(graph, csr=deps["csr"])
    counter.tick("dom_tree_entries", len(result.idom))
    return result


@_REGISTRY.register(
    "pdom", deps=("cfg", "csr"), uses_exprs=False,
    description="edge postdominator tree (split graph)",
    oracle=_lazy(
        "repro.graphs.dominance:edge_postdominators_reference", counter=False
    ),
    equal=same_tree,
)
def _pdom(graph, deps, counter):
    from repro.graphs.dominance import edge_postdominators

    result = edge_postdominators(graph, csr=deps["csr"])
    counter.tick("pdom_tree_entries", len(result.idom))
    return result


@_REGISTRY.register(
    "cycle-equiv", deps=("cfg", "csr"), uses_exprs=False,
    description="O(E) cycle-equivalence classes of CFG edges",
    oracle=_lazy("repro.controldep.cycle_equiv:cycle_equivalence_reference"),
)
def _cycle_equiv(graph, deps, counter):
    from repro.controldep.cycle_equiv import cycle_equivalence

    return cycle_equivalence(graph, counter, csr=deps["csr"])


@_REGISTRY.register(
    "sese", deps=("cfg", "dom", "pdom", "cycle-equiv"), uses_exprs=False,
    description="canonical SESE regions and the program structure tree",
    oracle=_sese_reference,
    equal=same_structure,
)
def _sese(graph, deps, counter):
    from repro.controldep.sese import ProgramStructure

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
    equal=same_regions,
)
def _regions(graph, deps, counter):
    from repro.regions.systems import build_systems

    return build_systems(graph, deps["sese"], counter)


@_REGISTRY.register(
    "region-summaries", deps=("cfg", "csr", "sese", "regions"),
    description="hierarchical region-summary solve of the four core "
                "analyses (decoded per-edge facts)",
    oracle=_region_summaries_reference,
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
    from repro.controldep.cdg import control_dependence_items

    return control_dependence_items(graph, pdom=deps["pdom"], counter=counter)


@_REGISTRY.register(
    "dfg", deps=("cfg", "sese"),
    description="dependence flow graph (demand-driven, region bypassing)",
)
def _dfg(graph, deps, counter):
    from repro.core.build import build_dfg

    return build_dfg(graph, structure=deps["sese"], counter=counter)


@_REGISTRY.register(
    "defuse", deps=("cfg",),
    description="def-use chains from reaching definitions",
    oracle=_lazy("repro.defuse.chains:build_def_use_chains_reference"),
    equal=same_chains,
)
def _defuse(graph, deps, counter):
    from repro.defuse.chains import build_def_use_chains

    return build_def_use_chains(graph, counter)


@_REGISTRY.register(
    "liveness", deps=("cfg", "csr"), description="live variables per edge",
    oracle=_lazy("repro.dataflow.liveness:live_variables_reference"),
)
def _liveness(graph, deps, counter):
    from repro.dataflow.liveness import live_variables

    return live_variables(graph, counter=counter, csr=deps["csr"])


@_REGISTRY.register(
    "reaching", deps=("cfg", "csr"),
    description="reaching definitions per edge",
    oracle=_lazy("repro.dataflow.reaching:reaching_definitions_reference"),
)
def _reaching(graph, deps, counter):
    from repro.dataflow.reaching import reaching_definitions

    return reaching_definitions(graph, counter, csr=deps["csr"])


@_REGISTRY.register(
    "available", deps=("cfg", "csr"),
    description="available expressions per edge (EPR safety substrate)",
    oracle=_lazy("repro.dataflow.available:available_expressions_reference"),
)
def _available(graph, deps, counter):
    from repro.dataflow.available import available_expressions

    return available_expressions(graph, counter, csr=deps["csr"])


@_REGISTRY.register(
    "pavailable", deps=("cfg", "csr"),
    description="partially available expressions per edge (EPR profitability)",
    oracle=_lazy(
        "repro.dataflow.available:partially_available_expressions_reference"
    ),
)
def _pavailable(graph, deps, counter):
    from repro.dataflow.available import partially_available_expressions

    return partially_available_expressions(graph, counter, csr=deps["csr"])


@_REGISTRY.register(
    "ssa", deps=("dfg",),
    description="pruned SSA derived from the DFG (no dominance frontier)",
)
def _ssa(graph, deps, counter):
    from repro.ssa.from_dfg import build_ssa_from_dfg

    return build_ssa_from_dfg(graph, dfg=deps["dfg"], counter=counter)


@_REGISTRY.register(
    "constprop", deps=("dfg",),
    description="DFG constant propagation (Section 4, possible-paths)",
)
def _constprop(graph, deps, counter):
    from repro.core.constprop import dfg_constant_propagation

    return dfg_constant_propagation(graph, dfg=deps["dfg"], counter=counter)


@_REGISTRY.register(
    "constprop-cfg", deps=("cfg",),
    description="Kildall vector constant propagation (Figure 4a baseline)",
)
def _constprop_cfg(graph, deps, counter):
    from repro.opt.cfg_constprop import cfg_constant_propagation

    return cfg_constant_propagation(graph, counter)


@_REGISTRY.register(
    "constprop-defuse", deps=("defuse",),
    description="def-use chain constant propagation (all-paths baseline)",
)
def _constprop_defuse(graph, deps, counter):
    from repro.defuse.constprop import defuse_constant_propagation

    return defuse_constant_propagation(graph, chains=deps["defuse"], counter=counter)


@_REGISTRY.register(
    "sccp", deps=("ssa",),
    description="sparse conditional constant propagation over SSA",
)
def _sccp(graph, deps, counter):
    from repro.ssa.sccp import sparse_conditional_constant_propagation

    return sparse_conditional_constant_propagation(deps["ssa"], counter=counter)


@_REGISTRY.register(
    "ntscd", deps=("cfg",), uses_exprs=False,
    description="non-termination-sensitive strong control dependence "
                "(Chalupa et al.)",
    oracle=_lazy("repro.controldep.ntscd:ntscd_reference"),
    equal=same_facts,
)
def _ntscd(graph, deps, counter):
    from repro.controldep.ntscd import ntscd

    return ntscd(graph, counter)


@_REGISTRY.register(
    "sparse-range", deps=("cfg",),
    description="sparse interval range analysis with branch refinement "
                "(live-range-splitting engine)",
    oracle=_lazy("repro.sparse.range_analysis:range_analysis_reference"),
    equal=same_facts,
)
def _sparse_range(graph, deps, counter):
    from repro.sparse.range_analysis import range_analysis

    return range_analysis(graph, counter)


@_REGISTRY.register(
    "sparse-taint", deps=("cfg",),
    description="sparse forward taint tracking (entry values to "
                "prints/stores)",
    oracle=_lazy("repro.sparse.taint:taint_analysis_reference"),
    equal=same_facts,
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


#: Kernel twins whose results no registered pass returns, as
#: ``(name, fast, reference, equal)`` with pass-body sides.
KERNEL_TWINS: tuple[tuple[str, BuildFn, BuildFn, EqualFn], ...] = (
    ("node-dom",
     _lazy("repro.graphs.dominance:cfg_dominators", counter=False),
     _node_dom_reference, same_tree),
    ("node-pdom",
     _lazy("repro.graphs.dominance:cfg_postdominators", counter=False),
     _node_pdom_reference, same_tree),
    ("anticipatable",
     _lazy("repro.dataflow.anticipatable:anticipatable_expressions"),
     _lazy("repro.dataflow.anticipatable:anticipatable_expressions_reference"),
     operator.eq),
    ("panticipatable",
     _lazy("repro.dataflow.anticipatable:"
           "partially_anticipatable_expressions"),
     _lazy("repro.dataflow.anticipatable:"
           "partially_anticipatable_expressions_reference"),
     operator.eq),
    ("ssa-cytron",
     _lazy("repro.ssa.cytron:build_ssa_cytron"),
     _lazy("repro.ssa.cytron:build_ssa_cytron_reference"),
     same_ssa),
    ("ssa-cytron-pruned",
     _lazy("repro.ssa.cytron:build_ssa_cytron", pruned=True),
     _lazy("repro.ssa.cytron:build_ssa_cytron_reference", pruned=True),
     same_ssa),
)

#: One declared twin bound to a graph: ``fast()`` and ``reference()``
#: compute the two sides, ``equal`` compares them.
TwinPair = tuple[str, Callable[[], object], Callable[[], object], EqualFn]


def twin_pairs(graph) -> list[TwinPair]:
    """Every declared twin bound to ``graph``, pass twins first (in
    registry order), then :data:`KERNEL_TWINS`.

    A pass twin's fast side resolves through one shared manager, as the
    pipeline would run it.  Reference sides and kernel twins run with no
    dependencies and no work counter; nothing runs until called.
    """
    manager = AnalysisManager(graph)
    pairs: list[TwinPair] = [
        (spec.name, partial(manager.get, spec.name),
         partial(spec.oracle, graph, {}, None), spec.equal)
        for spec in _REGISTRY
        if spec.oracle is not None
    ]
    pairs += [
        (name, partial(fast, graph, {}, None),
         partial(reference, graph, {}, None), equal)
        for name, fast, reference, equal in KERNEL_TWINS
    ]
    return pairs
