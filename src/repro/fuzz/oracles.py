"""Theorem-derived equivalence oracles for the fuzzer.

Each oracle holds a mutant graph to an equivalence the paper (or a PR's
acceptance contract) guarantees:

``io``
    Interpreter I/O equivalence between base and mutant on seeded probe
    environments -- the detector for semantics-changing miscompiles.
    Matching trap *types* (step limit, value limit, division by zero)
    count as agreement; the paper's transformations preserve behaviour,
    not termination proofs.
``constprop``
    The Section 4 result: wherever two of the four constant propagation
    engines (DFG, CFG vector, SCCP-on-SSA, def-use-chain baseline) both
    classify a use constant, the values agree -- and the all-paths
    baseline never beats a possible-paths engine outside proven-dead
    nodes.
``dataflow``
    The PR-2 contract: the six bitset dataflow kernels produce results
    identical to the reference solvers on the mutant.
``structure``
    Reference-vs-CSR agreement for DFS/dominators/cycle equivalence,
    plus per-mutator metamorphic invariants: region wrapping cannot
    *reduce* the canonical SESE region count; a dependence-legal reorder
    keeps the CFG shape and the cycle-equivalence partition size.
``determinism``
    DFG port-order determinism: building the dependence graph twice from
    fresh copies must serialize identically (the PR-1 contract the
    byte-deterministic payloads depend on).
``hierarchical-vs-flat``
    The PR-6 contract: solving the four core analyses bottom-up/top-down
    over the region-summary hierarchy yields fact masks identical to the
    flat bitset fixpoint on the mutant (distributivity of bitvector
    frameworks over the closure-verified system construction).
``sparse-vs-dense``
    The PR-9 contract: every client of the parameterized sparse engine
    (def-use chains, SSA construction, interval ranges, taint, NTSCD)
    agrees with its dense reference twin on the mutant -- chain sets
    equal, SSA overlays identical field by field, and the range/taint/
    control-dependence fact surfaces byte-equal.
``bytes-roundtrip``
    The PR-7 contract: lowering the mutant into an arena corpus,
    serializing it, deserializing and running the fused arena sweep must
    equal the direct object-graph pipeline on all five analyses -- the
    wire format the pool workers consume loses nothing.

Oracles never raise on a *divergence* -- they return a failing
:class:`Verdict` with enough detail to fingerprint.  An oracle that
raises has found a crash, which the harness records as its own
divergence class.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.cfg.interp import run_cfg
from repro.core.dfg import CTRL_VAR
from repro.pipeline.manager import AnalysisManager

#: Interpreter budget per probe run; generated programs are fuel-bounded
#: well under this.
DEFAULT_MAX_STEPS = 50_000
#: Assigned-value magnitude cap: loop-nested squaring can build numbers
#: whose mere representation dwarfs the analysis under test.
DEFAULT_VALUE_LIMIT = 10 ** 12


@dataclass
class Verdict:
    oracle: str
    ok: bool
    checks: int
    detail: str = ""


def _run_outputs(graph, env, max_steps, value_limit):
    """``("ok", outputs)`` or ``("trap", exception type name)``."""
    try:
        result = run_cfg(
            graph, env, max_steps=max_steps, value_limit=value_limit
        )
        return ("ok", tuple(result.outputs))
    except Exception as exc:
        return ("trap", type(exc).__name__)


def oracle_io(base_graph, mutant_graph, context: Mapping) -> Verdict:
    """Outputs must match on every probe environment.

    The optimizer may legitimately *remove* trapping work (DCE deletes a
    dead assignment that would have tripped the value limit), so for the
    round-trip mutator a trap on the base side makes that environment
    inconclusive rather than a divergence.
    """
    max_steps = context.get("max_steps", DEFAULT_MAX_STEPS)
    value_limit = context.get("value_limit", DEFAULT_VALUE_LIMIT)
    trap_tolerant = context.get("mutator") == "opt-roundtrip"
    checks = 0
    for env in context["envs"]:
        before = _run_outputs(base_graph, env, max_steps, value_limit)
        after = _run_outputs(mutant_graph, env, max_steps, value_limit)
        if trap_tolerant and before[0] == "trap":
            continue
        checks += 1
        if before != after:
            return Verdict(
                "io", False, checks,
                detail=f"env={sorted(env.items())} base={before} "
                       f"mutant={after}",
            )
    return Verdict("io", True, checks)


def _engine_constants(graph):
    """Per-engine ``{(node, var): value}`` plus proven-dead node sets,
    control-variable keys filtered (mirrors the tier-1 differential
    suite)."""
    manager = AnalysisManager(graph)
    dfg_result = manager.get("constprop")
    cfg_result = manager.get("constprop-cfg")
    found = {
        "dfg": dfg_result.constant_uses(),
        "cfg": cfg_result.constant_uses(),
        "defuse": manager.get("constprop-defuse").constant_uses(),
    }
    ssa = manager.get("ssa")
    sccp = manager.get("sccp")
    found["sccp"] = {
        key: value
        for key in ssa.use_names
        if isinstance(value := sccp.value_of_use(ssa, *key), int)
    }
    dead = {
        "dfg": set(dfg_result.dead_nodes),
        "cfg": set(cfg_result.dead_nodes),
    }
    return {
        name: {k: v for k, v in result.items() if k[1] != CTRL_VAR}
        for name, result in found.items()
    }, dead


def oracle_constprop(base_graph, mutant_graph, context: Mapping) -> Verdict:
    by_engine, dead = _engine_constants(mutant_graph)
    checks = 0
    names = sorted(by_engine)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for key in sorted(by_engine[a].keys() & by_engine[b].keys()):
                checks += 1
                if by_engine[a][key] != by_engine[b][key]:
                    return Verdict(
                        "constprop", False, checks,
                        detail=f"{a}={by_engine[a][key]} vs "
                               f"{b}={by_engine[b][key]} at {key}",
                    )
    for name in ("dfg", "cfg"):
        for key, value in sorted(by_engine["defuse"].items()):
            if key[0] in dead[name]:
                continue
            checks += 1
            if by_engine[name].get(key) != value:
                return Verdict(
                    "constprop", False, checks,
                    detail=f"all-paths constant {key}={value} missed by "
                           f"{name} ({by_engine[name].get(key)})",
                )
    return Verdict("constprop", True, checks)


def oracle_dataflow(base_graph, mutant_graph, context: Mapping) -> Verdict:
    from repro.perf.batch import (
        _dataflow_fast,
        _dataflow_legacy,
        _results_identical,
    )

    legacy = _dataflow_legacy(mutant_graph)
    fast = _dataflow_fast(mutant_graph)
    mismatched = sorted(
        key for key in legacy if legacy[key] != fast[key]
    )
    if not _results_identical(legacy, fast):
        return Verdict(
            "dataflow", False, len(legacy),
            detail=f"bitset kernels diverge from reference on "
                   f"{mismatched or sorted(legacy)}",
        )
    return Verdict("dataflow", True, len(legacy))


def _region_count(graph) -> int:
    return len(AnalysisManager(graph).get("sese").regions)


def _class_count(graph) -> int:
    return len(AnalysisManager(graph).get("sese").classes)


def oracle_structure(base_graph, mutant_graph, context: Mapping) -> Verdict:
    from repro.perf.batch import (
        _results_identical,
        _structure_fast,
        _structure_legacy,
    )

    legacy = _structure_legacy(mutant_graph)
    fast = _structure_fast(mutant_graph)
    checks = len(legacy)
    if not _results_identical(legacy, fast):
        mismatched = sorted(
            key for key in legacy
            if key in ("dfs", "cycle-equiv") and legacy[key] != fast[key]
        )
        return Verdict(
            "structure", False, checks,
            detail=f"CSR kernels diverge from reference on "
                   f"{mismatched or 'dominators'}",
        )
    for expectation in context.get("expectations", ()):
        checks += 1
        if expectation == "regions_nondecrease":
            before, after = _region_count(base_graph), _region_count(mutant_graph)
            if after < before:
                return Verdict(
                    "structure", False, checks,
                    detail=f"region extraction shrank the canonical SESE "
                           f"region count {before} -> {after}",
                )
        elif expectation == "same_shape":
            same = (
                base_graph.num_nodes == mutant_graph.num_nodes
                and base_graph.num_edges == mutant_graph.num_edges
                and _class_count(base_graph) == _class_count(mutant_graph)
            )
            if not same:
                return Verdict(
                    "structure", False, checks,
                    detail="dependence-legal reorder changed the CFG shape "
                           f"({base_graph.num_nodes}n/{base_graph.num_edges}e"
                           f" -> {mutant_graph.num_nodes}n/"
                           f"{mutant_graph.num_edges}e)",
                )
    return Verdict("structure", True, checks)


def oracle_hierarchical_vs_flat(
    base_graph, mutant_graph, context: Mapping
) -> Verdict:
    """The PR-6 contract: the hierarchical region-summary solve of the
    four core analyses is mask-identical to the flat bitset solve on the
    mutant.  Bitvector frameworks are distributive, so a summarized
    fixpoint applied to the real boundary must equal the flat fixpoint
    (paper Theorem 1 + the closure-verified system construction)."""
    from repro.perf.bitset import solve_bitset
    from repro.perf.csr import build_csr
    from repro.regions.hierarchical import (
        build_region_systems,
        core_problems,
        solve_hierarchical,
    )

    csr = build_csr(mutant_graph)
    regions = build_region_systems(mutant_graph)
    problems = core_problems(mutant_graph, csr)
    checks = 0
    for name in sorted(problems):
        flat = solve_bitset(csr, problems[name])
        hier = solve_hierarchical(csr, regions, problems[name])
        checks += 1
        if flat != hier:
            bad = [
                csr.edge_ids[e] for e in range(csr.m) if flat[e] != hier[e]
            ]
            return Verdict(
                "hierarchical-vs-flat", False, checks,
                detail=f"{name}: hierarchical solve diverges from flat "
                       f"bitset solve on edges {bad[:8]} "
                       f"({regions.dissolved} dissolved regions)",
            )
    return Verdict("hierarchical-vs-flat", True, checks)


def oracle_bytes_roundtrip(
    base_graph, mutant_graph, context: Mapping
) -> Verdict:
    """The PR-7 contract: lower -> serialize -> deserialize -> fused
    arena solve equals the direct object-graph pipeline on the mutant
    for all five analyses the sweep fuses."""
    from repro.arena import ArenaCorpus, ExpressionPool, analyze_corpus
    from repro.dataflow.bitsets import core_dataflow

    direct = core_dataflow(mutant_graph)
    corpus = ArenaCorpus(ExpressionPool())
    corpus.add(mutant_graph, label="mutant")
    decoded = ArenaCorpus.from_bytes(corpus.to_bytes())
    results = analyze_corpus(decoded)["mutant"]
    checks = 0
    for name in sorted(direct):
        checks += 1
        if results[name] != direct[name]:
            return Verdict(
                "bytes-roundtrip", False, checks,
                detail=f"{name}: arena byte roundtrip diverges from the "
                       f"object-graph pipeline",
            )
    return Verdict("bytes-roundtrip", True, checks)


def _ssa_snapshot(ssa):
    """The full comparison surface of an SSA overlay: names at every
    def/use/entry site plus each phi's result and per-edge arguments."""
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


def oracle_sparse_vs_dense(
    base_graph, mutant_graph, context: Mapping
) -> Verdict:
    """The PR-9 contract: sparse-engine clients equal their dense
    reference twins on the mutant."""
    from repro.controldep.ntscd import ntscd, ntscd_reference
    from repro.defuse.chains import (
        build_def_use_chains,
        build_def_use_chains_reference,
    )
    from repro.sparse.range_analysis import (
        range_analysis,
        range_analysis_reference,
    )
    from repro.sparse.taint import taint_analysis, taint_analysis_reference
    from repro.ssa.cytron import build_ssa_cytron, build_ssa_cytron_reference

    def chain_set(chains):
        return {(c.var, c.def_node, c.use_node) for c in chains.chains}

    pairs = {
        "chains": lambda g: chain_set(build_def_use_chains(g)),
        "chains-ref": lambda g: chain_set(build_def_use_chains_reference(g)),
        "ssa": lambda g: _ssa_snapshot(build_ssa_cytron(g)),
        "ssa-ref": lambda g: _ssa_snapshot(build_ssa_cytron_reference(g)),
        "ssa-pruned": lambda g: _ssa_snapshot(
            build_ssa_cytron(g, pruned=True)
        ),
        "ssa-pruned-ref": lambda g: _ssa_snapshot(
            build_ssa_cytron_reference(g, pruned=True)
        ),
        "range": lambda g: range_analysis(g).facts(),
        "range-ref": lambda g: range_analysis_reference(g).facts(),
        "taint": lambda g: taint_analysis(g).facts(),
        "taint-ref": lambda g: taint_analysis_reference(g).facts(),
        "ntscd": lambda g: ntscd(g).facts(),
        "ntscd-ref": lambda g: ntscd_reference(g).facts(),
    }
    checks = 0
    for client in ("chains", "ssa", "ssa-pruned", "range", "taint", "ntscd"):
        fast = pairs[client](mutant_graph)
        dense = pairs[f"{client}-ref"](mutant_graph)
        checks += 1
        if fast != dense:
            return Verdict(
                "sparse-vs-dense", False, checks,
                detail=f"{client}: sparse client diverges from its dense "
                       f"reference twin",
            )
    return Verdict("sparse-vs-dense", True, checks)


def dfg_digest(graph) -> str:
    """A stable digest of the DFG's ports, port order and head order."""
    manager = AnalysisManager(graph)
    dfg = manager.get("dfg")
    parts = []
    for port in dfg.ports():
        parts.append(repr(port))
        parts.extend(repr(head) for head in dfg.heads_of(port))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def oracle_determinism(base_graph, mutant_graph, context: Mapping) -> Verdict:
    """Two fresh DFG builds over copies of the mutant must serialize
    identically -- the port-order determinism contract."""
    first = dfg_digest(mutant_graph.copy())
    second = dfg_digest(mutant_graph.copy())
    if first != second:
        return Verdict(
            "determinism", False, 1,
            detail=f"DFG builds differ: {first} vs {second}",
        )
    return Verdict("determinism", True, 1)


#: The oracle registry, in check order.  ``io`` needs an executable
#: base program; the harness skips it (and only it) for the goto-soup
#: family, whose programs may loop forever by design.
ORACLES: dict[str, Callable] = {
    "io": oracle_io,
    "constprop": oracle_constprop,
    "dataflow": oracle_dataflow,
    "structure": oracle_structure,
    "determinism": oracle_determinism,
    "hierarchical-vs-flat": oracle_hierarchical_vs_flat,
    "bytes-roundtrip": oracle_bytes_roundtrip,
    "sparse-vs-dense": oracle_sparse_vs_dense,
}

#: Oracles that execute the program.
EXECUTION_ORACLES = frozenset(("io",))


def run_oracles(
    base_graph, mutant_graph, context: Mapping
) -> list[Verdict]:
    """Run every applicable oracle; a raising oracle becomes a failing
    ``crash`` verdict rather than taking down the trial."""
    verdicts: list[Verdict] = []
    for name, oracle in ORACLES.items():
        if name in EXECUTION_ORACLES and not context.get("executable", True):
            continue
        try:
            verdicts.append(oracle(base_graph, mutant_graph, context))
        except Exception as exc:
            verdicts.append(
                Verdict(
                    name, False, 1,
                    detail=f"oracle crashed: {type(exc).__name__}: {exc}",
                )
            )
    return verdicts
