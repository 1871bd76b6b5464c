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
``twin``
    Every declared fast/reference twin
    (:func:`repro.pipeline.passes.twin_pairs`: the CSR structure
    kernels, SESE, the bitset dataflow kernels, the hierarchical
    region-summary solve, the sparse-engine clients and Cytron SSA)
    gives the same answer as its reference on the mutant, under the
    twin's declared equality -- one check per twin.
``structure``
    Per-mutator metamorphic invariants: region wrapping cannot *reduce*
    the canonical SESE region count; a dependence-legal reorder keeps
    the CFG shape and the cycle-equivalence partition size.
``determinism``
    DFG port-order determinism: building the dependence graph twice from
    fresh copies must serialize identically (the PR-1 contract the
    byte-deterministic payloads depend on).

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


def oracle_twin(base_graph, mutant_graph, context: Mapping) -> Verdict:
    """Each declared twin's fast side equals its reference on the mutant."""
    from repro.pipeline.passes import twin_pairs

    checks = 0
    for name, fast, reference, equal in twin_pairs(mutant_graph):
        checks += 1
        if not equal(fast(), reference()):
            return Verdict(
                "twin", False, checks,
                detail=f"{name}: fast kernel diverges from its reference twin",
            )
    return Verdict("twin", True, checks)


def _region_count(graph) -> int:
    return len(AnalysisManager(graph).get("sese").regions)


def _class_count(graph) -> int:
    return len(AnalysisManager(graph).get("sese").classes)


def oracle_structure(base_graph, mutant_graph, context: Mapping) -> Verdict:
    checks = 0
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
    "twin": oracle_twin,
    "structure": oracle_structure,
    "determinism": oracle_determinism,
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
