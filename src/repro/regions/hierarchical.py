"""Bottom-up/top-down hierarchical solving of bitset dataflow problems.

:func:`solve_hierarchical` is a drop-in twin of
:func:`repro.perf.bitset.solve_bitset`: same :class:`BitsetProblem` in,
same per-dense-edge fact masks out.  Instead of one flat fixpoint over
the whole graph it runs three phases over the region systems:

1. **Summarize** (bottom-up): each region system is solved in the
   *function domain* -- every computed edge gets a canonical
   ``(gen, kill)`` transfer pair expressing its fact as a function of
   the region's input fact, with already-summarized children entering
   as single super-equations.  The value at the region's own boundary
   is its summary.
2. **Root solve**: the virtual root system (plus the summaries of the
   top-level regions) is solved concretely -- the boundary mask is a
   known constant, so no function domain is needed.
3. **Evaluate** (top-down): once a region's input fact is known, every
   computed edge is one ``apply`` of its cached phase-1 function -- no
   second fixpoint -- and the children's input facts fall out.

Bitvector frameworks are distributive, so the summarized fixpoint
applied to the actual boundary equals the flat solver's (unique)
fixpoint: the differential suite asserts mask-level equality over the
whole corpus, and the ``region-summaries`` pass declares the flat solve
as its oracle, so the ``twin`` fuzz oracle re-checks it on every trial.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.perf.bitset import BitsetProblem
from repro.regions.systems import (
    CHAIN,
    CHILD_UNIT,
    INPUT,
    NODE_UNIT,
    RegionSystems,
    System,
    build_systems,
)
from repro.regions.transfer import (
    IDENTITY,
    apply,
    compose_gk,
    compose_kg,
    meet_intersect,
    meet_union,
)
from repro.util.counters import WorkCounter

if TYPE_CHECKING:
    from repro.perf.csr import CSRGraph


def node_masks(
    csr: "CSRGraph", problem: BitsetProblem
) -> tuple[dict[int, int], dict[int, int]]:
    """The problem's dense gen/kill arrays re-keyed by node id (systems
    reference nodes and edges by id, never by dense index)."""
    gen = {nid: problem.gen[v] for v, nid in enumerate(csr.node_ids)}
    kill = {nid: problem.kill[v] for v, nid in enumerate(csr.node_ids)}
    return gen, kill


def solve_system_functions(
    system: System,
    systems: list[System],
    problem: BitsetProblem,
    node_gen: dict[int, int],
    node_kill: dict[int, int],
    summaries: dict[int, tuple[int, int]],
    boundary_node: int,
    counter: WorkCounter | None = None,
) -> dict[int, tuple[int, int]]:
    """Chaotic iteration of one region system in the function domain.

    Returns ``{edge id: (gen, kill)}`` for every edge the system
    computes, as functions of the system's input fact.  ``summaries``
    maps already-solved child *system indices* to their boundary
    functions.  ``boundary_node`` is the problem's root node (start
    forward / end backward): its meet input is the constant boundary
    mask wherever it lives, mirroring the flat solver's replacement.
    """
    units = (system.fwd_units if problem.direction == "forward"
             else system.bwd_units)
    compose = compose_kg if problem.kill_then_gen else compose_gk
    fmeet = meet_union if problem.meet_is_union else meet_intersect
    boundary_fn = (problem.boundary_mask, ~problem.boundary_mask)
    init = (problem.initial_mask, ~problem.initial_mask)
    empty_fn = (0, ~0)

    values: dict[int, tuple[int, int]] = {}
    for unit in units:
        if unit[0] == NODE_UNIT:
            for out in unit[3]:
                values[out] = init
        else:
            values[unit[3]] = init

    evals = 0
    changed = True
    while changed:
        changed = False
        for unit in units:
            evals += 1
            if unit[0] == NODE_UNIT:
                _, nid, refs, outs = unit
                if nid == boundary_node:
                    combined = boundary_fn
                elif not refs:
                    combined = empty_fn
                else:
                    ref = refs[0]
                    combined = IDENTITY if ref == INPUT else values[ref]
                    for ref in refs[1:]:
                        other = IDENTITY if ref == INPUT else values[ref]
                        combined = fmeet(combined, other)
                out = compose(
                    combined[0], combined[1], node_gen[nid], node_kill[nid]
                )
                for eid in outs:
                    if values[eid] != out:
                        values[eid] = out
                        changed = True
            else:
                _, pos, ref, out_edge = unit
                inval = IDENTITY if ref == INPUT else values[ref]
                child_summary = summaries[system.children[pos]]
                out = compose_kg(inval[0], inval[1], *child_summary)
                if values[out_edge] != out:
                    values[out_edge] = out
                    changed = True
    if counter is not None:
        counter.tick("hier_unit_evals", evals)
    return values


def solve_system_concrete(
    system: System,
    systems: list[System],
    problem: BitsetProblem,
    node_gen: dict[int, int],
    node_kill: dict[int, int],
    summaries: dict[int, tuple[int, int]],
    boundary_node: int,
    counter: WorkCounter | None = None,
) -> dict[int, int]:
    """Chaotic iteration of the root system in the concrete domain
    (its input -- the boundary mask -- is known, so functions would be
    overhead).  Returns ``{edge id: fact mask}``."""
    units = (system.fwd_units if problem.direction == "forward"
             else system.bwd_units)
    union = problem.meet_is_union
    kill_then_gen = problem.kill_then_gen

    facts: dict[int, int] = {}
    for unit in units:
        if unit[0] == NODE_UNIT:
            for out in unit[3]:
                facts[out] = problem.initial_mask
        else:
            facts[unit[3]] = problem.initial_mask

    evals = 0
    changed = True
    while changed:
        changed = False
        for unit in units:
            evals += 1
            if unit[0] == NODE_UNIT:
                _, nid, refs, outs = unit
                if nid == boundary_node:
                    combined = problem.boundary_mask
                elif not refs:
                    combined = 0
                else:
                    combined = facts[refs[0]]
                    if union:
                        for ref in refs[1:]:
                            combined |= facts[ref]
                    else:
                        for ref in refs[1:]:
                            combined &= facts[ref]
                if kill_then_gen:
                    out = (combined & ~node_kill[nid]) | node_gen[nid]
                else:
                    out = (combined | node_gen[nid]) & ~node_kill[nid]
                for eid in outs:
                    if facts[eid] != out:
                        facts[eid] = out
                        changed = True
            else:
                _, pos, ref, out_edge = unit
                out = apply(summaries[system.children[pos]], facts[ref])
                if facts[out_edge] != out:
                    facts[out_edge] = out
                    changed = True
    if counter is not None:
        counter.tick("hier_unit_evals", evals)
    return facts


def solve_hierarchical(
    csr: "CSRGraph",
    regions: RegionSystems,
    problem: BitsetProblem,
    counter: WorkCounter | None = None,
) -> list[int]:
    """Solve ``problem`` over the region hierarchy; returns the fact
    mask per dense edge, byte-identical to
    :func:`repro.perf.bitset.solve_bitset` on the same snapshot."""
    csr.check()
    if len(problem.gen) != csr.n or len(problem.kill) != csr.n:
        from repro.robust.errors import AnalysisError

        raise AnalysisError(
            f"hierarchical problem arity mismatch: gen/kill cover "
            f"{len(problem.gen)}/{len(problem.kill)} nodes, snapshot has "
            f"{csr.n}",
            phase="solve-hierarchical",
        )
    forward = problem.direction == "forward"
    root_dense = csr.start if forward else csr.end
    if root_dense < 0:
        from repro.robust.errors import AnalysisError

        raise AnalysisError(
            "hierarchical solve on a snapshot with no "
            + ("start" if forward else "end") + " node",
            phase="solve-hierarchical",
        )
    boundary_node = csr.node_ids[root_dense]
    node_gen, node_kill = node_masks(csr, problem)
    systems = regions.systems

    # Phase 1: bottom-up summaries.
    summaries: dict[int, tuple[int, int]] = {}
    values: dict[int, dict[int, tuple[int, int]]] = {}
    for system in reversed(systems):
        if system.region is None:
            continue
        solved = solve_system_functions(
            system, systems, problem, node_gen, node_kill,
            summaries, boundary_node, counter,
        )
        values[system.index] = solved
        summaries[system.index] = solved[
            system.exit if forward else system.entry
        ]
        if counter is not None:
            counter.tick("hier_summaries")

    # Phase 2: concrete root solve.
    facts = solve_system_concrete(
        systems[0], systems, problem, node_gen, node_kill,
        summaries, boundary_node, counter,
    )

    # Phase 3: top-down evaluation -- one apply per edge, no fixpoint.
    stack = [
        (index, facts[systems[index].entry if forward
                      else systems[index].exit])
        for index in reversed(systems[0].children)
    ]
    while stack:
        index, inval = stack.pop()
        system = systems[index]
        for eid, fn in values[index].items():
            facts[eid] = apply(fn, inval)
        if counter is not None:
            counter.tick("hier_region_evals")
        for child in reversed(system.children):
            child_sys = systems[child]
            boundary = child_sys.entry if forward else child_sys.exit
            stack.append((child, facts[boundary]))

    out = [0] * csr.m
    edge_ids = csr.edge_ids
    for e in range(csr.m):
        out[e] = facts[edge_ids[e]]
    return out


def hierarchical_summaries(
    csr: "CSRGraph",
    regions: RegionSystems,
    problem: BitsetProblem,
    counter: WorkCounter | None = None,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Phase 1 alone: ``{(entry, exit): (gen, kill)}`` region summaries.

    Synthetic chain systems are skipped: they are re-associations of
    the root solve, not regions, and a real region's summary never
    depends on one -- so the key set is exactly the active regions.
    """
    forward = problem.direction == "forward"
    root_dense = csr.start if forward else csr.end
    boundary_node = csr.node_ids[root_dense]
    node_gen, node_kill = node_masks(csr, problem)
    systems = regions.systems
    summaries: dict[int, tuple[int, int]] = {}
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for system in reversed(systems):
        if system.region is None or system.region is CHAIN:
            continue
        solved = solve_system_functions(
            system, systems, problem, node_gen, node_kill,
            summaries, boundary_node, counter,
        )
        summaries[system.index] = solved[
            system.exit if forward else system.entry
        ]
        out[system.key] = summaries[system.index]
    return out


def core_problems(
    graph, csr: "CSRGraph | None" = None
) -> dict[str, BitsetProblem]:
    """The four core analyses compiled as :class:`BitsetProblem`\\ s over
    one shared CSR snapshot, ``{name: problem}`` -- the common input for
    running :func:`repro.perf.bitset.solve_bitset` and
    :func:`solve_hierarchical` side by side (the ``region-summaries``
    pass and its flat-bitset oracle, differential tests)."""
    from repro.dataflow.bitsets import (
        expression_problem,
        expression_space,
        liveness_problem,
        reaching_problem,
    )

    if csr is None:
        from repro.perf.csr import build_csr

        csr = build_csr(graph)
    space = expression_space(graph, csr)
    available, _ = expression_problem(graph, csr, "forward", True, space)
    anticipatable, _ = expression_problem(graph, csr, "backward", True, space)
    liveness, _ = liveness_problem(graph, csr)
    reaching, _ = reaching_problem(graph, csr)
    return {
        "available": available,
        "anticipatable": anticipatable,
        "liveness": liveness,
        "reaching": reaching,
    }


def build_region_systems(graph, structure=None, counter=None) -> RegionSystems:
    """Convenience: systems for ``graph`` (building the structure too
    when the caller does not hold one)."""
    if structure is None:
        from repro.controldep.sese import ProgramStructure

        structure = ProgramStructure(graph, counter=counter)
    return build_systems(graph, structure, counter)
