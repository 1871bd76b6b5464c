"""Non-termination-sensitive control dependence (NTSCD).

Chalupa et al., "Fast Computation of Strong Control Dependencies"
(arXiv:2011.01564), following Ranganath et al.'s definition: a node
``n`` is NTSCD-dependent on a branch ``p`` iff some successor of ``p``
lies on *only* maximal paths that reach ``n`` while another successor
has a maximal path avoiding ``n``.  Unlike the classic postdominance
CDG, maximal paths may be infinite: a statement after ``while (p) ...``
*is* NTSCD-dependent on the loop predicate, because looping forever is
a maximal path that avoids it.  Our ``goto`` frontend produces exactly
the irreducible and non-terminating CFGs where this differs from weak
control dependence, which is why the reproduction carries it.

Algorithm (the per-target formulation): for target ``n``, the set
``A(n)`` of nodes *all of whose maximal paths reach* ``n`` is the least
fixpoint of

    ``A = {n} ∪ { m | m has at least one successor, all in A }``

computed backward in O(E) with a counter of not-yet-captured successor
edges per node.  ``p`` with >= 2 out-edges then depends ``n`` on ``p``
iff some successor is in ``A(n)`` and some is not.  Total O(V * E),
fine at corpus scale and independent of any dominance machinery -- so
it doubles as its own oracle: :func:`ntscd_reference` recomputes
``A(n)`` from first principles (a maximal path avoids ``n`` iff it can
stay in ``G - n`` forever or end at a sink of ``G - n``).

This is a *shape-only* analysis (``uses_exprs=False``): it reads nodes
and edges, never an expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.graph import CFG
from repro.util.counters import WorkCounter


@dataclass
class NTSCDResult:
    """``deps[n]`` is the set of branch nodes ``n`` NTSCD-depends on."""

    graph: CFG
    deps: dict[int, frozenset[int]] = field(default_factory=dict)

    def controls(self, p: int) -> frozenset[int]:
        """The nodes NTSCD-dependent on branch ``p``."""
        return frozenset(
            n for n, ps in self.deps.items() if p in ps
        )

    def facts(self):
        return tuple(sorted((n, tuple(sorted(ps)))
                            for n, ps in self.deps.items() if ps))


def _all_paths_reach(graph: CFG, target: int) -> set[int]:
    """Nodes all of whose maximal paths (including infinite ones) visit
    ``target``: backward least fixpoint with per-node edge counters."""
    remaining = {
        nid: len(graph.out_edges(nid)) for nid in graph.nodes
    }
    captured = {target}
    work = [target]
    while work:
        nid = work.pop()
        for edge in graph.in_edges(nid):
            pred = edge.src
            if pred in captured:
                continue
            remaining[pred] -= 1
            if remaining[pred] == 0:
                captured.add(pred)
                work.append(pred)
    return captured


def ntscd(graph: CFG, counter: WorkCounter | None = None) -> NTSCDResult:
    """Non-termination-sensitive strong control dependence for every
    node of ``graph`` (works on arbitrary, even non-normalized, CFGs)."""
    counter = counter if counter is not None else WorkCounter()
    branches = [
        nid for nid in sorted(graph.nodes)
        if len(graph.out_edges(nid)) >= 2
    ]
    result = NTSCDResult(graph)
    for target in sorted(graph.nodes):
        counter.tick("ntscd_targets")
        reach_all = _all_paths_reach(graph, target)
        counter.tick("ntscd_captured", len(reach_all))
        controllers = set()
        for p in branches:
            succs = [e.dst for e in graph.out_edges(p)]
            inside = sum(1 for s in succs if s in reach_all)
            if 0 < inside < len(succs):
                controllers.add(p)
        result.deps[target] = frozenset(controllers)
    return result


def _escapes(graph: CFG, forbidden: int) -> set[int]:
    """Nodes with a maximal path avoiding ``forbidden``: those that can
    reach, inside ``G - forbidden``, either a sink of ``G`` or a cycle
    (where an infinite path hides).  Brute-force oracle twin."""
    nodes = [n for n in graph.nodes if n != forbidden]
    node_set = set(nodes)
    succs = {
        n: [e.dst for e in graph.out_edges(n) if e.dst in node_set]
        for n in nodes
    }
    # A node is "self-sustaining" if it can take a step forever inside
    # G - forbidden: greatest fixpoint of "has a successor that is
    # self-sustaining".  Computed by repeatedly deleting nodes with no
    # surviving successor among survivors.
    alive = {n for n in nodes if succs[n]}
    changed = True
    while changed:
        changed = False
        for n in sorted(alive):
            if not any(s in alive for s in succs[n]):
                alive.discard(n)
                changed = True
    # Sinks of G itself (END, or goto dead-ends) end a maximal path.
    sinks = {n for n in nodes if not graph.out_edges(n)}
    seeds = alive | sinks
    escaped = set(seeds)
    work = sorted(seeds)
    while work:
        nid = work.pop()
        for edge in graph.in_edges(nid):
            if edge.src in node_set and edge.src not in escaped:
                escaped.add(edge.src)
                work.append(edge.src)
    return escaped


def ntscd_reference(
    graph: CFG, counter: WorkCounter | None = None
) -> NTSCDResult:
    """Independent first-principles twin of :func:`ntscd` (escape
    analysis in ``G - n`` instead of the edge-counter fixpoint)."""
    counter = counter if counter is not None else WorkCounter()
    branches = [
        nid for nid in sorted(graph.nodes)
        if len(graph.out_edges(nid)) >= 2
    ]
    result = NTSCDResult(graph)
    for target in sorted(graph.nodes):
        counter.tick("ntscd_ref_targets")
        escaped = _escapes(graph, target)
        reach_all = {
            n for n in graph.nodes if n == target or n not in escaped
        }
        controllers = set()
        for p in branches:
            succs = [e.dst for e in graph.out_edges(p)]
            inside = sum(1 for s in succs if s in reach_all)
            if 0 < inside < len(succs):
                controllers.add(p)
        result.deps[target] = frozenset(controllers)
    return result
