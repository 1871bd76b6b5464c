"""Statement-level edit API over a continuously-analyzed CFG.

:class:`EditSession` owns the triple (graph, program structure,
:class:`~repro.regions.incremental.RegionDataflow`) and keeps all three
consistent through the supported statement edits:

* :meth:`rewrite_rhs`    -- change a node's expression in place (no
  shape change; the reaching caches stay entirely warm);
* :meth:`splice_assign`  -- insert an assignment onto an edge (one new
  canonical region; neighbours retarget; caches keep every untouched
  region);
* :meth:`unsplice`       -- remove a pass-through node and merge its
  edges (the inverse).

Each edit is O(dirty region spine), not O(program): the next
``solve_all()`` re-summarizes only the regions whose equations or node
masks changed, which the ``inc_regions_resummarized`` counter makes
auditable.  When an :class:`~repro.pipeline.manager.AnalysisManager` is
attached, each shape edit refreshes it and re-adopts the incrementally
maintained structure so downstream cached passes (DFG, lint, ...) reuse
it instead of rebuilding their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cfg.graph import CFG, CFGError, NodeKind
from repro.regions.incremental import RegionDataflow
from repro.util.counters import WorkCounter

if TYPE_CHECKING:
    from repro.lang.ast_nodes import Expr
    from repro.pipeline.manager import AnalysisManager


class EditSession:
    """Apply statement-level edits while keeping analyses hot."""

    def __init__(
        self,
        graph: CFG,
        counter: WorkCounter | None = None,
        live_out: frozenset[str] = frozenset(),
        manager: "AnalysisManager | None" = None,
    ) -> None:
        self.graph = graph
        self.counter = counter if counter is not None else WorkCounter()
        self.manager = manager
        from repro.controldep.sese import ProgramStructure

        self.structure = ProgramStructure(graph, counter=self.counter)
        self.engine = RegionDataflow(
            graph, self.structure, self.counter, live_out
        )
        self.edits = 0

    # -- edits ---------------------------------------------------------------

    def rewrite_rhs(self, nid: int, expr: "Expr") -> None:
        """Replace the expression of node ``nid`` (assignment right-hand
        side, print argument, or switch condition) in place."""
        node = self.graph.node(nid)
        if node.kind not in (NodeKind.ASSIGN, NodeKind.PRINT, NodeKind.SWITCH):
            raise CFGError(f"node {nid} ({node.kind.name}) has no expression")
        old_vars = node.defs() | node.uses()
        node.expr = expr
        self.graph.note_rewrite()
        self.engine.note_rewrite(nid, old_vars)
        self.edits += 1
        self._sync_manager(shape=False)

    def splice_assign(
        self, eid: int, target: str, expr: "Expr"
    ) -> tuple[int, int, int]:
        """Insert ``target := expr`` onto edge ``eid``; returns the new
        ``(node id, entry edge id, exit edge id)``."""
        edge = self.graph.edge(eid)
        src, dst, label = edge.src, edge.dst, edge.label
        self.graph.remove_edge(eid)
        nid = self.graph.add_node(NodeKind.ASSIGN, target=target, expr=expr)
        e1 = self.graph.add_edge(src, nid, label)
        e2 = self.graph.add_edge(nid, dst)
        self.structure.apply_splice(eid, nid, e1, e2, self.counter)
        self.engine.note_splice(nid)
        self.edits += 1
        self._sync_manager(shape=True)
        return nid, e1, e2

    def unsplice(self, nid: int) -> int:
        """Remove straight-line node ``nid``, merging its boundary edges
        into one new edge (returned)."""
        node = self.graph.node(nid)
        in_edges = self.graph.in_edges(nid)
        out_edges = self.graph.out_edges(nid)
        if len(in_edges) != 1 or len(out_edges) != 1:
            raise CFGError(f"node {nid} is not straight-line")
        (entry,), (exit,) = in_edges, out_edges
        if entry.src == nid or exit.dst == nid:
            raise CFGError(f"node {nid} is self-looping")
        node_vars = node.defs() | node.uses()
        e1, e2 = entry.id, exit.id
        src, dst, label = entry.src, exit.dst, entry.label
        self.graph.remove_node(nid)
        merged = self.graph.add_edge(src, dst, label)
        self.structure.apply_unsplice(nid, e1, e2, merged, self.counter)
        self.engine.note_unsplice(nid, node_vars)
        self.edits += 1
        self._sync_manager(shape=True)
        return merged

    # -- results -------------------------------------------------------------

    def statement_rows(self) -> list[dict]:
        """The editable statements, in node-id order, as plain dicts --
        the shape the serve daemon's ``edit open`` response puts on the
        wire, and what an editor needs to target ``rewrite_rhs``."""
        from repro.lang.pretty import pretty_expr

        return [
            {
                "id": nid,
                "kind": node.kind.name,
                "target": node.target,
                "expr": pretty_expr(node.expr)
                if node.expr is not None else None,
            }
            for nid, node in sorted(self.graph.nodes.items())
            if node.kind in (NodeKind.ASSIGN, NodeKind.PRINT, NodeKind.SWITCH)
        ]

    def solve_all(self) -> dict[str, dict[int, frozenset]]:
        """Decoded facts for all four analyses at the current state."""
        return self.engine.solve_all()

    def solve_masks(self, name: str) -> dict[int, int]:
        return self.engine.solve_masks(name)

    def _sync_manager(self, shape: bool) -> None:
        """Propagate the edit into an attached analysis manager: version
        bumps invalidate its caches, then the incrementally maintained
        structure is re-adopted so the ``sese`` pass costs nothing."""
        if self.manager is None:
            return
        self.manager.refresh()
        self.manager.adopt("sese", self.structure)
