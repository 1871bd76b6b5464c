"""Compressed-sparse-row snapshots of a CFG.

The dict-of-objects :class:`~repro.cfg.graph.CFG` is the right structure
for *mutation* -- stable ids survive node removal, edges are first-class
-- but its hot-path cost is brutal: every successor step is a dict probe
plus an attribute load on an ``Edge`` object.  A :class:`CSRGraph` is the
analysis-time twin: every node and edge is renumbered into a dense
``0..n-1`` / ``0..m-1`` index space and adjacency becomes three flat
integer arrays per direction (offsets / neighbor index / edge index), so
traversals touch nothing but ``list[int]`` indexing and locals.

Determinism: dense node order is the CFG's node-insertion order and the
per-node adjacency order is exactly the CFG's ``_out`` / ``_in`` edge
order, so every kernel that walks a snapshot visits in the same order as
its legacy dict-based twin -- class ids, DFS numberings and worklist
schedules come out identical, not merely equivalent.

Invalidation: a snapshot records the ``shape_version`` it was built
from.  The ``csr`` pass registered in
:mod:`repro.pipeline.passes` is shape-only (``uses_exprs=False``), so
the analysis manager drops it exactly when the graph's shape changes and
keeps it warm across expression rewrites; :func:`CSRGraph.check` guards
direct callers that hold a snapshot across mutations.  A *graph-less*
snapshot (:meth:`CSRGraph.from_tables`, the arena wire decoder's
product) describes shipped arrays rather than a live CFG, so it can
never go stale.
"""

from __future__ import annotations

from operator import gt
from typing import NoReturn

from repro.cfg.graph import CFG
from repro.robust.errors import InputError, StaleSnapshotError


class CSRGraph:
    """An immutable flat-array view of one CFG shape version."""

    __slots__ = (
        "graph", "shape_version", "n", "m",
        "node_ids", "node_index", "edge_ids", "edge_index",
        "edge_src", "edge_dst",
        "succ_off", "succ_node", "succ_edge",
        "pred_off", "pred_node", "pred_edge",
        "start", "end", "memo",
    )

    def __init__(self, graph: CFG) -> None:
        self.graph = graph
        self.shape_version = graph.shape_version
        nodes = graph.nodes
        edges = graph.edges
        self.n = n = len(nodes)
        self.m = m = len(edges)

        #: dense index -> CFG node id (insertion order), and the inverse.
        self.node_ids: list[int] = list(nodes)
        self.node_index: dict[int, int] = {
            nid: i for i, nid in enumerate(self.node_ids)
        }
        #: dense index -> CFG edge id (insertion order), and the inverse.
        self.edge_ids: list[int] = list(edges)
        self.edge_index: dict[int, int] = {
            eid: i for i, eid in enumerate(self.edge_ids)
        }

        node_index = self.node_index
        edge_index = self.edge_index
        self.edge_src: list[int] = [0] * m
        self.edge_dst: list[int] = [0] * m
        for eid, edge in edges.items():
            e = edge_index[eid]
            self.edge_src[e] = node_index[edge.src]
            self.edge_dst[e] = node_index[edge.dst]

        # CSR adjacency in the CFG's own out-/in-edge order.
        out_lists = graph._out
        in_lists = graph._in
        self.succ_off = self._offsets(
            len(out_lists[nid]) for nid in self.node_ids
        )
        self.pred_off = self._offsets(
            len(in_lists[nid]) for nid in self.node_ids
        )
        self.succ_node: list[int] = [0] * m
        self.succ_edge: list[int] = [0] * m
        self.pred_node: list[int] = [0] * m
        self.pred_edge: list[int] = [0] * m
        edge_src, edge_dst = self.edge_src, self.edge_dst
        cursor = list(self.succ_off[:-1])
        for v, nid in enumerate(self.node_ids):
            for eid in out_lists[nid]:
                e = edge_index[eid]
                at = cursor[v]
                self.succ_node[at] = edge_dst[e]
                self.succ_edge[at] = e
                cursor[v] = at + 1
        cursor = list(self.pred_off[:-1])
        for v, nid in enumerate(self.node_ids):
            for eid in in_lists[nid]:
                e = edge_index[eid]
                at = cursor[v]
                self.pred_node[at] = edge_src[e]
                self.pred_edge[at] = e
                cursor[v] = at + 1

        self.start = node_index[graph.start] if graph.start in node_index else -1
        self.end = node_index[graph.end] if graph.end in node_index else -1

        #: Kernel scratch memo.  A snapshot is immutable, so derived
        #: arrays (dominator idoms, Euler tours, reverse postorders)
        #: computed by one kernel are valid for every later kernel on
        #: the same snapshot; entries are keyed by (kind, direction).
        self.memo: dict = {}

    @classmethod
    def from_tables(
        cls,
        node_ids: list[int],
        edge_ids: list[int],
        edge_src: list[int],
        edge_dst: list[int],
        succ_off: list[int],
        succ_node: list[int],
        succ_edge: list[int],
        pred_off: list[int],
        pred_node: list[int],
        pred_edge: list[int],
        start: int,
        end: int,
    ) -> "CSRGraph":
        """A graph-less snapshot over decoded arrays (no CFG behind it).

        The tables are untrusted wire data, so they are validated before
        any kernel indexes them: offsets start at 0, never decrease and
        end at ``m``; node and edge indices are in range; ``start`` and
        ``end`` name nodes.  Any violation raises
        :class:`~repro.robust.errors.InputError` (never ``assert``, so
        the check survives ``python -O``).
        """
        n, m = len(node_ids), len(edge_ids)
        for name, off in (("succ_off", succ_off), ("pred_off", pred_off)):
            if (
                len(off) != n + 1 or off[0] != 0 or off[-1] != m
                or any(map(gt, off, off[1:]))
            ):
                _malformed(f"{name} is not a 0..{m} offset table")
        tables = (
            ("edge_src", edge_src, n), ("edge_dst", edge_dst, n),
            ("succ_node", succ_node, n), ("pred_node", pred_node, n),
            ("succ_edge", succ_edge, m), ("pred_edge", pred_edge, m),
        )
        for name, table, bound in tables:
            if len(table) != m or (
                table and (min(table) < 0 or max(table) >= bound)
            ):
                _malformed(f"{name} indexes past its {bound}-entry table")
        if not (0 <= start < n and 0 <= end < n):
            _malformed(f"start/end ({start}, {end}) outside {n} nodes")

        csr = cls.__new__(cls)
        csr.graph = None
        csr.shape_version = None
        csr.n, csr.m = n, m
        csr.node_ids = node_ids
        csr.node_index = dict(zip(node_ids, range(n)))
        csr.edge_ids = edge_ids
        csr.edge_index = dict(zip(edge_ids, range(m)))
        csr.edge_src, csr.edge_dst = edge_src, edge_dst
        csr.succ_off, csr.succ_node, csr.succ_edge = (
            succ_off, succ_node, succ_edge
        )
        csr.pred_off, csr.pred_node, csr.pred_edge = (
            pred_off, pred_node, pred_edge
        )
        csr.start, csr.end = start, end
        csr.memo = {}
        return csr

    @staticmethod
    def _offsets(degrees) -> list[int]:
        offsets = [0]
        total = 0
        for degree in degrees:
            total += degree
            offsets.append(total)
        return offsets

    # -- guards ------------------------------------------------------------

    @property
    def fresh(self) -> bool:
        """Does this snapshot still describe the graph's current shape?
        A graph-less snapshot describes only itself, so it always does."""
        return (
            self.graph is None
            or self.shape_version == self.graph.shape_version
        )

    def check(self) -> "CSRGraph":
        """Raise if the underlying CFG mutated since the snapshot."""
        if not self.fresh:
            raise StaleSnapshotError(
                f"stale CSR snapshot: built at shape_version "
                f"{self.shape_version}, graph is now at "
                f"{self.graph.shape_version}",
                phase="csr-check",
            )
        return self

    # -- convenience -------------------------------------------------------

    def succs(self, v: int) -> list[int]:
        """Dense successor indices of dense node ``v``."""
        return self.succ_node[self.succ_off[v]:self.succ_off[v + 1]]

    def preds(self, v: int) -> list[int]:
        """Dense predecessor indices of dense node ``v``."""
        return self.pred_node[self.pred_off[v]:self.pred_off[v + 1]]

    def __repr__(self) -> str:
        return (
            f"CSRGraph({self.n} nodes, {self.m} edges, "
            f"shape_version={self.shape_version})"
        )


def _malformed(detail: str) -> NoReturn:
    raise InputError(f"malformed CSR tables: {detail}", phase="arena-decode")


def build_csr(graph: CFG) -> CSRGraph:
    """Snapshot ``graph`` into CSR form (O(V + E))."""
    return CSRGraph(graph)


def split_csr(csr: CSRGraph) -> tuple[list[int], list[int], int]:
    """The *split graph* of Definition 2 in CSR form.

    Every CFG edge is materialized as a vertex between its endpoints:
    vertices ``0..n-1`` are the CFG nodes (dense order) and vertex
    ``n + e`` is dense edge ``e``.  Returns ``(offsets, targets,
    num_vertices)`` for the successor direction; predecessors are the
    same arrays read through :func:`reverse_adjacency`.
    """
    n, m = csr.n, csr.m
    total = n + m
    offsets = [0] * (total + 1)
    # Node vertex v keeps its out-degree; every edge vertex has degree 1.
    for v in range(n):
        offsets[v + 1] = offsets[v] + (csr.succ_off[v + 1] - csr.succ_off[v])
    for e in range(m):
        offsets[n + e + 1] = offsets[n + e] + 1
    targets = [0] * offsets[total]
    for v in range(n):
        at = offsets[v]
        for i in range(csr.succ_off[v], csr.succ_off[v + 1]):
            targets[at] = n + csr.succ_edge[i]
            at += 1
    for e in range(m):
        targets[offsets[n + e]] = csr.edge_dst[e]
    return offsets, targets, total


def reverse_adjacency(
    offsets: list[int], targets: list[int], total: int
) -> tuple[list[int], list[int]]:
    """Transpose a CSR adjacency, preserving a stable source order."""
    degree = [0] * total
    for t in targets:
        degree[t] += 1
    roffsets = [0] * (total + 1)
    for v in range(total):
        roffsets[v + 1] = roffsets[v] + degree[v]
    rtargets = [0] * len(targets)
    cursor = list(roffsets[:-1])
    for v in range(total):
        for i in range(offsets[v], offsets[v + 1]):
            t = targets[i]
            rtargets[cursor[t]] = v
            cursor[t] += 1
    return roffsets, rtargets
