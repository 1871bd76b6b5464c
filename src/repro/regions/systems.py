"""Per-region local equation systems over the program structure tree.

Each canonical SESE region becomes a :class:`System`: the nodes it owns
(smallest enclosing region), the edges those nodes compute, and one
*super-equation* per direct child -- ``fact(child.exit) =
summary_child(fact(child.entry))`` for forward problems, the dual for
backward ones.  A virtual root system owns every node outside all
regions, so the systems partition the graph and the hierarchy of
systems mirrors the PST.

The solver relies on a *closure* property: every edge a system's
equations read must resolve to the system's own input (the region's
entry edge forward / exit edge backward), an edge computed by one of
its owned nodes, or the summarized boundary of a direct child.  The
property holds for canonical regions on the graphs the builder emits,
but rather than trusting a structural proof over every irreducible /
``goto``-soup graph the generators can produce, :func:`build_systems`
*verifies* closure while assembling and **dissolves** any region that
violates it -- the region's nodes and children are merged into its
parent and assembly retries.  Dissolving every region degenerates to a
single flat root system, so the construction always succeeds and the
hierarchical solve stays byte-identical to the flat one (a dissolved
tree just summarizes less).

Sequential composition is associative -- ``summary(A; B) =
summary(B) . summary(A)`` -- so a *flat chain* of sibling systems at
the virtual root (each sibling's exit edge feeding the next sibling's
entry) can be re-associated freely.  :meth:`RegionSystems._balance_root`
exploits this: maximal sequential runs among the root's children are
wrapped into a balanced binary tree of synthetic *chain systems* (pure
composition nodes, marked with :data:`CHAIN`, owning no nodes of their
own).  A statement edit then re-summarizes an O(log chain) spine
instead of re-solving an O(chain) root system, which is what makes
per-edit latency on chain-shaped programs scale.  Chain systems are
solved and cached exactly like region systems; only the *shape* of the
tree changes, never the fixpoint, so flat/hierarchical byte-identity is
preserved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.counters import WorkCounter

if TYPE_CHECKING:
    from repro.cfg.graph import CFG
    from repro.controldep.sese import ProgramStructure, Region

#: Sentinel reference: "the system's own input value".
INPUT = -1

#: Unit tags (first element of a unit tuple).
NODE_UNIT = 0
CHILD_UNIT = 1


class ChainRegion:
    """Marker standing in for a structure ``Region`` on synthetic chain
    systems: the system exists only to re-associate sequential
    composition, it owns no nodes and has no counterpart in the PST."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<chain>"


#: The shared marker instance (chain systems are interchangeable; their
#: identity lives in the ``(entry, exit)`` key like any other system's).
CHAIN = ChainRegion()


class System:
    """One region's (or the virtual root's) local equation system.

    ``fwd_units`` / ``bwd_units`` are tuples of unit tuples:

    * ``(NODE_UNIT, nid, refs, outs)`` -- apply the node transfer to the
      meet of ``refs`` and write the result to every edge in ``outs``;
    * ``(CHILD_UNIT, pos, ref, out)`` -- apply child ``pos``'s summary
      to ``ref`` and write the result to ``out``.

    A ref is an edge id, or :data:`INPUT` for the system's input edge.
    The unit tuples double as the system's *signature*: two builds of
    the same region with equal units (and equal child keys) have
    identical equations, which is what the incremental engine's cache
    keys on.
    """

    __slots__ = (
        "index", "region", "parent", "entry", "exit", "nodes",
        "children", "depth", "fwd_units", "bwd_units",
    )

    def __init__(self, index: int, region: "Region | None") -> None:
        self.index = index
        self.region = region
        self.parent: int | None = None
        self.entry: int | None = None if region is None else region.entry
        self.exit: int | None = None if region is None else region.exit
        self.nodes: tuple[int, ...] = ()
        self.children: tuple[int, ...] = ()
        self.depth = 0
        self.fwd_units: tuple = ()
        self.bwd_units: tuple = ()

    @property
    def key(self) -> tuple[int, int] | None:
        """``(entry, exit)`` for region systems, ``None`` for the root."""
        return None if self.region is None else (self.entry, self.exit)

    def signature(self, child_keys: tuple) -> tuple:
        """Everything the system's solution depends on besides node
        masks and child summaries."""
        return (self.entry, self.exit, self.fwd_units, self.bwd_units,
                child_keys)

    def __repr__(self) -> str:
        tag = "root" if self.region is None else f"e{self.entry}..e{self.exit}"
        return f"System({self.index}: {tag}, {len(self.nodes)} nodes)"


class _Violation(Exception):
    """Internal: closure failed; carries the region to dissolve."""

    def __init__(self, region: "Region") -> None:
        self.region = region


class RegionSystems:
    """The assembled system hierarchy for one graph + structure.

    ``systems[0]`` is the virtual root; the rest are ordered by
    ``(depth, entry edge id)``, so iterating ``systems`` is a top-down
    sweep and ``reversed(systems)`` a bottom-up one.  ``dissolved``
    counts regions merged away by closure violations (zero on every
    graph the corpus generators produce -- asserted by the differential
    suite, but never *assumed* by the solver).
    """

    __slots__ = (
        "graph", "structure", "systems", "sys_of_node", "dissolved",
        "reused", "_prev", "_touched",
    )

    def __init__(
        self,
        graph: "CFG",
        structure: "ProgramStructure",
        counter: WorkCounter | None = None,
        prev: "RegionSystems | None" = None,
        touched: "set | None" = None,
    ) -> None:
        self.graph = graph
        self.structure = structure
        self.dissolved = 0
        self.reused = 0
        # Unit reuse: ``prev`` is the assembly from just before a single
        # structure edit and ``touched`` that edit's affected regions
        # (``ProgramStructure.consume_touched``).  An untouched region
        # with unchanged boundary, node ownership and child boundaries
        # resolves every reference exactly as before, so its unit tuples
        # carry over without re-deriving them.
        self._prev = prev
        self._touched = touched
        dead: set = set()
        while True:
            try:
                self._assemble(dead)
                break
            except _Violation as violation:
                dead.add(violation.region)
                self.dissolved += 1
                if counter is not None:
                    counter.tick("region_dissolved")
        self._prev = None
        self._touched = None
        if counter is not None:
            counter.tick("region_systems_built", len(self.systems))
            if self.reused:
                counter.tick("region_units_reused", self.reused)

    # -- assembly ------------------------------------------------------------

    def _active_region(self, region: "Region | None", dead: set):
        while region is not None and region in dead:
            region = region.parent
        return region

    def _assemble(self, dead: set) -> None:
        graph, structure = self.graph, self.structure

        active = [r for r in structure.regions if r not in dead]
        # Depth within the *active* tree (dissolution can skip levels).
        depth_of: dict = {}
        for region in sorted(active, key=lambda r: r.depth):
            parent = self._active_region(region.parent, dead)
            depth_of[region] = depth_of[parent] + 1 if parent else 1
        active.sort(key=lambda r: (depth_of[r], r.entry))

        root = System(0, None)
        systems: list[System] = [root]
        sys_of_region: dict = {}
        for region in active:
            system = System(len(systems), region)
            system.depth = depth_of[region]
            systems.append(system)
            sys_of_region[region] = system

        children: dict[int, list[int]] = {s.index: [] for s in systems}
        for region in active:
            system = sys_of_region[region]
            parent = self._active_region(region.parent, dead)
            parent_sys = sys_of_region[parent] if parent else root
            system.parent = parent_sys.index
            children[parent_sys.index].append(system.index)
        for system in systems:
            system.children = tuple(
                sorted(children[system.index], key=lambda i: systems[i].entry)
            )

        sys_of_node: dict[int, int] = {}
        owned: dict[int, list[int]] = {s.index: [] for s in systems}
        for nid in graph.nodes:
            region = self._active_region(structure.region_of_node[nid], dead)
            system = sys_of_region[region] if region else root
            sys_of_node[nid] = system.index
            owned[system.index].append(nid)
        for system in systems:
            system.nodes = tuple(sorted(owned[system.index]))

        prev, touched = self._prev, self._touched
        reusable: dict = {}
        if prev is not None and touched is not None and not dead:
            for old in prev.systems:
                if old.region not in touched:
                    reusable[old.region] = old

        for system in systems:
            old = reusable.get(system.region) if reusable else None
            if (
                old is not None
                and old.entry == system.entry
                and old.exit == system.exit
                and old.nodes == system.nodes
                and tuple(prev.systems[i].key for i in old.children)
                == tuple(systems[i].key for i in system.children)
            ):
                system.fwd_units = old.fwd_units
                system.bwd_units = old.bwd_units
                self.reused += 1
                continue
            self._build_units(system, systems, sys_of_node, dead)

        self._balance_root(systems, sys_of_node, dead)

        self.systems = systems
        self.sys_of_node = sys_of_node

    def _balance_root(
        self, systems: list[System], sys_of_node: dict[int, int], dead: set,
    ) -> None:
        """Wrap maximal sequential runs of the root's children into a
        balanced binary tree of :data:`CHAIN` systems.

        Runs on the *verified* assembly: every root unit already
        resolved, so a run link ``A.exit == B.entry`` is by construction
        an edge no root node reads, and the synthetic systems' pure
        child-unit equations satisfy closure trivially.  Node ownership
        never moves -- chain systems exist only to re-associate the
        composition -- so ``sys_of_node`` and every real system's own
        equations are untouched; only parents, depths and the root's
        units change.
        """
        root = systems[0]
        children = root.children
        if len(children) < 2:
            return

        by_entry = {systems[i].entry: i for i in children}
        exits = {systems[i].exit for i in children}

        # Maximal paths of the (injective) exit->entry successor map.
        # Closed cycles of siblings have no start and stay unwrapped.
        runs: list[list[int]] = []
        wrapped: set[int] = set()
        for index in children:
            if systems[index].entry in exits:
                continue
            run = [index]
            nxt = by_entry.get(systems[index].exit)
            while nxt is not None and nxt not in wrapped and nxt != index:
                run.append(nxt)
                nxt = by_entry.get(systems[nxt].exit)
            if len(run) >= 2:
                wrapped.update(run)
                runs.append(run)
        if not runs:
            return

        prev, touched = self._prev, self._touched
        prev_chain: dict = {}
        old_root = None
        if prev is not None and touched is not None and not dead:
            for old in prev.systems:
                if old.region is CHAIN:
                    prev_chain[(old.entry, old.exit)] = old
            old_root = prev.systems[0]

        def wrap(seq: list[int]) -> int:
            """Balanced re-association of one run; returns the top."""
            if len(seq) == 1:
                return seq[0]
            mid = len(seq) // 2
            left, right = wrap(seq[:mid]), wrap(seq[mid:])
            lsys, rsys = systems[left], systems[right]
            node = System(len(systems), None)
            node.region = CHAIN
            node.entry, node.exit = lsys.entry, rsys.exit
            node.children = (left, right)
            systems.append(node)
            lsys.parent = rsys.parent = node.index
            old = prev_chain.get((node.entry, node.exit))
            if (
                old is not None
                and tuple(prev.systems[i].key for i in old.children)
                == (lsys.key, rsys.key)
            ):
                node.fwd_units = old.fwd_units
                node.bwd_units = old.bwd_units
                self.reused += 1
            else:
                node.fwd_units = (
                    (CHILD_UNIT, 0, INPUT, lsys.exit),
                    (CHILD_UNIT, 1, lsys.exit, rsys.exit),
                )
                node.bwd_units = (
                    (CHILD_UNIT, 1, INPUT, rsys.entry),
                    (CHILD_UNIT, 0, rsys.entry, lsys.entry),
                )
            return node.index

        top_of_head = {run[0]: wrap(run) for run in runs}
        new_children = []
        for index in children:
            if index in wrapped:
                if index in top_of_head:
                    new_children.append(top_of_head[index])
            else:
                new_children.append(index)
        root.children = tuple(new_children)
        for index in new_children:
            systems[index].parent = 0

        # A chain top's entry equals its head's, so the root's equations
        # re-derive cleanly against the new children; reuse the previous
        # balanced root's units when nothing it reads moved (same
        # soundness condition as the per-region reuse above).
        if (
            old_root is not None
            and old_root.nodes == root.nodes
            and tuple(prev.systems[i].key for i in old_root.children)
            == tuple(systems[i].key for i in root.children)
        ):
            root.fwd_units = old_root.fwd_units
            root.bwd_units = old_root.bwd_units
            self.reused += 1
        else:
            self._build_units(root, systems, sys_of_node, dead)

        # Re-establish the ordering invariant (parents strictly before
        # children; ``reversed(systems)`` is bottom-up) over the new
        # depths, then renumber.  CHILD_UNIT positions are positional
        # within each ``children`` tuple, which the remap preserves.
        stack = [0]
        while stack:
            index = stack.pop()
            for child in systems[index].children:
                systems[child].depth = systems[index].depth + 1
                stack.append(child)
        order = [systems[0]] + sorted(
            systems[1:], key=lambda s: (s.depth, s.entry)
        )
        remap = {system.index: new for new, system in enumerate(order)}
        for system in order:
            system.index = remap[system.index]
            if system.parent is not None:
                system.parent = remap[system.parent]
            system.children = tuple(remap[c] for c in system.children)
        systems[:] = order
        for nid, index in sys_of_node.items():
            sys_of_node[nid] = remap[index]

    def _build_units(
        self, system: System, systems: list[System],
        sys_of_node: dict[int, int], dead: set,
    ) -> None:
        graph = self.graph
        child_exit = {systems[i].exit: pos
                      for pos, i in enumerate(system.children)}
        child_entry = {systems[i].entry: pos
                       for pos, i in enumerate(system.children)}

        def resolve(eid: int, endpoint: int, boundary: int | None,
                    via_child: dict) -> int:
            if boundary is not None and eid == boundary:
                return INPUT
            if sys_of_node[endpoint] == system.index or eid in via_child:
                return eid
            raise _Violation(self._culprit(endpoint, system, dead))

        fwd: list[tuple] = []
        bwd: list[tuple] = []
        for nid in system.nodes:
            in_edges = graph.in_edges(nid)
            out_edges = graph.out_edges(nid)
            fwd.append((
                NODE_UNIT, nid,
                tuple(resolve(e.id, e.src, system.entry, child_exit)
                      for e in in_edges),
                tuple(e.id for e in out_edges),
            ))
            bwd.append((
                NODE_UNIT, nid,
                tuple(resolve(e.id, e.dst, system.exit, child_entry)
                      for e in out_edges),
                tuple(e.id for e in in_edges),
            ))
        for pos, child_index in enumerate(system.children):
            child = systems[child_index]
            entry_edge = graph.edge(child.entry)
            exit_edge = graph.edge(child.exit)
            fwd.append((
                CHILD_UNIT, pos,
                resolve(child.entry, entry_edge.src, system.entry, child_exit),
                child.exit,
            ))
            bwd.append((
                CHILD_UNIT, pos,
                resolve(child.exit, exit_edge.dst, system.exit, child_entry),
                child.entry,
            ))
        # The summary is read off the region's own boundary, so the
        # boundary must be computed locally.
        if system.region is not None:
            exit_src = graph.edge(system.exit).src
            if (sys_of_node[exit_src] != system.index
                    and system.exit not in child_exit):
                raise _Violation(system.region)
            entry_dst = graph.edge(system.entry).dst
            if (sys_of_node[entry_dst] != system.index
                    and system.entry not in child_entry):
                raise _Violation(system.region)
        system.fwd_units = tuple(fwd)
        system.bwd_units = tuple(bwd)

    def _culprit(self, nid: int, system: System, dead: set) -> "Region":
        """The region to dissolve for an unresolvable reference to an
        edge at node ``nid``: the direct child of ``system`` whose
        subtree owns the node, else the offender's topmost active
        ancestor, else ``system``'s own region."""
        region = self._active_region(
            self.structure.region_of_node.get(nid), dead
        )
        chain = []
        while region is not None:
            chain.append(region)
            region = self._active_region(region.parent, dead)
            if region is system.region:
                return chain[-1]
        if system.region is not None:
            return system.region
        if chain:
            return chain[-1]  # root system, offender under another root
        raise AssertionError(
            f"unresolvable edge at node {nid} with no region to dissolve"
        )

    # -- queries -------------------------------------------------------------

    def child_keys(self, system: System) -> tuple:
        """The ``(entry, exit)`` keys of a system's children, in child
        order -- the remainder of the system's cache signature."""
        return tuple(self.systems[i].key for i in system.children)


def build_systems(
    graph: "CFG",
    structure: "ProgramStructure",
    counter: WorkCounter | None = None,
    prev: RegionSystems | None = None,
    touched: "set | None" = None,
) -> RegionSystems:
    """Assemble (and closure-verify) the region equation systems.

    ``prev``/``touched`` enable unit reuse across a single structure
    edit: pass the previous assembly and the edit's
    :meth:`~repro.controldep.sese.ProgramStructure.consume_touched` set.
    """
    return RegionSystems(graph, structure, counter, prev, touched)
