"""Program arenas: interned payload over a CSR snapshot, plus the RPA1
binary wire format.

A :class:`ProgramArena` is a lowered CFG: per node a kind tag, a target
name id and an expression pool id; per edge a label id -- all interned
into one :class:`~repro.arena.pool.ExpressionPool` -- over the
:class:`~repro.perf.csr.CSRGraph` that holds the topology (dense
enumeration, original CFG ids, adjacency, start/end).  There is one flat
graph layout in the project, so every array kernel, the bitset solver
included, runs on an arena's ``csr`` unmodified, and iteration order
(hence any order-sensitive tie-break) matches the object pipeline bit
for bit.

An :class:`ArenaCorpus` bundles many arenas over one shared pool and
serializes to a compact tagged varint stream (``to_bytes``/
``from_bytes``).  That stream is what
:class:`~repro.robust.pool.SupervisedPool` workers receive in arena
batch mode, replacing per-spec pickles of AST/CFG object graphs: the
pool tables ship once per chunk and amortize across every program in
it.  The serve daemon's content-addressed cache reuses the same stream
as the ``arena`` pass's export codec (a one-program corpus per entry):
decoding rebuilds the pool's derived tables from scratch and each
program's topology as a graph-less snapshot
(:meth:`~repro.perf.csr.CSRGraph.from_tables`), so a decoded arena is
detached from any live graph by construction.

Wire format (version 1): the magic ``b"RPA1"``, then varint-framed
sections in fixed order (pool names, pool literals, expression rows,
then each program's node/edge/adjacency arrays).  All integers are
LEB128 varints; signed values (literals, ``-1`` sentinels) are zigzag
encoded; strings are length-prefixed UTF-8.  Any magic/version mismatch,
truncation, or adjacency table that indexes out of range raises
:class:`~repro.robust.errors.InputError` -- never a bare struct or
index error -- so the robust layer can quarantine a corrupt payload
with context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arena.pool import ExpressionPool
from repro.cfg.graph import CFG, NodeKind
from repro.perf.csr import CSRGraph, build_csr
from repro.robust.errors import InputError
from repro.util.counters import WorkCounter

MAGIC = b"RPA1"
VERSION = 1

#: Node kind tags, in the enum's declaration order.
KIND_TAGS: tuple[NodeKind, ...] = tuple(NodeKind)
KIND_INDEX: dict[NodeKind, int] = {kind: i for i, kind in enumerate(KIND_TAGS)}


@dataclass(eq=False)
class ProgramArena:
    """One lowered program: interned node/edge payload over ``csr``.

    The payload tables are dense (indexed like ``csr``'s nodes 0..n-1 /
    edges 0..m-1); ``csr.node_ids``/``csr.edge_ids`` carry the original
    CFG ids so decoded analysis results key exactly like the object
    pipeline's.  Two arenas are the same lowering exactly when their
    RPA1 encodings are equal.
    """

    label: str
    csr: CSRGraph
    node_kind: list[int] = field(default_factory=list)
    #: target variable name id for ASSIGN nodes, else -1
    node_target: list[int] = field(default_factory=list)
    #: expression pool id for ASSIGN/PRINT/SWITCH nodes, else -1
    node_expr: list[int] = field(default_factory=list)
    #: switch-arm label as a pool name id, else -1
    edge_label: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.csr.n

    @property
    def m(self) -> int:
        return self.csr.m


def lower_cfg(
    graph: CFG,
    pool: ExpressionPool,
    label: str = "",
    counter: WorkCounter | None = None,
    csr: CSRGraph | None = None,
) -> ProgramArena:
    """Intern ``graph``'s node and edge payload into ``pool`` over its
    CSR snapshot (``csr``, built here when not supplied).

    Payload order is the snapshot's dense order (CFG insertion order),
    which fixes the pool's interning sequence and hence its ids."""
    csr = build_csr(graph) if csr is None else csr.check()
    arena = ProgramArena(label, csr)
    nodes = graph.nodes
    for nid in csr.node_ids:
        node = nodes[nid]
        arena.node_kind.append(KIND_INDEX[node.kind])
        arena.node_target.append(
            pool.intern_name(node.target) if node.target is not None else -1
        )
        arena.node_expr.append(
            pool.intern(node.expr) if node.expr is not None else -1
        )
        if counter is not None:
            counter.tick("arena_nodes_lowered")
    edges = graph.edges
    for eid in csr.edge_ids:
        edge_label = edges[eid].label
        arena.edge_label.append(
            pool.intern_name(edge_label) if edge_label is not None else -1
        )
    return arena


@dataclass
class ArenaCorpus:
    """Many :class:`ProgramArena`\\ s sharing one expression pool."""

    pool: ExpressionPool
    programs: list[ProgramArena] = field(default_factory=list)

    def add(
        self,
        graph: CFG,
        label: str = "",
        counter: WorkCounter | None = None,
    ) -> ProgramArena:
        arena = lower_cfg(graph, self.pool, label=label, counter=counter)
        self.programs.append(arena)
        return arena

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        _uv(out, VERSION)
        pool = self.pool
        _uv(out, len(pool.names))
        for name in pool.names:
            _string(out, name)
        _uv(out, len(pool.literals))
        for value in pool.literals:
            _sv(out, value)
        _uv(out, len(pool.kind))
        for i in range(len(pool.kind)):
            _uv(out, pool.kind[i])
            _sv(out, pool.arg0[i])
            _sv(out, pool.arg1[i])
            _sv(out, pool.arg2[i])
        _uv(out, len(self.programs))
        for arena in self.programs:
            csr = arena.csr
            _string(out, arena.label)
            _uv(out, csr.n)
            _uv(out, csr.m)
            for table in (csr.node_ids, arena.node_kind):
                for value in table:
                    _uv(out, value)
            for table in (arena.node_target, arena.node_expr):
                for value in table:
                    _sv(out, value)
            for table in (csr.edge_ids, csr.edge_src, csr.edge_dst):
                for value in table:
                    _uv(out, value)
            for value in arena.edge_label:
                _sv(out, value)
            # Offsets are monotone; adjacency targets are dense indices.
            for table in (
                csr.succ_off, csr.succ_node, csr.succ_edge,
                csr.pred_off, csr.pred_node, csr.pred_edge,
            ):
                for value in table:
                    _uv(out, value)
            _uv(out, csr.start)
            _uv(out, csr.end)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArenaCorpus":
        if data[: len(MAGIC)] != MAGIC:
            raise InputError(
                "arena payload has bad magic (not an RPA stream)",
                phase="arena-decode",
            )
        reader = _Reader(data, len(MAGIC))
        version = reader.uv()
        if version != VERSION:
            raise InputError(
                f"arena payload version {version} unsupported "
                f"(expected {VERSION})",
                phase="arena-decode",
            )
        pool = ExpressionPool()
        pool.names = [reader.string() for _ in range(reader.uv())]
        pool.literals = [reader.sv() for _ in range(reader.uv())]
        n_exprs = reader.uv()
        for _ in range(n_exprs):
            pool.kind.append(reader.uv())
            pool.arg0.append(reader.sv())
            pool.arg1.append(reader.sv())
            pool.arg2.append(reader.sv())
        pool._rebuild_derived()
        corpus = cls(pool)
        uvs, svs = reader.uvs, reader.svs
        for _ in range(reader.uv()):
            label = reader.string()
            n = reader.uv()
            m = reader.uv()
            node_ids, node_kind = uvs(n), uvs(n)
            node_target, node_expr = svs(n), svs(n)
            edge_ids, edge_src, edge_dst = uvs(m), uvs(m), uvs(m)
            edge_label = svs(m)
            csr = CSRGraph.from_tables(
                node_ids, edge_ids, edge_src, edge_dst,
                uvs(n + 1), uvs(m), uvs(m),
                uvs(n + 1), uvs(m), uvs(m),
                reader.uv(), reader.uv(),
            )
            corpus.programs.append(ProgramArena(
                label, csr, node_kind, node_target, node_expr, edge_label,
            ))
        reader.expect_end()
        return corpus


# -- varint primitives -------------------------------------------------------


def _uv(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise InputError(
            f"unsigned varint cannot encode {value}", phase="arena-encode"
        )
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _sv(out: bytearray, value: int) -> None:
    """Append a zigzag-encoded signed varint (unbounded-int safe)."""
    _uv(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _string(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _uv(out, len(raw))
    out.extend(raw)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def uv(self) -> int:
        data, pos = self.data, self.pos
        shift = 0
        value = 0
        while True:
            if pos >= len(data):
                raise InputError(
                    "truncated arena payload (varint ran off the end)",
                    phase="arena-decode",
                )
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        self.pos = pos
        return value

    def sv(self) -> int:
        raw = self.uv()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

    def uvs(self, count: int) -> list[int]:
        return [self.uv() for _ in range(count)]

    def svs(self, count: int) -> list[int]:
        return [self.sv() for _ in range(count)]

    def string(self) -> str:
        length = self.uv()
        end = self.pos + length
        if end > len(self.data):
            raise InputError(
                "truncated arena payload (string ran off the end)",
                phase="arena-decode",
            )
        text = self.data[self.pos : end].decode("utf-8")
        self.pos = end
        return text

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise InputError(
                f"arena payload has {len(self.data) - self.pos} trailing "
                "bytes",
                phase="arena-decode",
            )
