"""Bitset fast path for separable gen/kill dataflow problems.

The generic :func:`repro.dataflow.solver.solve_dataflow` manipulates
frozensets: every transfer allocates set objects and hashes elements.
For *separable* problems -- where the transfer is ``out = (in - kill) |
gen`` (or gen-then-kill) with per-node constant gen/kill sets -- the
whole fact domain can be numbered once and each fact packed into a
single Python int bitmask.  Meet is ``|`` or ``&`` of ints, transfer is
two bitwise ops, and a fact comparison is an int comparison: the solver
inner loop does no hashing and no allocation beyond small ints.

The worklist is a priority queue ordered by reverse-postorder index (of
the problem's direction), so forward problems process nodes in
topological-ish order and revisits stay cheap.  Monotone frameworks on
finite lattices have an order-independent fixpoint, so the result is
*identical* (after decoding) to the generic solver's -- the equivalence
tests assert exact equality against :func:`solve_dataflow` on every
problem.

:mod:`repro.dataflow.bitsets` compiles each concrete analysis (liveness,
reaching definitions, available/anticipatable expressions) down to a
:class:`BitsetProblem`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.perf.kernels import csr_rpo
from repro.util.counters import WorkCounter

if TYPE_CHECKING:
    from repro.perf.csr import CSRGraph


class BitsetProblem:
    """A dataflow problem compiled to per-node bitmasks.

    ``gen``/``kill`` are dense-node-indexed int masks.  ``kill_then_gen``
    selects ``(in & ~kill) | gen`` (liveness, reaching, anticipatable --
    a node that both computes and kills still exposes its own gen);
    otherwise ``(in | gen) & ~kill`` (available expressions).  The
    boundary vertex (start for forward problems, end for backward) has
    its meet input *replaced* by ``boundary_mask`` before the transfer
    is applied.  ``notkill`` (the transfer's ``~kill``) is computed once
    per compiled problem, so re-solving it costs no complement pass.
    """

    __slots__ = (
        "direction", "meet_is_union", "kill_then_gen",
        "gen", "kill", "notkill", "boundary_mask", "initial_mask",
    )

    def __init__(
        self,
        direction: str,
        meet_is_union: bool,
        kill_then_gen: bool,
        gen: list[int],
        kill: list[int],
        boundary_mask: int,
        initial_mask: int,
    ) -> None:
        self.direction = direction
        self.meet_is_union = meet_is_union
        self.kill_then_gen = kill_then_gen
        self.gen = gen
        self.kill = kill
        self.notkill = [~k for k in kill]
        self.boundary_mask = boundary_mask
        self.initial_mask = initial_mask


def rpo_positions(
    csr: "CSRGraph", forward: bool
) -> tuple[list[int], list[int]]:
    """Reverse postorder of the nodes reachable from start (``forward``)
    or, over reversed edges, from end -- plus each node's index in it.

    Memoized on the immutable snapshot under ``("rpo", forward)``, as
    :mod:`repro.graphs.dominance` memoizes its ``idom`` arrays, so every
    solve over one snapshot shares one traversal per direction.  Callers
    must not mutate the returned lists."""
    key = ("rpo", forward)
    hit = csr.memo.get(key)
    if hit is None:
        if forward:
            rpo = csr_rpo(csr.succ_off, csr.succ_node, csr.start, csr.n)
        else:
            rpo = csr_rpo(csr.pred_off, csr.pred_node, csr.end, csr.n)
        position = [0] * csr.n
        for i, v in enumerate(rpo):
            position[v] = i
        hit = csr.memo[key] = (rpo, position)
    return hit


def solve_bitset(
    csr: "CSRGraph",
    problem: BitsetProblem,
    counter: WorkCounter | None = None,
) -> list[int]:
    """Fixpoint of ``problem`` over the snapshot; returns the fact mask
    per dense edge.

    Counters mirror the generic solver's: ``node_visits`` (worklist
    pops) and ``fact_updates`` (edge facts that changed).
    """
    csr.check()  # a stale snapshot would silently index the wrong shape
    n = csr.n
    if len(problem.gen) != n or len(problem.kill) != n:
        from repro.robust.errors import AnalysisError

        raise AnalysisError(
            f"bitset problem arity mismatch: gen/kill cover "
            f"{len(problem.gen)}/{len(problem.kill)} nodes, snapshot "
            f"has {n}",
            phase="solve-bitset",
        )
    forward = problem.direction == "forward"
    if forward:
        in_off, in_edge = csr.pred_off, csr.pred_edge
        out_off, out_edge = csr.succ_off, csr.succ_edge
        out_node = csr.succ_node
        root = csr.start
    else:
        in_off, in_edge = csr.succ_off, csr.succ_edge
        out_off, out_edge = csr.pred_off, csr.pred_edge
        out_node = csr.pred_node
        root = csr.end
    if root < 0:
        from repro.robust.errors import AnalysisError

        raise AnalysisError(
            "bitset solve on a snapshot with no "
            + ("start" if forward else "end")
            + " node",
            phase="solve-bitset",
        )

    rpo, position = rpo_positions(csr, forward)

    gen, notkill = problem.gen, problem.notkill
    union = problem.meet_is_union
    kill_then_gen = problem.kill_then_gen
    boundary_mask = problem.boundary_mask

    facts = [problem.initial_mask] * csr.m
    # Priority worklist: every reachable node, ordered by RPO index.
    heap = list(range(len(rpo)))
    in_queue = bytearray(n)
    for v in rpo:
        in_queue[v] = 1

    node_visits = 0
    fact_updates = 0
    while heap:
        v = rpo[heappop(heap)]
        in_queue[v] = 0
        node_visits += 1
        if v == root:
            combined = boundary_mask
        else:
            i0 = in_off[v]
            i1 = in_off[v + 1]
            if i0 == i1:
                combined = 0
            else:
                combined = facts[in_edge[i0]]
                if union:
                    for i in range(i0 + 1, i1):
                        combined |= facts[in_edge[i]]
                else:
                    for i in range(i0 + 1, i1):
                        combined &= facts[in_edge[i]]
        if kill_then_gen:
            out = (combined & notkill[v]) | gen[v]
        else:
            out = (combined | gen[v]) & notkill[v]
        for i in range(out_off[v], out_off[v + 1]):
            e = out_edge[i]
            if facts[e] != out:
                facts[e] = out
                fact_updates += 1
                w = out_node[i]
                if not in_queue[w]:
                    in_queue[w] = 1
                    heappush(heap, position[w])
    if counter is not None:
        counter.tick("node_visits", node_visits)
        counter.tick("fact_updates", fact_updates)
    return facts


#: byte value -> bit offsets set in it (decode helper).
_BYTE_BITS = [
    tuple(j for j in range(8) if b >> j & 1) for b in range(256)
]

_WORD = 0xFFFFFFFFFFFFFFFF


def _union_bits(singles: list, base: int, word: int) -> frozenset:
    """Union of ``singles[base + j]`` over the set bits ``j`` of ``word``."""
    byte_bits = _BYTE_BITS
    parts = []
    while word:
        b = word & 0xFF
        if b:
            for j in byte_bits[b]:
                parts.append(singles[base + j])
        word >>= 8
        base += 8
    return frozenset().union(*parts)


class MaskDecoder:
    """Translates int masks back to shared frozensets over one universe.

    Facts repeat heavily across edges (and across analyses sharing a
    universe -- AV and ANT of the same graph produce many identical
    masks), so each distinct mask is decoded once and the frozenset
    shared via ``_cache``.  Decoding never hashes a universe element
    twice: it unions pre-hashed one-element frozensets (``singles``),
    and a set union copies entries *with their stored hashes*, so each
    element's (potentially recursive, Python-level) ``__hash__`` runs
    once when its singleton is built.  ``singles`` may be supplied --
    the arena's :class:`~repro.arena.kernels.CorpusOrder` shares
    corpus-wide ones -- and is otherwise built on the first decode, so a
    decoder nobody uses costs nothing.  A mask wider than one 64-bit
    word unions per-``(position, word)`` parts cached in ``_parts``:
    masks repeat whole words far more often than they repeat wholesale.

    Keep one decoder per universe and reuse it across solves to hit both
    caches; :func:`decode_masks` is the one-shot convenience wrapper.
    """

    __slots__ = ("universe", "singles", "_cache", "_parts")

    def __init__(self, universe: list, singles: list | None = None) -> None:
        self.universe = universe
        self.singles = singles
        self._cache: dict[int, frozenset] = {0: frozenset()}
        self._parts: dict[tuple[int, int], frozenset] = {}

    def decode(self, mask: int) -> frozenset:
        """The frozenset of universe elements whose bits are set."""
        value = self._cache.get(mask)
        if value is None:
            singles = self.singles
            if singles is None:
                singles = self.singles = [
                    frozenset((item,)) for item in self.universe
                ]
            if mask <= _WORD:
                value = _union_bits(singles, 0, mask)
            else:
                parts_cache = self._parts
                parts = []
                rest = mask
                k = 0
                while rest:
                    word = rest & _WORD
                    if word:
                        key = (k, word)
                        part = parts_cache.get(key)
                        if part is None:
                            part = parts_cache[key] = _union_bits(
                                singles, k * 64, word
                            )
                        parts.append(part)
                    rest >>= 64
                    k += 1
                value = frozenset().union(*parts)
            self._cache[mask] = value
        return value

    def decode_all(
        self, facts: list[int], csr: "CSRGraph"
    ) -> dict[int, frozenset]:
        """Per-dense-edge masks -> ``{edge_id: frozenset}``."""
        cache = self._cache
        decode = self.decode
        edge_ids = csr.edge_ids
        result: dict[int, frozenset] = {}
        for e, mask in enumerate(facts):
            value = cache.get(mask)
            if value is None:
                value = decode(mask)
            result[edge_ids[e]] = value
        return result


def decode_masks(
    facts: list[int],
    csr: "CSRGraph",
    universe: list,
) -> dict[int, frozenset]:
    """One-shot decode of per-dense-edge masks to ``{edge_id: frozenset}``."""
    return MaskDecoder(universe).decode_all(facts, csr)
