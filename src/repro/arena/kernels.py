"""Arena-backed solvers for the core analyses.

These kernels replay the object pipeline's exact semantics over the
interned tables of a :class:`~repro.arena.arena.ProgramArena`:

* :class:`ArenaSpace` is the arena twin of
  :class:`~repro.dataflow.bitsets.ExpressionSpace` plus the liveness and
  reaching-definitions compiles -- bitset problems built purely from
  pool tables (``gen_ids``, ``var_ids``) and corpus-global ranks, with
  no expression-tree walks, no AST hashing and no ``repr`` sorting on
  the per-program path;
* the bitset analyses are solved by the one flat kernel,
  :func:`~repro.perf.bitset.solve_bitset`, over the arena's ``csr``;
* :func:`arena_constprop` is the Kildall vector algorithm of
  :func:`~repro.opt.cfg_constprop.cfg_constant_propagation` evaluated
  over interned expression ids.

Every decoded result is ``==``-identical to its object twin: universes
sort in the same order (pool ranks are precomputed to agree with the
``repr``/string sorts), facts reach the same unique fixpoint (monotone
frameworks on finite lattices), and decoding rebuilds the same
frozensets of (canonical, equal) AST objects keyed by original CFG ids.
:func:`analyze_corpus` is the fused batch mode: one sweep over all
programs of a corpus, all five analyses each, sharing one pool -- the
WorkCounter tests assert the sweep interns nothing.
"""

from __future__ import annotations

from collections import deque

from repro.arena.arena import KIND_INDEX, ProgramArena
from repro.arena.pool import (
    ExpressionPool,
    K_BIN,
    K_INDEX,
    K_INT,
    K_UN,
    K_UPDATE,
    K_VAR,
)
from repro.cfg.graph import NodeKind
from repro.dataflow.lattice import BOTTOM, TOP
from repro.lang.ast_nodes import BINARY_OPS, UNARY_OPS
from repro.lang.errors import InterpError
from repro.lang.interp import apply_binop
from repro.opt.cfg_constprop import CFGConstants
from repro.perf.bitset import (
    BitsetProblem,
    MaskDecoder,
    rpo_positions,
    solve_bitset,
)
from repro.util.counters import WorkCounter

N_START = KIND_INDEX[NodeKind.START]
N_END = KIND_INDEX[NodeKind.END]
N_ASSIGN = KIND_INDEX[NodeKind.ASSIGN]
N_PRINT = KIND_INDEX[NodeKind.PRINT]
N_SWITCH = KIND_INDEX[NodeKind.SWITCH]
N_MERGE = KIND_INDEX[NodeKind.MERGE]
N_NOP = KIND_INDEX[NodeKind.NOP]


class CorpusOrder:
    """Corpus-global orderings and decode singletons shared by every
    per-program compile.

    ``expr_rank[eid]`` sorts expression ids exactly as ``repr`` sorts
    their AST objects; ``name_rank[name_id]`` sorts name ids exactly as
    the strings sort.  Computed once per corpus generation, so program
    universes order by integer key.

    ``expr_single[eid]`` / ``name_single[name_id]`` are one-element
    frozensets of the canonical objects.  Frozenset union copies entries
    *with their stored hashes*, so decoding unions these instead of
    rebuilding sets from raw objects: the recursive dataclass ``__hash__``
    of each expression runs once per corpus, not once per program."""

    __slots__ = (
        "pool", "expr_rank", "name_rank", "expr_single", "name_single",
        "_plans",
    )

    def __init__(self, pool: ExpressionPool) -> None:
        self.pool = pool
        self.expr_rank = pool.ranks()
        order = sorted(range(len(pool.names)), key=pool.names.__getitem__)
        self.name_rank = [0] * len(order)
        for rank, name_id in enumerate(order):
            self.name_rank[name_id] = rank
        self.expr_single = [frozenset((obj,)) for obj in pool.objects]
        self.name_single = [frozenset((name,)) for name in pool.names]
        self._plans: list[list | None] = [None] * len(pool.kind)

    def plan(self, eid: int) -> list:
        """The abstract-evaluation plan for expression ``eid``: a
        postorder instruction list ``(kind, arg, slot1, slot2)`` over a
        value stack, with repeated subexpressions evaluated once (the
        evaluation is pure, so dedup cannot change the result).  Built
        once per corpus -- interned expressions share plans across every
        program that mentions them."""
        plan = self._plans[eid]
        if plan is None:
            pool = self.pool
            slots: dict[int, int] = {}
            plan = []

            def visit(e: int) -> int:
                got = slots.get(e)
                if got is not None:
                    return got
                kind = pool.kind[e]
                a0, a1, a2 = pool.arg0[e], pool.arg1[e], pool.arg2[e]
                if kind == K_INT:
                    entry = (K_INT, pool.literals[a0], -1, -1)
                elif kind == K_VAR:
                    entry = (K_VAR, a0, -1, -1)
                elif kind == K_UN:
                    entry = (K_UN, UNARY_OPS[a0] == "-", visit(a1), -1)
                elif kind == K_BIN:
                    entry = (K_BIN, BINARY_OPS[a0], visit(a1), visit(a2))
                elif kind == K_INDEX:
                    entry = (K_INDEX, a0, visit(a1), -1)
                else:
                    entry = (K_UPDATE, a0, visit(a1), visit(a2))
                slot = len(plan)
                plan.append(entry)
                slots[e] = slot
                return slot

            visit(eid)
            self._plans[eid] = plan
        return plan


class ArenaSpace:
    """Per-program compile of the four bitset analyses from pool tables.

    The expression part mirrors
    :class:`~repro.dataflow.bitsets.ExpressionSpace` (same universe
    order, same gen/kill), the variable part mirrors
    :func:`~repro.dataflow.bitsets.liveness_problem`, and the site part
    :func:`~repro.dataflow.bitsets.reaching_problem`.  ``problems`` maps
    each analysis name, in solve order, to its compiled
    :class:`~repro.perf.bitset.BitsetProblem` and the decoder of its
    universe (AV and ANT share one, so masks they both produce decode
    once).
    """

    __slots__ = ("var_names", "var_pos", "problems")

    def __init__(
        self, arena: ProgramArena, pool: ExpressionPool, order: CorpusOrder
    ) -> None:
        n = arena.n
        node_ids = arena.csr.node_ids
        gen_ids = pool.gen_ids
        var_ids = pool.var_ids
        node_expr = arena.node_expr
        node_kind = arena.node_kind
        node_target = arena.node_target

        # -- expression universe (== sorted(graph.expressions(), key=repr))
        expr_seen: set[int] = set()
        var_seen: set[int] = set()
        for v in range(n):
            eid = node_expr[v]
            if eid >= 0:
                expr_seen.update(gen_ids[eid])
                var_seen.update(var_ids[eid])
            target = node_target[v]
            if target >= 0 and node_kind[v] == N_ASSIGN:
                var_seen.add(target)
        universe = sorted(expr_seen, key=order.expr_rank.__getitem__)
        ebit = {eid: i for i, eid in enumerate(universe)}
        kill_by_name: dict[int, int] = {}
        for i, eid in enumerate(universe):
            bit = 1 << i
            for name_id in var_ids[eid]:
                kill_by_name[name_id] = kill_by_name.get(name_id, 0) | bit
        egen = [0] * n
        ekill = [0] * n
        emask: dict[int, int] = {}
        for v in range(n):
            eid = node_expr[v]
            if eid >= 0:
                mask = emask.get(eid)
                if mask is None:
                    mask = 0
                    for sub in gen_ids[eid]:
                        mask |= 1 << ebit[sub]
                    emask[eid] = mask
                egen[v] = mask
            if node_kind[v] == N_ASSIGN:
                ekill[v] = kill_by_name.get(node_target[v], 0)
        efull = (1 << len(universe)) - 1

        # -- variable universe (== sorted(graph.variables()))
        var_order = sorted(var_seen, key=order.name_rank.__getitem__)
        self.var_names = [pool.names[name_id] for name_id in var_order]
        var_pos = {name_id: i for i, name_id in enumerate(var_order)}
        self.var_pos = var_pos
        lgen = [0] * n
        lkill = [0] * n
        lmask: dict[int, int] = {}
        for v in range(n):
            eid = node_expr[v]
            if eid >= 0:
                mask = lmask.get(eid)
                if mask is None:
                    mask = 0
                    for name_id in var_ids[eid]:
                        mask |= 1 << var_pos[name_id]
                    lmask[eid] = mask
                lgen[v] = mask
            if node_kind[v] == N_ASSIGN:
                lkill[v] = 1 << var_pos[node_target[v]]

        # -- reaching-definition sites (== reaching_problem's universe)
        start_id = node_ids[arena.csr.start]
        sites = [(name_id, start_id) for name_id in var_order]
        for v in range(n):
            if node_kind[v] == N_ASSIGN:
                site = (node_target[v], node_ids[v])
                if site[1] != start_id:
                    sites.append(site)
        name_rank = order.name_rank
        sites.sort(key=lambda s: (name_rank[s[0]], s[1]))
        sbit = {site: i for i, site in enumerate(sites)}
        by_var: dict[int, int] = {}
        for site, i in sbit.items():
            by_var[site[0]] = by_var.get(site[0], 0) | (1 << i)
        rgen = [0] * n
        rkill = [0] * n
        start_mask = 0
        for name_id in var_order:
            start_mask |= 1 << sbit[(name_id, start_id)]
        for v in range(n):
            kind = node_kind[v]
            if kind == N_START:
                rgen[v] = start_mask
            elif kind == N_ASSIGN:
                rgen[v] = 1 << sbit[(node_target[v], node_ids[v])]
                rkill[v] = by_var[node_target[v]]

        expr_dec = MaskDecoder(
            [pool.objects[eid] for eid in universe],
            [order.expr_single[eid] for eid in universe],
        )
        var_dec = MaskDecoder(
            self.var_names,
            [order.name_single[name_id] for name_id in var_order],
        )
        site_dec = MaskDecoder(
            [(pool.names[name_id], nid) for name_id, nid in sites]
        )
        self.problems: dict[str, tuple[BitsetProblem, MaskDecoder]] = {
            "available": (
                BitsetProblem("forward", False, False, egen, ekill, 0, efull),
                expr_dec,
            ),
            "anticipatable": (
                BitsetProblem("backward", False, True, egen, ekill, 0, efull),
                expr_dec,
            ),
            "liveness": (
                BitsetProblem("backward", True, True, lgen, lkill, 0, 0),
                var_dec,
            ),
            "reaching": (
                BitsetProblem("forward", True, True, rgen, rkill, 0, 0),
                site_dec,
            ),
        }


# -- constant propagation ----------------------------------------------------


def _eval_plan(plan: list, vec: tuple, var_pos: dict):
    """Run one evaluation plan against a variable vector; exactly
    :func:`~repro.dataflow.lattice.eval_abstract` on the interned
    expression (BOTTOM absorbing below TOP, concrete folds through
    ``apply_binop``, would-trap folds to TOP)."""
    vals: list = [None] * len(plan)
    i = 0
    for kind, a, i1, i2 in plan:
        if kind == K_INT:
            v = a
        elif kind == K_VAR:
            v = vec[var_pos[a]]
        elif kind == K_BIN:
            left = vals[i1]
            right = vals[i2]
            if left is BOTTOM or right is BOTTOM:
                v = BOTTOM
            elif left is TOP or right is TOP:
                v = TOP
            else:
                try:
                    v = apply_binop(a, left, right)
                except InterpError:
                    v = TOP
        elif kind == K_UN:
            v = vals[i1]
            if v is not BOTTOM and v is not TOP:
                v = -v if a else (0 if v else 1)
        elif kind == K_INDEX:
            array = vec[var_pos[a]]
            index = vals[i1]
            v = BOTTOM if (array is BOTTOM or index is BOTTOM) else TOP
        else:  # K_UPDATE
            array = vec[var_pos[a]]
            index = vals[i1]
            value = vals[i2]
            v = (
                BOTTOM
                if (array is BOTTOM or index is BOTTOM or value is BOTTOM)
                else TOP
            )
        vals[i] = v
        i += 1
    return vals[-1]


def arena_constprop(
    arena: ProgramArena,
    pool: ExpressionPool,
    space: ArenaSpace,
    order: CorpusOrder | None = None,
    counter: WorkCounter | None = None,
    refine_predicates: bool = False,
) -> CFGConstants:
    """The Kildall vector algorithm over arena tables.

    Result-identical to
    :func:`~repro.opt.cfg_constprop.cfg_constant_propagation`: same
    per-edge vectors (the fixpoint is unique), same use/rhs views, same
    dead-node set, keyed by original CFG ids."""
    if order is None:
        order = CorpusOrder(pool)
    csr = arena.csr
    n, m = csr.n, csr.m
    node_kind = arena.node_kind
    node_expr = arena.node_expr
    node_target = arena.node_target
    pool_kind = pool.kind
    arg0, arg1, arg2 = pool.arg0, pool.arg1, pool.arg2
    literals = pool.literals
    var_pos = space.var_pos
    variables = space.var_names
    k = len(variables)
    bottom = (BOTTOM,) * k
    top = (TOP,) * k
    plan_of = order.plan
    eval_plan = _eval_plan

    t_label = pool.name_index.get("T", -2)
    f_label = pool.name_index.get("F", -2)

    def implied_bindings(eid: int, taken: bool):
        if pool_kind[eid] != K_BIN:
            return None
        wanted = "==" if taken else "!="
        if BINARY_OPS[arg0[eid]] != wanted:
            return None
        left, right = arg1[eid], arg2[eid]
        if pool_kind[left] == K_VAR and pool_kind[right] == K_INT:
            return (arg0[left], literals[arg0[right]])
        if pool_kind[left] == K_INT and pool_kind[right] == K_VAR:
            return (arg0[right], literals[arg0[left]])
        return None

    def refine(eid: int, e: int, incoming: tuple) -> tuple:
        binding = implied_bindings(eid, arena.edge_label[e] == t_label)
        if binding is None:
            return incoming
        out = list(incoming)
        out[var_pos[binding[0]]] = binding[1]
        return tuple(out)

    succ_off, succ_edge = csr.succ_off, csr.succ_edge
    pred_off, pred_edge = csr.pred_off, csr.pred_edge
    edge_dst = csr.edge_dst

    facts: list[tuple] = [bottom] * m
    rpo = rpo_positions(csr, True)[0]
    worklist = deque(rpo)
    queued = bytearray(n)
    for v in rpo:
        queued[v] = 1
    vector_entries = 0
    while worklist:
        v = worklist.popleft()
        queued[v] = 0
        vector_entries += k
        kind = node_kind[v]
        o0, o1 = succ_off[v], succ_off[v + 1]
        switch_updates = None
        if kind == N_START:
            out_vec = top
        elif kind == N_MERGE:
            combined = None
            for i in range(pred_off[v], pred_off[v + 1]):
                vector = facts[pred_edge[i]]
                if vector is bottom:
                    continue  # join with bottom is the identity
                if combined is None:
                    combined = list(vector)
                    continue
                for j, value in enumerate(vector):
                    cur = combined[j]
                    if cur is value or value is BOTTOM or cur is TOP:
                        continue
                    if cur is BOTTOM:
                        combined[j] = value
                    elif value is TOP or cur != value:
                        combined[j] = TOP
            out_vec = bottom if combined is None else tuple(combined)
        else:
            incoming = facts[pred_edge[pred_off[v]]]
            if incoming == bottom:
                out_vec = bottom
            elif kind == N_ASSIGN:
                value = eval_plan(
                    plan_of(node_expr[v]), incoming, var_pos
                )
                out = list(incoming)
                out[var_pos[node_target[v]]] = value
                out_vec = tuple(out)
            elif kind == N_SWITCH:
                eid = node_expr[v]
                predicate = eval_plan(plan_of(eid), incoming, var_pos)
                if predicate is not BOTTOM and predicate is not TOP:
                    predicate = int(bool(predicate))
                switch_updates = []
                for i in range(o0, o1):
                    e = succ_edge[i]
                    if predicate is TOP:
                        out_vec = (
                            refine(eid, e, incoming)
                            if refine_predicates
                            else incoming
                        )
                    elif predicate is BOTTOM:
                        out_vec = bottom
                    else:
                        taken = t_label if predicate else f_label
                        if arena.edge_label[e] == taken:
                            out_vec = (
                                refine(eid, e, incoming)
                                if refine_predicates
                                else incoming
                            )
                        else:
                            out_vec = bottom
                    switch_updates.append((e, out_vec))
            else:  # PRINT / NOP / END pass through
                out_vec = incoming
        if switch_updates is None:
            for i in range(o0, o1):
                e = succ_edge[i]
                if facts[e] != out_vec:
                    facts[e] = out_vec
                    w = edge_dst[e]
                    if not queued[w]:
                        queued[w] = 1
                        worklist.append(w)
        else:
            for e, out_vec in switch_updates:
                if facts[e] != out_vec:
                    facts[e] = out_vec
                    w = edge_dst[e]
                    if not queued[w]:
                        queued[w] = 1
                        worklist.append(w)
    if counter is not None:
        counter.tick("arena_vector_entries", vector_entries)

    result = CFGConstants(
        variables=list(variables),
        edge_vectors={csr.edge_ids[e]: facts[e] for e in range(m)},
    )
    pool_var_ids = pool.var_ids
    names = pool.names
    for v in range(n):
        kind = node_kind[v]
        if kind == N_START or kind == N_END or kind == N_MERGE or kind == N_NOP:
            continue
        nid = csr.node_ids[v]
        in_vector = facts[pred_edge[pred_off[v]]]
        unreached = in_vector == bottom
        if unreached:
            result.dead_nodes.add(nid)
        eid = node_expr[v]
        if eid >= 0:
            for name_id in pool_var_ids[eid]:
                result.use_values[(nid, names[name_id])] = in_vector[
                    var_pos[name_id]
                ]
            result.rhs_values[nid] = (
                BOTTOM
                if unreached
                else eval_plan(plan_of(eid), in_vector, var_pos)
            )
    return result


# -- fused drivers -----------------------------------------------------------


def analyze_arena(
    arena: ProgramArena,
    pool: ExpressionPool,
    order: CorpusOrder | None = None,
    counter: WorkCounter | None = None,
) -> dict:
    """All five core analyses of one arena program, decoded to the exact
    shapes the object pipeline produces (``{edge_id: frozenset}`` per
    bitset analysis, :class:`CFGConstants` for constprop)."""
    if order is None:
        order = CorpusOrder(pool)
    space = ArenaSpace(arena, pool, order)
    csr = arena.csr
    result = {
        name: decoder.decode_all(solve_bitset(csr, problem, counter), csr)
        for name, (problem, decoder) in space.problems.items()
    }
    result["constprop"] = arena_constprop(
        arena, pool, space, order=order, counter=counter
    )
    return result


def analyze_corpus(
    corpus,
    counter: WorkCounter | None = None,
) -> dict[str, dict]:
    """The fused batch mode: one sweep over every program of the corpus,
    all five analyses each, sharing the corpus pool and its precomputed
    orders.  Does no interning (asserted by the WorkCounter tests)."""
    order = CorpusOrder(corpus.pool)
    results: dict[str, dict] = {}
    for i, arena in enumerate(corpus.programs):
        label = arena.label or f"program-{i}"
        results[label] = analyze_arena(
            arena, corpus.pool, order=order, counter=counter
        )
        if counter is not None:
            counter.tick("arena_programs_solved")
    return results
