"""Interval range analysis: the engine's *splitting* client.

This is the client the sigma half of the engine exists for: every
variable mentioned in a switch predicate gains information along each
branch edge (``x <= 4`` on the false edge of ``x > 4``), so the
splitting strategy names those (edge, variable) pairs and the engine
gives each refined live range its own sparse name.

The lattice is the finite ladder-interval lattice of
:mod:`repro.sparse.interval` -- deterministic least fixpoints, no
widening -- so the sparse result is *equal* to the dense per-edge
reference (:func:`range_analysis_reference`) at every use site, switch
predicate, and infeasible-edge verdict, which the declared
``sparse-range`` twin (``tests/test_sparse_framework.py`` and the
``twin`` fuzz oracle) pins across the corpus.

Products: per-use intervals, per-switch predicate intervals, and the
set of *range-dead* edges (branch arms provably never taken) that lint
rules R012 and R013 report on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cfg.graph import CFG, NodeKind
from repro.lang.ast_nodes import BinOp, Expr, IntLit, UnOp, Var
from repro.sparse import interval as iv
from repro.sparse.engine import (
    SparseForm,
    SplittingStrategy,
    build_sparse_form,
    solve,
)
from repro.sparse.interval import Interval
from repro.util.counters import WorkCounter

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_COMPARISONS = frozenset(_FLIP)


def eval_interval(expr: Expr, env) -> Interval:
    """Sound interval for ``expr`` under variable intervals ``env``."""
    if isinstance(expr, IntLit):
        return iv.const(expr.value)
    if isinstance(expr, Var):
        return env.get(expr.name, iv.TOP)
    if isinstance(expr, UnOp):
        return iv.unop(expr.op, eval_interval(expr.operand, env))
    if isinstance(expr, BinOp):
        return iv.binop(
            expr.op,
            eval_interval(expr.left, env),
            eval_interval(expr.right, env),
        )
    # Index / Update: array cells are untracked, but an empty operand
    # still means "unreachable here".
    for var in sorted(expr_vars_of(expr)):
        if env.get(var, iv.TOP).is_empty:
            return iv.EMPTY
    return iv.TOP


def expr_vars_of(expr: Expr):
    from repro.lang.ast_nodes import expr_vars

    return expr_vars(expr)


def _exclude_zero(value: Interval) -> Interval:
    """Trim a zero endpoint (``v != 0``); interior zeros are untrimmable."""
    if value.is_empty:
        return value
    lo, hi = value.lo, value.hi
    if lo == 0 == hi:
        return iv.EMPTY
    if lo == 0:
        lo = 1
    if hi == 0:
        hi = -1
    return Interval(lo, hi)


def _exclude_const(value: Interval, c: int) -> Interval:
    """Trim endpoint ``c`` (``v != c``)."""
    if value.is_empty:
        return value
    lo, hi = value.lo, value.hi
    if lo == c == hi:
        return iv.EMPTY
    if lo == c:
        lo = c + 1
    if hi == c:
        hi = c - 1
    return Interval(lo, hi)


def _compare_constraint(op: str, other: Interval) -> Interval | None:
    """The interval ``v`` must lie in for ``v op other`` to hold."""
    if other.is_empty:
        return iv.EMPTY
    if op == "<":
        return Interval(-iv.INF, other.hi - 1)
    if op == "<=":
        return Interval(-iv.INF, other.hi)
    if op == ">":
        return Interval(other.lo + 1, iv.INF)
    if op == ">=":
        return Interval(other.lo, iv.INF)
    if op == "==":
        return Interval(other.lo, other.hi)
    return None  # != carries no interval constraint (handled separately)


def refine_env(pred: Expr, taken: bool, env) -> dict[str, Interval]:
    """Refined intervals for variables constrained by branching on
    ``pred`` with outcome ``taken`` (monotone in ``env``)."""
    out: dict[str, Interval] = {}

    def current(var: str) -> Interval:
        return out.get(var, env.get(var, iv.TOP))

    def narrow(var: str, constraint: Interval) -> None:
        out[var] = iv.meet(current(var), constraint)

    def walk(expr: Expr, holds: bool) -> None:
        if isinstance(expr, Var):
            if holds:
                out[expr.name] = _exclude_zero(current(expr.name))
            else:
                narrow(expr.name, Interval(0, 0))
            return
        if isinstance(expr, UnOp) and expr.op == "!":
            walk(expr.operand, not holds)
            return
        if not isinstance(expr, BinOp):
            return
        if expr.op == "&&" and holds:
            walk(expr.left, True)
            walk(expr.right, True)
            return
        if expr.op == "||" and not holds:
            walk(expr.left, False)
            walk(expr.right, False)
            return
        if expr.op not in _COMPARISONS:
            return
        op = expr.op
        if not holds:
            # !(a < b) == a >= b; !(a == b) == a != b; etc.
            op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
                  "==": "!=", "!=": "=="}[op]
        for var_side, other_side, vop in (
            (expr.left, expr.right, op),
            (expr.right, expr.left, _FLIP[op]),
        ):
            if not isinstance(var_side, Var):
                continue
            other = eval_interval(other_side, env)
            if vop == "!=":
                if other.is_constant:
                    out[var_side.name] = _exclude_const(
                        current(var_side.name), other.lo
                    )
                continue
            constraint = _compare_constraint(vop, other)
            if constraint is not None:
                narrow(var_side.name, constraint)

    walk(pred, taken)
    return out


class RangeStrategy(SplittingStrategy):
    """Split every predicate variable along each switch out-edge."""

    def splits_on(self, graph: CFG, edge):
        node = graph.node(edge.src)
        if node.kind is NodeKind.SWITCH:
            assert node.expr is not None
            return sorted(expr_vars_of(node.expr))
        return ()


class _RangeClient:
    bottom = iv.EMPTY

    def entry_value(self, graph: CFG, var: str) -> Interval:
        return iv.TOP

    def join(self, a: Interval, b: Interval) -> Interval:
        return iv.join(a, b)

    def transfer_def(self, graph: CFG, node, var: str, inputs) -> Interval:
        assert node.expr is not None
        return eval_interval(node.expr, inputs)

    def transfer_sigma(self, graph: CFG, edge, var, value, inputs) -> Interval:
        node = graph.node(edge.src)
        assert node.expr is not None
        refined = refine_env(node.expr, edge.label == "T", inputs)
        constraint = refined.get(var)
        if constraint is None:
            return value
        return iv.meet(value, constraint)


@dataclass
class RangeResult:
    """Solved ranges plus the branch facts the lint rules consume.

    * ``use_values[(node, var)]`` -- interval observed by a use site;
    * ``switch_values[node]`` -- predicate interval at each reachable
      switch;
    * ``dead_edges`` -- out-edges of switches provably never taken
      (constant predicate, or a refinement that is empty).
    """

    graph: CFG
    use_values: dict[tuple[int, str], Interval] = field(default_factory=dict)
    switch_values: dict[int, Interval] = field(default_factory=dict)
    dead_edges: frozenset[int] = frozenset()
    form: SparseForm | None = None

    def facts(self):
        """The order-insensitive comparison surface (reference twin and
        fallback comparator both compare this)."""
        return (
            sorted(self.use_values.items()),
            sorted(self.switch_values.items()),
            tuple(sorted(self.dead_edges)),
        )


def _dead_switch_edges(graph, switch_values, sigma_empty) -> frozenset[int]:
    dead: set[int] = set()
    for nid, pred in sorted(switch_values.items()):
        verdict = iv.truth(pred)
        for edge in graph.out_edges(nid):
            taken = edge.label == "T"
            if pred.is_empty:
                dead.add(edge.id)
            elif verdict is not None and verdict != taken:
                dead.add(edge.id)
            elif sigma_empty(edge):
                dead.add(edge.id)
    return frozenset(dead)


def range_analysis(
    graph: CFG, counter: WorkCounter | None = None
) -> RangeResult:
    """Sparse interval analysis with branch refinement."""
    counter = counter if counter is not None else WorkCounter()
    form = build_sparse_form(graph, RangeStrategy(), counter=counter)
    values = solve(form, _RangeClient(), counter=counter)

    use_values = {key: values[name] for key, name in form.use_names.items()}
    switch_values: dict[int, Interval] = {}
    reachable = graph.reachable_from_start()
    for nid in sorted(reachable):
        node = graph.node(nid)
        if node.kind is NodeKind.SWITCH:
            env = {
                var: use_values[(nid, var)] for var in sorted(node.uses())
            }
            switch_values[nid] = eval_interval(node.expr, env)

    def sigma_empty(edge) -> bool:
        return any(
            values[fresh].is_empty and not values[src].is_empty
            for (eid, _var), (fresh, src) in form.sigmas.items()
            if eid == edge.id
        )

    dead = _dead_switch_edges(graph, switch_values, sigma_empty)
    return RangeResult(graph, use_values, switch_values, dead, form)


def range_analysis_reference(
    graph: CFG, counter: WorkCounter | None = None
) -> RangeResult:
    """Dense per-edge reference twin: one full variable environment per
    CFG edge, joined pointwise at nodes, refined on switch out-edges.
    Same lattice, same transfer functions, dense iteration -- the oracle
    the sparse client must equal."""
    counter = counter if counter is not None else WorkCounter()
    variables = sorted(graph.variables())
    empty_env = {var: iv.EMPTY for var in variables}
    entry_env = {var: iv.TOP for var in variables}
    edge_env: dict[int, dict[str, Interval]] = {
        eid: dict(empty_env) for eid in graph.edges
    }

    def in_env(nid: int) -> dict[str, Interval]:
        if nid == graph.start:
            return dict(entry_env)
        env = dict(empty_env)
        for edge in graph.in_edges(nid):
            incoming = edge_env[edge.id]
            for var in variables:
                env[var] = iv.join(env[var], incoming[var])
        return env

    work = deque(sorted(graph.nodes))
    pending = set(work)
    while work:
        nid = work.popleft()
        pending.discard(nid)
        counter.tick("dense_visits", max(1, len(variables)))
        node = graph.node(nid)
        env = in_env(nid)
        if node.kind is NodeKind.ASSIGN:
            env[node.target] = eval_interval(node.expr, env)
        for edge in graph.out_edges(nid):
            out = env
            if node.kind is NodeKind.SWITCH:
                refined = refine_env(node.expr, edge.label == "T", env)
                if refined:
                    out = dict(env)
                    out.update(refined)
            if out != edge_env[edge.id]:
                edge_env[edge.id] = dict(out)
                if edge.dst not in pending:
                    pending.add(edge.dst)
                    work.append(edge.dst)

    reachable = graph.reachable_from_start()
    use_values: dict[tuple[int, str], Interval] = {}
    switch_values: dict[int, Interval] = {}
    for nid in sorted(reachable):
        node = graph.node(nid)
        env = in_env(nid)
        for var in sorted(node.uses()):
            use_values[(nid, var)] = env[var]
        if node.kind is NodeKind.SWITCH:
            switch_values[nid] = eval_interval(node.expr, env)

    def sigma_empty(edge) -> bool:
        node = graph.node(edge.src)
        env = in_env(edge.src)
        refined = refine_env(node.expr, edge.label == "T", env)
        return any(
            value.is_empty and not env[var].is_empty
            for var, value in sorted(refined.items())
        )

    dead = _dead_switch_edges(graph, switch_values, sigma_empty)
    return RangeResult(graph, use_values, switch_values, dead, None)
