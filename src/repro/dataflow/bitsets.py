"""Compilers from the concrete dataflow analyses to bitset problems.

Each ``*_bitsets`` function fixes a deterministic numbering of the fact
universe (sorted variables, sorted ``(var, node)`` definition sites,
expressions sorted by their repr), packs every node's gen/kill set into
an int mask, and hands the result to
:func:`repro.perf.bitset.solve_bitset`.  The decoded answers are
*identical* to the generic :func:`repro.dataflow.solver.solve_dataflow`
on the same problem: both iterate a monotone transfer on a finite
lattice to its (unique) fixpoint.

The four expression analyses (AV/PAV/ANT/PAN) share one
:class:`ExpressionSpace`: the universe, the per-node gen masks and the
per-variable kill masks are the same for all four -- only the meet, the
kill/gen order and the initial value differ -- so the expression-tree
walk and the repr sort are paid once per graph, not once per analysis.
The space also carries the shared :class:`~repro.perf.bitset.MaskDecoder`
so a fact mask decoded by AV is a cache hit when ANT produces it too.

The expression solvers assume the normalized CFG shape the pipeline
validates (only ``MERGE`` nodes have multiple in-edges, only ``SWITCH``
nodes have multiple out-edges -- what :func:`repro.cfg.builder.build_cfg`
produces); the generic solver remains the oracle and the fallback for
exotic graphs.  Liveness and reaching definitions meet over *all*
in-edges exactly as their generic formulations do, so they carry no such
assumption.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cfg.graph import CFG, NodeKind
from repro.dataflow.available import gen_expressions
from repro.lang.ast_nodes import Expr, expr_vars
from repro.perf.bitset import (
    BitsetProblem,
    MaskDecoder,
    decode_masks,
    solve_bitset,
)
from repro.util.counters import WorkCounter

if TYPE_CHECKING:
    from repro.dataflow.reaching import Definition
    from repro.perf.csr import CSRGraph


def _csr_of(graph: CFG, csr: "CSRGraph | None") -> "CSRGraph":
    if csr is not None:
        return csr.check()
    from repro.perf.csr import build_csr

    return build_csr(graph)


def _mask(items: Iterable, index: dict) -> int:
    mask = 0
    for item in items:
        mask |= 1 << index[item]
    return mask


def liveness_problem(
    graph: CFG,
    csr: "CSRGraph",
    live_out: frozenset[str] = frozenset(),
) -> tuple[BitsetProblem, list[str]]:
    """Compile liveness to a :class:`BitsetProblem`; returns the problem
    and the universe its bit numbering is over.  Shared by the flat
    solver below and the hierarchical/incremental region solvers, so
    both sides number facts identically."""
    universe = sorted(graph.variables() | live_out)
    index = {var: i for i, var in enumerate(universe)}
    n = csr.n
    gen = [0] * n
    kill = [0] * n
    for v, nid in enumerate(csr.node_ids):
        node = graph.node(nid)
        gen[v] = _mask(node.uses(), index)
        kill[v] = _mask(node.defs(), index)
    problem = BitsetProblem(
        direction="backward",
        meet_is_union=True,
        kill_then_gen=True,
        gen=gen,
        kill=kill,
        boundary_mask=_mask(live_out, index),
        initial_mask=0,
    )
    return problem, universe


def liveness_bitsets(
    graph: CFG,
    live_out: frozenset[str] = frozenset(),
    counter: WorkCounter | None = None,
    csr: "CSRGraph | None" = None,
) -> dict[int, frozenset[str]]:
    """Live variables per edge -- bitset twin of
    :func:`repro.dataflow.liveness.live_variables`."""
    csr = _csr_of(graph, csr)
    problem, universe = liveness_problem(graph, csr, live_out)
    facts = solve_bitset(csr, problem, counter)
    return decode_masks(facts, csr, universe)


def reaching_problem(
    graph: CFG,
    csr: "CSRGraph",
) -> tuple[BitsetProblem, list[tuple[str, int]]]:
    """Compile reaching definitions to a :class:`BitsetProblem`; returns
    the problem and its ``(var, node)`` site universe."""
    variables = graph.variables()
    sites: set[tuple[str, int]] = {(v, graph.start) for v in variables}
    for node in graph.assign_nodes():
        assert node.target is not None
        sites.add((node.target, node.id))
    universe = sorted(sites)
    index = {site: i for i, site in enumerate(universe)}
    # All definition sites of one variable, for the kill mask.
    by_var: dict[str, int] = {}
    for var, nid in universe:
        by_var[var] = by_var.get(var, 0) | (1 << index[(var, nid)])

    n = csr.n
    gen = [0] * n
    kill = [0] * n
    for v, nid in enumerate(csr.node_ids):
        node = graph.node(nid)
        if node.kind is NodeKind.START:
            gen[v] = _mask(((var, nid) for var in variables), index)
        elif node.kind is NodeKind.ASSIGN:
            assert node.target is not None
            gen[v] = 1 << index[(node.target, nid)]
            kill[v] = by_var[node.target]
    problem = BitsetProblem(
        direction="forward",
        meet_is_union=True,
        kill_then_gen=True,
        gen=gen,
        kill=kill,
        boundary_mask=0,
        initial_mask=0,
    )
    return problem, universe


def reaching_bitsets(
    graph: CFG,
    counter: WorkCounter | None = None,
    csr: "CSRGraph | None" = None,
) -> "dict[int, frozenset[Definition]]":
    """Reaching definitions per edge -- bitset twin of
    :func:`repro.dataflow.reaching.reaching_definitions`."""
    csr = _csr_of(graph, csr)
    problem, universe = reaching_problem(graph, csr)
    facts = solve_bitset(csr, problem, counter)
    return decode_masks(facts, csr, universe)


class ExpressionSpace:
    """The shared compile of the four expression analyses over one graph.

    ``universe`` numbers the non-trivial expressions (sorted by repr, so
    the numbering is deterministic), ``gen[v]`` is the mask of
    expressions dense node ``v`` computes, and ``kill[v]`` the mask an
    assignment at ``v`` invalidates (every expression reading the
    target).  AV, PAV, ANT and PAN differ only in direction, meet,
    kill/gen order and the initial mask -- never in these tables.
    """

    __slots__ = ("csr", "universe", "gen", "kill", "full", "decoder")

    def __init__(self, graph: CFG, csr: "CSRGraph") -> None:
        self.csr = csr
        universe = sorted(graph.expressions(), key=repr)
        self.universe: list[Expr] = universe
        index = {expr: i for i, expr in enumerate(universe)}
        kill_by_var: dict[str, int] = {}
        for i, expr in enumerate(universe):
            bit = 1 << i
            for var in expr_vars(expr):
                kill_by_var[var] = kill_by_var.get(var, 0) | bit
        n = csr.n
        gen = [0] * n
        kill = [0] * n
        for v, nid in enumerate(csr.node_ids):
            node = graph.node(nid)
            gen[v] = _mask(gen_expressions(node), index)
            if node.kind is NodeKind.ASSIGN:
                assert node.target is not None
                kill[v] = kill_by_var.get(node.target, 0)
        self.gen = gen
        self.kill = kill
        self.full = (1 << len(universe)) - 1
        self.decoder = MaskDecoder(universe)


def expression_space(
    graph: CFG, csr: "CSRGraph | None" = None
) -> ExpressionSpace:
    """Compile ``graph``'s expression universe once for AV/PAV/ANT/PAN."""
    return ExpressionSpace(graph, _csr_of(graph, csr))


def expression_problem(
    graph: CFG,
    csr: "CSRGraph | None" = None,
    direction: str = "forward",
    must: bool = True,
    space: ExpressionSpace | None = None,
) -> tuple[BitsetProblem, ExpressionSpace]:
    """The compiled bitset problem for one expression analysis
    (``forward``+``must`` = AV, ``backward``+``must`` = ANT, ...), plus
    the shared :class:`ExpressionSpace` for decoding.  This is the same
    problem :func:`available_bitsets` et al. solve -- exposed so
    alternative solvers (the hierarchical region solver) can be run on
    byte-identical inputs."""
    if space is None:
        space = expression_space(graph, csr)
    problem = BitsetProblem(
        direction=direction,
        meet_is_union=not must,
        kill_then_gen=(direction == "backward"),
        gen=space.gen,
        kill=space.kill,
        boundary_mask=0,
        initial_mask=space.full if must else 0,
    )
    return problem, space


def _solve_expressions(
    graph: CFG,
    counter: WorkCounter | None,
    csr: "CSRGraph | None",
    space: ExpressionSpace | None,
    direction: str,
    must: bool,
) -> dict[int, frozenset[Expr]]:
    """Shared driver for the four expression analyses.

    ``kill_then_gen`` differs by direction: availability kills the gens
    of a self-referential assignment (``x := x + 1`` leaves ``x + 1``
    unavailable *after*), anticipatability keeps them (the computation
    precedes the kill, so ``x + 1`` *is* anticipatable on entry).
    """
    problem, space = expression_problem(graph, csr, direction, must, space)
    facts = solve_bitset(space.csr, problem, counter)
    return space.decoder.decode_all(facts, space.csr)


def available_bitsets(
    graph: CFG,
    counter: WorkCounter | None = None,
    csr: "CSRGraph | None" = None,
    must: bool = True,
    space: ExpressionSpace | None = None,
) -> dict[int, frozenset[Expr]]:
    """AV (``must=True``) / PAV per edge -- bitset twin of
    :func:`repro.dataflow.available.available_expressions`."""
    return _solve_expressions(graph, counter, csr, space, "forward", must)


def anticipatable_bitsets(
    graph: CFG,
    counter: WorkCounter | None = None,
    csr: "CSRGraph | None" = None,
    must: bool = True,
    space: ExpressionSpace | None = None,
) -> dict[int, frozenset[Expr]]:
    """ANT (``must=True``) / PAN per edge -- bitset twin of
    :func:`repro.dataflow.anticipatable.anticipatable_expressions`."""
    return _solve_expressions(graph, counter, csr, space, "backward", must)


def core_dataflow(graph: CFG, counter: WorkCounter | None = None) -> dict:
    """The five core analyses the fused arena sweep
    (:func:`repro.arena.kernels.analyze_arena`) replaces, computed by the
    object pipeline over one shared snapshot: the four bitset kernels
    (each compiling its own expression space, as the registered passes
    do) plus Kildall vector constant propagation.  This is the
    ``arena-dataflow`` oracle and the other side of every arena
    equivalence check."""
    from repro.opt.cfg_constprop import cfg_constant_propagation
    from repro.perf.csr import build_csr

    csr = build_csr(graph)
    return {
        "available": available_bitsets(graph, counter, csr=csr),
        "anticipatable": anticipatable_bitsets(graph, counter, csr=csr),
        "liveness": liveness_bitsets(graph, counter=counter, csr=csr),
        "reaching": reaching_bitsets(graph, counter, csr=csr),
        "constprop": cfg_constant_propagation(graph, counter),
    }
