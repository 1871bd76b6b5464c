"""The degradation policy: fast kernels fail soft, onto their oracles.

PR 2 left every fast path (CSR kernels, the bitset dataflow solver) with
a legacy ``*_reference`` twin that the 204-program equivalence suite
holds byte-identical.  This module turns those twins from test oracles
into *runtime* oracles: a :class:`DegradationPolicy` installed on an
:class:`~repro.pipeline.manager.AnalysisManager` wraps every pass body,
and when a fast kernel raises -- or, with ``cross_check=True``, returns
something its oracle disagrees with -- the policy substitutes the oracle
result, records a ``repro.incident/1``
(:mod:`repro.robust.incidents`), and lets the run continue.  Only a
pass with no registered oracle escalates to
:class:`~repro.robust.errors.AnalysisError`.

The oracle table (:func:`default_oracles`) covers exactly the passes
whose fast path has a reference twin: ``dfs``, ``dom``, ``pdom``,
``cycle-equiv``, ``sese`` (rebuilt from the reference substrates),
``liveness``, ``reaching``, ``available``, ``pavailable``,
``region-summaries``, ``arena-dataflow`` (the fused arena solve
degrades onto the object-graph five-pass menu it replaces), ``defuse``
(the sparse-engine projection degrades onto the dense
reaching-definitions construction), and the sparse clients
``sparse-range``, ``sparse-taint`` and ``ntscd`` (dense / brute-force
reference twins).
:func:`results_equal` knows how to compare each pass's result shape --
the same comparisons the equivalence suite makes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from repro.robust.errors import (
    AnalysisError,
    PassTimeout,
    ReproError,
    error_record,
    graph_fingerprint,
)
from repro.robust.incidents import IncidentLog
from repro.robust.watchdog import Deadline

if TYPE_CHECKING:
    from repro.cfg.graph import CFG
    from repro.pipeline.manager import AnalysisManager, PassSpec
    from repro.util.counters import WorkCounter

#: An oracle body has the same calling convention as a pass body.
OracleFn = Callable[["CFG", Mapping[str, object], "WorkCounter"], object]


# -- oracle registry ---------------------------------------------------------


def _oracle_dfs(graph, deps, counter):
    from repro.graphs.dfs import depth_first_search

    return depth_first_search([graph.start], graph.succs)


def _oracle_dom(graph, deps, counter):
    from repro.graphs.dominance import edge_dominators_reference

    return edge_dominators_reference(graph)


def _oracle_pdom(graph, deps, counter):
    from repro.graphs.dominance import edge_postdominators_reference

    return edge_postdominators_reference(graph)


def _oracle_cycle_equiv(graph, deps, counter):
    from repro.controldep.cycle_equiv import cycle_equivalence_reference

    return cycle_equivalence_reference(graph, counter)


def _oracle_sese(graph, deps, counter):
    from repro.controldep.cycle_equiv import cycle_equivalence_reference
    from repro.controldep.sese import ProgramStructure
    from repro.graphs.dominance import (
        edge_dominators_reference,
        edge_postdominators_reference,
    )

    return ProgramStructure(
        graph,
        dom=edge_dominators_reference(graph),
        pdom=edge_postdominators_reference(graph),
        edge_class=cycle_equivalence_reference(graph),
        counter=counter,
    )


def _oracle_liveness(graph, deps, counter):
    from repro.dataflow.liveness import live_variables_reference

    return live_variables_reference(graph, counter=counter)


def _oracle_reaching(graph, deps, counter):
    from repro.dataflow.reaching import reaching_definitions_reference

    return reaching_definitions_reference(graph, counter)


def _oracle_available(graph, deps, counter):
    from repro.dataflow.available import available_expressions_reference

    return available_expressions_reference(graph, counter)


def _oracle_pavailable(graph, deps, counter):
    from repro.dataflow.available import (
        partially_available_expressions_reference,
    )

    return partially_available_expressions_reference(graph, counter)


def _oracle_region_summaries(graph, deps, counter):
    """Flat-bitset twin of the hierarchical region-summary solve: the
    same four problems over the same CSR, solved by the plain fixpoint
    (no region tree involved)."""
    from repro.perf.bitset import solve_bitset
    from repro.perf.csr import build_csr
    from repro.regions.hierarchical import core_problems

    csr = build_csr(graph)
    problems = core_problems(graph, csr)
    out = {}
    for name, problem in sorted(problems.items()):
        masks = solve_bitset(csr, problem)
        out[name] = {csr.edge_ids[e]: masks[e] for e in range(csr.m)}
    return out


def _oracle_arena_dataflow(graph, deps, counter):
    """Object-graph twin of the fused arena solve: the same five-analysis
    menu over the flat object pipeline."""
    from repro.dataflow.bitsets import core_dataflow

    return core_dataflow(graph, counter=counter)


def _oracle_defuse(graph, deps, counter):
    from repro.defuse.chains import build_def_use_chains_reference

    return build_def_use_chains_reference(graph, counter)


def _oracle_sparse_range(graph, deps, counter):
    from repro.sparse.range_analysis import range_analysis_reference

    return range_analysis_reference(graph, counter)


def _oracle_sparse_taint(graph, deps, counter):
    from repro.sparse.taint import taint_analysis_reference

    return taint_analysis_reference(graph, counter=counter)


def _oracle_ntscd(graph, deps, counter):
    from repro.controldep.ntscd import ntscd_reference

    return ntscd_reference(graph, counter)


_ORACLES: dict[str, OracleFn] = {
    "dfs": _oracle_dfs,
    "dom": _oracle_dom,
    "pdom": _oracle_pdom,
    "cycle-equiv": _oracle_cycle_equiv,
    "sese": _oracle_sese,
    "liveness": _oracle_liveness,
    "reaching": _oracle_reaching,
    "available": _oracle_available,
    "pavailable": _oracle_pavailable,
    "region-summaries": _oracle_region_summaries,
    "arena-dataflow": _oracle_arena_dataflow,
    "defuse": _oracle_defuse,
    "sparse-range": _oracle_sparse_range,
    "sparse-taint": _oracle_sparse_taint,
    "ntscd": _oracle_ntscd,
}


def default_oracles() -> dict[str, OracleFn]:
    """Pass name -> legacy reference implementation (a fresh copy)."""
    return dict(_ORACLES)


# -- result comparators ------------------------------------------------------


def _tree_eq(a, b) -> bool:
    return a.root == b.root and a.idom == b.idom


def _sese_eq(a, b) -> bool:
    if sorted((r.entry, r.exit) for r in a.regions) != sorted(
        (r.entry, r.exit) for r in b.regions
    ):
        return False
    for nid in a.graph.nodes:
        ra, rb = a.region_of_node.get(nid), b.region_of_node.get(nid)
        if (ra and (ra.entry, ra.exit)) != (rb and (rb.entry, rb.exit)):
            return False
    return True


def _csr_eq(a, b) -> bool:
    return (
        a.node_ids == b.node_ids
        and a.edge_ids == b.edge_ids
        and a.succ_off == b.succ_off
        and a.succ_node == b.succ_node
        and a.succ_edge == b.succ_edge
        and a.pred_off == b.pred_off
        and a.pred_node == b.pred_node
        and a.pred_edge == b.pred_edge
        and (a.start, a.end) == (b.start, b.end)
    )


def _chains_eq(a, b) -> bool:
    # The sparse fast path emits chains canonically sorted; the dense
    # reference's order is reaching-frozenset iteration order.  Same
    # answer means the same chain *set*.
    key = lambda c: (c.use_node, c.var, c.def_node)  # noqa: E731
    return sorted(a.chains, key=key) == sorted(b.chains, key=key)


def _facts_eq(a, b) -> bool:
    """Results exposing a canonical ``facts()`` comparison surface
    (sparse range/taint, NTSCD) are the same answer iff it matches."""
    return a.facts() == b.facts()


def _arena_eq(a, b) -> bool:
    """Two ``(pool, arena)`` lowerings are the same answer exactly when
    their RPA1 encodings are equal."""
    from repro.arena.arena import ArenaCorpus

    return (
        ArenaCorpus(a[0], [a[1]]).to_bytes()
        == ArenaCorpus(b[0], [b[1]]).to_bytes()
    )


def _regions_eq(a, b) -> bool:
    """Two region-system assemblies are the same answer when every
    system has the same boundary, ownership, hierarchy and units."""
    if len(a.systems) != len(b.systems):
        return False
    return all(
        sa.key == sb.key
        and sa.parent == sb.parent
        and sa.nodes == sb.nodes
        and sa.children == sb.children
        and sa.fwd_units == sb.fwd_units
        and sa.bwd_units == sb.bwd_units
        for sa, sb in zip(a.systems, b.systems)
    )


#: Pass name -> comparator for result shapes without value equality.
_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "dom": _tree_eq,
    "pdom": _tree_eq,
    "sese": _sese_eq,
    "csr": _csr_eq,
    "defuse": _chains_eq,
    "regions": _regions_eq,
    "arena": _arena_eq,
    "sparse-range": _facts_eq,
    "sparse-taint": _facts_eq,
    "ntscd": _facts_eq,
}


def results_equal(name: str, a: object, b: object) -> bool:
    """Are two results of pass ``name`` the same answer?

    Uses the pass-specific comparator where the result type lacks value
    equality (dominator trees, program structure, CSR snapshots, def-use
    chains); everything else -- dicts of frozensets, dataclass results --
    compares with ``==``.
    """
    comparator = _COMPARATORS.get(name)
    if comparator is not None:
        return comparator(a, b)
    return a == b


# -- the policy --------------------------------------------------------------


class DegradationPolicy:
    """Runs pass bodies with oracle fallback, cross-checks and deadlines.

    Install on a manager with
    ``AnalysisManager(graph, policy=DegradationPolicy(...))``.  Knobs:

    ``oracles``
        pass name -> reference implementation (default:
        :func:`default_oracles`).
    ``cross_check``
        also run the oracle on *successful* fast results and compare; on
        mismatch the oracle's answer wins and a ``cross-check-mismatch``
        incident is recorded.  This is how silently-corrupted results
        are caught, at the price of running both sides.
    ``deadline``
        a :class:`~repro.robust.watchdog.Deadline` checked after every
        pass; an expired budget degrades the pass that overran it (or
        escalates, when it has no oracle).
    ``injector``
        a fault injector (see :mod:`repro.robust.chaos`) whose
        ``apply(fault, spec, graph, deps, counter)`` replaces the pass
        body for planned passes -- the hook the chaos harness uses.
    """

    def __init__(
        self,
        oracles: dict[str, OracleFn] | None = None,
        incidents: IncidentLog | None = None,
        cross_check: bool = False,
        deadline: Deadline | None = None,
        injector: object | None = None,
    ) -> None:
        self.oracles = oracles if oracles is not None else default_oracles()
        self.incidents = incidents if incidents is not None else IncidentLog()
        self.cross_check = cross_check
        self.deadline = deadline
        self.injector = injector

    def run_pass(
        self,
        manager: "AnalysisManager",
        spec: "PassSpec",
        deps: Mapping[str, object],
    ) -> object:
        graph = manager.graph
        counter = manager.metrics.counter
        phase = f"pass:{spec.name}"
        fault = (
            self.injector.fault_for(spec.name)
            if self.injector is not None
            else None
        )
        try:
            if fault is not None:
                result = self.injector.apply(fault, spec, graph, deps, counter)
            else:
                result = spec.build(graph, deps, counter)
            if self.deadline is not None:
                self.deadline.check(
                    phase=phase,
                    pass_name=spec.name,
                    fingerprint=graph_fingerprint(graph),
                )
        except ReproError as exc:
            if isinstance(exc, PassTimeout):
                return self._degrade(manager, spec, deps, exc)
            # Input errors and already-classified failures are precise;
            # an oracle cannot repair a malformed graph.
            raise
        except Exception as exc:
            return self._degrade(manager, spec, deps, exc)
        if self.cross_check and spec.name in self.oracles:
            expected = self.oracles[spec.name](graph, deps, counter)
            if not results_equal(spec.name, result, expected):
                self.incidents.record(
                    "cross-check-mismatch",
                    pass_name=spec.name,
                    phase=phase,
                    fingerprint=graph_fingerprint(graph),
                    recovered=True,
                )
                return expected
        return result

    def _degrade(
        self,
        manager: "AnalysisManager",
        spec: "PassSpec",
        deps: Mapping[str, object],
        exc: BaseException,
    ) -> object:
        graph = manager.graph
        phase = f"pass:{spec.name}"
        fingerprint = graph_fingerprint(graph)
        oracle = self.oracles.get(spec.name)
        if oracle is None:
            self.incidents.record(
                "unrecovered",
                pass_name=spec.name,
                phase=phase,
                fingerprint=fingerprint,
                recovered=False,
                error=error_record(exc),
            )
            if isinstance(exc, PassTimeout):
                raise exc
            raise AnalysisError(
                f"pass {spec.name!r} failed with no oracle to fall back "
                f"to: {exc}",
                phase=phase,
                pass_name=spec.name,
                fingerprint=fingerprint,
            ) from exc
        try:
            result = oracle(graph, deps, manager.metrics.counter)
        except Exception as oracle_exc:
            self.incidents.record(
                "oracle-failed",
                pass_name=spec.name,
                phase=phase,
                fingerprint=fingerprint,
                recovered=False,
                error=error_record(oracle_exc),
            )
            raise AnalysisError(
                f"pass {spec.name!r} failed and its oracle failed too: "
                f"{oracle_exc}",
                phase=phase,
                pass_name=spec.name,
                fingerprint=fingerprint,
            ) from oracle_exc
        if isinstance(exc, PassTimeout):
            kind = "timeout-fallback"
            if self.deadline is not None:
                self.deadline.reset()
        else:
            kind = "oracle-fallback"
        self.incidents.record(
            kind,
            pass_name=spec.name,
            phase=phase,
            fingerprint=fingerprint,
            recovered=True,
            error=error_record(exc),
        )
        return result
