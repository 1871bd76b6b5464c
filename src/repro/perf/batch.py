"""Benchmark batteries and the parallel batch-analysis driver.

Two entry points, both surfaced through the CLI:

* :func:`run_bench` (``repro bench``) times the fast paths (CSR kernels,
  bitset dataflow) against the legacy generic implementations on the
  paper-experiment workload families -- the C1 diamond chains and the F4
  wide-variable programs -- verifying on every row that both sides
  produce identical results.  The payload (schema ``repro.bench/1``) is
  written to ``BENCH_<tag>.json`` so successive PRs leave a perf
  trajectory at the repo root.
* :func:`run_batch` (``repro batch``) analyzes a suite of generated
  programs across a ``multiprocessing`` pool: the suite is chunked, each
  worker builds its own :class:`~repro.pipeline.manager.AnalysisManager`
  per program (spawn-safe -- workers receive program *specs*, never live
  graphs), and per-pass work/wall metrics are aggregated across the
  pool.

Speedups are computed from best-of-``repeat`` wall times, so a noisy
scheduler tick slows a sample, not the ratio.  Regression checking
(:func:`check_regression`) compares *speedups* -- fast-vs-legacy ratios
measured on the same machine in the same run -- against a checked-in
baseline, which keeps the CI gate meaningful across differently-sized
runners.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from typing import Any, Callable

from repro.cfg.builder import build_cfg
from repro.controldep.cycle_equiv import (
    cycle_equivalence,
    cycle_equivalence_reference,
)
from repro.dataflow.anticipatable import (
    anticipatable_expressions_reference,
    partially_anticipatable_expressions_reference,
)
from repro.dataflow.available import (
    available_expressions_reference,
    partially_available_expressions_reference,
)
from repro.dataflow.bitsets import (
    anticipatable_bitsets,
    available_bitsets,
    core_dataflow,
    expression_space,
    liveness_bitsets,
    reaching_bitsets,
)
from repro.dataflow.liveness import live_variables_reference
from repro.dataflow.reaching import reaching_definitions_reference
from repro.graphs.dfs import depth_first_search, depth_first_search_csr
from repro.graphs.dominance import (
    dominator_tree,
    edge_dominators,
    edge_dominators_reference,
    edge_postdominators,
    edge_postdominators_reference,
)
from repro.perf.csr import build_csr
from repro.workloads.generators import (
    array_program,
    irreducible_program,
    random_jump_program,
    random_program,
)
from repro.workloads.lint_defects import lint_defect_program
from repro.workloads.ladders import (
    diamond_chain,
    loop_nest,
    sparse_use_program,
    wide_variable_program,
)

BENCH_SCHEMA = "repro.bench/1"

#: Workload sizes: (label-forming parameter tuples, largest last).
C1_SIZES = (50, 100, 200, 400, 800)
F4_SIZES = ((64, 1), (128, 2), (256, 4), (512, 6))
C1_SIZES_SMOKE = (50, 100)
F4_SIZES_SMOKE = ((48, 1), (96, 2))
REPLAY_SIZES = (60, 120, 240)
REPLAY_SIZES_SMOKE = (40, 80)
#: Flat-root vs balanced-root replay: the win grows with chain length,
#: so the rows start past the ~100-diamond crossover.
BALANCE_SIZES = (128, 256, 512)
BALANCE_SIZES_SMOKE = (128, 256)
#: Arena workload rows: prefix sizes of the equivalence corpus.
ARENA_SLICES = (51, 102, 204)
ARENA_SLICES_SMOKE = (12, 24)
#: Sparse-client workload rows: region counts of the F1 sparse-use
#: ladder, where dense per-edge environments pay for every variable at
#: every node while the split-based clients touch only live names.
SPARSE_CLIENT_SIZES = (16, 32, 64)
SPARSE_CLIENT_SIZES_SMOKE = (8, 16)


# -- batteries ---------------------------------------------------------------
#
# Each battery is the full analysis menu one PR-2 fast path replaced,
# run end to end (the fast side pays for its own CSR build).  The legacy
# and fast batteries return comparable {component: result} dicts.


def _structure_legacy(graph) -> dict[str, Any]:
    dfs = depth_first_search([graph.start], graph.succs)
    dom = dominator_tree(graph.start, graph.succs, graph.preds)
    pdom = dominator_tree(graph.end, graph.preds, graph.succs)
    return {
        "dfs": dfs,
        "dom": dom,
        "pdom": pdom,
        "edom": edge_dominators_reference(graph),
        "epdom": edge_postdominators_reference(graph),
        "cycle-equiv": cycle_equivalence_reference(graph),
    }


def _structure_fast(graph) -> dict[str, Any]:
    from repro.graphs.dominance import cfg_dominators, cfg_postdominators

    csr = build_csr(graph)
    return {
        "dfs": depth_first_search_csr(csr),
        "dom": cfg_dominators(graph, csr=csr),
        "pdom": cfg_postdominators(graph, csr=csr),
        "edom": edge_dominators(graph, csr=csr),
        "epdom": edge_postdominators(graph, csr=csr),
        "cycle-equiv": cycle_equivalence(graph, csr=csr),
    }


def _dataflow_legacy(graph) -> dict[str, Any]:
    return {
        "liveness": live_variables_reference(graph),
        "reaching": reaching_definitions_reference(graph),
        "available": available_expressions_reference(graph),
        "pavailable": partially_available_expressions_reference(graph),
        "anticipatable": anticipatable_expressions_reference(graph),
        "panticipatable": partially_anticipatable_expressions_reference(graph),
    }


def _dataflow_fast(graph) -> dict[str, Any]:
    csr = build_csr(graph)
    space = expression_space(graph, csr)
    return {
        "liveness": liveness_bitsets(graph, csr=csr),
        "reaching": reaching_bitsets(graph, csr=csr),
        "available": available_bitsets(graph, csr=csr, space=space),
        "pavailable": available_bitsets(
            graph, csr=csr, space=space, must=False
        ),
        "anticipatable": anticipatable_bitsets(graph, csr=csr, space=space),
        "panticipatable": anticipatable_bitsets(
            graph, csr=csr, space=space, must=False
        ),
    }


def _tree_eq(a, b) -> bool:
    return a.root == b.root and a.idom == b.idom


def _results_identical(legacy: dict, fast: dict) -> bool:
    if legacy.keys() != fast.keys():
        return False
    for key, lhs in legacy.items():
        rhs = fast[key]
        if key in ("dom", "pdom", "edom", "epdom"):
            if not _tree_eq(lhs, rhs):
                return False
        elif lhs != rhs:
            return False
    return True


def _best_ms(fn: Callable[[], Any], repeat: int) -> tuple[float, Any]:
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0, result


def _bench_workload(
    name: str,
    family: str,
    rows_spec: list[tuple[str, Any]],
    legacy: Callable,
    fast: Callable,
    repeat: int,
) -> dict[str, Any]:
    rows = []
    for label, graph in rows_spec:
        legacy_ms, legacy_result = _best_ms(lambda: legacy(graph), repeat)
        fast_ms, fast_result = _best_ms(lambda: fast(graph), repeat)
        rows.append({
            "size": label,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "legacy_ms": round(legacy_ms, 3),
            "fast_ms": round(fast_ms, 3),
            "speedup": round(legacy_ms / fast_ms, 2) if fast_ms else 0.0,
            "identical": _results_identical(legacy_result, fast_result),
        })
    return {
        "name": name,
        "family": family,
        "rows": rows,
        "largest": rows[-1],
    }


def _corpus_graphs(suite: list[dict]) -> list[tuple[str, Any]]:
    """``(label, CFG)`` for every plain analysis spec of ``suite``."""
    return [
        (spec["label"],
         build_cfg(resolve_family(spec["family"])(*spec["args"])))
        for spec in suite
    ]


def _corpus_legacy(graphs: list[tuple[str, Any]]) -> dict[str, dict]:
    """The PR-2 fast path, per program: the object-side core menu
    (:func:`~repro.dataflow.bitsets.core_dataflow` -- one CSR snapshot
    feeding the four bitset kernels, plus vector constant propagation).
    This is the per-program work the batch driver performs today for the
    five results the fused arena sweep produces."""
    return {label: core_dataflow(graph) for label, graph in graphs}


def bench_arena_fused(smoke: bool = False, repeat: int = 3) -> dict[str, Any]:
    """The arena workload: fused corpus solve vs the per-program object
    path, on growing prefixes of the 204-program equivalence corpus.

    The fast side solves a *pre-lowered* corpus -- the arena is the
    persistent representation the batch driver ships and reuses, so (as
    with the edit-replay workload's persistent structures) its one-time
    construction is amortized and disclosed separately per row as
    ``lower_ms``, alongside the serialized corpus size the pool would
    put on the wire (``arena_bytes``).  Both sides' decoded results are
    compared for byte-identity on every row.
    """
    from repro.arena import ArenaCorpus, ExpressionPool, analyze_corpus

    graphs = _corpus_graphs(equivalence_suite(smoke=smoke))
    rows = []
    for count in ARENA_SLICES_SMOKE if smoke else ARENA_SLICES:
        subset = graphs[:count]

        def build() -> ArenaCorpus:
            corpus = ArenaCorpus(ExpressionPool())
            for label, graph in subset:
                corpus.add(graph, label=label)
            return corpus

        legacy_ms, legacy_result = _best_ms(
            lambda: _corpus_legacy(subset), repeat
        )
        lower_ms, corpus = _best_ms(build, repeat)
        fast_ms, fast_result = _best_ms(lambda: analyze_corpus(corpus), repeat)
        rows.append({
            "size": str(count),
            "nodes": sum(g.num_nodes for _, g in subset),
            "edges": sum(g.num_edges for _, g in subset),
            "legacy_ms": round(legacy_ms, 3),
            "fast_ms": round(fast_ms, 3),
            "lower_ms": round(lower_ms, 3),
            "arena_bytes": len(corpus.to_bytes()),
            "speedup": round(legacy_ms / fast_ms, 2) if fast_ms else 0.0,
            "identical": legacy_result == fast_result,
        })
    return {
        "name": "arena-fused",
        "family": "equivalence_corpus",
        "rows": rows,
        "largest": rows[-1],
    }


def bench_sparse_clients(smoke: bool = False, repeat: int = 3) -> dict[str, Any]:
    """The PR-9 workload: sparse range + taint clients vs their dense
    per-edge reference twins, on the F1 sparse-use ladder.

    Each row runs both client analyses end to end on both sides,
    compares the *fact surfaces* for identity, and discloses the
    visited-work counters (``dense_visits`` vs ``sparse_visits``) so the
    asymptotic claim -- the sparse propagation graph touches live names
    only -- is checked in alongside the wall-clock ratio.
    """
    from repro.sparse.range_analysis import (
        range_analysis,
        range_analysis_reference,
    )
    from repro.sparse.taint import taint_analysis, taint_analysis_reference
    from repro.util.counters import WorkCounter

    sizes = SPARSE_CLIENT_SIZES_SMOKE if smoke else SPARSE_CLIENT_SIZES
    rows = []
    for regions in sizes:
        graph = build_cfg(sparse_use_program(regions, vars_per_region=3))
        counters: dict[str, WorkCounter] = {}

        def legacy() -> tuple:
            counter = counters["legacy"] = WorkCounter()
            return (
                range_analysis_reference(graph, counter=counter).facts(),
                taint_analysis_reference(graph, counter=counter).facts(),
            )

        def fast() -> tuple:
            counter = counters["fast"] = WorkCounter()
            return (
                range_analysis(graph, counter=counter).facts(),
                taint_analysis(graph, counter=counter).facts(),
            )

        legacy_ms, legacy_result = _best_ms(legacy, repeat)
        fast_ms, fast_result = _best_ms(fast, repeat)
        dense_visits = (
            counters["legacy"]["dense_visits"]
            + counters["legacy"]["dense_taint_visits"]
        )
        sparse_visits = counters["fast"]["sparse_visits"]
        rows.append({
            "size": f"R={regions}",
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "legacy_ms": round(legacy_ms, 3),
            "fast_ms": round(fast_ms, 3),
            "dense_visits": dense_visits,
            "sparse_visits": sparse_visits,
            "speedup": round(legacy_ms / fast_ms, 2) if fast_ms else 0.0,
            "identical": (
                legacy_result == fast_result
                and sparse_visits < dense_visits
            ),
        })
    return {
        "name": "sparse-clients",
        "family": "sparse_use_program",
        "rows": rows,
        "largest": rows[-1],
    }


def run_bench(
    tag: str = "dev",
    smoke: bool = False,
    repeat: int | None = None,
    batch_workers: int = 0,
    batch_programs: int = 6,
    serve: bool = False,
) -> dict[str, Any]:
    """Run the comparative batteries and a small batch sweep; return the
    ``repro.bench/1`` payload.

    ``serve=True`` appends the ``serve-loadgen`` workload: a live daemon
    on a private port, timed warm vs the cold one-shot twin and
    byte-compared against it, plus the seeded hot/cold/edit request mix
    (hit-rate, p50/p95, QPS).
    """
    if repeat is None:
        repeat = 3 if smoke else 7
    c1_sizes = C1_SIZES_SMOKE if smoke else C1_SIZES
    f4_sizes = F4_SIZES_SMOKE if smoke else F4_SIZES

    c1_rows = [
        (str(n), build_cfg(diamond_chain(n))) for n in c1_sizes
    ]
    f4_rows = [
        (f"V={v},U={u}", build_cfg(wide_variable_program(v, uses_per_var=u)))
        for v, u in f4_sizes
    ]
    workloads = [
        _bench_workload(
            "c1-structure", "diamond_chain", c1_rows,
            _structure_legacy, _structure_fast, repeat,
        ),
        _bench_workload(
            "f4-dataflow", "wide_variable_program", f4_rows,
            _dataflow_legacy, _dataflow_fast, repeat,
        ),
    ]
    from repro.regions.replay import bench_edit_replay, bench_root_balance

    replay_sizes = REPLAY_SIZES_SMOKE if smoke else REPLAY_SIZES
    workloads.append(bench_edit_replay(replay_sizes, repeat=repeat))
    balance_sizes = BALANCE_SIZES_SMOKE if smoke else BALANCE_SIZES
    workloads.append(bench_root_balance(balance_sizes, repeat=repeat))
    workloads.append(bench_arena_fused(smoke=smoke, repeat=repeat))
    workloads.append(bench_sparse_clients(smoke=smoke, repeat=repeat))
    if serve:
        from repro.serve.loadgen import bench_serve_loadgen

        workloads.append(bench_serve_loadgen(smoke=smoke))
    return {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "mode": "smoke" if smoke else "full",
        "python": sys.version.split()[0],
        "repeat": repeat,
        "workloads": workloads,
        "batch": run_batch(
            suite=default_suite(batch_programs), workers=batch_workers
        ),
    }


def check_regression(
    payload: dict, baseline: dict, tolerance: float = 0.75
) -> list[str]:
    """Failures of ``payload`` against ``baseline``.

    A workload regresses when its largest-size speedup drops below
    ``tolerance`` (default: more than 25% down) of the baseline's, or
    when any row's results stopped being identical to legacy.
    """
    failures: list[str] = []
    current = {w["name"]: w for w in payload.get("workloads", ())}
    for base in baseline.get("workloads", ()):
        name = base["name"]
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        workload = current[name]
        for row in workload["rows"]:
            if not row["identical"]:
                failures.append(
                    f"{name} size {row['size']}: fast/legacy results differ"
                )
        want = base["largest"]["speedup"] * tolerance
        got = workload["largest"]["speedup"]
        if got < want:
            failures.append(
                f"{name}: largest-size speedup {got:.2f}x is below "
                f"{tolerance:.0%} of baseline "
                f"{base['largest']['speedup']:.2f}x"
            )
    return failures


# -- parallel batch driver ---------------------------------------------------


def _fault_raise(*args):
    """Test family: building the program always raises (poison spec)."""
    raise RuntimeError("injected family failure (test hook)")


def _fault_hang(*args):
    """Test family: building the program never returns (hung worker)."""
    while True:
        time.sleep(0.05)


def _fault_crash(*args):
    """Test family: the worker process dies without reporting."""
    os._exit(3)


#: family name -> program builder, resolvable inside spawn workers.
#: The ``__*__`` families misbehave on purpose; they exist so the
#: hardened driver's timeout / crash / quarantine paths are testable
#: with real processes (monkeypatching does not survive ``spawn``).
_FAMILIES: dict[str, Callable] = {
    "random": lambda seed, size, num_vars: random_program(
        seed, size=size, num_vars=num_vars
    ),
    "diamond": diamond_chain,
    "wide": wide_variable_program,
    "irreducible": irreducible_program,
    "jump": random_jump_program,
    "array": array_program,
    "loopnest": loop_nest,
    "sparse": sparse_use_program,
    "lintdefects": lint_defect_program,
    "__raise__": _fault_raise,
    "__hang__": _fault_hang,
    "__crash__": _fault_crash,
}


def resolve_family(name: str) -> Callable:
    """The program builder for family ``name`` (spawn-safe lookup)."""
    try:
        return _FAMILIES[name]
    except KeyError:
        from repro.robust.errors import InputError

        known = ", ".join(sorted(k for k in _FAMILIES if not k.startswith("_")))
        raise InputError(
            f"unknown program family {name!r}; known: {known}",
            phase="batch-spec",
        ) from None


def default_suite(programs: int = 8, size: int = 80) -> list[dict]:
    """A mixed workload suite: seeded random programs plus one ladder of
    each structured family."""
    suite = [
        {"label": f"random-{seed}", "family": "random",
         "args": [seed, size, 6]}
        for seed in range(max(1, programs - 2))
    ]
    suite.append({"label": "diamond-120", "family": "diamond", "args": [120]})
    suite.append({"label": "wide-96", "family": "wide", "args": [96, 2]})
    return suite[:max(1, programs)]


def equivalence_suite(smoke: bool = False) -> list[dict]:
    """The 204-program population of ``tests/test_perf_equivalence.py``
    as batch specs: structured random, irreducible, goto soup, plus one
    of each ladder family.

    ``smoke`` keeps the same family mix but trims the seed sweeps to 24
    programs -- still more than the registered pass count, so a chaos
    sweep over it exercises every pass.
    """
    randoms, irreducibles, jumps = (12, 4, 4) if smoke else (120, 40, 40)
    suite = [
        {"label": f"random-{seed}", "family": "random",
         "args": [seed, 18, 4]}
        for seed in range(randoms)
    ]
    suite += [
        {"label": f"irreducible-{seed}", "family": "irreducible",
         "args": [seed, 5]}
        for seed in range(irreducibles)
    ]
    suite += [
        {"label": f"jump-{seed}", "family": "jump", "args": [seed, 7]}
        for seed in range(jumps)
    ]
    suite += [
        {"label": "diamond-60", "family": "diamond", "args": [60]},
        {"label": "loopnest-3x3", "family": "loopnest", "args": [3, 3]},
        {"label": "wide-24", "family": "wide", "args": [24, 2]},
        {"label": "sparse-8", "family": "sparse", "args": [8]},
    ]
    return suite


def lint_suite(smoke: bool = False) -> list[dict]:
    """The lint batch battery: planted-defect programs plus a slice of
    the equivalence-corpus families, all run in lint mode (rules plus
    oracle verification) under the same supervised-pool driver."""
    planted, randoms = (4, 4) if smoke else (16, 12)
    suite = [
        {"label": f"lintdefects-{seed}", "family": "lintdefects",
         "args": [seed], "lint": True}
        for seed in range(planted)
    ]
    suite += [
        {"label": f"lint-random-{seed}", "family": "random",
         "args": [seed, 18, 4], "lint": True}
        for seed in range(randoms)
    ]
    suite += [
        {"label": "lint-diamond-24", "family": "diamond", "args": [24],
         "lint": True},
        {"label": "lint-loopnest-2x2", "family": "loopnest", "args": [2, 2],
         "lint": True},
    ]
    return suite


def sparse_suite(smoke: bool = False) -> list[dict]:
    """The sparse-client batch battery: programs analyzed through the
    sparse engine's client passes only (def-use, SSA, ranges, taint,
    SCVN, NTSCD), each checked against its dense reference twin inside
    the worker.  The mix leans on the families where sparseness matters:
    the F1 sparse-use ladder, irreducible flowgraphs, and goto soup
    (whose infinite loops are exactly NTSCD's extra coverage)."""
    randoms, irreducibles, jumps = (4, 2, 2) if smoke else (12, 6, 6)
    suite = [
        {"label": f"sparse-random-{seed}", "family": "random",
         "args": [seed, 18, 4], "sparse": True}
        for seed in range(randoms)
    ]
    suite += [
        {"label": f"sparse-irreducible-{seed}", "family": "irreducible",
         "args": [seed, 5], "sparse": True}
        for seed in range(irreducibles)
    ]
    suite += [
        {"label": f"sparse-jump-{seed}", "family": "jump",
         "args": [seed, 7], "sparse": True}
        for seed in range(jumps)
    ]
    suite += [
        {"label": "sparse-ladder-12", "family": "sparse", "args": [12],
         "sparse": True},
        {"label": "sparse-wide-24", "family": "wide", "args": [24, 2],
         "sparse": True},
    ]
    return suite


#: ``repro batch --suite`` vocabulary: name -> builder(args namespace-ish
#: keyword arguments).  Kept as data so the CLI can both validate and
#: list the choices without argparse hard-coding them.
BATCH_SUITES = ("default", "equivalence", "lint", "sparse")


def resolve_suite(
    name: str, smoke: bool = False, programs: int = 8, size: int = 80
) -> list[dict]:
    """The batch suite for ``name``; unknown names raise a one-line
    :class:`~repro.robust.errors.InputError` listing what is available
    (instead of a bare traceback or an argparse-only check)."""
    if name == "default":
        return default_suite(programs, size=size)
    if name == "equivalence":
        return equivalence_suite(smoke=smoke)
    if name == "lint":
        return lint_suite(smoke=smoke)
    if name == "sparse":
        return sparse_suite(smoke=smoke)
    from repro.robust.errors import InputError

    known = ", ".join(BATCH_SUITES)
    raise InputError(
        f"unknown batch suite {name!r}; available suites: {known}",
        phase="batch-suite",
    )


def _analyze_one(spec: dict) -> dict:
    """Build and analyze one program; never raises.

    A failing spec produces a per-spec error row (``label`` + structured
    ``error`` record) so one poison program can no longer take down its
    whole chunk, let alone the run.

    Specs with ``"sparse": True`` run the sparse-engine client passes
    only (def-use, ranges, taint, SCVN, NTSCD) and cross-check each
    result against its dense reference twin inside the worker, reporting
    the agreement flags on the row.  Specs with ``"lint": True`` run the
    diagnostics engine (rule passes
    plus oracle verification) instead of the plain analysis menu; the
    program is round-tripped through the pretty-printer so diagnostics
    carry genuine source spans.  Specs may carry raw ``"source"`` text
    instead of ``"family"``/``"args"`` (the serve daemon's batch path),
    and lint specs with ``"sarif": True`` attach the SARIF 2.1.0
    document to the row.  Specs with a ``"fuzz"`` entry dispatch
    to one mutation trial of :mod:`repro.fuzz.harness` (mutate, run
    oracles, report verdicts) -- that is how ``repro fuzz --jobs`` fans
    trials across the supervised pool.  Specs with ``"regions": True``
    summarize one subtree bucket of the program structure tree for one
    analysis (:func:`repro.regions.parallel.summarize_subtree`) -- the
    region-parallel phase-1 fan-out rides the same pool.  Specs with
    ``"arena": True`` carry a serialized :class:`~repro.arena.arena.
    ArenaCorpus` for a whole chunk of programs and dispatch to the fused
    arena sweep (:func:`_analyze_arena_chunk`).
    """
    from repro.pipeline.manager import AnalysisManager
    from repro.robust.errors import error_record
    from repro.util.metrics import Metrics

    try:
        if spec.get("arena"):
            return _analyze_arena_chunk(spec)
        if spec.get("fuzz"):
            from repro.fuzz.harness import run_trial

            return run_trial(spec)
        if spec.get("regions"):
            from repro.regions.parallel import summarize_subtree

            return summarize_subtree(spec)
        if "source" in spec:
            # A raw-source spec (the serve daemon's batch-sarif path):
            # the text is the document, so spans stay genuine without a
            # pretty-print round trip.
            from repro.lang.parser import parse_program

            program = parse_program(spec["source"])
        else:
            program = resolve_family(spec["family"])(*spec["args"])
        if spec.get("sparse"):
            from repro.controldep.ntscd import ntscd_reference
            from repro.defuse.chains import build_def_use_chains_reference
            from repro.sparse.range_analysis import range_analysis_reference
            from repro.sparse.taint import taint_analysis_reference

            graph = build_cfg(program)
            manager = AnalysisManager(graph, metrics=Metrics())
            t0 = time.perf_counter()
            chains = manager.get("defuse")
            ranges = manager.get("sparse-range")
            taint = manager.get("sparse-taint")
            scvn = manager.get("scvn")
            deps = manager.get("ntscd")
            wall_ms = (time.perf_counter() - t0) * 1000.0

            def chain_set(result):
                return {(c.var, c.def_node, c.use_node)
                        for c in result.chains}

            agree = {
                "chains": chain_set(chains)
                == chain_set(build_def_use_chains_reference(graph)),
                "range": ranges.facts()
                == range_analysis_reference(graph).facts(),
                "taint": taint.facts()
                == taint_analysis_reference(graph).facts(),
                "ntscd": deps.facts() == ntscd_reference(graph).facts(),
            }
            return {
                "label": spec["label"],
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "wall_ms": round(wall_ms, 3),
                "sparse": {
                    "chains": chains.size(),
                    "dead_edges": len(ranges.dead_edges),
                    "tainted_sinks": sum(
                        1 for hit in taint.sinks.values() if hit
                    ),
                    "ntscd_deps": sum(
                        len(ps) for ps in deps.deps.values()
                    ),
                    "scvn_classes": scvn.num_classes(),
                    "agree": agree,
                },
                "passes": {
                    row["pass"]: {
                        "work": row["work_total"],
                        "wall_ms": row["wall_ms"],
                    }
                    for row in manager.report()
                },
            }
        if spec.get("lint"):
            from repro.lang.parser import parse_program
            from repro.lang.pretty import pretty_program
            from repro.lint.engine import LintEngine
            from repro.lint.rules import lint_registry

            if "source" not in spec:
                program = parse_program(pretty_program(program))
            graph = build_cfg(program)
            manager = AnalysisManager(
                graph, registry=lint_registry(), metrics=Metrics()
            )
            t0 = time.perf_counter()
            result = LintEngine(graph, manager=manager).run(verify=True)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            summary = result.summary()
            out = {
                "label": spec["label"],
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "wall_ms": round(wall_ms, 3),
                "lint": {
                    "total": summary["total"],
                    "by_severity": summary["by_severity"],
                    "verified": summary["verified"],
                    "demoted": summary["demoted"],
                    "refuted": summary["refuted"],
                    "unverified_definite": result.unverified_definite(),
                },
                "passes": {
                    row["pass"]: {
                        "work": row["work_total"],
                        "wall_ms": row["wall_ms"],
                    }
                    for row in manager.report()
                },
            }
            if spec.get("sarif"):
                from repro.lint.output import sarif_payload

                out["sarif"] = sarif_payload(
                    spec.get("label") or "", result.diagnostics
                )
            return out
        graph = build_cfg(program)
        manager = AnalysisManager(graph, metrics=Metrics())
        t0 = time.perf_counter()
        manager.run_all()
        wall_ms = (time.perf_counter() - t0) * 1000.0
        return {
            "label": spec["label"],
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "wall_ms": round(wall_ms, 3),
            "passes": {
                row["pass"]: {
                    "work": row["work_total"],
                    "wall_ms": row["wall_ms"],
                }
                for row in manager.report()
            },
        }
    except Exception as exc:
        return {"label": spec.get("label"), "error": error_record(exc)}


def _analyze_arena_chunk(spec: dict) -> dict:
    """Worker body for one serialized arena chunk: decode the corpus,
    fused-solve every program against one shared
    :class:`~repro.arena.kernels.CorpusOrder`, and report one sub-row per
    program (flattened into the run's row list by :func:`run_batch`).

    Any decode or solve failure drops the whole chunk onto its fallback
    twin -- the member specs re-analyzed through the object-graph
    pipeline -- so a corrupt or version-skewed payload degrades to
    slower rows, never lost ones.  The failure is recorded on the chunk
    row as ``fallback``.
    """
    from repro.robust.errors import error_record
    from repro.util.counters import WorkCounter

    try:
        from repro.arena import ArenaCorpus, CorpusOrder, analyze_arena

        corpus = ArenaCorpus.from_bytes(spec["arena_bytes"])
        counter = WorkCounter()
        order = CorpusOrder(corpus.pool)
        rows = []
        for arena in corpus.programs:
            before = counter.snapshot()
            t0 = time.perf_counter()
            analyze_arena(arena, corpus.pool, order=order, counter=counter)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            work = sum(counter.diff(before).values())
            rows.append({
                "label": arena.label,
                "nodes": arena.n,
                "edges": arena.m,
                "wall_ms": round(wall_ms, 3),
                "passes": {
                    "arena-fused": {
                        "work": work, "wall_ms": round(wall_ms, 3),
                    },
                },
            })
        return {
            "label": spec["label"],
            "arena_chunk": True,
            "programs": len(rows),
            "rows": rows,
        }
    except Exception as exc:
        rows = [_analyze_one(sub) for sub in spec.get("specs", [])]
        return {
            "label": spec.get("label"),
            "arena_chunk": True,
            "fallback": error_record(exc),
            "programs": len(rows),
            "rows": rows,
        }


def build_arena_payloads(suite: list[dict], chunk_size: int) -> list[dict]:
    """Parent-side lowering for arena payload mode: plain analysis specs
    are chunked and each chunk lowered into one serialized
    :class:`~repro.arena.arena.ArenaCorpus` spec (pool tables ship once
    per chunk).  Specs in a special mode (lint / fuzz / regions) and
    specs whose program builder fails keep their object-graph path: they
    pass through unchanged, so poison specs still produce their usual
    per-spec error rows."""
    from repro.arena import ArenaCorpus, ExpressionPool

    plain: list[dict] = []
    passthrough: list[dict] = []
    for spec in suite:
        # Misbehaving test families must keep their supervised worker:
        # lowering them here would hang or kill the parent process.
        if (
            spec.get("lint") or spec.get("fuzz") or spec.get("regions")
            or str(spec.get("family", "")).startswith("__")
        ):
            passthrough.append(spec)
        else:
            plain.append(spec)
    shipped: list[dict] = []
    for i, chunk in enumerate(_chunked(plain, chunk_size)):
        corpus = ArenaCorpus(ExpressionPool())
        members = []
        for spec in chunk:
            try:
                graph = build_cfg(
                    resolve_family(spec["family"])(*spec["args"])
                )
                corpus.add(graph, label=spec["label"])
            except Exception:
                passthrough.append(spec)
            else:
                members.append(spec)
        if members:
            shipped.append({
                "label": f"arena-chunk-{i}",
                "arena": True,
                "arena_bytes": corpus.to_bytes(),
                "specs": members,
            })
    return shipped + passthrough


def _analyze_chunk(specs: list[dict]) -> list[dict]:
    """Worker body: one row per spec of the chunk, errors included.

    Imports stay inside :func:`_analyze_one` so a ``spawn`` worker only
    unpickles plain dict specs and resolves everything else from its own
    interpreter.
    """
    return [_analyze_one(spec) for spec in specs]


def _chunked(suite: list[dict], chunk_size: int) -> list[list[dict]]:
    return [
        suite[i:i + chunk_size] for i in range(0, len(suite), chunk_size)
    ]


def _batch_minimizer(spec: dict, error: dict) -> dict | None:
    """Delta-debug a quarantined spec down to a minimal repro.

    Only deterministic in-worker failures reach here; the predicate
    accepts a candidate iff analyzing it raises the same exception type,
    which keeps the minimizer from wandering onto a different bug.
    """
    from repro.lang.pretty import pretty_program
    from repro.pipeline.manager import AnalysisManager
    from repro.robust.minimize import minimize_program
    from repro.util.metrics import Metrics

    try:
        program = resolve_family(spec["family"])(*spec["args"])
        source = pretty_program(program)
    except Exception:
        return None  # the failure is in the family itself; nothing to shrink

    def fails(candidate) -> bool:
        try:
            AnalysisManager(build_cfg(candidate), metrics=Metrics()).run_all()
        except Exception as exc:
            return type(exc).__name__ == error.get("type")
        return False

    minimized, evals = minimize_program(source, fails, budget=200)
    return {
        "schema": "repro.quarantine/1",
        "label": spec.get("label"),
        "family": spec["family"],
        "args": list(spec["args"]),
        "error": error,
        "source": source,
        "minimized_source": minimized,
        "original_stmts": source.count("\n"),
        "minimized_stmts": minimized.count("\n"),
        "predicate_evals": evals,
    }


def run_batch(
    suite: list[dict] | None = None,
    workers: int | None = None,
    chunk_size: int | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
    quarantine_dir: str | None = None,
    payload_mode: str = "specs",
) -> dict[str, Any]:
    """Analyze ``suite`` across a process pool; aggregate per-pass metrics.

    ``workers=0`` runs in-process (deterministic, no pool -- the CI and
    test default); ``workers=None`` uses the CPU count.  The pooled path
    runs one supervised process per program
    (:class:`repro.robust.pool.SupervisedPool`): a hung worker is
    terminated at ``timeout_s``, a crashed or failing one is retried
    ``retries`` times with backoff and then quarantined -- with a
    delta-debugged minimized repro written to ``quarantine_dir``.

    ``payload_mode="arena"`` ships each chunk of plain analysis specs as
    one serialized :class:`~repro.arena.arena.ArenaCorpus` (see
    :func:`build_arena_payloads`) and workers run the fused arena sweep;
    special-mode specs keep their object path.  In both modes the time
    spent building the IPC payloads is reported as its own
    ``ipc_serialize_ms`` metric (with ``ipc_payload_bytes``) rather than
    being folded into ``pool_wall_ms``.
    """
    import pickle

    if suite is None:
        suite = default_suite()
    if workers is None:
        workers = os.cpu_count() or 1
    if chunk_size is None:
        chunk_size = max(1, (len(suite) + max(workers, 1) * 2 - 1)
                         // (max(workers, 1) * 2))
    if payload_mode not in ("specs", "arena"):
        from repro.robust.errors import InputError

        raise InputError(
            f"unknown batch payload mode {payload_mode!r}; available: "
            f"specs, arena",
            phase="batch-payload",
        )

    t_ser = time.perf_counter()
    if payload_mode == "arena":
        shipped = build_arena_payloads(suite, chunk_size)
    else:
        shipped = suite
    # What actually crosses the pipe to a spawn worker, measured here so
    # pool_wall_ms is dispatch + analysis, not serialization.
    ipc_payload_bytes = sum(len(pickle.dumps(spec)) for spec in shipped)
    ipc_serialize_ms = (time.perf_counter() - t_ser) * 1000.0

    t0 = time.perf_counter()
    if workers <= 0:
        chunks = _chunked(shipped, chunk_size)
        rows = [row for chunk in chunks for row in _analyze_chunk(chunk)]
        incidents = None
    else:
        from repro.robust.incidents import IncidentLog
        from repro.robust.pool import SupervisedPool

        incidents = IncidentLog()
        pool = SupervisedPool(
            workers,
            timeout_s=timeout_s,
            retries=retries,
            incidents=incidents,
            minimizer=_batch_minimizer,
        )
        rows = pool.run(shipped)
        chunks = shipped  # one supervised process per payload
    pool_wall_ms = (time.perf_counter() - t0) * 1000.0

    # Flatten arena chunk rows into their per-program sub-rows.
    flat_rows: list[dict] = []
    arena_chunks = 0
    arena_fallbacks = 0
    for row in rows:
        if row.get("arena_chunk"):
            arena_chunks += 1
            if row.get("fallback"):
                arena_fallbacks += 1
            flat_rows.extend(row["rows"])
        else:
            flat_rows.append(row)
    rows = flat_rows

    ok_rows = [row for row in rows if "error" not in row]
    error_rows = [row for row in rows if "error" in row]
    quarantined = [row for row in error_rows if row.get("quarantined")]
    passes: dict[str, dict[str, float]] = {}
    for row in ok_rows:
        for name, stats in row["passes"].items():
            agg = passes.setdefault(name, {"work": 0, "wall_ms": 0.0})
            agg["work"] += stats["work"]
            agg["wall_ms"] += stats["wall_ms"]
    for agg in passes.values():
        agg["wall_ms"] = round(agg["wall_ms"], 3)

    if quarantine_dir and quarantined:
        os.makedirs(quarantine_dir, exist_ok=True)
        for row in quarantined:
            record = row.get("quarantine") or {
                "schema": "repro.quarantine/1",
                "label": row.get("label"),
                "error": row.get("error"),
                "failures": row.get("failures"),
            }
            path = os.path.join(quarantine_dir, f"{row['label']}.json")
            write_payload(record, path)

    lint_rows = [row for row in ok_rows if "lint" in row]

    payload = {
        "programs": len(rows),
        "workers": workers,
        "chunks": len(chunks),
        "payload_mode": payload_mode,
        "pool_wall_ms": round(pool_wall_ms, 3),
        "ipc_serialize_ms": round(ipc_serialize_ms, 3),
        "ipc_payload_bytes": ipc_payload_bytes,
        "analysis_wall_ms": round(sum(r["wall_ms"] for r in ok_rows), 3),
        "rows": rows,
        "passes": passes,
    }
    if arena_chunks:
        payload["arena_chunks"] = arena_chunks
    if arena_fallbacks:
        payload["arena_fallbacks"] = arena_fallbacks
    if lint_rows:
        payload["lint"] = {
            "programs": len(lint_rows),
            "findings": sum(r["lint"]["total"] for r in lint_rows),
            "verified": sum(r["lint"]["verified"] for r in lint_rows),
            "demoted": sum(r["lint"]["demoted"] for r in lint_rows),
            "refuted": sum(r["lint"]["refuted"] for r in lint_rows),
            "unverified_definite": sum(
                r["lint"]["unverified_definite"] for r in lint_rows
            ),
        }
    if error_rows:
        payload["errors"] = len(error_rows)
        payload["quarantined"] = len(quarantined)
    if incidents is not None and len(incidents):
        payload["incidents"] = incidents.as_dicts()
    return payload


def write_payload(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
