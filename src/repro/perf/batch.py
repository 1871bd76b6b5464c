"""The parallel batch-analysis driver behind ``repro batch``.

:func:`run_batch` analyzes a suite of generated programs across a
supervised process pool: each worker builds its own
:class:`~repro.pipeline.manager.AnalysisManager` per program (spawn-safe
-- workers receive program *specs*, never live graphs), and per-pass
work/wall metrics are aggregated across the pool.  The suites
(``default``, ``equivalence``, ``lint``, ``sparse``) are plain lists of
such specs, so the fuzzer, the chaos harness, the lint sweep and the
test corpus draw on the same programs.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

from repro.cfg.builder import build_cfg
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
    """The 204-program equivalence population (the corpus the declared
    twins are held to in the test suite) as batch specs:
    structured random, irreducible, goto soup, plus one of each ladder
    family.

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
    result against its declared dense oracle inside the worker, reporting
    the agreement flags on the row keyed by pass name.  Specs with
    ``"lint": True`` run the diagnostics engine (rule passes
    plus oracle verification) instead of the plain analysis menu; the
    program is round-tripped through the pretty-printer so diagnostics
    carry genuine source spans.  Specs may carry raw ``"source"`` text
    instead of ``"family"``/``"args"`` (the serve daemon's batch path),
    and lint specs with ``"sarif": True`` attach the SARIF 2.1.0
    document to the row.  Specs with a ``"fuzz"`` entry dispatch
    to one mutation trial of :mod:`repro.fuzz.harness` (mutate, run
    oracles, report verdicts) -- that is how ``repro fuzz --jobs`` fans
    trials across the supervised pool.
    """
    from repro.pipeline.manager import AnalysisManager
    from repro.robust.errors import error_record
    from repro.util.metrics import Metrics

    try:
        if spec.get("fuzz"):
            from repro.fuzz.harness import run_trial

            return run_trial(spec)
        if "source" in spec:
            # A raw-source spec (the serve daemon's batch-sarif path):
            # the text is the document, so spans stay genuine without a
            # pretty-print round trip.
            from repro.lang.parser import parse_program

            program = parse_program(spec["source"])
        else:
            program = resolve_family(spec["family"])(*spec["args"])
        if spec.get("sparse"):
            graph = build_cfg(program)
            manager = AnalysisManager(graph, metrics=Metrics())
            t0 = time.perf_counter()
            chains = manager.get("defuse")
            ranges = manager.get("sparse-range")
            taint = manager.get("sparse-taint")
            scvn = manager.get("scvn")
            deps = manager.get("ntscd")
            wall_ms = (time.perf_counter() - t0) * 1000.0
            agree = {}
            for name in ("defuse", "sparse-range", "sparse-taint", "ntscd"):
                twin = manager.registry.spec(name)
                agree[name] = twin.equal(
                    manager.get(name), twin.oracle(graph, {}, None)
                )
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
) -> dict[str, Any]:
    """Analyze ``suite`` across a process pool; aggregate per-pass metrics.

    ``workers=0`` runs in-process (deterministic, no pool -- the CI and
    test default); ``workers=None`` uses the CPU count.  The pooled path
    runs one supervised process per program
    (:class:`repro.robust.pool.SupervisedPool`): a hung worker is
    terminated at ``timeout_s``, a crashed or failing one is retried
    ``retries`` times with backoff and then quarantined -- with a
    delta-debugged minimized repro written to ``quarantine_dir``.

    The time spent pickling the specs to size them is reported as its
    own ``ipc_serialize_ms`` metric (with ``ipc_payload_bytes``) rather
    than being folded into ``pool_wall_ms``.
    """
    import pickle

    if suite is None:
        suite = default_suite()
    if workers is None:
        workers = os.cpu_count() or 1
    if chunk_size is None:
        chunk_size = max(1, (len(suite) + max(workers, 1) * 2 - 1)
                         // (max(workers, 1) * 2))

    t_ser = time.perf_counter()
    # What actually crosses the pipe to a spawn worker, measured here so
    # pool_wall_ms is dispatch + analysis, not serialization.
    ipc_payload_bytes = sum(len(pickle.dumps(spec)) for spec in suite)
    ipc_serialize_ms = (time.perf_counter() - t_ser) * 1000.0

    t0 = time.perf_counter()
    if workers <= 0:
        chunks = _chunked(suite, chunk_size)
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
        rows = pool.run(suite)
        chunks = suite  # one supervised process per spec
    pool_wall_ms = (time.perf_counter() - t0) * 1000.0

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
        "pool_wall_ms": round(pool_wall_ms, 3),
        "ipc_serialize_ms": round(ipc_serialize_ms, 3),
        "ipc_payload_bytes": ipc_payload_bytes,
        "analysis_wall_ms": round(sum(r["wall_ms"] for r in ok_rows), 3),
        "rows": rows,
        "passes": passes,
    }
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
