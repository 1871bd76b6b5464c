"""batch-sweep: ``run_batch(specs, workers=2)``, the path ``repro batch``
takes on a two-core machine.

A runner subprocess (``batch_runner.py``) holds the specs and runs one
pooled sweep per command, alternating two sweep kinds: ``suite`` (large
programs shaped like the default suite, where the 27 passes dominate)
and ``corpus`` (small corpus programs, where the ~85 ms of spawn and
import per pooled program dominates).  No cache and no lint are
involved.  Every row must be error-free, unquarantined, and match the
pinned CFG node and edge counts.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import time

from perfbench import inputs
from perfbench.common import (
    BENCH, WORKERS, BenchError, geometric_mean, python_argv,
)

KINDS = ("suite", "corpus")


def _specs(ctx) -> dict:
    labels = inputs.batch_specs(ctx.pool, ctx.seed, ctx.smoke)
    return {
        kind: [{"label": label, "source": ctx.pool["programs"][label]}
               for label in labels[kind]]
        for kind in KINDS
    }


def _read(proc) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], 170)
    line = proc.stdout.readline() if ready else b""
    if not line:
        raise BenchError("batch runner stopped without answering")
    return json.loads(line)


def _command(proc, command: dict) -> dict:
    proc.stdin.write(json.dumps(command).encode() + b"\n")
    proc.stdin.flush()
    return _read(proc)


def _setup(ctx, specs):
    """Start the runner and wait until its specs are ready."""
    t0 = time.perf_counter()
    directory = ctx.rundir.fresh("batch")
    path = directory / "specs.json"
    path.write_text(json.dumps(specs))
    proc = ctx.children.spawn(
        python_argv(str(BENCH / "batch_runner.py"), str(path), str(WORKERS)),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    if not _read(proc).get("ready"):
        raise BenchError("batch runner did not get ready")
    return time.perf_counter() - t0, proc


def _quit(ctx, proc) -> None:
    proc.stdin.write(b'{"cmd": "quit"}\n')
    proc.stdin.flush()
    ctx.children.reap(proc)


def _check(ctx, kind: str, specs: list, reply: dict) -> None:
    rows = reply["rows"]
    ctx.check(reply["programs"] == len(specs) and not reply["errors"]
              and not reply["quarantined"],
              f"{kind} sweep: {reply['errors']} errors, "
              f"{reply['quarantined']} quarantined")
    for label, nodes, edges, failed in rows:
        ctx.check(not failed and [nodes, edges] == ctx.expected["batch"][label],
                  f"batch row {label}: {nodes} nodes, {edges} edges")


def run(ctx, setup_repeats: int) -> dict:
    specs = _specs(ctx)
    setups = []
    for i in range(setup_repeats):
        seconds, proc = _setup(ctx, specs)
        setups.append(seconds)
        if i < setup_repeats - 1:
            _quit(ctx, proc)

    # Whole pairs of sweeps, so both kinds weigh the same in every run.
    per_program = {kind: [] for kind in KINDS}
    programs = 0
    sweep_s = 0.0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < ctx.seconds:
        for kind in KINDS:
            reply = _command(proc, {"cmd": "sweep", "kind": kind})
            _check(ctx, kind, specs[kind], reply)
            programs += reply["programs"]
            sweep_s += reply["wall_s"]
            per_program[kind].append(reply["wall_s"] * 1000.0 / reply["programs"])
    _quit(ctx, proc)

    medians = {kind: statistics.median(v) for kind, v in per_program.items()}
    return {
        "setup_samples_s": setups,
        "setup_s": statistics.median(setups),
        "ops": programs,
        "wall_s": sweep_s,
        "ops_per_s": programs / sweep_s,
        "p50_ms": medians["suite"],
        "gm_p50_ms": geometric_mean(list(medians.values())),
        "named": {"programs_per_s": {"n": programs}},
        "sweep_ms_per_program": {
            kind: {"n": len(v), "p50_ms": medians[kind], "all": v}
            for kind, v in per_program.items()
        },
        "inputs": {kind: [s["label"] for s in specs[kind]] for kind in KINDS},
    }


# -- traced section -----------------------------------------------------------


def _analyze(source: str):
    """What a pool worker does for a raw-source spec, with the pass menu
    resolved one ``AnalysisManager.get`` per pass in registry order."""
    from repro.cfg.builder import build_cfg
    from repro.lang.parser import parse_program
    from repro.pipeline.manager import AnalysisManager
    from repro.util.metrics import Metrics

    graph = build_cfg(parse_program(source))
    manager = AnalysisManager(graph, metrics=Metrics())
    for name in manager.registry.names():
        manager.get(name)
    return graph.num_nodes, graph.num_edges


def section(ctx, recorder) -> dict:
    """One pooled sweep of each kind (pool counters from the runner), then
    every spec in-process, plain and traced."""
    from perfbench.tracing import installed

    specs = _specs(ctx)
    _seconds, proc = _setup(ctx, specs)
    pooled = {}
    for kind in KINDS:
        pooled[kind] = _command(proc, {"cmd": "sweep", "kind": kind,
                                       "trace": True})
        _check(ctx, kind, specs[kind], pooled[kind])
    _quit(ctx, proc)

    every = [spec for kind in KINDS for spec in specs[kind]]
    _analyze(every[0]["source"])  # lazy imports of pass modules, untimed
    plain = []
    for spec in every:
        t0 = time.perf_counter()
        shape = _analyze(spec["source"])
        plain.append((time.perf_counter() - t0) * 1000.0)
        ctx.check(list(shape) == ctx.expected["batch"][spec["label"]],
                  f"in-process {spec['label']}: {shape}")
    with installed(recorder):
        for n, spec in enumerate(every):
            with recorder.op(f"batch:{n}", {"class": "program"}):
                shape = _analyze(spec["source"])
            ctx.check(list(shape) == ctx.expected["batch"][spec["label"]],
                      f"traced {spec['label']}: {shape}")

    stats = [pooled[kind]["pool"] for kind in KINDS]
    wall_ms = sum(pooled[kind]["wall_s"] for kind in KINDS) * 1000.0
    return {
        "plain_ms": {"program": plain},
        "pool": {
            "pool.spawned": sum(s["spawned"] for s in stats),
            "pool.retries": sum(s["retries"] for s in stats),
            "pool.timeouts": sum(s["timeouts"] for s in stats),
            "pool.ipc_bytes": sum(s["ipc_bytes"] for s in stats),
            "pool.ipc_serialize_ms": sum(s["ipc_serialize_ms"] for s in stats),
            "pool.overhead_ms": WORKERS * wall_ms - sum(plain),
        },
        "pooled_wall_ms": wall_ms,
    }
