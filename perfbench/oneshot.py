"""oneshot-cli: fresh ``python -m repro analyze|lint FILE`` processes.

One process at a time (a closed loop with one client), over the demo
program and a stratified draw of corpus programs.  Interpreter start and
imports are most of each process's wall time, so this is the workload
that start-up work moves.  Each process is checked by exit code and
stdout digest against the pinned answer (``lint`` exits 1 when it
reports definite findings).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import time

from perfbench import inputs
from perfbench.common import geometric_mean, python_argv, sha256, timing

VERBS = ("analyze", "lint")
#: The lint tail is read at p90: a run holds ~100 lint processes.
LINT_TAIL = 90.0


def _cli(ctx, verb: str, label: str, cwd) -> float:
    """One timed CLI process; returns its wall time in ms."""
    argv = python_argv("-m", "repro", verb, f"{label}.dfg")
    t0 = time.perf_counter()
    proc = ctx.children.spawn(
        argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    out = proc.stdout.read()
    code = ctx.children.reap(proc)
    ms = (time.perf_counter() - t0) * 1000.0
    ctx.check([code, sha256(out)] == ctx.expected["cli"][label][verb],
              f"{verb} {label}: exit {code}")
    return ms


def _setup(ctx, files) -> tuple[float, object]:
    """Write the inputs and run one untimed warm-up per verb."""
    t0 = time.perf_counter()
    directory = ctx.write_programs(files)
    for verb in VERBS:
        _cli(ctx, verb, "demo", directory)
    return time.perf_counter() - t0, directory


def run(ctx, setup_repeats: int) -> dict:
    files = inputs.oneshot_files(ctx.pool, ctx.seed, ctx.smoke)
    setups = []
    for _ in range(setup_repeats):
        seconds, directory = _setup(ctx, files)
        setups.append(seconds)

    # Whole passes over the files, so every file weighs the same in
    # every run.
    samples = {verb: [] for verb in VERBS}
    processes = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < ctx.seconds:
        for label in files:
            for verb in VERBS:
                samples[verb].append(_cli(ctx, verb, label, directory))
                processes += 1
    wall = time.perf_counter() - t_start

    analyze = timing(samples["analyze"])
    lint = timing(samples["lint"], LINT_TAIL)
    return {
        "setup_samples_s": setups,
        "setup_s": statistics.median(setups),
        "ops": processes,
        "wall_s": wall,
        "ops_per_s": processes / wall,
        "p50_ms": lint["p50_ms"],
        "gm_p50_ms": geometric_mean([analyze["p50_ms"], lint["p50_ms"]]),
        "named": {
            "analyze_p50_ms": analyze,
            "lint_p50_ms": lint,
            "lint_p90_ms": lint,
        },
        "inputs": {"files": files},
    }


# -- traced section -----------------------------------------------------------


def _in_process(verb: str, label: str) -> tuple[int, str]:
    """The same CLI verb through ``repro.cli.main`` in this process:
    exit code and stdout."""
    from repro import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([verb, f"{label}.dfg"])
    return code, buffer.getvalue()


def _check_in_process(ctx, verb, label, answer) -> None:
    code, out = answer
    ctx.check([code, sha256(out.encode())] == ctx.expected["cli"][label][verb],
              f"in-process {verb} {label}: exit {code}")


def section(ctx, recorder) -> dict:
    """Replay one pass over the files in-process, plain then traced.

    Process start is absent here; the start-up layer is measured by the
    probes instead."""
    from perfbench.tracing import installed

    files = inputs.oneshot_files(ctx.pool, ctx.seed, ctx.smoke)
    directory = ctx.write_programs(files)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for verb in VERBS:  # lazy verb imports happen here, untimed
            _check_in_process(ctx, verb, "demo", _in_process(verb, "demo"))
        plain = {verb: [] for verb in VERBS}
        for label in files:
            for verb in VERBS:
                t0 = time.perf_counter()
                answer = _in_process(verb, label)
                plain[verb].append((time.perf_counter() - t0) * 1000.0)
                _check_in_process(ctx, verb, label, answer)
        with installed(recorder):
            for n, label in enumerate(files):
                for verb in VERBS:
                    with recorder.op(f"{verb}:{n}", {"class": verb}):
                        answer = _in_process(verb, label)
                    _check_in_process(ctx, verb, label, answer)
    finally:
        os.chdir(cwd)
    return {"plain_ms": plain}
