"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-mix --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate traced run on the same seed and inputs that
reports the per-layer metrics.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines above it
name every metric of the workload with its unit and sample count, and a
detail record (configuration, samples, spans) is written under
``.perfbench_out/``.  ``--smoke`` shrinks every input for the
benchmark's own tests; ``--dump-inputs`` prints the generated inputs.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import batchsweep, inputs, oneshot, servemix, tracing  # noqa: E402
from perfbench.common import (  # noqa: E402
    OUT, ROOT, SRC, WORKERS, BenchError, Children, Context, RunDir,
    child_env, exit_on_sigterm, load_pinned, metric,
    prepare_bytecode, require_program, sha256, use_program_in_process,
)

WORKLOADS = {
    "oneshot-cli": oneshot,
    "serve-mix": servemix,
    "batch-sweep": batchsweep,
}
#: Set-up is repeated and its median reported, so that one slow start
#: does not read as a regression.
SETUP_REPEATS = 3
#: Every child still alive this long after the run starts is terminated.
WATCHDOG_S = 170.0
PROBE_REPEATS = 5

#: The 27 passes of the default registry, pinned so that every traced run
#: reports the same per-layer names.
PASSES = (
    "cfg", "csr", "dfs", "dom", "pdom", "cycle-equiv", "sese", "regions",
    "region-summaries", "cdg", "dfg", "defuse", "liveness", "reaching",
    "available", "pavailable", "ssa", "constprop", "constprop-cfg",
    "constprop-defuse", "sccp", "ntscd", "sparse-range", "sparse-taint",
    "scvn", "arena", "arena-dataflow",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs (the benchmark's own tests)")
    parser.add_argument("--dump-inputs", action="store_true",
                        help="print the generated inputs and exit")
    return parser.parse_args(argv)


# -- configuration ------------------------------------------------------------


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """Digest of every source file of the program measured (the commit
    is unknown in a checkout that is not a git repository)."""
    parts = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts.append(str(path.relative_to(SRC)).encode())
        parts.append(path.read_bytes())
    return sha256(b"\0".join(parts))


def configuration(args, compile_s: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "setup_repeats": SETUP_REPEATS,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "bytecode": "per-run PYTHONPYCACHEPREFIX, written and warmed before "
                    "timing; PYTHONDONTWRITEBYTECODE removed for children",
        "bytecode_compile_s": compile_s,
        "percentiles": "nearest rank; tails named by their percentile",
    }


# -- end-to-end ------------------------------------------------------------------


def declared_metrics(kind: str, values: dict) -> dict:
    """``values`` as result metrics, with the units ``BENCHMARK.json``
    declares; the names must be exactly the declared ones."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {spec["name"]: spec["unit"] for spec in declared}
    if set(values) != set(units):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: metric(values[name], units[name]) for name in units}


def end_to_end(result: dict, children: Children) -> dict:
    return declared_metrics("end_to_end", {
        "setup_s": result["setup_s"],
        "peak_rss_mb": children.peak_rss_kb / 1024.0,
        "p50_ms": result["p50_ms"],
        "gm_p50_ms": result["gm_p50_ms"],
        "ops_per_s": result["ops_per_s"],
    })


def report_lines(workload: str, result: dict, metrics: dict, ctx) -> list[str]:
    """Every end-to-end metric the workload defines, by name, with unit
    and sample count."""
    lines = []
    for name, sample in result["named"].items():
        if name.endswith("_per_s"):
            lines.append(f"  {name:<22} {result['ops_per_s']:10.3f} 1/s  "
                         f"(n={sample['n']} over {result['wall_s']:.2f} s)")
            continue
        key = "p50_ms"
        if "_p50_ms" not in name:
            key = [k for k in sample if k.startswith("p") and k != "p50_ms"][0]
        extra = f", {sample['beyond_tail']} beyond" if key != "p50_ms" else ""
        lines.append(f"  {name:<22} {sample[key]:10.3f} ms   "
                     f"(n={sample['n']}, {key[:-3]}{extra})")
    errors = len(ctx.failures)
    lines.append(f"  {'error_rate':<22} {errors / ctx.attempted:10.4f} ratio "
                 f"({errors}/{ctx.attempted})")
    lines.append(f"  {'setup_s':<22} {result['setup_s']:10.3f} s    "
                 f"(median of {len(result['setup_samples_s'])})")
    lines.append(f"  {'peak_rss_mb':<22} {metrics['peak_rss_mb']['value']:10.1f} MB")
    return lines


# -- traced run ----------------------------------------------------------------


def _class_overhead(plain: dict, recorder) -> dict:
    traced: dict[str, list] = {}
    for span in recorder.roots():
        traced.setdefault(span[5].get("class", "all"), []).append(
            (span[2] - span[1]) * 1000.0
        )
    out = {}
    for name, values in plain.items():
        spans = traced.get(name, [])
        if values and spans:
            out[name] = {
                "n": len(values),
                "plain_p50_ms": statistics.median(values),
                "traced_p50_ms": statistics.median(spans),
                "delta_p50_ms": statistics.median(spans) - statistics.median(values),
            }
    return out


def traced_run(ctx, workload: str, probe_repeats: int) -> tuple[dict, dict]:
    """Start-up probes plus the traced section of every workload.  Layers
    the selected workload exercises are read from its own section; the
    others from the workload that exercises them (serve and edit from
    serve-mix, passes and pool from batch-sweep, lint from oneshot-cli)."""
    probes = tracing.startup_probes(ctx, probe_repeats)
    sections = {}
    for name, module in WORKLOADS.items():
        recorder = tracing.Recorder()
        extra = module.section(ctx, recorder)
        layers = tracing.layer_totals(recorder)
        plain_total = sum(sum(v) for v in extra["plain_ms"].values())
        layers["plain_total_ms"] = plain_total
        layers["overhead_pct"] = (layers["total_ms"] - plain_total) / plain_total * 100.0
        layers["by_class"] = _class_overhead(extra["plain_ms"], recorder)
        sections[name] = {"extra": extra, "layers": layers,
                          "spans": recorder.dump()}

    own = sections[workload]["layers"]
    lint = own if workload != "batch-sweep" else sections["oneshot-cli"]["layers"]
    serve = sections["serve-mix"]
    batch = sections["batch-sweep"]

    def ms(layers, name):
        return layers["self_ms"].get(name, 0.0)

    values = {key: probes[key] for key in (
        "startup.interpreter_ms", "startup.import_cli_ms",
        "startup.import_lint_ms", "startup.import_worker_ms",
        "startup.modules_cli")}
    values["lang.parse_ms"] = ms(own, "lang.parse")
    values["cfg.build_ms"] = ms(own, "cfg.build")
    values["cfg.nodes"] = own["counts"].get("cfg.nodes", 0)
    values["cfg.edges"] = own["counts"].get("cfg.edges", 0)
    for name in PASSES:
        values[f"pass.{name}.ms"] = ms(batch["layers"], f"pass.{name}")
        values[f"pass.{name}.work"] = batch["layers"]["work"].get(name, 0)
    findings = lint["counts"].get("lint.findings", 0)
    values["lint.rules_ms"] = ms(lint, "lint.rules")
    values["lint.verify_ms"] = ms(lint, "lint.verify")
    values["lint.render_ms"] = ms(lint, "lint.render")
    values["lint.findings"] = findings
    values["lint.verified_ratio"] = (
        lint["counts"].get("lint.verified", 0) / findings if findings else 0.0
    )
    for name, bucket in (
        ("serve.encode_ms", "serve.encode"),
        ("serve.cache.load_ms", "serve.cache.load"),
        ("serve.cache.store_ms", "serve.cache.store"),
        ("serve.import_result_ms", "serve.import"),
        ("serve.export_result_ms", "serve.export"),
        ("edit.rewrite_ms", "edit.rewrite"),
        ("edit.query_ms", "edit.query"),
    ):
        values[name] = ms(serve["layers"], bucket)
    values["serve.cache.bytes"] = serve["layers"]["counts"].get("serve.cache.bytes", 0)
    values.update(serve["extra"]["serve"])
    values.update(batch["extra"]["pool"])
    values["unattributed_ms"] = ms(own, "unattributed")
    values["trace_overhead_pct"] = own["overhead_pct"]

    metrics = declared_metrics("per_layer", values)
    detail = {
        "probes": probes,
        "sections": {
            name: {
                "layers": section["layers"],
                "extra": {k: v for k, v in section["extra"].items()
                          if k != "plain_ms"},
                "spans": section["spans"],
            }
            for name, section in sections.items()
        },
    }
    return metrics, detail


def traced_lines(workload: str, detail: dict) -> list[str]:
    """Per workload: traced total = layer self times + unattributed, and
    the tracing overhead; per latency class of the selected workload:
    plain and traced medians."""
    lines = []
    for name, section in detail["sections"].items():
        layers = section["layers"]
        unattributed = layers["self_ms"].get("unattributed", 0.0)
        layer_sum = sum(layers["self_ms"].values()) - unattributed
        lines.append(
            f"  {name:<12} traced {layers['total_ms']:10.2f} ms = layers "
            f"{layer_sum:10.2f} + unattributed {unattributed:8.2f} "
            f"(residual {layers['balance_ms']:+.2e}); plain "
            f"{layers['plain_total_ms']:10.2f} ms, overhead "
            f"{layers['overhead_pct']:+.1f}%"
            + ("  <- selected" if name == workload else "")
        )
    for name, row in detail["sections"][workload]["layers"]["by_class"].items():
        lines.append(
            f"    {name:<16} p50 plain {row['plain_p50_ms']:9.3f} ms, traced "
            f"{row['traced_p50_ms']:9.3f} ms ({row['delta_p50_ms']:+.3f} ms, "
            f"n={row['n']})"
        )
    return lines


# -- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    exit_on_sigterm()
    try:
        require_program()
        pool, expected = load_pinned()
        pinned = expected["inputs"][args.workload].get(str(args.seed))
        if pinned and not args.smoke and pinned != inputs.inputs_digest(
            pool, expected, args.workload, args.seed
        ):
            raise BenchError("generated inputs differ from their pinned digest")
        if args.dump_inputs:
            sys.stdout.buffer.write(
                inputs.dump(pool, expected, args.workload, args.seed, args.smoke)
                + b"\n"
            )
            return 0
        return _measure(args, pool, expected)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _measure(args, pool, expected) -> int:
    rundir = RunDir(args.workload)
    children = None
    try:
        prefix, compile_s = prepare_bytecode(rundir)
        children = Children(child_env(prefix), WATCHDOG_S)
        use_program_in_process(prefix)
        ctx = Context(pool, expected, args.seed, args.seconds, args.smoke,
                      rundir, children)
        record = {"config": configuration(args, compile_s)}
        if args.trace:
            metrics, detail = traced_run(
                ctx, args.workload, 1 if args.smoke else PROBE_REPEATS
            )
            lines = traced_lines(args.workload, detail)
        else:
            module = WORKLOADS[args.workload]
            result = module.run(ctx, 1 if args.smoke else SETUP_REPEATS)
            metrics = end_to_end(result, children)
            detail = result
            lines = report_lines(args.workload, result, metrics, ctx)
        record.update(metrics=metrics, detail=detail,
                      attempted=ctx.attempted, failures=ctx.failures[:50])
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
        for line in lines:
            print(line)
        for name, value in metrics.items():
            print(f"  metric {name} = {value['value']!r} {value['unit']}")
        print(f"  detail: {path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": not ctx.failures,
            "attempted": ctx.attempted,
            "failed": len(ctx.failures),
            "metrics": metrics,
        }))
        return 0
    finally:
        if children is not None:
            children.close()
        rundir.close()


if __name__ == "__main__":
    raise SystemExit(main())
