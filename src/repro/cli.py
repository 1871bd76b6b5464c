"""Command-line interface: run, analyze, optimize and profile programs.

::

    python -m repro run program.dfg --env n=5
    python -m repro analyze program.dfg
    python -m repro optimize program.dfg --dot optimized.dot --env n=5
    python -m repro profile program.dfg
    python -m repro trace program.dfg --optimize
    python -m repro lint program.dfg --format sarif
    python -m repro serve --socket /tmp/repro.sock
    python -m repro request analyze program.dfg --socket /tmp/repro.sock

The source language is the small imperative language of
:mod:`repro.lang` (see README).  ``analyze`` prints the control
structure (cycle-equivalence classes, SESE regions), the dependence
counts, constants and dead code; ``optimize`` runs the staged pipeline
and reports dynamic evaluation counts before and after on the given
environment.  ``profile`` runs every registered analysis pass through
the pipeline manager and emits per-pass JSON (work units, wall-clock
time, cache hits/misses); ``trace`` emits the span-level timeline the
same run produced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

# Only what ``main()`` catches is imported here; each handler imports
# what it runs, so a process loads the modules of its own verb.
from repro.lang.errors import LangError
from repro.robust.errors import ReproError

if TYPE_CHECKING:
    from repro.pipeline.manager import AnalysisManager

#: Schema identifiers pinned by the golden CLI tests; bump on any
#: structural change to the emitted JSON.
PROFILE_SCHEMA = "repro.profile/1"
TRACE_SCHEMA = "repro.trace/1"
BENCH_SCHEMA = "repro.bench/1"
LINT_SCHEMA = "repro.lint/1"


def _parse_env(pairs: list[str]) -> dict[str, int]:
    env: dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        # One optional minus sign, then digits ``int`` accepts ("²" is
        # a digit to ``isdigit`` but not to ``int``).
        if not name or not value.removeprefix("-").isdecimal():
            raise SystemExit(f"bad --env entry {pair!r}; expected name=int")
        env[name] = int(value)
    return env


def _load(path: str):
    from repro.lang.parser import parse_program

    with open(path) as fh:
        return parse_program(fh.read())


def cmd_run(args: argparse.Namespace) -> int:
    from repro.cfg.builder import build_cfg
    from repro.cfg.interp import run_cfg

    graph = build_cfg(_load(args.file))
    result = run_cfg(graph, _parse_env(args.env), max_steps=args.max_steps)
    for value in result.outputs:
        print(value)
    if args.verbose:
        print(f"-- {result.steps} steps", file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.cfg.builder import build_cfg
    from repro.core.dfg import CTRL_VAR
    from repro.pipeline.manager import AnalysisManager

    graph = build_cfg(_load(args.file))
    manager = AnalysisManager(graph)
    structure = manager.get("sese")
    dfg = manager.get("dfg")
    constants = manager.get("constprop")

    print(f"CFG: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"{len(graph.variables())} variables")
    print(f"control structure: {len(structure.classes)} cycle-equivalence "
          f"classes, {len(structure.regions)} canonical SESE regions "
          f"(max nesting {max((r.depth for r in structure.regions), default=0)})")
    print(f"DFG: {dfg.size()} dependence edges "
          f"({dfg.size(include_control=False)} data), "
          f"{len(dfg.multiedges())} multiedges")
    found = {
        key: value
        for key, value in constants.constant_uses().items()
        if key[1] != CTRL_VAR
    }
    print(f"constants: {len(found)} uses are compile-time constants")
    if args.verbose:
        for (node, var), value in sorted(found.items()):
            print(f"  node {node}: {var} = {value}")
    if constants.dead_nodes:
        print(f"dead code: statements {sorted(constants.dead_nodes)} can "
              f"never execute")
    if args.dot:
        from repro.cfg.dot import cfg_to_dot

        with open(args.dot, "w") as fh:
            fh.write(cfg_to_dot(graph))
        print(f"wrote {args.dot}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.cfg.builder import build_cfg
    from repro.cfg.interp import run_cfg
    from repro.lang.pretty import pretty_expr
    from repro.opt.pipeline import optimize

    graph = build_cfg(_load(args.file))
    optimized, report = optimize(graph, stages=args.stages)
    print(f"nodes: {graph.num_nodes} -> {optimized.num_nodes}")
    print(f"folded: {report.constprop.folded_rhs + report.cleanup.folded_rhs} "
          f"expressions, "
          f"{report.constprop.folded_branches + report.cleanup.folded_branches}"
          f" branches; removed "
          f"{report.constprop.removed_assignments + report.cleanup.removed_assignments}"
          f" dead assignments")
    if report.pre_expressions:
        names = ", ".join(pretty_expr(e) for e in report.pre_expressions)
        print(f"redundancies eliminated: {names} "
              f"({report.copies_propagated} copies propagated, "
              f"{report.stages_run} stages)")
    env = _parse_env(args.env)
    before = run_cfg(graph, env, max_steps=args.max_steps)
    after = run_cfg(optimized, env, max_steps=args.max_steps)
    if before.outputs != after.outputs:
        print("BUG: outputs differ!", file=sys.stderr)
        return 1
    total_before = sum(before.eval_counts.values())
    total_after = sum(after.eval_counts.values())
    print(f"dynamic expression evaluations on this input: "
          f"{total_before} -> {total_after}")
    print(f"outputs (unchanged): {after.outputs}")
    if args.dot:
        from repro.cfg.dot import cfg_to_dot

        with open(args.dot, "w") as fh:
            fh.write(cfg_to_dot(optimized, name="optimized"))
        print(f"wrote {args.dot}")
    return 0


def _program_summary(path: str, graph) -> dict:
    return {
        "file": os.path.basename(path),
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "variables": len(graph.variables()),
    }


def _profiled_manager(args: argparse.Namespace) -> tuple[AnalysisManager, dict]:
    """Build the program's CFG, sweep it through the pipeline manager
    (optionally via the full optimizer), and return (manager, program row)."""
    from repro.cfg.builder import build_cfg
    from repro.pipeline.manager import AnalysisManager
    from repro.util.metrics import Metrics

    graph = build_cfg(_load(args.file))
    registry = None
    if getattr(args, "lint", False):
        from repro.lint.rules import lint_registry

        registry = lint_registry()
    manager = AnalysisManager(graph, registry=registry, metrics=Metrics())
    program = _program_summary(args.file, graph)
    if getattr(args, "optimize", False):
        from repro.opt.pipeline import optimize

        optimize(graph, manager=manager)
        manager.run_all()
    else:
        manager.run_all()
        # A second sweep makes the cache traffic visible: every pass is
        # warm, so hits == misses on an unchanged graph.
        manager.run_all()
    return manager, program


def cmd_profile(args: argparse.Namespace) -> int:
    manager, program = _profiled_manager(args)
    rows = manager.report()
    totals = {
        "passes": len(rows),
        "cache": {
            key: sum(row["cache"][key] for row in rows)
            for key in ("hits", "misses", "invalidations")
        },
        "work_total": sum(row["work_total"] for row in rows),
        "wall_ms": round(sum(row["wall_ms"] for row in rows), 3),
    }
    payload = {
        "schema": PROFILE_SCHEMA,
        "program": program,
        "passes": rows,
        "totals": totals,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    manager, program = _profiled_manager(args)
    payload = {
        "schema": TRACE_SCHEMA,
        "program": program,
        **manager.metrics.as_dict(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


#: Fill colors for ``repro lint --dot``: findings by severity.
_LINT_COLORS = {
    "definite": "#f4cccc",
    "possible": "#fce5cd",
    "info": "#d9ead3",
}


def _lint_dot(graph, diagnostics) -> str:
    """The CFG with lint-flagged nodes filled by strongest severity."""
    from repro.cfg.dot import cfg_to_dot
    from repro.lint.model import SEVERITIES

    strongest: dict[int, str] = {}
    for diag in diagnostics:
        if diag.node < 0:
            continue
        current = strongest.get(diag.node)
        if current is None or (
            SEVERITIES.index(diag.severity) < SEVERITIES.index(current)
        ):
            strongest[diag.node] = diag.severity
    node_attrs = {
        nid: f'style=filled, fillcolor="{_LINT_COLORS[severity]}"'
        for nid, severity in strongest.items()
    }
    return cfg_to_dot(graph, name="lint", node_attrs=node_attrs)


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.cfg.builder import build_cfg
    from repro.lint.engine import LintEngine, LintResult
    from repro.lint.model import SEVERITIES
    from repro.lint.output import (
        baseline_fingerprints,
        baseline_payload,
        filter_baseline,
        lint_payload,
        render_text,
        sarif_payload,
    )

    graph = build_cfg(_load(args.file))
    result = LintEngine(graph).run(
        verify=not args.no_verify, max_steps=args.max_steps
    )

    if args.write_baseline:
        payload = baseline_payload(result.diagnostics)
        with open(args.write_baseline, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.write_baseline} "
              f"({len(payload['suppressions'])} suppressions)")
        return 0

    diagnostics, suppressed = result.diagnostics, 0
    if args.baseline:
        with open(args.baseline) as fh:
            suppressions = baseline_fingerprints(json.load(fh))
        diagnostics, suppressed = filter_baseline(diagnostics, suppressions)
    shown = LintResult(
        diagnostics=diagnostics,
        verified=result.verified,
        manager=result.manager,
    )

    if args.format == "json":
        text = json.dumps(
            lint_payload(args.file, shown, suppressed),
            indent=2, sort_keys=True,
        ) + "\n"
    elif args.format == "sarif":
        text = json.dumps(
            sarif_payload(args.file, diagnostics), indent=2, sort_keys=True
        ) + "\n"
    else:
        counts = shown.by_severity()
        text = render_text(args.file, diagnostics)
        text += (f"{len(diagnostics)} findings "
                 f"({counts['definite']} definite, "
                 f"{counts['possible']} possible, {counts['info']} info)")
        if suppressed:
            text += f"; {suppressed} suppressed by baseline"
        text += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)

    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(_lint_dot(graph, diagnostics))
        print(f"wrote {args.dot}")

    if result.oracle_failures:
        # A rule's oracle checker raised: the findings above are still
        # sound (the affected ones were conservatively demoted), but the
        # zero-false-positive guarantee was not fully measured.  Exit 2
        # with one structured line -- the documented contract.
        from repro.robust.errors import AnalysisError

        first = result.oracle_failures[0]
        raise AnalysisError(
            f"{len(result.oracle_failures)} lint oracle check(s) raised; "
            f"first: {first['type']}: {first['message']}",
            phase="lint-verify",
            pass_name=first.get("pass"),
        )

    if args.fail_on != "never":
        threshold = SEVERITIES.index(args.fail_on)
        if any(
            SEVERITIES.index(d.severity) <= threshold for d in diagnostics
        ):
            return 1
    return 0


def cmd_lintsweep(args: argparse.Namespace) -> int:
    from repro.lint.sweep import run_lint_sweep
    from repro.perf.batch import write_payload

    payload = run_lint_sweep(tag=args.tag, smoke=args.smoke)
    out = args.output or f"LINT_{args.tag}.json"
    write_payload(payload, out)
    corpus, planted = payload["corpus"], payload["planted"]
    print(f"lint sweep ({payload['mode']}): {corpus['programs']} corpus "
          f"programs, {corpus['findings']} findings, "
          f"{corpus['unverified_definite']} unverified definite, "
          f"{corpus['refuted']} refuted, "
          f"{corpus['oracle_failures'] + planted['oracle_failures']} oracle "
          f"failures; planted recall "
          f"{planted['recall']:.1%}, precision {planted['precision']:.1%}")
    print(f"wrote {out}")
    if not payload["ok"]:
        print("lint sweep contract violated: an unverified definite "
              "finding, a refuted finding, an oracle-checker failure, "
              f"or recall below {payload['recall_floor']:.0%}",
              file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.batch import check_regression, run_bench, write_payload

    payload = run_bench(
        tag=args.tag,
        smoke=args.smoke,
        repeat=args.repeat,
        batch_workers=args.workers,
        serve=args.serve,
    )
    out = args.output or f"BENCH_{args.tag}.json"
    write_payload(payload, out)
    for workload in payload["workloads"]:
        largest = workload["largest"]
        flag = "ok" if all(r["identical"] for r in workload["rows"]) else \
            "RESULTS DIFFER"
        print(f"{workload['name']:14s} largest={largest['size']:>10} "
              f"legacy={largest['legacy_ms']:9.2f}ms "
              f"fast={largest['fast_ms']:8.2f}ms "
              f"speedup={largest['speedup']:5.2f}x  [{flag}]")
    batch = payload["batch"]
    print(f"batch          {batch['programs']} programs, "
          f"{batch['workers']} workers, {batch['chunks']} chunks, "
          f"pool {batch['pool_wall_ms']:.1f}ms "
          f"(analysis {batch['analysis_wall_ms']:.1f}ms)")
    print(f"wrote {out}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_regression(payload, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"no regression vs {args.check}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.perf.batch import resolve_suite, run_batch, write_payload

    suite = resolve_suite(
        args.suite, smoke=args.smoke, programs=args.programs, size=args.size
    )
    result = run_batch(
        suite=suite,
        workers=args.workers,
        timeout_s=args.timeout,
        retries=args.retries,
        quarantine_dir=args.quarantine_dir,
        payload_mode=args.payload,
    )
    payload = {"schema": BENCH_SCHEMA, "tag": args.tag, "batch": result}
    if args.output:
        write_payload(payload, args.output)
        print(f"analyzed {result['programs']} programs on "
              f"{result['workers']} workers ({result['payload_mode']} "
              f"payloads, ipc {result['ipc_serialize_ms']:.1f}ms / "
              f"{result['ipc_payload_bytes']} bytes); wrote {args.output}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if result.get("lint"):
        lint = result["lint"]
        print(f"lint: {lint['findings']} findings over "
              f"{lint['programs']} programs, {lint['verified']} verified, "
              f"{lint['unverified_definite']} unverified definite",
              file=sys.stderr)
        if lint["unverified_definite"]:
            return 1
    if result.get("errors"):
        print(f"{result['errors']} programs failed "
              f"({result.get('quarantined', 0)} quarantined)",
              file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ReproServer

    server = ReproServer(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        warm=args.warm,
        pool_workers=args.pool_workers,
        pool_timeout_s=args.timeout,
    )
    address = server.address
    if address[0] == "unix":
        print(f"repro daemon listening on unix socket {address[1]} "
              f"(cache {server.broker.cache.root})", file=sys.stderr)
    else:
        print(f"repro daemon listening on {address[1]}:{address[2]} "
              f"(cache {server.broker.cache.root})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    stats = server.broker.stats
    print(f"repro daemon stopped: {stats['requests']} requests, "
          f"{stats['warm_hits']} warm, {stats['disk_hits']} disk, "
          f"{stats['misses']} miss", file=sys.stderr)
    return 0


def cmd_request(args: argparse.Namespace) -> int:
    from repro.robust.errors import InputError
    from repro.serve.client import ServeClient, one_shot, raise_for_error
    from repro.serve.ops import SOURCE_OPS

    source = None
    if args.op in SOURCE_OPS:
        if not args.file:
            raise InputError(
                f"op {args.op!r} needs a source file argument",
                phase="serve-client",
            )
        with open(args.file) as fh:
            source = fh.read()
    offline = args.socket is None and args.port is None
    if offline:
        # The daemon-free twin: byte-identical to a warm daemon answer.
        if args.op not in SOURCE_OPS:
            raise InputError(
                f"op {args.op!r} needs a daemon; pass --socket or --port",
                phase="serve-client",
            )
        result = one_shot(args.op, source, label=args.file)
    else:
        with ServeClient(
            socket_path=args.socket,
            host=args.host,
            port=args.port or 0,
            timeout_s=args.timeout,
        ) as client:
            params = {}
            if source is not None:
                params = {"source": source, "file": args.file}
            result = raise_for_error(client.request(args.op, **params))
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.harness import run_fuzz
    from repro.perf.batch import write_payload

    payload = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        suite=args.suite,
        jobs=args.jobs,
        repro_dir=args.repro_dir,
        write_repros=args.write_repros,
        minimize_budget=args.minimize_budget,
    )
    if args.output:
        write_payload(payload, args.output)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    planted = payload["planted"]
    print(
        f"fuzz seed={payload['seed']} suite={payload['suite']}: "
        f"{payload['trials']} trials over {payload['programs']} programs, "
        f"{payload['applied']} applied, "
        f"{len(payload['divergences'])} divergence classes "
        f"({len(payload['novel'])} novel, "
        f"{len(payload['unminimized'])} unminimized), "
        f"planted recall {planted['recall']:.1%}",
        file=sys.stderr,
    )
    if not payload["ok"]:
        print(
            "fuzz contract violated: a trial errored, a divergence is "
            "novel or unminimized, or planted recall is below 100%",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.perf.batch import write_payload
    from repro.robust.chaos import run_chaos

    payload = run_chaos(
        seed=args.seed,
        smoke=args.smoke,
        budget_s=args.budget,
        quarantine_dir=args.quarantine_dir,
    )
    totals = payload["totals"]
    if args.output:
        write_payload(payload, args.output)
        print(f"wrote {args.output}")
    print(f"chaos seed={payload['seed']} mode={payload['mode']}: "
          f"{totals['programs']} programs, "
          f"{totals['faults_injected']} faults injected, "
          f"{totals['recovered_identical']}/{totals['recovered']} recovered "
          f"byte-identical, {totals['quarantined']} quarantined, "
          f"{len(totals['passes_covered'])}/{totals['passes_registered']} "
          f"passes covered")
    if not payload["ok"]:
        print("chaos contract violated: a fault was neither recovered "
              "identically nor quarantined with a minimized repro",
              file=sys.stderr)
        return 1
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="dependence-flow-graph program analysis "
        "(Johnson & Pingali, PLDI 1993)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="source file")
        p.add_argument(
            "--env", action="append", default=[], metavar="VAR=INT",
            help="initial variable binding (repeatable)",
        )
        p.add_argument("--max-steps", type=int, default=1_000_000)
        p.add_argument("-v", "--verbose", action="store_true")

    run_p = sub.add_parser("run", help="execute a program")
    common(run_p)
    run_p.set_defaults(handler=cmd_run)

    an_p = sub.add_parser("analyze", help="structure + constants report")
    common(an_p)
    an_p.add_argument("--dot", help="write the CFG as Graphviz")
    an_p.set_defaults(handler=cmd_analyze)

    opt_p = sub.add_parser("optimize", help="run the staged optimizer")
    common(opt_p)
    opt_p.add_argument("--stages", type=int, default=3)
    opt_p.add_argument("--dot", help="write the optimized CFG as Graphviz")
    opt_p.set_defaults(handler=cmd_optimize)

    prof_p = sub.add_parser(
        "profile",
        help="per-pass work/time/cache JSON from the pipeline manager",
    )
    common(prof_p)
    prof_p.add_argument(
        "--optimize", action="store_true",
        help="profile a full optimizer run instead of a cold+warm sweep",
    )
    prof_p.add_argument(
        "--lint", action="store_true",
        help="profile the lint registry (rule passes included)",
    )
    prof_p.set_defaults(handler=cmd_profile)

    trace_p = sub.add_parser(
        "trace", help="span-level timeline JSON of the same sweep"
    )
    common(trace_p)
    trace_p.add_argument(
        "--optimize", action="store_true",
        help="trace a full optimizer run instead of a cold+warm sweep",
    )
    trace_p.set_defaults(handler=cmd_trace)

    lint_p = sub.add_parser(
        "lint",
        help="dependence-based diagnostics with oracle-verified findings",
    )
    lint_p.add_argument("file", help="source file")
    lint_p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="text (default), repro.lint/1 JSON, or SARIF 2.1.0",
    )
    lint_p.add_argument("--output", help="write the report here, not stdout")
    lint_p.add_argument(
        "--baseline", metavar="FILE",
        help="suppress findings fingerprinted in this repro.lintbaseline/1",
    )
    lint_p.add_argument(
        "--write-baseline", metavar="FILE",
        help="accept all current findings into a new baseline and exit",
    )
    lint_p.add_argument(
        "--no-verify", action="store_true",
        help="skip the oracle (definite findings stay unverified)",
    )
    lint_p.add_argument(
        "--dot", metavar="FILE",
        help="write the CFG with findings colored by severity",
    )
    lint_p.add_argument(
        "--fail-on", choices=("definite", "possible", "info", "never"),
        default="definite",
        help="exit 1 when an unsuppressed finding is at least this severe",
    )
    lint_p.add_argument(
        "--max-steps", type=int, default=20_000,
        help="step budget per oracle refutation probe",
    )
    lint_p.set_defaults(handler=cmd_lint)

    sweep_p = sub.add_parser(
        "lintsweep",
        help="lint the generated corpus + planted defects; write "
        "LINT_<tag>.json with the zero-false-positive measurement",
    )
    sweep_p.add_argument("--tag", default="dev")
    sweep_p.add_argument(
        "--smoke", action="store_true",
        help="trimmed populations (the CI profile)",
    )
    sweep_p.add_argument(
        "--output", help="payload path (default LINT_<tag>.json)"
    )
    sweep_p.set_defaults(handler=cmd_lintsweep)

    bench_p = sub.add_parser(
        "bench",
        help="time fast paths vs legacy on the paper workloads; write "
        "BENCH_<tag>.json",
    )
    bench_p.add_argument("--tag", default="dev")
    bench_p.add_argument(
        "--smoke", action="store_true",
        help="small sizes / fewer repeats (the CI profile)",
    )
    bench_p.add_argument(
        "--repeat", type=int, default=None,
        help="timing samples per row (best-of; default 5, smoke 3)",
    )
    bench_p.add_argument(
        "--workers", type=int, default=0,
        help="pool size for the batch section (0 = in-process)",
    )
    bench_p.add_argument("--output", help="payload path (default BENCH_<tag>.json)")
    bench_p.add_argument(
        "--check", metavar="BASELINE",
        help="fail on >25%% speedup regression vs this baseline JSON",
    )
    bench_p.add_argument(
        "--serve", action="store_true",
        help="include the serve-loadgen workload (live daemon, warm-vs-"
        "one-shot timing and byte-equality, seeded request mix)",
    )
    bench_p.set_defaults(handler=cmd_bench)

    serve_p = sub.add_parser(
        "serve",
        help="run the analysis daemon (repro.serve/1 over a unix or "
        "localhost TCP socket, content-addressed cross-run cache)",
    )
    serve_p.add_argument(
        "--socket", metavar="PATH",
        help="bind a unix-domain socket here (default: localhost TCP)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port, printed on stderr)",
    )
    serve_p.add_argument(
        "--cache-dir", metavar="DIR",
        help="result cache root (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    serve_p.add_argument(
        "--warm", type=int, default=32,
        help="LRU capacity of warm analysis managers",
    )
    serve_p.add_argument(
        "--pool-workers", type=int, default=0,
        help="supervised worker processes for batch-sarif misses "
        "(0 = inline)",
    )
    serve_p.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-document budget in the batch pool",
    )
    serve_p.set_defaults(handler=cmd_serve)

    req_p = sub.add_parser(
        "request",
        help="send one request to a running daemon (or answer offline "
        "when no address is given -- byte-identical either way)",
    )
    req_p.add_argument(
        "op", choices=("analyze", "constprop", "lint", "ping", "stats",
                       "shutdown"),
    )
    req_p.add_argument("file", nargs="?", help="source file (source ops)")
    req_p.add_argument("--socket", metavar="PATH", help="daemon unix socket")
    req_p.add_argument("--host", default="127.0.0.1")
    req_p.add_argument("--port", type=int, help="daemon TCP port")
    req_p.add_argument("--timeout", type=float, default=30.0)
    req_p.set_defaults(handler=cmd_request)

    batch_p = sub.add_parser(
        "batch",
        help="analyze a generated program suite across a process pool",
    )
    batch_p.add_argument("--tag", default="dev")
    batch_p.add_argument(
        "--workers", type=int, default=None,
        help="pool size (default: CPU count; 0 = in-process)",
    )
    batch_p.add_argument("--programs", type=int, default=8)
    batch_p.add_argument("--size", type=int, default=80)
    batch_p.add_argument(
        "--suite", default="default", metavar="NAME",
        help="'default', 'equivalence' (the 204-program perf-equivalence "
        "population), 'lint' (the diagnostics engine over "
        "planted-defect and corpus programs) or 'sparse' (the sparse "
        "engine's client passes cross-checked against their dense "
        "reference twins); unknown names list the available suites",
    )
    batch_p.add_argument(
        "--smoke", action="store_true",
        help="with --suite equivalence: the trimmed 24-program population",
    )
    batch_p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-program wall-clock budget (pooled runs only)",
    )
    batch_p.add_argument(
        "--retries", type=int, default=1,
        help="attempts after the first failure before quarantine",
    )
    batch_p.add_argument(
        "--quarantine-dir", metavar="DIR",
        help="write one repro.quarantine/1 JSON per poison program here",
    )
    batch_p.add_argument(
        "--payload", default="specs", choices=("specs", "arena"),
        help="worker payload: per-program specs (object pipeline) or "
        "one serialized arena corpus per chunk (fused sweep)",
    )
    batch_p.add_argument("--output", help="write JSON here instead of stdout")
    batch_p.set_defaults(handler=cmd_batch)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="metamorphic differential fuzzing with theorem-derived "
        "oracles; write the byte-deterministic repro.fuzz/1 JSON",
    )
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument(
        "--budget", type=int, default=None, metavar="TRIALS",
        help="run only the first N trials of the deterministic schedule "
        "(default: the whole suite x mutator sweep)",
    )
    fuzz_p.add_argument(
        "--suite", default="default", metavar="NAME",
        help="'default' (the 204-program equivalence corpus plus array "
        "workloads) or 'smoke'; unknown names list the available suites",
    )
    fuzz_p.add_argument(
        "--jobs", type=int, default=0,
        help="supervised-pool size for the trials (0 = in-process)",
    )
    fuzz_p.add_argument(
        "--repro-dir", default="tests/repros", metavar="DIR",
        help="directory of known fuzz-<fingerprint>.json reproducers "
        "(novel fingerprints fail the gate)",
    )
    fuzz_p.add_argument(
        "--write-repros", action="store_true",
        help="write a reproducer for each divergence class to --repro-dir",
    )
    fuzz_p.add_argument(
        "--minimize-budget", type=int, default=200,
        help="ddmin predicate evaluations per divergence",
    )
    fuzz_p.add_argument("--output", help="write JSON here instead of stdout")
    fuzz_p.set_defaults(handler=cmd_fuzz)

    chaos_p = sub.add_parser(
        "chaos",
        help="deterministic fault injection across every registered pass; "
        "asserts recovered-or-quarantined",
    )
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument(
        "--smoke", action="store_true",
        help="24-program sweep (the CI profile) instead of all 204",
    )
    chaos_p.add_argument(
        "--budget", type=float, default=1.0, metavar="SECONDS",
        help="virtual per-pass deadline (fake clock; no real sleeps)",
    )
    chaos_p.add_argument(
        "--quarantine-dir", metavar="DIR",
        help="write one repro.quarantine/1 JSON per unrecovered program",
    )
    chaos_p.add_argument("--output", help="write the repro.chaos/1 JSON here")
    chaos_p.set_defaults(handler=cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        # One structured diagnostic line, not a stack trace: the taxonomy
        # already names the pass, phase and graph.
        print(f"repro: {exc.kind} error: {exc}", file=sys.stderr)
        return 2
    except LangError as exc:
        print(f"repro: language error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Missing or unreadable files get the same one-line treatment.
        print(f"repro: input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
