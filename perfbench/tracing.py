"""Spans around the program's public entry points, and their accounting.

The traced run installs wrappers from the benchmark's own code: each
wrapper records ``(name, start, end, parent, op id)`` in memory, plus a
few counts read off arguments and results.  Nothing is written until the
run ends.  A span's self time is its duration minus its children's;
the self time of the root span of each operation is ``unattributed``.
Because every span nests inside its operation's root, the self times of
all layers plus ``unattributed`` equal the traced total exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from perfbench.common import python_argv


class Recorder:
    """In-memory spans of one traced replay."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self._op = None

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self._op, attrs or {}]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id, attrs: dict | None = None):
        """The root span of one benchmark operation."""
        self._op = op_id
        index = self.begin("op", attrs)
        try:
            yield self.spans[index][5]
        finally:
            self.end(index)
            self._op = None

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call.  ``before(args, kwargs)``
        returns state for ``after(state, args, kwargs, result, attrs)``,
        which adds counts to the span's attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            state = before(args, kwargs) if before else None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after:
                after(state, args, kwargs, result, self.spans[index][5])
            return result

        return traced

    # -- accounting --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time (ms) of every span, aligned with ``self.spans``."""
        out = [(s[2] - s[1]) * 1000.0 for s in self.spans]
        for span in self.spans:
            if span[3] is not None:
                out[span[3]] -= (span[2] - span[1]) * 1000.0
        return out

    def roots(self) -> list[list]:
        return [s for s in self.spans if s[3] is None]

    def total_ms(self) -> float:
        return sum((s[2] - s[1]) * 1000.0 for s in self.roots())

    def buckets(self, classify) -> dict[str, float]:
        """Self time per layer; ``classify(span, parent)`` names it."""
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for span, ms in zip(self.spans, selfs):
            parent = self.spans[span[3]] if span[3] is not None else None
            out[classify(span, parent)] += ms
        return dict(out)

    def dump(self) -> list[dict]:
        base = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": s[0], "start_ms": round((s[1] - base) * 1000.0, 4),
             "end_ms": round((s[2] - base) * 1000.0, 4), "parent": s[3],
             "op": s[4], **s[5]}
            for s in self.spans
        ]


def _patch_function(module, name: str, wrapper, saved: list) -> None:
    """Replace ``module.name`` and every ``repro`` module global bound to
    the same function object (modules that did ``from x import name``)."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is original:
                saved.append((mod, key, value))
                setattr(mod, key, wrapper)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap the public entry points named by the benchmark's layer table;
    restore them on exit."""
    from repro.cfg import builder
    from repro.lang import parser
    from repro.lint import output
    from repro.lint.engine import LintEngine
    from repro.pipeline.manager import AnalysisManager
    from repro.regions.edits import EditSession
    from repro.serve import server
    from repro.serve.cache import ResultCache

    def work_before(args, kwargs):
        return args[0].metrics.counter.snapshot()

    def work_after(state, args, kwargs, result, attrs):
        attrs["pass"] = args[1]
        attrs["work"] = sum(args[0].metrics.counter.diff(state).values())

    def graph_after(state, args, kwargs, result, attrs):
        attrs["nodes"] = result.num_nodes
        attrs["edges"] = result.num_edges

    def lint_after(state, args, kwargs, result, attrs):
        attrs["findings"] = len(result.diagnostics)
        attrs["verified"] = sum(1 for d in result.diagnostics if d.verified)

    def store_after(state, args, kwargs, result, attrs):
        attrs["bytes"] = len(args[3])

    saved: list = []
    try:
        _patch_function(parser, "parse_program",
                        recorder.wrap("lang.parse", parser.parse_program), saved)
        _patch_function(builder, "build_cfg",
                        recorder.wrap("cfg.build", builder.build_cfg,
                                      after=graph_after), saved)
        for name in ("lint_payload", "render_text"):
            _patch_function(output, name,
                            recorder.wrap("lint.render", getattr(output, name)),
                            saved)
        _patch_function(server, "canonical_json",
                        recorder.wrap("serve.encode", server.canonical_json),
                        saved)
        methods = [
            (AnalysisManager, "get", "get", work_before, work_after),
            (AnalysisManager, "import_result", "serve.import", None, None),
            (AnalysisManager, "export_result", "serve.export", None, None),
            (LintEngine, "run", "lint.run", None, lint_after),
            (server.RequestBroker, "handle_line", "serve.handle", None, None),
            (ResultCache, "load", "serve.cache.load", None, None),
            (ResultCache, "store", "serve.cache.store", None, store_after),
            (EditSession, "rewrite_rhs", "edit.rewrite", None, None),
            (EditSession, "solve_all", "edit.query", None, None),
        ]
        for owner, attr, name, before, after in methods:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr,
                    recorder.wrap(name, original, before=before, after=after))
        yield recorder
    finally:
        for owner, key, value in reversed(saved):
            setattr(owner, key, value)


def classify(span, parent) -> str:
    """The layer a span's self time belongs to."""
    name = span[0]
    if name == "op":
        return "unattributed"
    if name == "get":
        if parent is not None and parent[0] == "lint.run":
            return "lint.rules"
        return f"pass.{span[5]['pass']}"
    if name == "lint.run":
        return "lint.verify"
    return name


def layer_totals(recorder: Recorder) -> dict:
    """Self time per layer, the traced total, and the counts the spans
    carried."""
    buckets = recorder.buckets(classify)
    counts: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    for span in recorder.spans:
        attrs = span[5]
        if span[0] == "cfg.build":
            counts["cfg.nodes"] += attrs["nodes"]
            counts["cfg.edges"] += attrs["edges"]
        elif span[0] == "lint.run":
            counts["lint.findings"] += attrs["findings"]
            counts["lint.verified"] += attrs["verified"]
        elif span[0] == "serve.cache.store":
            counts["serve.cache.bytes"] += attrs["bytes"]
        elif span[0] == "get":
            work[attrs["pass"]] += attrs["work"]
    total = recorder.total_ms()
    return {
        "total_ms": total,
        "self_ms": buckets,
        "balance_ms": total - sum(buckets.values()),
        "counts": dict(counts),
        "work": dict(work),
        "spans": len(recorder.spans),
    }


# -- the start-up layer: measured in fresh interpreters ------------------------

_DISCOVER = r"""
import contextlib, io, json, sys
import repro.cli
before = set(sys.modules)
mode, path = sys.argv[1], sys.argv[2]
if mode == "lint":
    with contextlib.redirect_stdout(io.StringIO()):
        repro.cli.main(["lint", path])
else:
    from repro.robust.pool import _pool_worker
    from repro.perf.batch import _analyze_one
    _analyze_one({"label": "probe", "source": open(path).read()})
print(json.dumps(sorted(m for m in set(sys.modules) - before
                        if m.split(".")[0] == "repro")))
"""

_IMPORT = r"""
import importlib, json, sys, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
modules = sum(1 for m in sys.modules if m.split(".")[0] == "repro")
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
t2 = time.perf_counter()
print(json.dumps({"cli_ms": (t1 - t0) * 1e3, "lazy_ms": (t2 - t1) * 1e3,
                  "modules": modules}))
"""


def _probe(ctx, *args: str) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = ctx.children.spawn(python_argv(*args), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    code = ctx.children.reap(proc)
    ms = (time.perf_counter() - t0) * 1000.0
    ctx.check(code == 0, f"probe {args[:2]} exited {code}")
    return ms, out.decode()


def startup_probes(ctx, repeats: int) -> dict:
    """Interpreter start, ``import repro.cli``, and the modules the lint
    verb and a pool worker import lazily after it, each timed in fresh
    interpreters (median over ``repeats``)."""
    directory = ctx.write_programs(["demo"])
    demo = str(directory / "demo.dfg")
    lazy = {
        mode: json.loads(_probe(ctx, "-c", _DISCOVER, mode, demo)[1] or "[]")
        for mode in ("lint", "worker")
    }
    samples: dict[str, list] = defaultdict(list)
    for _ in range(repeats):
        samples["interpreter"].append(_probe(ctx, "-c", "pass")[0])
        for mode in ("cli", "lint", "worker"):
            names = json.dumps(lazy.get(mode, []))
            row = json.loads(_probe(ctx, "-c", _IMPORT, names)[1])
            samples[f"{mode}_ms"].append(
                row["cli_ms"] if mode == "cli" else row["lazy_ms"]
            )
            samples["modules"].append(row["modules"])
    return {
        "startup.interpreter_ms": statistics.median(samples["interpreter"]),
        "startup.import_cli_ms": statistics.median(samples["cli_ms"]),
        "startup.import_lint_ms": statistics.median(samples["lint_ms"]),
        "startup.import_worker_ms": statistics.median(samples["worker_ms"]),
        "startup.modules_cli": max(samples["modules"]),
        "lazy_modules": lazy,
    }
