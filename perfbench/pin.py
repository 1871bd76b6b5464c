"""Regenerate the pinned program pool and expected answers.

    python3 perfbench/pin.py

Writes ``data/pool.json`` (every program text the workloads can draw),
``data/expected.json`` (the answers each workload checks) and
``data/MANIFEST.json`` (their digests).  The pool is generated with
``repro.perf.batch`` program families once and then stored, so later
edits to the generators do not change what is measured.  Regenerate only
in a change to the benchmark itself; the expected answers are the
current program's, so a changed answer is a benchmark failure until the
pin is renewed on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs, witness  # noqa: E402
from perfbench.common import (  # noqa: E402
    DATA, canonical, child_env, sha256, write_manifest,
)

#: Seeds whose generated inputs are pinned by digest.
PINNED_SEEDS = (0, 1, 2)
SUITE_SIZES = range(80, 121, 4)
SUITE_VARIANTS = 4
EDIT_STEPS = 3


def build_pool() -> dict:
    from repro.lang.pretty import pretty_program
    from repro.perf.batch import equivalence_suite, resolve_family

    programs: dict[str, str] = {}
    corpus: list[str] = []
    strata = {"random": [], "irreducible": [], "jump": [], "ladder": []}
    for spec in equivalence_suite():
        label, family = spec["label"], spec["family"]
        program = resolve_family(family)(*spec["args"])
        programs[label] = pretty_program(program)
        corpus.append(label)
        strata[family if family in strata else "ladder"].append(label)
    programs["demo"] = (ROOT / "examples" / "lint_demo.dfg").read_text()
    buckets = []
    for size in SUITE_SIZES:
        bucket = []
        for variant in range(SUITE_VARIANTS):
            label = f"suite-random-{size}-v{variant}"
            program = resolve_family("random")(size * 10 + variant, size, 6)
            programs[label] = pretty_program(program)
            bucket.append(label)
        buckets.append(bucket)
    fixed = []
    for label, family, args in (
        ("suite-diamond-120", "diamond", [120]),
        ("suite-wide-96", "wide", [96, 2]),
    ):
        programs[label] = pretty_program(resolve_family(family)(*args))
        fixed.append(label)
    return {
        "schema": "perfbench.pool/1",
        "programs": programs,
        "corpus": corpus,
        "strata": strata,
        "suite_buckets": buckets,
        "suite_fixed": fixed,
    }


def cli_answers(pool: dict, labels: list[str]) -> dict:
    """Exit code and stdout digest of ``repro analyze|lint LABEL.dfg``,
    run in-process from the directory holding the file."""
    from repro import cli

    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label in labels:
                name = f"{label}.dfg"
                Path(name).write_text(pool["programs"][label])
                row = {}
                for verb in ("analyze", "lint"):
                    buffer = io.StringIO()
                    with contextlib.redirect_stdout(buffer):
                        code = cli.main([verb, name])
                    row[verb] = [code, sha256(buffer.getvalue().encode())]
                out[label] = row
        finally:
            os.chdir(cwd)
    return out


def check_cli_by_process(pool: dict, expected_cli: dict, label: str) -> None:
    """The in-process answers above must equal a real process's."""
    with tempfile.TemporaryDirectory() as tmp:
        name = f"{label}.dfg"
        (Path(tmp) / name).write_text(pool["programs"][label])
        env = child_env(Path(tmp) / "pyc")
        for verb in ("analyze", "lint"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", verb, name],
                cwd=tmp, env=env, capture_output=True, check=False,
            )
            got = [proc.returncode, sha256(proc.stdout)]
            if got != expected_cli[label][verb]:
                raise SystemExit(f"in-process {verb} {label} differs from CLI")


def serve_answers(pool: dict, labels: list[str]) -> tuple[dict, dict]:
    """Digests of each op's canonical answer, plus the witness replay of
    each lint document (keyed by its digest).  Records each program's
    lint time in ``pool["lint_cost_ms"]``: the workloads stratify their
    draws by it."""
    from repro.serve.ops import run_op

    answers = {op: {} for op in inputs.SOURCE_OPS}
    replays = {}
    pool["lint_cost_ms"] = {}
    for label in labels:
        source = pool["programs"][label]
        for op in inputs.SOURCE_OPS:
            t0 = time.perf_counter()
            result = run_op(op, source, label=f"{label}.dfg")
            if op == "lint":
                pool["lint_cost_ms"][label] = round(
                    (time.perf_counter() - t0) * 1000.0, 1
                )
            answer = canonical(result)
            variant = canonical(run_op(
                op, inputs.doc_source(pool, label, 7), label=f"{label}.dfg"
            ))
            if variant != answer:
                raise SystemExit(f"salted {label} changes the {op} answer")
            answers[op][label] = sha256(answer)
            if op == "lint":
                verdict = witness.replay(source, result)
                if verdict["contradicted"] or verdict["unverified"]:
                    raise SystemExit(f"lint witnesses fail on {label}: {verdict}")
                replays[sha256(answer)] = verdict
    return answers, replays


def edit_scripts(pool: dict, labels: list[str]) -> dict:
    """Up to three rewrites per program (assignments spread over the
    program), each followed by a query whose facts digest is pinned."""
    from repro.serve.cache import ResultCache
    from repro.serve.server import RequestBroker

    scripts = {}
    with tempfile.TemporaryDirectory() as tmp:
        broker = RequestBroker(ResultCache(tmp))

        def call(**request):
            response = broker.handle_line(canonical({"id": 1, **request}))
            if not response["ok"]:
                raise SystemExit(f"edit script failed: {response}")
            return response["result"]

        for label in labels:
            opened = call(op="edit", action="open", session=label,
                          source=pool["programs"][label])
            rows = [r for r in opened["statements"] if r["kind"] == "ASSIGN"]
            if not rows:
                rows = opened["statements"]
            picks = sorted({rows[i * len(rows) // EDIT_STEPS]["id"]
                            for i in range(min(EDIT_STEPS, len(rows)))})
            by_id = {r["id"]: r for r in rows}
            steps = []
            for node in picks:
                expr = f"({by_id[node]['expr']}) + 1"
                call(op="edit", action="rewrite", session=label, node=node,
                     expr=expr)
                facts = call(op="edit", action="query", session=label)["facts"]
                steps.append([node, expr, sha256(canonical(facts))])
            call(op="edit", action="close", session=label)
            scripts[label] = steps
    return scripts


def batch_shapes(pool: dict) -> dict:
    from repro.cfg.builder import build_cfg
    from repro.lang.parser import parse_program

    labels = pool["corpus"] + [
        label for bucket in pool["suite_buckets"] for label in bucket
    ] + pool["suite_fixed"]
    out = {}
    for label in labels:
        graph = build_cfg(parse_program(pool["programs"][label]))
        out[label] = [graph.num_nodes, graph.num_edges]
    return out


def main() -> int:
    DATA.mkdir(exist_ok=True)
    pool = build_pool()
    served = ["demo"] + pool["corpus"]
    expected: dict = {"schema": "perfbench.expected/1"}
    expected["cli"] = cli_answers(pool, served)
    check_cli_by_process(pool, expected["cli"], "demo")
    expected["serve"], expected["lint_witness"] = serve_answers(pool, served)
    expected["edit"] = edit_scripts(pool, served)
    expected["batch"] = batch_shapes(pool)
    expected["inputs"] = {
        workload: {
            str(seed): inputs.inputs_digest(pool, expected, workload, seed)
            for seed in PINNED_SEEDS
        }
        for workload in ("oneshot-cli", "serve-mix", "batch-sweep")
    }
    for name, payload in (("pool.json", pool), ("expected.json", expected)):
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        (DATA / name).write_text(text)
    manifest = write_manifest()
    print(f"pinned {len(pool['programs'])} programs; manifest {manifest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
