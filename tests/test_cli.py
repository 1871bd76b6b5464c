"""CLI smoke tests (direct invocation of the handlers) and golden-output
tests for the JSON-emitting ``profile`` / ``trace`` subcommands.

The golden files live in ``tests/golden/``; timing fields are zeroed
before comparison (span *order* is deterministic, durations are not).
Regenerate after an intentional schema change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import PROFILE_SCHEMA, TRACE_SCHEMA, build_arg_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.dfg"
    path.write_text(
        "a := p; b := q;\n"
        "z := a + b;\n"
        "w := a + b;\n"
        "if (z == 7) { t := z + 1; } else { t := w; }\n"
        "print t;\n"
    )
    return str(path)


def test_run_prints_outputs(sample, capsys):
    assert main(["run", sample, "--env", "p=3", "--env", "q=4"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_run_default_env(sample, capsys):
    assert main(["run", sample]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_analyze_reports_structure(sample, capsys):
    assert main(["analyze", sample]) == 0
    out = capsys.readouterr().out
    assert "cycle-equivalence classes" in out
    assert "SESE regions" in out
    assert "dependence edges" in out


def test_analyze_writes_dot(sample, tmp_path, capsys):
    dot = str(tmp_path / "g.dot")
    assert main(["analyze", sample, "--dot", dot]) == 0
    text = open(dot).read()
    assert text.startswith("digraph")
    assert "->" in text


def test_optimize_reports_and_preserves(sample, capsys):
    assert main(["optimize", sample, "--env", "p=3", "--env", "q=4"]) == 0
    out = capsys.readouterr().out
    assert "outputs (unchanged): [8]" in out
    assert "dynamic expression evaluations" in out


def test_bad_env_rejected(sample):
    with pytest.raises(SystemExit):
        main(["run", sample, "--env", "p=notanumber"])


@pytest.mark.parametrize("verb", ["run", "optimize"])
@pytest.mark.parametrize(
    "value", ["--5", "²"], ids=["double-minus", "superscript-two"]
)
def test_non_integer_env_gets_the_bad_env_message(sample, verb, value):
    # ``isdigit`` accepts both; ``int`` does not.  They are rejected with
    # the one-line message, not a ValueError traceback.
    with pytest.raises(SystemExit) as exc:
        main([verb, sample, "--env", f"p={value}"])
    assert str(exc.value) == f"bad --env entry 'p={value}'; expected name=int"


# -- golden JSON output --------------------------------------------------------


def _scrub_times(obj):
    """Zero every timing field; everything else must match exactly."""
    if isinstance(obj, dict):
        return {
            key: 0.0 if key in ("wall_ms", "dur_ms", "start_ms")
            else _scrub_times(value)
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [_scrub_times(item) for item in obj]
    return obj


def _check_golden(name: str, payload: dict) -> None:
    normalized = _scrub_times(payload)
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(json.dumps(normalized, indent=2, sort_keys=True) + "\n")
    expected = json.loads(path.read_text())
    assert normalized == expected, f"{name} drifted; see module docstring"


def test_profile_matches_golden(sample, capsys):
    assert main(["profile", sample]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == PROFILE_SCHEMA
    _check_golden("profile_sample.json", payload)


def test_trace_matches_golden(sample, capsys):
    assert main(["trace", sample]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == TRACE_SCHEMA
    _check_golden("trace_sample.json", payload)


def test_profile_meets_reporting_floor(sample, capsys):
    """Acceptance criterion: per-pass rows with work units, wall time and
    cache traffic for at least six passes."""
    assert main(["profile", sample]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload["passes"]
    assert len(rows) >= 6
    with_work = [row for row in rows if row["work_total"] > 0]
    assert len(with_work) >= 6
    for row in rows:
        assert {"pass", "cache", "work", "work_total", "wall_ms"} <= set(row)
        assert row["cache"]["misses"] >= 1
        assert row["cache"]["hits"] >= 1  # the warm second sweep
    assert payload["totals"]["cache"]["invalidations"] == 0


def test_trace_spans_interleave_cold_and_warm(sample, capsys):
    assert main(["trace", sample]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name: dict[str, list] = {}
    for span in payload["spans"]:
        by_name.setdefault(span["name"], []).append(span["cached"])
    # Every pass appears cold exactly once, and warm at least once
    # (second sweep, plus dependency hits).
    for name, flags in by_name.items():
        assert flags.count(False) == 1, name
        assert flags.count(True) >= 1, name


def test_profile_optimize_flag(sample, capsys):
    assert main(["profile", sample, "--optimize"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # The optimizer's transforms invalidate analyses mid-run.
    assert payload["totals"]["cache"]["invalidations"] > 0


def test_constant_program_analysis(tmp_path, capsys):
    path = tmp_path / "const.dfg"
    path.write_text("x := 2; y := x + 3; if (0) { z := 1; } print y;\n")
    assert main(["analyze", str(path), "-v"]) == 0
    out = capsys.readouterr().out
    assert "y = 5" in out or "x = 2" in out
    assert "dead code" in out


# -- batch --------------------------------------------------------------------


def test_batch_in_process(tmp_path, capsys):
    out = str(tmp_path / "batch.json")
    assert main(
        ["batch", "--workers", "0", "--programs", "2", "--size", "30",
         "--output", out]
    ) == 0
    payload = json.load(open(out))
    batch = payload["batch"]
    assert batch["workers"] == 0
    assert batch["programs"] == 2  # --programs caps the suite
    assert batch["passes"] and all(
        row["work"] >= 0 for row in batch["passes"].values()
    )


def test_batch_lint_suite_smoke(tmp_path, capsys):
    out = str(tmp_path / "lint_batch.json")
    assert main(
        ["batch", "--suite", "lint", "--smoke", "--workers", "0",
         "--output", out]
    ) == 0
    err = capsys.readouterr().err
    assert "unverified definite" in err
    batch = json.load(open(out))["batch"]
    lint = batch["lint"]
    assert lint["programs"] == batch["programs"] > 0
    assert lint["findings"] > 0 and lint["verified"] > 0
    # The gate the CI job relies on: nothing definite ships unverified.
    assert lint["unverified_definite"] == 0
    # Per-program rows carry their own lint summaries and pass metrics.
    assert batch.get("errors", 0) == 0 and batch.get("quarantined", 0) == 0


def test_batch_lint_suite_pool_matches_in_process(tmp_path, capsys):
    """SupervisedPool must aggregate identical lint findings (and per-pass
    work) to the in-process path; only wall times may differ."""
    out0 = str(tmp_path / "l0.json")
    out2 = str(tmp_path / "l2.json")
    args = ["batch", "--suite", "lint", "--smoke"]
    assert main(args + ["--workers", "0", "--output", out0]) == 0
    assert main(args + ["--workers", "2", "--output", out2]) == 0
    capsys.readouterr()
    serial = json.load(open(out0))["batch"]
    pooled = json.load(open(out2))["batch"]
    assert pooled["workers"] == 2
    assert pooled["lint"] == serial["lint"]
    assert {k: v["work"] for k, v in pooled["passes"].items()} == (
        {k: v["work"] for k, v in serial["passes"].items()}
    )
    # The lint registry's rule passes show up in the aggregated metrics.
    assert "lint-dead-store" in pooled["passes"]


def test_batch_spawn_pool_matches_in_process(tmp_path, capsys):
    """The multiprocessing path must aggregate the same per-pass work
    totals as the in-process path (wall times differ, work is exact)."""
    out0 = str(tmp_path / "b0.json")
    out2 = str(tmp_path / "b2.json")
    args = ["batch", "--programs", "2", "--size", "30"]
    assert main(args + ["--workers", "0", "--output", out0]) == 0
    assert main(args + ["--workers", "2", "--output", out2]) == 0
    serial = json.load(open(out0))["batch"]
    pooled = json.load(open(out2))["batch"]
    assert pooled["workers"] == 2
    assert {k: v["work"] for k, v in pooled["passes"].items()} == (
        {k: v["work"] for k, v in serial["passes"].items()}
    )


# -- unknown --suite diagnostics (PR 5 satellite) -----------------------------


@pytest.mark.parametrize(
    "command, suites",
    [
        ("batch", ("default", "equivalence", "lint")),
        ("fuzz", ("default", "smoke")),
    ],
)
def test_unknown_suite_exits_2_and_lists_names(capsys, command, suites):
    """A typo'd --suite must not traceback: exit code 2 and a one-line
    diagnostic that names every available suite."""
    assert main([command, "--suite", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "bogus" in err
    for name in suites:
        assert name in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["request", "ping", "--socket", "x.sock", "--timeout", "-1"],
         "--timeout"),
        (["batch", "--workers", "0", "--timeout", "-1"], "--timeout"),
        (["chaos", "--smoke", "--budget", "-1"], "--budget"),
        (["fuzz", "--suite", "smoke", "--budget", "0"], "--budget"),
        (["batch", "--workers", "0", "--programs", "0"], "--programs"),
        (["batch", "--workers", "0", "--size", "-5"], "--size"),
        (["run", "FILE", "--max-steps", "0"], "--max-steps"),
        (["optimize", "FILE", "--max-steps", "-3"], "--max-steps"),
        (["lint", "FILE", "--max-steps", "0"], "--max-steps"),
    ],
    ids=["request-timeout", "batch-timeout", "chaos-budget", "fuzz-budget",
         "batch-programs", "batch-size", "run-max-steps",
         "optimize-max-steps", "lint-max-steps"],
)
def test_non_positive_flag_is_rejected_before_any_work(
    sample, tmp_path, capsys, argv, flag
):
    """A non-positive duration or count is an input error naming the
    flag: exit 2, one line, no traceback, and nothing written."""
    out = tmp_path / "out.json"
    argv = [sample if arg == "FILE" else arg for arg in argv]
    if argv[0] in ("batch", "chaos", "fuzz", "lint"):
        argv = argv + ["--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro: input error: {flag} must be positive")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "FILE", "--env", "x=1"],
        ["analyze", "FILE", "--max-steps", "5"],
        ["optimize", "FILE", "-v"],
        ["profile", "FILE", "--env", "x=1"],
        ["profile", "FILE", "--max-steps", "5"],
        ["profile", "FILE", "-v"],
        ["trace", "FILE", "--env", "x=1"],
        ["trace", "FILE", "--max-steps", "5"],
        ["trace", "FILE", "-v"],
        ["bench", "--smoke"],
    ],
    ids=["analyze-env", "analyze-max-steps", "optimize-verbose",
         "profile-env", "profile-max-steps", "profile-verbose",
         "trace-env", "trace-max-steps", "trace-verbose", "bench-verb"],
)
def test_options_a_verb_does_not_read_are_rejected(sample, argv):
    """Each verb declares only the options its handler reads, so an
    option the verb would ignore is a usage error (argparse's exit 2),
    not a silent no-op; ``bench`` is not a verb."""
    argv = [sample if arg == "FILE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        build_arg_parser().parse_args(argv)
    assert exc.value.code == 2


def test_fuzz_cli_smoke(tmp_path, capsys):
    out = str(tmp_path / "fuzz.json")
    assert main(
        ["fuzz", "--suite", "smoke", "--budget", "12", "--seed", "0",
         "--output", out]
    ) == 0
    err = capsys.readouterr().err
    assert "planted recall" in err
    payload = json.load(open(out))
    assert payload["schema"] == "repro.fuzz/1"
    assert payload["trials"] == 12
    assert payload["ok"] is True


def test_missing_file_exits_2_with_one_line_diagnostic(capsys):
    assert main(["run", "/tmp/definitely-does-not-exist.dfg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: input error:")
    assert "Traceback" not in err
