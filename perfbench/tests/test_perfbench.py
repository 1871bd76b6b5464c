"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q

Each test runs the benchmark in a throwaway checkout: a copy of
``perfbench/`` and ``BENCHMARK.json`` next to a link to the real ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
WORKLOADS = ("oneshot-cli", "serve-mix", "batch-sweep")
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture
def checkout(tmp_path):
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copytree(REPO / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    (root / "src").symlink_to(REPO / "src")
    return root


def bench(root: Path, *args: str, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail_of(root: Path, workload: str, seed: int, trace: int) -> dict:
    path = root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", (0, 7))
def test_inputs_are_identical_across_hash_seeds(checkout, workload, seed):
    dumps = [
        bench(checkout, "--workload", workload, "--seed", str(seed),
              "--dump-inputs", env={"PYTHONHASHSEED": hash_seed})
        for hash_seed in ("1", "2")
    ]
    assert all(proc.returncode == 0 for proc in dumps), dumps[0].stderr
    assert dumps[0].stdout == dumps[1].stdout
    assert json.loads(dumps[0].stdout)["seed"] == seed


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_pass_runs_end_to_end(checkout, workload, trace):
    result = result_of(bench(checkout, "--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace),
                             "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for spec in declared:
        value = result["metrics"][spec["name"]]
        assert value["unit"] == spec["unit"]
        assert isinstance(value["value"], (int, float))
    if trace:
        for section in detail_of(checkout, workload, 3, 1)["detail"]["sections"].values():
            assert abs(section["layers"]["balance_ms"]) < 1e-6
    assert not (checkout / ".perfbench_tmp").exists()


def test_perturbed_expected_digest_counts_as_failure(checkout):
    data = checkout / "perfbench" / "data"
    expected = json.loads((data / "expected.json").read_text())
    expected["cli"]["demo"]["lint"][1] = "0" * 64
    blob = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    (data / "expected.json").write_text(blob)
    manifest = json.loads((data / "MANIFEST.json").read_text())
    manifest["expected.json"] = hashlib.sha256(blob.encode()).hexdigest()
    (data / "MANIFEST.json").write_text(json.dumps(manifest))
    result = result_of(bench(checkout, "--workload", "oneshot-cli", "--seed",
                             "3", "--seconds", "1", "--smoke"))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["failed"] <= result["attempted"]


def test_back_to_back_serve_runs_both_begin_with_misses(checkout):
    for _ in range(2):
        result = result_of(bench(checkout, "--workload", "serve-mix", "--seed",
                                 "4", "--seconds", "1", "--smoke"))
        assert result["correct"]
        detail = detail_of(checkout, "serve-mix", 4, 0)["detail"]
        assert detail["first_tiers"][0] == "miss"
        assert detail["tier_matches"]["other"] == 0


def test_tampered_data_or_missing_program_measures_nothing(checkout):
    (checkout / "src").unlink()
    proc = bench(checkout, "--workload", "batch-sweep", "--seed", "0")
    assert proc.returncode != 0 and proc.stdout == ""
    (checkout / "src").symlink_to(REPO / "src")
    pool = checkout / "perfbench" / "data" / "pool.json"
    pool.write_text(pool.read_text().replace("print", "print ", 1))
    proc = bench(checkout, "--workload", "batch-sweep", "--seed", "0")
    assert proc.returncode != 0 and proc.stdout == ""
