"""The deterministic fault-injection harness (``repro chaos``)."""

from __future__ import annotations

import json

import pytest

from repro.pipeline.passes import default_registry
from repro.robust.chaos import (
    ChaosFault,
    Fault,
    FaultInjector,
    corrupt_result,
    derive_seed,
    make_plan,
    run_chaos,
)


def _oracle_names() -> frozenset[str]:
    return frozenset(
        spec.name for spec in default_registry() if spec.oracle is not None
    )


@pytest.fixture(scope="module")
def smoke_payload():
    return run_chaos(smoke=True, seed=0)


# -- plans -------------------------------------------------------------------


def test_derive_seed_stable_and_distinct() -> None:
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") != derive_seed(1, "a")


def test_plan_guarantees_rotating_target() -> None:
    names = default_registry().names()
    oracles = _oracle_names()
    for index in range(len(names)):
        plan = make_plan(0, index, f"p{index}", names, oracles)
        assert names[index % len(names)] in plan


def test_plan_keeps_unrecoverable_faults_on_the_target_only() -> None:
    names = default_registry().names()
    oracles = _oracle_names()
    for index in range(len(names) * 2):
        target = names[index % len(names)]
        plan = make_plan(7, index, f"p{index}", names, oracles)
        for name, fault in plan.items():
            if name == target:
                if name not in oracles:
                    # No oracle: corruption would propagate silently.
                    assert fault.kind in ("raise", "delay")
            else:
                # Extra faults only on always-recoverable passes.
                assert name in oracles


# -- injector and corruption -------------------------------------------------


def test_injector_triggers_each_fault_once() -> None:
    calls = []

    class Spec:
        name = "dfs"

        @staticmethod
        def build(graph, deps, counter):
            calls.append(1)
            return "result"

    injector = FaultInjector({"dfs": Fault("dfs", "raise")})
    fault = injector.fault_for("dfs")
    with pytest.raises(ChaosFault):
        injector.apply(fault, Spec, None, {}, None)
    assert injector.fault_for("dfs") is None  # consumed
    assert injector.triggered == [fault]
    assert not calls


def test_corrupt_result_damages_but_keeps_shape() -> None:
    damaged = corrupt_result({"a": 1, "b": 2})
    assert isinstance(damaged, dict) and len(damaged) == 1

    class TreeLike:
        def __init__(self):
            self.idom = {0: None, 1: 0, 2: 1}

    tree = corrupt_result(TreeLike())
    assert len(tree.idom) == 2  # one non-root entry dropped

    class DFSLike:
        def __init__(self):
            self.preorder = [0, 1, 2]

    dfs = corrupt_result(DFSLike())
    assert dfs.preorder == [2, 1, 0]

    with pytest.raises(ChaosFault):
        corrupt_result(object())


# -- the sweep ---------------------------------------------------------------


def test_smoke_sweep_satisfies_contract(smoke_payload) -> None:
    payload = smoke_payload
    assert payload["ok"] is True
    totals = payload["totals"]
    assert totals["programs"] == 24
    assert totals["faults_injected"] > 0
    # Every registered pass took at least one fault.
    assert len(totals["passes_covered"]) == totals["passes_registered"]
    for row in payload["rows"]:
        assert row["outcome"] in ("recovered", "quarantined", "clean")
        if row["outcome"] == "recovered":
            # Recovery means byte-identical results to the clean run.
            assert row["identical"] is True
        if row["outcome"] == "quarantined":
            quarantine = row["quarantine"]
            assert quarantine["minimized_source"].strip()
            assert (
                quarantine["minimized_stmts"] <= quarantine["original_stmts"]
            )


def test_smoke_sweep_is_deterministic(smoke_payload) -> None:
    again = run_chaos(smoke=True, seed=0)
    assert json.dumps(again, sort_keys=True) == json.dumps(
        smoke_payload, sort_keys=True
    )


def test_different_seed_changes_the_plan(smoke_payload) -> None:
    other = run_chaos(smoke=True, seed=1)
    assert json.dumps(other, sort_keys=True) != json.dumps(
        smoke_payload, sort_keys=True
    )


def test_quarantine_dir_receives_repro_artifacts(tmp_path) -> None:
    suite = [
        {"label": f"random-{seed}", "family": "random", "args": [seed, 18, 4]}
        for seed in range(2)
    ]
    payload = run_chaos(
        suite=suite, seed=0, quarantine_dir=str(tmp_path)
    )
    quarantined = [
        row for row in payload["rows"] if row["outcome"] == "quarantined"
    ]
    written = list(tmp_path.glob("*.json"))
    assert len(written) == len(quarantined)
    for path in written:
        record = json.loads(path.read_text())
        assert record["schema"] == "repro.quarantine/1"
        assert record["minimized_source"]
        assert record["error"]["type"]


def test_cli_chaos_smoke(tmp_path, capsys) -> None:
    from repro.cli import main

    out = str(tmp_path / "chaos.json")
    assert main(["chaos", "--smoke", "--seed", "0", "--output", out]) == 0
    payload = json.load(open(out))
    assert payload["schema"] == "repro.chaos/1"
    assert payload["ok"] is True
    stdout = capsys.readouterr().out
    assert "passes covered" in stdout
