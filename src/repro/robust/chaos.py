"""The deterministic fault-injection harness behind ``repro chaos``.

Trusting a fallback path that has never fired is how robustness code
rots.  This harness *makes* every path fire: for each program of a
suite it plans a seeded set of faults -- injected exceptions, virtual
delays, corrupted intermediate results -- against registered analysis
passes, runs the program through an
:class:`~repro.pipeline.manager.AnalysisManager` carrying a
:class:`~repro.robust.fallback.DegradationPolicy`, and then holds the
runtime to its contract:

* a fault in an oracle-backed pass must be *recovered* (oracle
  fallback / cross-check substitution / timeout fallback) and the run's
  results must be identical to a clean, uninjected run;
* a fault in a pass with no oracle must end in *quarantine*: a
  structured record plus a delta-debugged minimized repro.

Everything is deterministic: fault plans derive from SHA-256 of
``(seed, program index, label)``, delays advance a
:class:`~repro.robust.watchdog.FakeClock` rather than sleeping, and the
``repro.chaos/1`` payload contains no wall-clock fields -- the same seed
produces the same payload, byte for byte.

The per-program guaranteed fault rotates through the pass registry
(program ``i`` always faults pass ``i mod n``), so any suite of at
least ``n`` programs exercises every registered pass; extra random
faults land only on oracle-backed passes, which keeps them recoverable
and the guaranteed target reachable.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Mapping

from repro.robust.errors import (
    ReproError,
    error_record,
    graph_fingerprint,
)
from repro.robust.fallback import DegradationPolicy
from repro.robust.incidents import IncidentLog
from repro.robust.minimize import minimize_program
from repro.robust.watchdog import Deadline, FakeClock

CHAOS_SCHEMA = "repro.chaos/1"
QUARANTINE_SCHEMA = "repro.quarantine/1"

#: Virtual seconds: per-program pass deadline, and how long an injected
#: delay stalls.  The delay must exceed the budget so every delay fault
#: trips the watchdog.
DEFAULT_BUDGET_S = 1.0
DELAY_S = 2.0


class ChaosFault(RuntimeError):
    """The exception an injected ``raise`` fault throws inside a pass."""


@dataclass(frozen=True)
class Fault:
    """One planned fault against one pass."""

    pass_name: str
    kind: str  # "raise" | "delay" | "corrupt"
    delay_s: float = 0.0

    def as_dict(self) -> dict:
        return {"pass": self.pass_name, "kind": self.kind}


def derive_seed(seed: int, label: str) -> int:
    """A stable per-program RNG seed, independent of hash randomization."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def corrupt_result(result: object) -> object:
    """Deterministically damage a pass result in place.

    Shape-aware so the damaged value still *looks like* the right type
    (the cross-check comparator must be able to inspect it): drop a dict
    entry, orphan a dominator-tree node, reverse a DFS ordering, drop a
    SESE region.  Falls back to raising :class:`ChaosFault` for shapes
    it does not know how to damage plausibly.
    """
    if isinstance(result, dict):
        if result:
            del result[next(iter(result))]
        else:
            result["__chaos__"] = True  # type: ignore[index]
        return result
    idom = getattr(result, "idom", None)
    if isinstance(idom, dict):
        for key, value in idom.items():
            if value is not None:
                del idom[key]
                break
        return result
    preorder = getattr(result, "preorder", None)
    if isinstance(preorder, list):
        result.preorder = list(reversed(preorder))  # type: ignore[attr-defined]
        return result
    regions = getattr(result, "regions", None)
    if isinstance(regions, list) and regions:
        result.regions = regions[:-1]  # type: ignore[attr-defined]
        return result
    raise ChaosFault("injected corruption (shape not corruptible)")


class FaultInjector:
    """Applies a fault plan; implements the hook
    :class:`~repro.robust.fallback.DegradationPolicy` calls.

    Each planned fault triggers at most once (the first time its pass
    body runs); ``triggered`` records the faults that actually fired, in
    execution order.
    """

    def __init__(
        self, plan: Mapping[str, Fault], clock: FakeClock | None = None
    ) -> None:
        self.plan = dict(plan)
        self.clock = clock
        self.triggered: list[Fault] = []

    def fault_for(self, pass_name: str) -> Fault | None:
        return self.plan.get(pass_name)

    def apply(self, fault, spec, graph, deps, counter):
        del self.plan[fault.pass_name]
        self.triggered.append(fault)
        if fault.kind == "raise":
            raise ChaosFault(
                f"injected failure in pass {fault.pass_name!r}"
            )
        if fault.kind == "delay":
            if self.clock is not None:
                self.clock.advance(fault.delay_s)
            else:
                time.sleep(fault.delay_s)
            return spec.build(graph, deps, counter)
        if fault.kind == "corrupt":
            return corrupt_result(spec.build(graph, deps, counter))
        raise ValueError(f"unknown fault kind {fault.kind!r}")


def make_plan(
    seed: int,
    index: int,
    label: str,
    pass_names: list[str],
    oracle_names: frozenset[str],
    extra_rate: float = 0.25,
    forced: tuple[str, ...] = (),
) -> dict[str, Fault]:
    """The seeded fault plan for program ``index`` of a chaos run.

    One *guaranteed* fault rotates through ``pass_names`` so a suite of
    >= ``len(pass_names)`` programs covers every pass; when the suite is
    *shorter* than the registry, the harness distributes the leftover
    passes as ``forced`` secondary targets onto programs whose primary
    target is oracle-backed (those recover, so the run reaches the
    secondary).  Extra faults are sprinkled only on oracle-backed
    passes: those always recover, so they can never abort the run
    before the guaranteed target executes.
    """
    rng = random.Random(derive_seed(seed, f"{index}:{label}"))
    targets = [pass_names[index % len(pass_names)]]
    for name in forced:
        if name not in targets:
            targets.append(name)
    plan: dict[str, Fault] = {}
    for name in sorted(oracle_names & set(pass_names)):
        if name not in targets and rng.random() < extra_rate:
            kind = rng.choice(("raise", "corrupt", "delay"))
            plan[name] = Fault(name, kind, DELAY_S if kind == "delay" else 0.0)
    for target in targets:
        if target in oracle_names:
            kind = rng.choice(("raise", "corrupt", "delay"))
        else:
            # Unrecoverable on purpose: exercises quarantine + minimization.
            kind = rng.choice(("raise", "delay"))
        plan[target] = Fault(target, kind, DELAY_S if kind == "delay" else 0.0)
    return plan


# -- the harness -------------------------------------------------------------


def _build_spec_program(spec: dict):
    from repro.perf.batch import resolve_family

    return resolve_family(spec["family"])(*spec["args"])


def _chaos_manager(graph, plan, budget_s):
    """A manager wired for one injected run; returns (manager, injector,
    incident log)."""
    from repro.pipeline.manager import AnalysisManager
    from repro.util.metrics import Metrics

    clock = FakeClock()
    log = IncidentLog()
    injector = FaultInjector(plan, clock)
    policy = DegradationPolicy(
        incidents=log,
        cross_check=True,
        deadline=Deadline(budget_s, clock=clock.now),
        injector=injector,
    )
    manager = AnalysisManager(graph, metrics=Metrics(), policy=policy)
    return manager, injector, log


def _quarantine(
    spec: dict,
    source: str,
    exc: ReproError,
    plan: dict[str, Fault],
    budget_s: float,
    minimize_budget: int,
) -> dict:
    """Build the quarantine record, minimizing the failing program."""
    from repro.cfg.builder import build_cfg

    def fails(candidate) -> bool:
        graph = build_cfg(candidate)
        manager, _, _ = _chaos_manager(graph, plan, budget_s)
        try:
            manager.run_all()
        except ReproError as candidate_exc:
            return (
                type(candidate_exc) is type(exc)
                and candidate_exc.pass_name == exc.pass_name
            )
        return False

    minimized, evals = minimize_program(
        source, fails, budget=minimize_budget
    )
    return {
        "schema": QUARANTINE_SCHEMA,
        "label": spec["label"],
        "family": spec["family"],
        "args": list(spec["args"]),
        "error": error_record(exc),
        "plan": [fault.as_dict() for fault in plan.values()],
        "source": source,
        "minimized_source": minimized,
        "original_stmts": source.count("\n"),
        "minimized_stmts": minimized.count("\n"),
        "predicate_evals": evals,
    }


def run_chaos(
    suite: list[dict] | None = None,
    seed: int = 0,
    smoke: bool = False,
    budget_s: float = DEFAULT_BUDGET_S,
    extra_rate: float = 0.25,
    minimize_budget: int = 200,
    quarantine_dir: str | None = None,
) -> dict:
    """Run the fault-injection sweep; return the ``repro.chaos/1`` payload.

    ``payload["ok"]`` is True iff every program with a triggered fault
    was either recovered with results identical to its clean run, or
    quarantined with a minimized repro -- the acceptance contract.
    """
    from repro.cfg.builder import build_cfg
    from repro.lang.pretty import pretty_program
    from repro.perf.batch import equivalence_suite
    from repro.pipeline.manager import AnalysisManager
    from repro.pipeline.passes import default_registry
    from repro.util.metrics import Metrics

    if suite is None:
        suite = equivalence_suite(smoke=smoke)
    registry = default_registry()
    pass_names = registry.names()
    oracle_names = frozenset(
        spec.name for spec in registry if spec.oracle is not None
    )

    # A suite shorter than the registry cannot cover every pass by
    # rotation alone: hand the leftover passes out as secondary targets
    # on programs whose primary fault recovers (oracle-backed), so the
    # run survives long enough to trigger them.
    forced_by_index: dict[int, tuple[str, ...]] = {}
    hosts = [
        i for i in range(len(suite))
        if pass_names[i % len(pass_names)] in oracle_names
    ]
    if len(suite) < len(pass_names) and hosts:
        leftover = pass_names[len(suite):]
        assignments: dict[int, list[str]] = {}
        for k, name in enumerate(leftover):
            assignments.setdefault(hosts[k % len(hosts)], []).append(name)
        forced_by_index = {
            i: tuple(names) for i, names in assignments.items()
        }

    rows: list[dict] = []
    triggered_passes: set[str] = set()
    quarantine_records: list[dict] = []
    for index, spec in enumerate(suite):
        program = _build_spec_program(spec)
        source = pretty_program(program)
        graph = build_cfg(program)
        clean = AnalysisManager(graph, metrics=Metrics()).run_all()

        plan = make_plan(
            seed, index, spec["label"], pass_names, oracle_names, extra_rate,
            forced=forced_by_index.get(index, ()),
        )
        manager, injector, log = _chaos_manager(graph, dict(plan), budget_s)
        row: dict = {
            "label": spec["label"],
            "fingerprint": graph_fingerprint(graph),
            "planned": [fault.as_dict() for fault in plan.values()],
        }
        try:
            results = manager.run_all()
        except ReproError as exc:
            record = _quarantine(
                spec, source, exc, plan, budget_s, minimize_budget
            )
            quarantine_records.append(record)
            row.update(
                outcome="quarantined",
                identical=None,
                error=error_record(exc),
                quarantine={
                    key: record[key]
                    for key in (
                        "minimized_source",
                        "minimized_stmts",
                        "original_stmts",
                        "predicate_evals",
                    )
                },
            )
        else:
            identical = all(
                spec.equal(results[spec.name], clean[spec.name])
                for spec in registry
            )
            row.update(
                outcome="recovered" if injector.triggered else "clean",
                identical=identical,
            )
        row["injected"] = [fault.as_dict() for fault in injector.triggered]
        row["incidents"] = log.as_dicts()
        triggered_passes.update(f.pass_name for f in injector.triggered)
        rows.append(row)

    if quarantine_dir:
        os.makedirs(quarantine_dir, exist_ok=True)
        for record in quarantine_records:
            path = os.path.join(quarantine_dir, f"{record['label']}.json")
            with open(path, "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")

    recovered = [r for r in rows if r["outcome"] == "recovered"]
    quarantined = [r for r in rows if r["outcome"] == "quarantined"]
    ok = all(r["identical"] for r in recovered) and all(
        r["quarantine"]["minimized_source"] for r in quarantined
    )
    if len(suite) >= len(pass_names):
        ok = ok and triggered_passes == set(pass_names)
    totals = {
        "programs": len(rows),
        "faults_injected": sum(len(r["injected"]) for r in rows),
        "recovered": len(recovered),
        "recovered_identical": sum(1 for r in recovered if r["identical"]),
        "quarantined": len(quarantined),
        "incidents": sum(len(r["incidents"]) for r in rows),
        "passes_covered": sorted(triggered_passes),
        "passes_registered": len(pass_names),
    }
    return {
        "schema": CHAOS_SCHEMA,
        "seed": seed,
        "mode": "smoke" if smoke else "full",
        "budget_s": budget_s,
        "rows": rows,
        "totals": totals,
        "ok": ok,
    }
