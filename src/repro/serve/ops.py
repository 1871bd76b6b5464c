"""The request vocabulary: op payload builders shared by daemon and CLI.

The acceptance contract of the serve subsystem is *byte identity*: a
daemon response must equal the one-shot answer for the same source.  The
only robust way to get that is to have exactly one implementation of
each answer, so both the daemon's request broker and the one-shot path
(``repro request`` without a server) call
:func:`run_op` -- a pure function from ``(op, source)`` to a
JSON-serializable payload with fully deterministic content (every
collection sorted, no wall-clock fields).

``OP_PASSES`` declares which registered passes each op consumes; the
daemon uses it to warm-start a cold manager from the cross-run cache
(import the pass blobs) and to publish freshly computed results back.

The analysis stack is imported where an answer is computed, so a
``repro request`` client that only reads the op vocabulary loads none
of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.robust.errors import InputError

if TYPE_CHECKING:
    from repro.cfg.graph import CFG
    from repro.pipeline.manager import AnalysisManager

#: Protocol ops.  ``edit``, ``stats``, ``ping`` and ``shutdown`` are
#: daemon-only (stateful or lifecycle); the rest are pure functions of
#: the source and go through :func:`run_op` on both sides.
SOURCE_OPS = ("analyze", "constprop", "lint")
OPS = SOURCE_OPS + ("batch-sarif", "edit", "ping", "stats", "shutdown")

#: Registered passes each source op resolves -- the daemon's cache
#: import/export set.  ``lint`` runs its own rule registry and is cached
#: as an op-level document instead (see ``OP_BLOBS``).
OP_PASSES: dict[str, tuple[str, ...]] = {
    "analyze": ("sese", "dfg", "constprop"),
    "constprop": ("dfg", "constprop"),
    "lint": (),
}

#: Op-level cached documents: synthetic pass names for blobs that are
#: canonical JSON rather than exported pass results.
LINT_BLOB = "op:lint"
SARIF_BLOB = "op:sarif"

#: Default step budget per lint oracle refutation probe (the ``repro
#: lint`` CLI default).
DEFAULT_MAX_STEPS = 20_000


def analyze_payload(graph: "CFG", manager: AnalysisManager) -> dict:
    """The ``analyze`` answer: structure, dependence and constant
    counts -- the JSON twin of ``repro analyze``'s text report."""
    from repro.core.dfg import CTRL_VAR

    structure = manager.get("sese")
    dfg = manager.get("dfg")
    constants = manager.get("constprop")
    found = {
        key: value
        for key, value in constants.constant_uses().items()
        if key[1] != CTRL_VAR
    }
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "variables": len(graph.variables()),
        "cycle_classes": len(structure.classes),
        "sese_regions": len(structure.regions),
        "max_nesting": max(
            (r.depth for r in structure.regions), default=0
        ),
        "dfg_edges": dfg.size(),
        "dfg_data_edges": dfg.size(include_control=False),
        "multiedges": len(dfg.multiedges()),
        "constant_uses": {
            f"{node}:{var}": value
            for (node, var), value in sorted(found.items())
        },
        "dead_nodes": sorted(constants.dead_nodes),
    }


def constprop_payload(graph: "CFG", manager: AnalysisManager) -> dict:
    """The ``constprop`` answer: every compile-time constant use plus
    the unreachable statements, from the paper's DFG propagator."""
    from repro.core.dfg import CTRL_VAR

    constants = manager.get("constprop")
    return {
        "constants": {
            f"{node}:{var}": value
            for (node, var), value in sorted(
                constants.constant_uses().items()
            )
            if var != CTRL_VAR
        },
        "dead_nodes": sorted(constants.dead_nodes),
    }


def lint_document(
    graph: "CFG", max_steps: int = DEFAULT_MAX_STEPS
) -> tuple[dict, int]:
    """The canonical (label-free) ``repro.lint/1`` document plus the
    oracle-failure count.

    ``file`` is left empty so the document is a pure function of the
    source -- the daemon caches it under ``op:lint`` and each response
    re-labels a shallow copy with the request's path.
    """
    from repro.lint.engine import LintEngine
    from repro.lint.output import lint_payload

    result = LintEngine(graph).run(verify=True, max_steps=max_steps)
    return lint_payload("", result, 0), len(result.oracle_failures)


def sarif_document(
    label: str, graph: "CFG", max_steps: int = DEFAULT_MAX_STEPS
) -> dict:
    """The SARIF 2.1.0 answer for one document of a ``batch-sarif``
    request (labels are baked into SARIF locations, so the cache key
    covers label *and* source -- see the server's ``_doc_sha``)."""
    from repro.lint.engine import LintEngine
    from repro.lint.output import sarif_payload

    result = LintEngine(graph).run(verify=True, max_steps=max_steps)
    return sarif_payload(label, result.diagnostics)


def run_op(
    op: str,
    source: str,
    label: str = "",
    max_steps: int = DEFAULT_MAX_STEPS,
) -> dict:
    """The one-shot answer for a source op -- the daemon's byte-equality
    oracle.  Raises :class:`~repro.robust.errors.InputError` on an
    unknown op; parse errors propagate as
    :class:`~repro.lang.errors.LangError` (both map to the CLI's exit-2
    contract)."""
    if op not in SOURCE_OPS:
        known = ", ".join(SOURCE_OPS)
        raise InputError(
            f"unknown source op {op!r}; available: {known}",
            phase="serve-op",
        )
    from repro.cfg.builder import build_cfg
    from repro.lang.parser import parse_program

    graph = build_cfg(parse_program(source))
    if op == "lint":
        document, failures = lint_document(graph, max_steps=max_steps)
        if failures:
            from repro.robust.errors import AnalysisError

            raise AnalysisError(
                f"{failures} lint oracle check(s) raised",
                phase="lint-verify",
            )
        return dict(document, file=label)
    from repro.pipeline.manager import AnalysisManager
    from repro.util.metrics import Metrics

    manager = AnalysisManager(graph, metrics=Metrics())
    if op == "analyze":
        return analyze_payload(graph, manager)
    return constprop_payload(graph, manager)
