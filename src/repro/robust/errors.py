"""The error taxonomy of the fault-tolerant runtime.

Research prototypes fail with a stack trace from whatever ``assert`` or
``KeyError`` happened to fire first; a production analysis service needs
every failure to say *what* failed (the pass), *where* (the phase of the
run), and *on which input* (a stable graph fingerprint) -- and it needs
the distinction between "your input is malformed" (:class:`InputError`),
"an analysis kernel broke" (:class:`AnalysisError`) and "an analysis ran
out of wall-clock budget" (:class:`PassTimeout`), because the three have
different remediations: reject, degrade to the oracle, or retry.

:class:`InputError` also subclasses :class:`~repro.cfg.graph.CFGError`
so every existing ``except CFGError`` handler keeps working; raising it
is a strict refinement, not a behavior change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cfg.graph import CFGError

if TYPE_CHECKING:
    from repro.cfg.graph import CFG

ERROR_SCHEMA = "repro.error/1"


class ReproError(Exception):
    """Base class for every structured runtime failure.

    ``phase`` names the stage of the run (``"build-cfg"``,
    ``"pass:dom"``, ``"batch-worker"``, ...); ``pass_name`` the analysis
    pass involved, if any; ``fingerprint`` the
    :func:`graph_fingerprint` of the input graph, so two reports about
    the same graph are recognizably about the same graph.
    """

    kind = "error"

    def __init__(
        self,
        message: str,
        phase: str | None = None,
        pass_name: str | None = None,
        fingerprint: str | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.phase = phase
        self.pass_name = pass_name
        self.fingerprint = fingerprint

    def __str__(self) -> str:
        context = ", ".join(
            f"{key}={value}"
            for key, value in (
                ("pass", self.pass_name),
                ("phase", self.phase),
                ("graph", self.fingerprint),
            )
            if value
        )
        return f"{self.message} [{context}]" if context else self.message

    def as_dict(self) -> dict:
        """The structured record embedded in incident / batch payloads."""
        return {
            "schema": ERROR_SCHEMA,
            "kind": self.kind,
            "type": type(self).__name__,
            "message": self.message,
            "phase": self.phase,
            "pass": self.pass_name,
            "fingerprint": self.fingerprint,
        }


class InputError(ReproError, CFGError):
    """The input (program text or constructed CFG) is malformed.

    Raised by the validator with *one* precise diagnostic -- the first
    violation plus a count of the rest -- instead of whatever deep
    ``KeyError`` the malformation would eventually cause.
    """

    kind = "input"

    def __init__(
        self,
        message: str,
        phase: str | None = None,
        fingerprint: str | None = None,
        violations: list[str] | None = None,
    ) -> None:
        super().__init__(message, phase=phase, fingerprint=fingerprint)
        self.violations = list(violations or ())

    def as_dict(self) -> dict:
        record = super().as_dict()
        record["violations"] = list(self.violations)
        return record


class AnalysisError(ReproError):
    """An analysis kernel failed on well-formed input.

    This is the "bug in the fast path" error: the degradation policy
    raises it only when no ``*_reference`` oracle could absorb the
    failure.  ``__cause__`` carries the original exception.
    """

    kind = "analysis"


class PassTimeout(AnalysisError):
    """A pass exceeded its wall-clock budget."""

    kind = "timeout"

    def __init__(
        self,
        message: str,
        phase: str | None = None,
        pass_name: str | None = None,
        fingerprint: str | None = None,
        budget_s: float | None = None,
        elapsed_s: float | None = None,
    ) -> None:
        super().__init__(
            message, phase=phase, pass_name=pass_name, fingerprint=fingerprint
        )
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s

    def as_dict(self) -> dict:
        record = super().as_dict()
        record["budget_s"] = self.budget_s
        record["elapsed_s"] = self.elapsed_s
        return record


class StaleSnapshotError(AnalysisError, ValueError):
    """A kernel was handed a CSR snapshot of an outdated graph shape.

    Subclasses :class:`ValueError` for callers that predate the
    taxonomy.
    """

    kind = "stale-snapshot"


def error_record(exc: BaseException) -> dict:
    """A structured record for *any* exception (taxonomy or foreign)."""
    if isinstance(exc, ReproError):
        return exc.as_dict()
    return {
        "schema": ERROR_SCHEMA,
        "kind": "unexpected",
        "type": type(exc).__name__,
        "message": str(exc),
        "phase": None,
        "pass": None,
        "fingerprint": None,
    }


def graph_fingerprint(graph: "CFG") -> str:
    """A short stable digest of a CFG's full content.

    Covers node kinds, targets and expressions, edge endpoints and
    labels, and the start/end designation -- everything an analysis can
    observe -- in id-sorted order, so the fingerprint is independent of
    construction order, dict iteration and hash seeds.  Two failure
    reports with the same fingerprint are about the same graph.
    """
    import hashlib

    hasher = hashlib.sha256()
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        hasher.update(
            f"n{nid}:{node.kind.value}:{node.target}:{node.expr!r};".encode()
        )
    for eid in sorted(graph.edges):
        edge = graph.edges[eid]
        hasher.update(
            f"e{eid}:{edge.src}->{edge.dst}:{edge.label};".encode()
        )
    hasher.update(f"s{graph.start}:t{graph.end}".encode())
    return hasher.hexdigest()[:12]
