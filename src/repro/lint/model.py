"""The diagnostic model and the stable rule catalog.

Severities follow the paper's Section 4 split between *all-paths* and
*possible-paths* facts:

* ``definite`` -- true on every execution (all-paths); these findings go
  through the oracle verifier and ship with a measured
  zero-false-positive guarantee.
* ``possible`` -- true on some execution path (possible-paths); sound to
  warn about, not to assert.
* ``info`` -- an optimization opportunity (redundancy, hoisting, copy
  chains), not a defect.

Rule codes are stable identifiers: external consumers (baselines, SARIF
dashboards) key on them, so codes are never renumbered or reused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.lang.ast_nodes import Span

#: Severity levels, strongest first (the order ``--fail-on`` thresholds).
SEVERITIES = ("definite", "possible", "info")

#: SARIF 2.1.0 result levels for each severity.
SARIF_LEVELS = {"definite": "error", "possible": "warning", "info": "note"}


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry for one rule: stable code, human name, the analysis
    that finds it and the oracle that confirms it."""

    code: str
    name: str
    severity: str
    summary: str
    analysis: str
    oracle: str
    fix_hint: str


#: The rule catalog.  The table in DESIGN.md section 10 mirrors this.
RULES: dict[str, RuleInfo] = {
    rule.code: rule
    for rule in (
        RuleInfo(
            "R001", "use-before-def", "definite",
            "variable is read before any assignment on every path",
            "def-use chains: every definition reaching the use is the entry value",
            "reference reaching definitions + trace replay (no probe run "
            "assigns the variable before the use)",
            "assign the variable before this statement",
        ),
        RuleInfo(
            "R002", "maybe-uninitialized", "possible",
            "variable may be read before assignment on some path",
            "def-use chains: the entry value is one of several definitions "
            "reaching the use",
            "reference reaching definitions: both the entry value and a "
            "real assignment reach the use",
            "assign the variable on every path to this statement",
        ),
        RuleInfo(
            "R003", "dead-store", "definite",
            "assigned value is never read",
            "liveness: the target is dead on the assignment's out-edge",
            "reference liveness + differential execution with the "
            "assignment spliced out",
            "remove the assignment or use its value",
        ),
        RuleInfo(
            "R004", "unreachable-statement", "definite",
            "statement can never execute",
            "DFG constant propagation: every input dependence stayed BOTTOM",
            "Kildall vector constant propagation + no probe trace visits "
            "the statement",
            "remove the statement or fix the branch guarding it",
        ),
        RuleInfo(
            "R005", "constant-branch", "definite",
            "branch condition always takes the same arm",
            "DFG constant propagation: the predicate evaluates to a constant",
            "Kildall vector constant propagation + every probe trace takes "
            "the predicted arm",
            "replace the branch with the arm that always runs",
        ),
        RuleInfo(
            "R006", "dead-code", "definite",
            "assignment feeds no observable output (cyclic dead chain)",
            "DFG mark-sweep (ADCE): the definition port is never demanded "
            "by a print or branch",
            "def-use transitive closure from observations + differential "
            "execution with the assignment spliced out",
            "remove the assignment chain",
        ),
        RuleInfo(
            "R007", "redundant-expression", "info",
            "expression was already computed on the incoming path(s)",
            "available / partially-available + anticipatable expressions "
            "(the PRE safety/profitability pair)",
            "generic-solver reference twins of the availability / "
            "anticipatability analyses agree",
            "reuse the earlier computation through a temporary",
        ),
        RuleInfo(
            "R008", "loop-invariant", "info",
            "expression is invariant in the enclosing loop",
            "natural loops: no operand is defined inside the loop body",
            "reference reaching definitions: no definition inside the loop "
            "body reaches the expression's operands",
            "hoist the computation out of the loop",
        ),
        RuleInfo(
            "R009", "self-assignment", "definite",
            "variable is assigned to itself",
            "syntactic: the right-hand side is exactly the target variable",
            "differential execution with the assignment spliced out",
            "remove the assignment",
        ),
        RuleInfo(
            "R010", "copy-chain", "info",
            "use reads a copy whose original is still available",
            "DFG copy-propagation justification: the original has the same "
            "dependence source at the use as at the copy",
            "reference reaching definitions match at copy and use + "
            "differential execution with the use rewritten to the original",
            "read the original variable directly",
        ),
        RuleInfo(
            "R011", "possibly-tainted-print", "possible",
            "printed or stored value may derive from an unvalidated entry "
            "value",
            "sparse forward taint tracking: some operand of the sink is "
            "transitively computed from a variable's entry value",
            "dense (per-edge) taint reference agrees that the operand is "
            "tainted at the sink",
            "validate or initialize the value before printing or storing it",
        ),
        RuleInfo(
            "R012", "empty-range-branch", "definite",
            "branch predicate is range-decided: one arm can never be taken",
            "sparse interval range analysis with branch refinement decides "
            "the predicate's truth (though no operand is constant)",
            "dense (per-edge) interval reference computes the same verdict "
            "+ every probe trace takes the predicted arm",
            "remove the arm that can never run, or fix the guard",
        ),
        RuleInfo(
            "R013", "range-dead-code", "definite",
            "statement is only reachable through range-dead branch edges "
            "(strong control dependence on a decided branch)",
            "interval-infeasible edges removed from the CFG leave the "
            "statement unreachable; NTSCD names the deciding branch",
            "dense interval reference reproduces the dead edges + reference "
            "NTSCD confirms the controlling branch + no probe trace visits "
            "the statement",
            "remove the statement or fix the branch that starves it",
        ),
    )
}

#: A sort key component larger than any real line/column.
_NO_POS = 1 << 30


@dataclass(frozen=True)
class Diagnostic:
    """One finding.

    Frozen so rule passes can cache their result lists in the
    AnalysisManager: the oracle verifier returns *new* diagnostics (via
    :func:`dataclasses.replace`) instead of mutating cached ones.
    """

    rule: str
    severity: str
    message: str
    span: Span | None = None
    node: int = -1
    var: str | None = None
    #: (note, span) pairs pointing at related source locations.
    related: tuple[tuple[str, Span | None], ...] = ()
    fix_hint: str | None = None
    #: ``None`` until the oracle runs; then True/False for definite rules.
    verified: bool | None = None
    #: True when a definite finding failed verification and was demoted.
    demoted: bool = False
    #: True when a dynamic probe actively contradicted the finding (a
    #: measured false positive, not merely an unconfirmed one).
    refuted: bool = False
    #: Rule-specific payload (e.g. the constant value of a branch).
    data: tuple[tuple[str, object], ...] = ()

    @property
    def name(self) -> str:
        return RULES[self.rule].name

    def sort_key(self) -> tuple:
        line = self.span.line if self.span else _NO_POS
        column = self.span.column if self.span else _NO_POS
        return (line, column, self.rule, self.node, self.var or "", self.message)

    def fingerprint(self) -> str:
        """Stable identity for baseline suppression: rule + position +
        subject.  Deliberately excludes the message text so rewording a
        message does not un-suppress old findings."""
        import hashlib

        where = f"{self.span.line}:{self.span.column}" if self.span else "-"
        raw = f"{self.rule}|{where}|{self.var or ''}"
        return hashlib.sha256(raw.encode()).hexdigest()[:16]

    def as_dict(self) -> dict:
        """JSON shape (stable key order comes from ``sort_keys`` at dump
        time; no timing or environment-dependent fields)."""
        payload: dict = {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
            "span": self.span.as_dict() if self.span else None,
            "node": self.node,
            "var": self.var,
            "fingerprint": self.fingerprint(),
        }
        if self.related:
            payload["related"] = [
                {"message": note, "span": span.as_dict() if span else None}
                for note, span in self.related
            ]
        if self.fix_hint:
            payload["fix_hint"] = self.fix_hint
        if self.verified is not None:
            payload["verified"] = self.verified
        if self.demoted:
            payload["demoted"] = True
        if self.refuted:
            payload["refuted"] = True
        if self.data:
            payload["data"] = {key: value for key, value in self.data}
        return payload


def make_diagnostic(
    rule: str,
    span: Span | None,
    message: str,
    node: int = -1,
    var: str | None = None,
    related: tuple[tuple[str, Span | None], ...] = (),
    data: Mapping[str, object] | None = None,
) -> Diagnostic:
    """Build a diagnostic with the catalog's severity and fix hint."""
    info = RULES[rule]
    return Diagnostic(
        rule=rule,
        severity=info.severity,
        message=message,
        span=span,
        node=node,
        var=var,
        related=related,
        fix_hint=info.fix_hint,
        data=tuple(sorted(data.items())) if data else (),
    )


def demote(diag: Diagnostic, refuted: bool = False) -> Diagnostic:
    """A definite finding that failed verification, downgraded."""
    return replace(
        diag, severity="possible", verified=False, demoted=True, refuted=refuted
    )


def confirm(diag: Diagnostic) -> Diagnostic:
    return replace(diag, verified=True)


def sorted_diagnostics(diags) -> list[Diagnostic]:
    """Deterministic presentation order: position, then rule, then subject.
    Never depends on set/dict iteration order, so output is byte-identical
    across ``PYTHONHASHSEED`` values."""
    return sorted(diags, key=Diagnostic.sort_key)
