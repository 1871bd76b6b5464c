"""Replay definite lint findings in ``repro.lang.interp``.

The lint verifier confirms its findings with the CFG interpreter.  This
module checks the same claims with the AST interpreter, which shares no
code with CFG construction or the analyses: each finding names a
statement or expression by its source span, the program is rewritten at
that span, and both versions run under the same entry environments.

===========  ===========================================================
rule         replay
===========  ===========================================================
R001         the use always reads the entry value: substituting that
             value for the variable keeps the outputs
R003 R006    removing the statement keeps the outputs
R009
R004 R013    the statement never runs: replacing it with a print of a
             sentinel never prints the sentinel
R005 R012    the condition always has the reported value: substituting
             it keeps the outputs
===========  ===========================================================

A run that raises (step limit, division by zero, a value beyond
``VALUE_LIMIT``) is inconclusive and is skipped; a finding whose span
matches nothing is counted as unmatched.  The value limit plays the role
of the lint oracle's probe limit: generated loops that square a variable
would otherwise build integers that exhaust memory long before the step
budget ends.
"""

from __future__ import annotations

import contextlib
import dataclasses

SENTINEL = 770_077_007
REPLAY_STEPS = 20_000
VALUE_LIMIT = 10**18


class _ValueLimit(ArithmeticError):
    pass


@contextlib.contextmanager
def _bounded_arithmetic():
    """Make the AST interpreter's binary operators raise once a result
    leaves ``[-VALUE_LIMIT, VALUE_LIMIT]`` (restored on exit)."""
    from repro.lang import interp

    original = interp.apply_binop

    def bounded(op, left, right):
        value = original(op, left, right)
        if not -VALUE_LIMIT <= value <= VALUE_LIMIT:
            raise _ValueLimit(op)
        return value

    interp.apply_binop = bounded
    try:
        yield
    finally:
        interp.apply_binop = original


def _span_key(span) -> tuple | None:
    if span is None:
        return None
    if isinstance(span, dict):
        return (span["line"], span["column"], span["end_line"],
                span["end_column"])
    return (span.line, span.column, span.end_line, span.end_column)


def _is_node(value) -> bool:
    return dataclasses.is_dataclass(value) and hasattr(value, "span")


def _rewrite(node, match, make):
    """``node`` with every subtree satisfying ``match`` replaced by
    ``make(subtree)``; returns ``(new_node, replaced_count)``."""
    if match(node):
        return make(node), 1
    changes = {}
    count = 0
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if _is_node(value):
            new, n = _rewrite(value, match, make)
        elif isinstance(value, list):
            new, n = [], 0
            for item in value:
                item_new, item_n = (
                    _rewrite(item, match, make) if _is_node(item) else (item, 0)
                )
                new.append(item_new)
                n += item_n
        else:
            continue
        if n:
            changes[field.name] = new
            count += n
    return (dataclasses.replace(node, **changes) if changes else node), count


def _walk(node):
    yield node
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        items = value if isinstance(value, list) else [value]
        for item in items:
            if _is_node(item):
                yield from _walk(item)


def _environments(program) -> list[dict]:
    """Entry environments shaped like the lint oracle's probes: empty,
    all ones, all twos, alternating 0/7 over the scalar variables."""
    from repro.lang.ast_nodes import Assign, Index, Store, Update, Var

    scalars, arrays = set(), set()
    for node in _walk(program):
        if isinstance(node, Var):
            scalars.add(node.name)
        elif isinstance(node, Assign):
            scalars.add(node.target)
        elif isinstance(node, (Index, Store, Update)):
            arrays.add(node.array)
    names = sorted(scalars - arrays)
    return [
        {},
        {name: 1 for name in names},
        {name: 2 for name in names},
        {name: (7 if i % 2 else 0) for i, name in enumerate(names)},
    ]


def _outputs(program, env):
    from repro.lang.errors import LangError
    from repro.lang.interp import run_program

    try:
        return run_program(program, env, max_steps=REPLAY_STEPS).outputs
    except (LangError, ArithmeticError, RecursionError):
        return None


def _statement_at(key):
    from repro.lang.ast_nodes import (
        Assign, Goto, If, Label, Print, Repeat, Skip, Store, While,
    )

    statements = (Assign, Store, Print, Skip, If, While, Repeat, Goto, Label)

    def match(node):
        return isinstance(node, statements) and _span_key(node.span) == key

    return match


def _condition_at(key):
    def match(node):
        cond = getattr(node, "cond", None)
        return cond is not None and _span_key(cond.span) == key

    return match


def _replay_one(program, diag: dict, envs, base) -> str:
    """``"ok"``, ``"contradicted"``, ``"inconclusive"`` or ``"unmatched"``."""
    from repro.lang.ast_nodes import IntLit, Print, Skip, Var

    rule = diag["rule"]
    key = _span_key(diag.get("span"))
    if key is None:
        return "unmatched"
    sentinel = False
    if rule in ("R003", "R006", "R009"):
        modified, n = _rewrite(program, _statement_at(key), lambda s: Skip())
        variants = [modified] * len(envs)
    elif rule in ("R004", "R013"):
        modified, n = _rewrite(
            program, _statement_at(key), lambda s: Print(IntLit(SENTINEL))
        )
        variants = [modified] * len(envs)
        sentinel = True
    elif rule in ("R005", "R012"):
        value = (diag.get("data") or {}).get("value")
        if value is None:
            return "unmatched"
        literal = IntLit(int(value))
        modified, n = _rewrite(
            program, _condition_at(key),
            lambda s: dataclasses.replace(s, cond=literal),
        )
        variants = [modified] * len(envs)
    elif rule == "R001":
        name = diag.get("var")

        def use(node):
            return isinstance(node, Var) and node.name == name and (
                _span_key(node.span) == key
            )

        variants, n = [], 0
        for env in envs:
            modified, n = _rewrite(
                program, use, lambda s, v=env.get(name, 0): IntLit(v)
            )
            variants.append(modified)
    else:
        return "unmatched"
    if n == 0:
        return "unmatched"
    conclusive = False
    for env, variant, expected in zip(envs, variants, base):
        if expected is None:
            continue
        got = _outputs(variant, env)
        if got is None:
            continue
        conclusive = True
        if sentinel:
            if SENTINEL in got and SENTINEL not in expected:
                return "contradicted"
        elif got != expected:
            return "contradicted"
    return "ok" if conclusive else "inconclusive"


def replay(source: str, document: dict) -> dict:
    """Counts for one lint document: definite findings, unverified ones,
    and the replay verdicts; ``contradicted`` lists the failing rules."""
    from repro.lang.parser import parse_program

    program = parse_program(source)
    envs = _environments(program)
    out = {"definite": 0, "unverified": 0, "ok": 0, "inconclusive": 0,
           "unmatched": 0, "contradicted": []}
    with _bounded_arithmetic():
        base = [_outputs(program, env) for env in envs]
        for diag in document["diagnostics"]:
            if diag["severity"] != "definite":
                continue
            out["definite"] += 1
            if not diag.get("verified"):
                out["unverified"] += 1
            verdict = _replay_one(program, diag, envs, base)
            if verdict == "contradicted":
                span = diag["span"]
                out["contradicted"].append(
                    f"{diag['rule']}@{span['line']}:{span['column']}"
                )
            else:
                out[verdict] += 1
    return out
