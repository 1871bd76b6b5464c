"""Every declared fast/reference twin is held to its reference.

The pass registry declares each fast kernel's reference once -- a pass's
``oracle``/``equal`` fields, plus :data:`repro.pipeline.passes.
KERNEL_TWINS` for kernels no pass returns -- and
:func:`~repro.pipeline.passes.twin_pairs` binds them to a graph.  The
corpus tests in ``test_perf_equivalence.py`` and
``test_sparse_framework.py`` sweep the seeded 204-program equivalence
corpus through the twin groups of ``twin_corpus.py``; this suite holds
those groups to the declarations: together they take on every declared
twin exactly once, and running the twins calls every ``*_reference``
function under ``src/repro``.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import repro
from repro.cfg.builder import build_cfg
from repro.lang.parser import parse_program
from repro.pipeline.passes import default_registry, twin_pairs

from twin_corpus import CASES, TWIN_GROUPS

SOURCE = (
    "x := p; i := 0;\n"
    "while (i < 3) { if (x > 2) { x := x - 1; } i := i + 1; }\n"
    "print x + i;\n"
)


def test_corpus_groups_partition_the_declared_twins() -> None:
    assert len(CASES) == 204
    names = [name for name, *_ in twin_pairs(build_cfg(parse_program(SOURCE)))]
    assert len(names) == len(set(names))
    grouped = [name for group in TWIN_GROUPS.values() for name in group]
    assert sorted(grouped) == sorted(names)


def _reference_functions() -> set[tuple[str, str]]:
    """``(file, name)`` of every top-level ``*_reference`` function in
    the package source."""
    found = set()
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (
                isinstance(node, ast.FunctionDef)
                and node.name.endswith("_reference")
            ):
                found.add((os.path.realpath(path), node.name))
    return found


def test_declared_twins_call_every_reference_function() -> None:
    found = _reference_functions()
    assert found
    pairs = twin_pairs(build_cfg(parse_program(SOURCE)))
    assert {name for name, *_ in pairs} >= {
        spec.name for spec in default_registry() if spec.oracle is not None
    }

    called: set[tuple[str, str]] = set()

    def record(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            key = (os.path.realpath(code.co_filename), code.co_name)
            if key in found:
                called.add(key)

    for name, fast, reference, equal in pairs:
        fast()
        sys.setprofile(record)
        try:
            reference()
        finally:
            sys.setprofile(None)
    missing = sorted(name for _, name in found - called)
    assert not missing, f"no declared twin calls {missing}"
