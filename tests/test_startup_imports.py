"""Start-up import budget: each ``repro`` process imports only what it runs.

A one-shot ``repro analyze FILE`` spends a few milliseconds in the
paper's analyses; interpreter start and imports are most of its wall
time.  Each case below runs a fresh ``python -X importtime``
interpreter, reads the ``repro.*`` modules it imported from stderr, and
holds it to two budgets:

* forbidden subsystems -- modules the verb never runs, such as the
  fuzzer, the batch driver or (outside ``request``) the daemon;
* a module-count ceiling, pinned at the count measured when the budget
  was set.  A change that needs more modules raises the ceiling on
  purpose, in the same diff.

Every case runs in its own interpreter, so a handler that lost an import
fails here even when an in-process ``cli.main`` test passes because
pytest imported the module elsewhere.  The exit code is checked too: a
verb that crashes early would import less and pass the budget.  Wall
time is deliberately not gated (runner noise is larger than the saving);
the end-to-end benchmark measures it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMO = str(ROOT / "examples" / "lint_demo.dfg")

#: No verb runs these.
ALWAYS_FORBIDDEN = (
    "repro.fuzz",
    "repro.perf.batch",
    "repro.workloads",
    "repro.robust.pool",
    "repro.robust.chaos",
)

#: ``case: (interpreter arguments, exit code, module ceiling, forbidden
#: subsystems beyond ALWAYS_FORBIDDEN)``.  ``lint`` exits 1: the demo
#: has definite findings.  ``request`` fails at connect (exit 2), after
#: the client's imports.
CASES = {
    "import repro": (["-c", "import repro"], 0, 1, ("repro.serve",)),
    "import repro.cli": (["-c", "import repro.cli"], 0, 9, ("repro.serve",)),
    "run": (
        ["-m", "repro", "run", DEMO], 0, 16,
        ("repro.serve", "repro.pipeline"),
    ),
    "analyze": (
        ["-m", "repro", "analyze", DEMO], 0, 36,
        ("repro.serve", "repro.lint", "repro.opt", "repro.ssa",
         "repro.sparse", "repro.regions", "repro.arena", "repro.defuse"),
    ),
    "lint": (
        ["-m", "repro", "lint", DEMO], 1, 66,
        ("repro.serve", "repro.opt.pipeline", "repro.regions",
         "repro.arena"),
    ),
    "request": (
        ["-m", "repro", "request", "ping", "--socket", "missing.sock"], 2, 12,
        ("repro.pipeline", "repro.core"),
    ),
}


def imported_repro_modules(args: list[str], cwd: Path) -> tuple[int, set[str]]:
    """Exit code and the ``repro`` modules a fresh interpreter imported."""
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    modules = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name == "repro" or name.startswith("repro."):
                modules.add(name)
    return proc.returncode, modules


def within(module: str, subsystem: str) -> bool:
    return module == subsystem or module.startswith(subsystem + ".")


@pytest.mark.parametrize("case", list(CASES))
def test_process_imports_stay_within_budget(case: str, tmp_path) -> None:
    args, code, ceiling, forbidden = CASES[case]
    returncode, modules = imported_repro_modules(args, tmp_path)
    assert returncode == code, case
    assert "repro" in modules
    loaded = sorted(
        module
        for module in modules
        for subsystem in ALWAYS_FORBIDDEN + forbidden
        if within(module, subsystem)
    )
    assert not loaded, f"{case} imported forbidden modules {loaded}"
    assert len(modules) <= ceiling, (
        f"{case} imported {len(modules)} repro modules (ceiling {ceiling}): "
        f"{sorted(modules)}"
    )
