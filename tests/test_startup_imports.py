"""Start-up import budget: each ``repro`` process imports only what it runs.

A one-shot ``repro analyze FILE`` spends a few milliseconds in the
paper's analyses; interpreter start and imports are most of its wall
time.  Each case below runs in a fresh interpreter, reads the
``repro.*`` modules in its ``sys.modules`` at exit, and holds it to two
budgets:

* forbidden subsystems -- modules the process never runs, such as the
  fuzzer, the batch driver or (outside ``request``) the daemon;
* a module-count ceiling, pinned at the count measured when the budget
  was set.  A change that needs more modules raises the ceiling on
  purpose, in the same diff.

Every case runs in its own interpreter, so a handler that lost an import
fails here even when an in-process ``cli.main`` test passes because
pytest imported the module elsewhere.  The count comes from
``sys.modules``, not ``-X importtime``: that log misses modules that
``importlib`` loads on its Python-level path, such as a lazy package
export reached through ``from package import name``.  The exit code is
checked too: a process that crashes early would import less and pass
the budget.  Wall time is deliberately not gated (runner noise is
larger than the saving); the end-to-end benchmark measures it.
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

#: A batch pool worker: it starts as ``python -m repro`` does, then
#: analyzes one raw-source spec the way ``repro batch`` ships it.
WORKER = f"""
import repro.cli
from repro.perf.batch import _analyze_one
with open({DEMO!r}) as fh:
    row = _analyze_one({{"label": "demo", "source": fh.read()}})
if "error" in row:
    raise SystemExit(row["error"])
"""

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
         "repro.sparse", "repro.regions", "repro.defuse"),
    ),
    "optimize": (
        ["-m", "repro", "optimize", DEMO], 0, 53,
        ("repro.serve", "repro.lint", "repro.sparse", "repro.regions"),
    ),
    "lint": (
        ["-m", "repro", "lint", DEMO], 1, 66,
        ("repro.serve", "repro.opt.pipeline", "repro.regions"),
    ),
    "request": (
        ["-m", "repro", "request", "ping", "--socket", "missing.sock"], 2, 12,
        ("repro.pipeline", "repro.core"),
    ),
    "worker": (
        ["-c", WORKER], 0, 69, ("repro.serve", "repro.lint"),
    ),
}

#: Subsystems of ALWAYS_FORBIDDEN that a case runs on purpose.
EXEMPT = {"worker": ("repro.perf.batch", "repro.workloads")}

#: Runs ``-c CODE`` or ``-m MODULE ARGS...`` (after the output path) as
#: the interpreter would, and at exit writes the ``repro`` modules in
#: ``sys.modules`` to that path, one per line.
PROBE = """
import atexit, runpy, sys

out, mode, target, *argv = sys.argv[1:]


def dump():
    with open(out, "w") as fh:
        fh.writelines(
            name + "\\n" for name in sys.modules
            if name == "repro" or name.startswith("repro.")
        )


atexit.register(dump)
if mode == "-m":
    sys.argv = [target, *argv]
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    sys.argv = ["-c", *argv]
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""


def imported_repro_modules(args: list[str], cwd: Path) -> tuple[int, set[str]]:
    """Exit code and the ``repro`` modules a fresh interpreter had
    loaded when it exited."""
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    out = cwd / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    return proc.returncode, set(out.read_text().splitlines())


def within(module: str, subsystem: str) -> bool:
    return module == subsystem or module.startswith(subsystem + ".")


@pytest.mark.parametrize("case", list(CASES))
def test_process_imports_stay_within_budget(case: str, tmp_path) -> None:
    args, code, ceiling, forbidden = CASES[case]
    forbidden += tuple(
        subsystem for subsystem in ALWAYS_FORBIDDEN
        if subsystem not in EXEMPT.get(case, ())
    )
    returncode, modules = imported_repro_modules(args, tmp_path)
    assert returncode == code, case
    assert "repro" in modules
    loaded = sorted(
        module
        for module in modules
        for subsystem in forbidden
        if within(module, subsystem)
    )
    assert not loaded, f"{case} imported forbidden modules {loaded}"
    assert len(modules) <= ceiling, (
        f"{case} imported {len(modules)} repro modules (ceiling {ceiling}): "
        f"{sorted(modules)}"
    )
