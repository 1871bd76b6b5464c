"""The public surface of ``repro`` and its 19 subpackages.

Each package exports lazily: one ``name -> module`` table passed to
:func:`repro.lazy_exports` yields its ``__all__``, a PEP 562
``__getattr__`` and ``__dir__``.  A typo in a table would otherwise
surface only in user code, so every table is read back from its
``__init__.py`` and held to the modules it names.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def export_table(package: str) -> dict[str, str]:
    """The literal table ``package``'s ``__init__.py`` hands to
    ``lazy_exports``."""
    init = importlib.import_module(package).__file__
    for node in ast.walk(ast.parse(Path(init).read_text())):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} has no lazy_exports table")


def test_twenty_subpackages() -> None:
    # Twenty packages: ``repro`` and its 19 subpackages.
    assert len(PACKAGES) == 20


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_the_table_and_names_resolve_to_their_modules(package) -> None:
    module = importlib.import_module(package)
    table = export_table(package)
    assert module.__all__ == list(table)
    for name, where in table.items():
        owner = importlib.import_module(where, package)
        assert getattr(module, name) is getattr(owner, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_all(package) -> None:
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module(package).__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_names_the_package(package) -> None:
    module = importlib.import_module(package)
    message = f"module '{package}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=re.escape(message)):
        module.no_such_name


def test_loop_dependence_joins_the_top_level_all() -> None:
    # Re-exported before the tables existed, but missing from __all__.
    assert "LoopDependence" in repro.__all__
    assert repro.LoopDependence is importlib.import_module(
        "repro.core.loopdeps"
    ).LoopDependence


# Run where no export has been touched yet: importing every package loads
# only the packages, dir() already lists the lazy names, and a submodule
# loaded before its same-named export (``repro.cfg.normalize``) does not
# replace the export.
FRESH = r"""
import importlib, importlib.util, sys
packages = sys.argv[1:]
for package in packages:
    importlib.import_module(package)
assert sorted(m for m in sys.modules if m.split(".")[0] == "repro") == \
    sorted(packages), "a package imported more than itself"
for package in packages:
    module = sys.modules[package]
    lazy = set(module.__all__)
    assert lazy <= set(dir(module)), package
    assert not lazy & set(vars(module)), package
shadowed = 0
for package in packages:
    module = sys.modules[package]
    for name in module.__all__:
        if importlib.util.find_spec(f"{package}.{name}") is None:
            continue
        submodule = importlib.import_module(f"{package}.{name}")
        assert getattr(module, name) is getattr(submodule, name), name
        shadowed += 1
assert shadowed == 4, shadowed
"""


def test_fresh_packages_are_lazy_and_exports_shadow_submodules() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, *PACKAGES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
