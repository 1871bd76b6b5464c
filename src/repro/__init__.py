"""repro -- dependence flow graphs for program analysis.

A production-quality reproduction of R. Johnson and K. Pingali,
*Dependence-Based Program Analysis*, PLDI 1993: the dependence flow graph
(DFG) and its forward/backward dataflow algorithms, together with every
substrate they rest on (a small imperative language, normalized CFGs,
dominance, the O(E) cycle-equivalence/SESE-region algorithm) and every
baseline they are measured against (def-use chains, SSA + SCCP, Kildall
vector constant propagation, Morel-Renvoise partial redundancy
elimination).

Quickstart::

    from repro import parse_program, build_cfg, build_dfg
    from repro import dfg_constant_propagation, optimize

    program = parse_program("x := 2; y := x + 3; print y;")
    graph = build_cfg(program)
    dfg = build_dfg(graph)
    constants = dfg_constant_propagation(graph, dfg)
    optimized, report = optimize(program)

See ``examples/`` for runnable walkthroughs and ``DESIGN.md`` for the
paper-to-module map.

Every package re-exports its public names lazily (PEP 562): importing
``repro`` or a subpackage loads no other module, and a name's defining
module is imported on first access.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "1.0.0"


class _Package(ModuleType):
    """A package whose exports keep their names over same-named
    submodules: loading ``repro.cfg.normalize`` must not rebind the
    exported function ``repro.cfg.normalize`` to the module."""

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, ModuleType) and name in self.__dict__.get(
            "__all__", ()
        ):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: dict[str, str]):
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the module defining it (a
    leading dot is relative to ``package``).  Its keys, in order, are
    ``__all__``; ``__getattr__`` imports a name's module on first access
    and caches the value in the package; ``__dir__`` lists the lazy names
    with the loaded ones.
    """
    namespace = sys.modules[package]

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(exports[name], package), name)
        vars(namespace)[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(vars(namespace).keys() | exports.keys())

    namespace.__class__ = _Package
    return list(exports), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AnalysisManager": ".pipeline.manager",
    "AnticipatabilityResult": ".core.anticipate",
    "CFG": ".cfg.graph",
    "CTRL_VAR": ".core.dfg",
    "DFG": ".core.dfg",
    "DFGConstants": ".core.constprop",
    "DefUseChains": ".defuse.chains",
    "DepEdge": ".core.dfg",
    "EPRResult": ".core.epr",
    "Edge": ".cfg.graph",
    "ExecutionResult": ".lang.interp",
    "FactoredCDG": ".controldep.factored",
    "Head": ".core.dfg",
    "HeadKind": ".core.dfg",
    "LoopDependence": ".core.loopdeps",
    "Metrics": ".util.metrics",
    "Node": ".cfg.graph",
    "NodeKind": ".cfg.graph",
    "Port": ".core.dfg",
    "PortKind": ".core.dfg",
    "Program": ".lang.ast_nodes",
    "ProgramStructure": ".controldep.sese",
    "Region": ".controldep.sese",
    "SSAForm": ".ssa.ssagraph",
    "WorkCounter": ".util.counters",
    "build_cfg": ".cfg.builder",
    "build_def_use_chains": ".defuse.chains",
    "build_dfg": ".core.build",
    "build_factored_cdg": ".controldep.factored",
    "build_program_structure": ".controldep.sese",
    "build_ssa_cytron": ".ssa.cytron",
    "build_ssa_from_dfg": ".ssa.from_dfg",
    "cfg_constant_propagation": ".opt.cfg_constprop",
    "cfg_eliminate_partial_redundancies": ".opt.cfg_epr",
    "copy_propagation": ".opt.copyprop",
    "cfg_to_dot": ".cfg.dot",
    "control_dependence_edges": ".controldep.cdg",
    "control_dependence_nodes": ".controldep.cdg",
    "cycle_equivalence": ".controldep.cycle_equiv",
    "default_registry": ".pipeline.passes",
    "defuse_constant_propagation": ".defuse.constprop",
    "dfg_anticipatability": ".core.anticipate",
    "dfg_constant_propagation": ".core.constprop",
    "dfg_dead_code_elimination": ".core.dce",
    "eliminate_partial_redundancies": ".core.epr",
    "analyze_loop_dependences": ".core.loopdeps",
    "parallelizable_loops": ".core.loopdeps",
    "epr_all": ".core.epr",
    "normalize": ".cfg.normalize",
    "optimize": ".opt.pipeline",
    "parse_expr": ".lang.parser",
    "parse_program": ".lang.parser",
    "pretty_expr": ".lang.pretty",
    "pretty_program": ".lang.pretty",
    "run_cfg": ".cfg.interp",
    "run_program": ".lang.interp",
    "sparse_conditional_constant_propagation": ".ssa.sccp",
    "split_critical_edges": ".cfg.normalize",
    "verify_dfg": ".core.verify",
})
