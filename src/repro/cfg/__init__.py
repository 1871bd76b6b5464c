"""Control flow graphs with explicit ``switch`` and ``merge`` nodes.

Section 2.1 of the paper defines the CFG flavour all its algorithms assume:

* a unique ``start`` (no predecessors) and ``end`` (no successors), with
  every node reachable from ``start`` and every node reaching ``end``;
* *switch* nodes that separate branching from computation (a conditional
  jump on a predicate expression);
* *merge* nodes that are the only join points (the only nodes with more
  than one incoming edge);
* *assignment* nodes for general straight-line computation.

:mod:`repro.cfg.graph` is the data structure, :mod:`repro.cfg.builder`
compiles ASTs into it, :mod:`repro.cfg.normalize` establishes the
invariants above for arbitrary graphs, :mod:`repro.cfg.interp` executes a
CFG directly (for differential testing against the AST interpreter and for
validating CFG-level transformations), and :mod:`repro.cfg.dot` renders
Graphviz.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CFG": ".graph",
    "CFGError": ".graph",
    "Edge": ".graph",
    "Node": ".graph",
    "NodeKind": ".graph",
    "build_cfg": ".builder",
    "cfg_to_dot": ".dot",
    "normalize": ".normalize",
    "run_cfg": ".interp",
    "split_critical_edges": ".normalize",
})
