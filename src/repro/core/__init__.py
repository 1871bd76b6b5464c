"""The dependence flow graph: the paper's primary contribution.

* :mod:`repro.core.dfg` -- the data structure: producer ports (entry
  values, definitions, switch and merge operators), consumers (uses,
  switch inputs, merge inputs), and multiedges;
* :mod:`repro.core.build` -- construction via SESE regions and region
  bypassing (Section 3.2);
* :mod:`repro.core.verify` -- a structural checker for Definition 6,
  applied edge-by-edge in the tests;
* :mod:`repro.core.constprop` -- forward dataflow: constant propagation
  with dead-code detection (Section 4, Figure 4(b));
* :mod:`repro.core.anticipate` -- backward dataflow: ANT/PAN, single- and
  multivariable (Section 5.1, Figures 5(b), 6, 7);
* :mod:`repro.core.epr` -- elimination of partial redundancies
  (Section 5.2);
* :mod:`repro.core.project` -- projecting dependence-edge facts back onto
  CFG edges.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ADCEStats": ".dce",
    "AnticipatabilityResult": ".anticipate",
    "ArrayAccess": ".loopdeps",
    "InductionVariable": ".loopdeps",
    "LoopDependence": ".loopdeps",
    "CTRL_VAR": ".dfg",
    "DFG": ".dfg",
    "DFGConstants": ".constprop",
    "DepEdge": ".dfg",
    "EPRResult": ".epr",
    "Head": ".dfg",
    "HeadKind": ".dfg",
    "Port": ".dfg",
    "PortKind": ".dfg",
    "analyze_loop_dependences": ".loopdeps",
    "build_dfg": ".build",
    "dfg_anticipatability": ".anticipate",
    "dfg_constant_propagation": ".constprop",
    "dfg_dead_code_elimination": ".dce",
    "eliminate_partial_redundancies": ".epr",
    "parallelizable_loops": ".loopdeps",
    "project_to_cfg_edges": ".project",
    "verify_dfg": ".verify",
})
