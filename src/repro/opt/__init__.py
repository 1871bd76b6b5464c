"""CFG-based baselines and the optimization driver.

* :mod:`repro.opt.cfg_constprop` -- Kildall-style vector constant
  propagation, the Figure 4(a) algorithm the DFG version is measured
  against (same precision, O(EV^2) work);
* :mod:`repro.opt.cfg_epr` -- dense CFG partial redundancy elimination in
  the Morel-Renvoise style (critical-edge splitting, edge-wise dense
  candidate points);
* :mod:`repro.opt.transform` -- constant folding, branch folding and dead
  code elimination, applied from any of the constant-propagation results;
* :mod:`repro.opt.pipeline` -- an end-to-end optimizer combining the
  passes, with interpreter-verified semantics in the test suite.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CFGConstants": ".cfg_constprop",
    "CopyPropStats": ".copyprop",
    "OptimizationReport": ".pipeline",
    "cfg_constant_propagation": ".cfg_constprop",
    "cfg_eliminate_partial_redundancies": ".cfg_epr",
    "cfg_epr_all": ".cfg_epr",
    "copy_propagation": ".copyprop",
    "fold_and_eliminate": ".transform",
    "fold_constants": ".transform",
    "optimize": ".pipeline",
    "remove_dead_assignments": ".transform",
})
