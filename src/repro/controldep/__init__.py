"""Control dependence, cycle equivalence and SESE regions.

This package implements Section 3.1 of the paper:

* :mod:`repro.controldep.cycle_equiv` -- the O(E) bracket-list algorithm
  for cycle equivalence of control-flow edges (the paper sketches it;
  the companion PLDI'94 "Program Structure Tree" paper by the same
  authors gives the details we implement).
* :mod:`repro.controldep.sese` -- canonical single-entry single-exit
  regions from ordered cycle-equivalence classes (Theorem 1), assembled
  into a program structure tree.
* :mod:`repro.controldep.cdg` -- the *standard* control dependence
  computation via postdominance frontiers (Ferrante-Ottenstein-Warren),
  used as the baseline and as an independent oracle for Claim 1 ("same
  control dependence iff cycle equivalent in the augmented graph").
* :mod:`repro.controldep.factored` -- the factored control dependence
  graph built from cycle-equivalence classes in O(E).
* :mod:`repro.controldep.ntscd` -- *non-termination-sensitive* strong
  control dependence (Chalupa et al., arXiv:2011.01564): maximal paths
  may be infinite, so code after a possibly-diverging loop depends on
  the loop predicate.  The postdominance-based CDG above cannot express
  that; our ``goto`` frontend's irreducible and non-terminating CFGs
  exercise the difference.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FactoredCDG": ".factored",
    "NTSCDResult": ".ntscd",
    "ntscd": ".ntscd",
    "ntscd_reference": ".ntscd",
    "ProgramStructure": ".sese",
    "Region": ".sese",
    "build_factored_cdg": ".factored",
    "build_program_structure": ".sese",
    "control_dependence_edges": ".cdg",
    "control_dependence_nodes": ".cdg",
    "cycle_equivalence": ".cycle_equiv",
})
