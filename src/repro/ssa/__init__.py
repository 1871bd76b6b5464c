"""Static single assignment form (Definition 5) and algorithms on it.

Three roles in the reproduction:

* :mod:`repro.ssa.cytron` -- the standard construction (dominance
  frontiers + renaming), the baseline whose O(EV) competitor the paper's
  DFG-derived construction is (experiment C3);
* :mod:`repro.ssa.from_dfg` -- the paper's Section 3.3 construction:
  build the DFG, elide switches, convert merges to phi-functions; needs
  no dominance computation at all;
* :mod:`repro.ssa.sccp` -- Wegman-Zadeck sparse conditional constant
  propagation, the SSA-world algorithm that, like the paper's Section 4
  DFG algorithm, finds possible-paths constants.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Phi": ".ssagraph",
    "SCCPResult": ".sccp",
    "SSAForm": ".ssagraph",
    "build_ssa_cytron": ".cytron",
    "build_ssa_cytron_reference": ".cytron",
    "build_ssa_from_dfg": ".from_dfg",
    "destruct_ssa": ".destruct",
    "sequentialize_parallel_copies": ".destruct",
    "sparse_conditional_constant_propagation": ".sccp",
})
