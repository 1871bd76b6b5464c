"""Parameterized sparse dataflow framework (live-range splitting).

Tavares, Boissinot, Pereira & Rastello ("Parameterized Construction of
Program Representations for Sparse Dataflow Analyses", arXiv:1403.5952)
observe that def-use chains, SSA and SSI are all the same construction:
*split* the live range of each variable at every program point where the
analysis learns something new about it, then propagate facts sparsely
along the def-use edges of the split representation instead of densely
over every (edge, variable) pair of the CFG.

This package is that construction for the reproduction's CFGs:

* :mod:`repro.sparse.engine` -- the engine.  A client declares a
  :class:`~repro.sparse.engine.SplittingStrategy` (which variables gain
  information at which statements and along which branch edges); the
  engine places phi-joins on iterated dominance frontiers and
  sigma-splits on the requested edges, renames with the classic
  dominator-tree walk, and exposes a :func:`~repro.sparse.engine.solve`
  fixpoint over the sparse propagation graph.
* :mod:`repro.sparse.interval` -- a finite "ladder" interval lattice
  (deterministic least fixpoints without widening).
* :mod:`repro.sparse.range_analysis` -- interval range analysis with
  branch refinement (sigma splitting), plus a dense reference twin.
* :mod:`repro.sparse.taint` -- forward taint tracking (sources: entry
  reads; sinks: prints/stores), plus a dense reference twin.
* :mod:`repro.sparse.scvn` -- sparse conditional value numbering
  layered on SCCP's executable-edge information.

The existing representations are thin instantiations: ``ssa/cytron.py``
and ``defuse/chains.py`` both delegate to this engine (their dense
bodies survive as ``*_reference`` oracles), and the DFG's value edges
project out of the no-split instantiation (``tests/test_sparse_framework
.py`` pins that equivalence).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DefUseStrategy": ".engine",
    "Interval": ".interval",
    "IntervalLattice": ".interval",
    "RangeResult": ".range_analysis",
    "SCVNResult": ".scvn",
    "SSAStrategy": ".engine",
    "SparseForm": ".engine",
    "SplittingStrategy": ".engine",
    "TaintResult": ".taint",
    "build_sparse_form": ".engine",
    "range_analysis": ".range_analysis",
    "range_analysis_reference": ".range_analysis",
    "solve": ".engine",
    "sparse_chain_items": ".engine",
    "sparse_value_numbering": ".scvn",
    "taint_analysis": ".taint",
    "taint_analysis_reference": ".taint",
})
