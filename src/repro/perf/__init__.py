"""Performance subsystem: flat-array graph kernels and the batch driver.

Three layers, mirroring the plan in DESIGN.md section 8:

* :mod:`repro.perf.csr` -- an immutable :class:`~repro.perf.csr.CSRGraph`
  snapshot of a CFG: contiguous integer arrays for successors,
  predecessors and edge ids, built once per CFG shape version and cached
  as the ``csr`` pass in the analysis pipeline manager;
* :mod:`repro.perf.kernels` -- iterative array-based kernels (reverse
  postorder, DFS edge classification, Cooper-Harvey-Kennedy dominators)
  that the graph and control-dependence modules dispatch to;
* :mod:`repro.perf.bitset` + :mod:`repro.perf.batch` -- a bitset fast
  path for separable gen/kill dataflow problems and the ``repro batch``
  workload driver.

Everything here is a *fast path*: each kernel has a dict-based legacy
twin, declared next to the pass registry
(:func:`repro.pipeline.passes.twin_pairs`), that remains the
differential-testing oracle (``tests/test_perf_equivalence.py`` holds
the equivalence suite).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CSRGraph": ".csr",
    "build_csr": ".csr",
})
