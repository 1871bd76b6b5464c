"""Analysis pipeline: registered passes, caching, invalidation, metrics.

* :class:`~repro.pipeline.manager.AnalysisManager` -- memoized access to
  every registered analysis of one CFG, with mutation-driven
  invalidation and per-pass (work, time, hit/miss) accounting;
* :func:`~repro.pipeline.passes.default_registry` -- the standard pass
  DAG (dominance, cycle equivalence, SESE, CDG, DFG, SSA, def-use
  chains, four constant propagators, classic dataflow);
* :class:`~repro.util.metrics.Metrics` is re-exported for convenience.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AnalysisManager": ".manager",
    "PassRegistry": ".manager",
    "PassSpec": ".manager",
    "PassStats": ".manager",
    "Metrics": "repro.util.metrics",
    "Span": "repro.util.metrics",
    "default_registry": ".passes",
})
