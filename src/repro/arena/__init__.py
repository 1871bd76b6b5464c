"""Arena IR: interned program payload over CSR snapshots, fused
corpus-level solving (DESIGN.md §13).

Public surface:

* :class:`~repro.arena.pool.ExpressionPool` -- corpus-wide expression
  interning with precomputed per-id analysis tables;
* :func:`~repro.arena.arena.lower_cfg` -- intern a CFG's payload over
  its :class:`~repro.perf.csr.CSRGraph` into a
  :class:`~repro.arena.arena.ProgramArena`;
* :class:`~repro.arena.arena.ArenaCorpus` -- many arenas over one pool,
  with ``to_bytes``/``from_bytes`` wire format for pool workers;
* :func:`~repro.arena.kernels.analyze_arena` /
  :func:`~repro.arena.kernels.analyze_corpus` -- the fused solvers,
  result-identical to the object pipeline.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ArenaCorpus": ".arena",
    "ArenaSpace": ".kernels",
    "CorpusOrder": ".kernels",
    "ExpressionPool": ".pool",
    "ProgramArena": ".arena",
    "analyze_arena": ".kernels",
    "analyze_corpus": ".kernels",
    "arena_constprop": ".kernels",
    "lower_cfg": ".arena",
})
