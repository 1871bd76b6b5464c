"""Hierarchical region-summary dataflow over the program structure tree.

The modules layer bottom-up:

* :mod:`repro.regions.transfer`     -- the (gen, kill) function algebra;
* :mod:`repro.regions.systems`      -- per-region equation systems with
  closure verification and dissolution;
* :mod:`repro.regions.hierarchical` -- the three-phase from-scratch
  hierarchical solver (drop-in twin of ``solve_bitset``);
* :mod:`repro.regions.incremental`  -- the continuously-solved engine
  with signature-keyed per-region caches;
* :mod:`repro.regions.edits`        -- the statement-level edit API;
* :mod:`repro.regions.replay`       -- the deterministic edit-replay
  benchmark workload.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ANALYSES": ".incremental",
    "EditSession": ".edits",
    "RegionDataflow": ".incremental",
    "RegionSystems": ".systems",
    "bench_edit_replay": ".replay",
    "build_region_systems": ".hierarchical",
    "build_systems": ".systems",
    "core_problems": ".hierarchical",
    "hierarchical_summaries": ".hierarchical",
    "replay_row": ".replay",
    "solve_hierarchical": ".hierarchical",
})
