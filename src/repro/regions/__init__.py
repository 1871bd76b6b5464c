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

from repro.regions.edits import EditSession
from repro.regions.hierarchical import (
    build_region_systems,
    core_problems,
    hierarchical_summaries,
    solve_hierarchical,
)
from repro.regions.incremental import ANALYSES, RegionDataflow
from repro.regions.replay import bench_edit_replay, replay_row
from repro.regions.systems import RegionSystems, build_systems

__all__ = [
    "ANALYSES",
    "EditSession",
    "RegionDataflow",
    "RegionSystems",
    "bench_edit_replay",
    "build_region_systems",
    "build_systems",
    "core_problems",
    "hierarchical_summaries",
    "replay_row",
    "solve_hierarchical",
]
