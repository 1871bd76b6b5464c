"""Shared workload builders for the experiment benchmarks.

Graphs are built once per session and copied where a benchmark mutates
them.  Every benchmark file corresponds to one experiment id in
DESIGN.md / EXPERIMENTS.md and carries deterministic *shape assertions*
(who wins, by roughly what factor) alongside the timing measurements.

Analysis results come through :class:`repro.pipeline.AnalysisManager`
fixtures: each session graph gets one manager, so benchmarks that only
*read* an analysis (the DFG, SESE structure, dominators) share a single
computation instead of each rebuilding it, and the per-pass work/wall
numbers are available via ``manager.report()`` for shape assertions.
"""

from __future__ import annotations

import pytest

from repro.cfg.builder import build_cfg
from repro.pipeline import AnalysisManager
from repro.workloads.generators import inline_expansion_program, random_program
from repro.workloads.ladders import (
    defuse_worst_case,
    diamond_chain,
    loop_nest,
    sparse_use_program,
    wide_variable_program,
)


@pytest.fixture(scope="session")
def medium_random_graph():
    return build_cfg(random_program(42, size=60, num_vars=5))


@pytest.fixture(scope="session")
def large_random_graph():
    return build_cfg(random_program(7, size=200, num_vars=6))


@pytest.fixture(scope="session")
def inline_graph():
    return build_cfg(inline_expansion_program(3, calls=12, num_vars=4))


@pytest.fixture(scope="session")
def medium_random_manager(medium_random_graph):
    return AnalysisManager(medium_random_graph)


@pytest.fixture(scope="session")
def large_random_manager(large_random_graph):
    return AnalysisManager(large_random_graph)


@pytest.fixture(scope="session")
def inline_manager(inline_graph):
    return AnalysisManager(inline_graph)


def ladder_graphs(kind: str, sizes):
    makers = {
        "defuse": defuse_worst_case,
        "diamond": diamond_chain,
        "loops": loop_nest,
        "wide": wide_variable_program,
        "sparse": sparse_use_program,
    }
    return {n: build_cfg(makers[kind](n)) for n in sizes}
