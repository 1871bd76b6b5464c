"""The PR-6 tentpole contract: hierarchical region-summary solving is
*byte-identical* to the flat bitset solver and to the generic-solver
``*_reference`` oracles on the four core analyses.

Bitvector frameworks are distributive, so summarizing a region as a
composed ``(gen, kill)`` transfer function and applying it to the real
boundary fact must reproduce the flat fixpoint exactly -- every
divergence is a bug in the system construction or the solve, never a
precision trade-off.  The sweep covers the seeded 204-program
equivalence corpus (structured random, irreducible, ``goto`` soup,
ladder families) plus hypothesis-generated
programs (which include infinite loops); dissolution is *tolerated*
(the solve must stay exact through it) but asserted absent outside the
``goto`` family, where unresolvable jump edges are the one known
source.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.cfg.builder import build_cfg
from repro.perf.bitset import solve_bitset
from repro.perf.csr import build_csr
from repro.pipeline.passes import twin_pairs
from repro.regions.edits import EditSession
from repro.regions.hierarchical import (
    build_region_systems,
    core_problems,
    solve_hierarchical,
)

from strategies import programs
from twin_corpus import CHUNK_IDS, CHUNKS, chunk_graphs

#: The core analyses whose decoded facts have a declared reference twin.
ANALYSES = ("available", "anticipatable", "liveness", "reaching")


def _assert_hierarchical_matches_flat(graph, name: str) -> None:
    csr = build_csr(graph)
    regions = build_region_systems(graph)
    if not name.startswith("jump"):
        assert regions.dissolved == 0, name
    for analysis, problem in core_problems(graph, csr).items():
        flat = solve_bitset(csr, problem)
        hier = solve_hierarchical(csr, regions, problem)
        assert flat == hier, (name, analysis)


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_hierarchical_masks_match_flat_solver(chunk) -> None:
    for name, graph in chunk_graphs(chunk):
        _assert_hierarchical_matches_flat(graph, name)


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_decoded_facts_match_reference_oracles(chunk) -> None:
    for name, graph in chunk_graphs(chunk):
        facts = EditSession(graph).solve_all()
        twins = {twin: (reference, equal)
                 for twin, _, reference, equal in twin_pairs(graph)}
        for analysis in ANALYSES:
            reference, equal = twins[analysis]
            assert equal(facts[analysis], reference()), (name, analysis)


@given(program=programs())
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hierarchical_matches_flat_on_arbitrary_programs(program) -> None:
    # ``programs()`` may generate infinite loops and other graphs no
    # execution-based check could cover; the solve is static, so the
    # equivalence must hold regardless.
    _assert_hierarchical_matches_flat(build_cfg(program), "hypothesis")
