"""Property tests: the CSR kernels and the bitset dataflow solver must
be *byte-identical* to their reference twins.

The perf layer (:mod:`repro.perf`) is pure plumbing -- same algorithms,
flat-array data layout -- so every divergence is a bug, not a precision
trade-off.  Over the seeded 204-program equivalence corpus, each test
holds one group of declared twins (see ``twin_corpus.py``) to its
references under the declared comparators:

* DFS numbering, dominator / postdominator trees (node graph and split
  graph) and cycle-equivalence class assignments;
* canonical SESE regions and the node -> region map;
* the bitset dataflow results (liveness, reaching definitions, the four
  expression analyses) and the hierarchical region-summary solve.
"""

from __future__ import annotations

import pytest

from twin_corpus import CHUNK_IDS, CHUNKS, assert_twins_agree, chunk_graphs


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_structure_kernels_match_legacy(chunk) -> None:
    for label, graph in chunk_graphs(chunk):
        assert_twins_agree(label, graph, "structure")


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_sese_regions_match_legacy(chunk) -> None:
    for label, graph in chunk_graphs(chunk):
        structure = assert_twins_agree(label, graph, "sese")["sese"]
        assert set(structure.region_of_node) == set(graph.nodes), label


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_dataflow_bitsets_match_generic_solver(chunk) -> None:
    for label, graph in chunk_graphs(chunk):
        assert_twins_agree(label, graph, "dataflow")
