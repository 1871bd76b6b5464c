"""The seeded equivalence corpus and the declared-twin check over it.

Every fast kernel is held to its reference twin (declared once in
:mod:`repro.pipeline.passes`) over the seeded 204-program equivalence
corpus: structured random, irreducible, ``goto`` soup and the ladder
families.  Each corpus test names the twins it holds in
:data:`TWIN_GROUPS`; ``test_twins.py`` checks that the groups partition
the declared twins, so a new twin fails the suite until some corpus test
takes it on.
"""

from __future__ import annotations

from repro.cfg.builder import build_cfg
from repro.perf.batch import equivalence_suite, resolve_family
from repro.pipeline.passes import twin_pairs

CASES = equivalence_suite()
# Chunked so a failure names a narrow seed range without paying pytest
# collection overhead for 204 parametrized ids.
CHUNK = 26
CHUNKS = [CASES[i:i + CHUNK] for i in range(0, len(CASES), CHUNK)]
CHUNK_IDS = [f"{chunk[0]['label']}..{chunk[-1]['label']}" for chunk in CHUNKS]

#: Which corpus test holds each declared twin to its reference.
TWIN_GROUPS: dict[str, tuple[str, ...]] = {
    # test_perf_equivalence.py
    "structure": ("dfs", "dom", "pdom", "cycle-equiv", "node-dom", "node-pdom"),
    "sese": ("sese",),
    "dataflow": (
        "liveness", "reaching", "available", "pavailable",
        "anticipatable", "panticipatable", "region-summaries",
    ),
    # test_sparse_framework.py
    "ssa": ("ssa-cytron", "ssa-cytron-pruned"),
    "defuse": ("defuse",),
    "range-taint-ntscd": ("sparse-range", "sparse-taint", "ntscd"),
}


def chunk_graphs(chunk):
    """``(label, graph)`` for each corpus spec in ``chunk``."""
    for spec in chunk:
        program = resolve_family(spec["family"])(*spec["args"])
        yield spec["label"], build_cfg(program)


def corpus_graphs():
    """``(label, graph)`` over the whole corpus."""
    yield from chunk_graphs(CASES)


def assert_twins_agree(label: str, graph, group: str) -> dict[str, object]:
    """Each twin of ``TWIN_GROUPS[group]`` agrees with its reference on
    ``graph``; returns the fast results by twin name."""
    pairs = {name: rest for name, *rest in twin_pairs(graph)}
    results = {}
    for name in TWIN_GROUPS[group]:
        fast, reference, equal = pairs[name]
        results[name] = fast()
        assert equal(results[name], reference()), (label, name)
    return results
