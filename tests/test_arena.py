"""Arena IR: lowering fidelity, interning determinism, fused solving.

The arena subsystem re-represents whole corpora as interned node/edge
payload over CSR snapshots, sharing one expression pool.  These tests
pin the contracts the rest of the repo leans on:

* **structural equivalence** -- a program decoded from the wire carries
  exactly the CSR snapshot of its CFG, plus faithful node/edge
  payloads, across the whole (smoke) equivalence corpus;
* **determinism** -- interned ids and the serialized corpus bytes are
  functions of insertion order only, never of the process hash seed,
  and the RPA1 bytes are pinned across commits;
* **validation** -- a well-framed payload whose tables index out of
  range is rejected at decode with a typed ``InputError``;
* **fused solving** -- one corpus sweep matches the per-program object
  pipeline byte-for-byte and performs *zero* interning work (the pool
  is read-only after lowering, which is what makes the batch-mode
  amortization sound).
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.arena import (
    ArenaCorpus,
    ExpressionPool,
    analyze_arena,
    analyze_corpus,
    lower_cfg,
)
from repro.arena.arena import KIND_INDEX
from repro.cfg.graph import NodeKind
from repro.perf.batch import _corpus_graphs, _corpus_legacy, equivalence_suite
from repro.perf.csr import build_csr
from repro.pipeline.manager import AnalysisManager
from repro.robust.errors import InputError
from repro.robust.fallback import results_equal
from repro.util.counters import WorkCounter
from repro.util.metrics import Metrics

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src")


def smoke_corpus() -> tuple[list, ArenaCorpus]:
    graphs = _corpus_graphs(equivalence_suite(smoke=True))
    corpus = ArenaCorpus(ExpressionPool())
    for label, graph in graphs:
        corpus.add(graph, label=label)
    return graphs, corpus


# -- structural equivalence ---------------------------------------------------


def test_decoded_programs_carry_the_csr_snapshot():
    graphs, corpus = smoke_corpus()
    decoded = ArenaCorpus.from_bytes(corpus.to_bytes())
    assert len(decoded.programs) == len(graphs)
    for (label, graph), arena in zip(graphs, decoded.programs):
        assert arena.label == label
        assert arena.csr.graph is None and arena.csr.fresh
        assert results_equal("csr", arena.csr, build_csr(graph))


def test_lowering_payloads_decode_back_to_the_cfg():
    graphs, corpus = smoke_corpus()
    pool = corpus.pool
    for (_, graph), arena in zip(graphs, corpus.programs):
        for i, nid in enumerate(arena.csr.node_ids):
            node = graph.node(nid)
            assert arena.node_kind[i] == KIND_INDEX[node.kind]
            if node.kind is NodeKind.ASSIGN:
                assert pool.names[arena.node_target[i]] == node.target
            else:
                assert arena.node_target[i] == -1
            if node.expr is not None:
                # Pool objects are span-stripped canonical ASTs; spans
                # do not participate in expression equality.
                assert pool.objects[arena.node_expr[i]] == node.expr
            else:
                assert arena.node_expr[i] == -1
        for i, eid in enumerate(arena.csr.edge_ids):
            label = graph.edges[eid].label
            if label is None:
                assert arena.edge_label[i] == -1
            else:
                assert pool.names[arena.edge_label[i]] == label


def test_interning_is_shared_across_the_corpus():
    _, corpus = smoke_corpus()
    pool = corpus.pool
    # Hash-consing: every (kind, args) row is unique.
    rows = list(zip(pool.kind, pool.arg0, pool.arg1, pool.arg2))
    assert len(rows) == len(set(rows))
    # The corpus shares structure: the pool is much smaller than the
    # sum of per-program expression counts.
    per_program = sum(
        1 for arena in corpus.programs for e in arena.node_expr if e >= 0
    )
    assert len(pool) < per_program


# -- determinism --------------------------------------------------------------

_DIGEST_SCRIPT = """
import hashlib
from repro.arena import ArenaCorpus, ExpressionPool
from repro.perf.batch import _corpus_graphs, equivalence_suite

corpus = ArenaCorpus(ExpressionPool())
for label, graph in _corpus_graphs(equivalence_suite(smoke=True)):
    corpus.add(graph, label=label)
print(hashlib.sha256(corpus.to_bytes()).hexdigest())
"""


def _digest_under_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC_ROOT
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    return out.stdout.strip()


def test_interned_ids_are_hash_seed_deterministic():
    digests = {_digest_under_seed(seed) for seed in ("1", "31337")}
    assert len(digests) == 1
    # And the in-process build agrees with the subprocess ones.
    _, corpus = smoke_corpus()
    assert hashlib.sha256(corpus.to_bytes()).hexdigest() == digests.pop()


def test_smoke_corpus_bytes_are_pinned():
    # A format drift would orphan every arena entry in the daemon's disk
    # cache and every shipped batch chunk: RPA1 changes need a version
    # bump, never a silent re-encoding.
    _, corpus = smoke_corpus()
    wire = corpus.to_bytes()
    assert len(wire) == 19522
    assert hashlib.sha256(wire).hexdigest() == (
        "8589aede2941d33fa1b96e16119a4c6fa99453b4e978388a1f5b4b6577874b96"
    )


def test_bytes_roundtrip_is_identity():
    _, corpus = smoke_corpus()
    wire = corpus.to_bytes()
    clone = ArenaCorpus.from_bytes(wire)
    assert clone.to_bytes() == wire
    assert analyze_corpus(clone) == analyze_corpus(corpus)


# -- fused solving ------------------------------------------------------------


def test_fused_sweep_matches_object_pipeline():
    graphs, corpus = smoke_corpus()
    assert analyze_corpus(corpus) == _corpus_legacy(graphs)


def test_fused_sweep_does_no_per_program_interning():
    counter = WorkCounter()
    graphs = _corpus_graphs(equivalence_suite(smoke=True))
    corpus = ArenaCorpus(ExpressionPool(counter=counter))
    for label, graph in graphs:
        corpus.add(graph, label=label, counter=counter)
    lowered = counter.snapshot()
    assert lowered.get("arena_interned", 0) > 0

    results = analyze_corpus(corpus, counter=counter)
    solved = counter.snapshot()
    # The fused sweep reads the pool; it never interns -- neither new
    # rows nor memo hits.
    assert solved.get("arena_interned") == lowered.get("arena_interned")
    assert solved.get("arena_intern_hits") == lowered.get("arena_intern_hits")
    assert solved.get("arena_programs_solved") == len(corpus.programs)
    assert len(results) == len(graphs)


def test_single_program_matches_corpus_row():
    graphs, corpus = smoke_corpus()
    label, graph = graphs[0]
    solo_pool = ExpressionPool()
    solo = lower_cfg(graph, solo_pool, label=label)
    assert analyze_arena(solo, solo_pool) == analyze_corpus(corpus)[label]


# -- decode-time validation ---------------------------------------------------


def _corrupted_blob(damage) -> bytes:
    """A well-framed one-program RPA1 payload whose snapshot tables were
    damaged by ``damage(csr)`` before encoding."""
    graphs, _ = smoke_corpus()
    pool = ExpressionPool()
    arena = lower_cfg(graphs[0][1], pool)
    damage(arena.csr)
    return ArenaCorpus(pool, [arena]).to_bytes()


def _point_succ_past_the_nodes(csr) -> None:
    csr.succ_node[0] = 99


def _point_start_past_the_nodes(csr) -> None:
    csr.start = 50


@pytest.mark.parametrize(
    "damage", [_point_succ_past_the_nodes, _point_start_past_the_nodes]
)
def test_out_of_range_tables_are_rejected_at_decode(damage):
    blob = _corrupted_blob(damage)
    with pytest.raises(InputError) as info:
        ArenaCorpus.from_bytes(blob)
    if info.value.phase != "arena-decode":
        pytest.fail(f"wrong phase {info.value.phase!r}")

    # The serve cache path: importing the blob fails typed, before any
    # dependent pass can index the bad table.
    graphs, _ = smoke_corpus()
    manager = AnalysisManager(graphs[0][1], metrics=Metrics())
    with pytest.raises(InputError):
        manager.import_result("arena", blob)
