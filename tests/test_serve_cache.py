"""The content-addressed cross-run cache: byte-identity, versioning,
corruption recovery, concurrency, and the export detach discipline.

The acceptance bar for the serve subsystem is that a cached answer is
indistinguishable from a fresh one: every pass result must export to the
same bytes no matter which process computed it, a corrupt entry must be
a recoverable non-event, and a cached blob must never alias a live
mutable graph.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.cfg.builder import build_cfg
from repro.lang.parser import parse_expr, parse_program
from repro.pipeline.manager import AnalysisManager
from repro.pipeline.passes import default_registry
from repro.serve.cache import ResultCache, cache_key_bytes, source_sha
from repro.util.metrics import Metrics

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: A small smoke corpus covering straight-line code, branching, a loop,
#: and dead code -- enough shapes to exercise every registered pass.
SMOKE_CORPUS = {
    "straight": "x := 1;\ny := x + 2;\nprint y;\n",
    "branchy": (
        "a := p;\nb := 2;\n"
        "if (a > 0) { c := a + b; } else { c := b - a; }\n"
        "print c;\n"
    ),
    "loopy": (
        "n := 5;\ntotal := 0;\n"
        "while (n > 0) { total := total + n; n := n - 1; }\n"
        "print total;\n"
    ),
    "deadcode": "x := 0;\nif (x) { y := 1; }\nprint x;\n",
}

ALL_PASSES = default_registry().names()


def _manager(source: str) -> AnalysisManager:
    return AnalysisManager(
        build_cfg(parse_program(source)), metrics=Metrics()
    )


# -- cold miss vs warm hit, byte identity across all passes ------------------


def test_cold_miss_then_warm_hit_byte_identical_all_passes(tmp_path) -> None:
    """Populate from one manager, recompute independently in another:
    every registered pass must load back the exact bytes the second
    computation would have produced."""
    cache = ResultCache(str(tmp_path), version="v-test")
    for label, source in SMOKE_CORPUS.items():
        sha = source_sha(source)
        producer = _manager(source)
        producer.run_all()
        for name in ALL_PASSES:
            assert cache.load(sha, name) is None, (label, name)  # cold
            cache.store(sha, name, producer.export_result(name))
        # An independent parse + analysis in the same process must
        # export byte-identical blobs for every pass.
        twin = _manager(source)
        twin.run_all()
        for name in ALL_PASSES:
            blob = cache.load(sha, name)
            assert blob is not None, (label, name)
            assert blob == twin.export_result(name), (label, name)
    assert cache.stats["corrupt"] == 0
    assert cache.stats["stores"] == len(SMOKE_CORPUS) * len(ALL_PASSES)


def test_import_result_feeds_dependents(tmp_path) -> None:
    """A manager warm-started from cached blobs serves dependents
    without recomputing the imported passes."""
    source = SMOKE_CORPUS["loopy"]
    producer = _manager(source)
    dfg_blob = producer.export_result("dfg")
    sese_blob = producer.export_result("sese")

    consumer = _manager(source)
    consumer.import_result("sese", sese_blob)
    consumer.import_result("dfg", dfg_blob)
    assert consumer.cached("dfg") and consumer.cached("sese")
    # constprop depends on dfg: it must build on the imported result.
    constants = consumer.get("constprop")
    assert constants.constant_uses() == producer.get(
        "constprop"
    ).constant_uses()
    assert consumer.export_result("constprop") == producer.export_result(
        "constprop"
    )


# -- engine version bump ------------------------------------------------------


def test_engine_version_bump_is_a_miss(tmp_path) -> None:
    source = SMOKE_CORPUS["straight"]
    sha = source_sha(source)
    old = ResultCache(str(tmp_path), version="v1")
    old.store(sha, "constprop", b"old-engine-bytes")
    assert old.load(sha, "constprop") == b"old-engine-bytes"

    new = ResultCache(str(tmp_path), version="v2")
    assert new.load(sha, "constprop") is None  # orphaned, not served
    # The old entry is untouched -- versions are disjoint key spaces.
    assert old.load(sha, "constprop") == b"old-engine-bytes"
    assert cache_key_bytes(sha, "constprop", "v1") != cache_key_bytes(
        sha, "constprop", "v2"
    )


# -- corruption: detected, evicted, recomputed, recorded ---------------------


def _corrupt(path: str, mode: str) -> None:
    data = Path(path).read_bytes()
    if mode == "truncate":
        Path(path).write_bytes(data[: len(data) // 2])
    elif mode == "flip":
        mutated = bytearray(data)
        mutated[-1] ^= 0xFF
        Path(path).write_bytes(bytes(mutated))
    elif mode == "header":
        Path(path).write_bytes(b"XX")
    else:  # pragma: no cover
        raise AssertionError(mode)


def test_corrupt_entry_detected_evicted_recomputed(tmp_path) -> None:
    source = SMOKE_CORPUS["branchy"]
    sha = source_sha(source)
    for i, mode in enumerate(("truncate", "flip", "header")):
        cache = ResultCache(str(tmp_path / mode), version="v1")
        good = _manager(source).export_result("constprop")
        path = cache.store(sha, "constprop", good)
        _corrupt(path, mode)

        assert cache.load(sha, "constprop") is None, mode  # no crash
        assert not os.path.exists(path), mode  # evicted
        assert cache.stats["corrupt"] == 1, mode
        incident = cache.incidents.incidents[-1]
        assert incident.kind == "cache-corrupt"
        assert incident.recovered
        assert incident.fingerprint == sha

        # Recompute + republish: the key serves good bytes again.
        cache.store(sha, "constprop", good)
        assert cache.load(sha, "constprop") == good, mode


# -- concurrent writers -------------------------------------------------------

_WRITER_SCRIPT = """\
import sys
from repro.serve.cache import ResultCache, source_sha

root, payload = sys.argv[1], sys.argv[2].encode()
cache = ResultCache(root, version="v1")
sha = source_sha("concurrent")
for _ in range(200):
    cache.store(sha, "constprop", payload * 64)
"""


def test_concurrent_writers_leave_consistent_store(tmp_path) -> None:
    """Two real processes hammering the same key must leave one complete,
    checksum-valid winner and no temp debris."""
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), payload],
            env=env,
        )
        for payload in ("A", "B")
    ]
    for proc in procs:
        assert proc.wait(timeout=120) == 0

    cache = ResultCache(str(tmp_path), version="v1")
    blob = cache.load(source_sha("concurrent"), "constprop")
    assert blob in (b"A" * 64, b"B" * 64)  # one complete winner
    assert cache.stats["corrupt"] == 0
    leftovers = [
        name
        for _, _, files in os.walk(tmp_path)
        for name in files
        if name.startswith(".tmp-")
    ]
    assert leftovers == []


# -- the detach discipline (the latent-bug regression) ------------------------


def test_export_detaches_from_live_graph() -> None:
    """Exported blobs must snapshot the result at export time: mutating
    the producing manager's graph afterwards (the warm-daemon + edit
    scenario) must not change what a consumer materializes."""
    from repro.regions.edits import EditSession

    source = SMOKE_CORPUS["loopy"]
    producer = _manager(source)
    blobs = {
        name: producer.export_result(name)
        for name in ("cfg", "sese", "dfg", "constprop")
    }

    # Mutate the live graph through an edit session sharing the manager:
    # rewrite an RHS, then splice a new assignment (shape change).
    session = EditSession(producer.graph, manager=producer)
    assign = next(
        nid
        for nid, node in sorted(producer.graph.nodes.items())
        if node.kind.name == "ASSIGN"
    )
    session.rewrite_rhs(assign, parse_expr("41"))
    edge = sorted(producer.graph.edges)[0]
    session.splice_assign(edge, "injected", parse_expr("1"))
    session.solve_all()

    # The blobs are unchanged (they are bytes), and -- the real point --
    # importing them materializes the *pristine* results, not views of
    # the mutated graph.
    pristine = _manager(source)
    for name, blob in blobs.items():
        assert blob == pristine.export_result(name), name
    consumer = _manager(source)
    consumer.import_result("dfg", blobs["dfg"])
    consumer.import_result("constprop", blobs["constprop"])
    assert (
        consumer.get("constprop").constant_uses()
        == pristine.get("constprop").constant_uses()
    )


def test_import_is_isolated_from_later_source_of_blob() -> None:
    """The dual direction: after a consumer imports a blob, further use
    of the producer (recompute after invalidation) must not disturb the
    consumer's adopted result."""
    source = SMOKE_CORPUS["branchy"]
    producer = _manager(source)
    blob = producer.export_result("constprop")

    consumer = _manager(source)
    imported = consumer.import_result("constprop", blob)
    expected = dict(imported.constant_uses())

    producer.graph.note_rewrite()  # invalidate + recompute on producer
    producer.get("constprop")
    assert dict(imported.constant_uses()) == expected
    assert consumer.export_result("constprop") == blob


# -- cache stats & layout -----------------------------------------------------


def test_entries_listing_and_layout(tmp_path) -> None:
    cache = ResultCache(str(tmp_path), version="v9")
    sha = source_sha("layout")
    cache.store(sha, "dfg", b"x")
    cache.store(sha, "op:lint", b"y")
    entries = cache.entries()
    assert (sha, "dfg.bin") in entries
    assert (sha, "op_lint.bin") in entries  # ':' made filesystem-safe
    path = cache.entry_path(sha, "dfg")
    assert path.startswith(os.path.join(str(tmp_path), "v9", sha[:2]))
    assert cache.as_dict()["version"] == "v9"
