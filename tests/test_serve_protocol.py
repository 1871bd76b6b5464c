"""End-to-end daemon tests over real sockets.

Everything here runs a real :class:`~repro.serve.server.ReproServer` on
a private port (or unix socket) with a private cache directory, talks to
it through the real :class:`~repro.serve.client.ServeClient`, and
asserts the service contracts:

* warm daemon answers are byte-identical to the one-shot CLI twin, on
  a fixed program and across the smoke equivalence corpus;
* a scripted session's responses match a checked-in golden transcript
  (regenerate with ``REGEN_GOLDEN=1``);
* malformed requests produce structured errors -- never a dropped
  connection -- and map onto the CLI's exit-2 taxonomy;
* repeated edits reuse one :class:`~repro.regions.edits.EditSession`
  (zero re-parses, dirty-spine-bounded re-summarization, measured with
  the session's :class:`~repro.util.counters.WorkCounter`);
* pool timeouts are driven by a :class:`~repro.robust.watchdog.
  FakeClock` -- no real deadline sleeps in the test;
* shutdown is graceful: in-flight work completes, then the serve loop
  exits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.robust.watchdog import FakeClock
from repro.serve.client import ServeClient, one_shot, raise_for_error
from repro.serve.ops import run_op
from repro.serve.server import SERVE_SCHEMA, ReproServer, canonical_json

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).parent / "golden" / "serve_session.json"

SOURCE = (
    "limit := 4;\ntotal := 0;\n"
    "while (limit > 0) { total := total + limit; limit := limit - 1; }\n"
    "print total;\n"
)
SOURCE_B = "x := 1;\ny := x + x;\nprint y;\n"
BAD_SOURCE = "x := ;\n"


@pytest.fixture()
def server(tmp_path):
    srv = ReproServer(
        host="127.0.0.1", port=0, cache_dir=str(tmp_path / "cache"),
        debug_ops=True,
    )
    srv.start_background()
    yield srv
    if not srv.broker.stopping:
        srv.shutdown()
    srv.join(timeout=10.0)


def _client(server: ReproServer, timeout_s: float = 30.0) -> ServeClient:
    _, host, port = server.address
    return ServeClient(host=host, port=port, timeout_s=timeout_s)


# -- byte identity vs the one-shot twin ---------------------------------------


def _smoke_corpus() -> list[tuple[str, str]]:
    """``(label, source)`` for the smoke equivalence corpus, pretty-printed
    so the daemon and the one-shot twin see the same text."""
    from repro.lang.pretty import pretty_program
    from repro.perf.batch import equivalence_suite, resolve_family

    return [
        (spec["label"],
         pretty_program(resolve_family(spec["family"])(*spec["args"])))
        for spec in equivalence_suite(smoke=True)
    ]


def test_daemon_answers_byte_identical_to_one_shot(server) -> None:
    with _client(server) as client:
        # analyze resolves constprop's whole pass set, so the later
        # constprop request is warm from the start.
        for op, states in (
            ("analyze", ("miss", "warm")),
            ("constprop", ("warm", "warm")),
            ("lint", ("miss", "warm")),
        ):
            expected = canonical_json(run_op(op, SOURCE, label="prog.dfg"))
            for expected_state in states:  # cold, then memoized
                response = client.request(
                    op, source=SOURCE, file="prog.dfg"
                )
                assert response["ok"], response
                assert response["cache"] == expected_state, op
                assert canonical_json(response["result"]) == expected, op
        # Every corpus program misses, then hits warm; both answers
        # equal the one-shot bytes.
        for label, source in _smoke_corpus():
            expected = canonical_json(run_op("analyze", source, label=label))
            for expected_state in ("miss", "warm"):
                response = client.request(
                    "analyze", source=source, file=label
                )
                assert response["ok"], (label, response)
                assert response["cache"] == expected_state, label
                assert canonical_json(response["result"]) == expected, label


def test_disk_tier_survives_daemon_restart(tmp_path) -> None:
    cache_dir = str(tmp_path / "cache")
    expected = canonical_json(run_op("analyze", SOURCE_B))

    first = ReproServer(host="127.0.0.1", port=0, cache_dir=cache_dir)
    first.start_background()
    with _client(first) as client:
        assert client.request("analyze", source=SOURCE_B)["cache"] == "miss"
        client.request("shutdown")
    first.join(timeout=10.0)

    second = ReproServer(host="127.0.0.1", port=0, cache_dir=cache_dir)
    second.start_background()
    with _client(second) as client:
        response = client.request("analyze", source=SOURCE_B)
        assert response["cache"] == "disk"  # no recompute after restart
        assert canonical_json(response["result"]) == expected
        assert second.broker.stats["misses"] == 0
        client.request("shutdown")
    second.join(timeout=10.0)


def test_unix_socket_transport(tmp_path) -> None:
    path = str(tmp_path / "repro.sock")
    srv = ReproServer(socket_path=path, cache_dir=str(tmp_path / "cache"))
    srv.start_background()
    try:
        with ServeClient(socket_path=path) as client:
            assert client.ping()["result"]["pong"] is True
            response = client.request("analyze", source=SOURCE_B)
            assert canonical_json(response["result"]) == canonical_json(
                run_op("analyze", SOURCE_B)
            )
            client.request("shutdown")
    finally:
        srv.join(timeout=10.0)
    assert not os.path.exists(path)  # socket file cleaned up


# -- golden request/response transcript ---------------------------------------

#: The scripted session: (op, params).  Every response is deterministic
#: (no wall-clock fields; the cache directory starts empty each run).
_GOLDEN_SCRIPT = [
    ("ping", {}),
    ("analyze", {"source": SOURCE, "file": "prog.dfg"}),
    ("analyze", {"source": SOURCE, "file": "prog.dfg"}),
    ("constprop", {"source": SOURCE}),
    ("lint", {"source": SOURCE_B, "file": "b.dfg"}),
    ("nope", {}),
    ("analyze", {}),
    ("analyze", {"source": BAD_SOURCE}),
    ("edit", {"action": "open", "session": "g", "source": SOURCE_B}),
    ("edit", {"action": "query", "session": "g"}),
    ("edit", {"action": "close", "session": "g"}),
    ("batch-sarif", {"docs": [{"label": "b.dfg", "source": SOURCE_B}]}),
]


def test_golden_session_transcript(server) -> None:
    with _client(server) as client:
        transcript = []
        for op, params in _GOLDEN_SCRIPT:
            response = client.request(op, **params)
            transcript.append({
                "request": {"op": op, **params},
                "response": response,
            })
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(
            json.dumps(transcript, indent=2, sort_keys=True) + "\n"
        )
    expected = json.loads(GOLDEN.read_text())
    assert transcript == expected


# -- malformed requests -------------------------------------------------------


def test_malformed_lines_get_structured_errors_not_disconnects(
    server,
) -> None:
    import socket as socketlib

    _, host, port = server.address
    sock = socketlib.create_connection((host, port), timeout=10.0)
    try:
        reader = sock.makefile("rb")
        for raw, expected_kind in (
            (b"this is not json\n", "input"),
            (b'"just a string"\n', "input"),
            (b'{"id": 1, "op": "edit", "action": 7}\n', "input"),
            (b'{"id": 2, "op": "analyze", "source": 42}\n', "input"),
            (b'{"id": 3, "op": "analyze", "source": "x := ;"}\n', "language"),
        ):
            sock.sendall(raw)
            response = json.loads(reader.readline())
            assert response["schema"] == SERVE_SCHEMA
            assert response["ok"] is False
            assert response["error"]["kind"] == expected_kind, raw
        # The connection is still alive and serving after five bad lines.
        sock.sendall(
            json.dumps({"id": 9, "op": "ping"}).encode() + b"\n"
        )
        assert json.loads(reader.readline())["result"]["pong"] is True
    finally:
        sock.close()


def test_daemon_error_maps_to_cli_exit_2(server, tmp_path) -> None:
    """``repro request`` against a live daemon turns a daemon-side error
    into the one-line structured stderr + exit 2 contract."""
    bad = tmp_path / "bad.dfg"
    bad.write_text(BAD_SOURCE)
    _, host, port = server.address
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "request", "analyze", str(bad),
            "--host", host, "--port", str(port),
        ],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = [line for line in proc.stderr.splitlines() if line]
    assert len(lines) == 1 and lines[0].startswith("repro: input error:")


def test_client_raise_for_error_taxonomy(server) -> None:
    from repro.robust.errors import InputError

    with _client(server) as client:
        response = client.request("analyze")  # missing source
        with pytest.raises(InputError):
            raise_for_error(response)
        ok = client.request("analyze", source=SOURCE_B)
        assert raise_for_error(ok) == ok["result"]


def test_request_cli_offline_equals_daemon(server, tmp_path) -> None:
    """The no-address fallback of ``repro request`` prints byte-identical
    JSON to a request served by a warm daemon."""
    prog = tmp_path / "prog.dfg"
    prog.write_text(SOURCE)
    _, host, port = server.address
    env = dict(os.environ, PYTHONPATH=SRC)
    offline = subprocess.run(
        [sys.executable, "-m", "repro", "request", "analyze", str(prog)],
        capture_output=True, env=env, check=True,
    )
    via_daemon = subprocess.run(
        [
            sys.executable, "-m", "repro", "request", "analyze", str(prog),
            "--host", host, "--port", str(port),
        ],
        capture_output=True, env=env, check=True,
    )
    assert offline.stdout == via_daemon.stdout


# -- edit sessions: one parse, dirty-spine-bounded work ----------------------


def test_edit_session_reuses_incremental_state(server) -> None:
    with _client(server) as client:
        opened = raise_for_error(
            client.request(
                "edit", action="open", session="e1", source=SOURCE
            )
        )
        assert server.broker.stats["parses"] == 1
        assigns = [
            s["id"] for s in opened["statements"] if s["kind"] == "ASSIGN"
        ]
        assert assigns

        # First query pays for the initial solve.
        raise_for_error(client.request("edit", action="query", session="e1"))
        session = server.broker._sessions["e1"]["session"]
        systems_total = len(session.engine.systems.systems)

        # Repeated rewrite+query cycles: no re-parse ever, and each
        # re-solve touches a bounded slice of the region tree, not all
        # of it.
        for round_ in range(3):
            work = raise_for_error(
                client.request(
                    "edit", action="rewrite", session="e1",
                    node=assigns[0], expr=str(10 + round_),
                )
            )["work"]
            assert work.get("inc_full_rebuilds", 0) == 0
            queried = raise_for_error(
                client.request("edit", action="query", session="e1")
            )
            resummarized = queried["work"].get(
                "inc_regions_resummarized", 0
            )
            assert 0 < resummarized < systems_total, round_
        assert server.broker.stats["parses"] == 1  # still the one parse

        # Splice + unsplice round-trip through the wire API.
        edge = opened["edge_ids"][0]
        spliced = raise_for_error(
            client.request(
                "edit", action="splice", session="e1",
                edge=edge, target="tmp", expr="5",
            )
        )
        raise_for_error(
            client.request(
                "edit", action="unsplice", session="e1",
                node=spliced["node"],
            )
        )
        closed = raise_for_error(
            client.request("edit", action="close", session="e1")
        )
        assert closed["edits"] == 5  # 3 rewrites + splice + unsplice
        assert server.broker.stats["parses"] == 1


def test_edit_session_never_aliases_warm_lru(server) -> None:
    """The latent-bug regression at the protocol level: analyzing X,
    editing X in a session, then re-analyzing X must serve the
    *original* answer (the session's graph is private)."""
    with _client(server) as client:
        expected = canonical_json(run_op("analyze", SOURCE_B))
        first = client.request("analyze", source=SOURCE_B)
        assert canonical_json(first["result"]) == expected

        opened = raise_for_error(
            client.request(
                "edit", action="open", session="alias", source=SOURCE_B
            )
        )
        assign = next(
            s["id"] for s in opened["statements"] if s["kind"] == "ASSIGN"
        )
        raise_for_error(
            client.request(
                "edit", action="rewrite", session="alias",
                node=assign, expr="99",
            )
        )
        raise_for_error(client.request("edit", action="query", session="alias"))

        again = client.request("analyze", source=SOURCE_B)
        assert again["cache"] == "warm"
        assert canonical_json(again["result"]) == expected  # not 99-tainted


# -- batch-sarif: cache + supervised pool with a fake clock -------------------


def test_batch_sarif_mixed_docs_and_disk_cache(server) -> None:
    with _client(server) as client:
        docs = [
            {"label": "b.dfg", "source": SOURCE_B},
            {"label": "gen", "family": "diamond", "args": [4]},
        ]
        first = raise_for_error(client.request("batch-sarif", docs=docs))
        assert [d["cache"] for d in first["documents"]] == ["miss", "miss"]
        sarif = first["documents"][0]["sarif"]
        assert sarif["version"] == "2.1.0"

        second = raise_for_error(client.request("batch-sarif", docs=docs))
        # Source docs hit the disk tier; family docs are never cached.
        assert second["documents"][0]["cache"] == "disk"
        assert second["documents"][0]["sarif"] == sarif
        assert second["documents"][1]["cache"] == "miss"


def test_batch_sarif_pool_timeout_with_fake_clock(tmp_path) -> None:
    """A hung worker is cut off at the per-doc deadline without any real
    sleeping: the supervisor's poll-loop sleeps advance a FakeClock.

    The healthy doc opts out of the deadline with a per-doc
    ``timeout_s: None`` override -- under a fake clock a real worker's
    spawn time would otherwise count against a purely fictional budget.
    """
    clock = FakeClock()
    srv = ReproServer(
        host="127.0.0.1", port=0, cache_dir=str(tmp_path / "cache"),
        pool_workers=1, pool_timeout_s=5.0,
        clock=clock.now, sleep=clock.sleep,
    )
    srv.start_background()
    try:
        with _client(srv, timeout_s=120.0) as client:
            result = raise_for_error(
                client.request(
                    "batch-sarif",
                    docs=[
                        {"label": "hang", "family": "__hang__", "args": []},
                        {
                            "label": "ok", "source": SOURCE_B,
                            "timeout_s": None,
                        },
                    ],
                )
            )
            hang, ok = result["documents"]
            assert hang["label"] == "hang"
            assert hang["quarantined"]
            assert hang["error"]["type"] == "PassTimeout"
            assert ok["sarif"]["version"] == "2.1.0"
            assert srv.broker.incidents.count("worker-timeout") >= 1
            assert clock.sleeps  # the fake clock did the waiting
            client.request("shutdown")
    finally:
        srv.join(timeout=30.0)


# -- stats + graceful shutdown ------------------------------------------------


def test_stats_op_accounts_tiers(server) -> None:
    with _client(server) as client:
        client.request("analyze", source=SOURCE_B)
        client.request("analyze", source=SOURCE_B)
        stats = raise_for_error(client.request("stats"))
        assert stats["misses"] == 1 and stats["warm_hits"] == 1
        assert stats["parses"] == 1
        assert stats["cache"]["version"] == server.broker.cache.version
        assert stats["by_op"]["analyze"] == 2


def test_graceful_shutdown_drains_in_flight_work(server) -> None:
    """A request already executing when shutdown arrives still gets its
    response before the serve loop exits."""
    slow_response: dict = {}

    def slow() -> None:
        with _client(server, timeout_s=30.0) as client:
            slow_response.update(
                client.request("debug-sleep", ms=400)
            )

    worker = threading.Thread(target=slow)
    worker.start()
    # Give the slow request time to reach the broker, then shut down
    # from a second connection.
    import time

    deadline = time.monotonic() + 5.0
    while (
        server.broker._by_op.get("debug-sleep", 0) == 0
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    with _client(server) as client:
        assert client.request("shutdown")["result"]["stopping"] is True
    worker.join(timeout=30.0)
    server.join(timeout=30.0)
    assert slow_response.get("ok") is True  # drained, not dropped
    assert slow_response["result"]["slept_ms"] == 400


def test_one_shot_helper_matches_run_op() -> None:
    assert one_shot("constprop", SOURCE) == run_op("constprop", SOURCE)
