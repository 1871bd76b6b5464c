"""serve-mix: one ``repro serve`` daemon, one connection, a seeded mix.

The daemon runs with its defaults (warm LRU of 32) on a fresh
``--cache-dir``.  One client sends each request after the previous reply
(a closed loop): ``RequestBroker.handle_line`` serializes requests under
one lock, so more connections would only queue.  The schedule
(:class:`perfbench.inputs.ServeSchedule`) keeps a hot set warm, sends
never-seen texts that miss and write the disk cache, returns evicted
texts from the disk tier, and runs edit sessions; latency is reported
per op and tier, because a percentile over mixed tiers sits on a
boundary between them.
"""

from __future__ import annotations

import json
import select
import socket
import statistics
import subprocess
import time

from perfbench import inputs
from perfbench.common import (
    BenchError, canonical, geometric_mean, median, python_argv, sha256, timing,
)

_TAIL = b',"schema":"repro.serve/1"}'
_RESULT = b',"result":'
#: Latency classes of the serve mix, and the tail read on the warm tier.
CLASSES = ("warm", "analyze-disk", "constprop-disk", "analyze-miss",
           "constprop-miss", "lint-miss", "edit")
WARM_TAIL = 99.0


class LineClient:
    """A minimal ``repro.serve/1`` client: one request line out, one
    response line back, timed around the socket calls only."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def call(self, line: bytes) -> tuple[bytes, float]:
        t0 = time.perf_counter()
        self.sock.sendall(line)
        buffer = self._buffer
        while b"\n" not in buffer:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("daemon closed the connection")
            buffer += chunk
        ms = (time.perf_counter() - t0) * 1000.0
        reply, self._buffer = buffer.split(b"\n", 1)
        return reply, ms

    def close(self) -> None:
        self.sock.close()


class Encoder:
    """Request lines, with each document's JSON-escaped text memoized."""

    def __init__(self, pool: dict) -> None:
        self.pool = pool
        self._texts: dict[tuple, str] = {}
        self.ident = 0

    def text(self, label: str, salt: int) -> str:
        key = (label, salt)
        if key not in self._texts:
            self._texts[key] = json.dumps(inputs.doc_source(self.pool, label, salt))
        return self._texts[key]

    def line(self, req: dict) -> bytes:
        self.ident += 1
        if req["op"] != "edit":
            return (
                f'{{"file":"{req["label"]}.dfg","id":{self.ident},'
                f'"op":"{req["op"]}","source":{self.text(req["label"], req["salt"])}}}\n'
            ).encode()
        body = {"id": self.ident, "op": "edit", "action": req["action"],
                "session": req["session"]}
        if req["action"] == "open":
            body["source"] = inputs.doc_source(self.pool, req["label"], 0)
        elif req["action"] == "rewrite":
            body["node"], body["expr"] = req["node"], req["expr"]
        return canonical(body) + b"\n"

    def control(self, op: str) -> bytes:
        self.ident += 1
        return canonical({"id": self.ident, "op": op}) + b"\n"


def split_reply(reply: bytes) -> tuple[bool, str | None, bytes | None]:
    """``(ok, tier, canonical result bytes)`` of one canonical response
    line; falls back to a full parse if the layout is not the expected
    sorted-key one."""
    i = reply.find(_RESULT)
    if i > 0 and reply.endswith(_TAIL):
        head = reply[:i]
        tier = None
        if head.startswith(b'{"cache":"'):
            tier = head[10:head.index(b'"', 10)].decode()
        return b'"ok":true' in head, tier, reply[i + len(_RESULT):-len(_TAIL)]
    response = json.loads(reply)
    result = response.get("result")
    return (bool(response.get("ok")), response.get("cache"),
            canonical(result) if result is not None else None)


class Checker:
    """Checks each reply against the pinned answers; remembers which
    (op, program) pairs were answered for the offline comparison."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.touched: set[tuple] = set()
        self.tiers = {"expected": 0, "other": 0}

    def reply(self, req: dict, reply: bytes) -> str | None:
        ctx = self.ctx
        if req["op"] != "edit":
            ok, tier, result = split_reply(reply)
            digest = sha256(result) if result is not None else None
            expected = ctx.expected["serve"][req["op"]][req["label"]]
            ctx.check(ok and digest == expected,
                      f"{req['op']} {req['label']}+{req['salt']}: {reply[:120]!r}")
            self.touched.add((req["op"], req["label"]))
            self.tiers["expected" if tier == req["expect"] else "other"] += 1
            return tier
        response = json.loads(reply)
        ok = bool(response.get("ok"))
        if ok and req["action"] == "query":
            steps = ctx.expected["edit"][req["label"]]
            ok = sha256(canonical(response["result"]["facts"])) == steps[req["step"]][2]
        ctx.check(ok, f"edit {req['action']} {req['label']}: {reply[:120]!r}")
        return None

    def offline(self) -> int:
        """Every answered (op, program) must also be the offline
        ``run_op`` answer; every lint document's definite findings must be
        verified and survive the AST-interpreter replay."""
        from perfbench import witness
        from repro.serve.ops import run_op

        ctx = self.ctx
        replayed = 0
        for op, label in sorted(self.touched):
            source = ctx.pool["programs"][label]
            result = run_op(op, source, label=f"{label}.dfg")
            digest = sha256(canonical(result))
            ctx.check(digest == ctx.expected["serve"][op][label],
                      f"offline {op} {label} differs from the pinned answer")
            if op == "lint":
                verdict = witness.replay(source, result)
                replayed += verdict["ok"]
                ctx.check(not verdict["contradicted"] and not verdict["unverified"],
                          f"lint witnesses {label}: {verdict}")
        return replayed


def classify(req: dict, tier: str | None) -> str | None:
    """The latency class of one reply: ``warm`` for every warm source op,
    else ``<op>-<tier>``; ``None`` for edit requests."""
    if req["op"] == "edit":
        return None
    return "warm" if tier == "warm" else f"{req['op']}-{tier}"


def spawn_daemon(ctx, cache_dir):
    """Start ``repro serve`` on a free localhost port; returns
    ``(process, port)`` once it listens."""
    proc = ctx.children.spawn(
        python_argv("-m", "repro", "serve", "--port", "0",
                    "--cache-dir", str(cache_dir)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    ready, _, _ = select.select([proc.stderr], [], [], 60)
    line = proc.stderr.readline().decode() if ready else ""
    if "listening on" not in line:
        raise BenchError(f"daemon did not start: {line!r}")
    port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def stop_daemon(ctx, proc, client, encoder) -> dict:
    stats = json.loads(client.call(encoder.control("stats"))[0])["result"]
    client.call(encoder.control("shutdown"))
    client.close()
    ctx.children.reap(proc)
    return stats


def _setup(ctx, checker, schedule):
    """Spawn a daemon on a fresh cache dir, wait for its first answered
    ``ping``, then send the untimed warm-up (one request per verb)."""
    t0 = time.perf_counter()
    proc, port = spawn_daemon(ctx, ctx.rundir.fresh("cache"))
    client = LineClient(port)
    encoder = Encoder(ctx.pool)
    pong = json.loads(client.call(encoder.control("ping"))[0])
    ctx.check(bool(pong.get("ok")), "ping")
    for req in schedule.warmup():
        checker.reply(req, client.call(encoder.line(req))[0])
    return time.perf_counter() - t0, proc, client, encoder


def replay(checker, client, encoder, stream, deadline=None):
    """Send requests until the stream ends or ``deadline`` passes (never
    stopping inside an edit session); returns per-request records
    ``(request, tier, ms)``."""
    records = []
    in_session = False
    for req in stream:
        if (not in_session and deadline is not None
                and time.perf_counter() >= deadline):
            break
        reply, ms = client.call(encoder.line(req))
        tier = checker.reply(req, reply)
        records.append((req, tier, ms))
        if req["op"] == "edit":
            in_session = req["action"] != "close"
    return records


def summarize(records) -> dict:
    samples = {name: [] for name in CLASSES}
    other: dict[str, list] = {}
    pending = None
    for req, tier, ms in records:
        name = classify(req, tier)
        if name in samples:
            samples[name].append(ms)
        elif name is not None:
            other.setdefault(name, []).append(ms)
        elif req["action"] == "rewrite":
            pending = ms
        elif req["action"] == "query" and pending is not None:
            samples["edit"].append(pending + ms)
            pending = None
        else:
            other.setdefault(f"edit-{req['action']}", []).append(ms)
    return {
        "warm": timing(samples["warm"], WARM_TAIL),
        **{name: timing(samples[name]) for name in CLASSES[1:]},
        **{name: timing(values) for name, values in sorted(other.items())},
    }


def run(ctx, setup_repeats: int) -> dict:
    checker = Checker(ctx)
    setups = []
    for i in range(setup_repeats):
        schedule = inputs.ServeSchedule(ctx.pool, ctx.expected, ctx.seed, ctx.smoke)
        seconds, proc, client, encoder = _setup(ctx, checker, schedule)
        setups.append(seconds)
        if i < setup_repeats - 1:
            stop_daemon(ctx, proc, client, encoder)

    t_start = time.perf_counter()
    records = replay(checker, client, encoder, schedule.stream(),
                     deadline=t_start + ctx.seconds)
    wall = time.perf_counter() - t_start
    stats = stop_daemon(ctx, proc, client, encoder)
    replayed = checker.offline()

    classes = summarize(records)
    medians = [classes[name]["p50_ms"] for name in CLASSES]
    return {
        "setup_samples_s": setups,
        "setup_s": statistics.median(setups),
        "ops": len(records),
        "wall_s": wall,
        "ops_per_s": len(records) / wall,
        "p50_ms": classes["warm"]["p50_ms"],
        "gm_p50_ms": geometric_mean(medians),
        "named": {
            "warm_p50_ms": classes["warm"],
            "warm_p99_ms": classes["warm"],
            "disk_p50_ms.analyze": classes["analyze-disk"],
            "disk_p50_ms.constprop": classes["constprop-disk"],
            "miss_p50_ms.analyze": classes["analyze-miss"],
            "miss_p50_ms.constprop": classes["constprop-miss"],
            "lint_miss_p50_ms": classes["lint-miss"],
            "edit_p50_ms": classes["edit"],
            "requests_per_s": {"n": len(records)},
        },
        "classes": classes,
        "first_tiers": [tier for _, tier, _ in records[:3]],
        "tier_matches": checker.tiers,
        "witness_replayed": replayed,
        "daemon_stats": {k: stats.get(k) for k in (
            "requests", "warm_hits", "disk_hits", "misses", "parses",
            "sessions_opened", "errors")},
        "inputs": {"hot": schedule.hot},
    }


# -- traced section -----------------------------------------------------------


def _traced_requests(ctx) -> tuple[list, list]:
    """The warm-up and the timed requests the traced section replays:
    the priming plus a fixed number of blocks."""
    schedule = inputs.ServeSchedule(ctx.pool, ctx.expected, ctx.seed, ctx.smoke)
    warmup = schedule.warmup()
    reqs = schedule.priming()
    for _ in range(12 if ctx.smoke else 10):
        reqs += schedule.block()
    return warmup, reqs


def section(ctx, recorder) -> dict:
    """The same request sequence three ways: over the daemon's socket
    (untraced round trips), through an in-process broker (plain
    ``handle_line`` times), and through a traced in-process broker."""
    from perfbench.tracing import installed
    from repro.serve import server
    from repro.serve.cache import ResultCache

    warmup, reqs = _traced_requests(ctx)
    checker = Checker(ctx)

    # 1. untraced round trips over the socket
    proc, port = spawn_daemon(ctx, ctx.rundir.fresh("cache"))
    client = LineClient(port)
    encoder = Encoder(ctx.pool)
    for req in warmup:
        checker.reply(req, client.call(encoder.line(req))[0])
    socket_ms = [ms for _, _, ms in replay(checker, client, encoder, reqs)]
    stop_daemon(ctx, proc, client, encoder)

    def broker_run(traced: bool):
        broker = server.RequestBroker(ResultCache(str(ctx.rundir.fresh("cache"))))
        encoder = Encoder(ctx.pool)
        for req in warmup:
            checker.reply(req, server.canonical_json(
                broker.handle_line(encoder.line(req)[:-1])))
        rows, work = [], 0
        for n, req in enumerate(reqs):
            line = encoder.line(req)[:-1]
            if traced:
                with recorder.op(f"serve:{n}") as attrs:
                    response = broker.handle_line(line)
                    reply = server.canonical_json(response)
                attrs["class"] = classify(req, response.get("cache")) or "edit"
            else:
                t0 = time.perf_counter()
                response = broker.handle_line(line)
                t1 = time.perf_counter()
                reply = server.canonical_json(response)
                t2 = time.perf_counter()
                rows.append((req, response.get("cache"),
                             (t1 - t0) * 1000.0, (t2 - t1) * 1000.0))
            checker.reply(req, reply)
            if req["op"] == "edit" and response.get("ok"):
                work += response["result"].get("work", {}).get(
                    "inc_regions_resummarized", 0)
        stats = broker.handle_line(encoder.control("stats")[:-1])["result"]
        return rows, stats, work

    # 2. plain in-process handle_line; 3. traced
    plain, _stats, _work = broker_run(traced=False)
    with installed(recorder):
        _rows, stats, resummarized = broker_run(traced=True)
    checker.offline()

    # Handle times by tier; disk and miss read on analyze, the op that
    # resolves all four cached passes.
    handle = {"warm": [], "disk": [], "miss": []}
    by_class: dict[str, list] = {}
    for req, tier, handle_ms, encode_ms in plain:
        if tier == "warm" or (req["op"] == "analyze" and tier in handle):
            handle[tier].append(handle_ms)
        by_class.setdefault(classify(req, tier) or "edit", []).append(
            handle_ms + encode_ms)
    wire = [rtt - row[2] for rtt, row in zip(socket_ms, plain)]
    source_ops = stats["warm_hits"] + stats["disk_hits"] + stats["misses"]
    return {
        "plain_ms": by_class,
        "serve": {
            **{f"serve.handle_ms.{tier}": median(values)
               for tier, values in handle.items()},
            "serve.wire_ms": median(wire),
            "serve.hit_rate": (stats["warm_hits"] + stats["disk_hits"]) / source_ops,
            "serve.parses": stats["parses"],
            "serve.evictions": stats["parses"] - stats["sessions_opened"]
            - stats["warm"]["size"],
            "edit.regions_resummarized": resummarized,
        },
    }
