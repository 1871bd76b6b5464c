"""Per-seed workload inputs, derived only from the pinned pool and the seed.

Nothing here imports ``repro``: a change to ``repro.workloads`` or
``repro.serve.loadgen`` cannot change what is measured.  The same seed
gives byte-identical inputs (see :func:`dump`), whatever the
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections import OrderedDict

from perfbench.common import Draw, canonical, sha256

SOURCE_OPS = ("analyze", "constprop", "lint")
FAMILIES = ("random", "irreducible", "jump", "ladder")

#: The daemon's cache as ``repro serve`` runs it by default: an LRU of 32
#: warm documents, each memoizing the ops it answered, in front of a disk
#: store of exported pass results (``op:lint`` is the cached lint
#: document).  The schedule uses this model to aim each request at a tier;
#: the run records the tier the daemon reports.
LRU_CAPACITY = 32
OP_PASSES = {
    "analyze": ("sese", "dfg", "constprop", "arena"),
    "constprop": ("dfg", "constprop"),
    "lint": ("op:lint",),
}

#: One serve block: warm reads, misses of never-seen texts, disk-tier
#: returns of evicted texts, one lint miss and one edit session, in a
#: seeded order.  Each (op, tier) pair is its own latency class -- an
#: analyze miss computes four passes, a constprop miss two, so a median
#: over both would sit on the boundary between them.  The counts give
#: every class a sizeable share of wall time.
BLOCK = {"warm": 176, "analyze-miss": 5, "constprop-miss": 5,
         "analyze-disk": 4, "constprop-disk": 4, "lint-miss": 1, "edit": 1}
BLOCK_SMOKE = {"warm": 12, "analyze-miss": 1, "constprop-miss": 1,
               "analyze-disk": 1, "constprop-disk": 1, "lint-miss": 1,
               "edit": 1}


def doc_source(pool: dict, label: str, salt: int) -> str:
    """The text of one served document.  A salted variant appends a
    comment line: a new content hash (so a first touch misses) with the
    same program, spans and expected answers."""
    source = pool["programs"][label]
    if salt:
        source += f"# perfbench variant {salt}\n"
    return source


def _ordered(pool: dict, labels, key: str) -> list[str]:
    """``labels`` by text size (``key="size"``), or by the lint time
    measured when the pool was pinned (``key="lint"``; text size predicts
    lint cost poorly, e.g. in goto soup)."""
    if key == "lint":
        cost = pool["lint_cost_ms"]
        return sorted(labels, key=lambda label: (cost[label], label))
    return sorted(labels, key=lambda label: (len(pool["programs"][label]), label))


def _stratified(draw: Draw, pool: dict, counts: dict, key: str = "size") -> list[str]:
    """``counts[family]`` programs per family, one from each of that many
    equal bins of the family ordered by ``key``, so that every seed draws
    the same mix of families and costs."""
    out: list[str] = []
    for family in FAMILIES:
        labels = _ordered(pool, pool["strata"][family], key)
        k = counts[family]
        for b in range(k):
            lo, hi = b * len(labels) // k, (b + 1) * len(labels) // k
            out.append(labels[lo + draw.below(hi - lo)])
    return out


def _spread_order(draw: Draw, pool: dict, key: str = "size",
                  bins: int = 8) -> list[str]:
    """Every corpus program once, in an order whose every prefix holds
    the families in proportion and each family's costs evenly: families
    are interleaved by position, and within a family each round takes
    one program from each bin of the ``key`` order."""
    keyed = []
    for index, family in enumerate(FAMILIES):
        labels = _ordered(pool, pool["strata"][family], key)
        k = min(bins, len(labels))
        groups = [draw.shuffled(labels[b * len(labels) // k:
                                       (b + 1) * len(labels) // k])
                  for b in range(k)]
        sequence = []
        for r in range(max(len(g) for g in groups)):
            sequence += [g[r] for g in draw.shuffled(groups) if r < len(g)]
        n = len(sequence)
        keyed += [((i + 0.5) / n, index, label)
                  for i, label in enumerate(sequence)]
    return [label for _, _, label in sorted(keyed)]


def oneshot_files(pool: dict, seed: int, smoke: bool = False) -> list[str]:
    """The demo program plus a family-stratified draw of corpus programs;
    each is linted and analyzed by a fresh CLI process."""
    draw = Draw(seed, "oneshot")
    counts = (
        {"random": 1, "irreducible": 0, "jump": 1, "ladder": 0}
        if smoke
        else {"random": 12, "irreducible": 4, "jump": 4, "ladder": 4}
    )
    return ["demo"] + _stratified(draw, pool, counts, key="lint")


def batch_specs(pool: dict, seed: int, smoke: bool = False) -> dict:
    """Two sweep kinds: ``suite`` is shaped like ``repro batch``'s default
    suite (one random program per size bucket from 80 to 120 statements,
    plus ``diamond-120`` and ``wide-96``); ``corpus`` is a stratified
    slice of the small equivalence-corpus programs, where process spawn
    and import dominate."""
    draw = Draw(seed, "batch")
    buckets = pool["suite_buckets"]
    if smoke:
        return {
            "suite": [draw.pick(buckets[0])],
            "corpus": _stratified(
                draw, pool,
                {"random": 1, "irreducible": 0, "jump": 0, "ladder": 0},
            ),
        }
    return {
        "suite": [draw.pick(b) for b in buckets] + list(pool["suite_fixed"]),
        "corpus": _stratified(
            draw, pool,
            {"random": 8, "irreducible": 2, "jump": 2, "ladder": 1},
        ),
    }


class DaemonModel:
    """Predicts the tier (warm/disk/miss) of each source-op request."""

    def __init__(self) -> None:
        self.lru: OrderedDict[tuple, dict] = OrderedDict()
        self.disk: dict[tuple, set] = {}

    def touch(self, doc: tuple, op: str) -> str:
        entry = self.lru.get(doc)
        if entry is None:
            entry = {"ops": set(), "passes": set()}
            self.lru[doc] = entry
            while len(self.lru) > LRU_CAPACITY:
                self.lru.popitem(last=False)
        else:
            self.lru.move_to_end(doc)
        if op in entry["ops"]:
            return "warm"
        stored = self.disk.setdefault(doc, set())
        needed = [p for p in OP_PASSES[op] if p not in entry["passes"]]
        computed = [p for p in needed if p not in stored]
        entry["passes"].update(needed)
        entry["ops"].add(op)
        stored.update(computed)
        if computed:
            return "miss"
        return "disk" if needed else "warm"


class ServeSchedule:
    """The seeded serve-mix request stream: warm-up, priming, then an
    endless sequence of fixed-composition blocks.

    Requests are plain dicts: ``slot`` (what the schedule aimed at),
    ``op``, ``label``/``salt`` for source ops, ``expect`` (the model's
    tier) and the edit fields.
    """

    def __init__(
        self, pool: dict, expected: dict, seed: int, smoke: bool = False
    ) -> None:
        self.pool = pool
        self.expected = expected
        self.block_counts = BLOCK_SMOKE if smoke else BLOCK
        draw = Draw(seed, "serve")
        hot_counts = (
            {"random": 2, "irreducible": 1, "jump": 0, "ladder": 0}
            if smoke
            else {"random": 10, "irreducible": 3, "jump": 2, "ladder": 1}
        )
        self.hot = _stratified(draw, pool, hot_counts)
        # Salted variants are new documents, so misses may draw hot
        # programs too: every seed's misses cover the same corpus.
        self._miss_order = _spread_order(draw, pool)
        self._lint_order = _spread_order(draw, pool, key="lint")
        self._edit_order = _spread_order(draw, pool)
        self._draw = draw
        self._model = DaemonModel()
        self._salt = 0
        self._cursor = {"miss": 0, "lint": 0, "edit": 0}
        # Missed documents awaiting a disk return, oldest first, by op.
        self._missed: dict[str, list] = {"analyze": [], "constprop": []}
        self._blocks = 0

    # -- pieces ----------------------------------------------------------------

    def _source_req(self, slot: str, op: str, label: str, salt: int) -> dict:
        expect = self._model.touch((label, salt), op)
        return {"slot": slot, "op": op, "label": label, "salt": salt,
                "expect": expect}

    def _next(self, order: list[str], key: str) -> str:
        label = order[self._cursor[key] % len(order)]
        self._cursor[key] += 1
        return label

    def _new_variant(self, slot: str, op: str, order, key) -> dict:
        self._salt += 1
        req = self._source_req(slot, op, self._next(order, key), self._salt)
        if op != "lint":
            self._missed[op].append((req["label"], req["salt"]))
        return req

    def _disk_return(self, op: str) -> dict | None:
        """The oldest document missed with ``op`` that the LRU has since
        evicted, asked again with the same op."""
        missed = self._missed[op]
        for i, doc in enumerate(missed):
            if doc not in self._model.lru:
                del missed[i]
                return self._source_req(f"{op}-disk", op, doc[0], doc[1])
        return None

    def _session(self, label: str, name: str, slot: str = "edit") -> list[dict]:
        steps = self.expected["edit"][label]
        reqs = [{"slot": slot, "op": "edit", "action": "open",
                 "session": name, "label": label}]
        for i, (node, expr, _digest) in enumerate(steps):
            reqs.append({"slot": slot, "op": "edit", "action": "rewrite",
                         "session": name, "label": label, "node": node,
                         "expr": expr, "step": i})
            reqs.append({"slot": slot, "op": "edit", "action": "query",
                         "session": name, "label": label, "step": i})
        reqs.append({"slot": slot, "op": "edit", "action": "close",
                     "session": name, "label": label})
        return reqs

    # -- the stream --------------------------------------------------------------

    def warmup(self) -> list[dict]:
        """One untimed request per verb on the demo program (setup)."""
        reqs = [self._source_req("warmup", op, "demo", 0) for op in SOURCE_OPS]
        return reqs + self._session("demo", "warmup", slot="warmup")

    def priming(self) -> list[dict]:
        """First touches of the hot set: the timed phase begins with misses."""
        order = self._draw.shuffled(
            [(label, op) for label in self.hot for op in SOURCE_OPS]
        )
        return [self._source_req("prime", op, label, 0) for label, op in order]

    def block(self) -> list[dict]:
        kinds = []
        for kind, count in self.block_counts.items():
            kinds += [kind] * count
        reqs: list[dict] = []
        for kind in self._draw.shuffled(kinds):
            if kind == "warm":
                label = self._draw.pick(self.hot)
                op = self._draw.pick(SOURCE_OPS)
                reqs.append(self._source_req("warm", op, label, 0))
            elif kind.endswith("-disk"):
                op = kind[:-len("-disk")]
                req = self._disk_return(op)
                if req is None:  # nothing evicted yet: miss instead
                    req = self._new_variant(
                        f"{op}-miss", op, self._miss_order, "miss"
                    )
                reqs.append(req)
            elif kind.endswith("-miss") and kind != "lint-miss":
                op = kind[:-len("-miss")]
                reqs.append(
                    self._new_variant(kind, op, self._miss_order, "miss")
                )
            elif kind == "lint-miss":
                reqs.append(self._new_variant(
                    "lint-miss", "lint", self._lint_order, "lint"
                ))
            else:
                label = self._next(self._edit_order, "edit")
                reqs += self._session(label, f"s{self._blocks}-{len(reqs)}")
        self._blocks += 1
        return reqs

    def stream(self):
        """Priming, then blocks without end."""
        yield from self.priming()
        while True:
            yield from self.block()


def dump(pool: dict, expected: dict, workload: str, seed: int,
         smoke: bool = False) -> bytes:
    """Canonical bytes of a workload's generated inputs for ``seed``
    (for serve-mix: the warm-up, the priming and the first three blocks)."""
    if workload == "oneshot-cli":
        body = {"files": oneshot_files(pool, seed, smoke)}
    elif workload == "batch-sweep":
        body = batch_specs(pool, seed, smoke)
    else:
        schedule = ServeSchedule(pool, expected, seed, smoke)
        reqs = schedule.warmup() + schedule.priming()
        for _ in range(3):
            reqs += schedule.block()
        body = {"hot": schedule.hot, "requests": reqs}
    return canonical({"workload": workload, "seed": seed, "smoke": smoke,
                      "inputs": body})


def inputs_digest(pool, expected, workload, seed, smoke=False) -> str:
    return sha256(dump(pool, expected, workload, seed, smoke))
