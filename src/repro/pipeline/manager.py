"""The analysis pipeline manager: keyed passes, memoization, invalidation.

Every analysis in the project (dominance, cycle equivalence, SESE
structure, the DFG, SSA, def-use chains, the constant propagators, ...)
is registered as a :class:`PassSpec` with declared dependencies.  An
:class:`AnalysisManager` bound to one CFG resolves passes on demand,
caches each result, and attributes (work units, wall-clock time, cache
hits/misses) per pass through a shared :class:`repro.util.metrics.Metrics`.

Invalidation is driven by the CFG's two mutation counters:

* ``shape_version`` changes (nodes or edges added/removed) drop every
  cached result -- all passes are downstream of the graph's shape;
* ``expr_version`` changes (in-place expression rewrites announced via
  :meth:`repro.cfg.graph.CFG.note_rewrite`) drop only the passes that
  declared ``uses_exprs=True``.  Copy propagation therefore keeps the
  dominator trees, cycle-equivalence classes and SESE structure warm --
  it rewrites operands, not control structure or assignment targets --
  while the DFG, def-use chains and every constant propagator recompute.

Explicit :meth:`AnalysisManager.invalidate` cascades to declared
transitive dependents, for callers that know precisely what they dirtied.

This is the scheduling substrate the ROADMAP's sharding/batching items
need: a pass that is registered, cached and invalidated here can later be
farmed out, because its inputs and outputs are explicit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.cfg.graph import CFG
from repro.util.counters import WorkCounter
from repro.util.metrics import Metrics

#: Serialization protocol for exported pass results.  Pinned (rather
#: than ``pickle.HIGHEST_PROTOCOL``) so the bytes a cache entry holds do
#: not silently change shape under an interpreter upgrade without an
#: :data:`repro.serve.cache.ENGINE_VERSION` bump.
EXPORT_PICKLE_PROTOCOL = 4

#: A pass body: receives the graph, its resolved dependencies (keyed by
#: pass name), and the shared work counter; returns the analysis result.
BuildFn = Callable[[CFG, Mapping[str, object], WorkCounter], object]
#: Are two results of one pass the same answer?
EqualFn = Callable[[object, object], bool]


@dataclass(frozen=True)
class PassSpec:
    """A registered analysis pass.

    ``uses_exprs`` declares whether the result reads node *expressions*
    (operands / predicates).  Passes of pure graph shape plus assignment
    targets -- dominance, cycle equivalence, SESE regions -- set it False
    and survive expression-only rewrites.

    ``oracle`` is the pass's reference twin: a body with the same
    signature that recomputes the answer from the graph alone (it reads
    no dependency, so it cannot inherit a fast kernel's bug).  ``equal``
    says whether two results are the same answer, for result types
    without value equality.  The degradation policy, the chaos harness,
    the fuzzer's ``twin`` oracle and the equivalence tests all read these
    two fields; nothing else pairs a fast path with its reference.
    """

    name: str
    build: BuildFn
    deps: tuple[str, ...] = ()
    uses_exprs: bool = True
    description: str = ""
    oracle: BuildFn | None = None
    equal: EqualFn = operator.eq


class PassRegistry:
    """Named passes with a dependency DAG (registration order = topological)."""

    def __init__(self) -> None:
        self._specs: dict[str, PassSpec] = {}

    def register(
        self,
        name: str,
        deps: tuple[str, ...] = (),
        uses_exprs: bool = True,
        description: str = "",
        oracle: BuildFn | None = None,
        equal: EqualFn = operator.eq,
    ) -> Callable[[BuildFn], BuildFn]:
        """Decorator registering ``fn`` as the body of pass ``name``.

        Dependencies must already be registered, which forces acyclicity
        and makes registration order a topological order.
        """

        def decorate(fn: BuildFn) -> BuildFn:
            if name in self._specs:
                raise ValueError(f"pass {name!r} registered twice")
            for dep in deps:
                if dep not in self._specs:
                    raise ValueError(
                        f"pass {name!r} depends on unregistered {dep!r}"
                    )
            self._specs[name] = PassSpec(
                name, fn, tuple(deps), uses_exprs, description, oracle, equal
            )
            return fn

        return decorate

    def clone(self) -> "PassRegistry":
        """An independent registry with the same specs, for callers that
        want to register extra passes without mutating the shared default
        registry (whose pass list is part of the profiling/chaos surface)."""
        dup = PassRegistry()
        dup._specs = dict(self._specs)
        return dup

    def spec(self, name: str) -> PassSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(self._specs)
            raise KeyError(f"unknown pass {name!r}; registered: {known}") from None

    def names(self) -> list[str]:
        """All pass names in registration (= topological) order."""
        return list(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[PassSpec]:
        return iter(self._specs.values())

    def downstream(self, *names: str) -> set[str]:
        """``names`` plus every pass that transitively depends on them."""
        affected = set(names)
        for name in names:
            self.spec(name)  # raise on unknown
        changed = True
        while changed:
            changed = False
            for spec in self._specs.values():
                if spec.name not in affected and affected & set(spec.deps):
                    affected.add(spec.name)
                    changed = True
        return affected


@dataclass
class PassStats:
    """Per-pass cache and cost accounting."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    work: dict[str, int] = field(default_factory=dict)
    wall: float = 0.0

    def as_dict(self) -> dict:
        return {
            "cache": {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            },
            "work": dict(sorted(self.work.items())),
            "work_total": sum(self.work.values()),
            "wall_ms": round(self.wall * 1e3, 3),
        }


class AnalysisManager:
    """Memoized, invalidation-aware access to analyses of one CFG.

    >>> from repro.cfg.builder import build_cfg
    >>> from repro.lang.parser import parse_program
    >>> g = build_cfg(parse_program("x := 1; print x;"))
    >>> m = AnalysisManager(g)
    >>> m.get("sese") is m.get("sese")   # warm query: same object
    True
    >>> m.stats["sese"].hits, m.stats["sese"].misses
    (1, 1)
    """

    def __init__(
        self,
        graph: CFG,
        registry: PassRegistry | None = None,
        metrics: Metrics | None = None,
        policy: "object | None" = None,
    ) -> None:
        if registry is None:
            from repro.pipeline.passes import default_registry

            registry = default_registry()
        self.graph = graph
        self.registry = registry
        self.metrics = metrics if metrics is not None else Metrics()
        #: Optional :class:`repro.robust.fallback.DegradationPolicy` (or
        #: anything with its ``run_pass(manager, spec, deps)`` shape).
        #: When set, every pass body runs through it, gaining oracle
        #: fallback, cross-checks, deadlines and fault injection; when
        #: None, passes run direct with zero overhead.
        self.policy = policy
        self._cache: dict[str, object] = {}
        self.stats: dict[str, PassStats] = {}
        self._seen_shape = graph.shape_version
        self._seen_exprs = graph.expr_version

    # -- cache bookkeeping -------------------------------------------------

    def _stats(self, name: str) -> PassStats:
        return self.stats.setdefault(name, PassStats())

    def _drop(self, names: set[str]) -> None:
        for name in names & self._cache.keys():
            del self._cache[name]
            self._stats(name).invalidations += 1

    def refresh(self) -> None:
        """Apply any invalidation implied by graph mutations since the
        last query.  Called automatically by every :meth:`get`."""
        if self.graph.shape_version != self._seen_shape:
            self._drop(set(self._cache))
        elif self.graph.expr_version != self._seen_exprs:
            self._drop(
                {
                    name
                    for name in self._cache
                    if self.registry.spec(name).uses_exprs
                }
            )
        self._seen_shape = self.graph.shape_version
        self._seen_exprs = self.graph.expr_version

    def invalidate(self, *names: str) -> set[str]:
        """Explicitly drop ``names`` and their transitive dependents;
        returns the set of passes that were actually cached."""
        affected = self.registry.downstream(*names)
        dropped = affected & self._cache.keys()
        self._drop(affected)
        return dropped

    def cached(self, name: str) -> bool:
        """Is ``name`` warm right now (after applying pending invalidation)?"""
        self.refresh()
        return name in self._cache

    def adopt(self, name: str, result: object) -> None:
        """Insert an externally computed result for pass ``name`` into
        the cache, as if the pass had just run.

        This is how incremental producers (the region edit session
        maintains the ``sese`` structure across statement edits) hand
        their up-to-date results to the pipeline so dependents reuse
        them instead of recomputing.  Pending version invalidation is
        applied *first*, so an adopt survives exactly until the next
        graph mutation."""
        self.registry.spec(name)  # unknown names raise, as get() would
        self.refresh()
        self._cache[name] = result
        self._stats(name).work["adopted"] = (
            self._stats(name).work.get("adopted", 0) + 1
        )

    # -- resolution --------------------------------------------------------

    def get(self, name: str) -> object:
        """The (possibly cached) result of pass ``name``."""
        self.refresh()
        return self._resolve(name)

    def _resolve(self, name: str) -> object:
        spec = self.registry.spec(name)
        stats = self._stats(name)
        if name in self._cache:
            stats.hits += 1
            with self.metrics.span(f"pass:{name}", cached=True):
                pass
            return self._cache[name]
        stats.misses += 1
        # Dependencies resolve *before* the span opens, so their work and
        # time are attributed to themselves, not to this pass.
        deps = {dep: self._resolve(dep) for dep in spec.deps}
        with self.metrics.span(f"pass:{name}", cached=False) as span:
            if self.policy is None:
                result = spec.build(self.graph, deps, self.metrics.counter)
            else:
                result = self.policy.run_pass(self, spec, deps)
        for key, amount in span.work.items():
            stats.work[key] = stats.work.get(key, 0) + amount
        stats.wall += span.duration
        self._cache[name] = result
        return result

    # -- export / import (the serve daemon's cache boundary) ----------------

    def export_result(self, name: str) -> bytes:
        """Pass ``name``'s result as a detached byte blob.

        **Detach discipline:** many results capture the live CFG (the
        ``sese`` structure, the DFG, the validated graph itself).
        Handing such an object to a cross-run cache would let a later
        mutation of this manager's graph -- an :class:`~repro.regions.
        edits.EditSession` rewriting a statement -- silently corrupt the
        "cached" answer, because both alias the same mutable graph.
        Serializing *immediately, at export time* snapshots the result:
        the returned bytes share no state with this manager, and
        :meth:`import_result` materializes a fresh object graph on the
        far side.  The regression test
        ``tests/test_serve_cache.py::test_export_detaches_from_live_graph``
        mutates the warm graph after exporting and asserts the cached
        answer is unaffected.
        """
        import pickle

        return pickle.dumps(self.get(name), protocol=EXPORT_PICKLE_PROTOCOL)

    def import_result(self, name: str, blob: bytes) -> object:
        """Materialize an exported blob and adopt it as pass ``name``.

        The caller must guarantee the blob was exported for *this
        manager's source content* (the serve cache keys entries by
        source SHA-256 and engine version for exactly this reason);
        adopting a blob from a different program would poison dependents.
        """
        import pickle

        result = pickle.loads(blob)
        self.adopt(name, result)
        return result

    def run_all(self, names: list[str] | None = None) -> dict[str, object]:
        """Resolve ``names`` (default: every registered pass) in
        topological order; returns ``{name: result}``."""
        self.refresh()
        wanted = names if names is not None else self.registry.names()
        return {name: self._resolve(name) for name in wanted}

    # -- reporting ---------------------------------------------------------

    def report(self) -> list[dict]:
        """Per-pass profile rows in registration order (touched passes only)."""
        rows = []
        for name in self.registry.names():
            stats = self.stats.get(name)
            if stats is None:
                continue
            rows.append({"pass": name, **stats.as_dict()})
        return rows

    def rebind(self, graph: CFG) -> None:
        """Point the manager at a replacement graph (e.g. the transformed
        copy EPR returns), dropping the whole cache."""
        self._drop(set(self._cache))
        self.graph = graph
        self._seen_shape = graph.shape_version
        self._seen_exprs = graph.expr_version
