"""The degradation policy: fast kernels fail soft, onto their oracles.

Every fast path (CSR kernels, the bitset dataflow solver, the sparse
engine's clients) keeps a reference twin that the equivalence suite
holds byte-identical; a pass declares it on its
:class:`~repro.pipeline.manager.PassSpec` as ``oracle`` (see
:mod:`repro.pipeline.passes`).  This module turns those twins from test
oracles into *runtime* oracles: a :class:`DegradationPolicy` installed
on an :class:`~repro.pipeline.manager.AnalysisManager` wraps every pass
body, and when a fast kernel raises -- or, with ``cross_check=True``,
returns something its oracle disagrees with under the pass's declared
``equal`` -- the policy substitutes the oracle result, records a
``repro.incident/1`` (:mod:`repro.robust.incidents`), and lets the run
continue.  Only a pass with no oracle escalates to
:class:`~repro.robust.errors.AnalysisError`.  This module names no
analysis: everything it knows about one comes from its spec.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.robust.errors import (
    AnalysisError,
    PassTimeout,
    ReproError,
    error_record,
    graph_fingerprint,
)
from repro.robust.incidents import IncidentLog
from repro.robust.watchdog import Deadline

if TYPE_CHECKING:
    from repro.pipeline.manager import AnalysisManager, PassSpec


def results_equal(name: str, a: object, b: object) -> bool:
    """Are two results of default-registry pass ``name`` the same
    answer, under the pass's declared ``equal``?"""
    from repro.pipeline.passes import default_registry

    return default_registry().spec(name).equal(a, b)


# -- the policy --------------------------------------------------------------


class DegradationPolicy:
    """Runs pass bodies with oracle fallback, cross-checks and deadlines.

    Install on a manager with
    ``AnalysisManager(graph, policy=DegradationPolicy(...))``; each
    pass's oracle and comparator come from its spec.  Knobs:

    ``cross_check``
        also run the oracle on *successful* fast results and compare; on
        mismatch the oracle's answer wins and a ``cross-check-mismatch``
        incident is recorded.  This is how silently-corrupted results
        are caught, at the price of running both sides.
    ``deadline``
        a :class:`~repro.robust.watchdog.Deadline` checked after every
        pass; an expired budget degrades the pass that overran it (or
        escalates, when it has no oracle).
    ``injector``
        a fault injector (see :mod:`repro.robust.chaos`) whose
        ``apply(fault, spec, graph, deps, counter)`` replaces the pass
        body for planned passes -- the hook the chaos harness uses.
    """

    def __init__(
        self,
        incidents: IncidentLog | None = None,
        cross_check: bool = False,
        deadline: Deadline | None = None,
        injector: object | None = None,
    ) -> None:
        self.incidents = incidents if incidents is not None else IncidentLog()
        self.cross_check = cross_check
        self.deadline = deadline
        self.injector = injector

    def run_pass(
        self,
        manager: "AnalysisManager",
        spec: "PassSpec",
        deps: Mapping[str, object],
    ) -> object:
        graph = manager.graph
        counter = manager.metrics.counter
        phase = f"pass:{spec.name}"
        fault = (
            self.injector.fault_for(spec.name)
            if self.injector is not None
            else None
        )
        try:
            if fault is not None:
                result = self.injector.apply(fault, spec, graph, deps, counter)
            else:
                result = spec.build(graph, deps, counter)
            if self.deadline is not None:
                self.deadline.check(
                    phase=phase,
                    pass_name=spec.name,
                    fingerprint=graph_fingerprint(graph),
                )
        except ReproError as exc:
            if isinstance(exc, PassTimeout):
                return self._degrade(manager, spec, deps, exc)
            # Input errors and already-classified failures are precise;
            # an oracle cannot repair a malformed graph.
            raise
        except Exception as exc:
            return self._degrade(manager, spec, deps, exc)
        if self.cross_check and spec.oracle is not None:
            expected = spec.oracle(graph, deps, counter)
            if not spec.equal(result, expected):
                self.incidents.record(
                    "cross-check-mismatch",
                    pass_name=spec.name,
                    phase=phase,
                    fingerprint=graph_fingerprint(graph),
                    recovered=True,
                )
                return expected
        return result

    def _degrade(
        self,
        manager: "AnalysisManager",
        spec: "PassSpec",
        deps: Mapping[str, object],
        exc: BaseException,
    ) -> object:
        graph = manager.graph
        phase = f"pass:{spec.name}"
        fingerprint = graph_fingerprint(graph)
        oracle = spec.oracle
        if oracle is None:
            self.incidents.record(
                "unrecovered",
                pass_name=spec.name,
                phase=phase,
                fingerprint=fingerprint,
                recovered=False,
                error=error_record(exc),
            )
            if isinstance(exc, PassTimeout):
                raise exc
            raise AnalysisError(
                f"pass {spec.name!r} failed with no oracle to fall back "
                f"to: {exc}",
                phase=phase,
                pass_name=spec.name,
                fingerprint=fingerprint,
            ) from exc
        try:
            result = oracle(graph, deps, manager.metrics.counter)
        except Exception as oracle_exc:
            self.incidents.record(
                "oracle-failed",
                pass_name=spec.name,
                phase=phase,
                fingerprint=fingerprint,
                recovered=False,
                error=error_record(oracle_exc),
            )
            raise AnalysisError(
                f"pass {spec.name!r} failed and its oracle failed too: "
                f"{oracle_exc}",
                phase=phase,
                pass_name=spec.name,
                fingerprint=fingerprint,
            ) from oracle_exc
        if isinstance(exc, PassTimeout):
            kind = "timeout-fallback"
            if self.deadline is not None:
                self.deadline.reset()
        else:
            kind = "oracle-fallback"
        self.incidents.record(
            kind,
            pass_name=spec.name,
            phase=phase,
            fingerprint=fingerprint,
            recovered=True,
            error=error_record(exc),
        )
        return result
