"""The fault-tolerant analysis runtime.

Everything the surrounding system needs to fail *well*:

* :mod:`repro.robust.errors` -- the error taxonomy (:class:`ReproError`
  and friends) plus stable graph fingerprints for diagnostics;
* :mod:`repro.robust.validate` -- the CFG well-formedness validator that
  turns malformed inputs into one precise :class:`InputError`;
* :mod:`repro.robust.incidents` -- structured ``repro.incident/1``
  records of every degradation the runtime performed;
* :mod:`repro.robust.watchdog` -- deadlines, bounded retry with backoff,
  and the injectable clocks that keep all of it testable;
* :mod:`repro.robust.fallback` -- the degradation policy: when a fast
  kernel fails (or fails a cross-check), fall back to the oracle its
  pass declares and keep going;
* :mod:`repro.robust.minimize` -- the delta-debugging minimizer that
  shrinks a failing program into a checked-in repro artifact;
* :mod:`repro.robust.pool` -- the hardened process supervisor behind
  ``repro batch`` (per-program watchdog, crash isolation, replenishment);
* :mod:`repro.robust.chaos` -- the deterministic fault-injection harness
  behind ``repro chaos``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AnalysisError": ".errors",
    "Backoff": ".watchdog",
    "Deadline": ".watchdog",
    "DegradationPolicy": ".fallback",
    "FakeClock": ".watchdog",
    "INCIDENT_SCHEMA": ".incidents",
    "Incident": ".incidents",
    "IncidentLog": ".incidents",
    "InputError": ".errors",
    "PassTimeout": ".errors",
    "ReproError": ".errors",
    "StaleSnapshotError": ".errors",
    "cfg_violations": ".validate",
    "check_cfg": ".validate",
    "error_record": ".errors",
    "graph_fingerprint": ".errors",
    "retry_with_backoff": ".watchdog",
})
