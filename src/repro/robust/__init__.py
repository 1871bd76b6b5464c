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

from repro.robust.errors import (
    AnalysisError,
    InputError,
    PassTimeout,
    ReproError,
    StaleSnapshotError,
    error_record,
    graph_fingerprint,
)
from repro.robust.fallback import DegradationPolicy
from repro.robust.incidents import INCIDENT_SCHEMA, Incident, IncidentLog
from repro.robust.validate import cfg_violations, check_cfg
from repro.robust.watchdog import (
    Backoff,
    Deadline,
    FakeClock,
    retry_with_backoff,
)

__all__ = [
    "AnalysisError",
    "Backoff",
    "Deadline",
    "DegradationPolicy",
    "FakeClock",
    "INCIDENT_SCHEMA",
    "Incident",
    "IncidentLog",
    "InputError",
    "PassTimeout",
    "ReproError",
    "StaleSnapshotError",
    "cfg_violations",
    "check_cfg",
    "error_record",
    "graph_fingerprint",
    "retry_with_backoff",
]
