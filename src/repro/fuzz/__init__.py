"""Metamorphic differential fuzzing of the analysis stack.

The paper's central results are *equivalence theorems* -- SESE regions
from cycle equivalence (Theorem 1), dependence-preserving region
bypassing, DFG constant propagation agreeing with CFG propagation -- and
equivalence theorems are exactly what a metamorphic fuzzer can check
mechanically at scale:

* :mod:`repro.fuzz.mutators` applies semantics-preserving program
  transforms (plus deliberately semantics-*changing* planted miscompiles
  for recall scoring);
* :mod:`repro.fuzz.oracles` holds every mutant to the theorem-derived
  equivalences (four constant propagators, every declared
  fast/reference twin, interpreter I/O, structural invariants);
* :mod:`repro.fuzz.triage` shrinks and fingerprints any divergence into
  a checked-in reproducer;
* :mod:`repro.fuzz.harness` drives the seeded, byte-deterministic sweep
  behind ``repro fuzz``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FUZZ_SCHEMA": ".harness",
    "FUZZ_REPRO_SCHEMA": ".triage",
    "MUTATORS": ".mutators",
    "ORACLES": ".oracles",
    "Mutation": ".mutators",
    "Verdict": ".oracles",
    "divergence_fingerprint": ".triage",
    "fuzz_suites": ".harness",
    "load_known_fingerprints": ".triage",
    "run_fuzz": ".harness",
    "run_oracles": ".oracles",
    "run_trial": ".harness",
    "triage_divergence": ".triage",
})
