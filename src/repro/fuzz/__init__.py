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

from repro.fuzz.harness import FUZZ_SCHEMA, fuzz_suites, run_fuzz, run_trial
from repro.fuzz.mutators import MUTATORS, Mutation
from repro.fuzz.oracles import ORACLES, Verdict, run_oracles
from repro.fuzz.triage import (
    FUZZ_REPRO_SCHEMA,
    divergence_fingerprint,
    load_known_fingerprints,
    triage_divergence,
)

__all__ = [
    "FUZZ_SCHEMA",
    "FUZZ_REPRO_SCHEMA",
    "MUTATORS",
    "ORACLES",
    "Mutation",
    "Verdict",
    "divergence_fingerprint",
    "fuzz_suites",
    "load_known_fingerprints",
    "run_fuzz",
    "run_oracles",
    "run_trial",
    "triage_divergence",
]
