"""Workload generators and the paper's worked examples.

* :mod:`repro.workloads.generators` -- seeded random structured programs,
  inline-expansion-shaped programs (the source of *possible-paths*
  constants, Section 4), and irreducible goto graphs.
* :mod:`repro.workloads.ladders` -- parametric families exhibiting the
  asymptotic separations the paper claims (def-use chain blowup, nested
  loop towers, wide variable sweeps).
* :mod:`repro.workloads.suites` -- the exact programs of Figures 1-3, 6, 7
  and the Section 1 staged-redundancy example, reconstructed from the text.

These families are the substrate of every driver in the repo: the
equivalence corpus (``repro.perf.batch``), the fuzz schedules, the lint
sweep, and the serve daemon's seeded load generator
(``repro.serve.loadgen``), which pretty-prints the corpus so the daemon
and its one-shot twin analyze byte-identical source.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "PLANTED_RULES": ".lint_defects",
    "PlantedDefect": ".lint_defects",
    "array_program": ".generators",
    "defuse_worst_case": ".ladders",
    "diamond_chain": ".ladders",
    "figure1": ".suites",
    "figure2": ".suites",
    "figure3a": ".suites",
    "figure3b": ".suites",
    "figure6": ".suites",
    "figure7": ".suites",
    "inline_expansion_program": ".generators",
    "irreducible_program": ".generators",
    "lint_defect_case": ".lint_defects",
    "lint_defect_program": ".lint_defects",
    "loop_nest": ".ladders",
    "random_expr": ".generators",
    "random_program": ".generators",
    "section1_example": ".suites",
    "sparse_use_program": ".ladders",
    "wide_variable_program": ".ladders",
})
