"""Dependence-based diagnostics (``repro lint``).

The paper's thesis is that sparse dependence representations make
program analyses cheap enough to run all the time; this package is the
"all the time" part: a diagnostics engine that runs the repository's
analyses -- def-use chains, DFG constant propagation, liveness,
availability/anticipatability, ADCE, copy propagation -- as lint rules
over source programs and reports findings with real source spans.

Layers:

* :mod:`repro.lint.model` -- the :class:`Diagnostic` record, severity
  levels and the stable rule catalog (codes ``R001`` ...).
* :mod:`repro.lint.rules` -- one pipeline pass per rule, registered on a
  clone of the default registry so they share the
  :class:`~repro.pipeline.manager.AnalysisManager` cache and metrics
  without perturbing the default pass list.
* :mod:`repro.lint.engine` -- :class:`LintEngine`: run the rules,
  verify, return a :class:`LintResult`.
* :mod:`repro.lint.oracle` -- the verifier: every ``definite`` finding
  must be confirmed by an independent witness (reference CFG dataflow,
  the Kildall constant propagator, def-use closure) and must survive
  dynamic refutation probes (interpreter runs); unconfirmed findings are
  demoted to ``possible``.
* :mod:`repro.lint.output` -- text, ``repro.lint/1`` JSON, SARIF 2.1.0
  and the baseline suppression file.
* :mod:`repro.lint.sweep` -- the corpus sweep behind ``repro lintsweep``
  (zero-unverified-definite over the equivalence corpus, precision and
  recall over the planted-defect generator).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Diagnostic": ".model",
    "LINTSWEEP_SCHEMA": ".sweep",
    "LINT_SCHEMA": ".output",
    "LintEngine": ".engine",
    "LintResult": ".engine",
    "RULES": ".model",
    "RuleInfo": ".model",
    "SARIF_VERSION": ".output",
    "baseline_fingerprints": ".output",
    "baseline_payload": ".output",
    "lint_payload": ".output",
    "lint_registry": ".engine",
    "render_text": ".output",
    "run_lint_sweep": ".sweep",
    "sarif_payload": ".output",
    "verify_diagnostics": ".oracle",
})
