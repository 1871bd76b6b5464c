"""Analysis as a service: daemon, client, content-addressed result cache.

One-shot ``repro`` invocations recompute every pass from scratch; this
package turns the pipeline into something that can serve interactive
lint-on-save and batch traffic:

* :mod:`repro.serve.cache` -- a content-addressed, cross-run store:
  exported pass results keyed ``(source_sha256, pass_name,
  engine_version)``, written atomically so concurrent writers (several
  daemons, a CI fleet) share one directory safely;
* :mod:`repro.serve.ops` -- the request vocabulary (``analyze``,
  ``constprop``, ``lint``, ``batch-sarif``, ``edit``, ...) as pure
  payload builders used by *both* the daemon and the one-shot CLI, so a
  daemon answer is byte-identical to its one-shot equivalent;
* :mod:`repro.serve.server` -- the ``repro.serve/1`` line-delimited JSON
  protocol over a Unix or localhost TCP socket, backed by an LRU of warm
  :class:`~repro.pipeline.manager.AnalysisManager` instances and
  long-lived :class:`~repro.regions.edits.EditSession` documents;
* :mod:`repro.serve.client` -- the socket client behind ``repro request``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ENGINE_VERSION": ".cache",
    "ReproServer": ".server",
    "ResultCache": ".cache",
    "ServeClient": ".client",
    "cache_key_bytes": ".cache",
    "run_op": ".ops",
    "source_sha": ".cache",
})
