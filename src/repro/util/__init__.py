"""Small shared utilities: instrumentation counters and ordering helpers."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "WorkCounter": ".counters",
})
