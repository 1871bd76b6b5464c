"""Def-use chains (Definitions 3-4) and chain-based constant propagation.

This is the first of the paper's three compared representations: precise
for forward propagation along chains, quadratic in the worst case
(O(E^2 V), Reif & Tarjan), unusable for backward problems, and blind to
dead branches (it finds *all-paths* constants only -- Section 4's
motivating deficiency)."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DefUseChains": ".chains",
    "DefUseConstants": ".constprop",
    "build_def_use_chains": ".chains",
    "build_def_use_chains_reference": ".chains",
    "defuse_constant_propagation": ".constprop",
})
