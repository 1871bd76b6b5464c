"""Classic CFG dataflow: the framework the paper's algorithms improve on.

Facts live on *edges* (the paper's convention -- "one vector is associated
with each point in the control flow graph") and every node is a transfer
function from its in-edge facts to its out-edge facts (forward) or the
reverse (backward).  Because the CFG is normalized, joins happen only at
``MERGE`` nodes and splits only at ``SWITCH`` nodes, so a problem is
specified by one transfer function over node kinds -- no separate
meet/join plumbing.

The worklist solver counts node visits and lattice operations through a
:class:`~repro.util.counters.WorkCounter`; the O(EV^2)-vs-O(EV) claims of
Section 4 are measured with these counters as well as wall time.

The four separable gen/kill analyses (liveness, reaching definitions,
available and anticipatable expressions) are solved on the bitset fast
path of :mod:`repro.dataflow.bitsets`; each keeps a ``*_reference``
twin on the generic frozenset solver as the differential-testing
oracle.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BOTTOM": ".lattice",
    "ConstValue": ".lattice",
    "TOP": ".lattice",
    "anticipatable_expressions": ".anticipatable",
    "anticipatable_expressions_reference": ".anticipatable",
    "available_expressions": ".available",
    "available_expressions_reference": ".available",
    "eval_abstract": ".lattice",
    "join_const": ".lattice",
    "live_variables": ".liveness",
    "live_variables_reference": ".liveness",
    "partially_anticipatable_expressions": ".anticipatable",
    "partially_anticipatable_expressions_reference": ".anticipatable",
    "partially_available_expressions": ".available",
    "partially_available_expressions_reference": ".available",
    "reaching_definitions": ".reaching",
    "reaching_definitions_reference": ".reaching",
    "solve_dataflow": ".solver",
    "truthiness": ".lattice",
})
