"""Unit tests for the fuzzing oracles (PR 5).

Every oracle must pass a program against itself (reflexivity), fail on a
genuinely divergent pair, and never raise -- a crashing oracle comes
back as a failing verdict, not an exception.
"""

from __future__ import annotations

import importlib

import pytest

from repro.cfg.builder import build_cfg
from repro.fuzz.harness import trial_context
from repro.fuzz.oracles import (
    ORACLES,
    dfg_digest,
    oracle_constprop,
    oracle_determinism,
    oracle_io,
    oracle_structure,
    oracle_twin,
    run_oracles,
)
from repro.lang.parser import parse_program
from repro.pipeline.passes import twin_pairs

CLEAN = """\
a := p; total := 0; count := 3;
while (count > 0) {
  total := total + a;
  count := count - 1;
}
print total;
"""

# Same shape, different arithmetic: observably different output.
BROKEN = CLEAN.replace("total + a", "total - a")


def _pair(src_a, src_b, mutator="reorder"):
    a = parse_program(src_a)
    graph_a = build_cfg(a)
    graph_b = build_cfg(parse_program(src_b))
    context = trial_context(a, graph_a, 7, mutator, family="random")
    return graph_a, graph_b, context


def test_all_oracles_reflexive():
    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    verdicts = run_oracles(graph_a, graph_b, context)
    assert {v.oracle for v in verdicts} == set(ORACLES)
    assert all(v.ok for v in verdicts), [
        (v.oracle, v.detail) for v in verdicts if not v.ok
    ]


def test_io_oracle_catches_miscompile():
    graph_a, graph_b, context = _pair(CLEAN, BROKEN)
    verdict = oracle_io(graph_a, graph_b, context)
    assert not verdict.ok
    assert "env" in verdict.detail


def test_io_oracle_trap_tolerance_is_mutator_scoped():
    trapping = "x := p / 0; print x;"
    fine = "x := p; print x;"
    # Base traps, mutant does not: under opt-roundtrip that environment
    # is inconclusive (DCE may drop trapping work) -- under any other
    # mutator it is a divergence.
    graph_a, graph_b, context = _pair(trapping, fine, mutator="opt-roundtrip")
    assert oracle_io(graph_a, graph_b, context).ok
    graph_a, graph_b, context = _pair(trapping, fine, mutator="reorder")
    assert not oracle_io(graph_a, graph_b, context).ok


CONSTANT_RICH = """\
a := 2; b := a + 3;
if (p > 0) { c := b * 2; } else { c := 10; }
print c + a;
"""


def test_constprop_oracle_cross_checks_engines():
    graph_a, graph_b, context = _pair(CONSTANT_RICH, CONSTANT_RICH)
    verdict = oracle_constprop(graph_a, graph_b, context)
    assert verdict.ok
    assert verdict.checks > 0


def test_twin_oracle_checks_every_declared_twin():
    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    verdict = oracle_twin(graph_a, graph_b, context)
    assert verdict.ok
    assert verdict.checks == len(twin_pairs(graph_b))


# A different program: any kernel answering for it instead lies.
OTHER = "q := 1; if (q > 0) { q := q + 2; } print q;\n"

# Where each twin's fast side is looked up when the twin runs, as
# ``(module, attribute)`` plus, for Cytron SSA, the one flavour to
# corrupt.  A lie planted there reaches the fuzzer only through the
# declared twin.
DATAFLOW_KERNELS = {
    "liveness": ("repro.pipeline.passes", "live_variables"),
    "reaching": ("repro.pipeline.passes", "reaching_definitions"),
    "available": ("repro.pipeline.passes", "available_expressions"),
    "pavailable": ("repro.pipeline.passes", "partially_available_expressions"),
    "anticipatable": (
        "repro.dataflow.anticipatable", "anticipatable_expressions",
    ),
    "panticipatable": (
        "repro.dataflow.anticipatable", "partially_anticipatable_expressions",
    ),
}
SPARSE_CLIENTS = {
    "defuse": ("repro.pipeline.passes", "build_def_use_chains"),
    "ssa-cytron": ("repro.ssa.cytron", "build_ssa_cytron", False),
    "ssa-cytron-pruned": ("repro.ssa.cytron", "build_ssa_cytron", True),
    "sparse-range": ("repro.sparse.range_analysis", "range_analysis"),
    "sparse-taint": ("repro.sparse.taint", "taint_analysis"),
    "ntscd": ("repro.controldep.ntscd", "ntscd"),
}


def _plant_lie(monkeypatch, module, attr, pruned=None):
    """Make ``module.attr`` answer for :data:`OTHER` instead of the graph
    it is given (for SSA, only in the ``pruned`` flavour)."""
    target = importlib.import_module(module)
    honest = getattr(target, attr)
    other = build_cfg(parse_program(OTHER))

    def lying(graph, *args, **kwargs):
        if pruned is None or kwargs.get("pruned", False) == pruned:
            graph = other
            kwargs.pop("csr", None)
        return honest(graph, *args, **kwargs)

    monkeypatch.setattr(target, attr, lying)


def _assert_twin_oracle_names_each_liar(kernels):
    for name, site in kernels.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            _plant_lie(monkeypatch, *site)
            verdict = oracle_twin(*_pair(CLEAN, CLEAN))
        assert not verdict.ok, name
        assert verdict.detail.startswith(f"{name}:"), (name, verdict.detail)


def test_dataflow_oracle_reference_vs_csr():
    # The reference-vs-CSR dataflow checks are the ``twin`` oracle's: it
    # names whichever bitset kernel lies, and no other oracle fails.
    _assert_twin_oracle_names_each_liar(DATAFLOW_KERNELS)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _plant_lie(monkeypatch, *DATAFLOW_KERNELS["liveness"])
        verdicts = run_oracles(*_pair(CLEAN, CLEAN))
    assert [v.oracle for v in verdicts if not v.ok] == ["twin"]


def test_structure_oracle_flags_shape_change_under_same_shape_expectation():
    graph_a, graph_b, context = _pair(
        "a := p; b := q; print a + b;", "a := p; print a;"
    )
    context = dict(context, expectations=("same_shape",))
    verdict = oracle_structure(graph_a, graph_b, context)
    assert not verdict.ok


def test_sparse_vs_dense_oracle_checks_every_client():
    # Chains, SSA, pruned SSA, range, taint, NTSCD: the ``twin`` oracle
    # holds each sparse client to its dense reference.
    _assert_twin_oracle_names_each_liar(SPARSE_CLIENTS)


def test_determinism_oracle_and_digest_stability():
    graph = build_cfg(parse_program(CLEAN))
    assert dfg_digest(graph) == dfg_digest(graph.copy())
    _, graph_b, context = _pair(CLEAN, CLEAN)
    assert oracle_determinism(graph, graph_b, context).ok


def test_io_oracle_skipped_for_non_executable():
    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    context = dict(context, executable=False)
    verdicts = run_oracles(graph_a, graph_b, context)
    assert "io" not in {v.oracle for v in verdicts}
    assert all(v.ok for v in verdicts)


def test_crashing_oracle_becomes_failing_verdict(monkeypatch):
    import repro.fuzz.oracles as oracles_mod

    def boom(base, mutant, context):
        raise RuntimeError("synthetic oracle crash")

    monkeypatch.setitem(oracles_mod.ORACLES, "io", boom)
    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    verdicts = run_oracles(graph_a, graph_b, context)
    failed = [v for v in verdicts if not v.ok]
    assert [v.oracle for v in failed] == ["io"]
    assert "oracle crashed" in failed[0].detail
