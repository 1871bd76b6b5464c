"""The parameterized sparse engine vs its dense reference twins (PR 9).

Three layers of guarantee:

* **corpus equivalence** -- over the full 204-program equivalence
  population, every client of the live-range-splitting engine (SSA
  construction, def-use chains, interval ranges, taint, NTSCD) agrees
  with its declared dense reference twin (see ``twin_corpus.py``); for
  SSA the *work counters* must match tick for tick, because the sparse
  engine claims to be a drop-in refactor of the historical Cytron
  construction, and the def-use projection comes out canonically sorted;
* **cross-construction agreement** -- the engine's pruned SSA places
  phis exactly where the independent DFG-derived construction does;
* **lattice properties** -- hypothesis-checked soundness and
  monotonicity of the interval transfer functions, and monotonicity of
  taint in its source set (more sources can only taint more uses).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.builder import build_cfg
from repro.lang.interp import apply_binop
from repro.perf.batch import resolve_family
from repro.pipeline.passes import KERNEL_TWINS, default_registry
from repro.sparse import interval as iv
from repro.sparse.range_analysis import range_analysis
from repro.sparse.taint import taint_analysis
from repro.ssa.cytron import build_ssa_cytron
from repro.ssa.from_dfg import build_ssa_from_dfg
from repro.util.counters import WorkCounter

from twin_corpus import TWIN_GROUPS, assert_twins_agree, corpus_graphs


def test_ssa_construction_is_tick_identical_across_corpus():
    twins = {name: rest for name, *rest in KERNEL_TWINS}
    for label, graph in corpus_graphs():
        for name in TWIN_GROUPS["ssa"]:
            fast_side, reference_side, equal = twins[name]
            fast_counter, ref_counter = WorkCounter(), WorkCounter()
            fast = fast_side(graph, {}, fast_counter)
            ref = reference_side(graph, {}, ref_counter)
            assert equal(fast, ref), (label, name)
            assert fast_counter.snapshot() == ref_counter.snapshot(), (
                label, name,
            )
            fast.validate()


def test_defuse_chains_equal_reference_across_corpus():
    for label, graph in corpus_graphs():
        chains = assert_twins_agree(label, graph, "defuse")["defuse"]
        # The sparse projection comes out canonically sorted.
        keys = [(c.use_node, c.var, c.def_node) for c in chains.chains]
        assert keys == sorted(keys), label


def test_range_taint_ntscd_equal_reference_across_corpus():
    for label, graph in corpus_graphs():
        assert_twins_agree(label, graph, "range-taint-ntscd")


def test_engine_pruned_ssa_places_phis_like_dfg_construction():
    # Two independent constructions of pruned SSA -- the splitting
    # engine (dominance frontiers + liveness pruning) and the
    # DFG-derived overlay -- must agree on where phis live.
    for label, graph in list(corpus_graphs())[:60]:
        engine = build_ssa_cytron(graph, pruned=True)
        derived = build_ssa_from_dfg(graph)
        assert engine.phi_placement() == derived.phi_placement(), label


# -- lattice properties -------------------------------------------------------

ARITH_OPS = ("+", "-", "*", "/", "%")
ALL_OPS = ARITH_OPS + ("==", "!=", "<", "<=", ">", ">=", "&&", "||")

finite_bound = st.integers(min_value=-(10 ** 7), max_value=10 ** 7)


@st.composite
def intervals(draw):
    lo = draw(finite_bound)
    hi = draw(finite_bound)
    if lo > hi:
        lo, hi = hi, lo
    return iv.Interval(lo, hi)


def leq(a, b) -> bool:
    """The lattice order: a below b iff joining adds nothing to b."""
    return iv.join(a, b) == b


@given(
    op=st.sampled_from(ALL_OPS),
    a=intervals(),
    b=intervals(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_binop_transfer_is_sound(op, a, b, data):
    x = data.draw(st.integers(min_value=a.lo, max_value=a.hi))
    y = data.draw(st.integers(min_value=b.lo, max_value=b.hi))
    if op in ("/", "%") and y == 0:
        return  # the concrete operator traps; any abstract result is sound
    result = iv.binop(op, a, b)
    assert result.contains(apply_binop(op, x, y)), (op, a, b, x, y)


@given(
    op=st.sampled_from(ALL_OPS),
    a=intervals(),
    b=intervals(),
    wider_a=intervals(),
    wider_b=intervals(),
)
@settings(max_examples=300, deadline=None)
def test_binop_transfer_is_monotone(op, a, b, wider_a, wider_b):
    a2 = iv.join(a, wider_a)
    b2 = iv.join(b, wider_b)
    assert leq(iv.binop(op, a, b), iv.binop(op, a2, b2)), (op, a, b, a2, b2)


@given(op=st.sampled_from(("-", "!")), a=intervals(), wider=intervals())
@settings(max_examples=200, deadline=None)
def test_unop_transfer_is_monotone_and_sound(op, a, wider):
    a2 = iv.join(a, wider)
    assert leq(iv.unop(op, a), iv.unop(op, a2))
    concrete = (lambda v: -v) if op == "-" else (lambda v: int(not v))
    for probe in (a.lo, a.hi, 0 if a.contains(0) else a.lo):
        if a.contains(probe):
            assert iv.unop(op, a).contains(concrete(probe))


@given(seed=st.integers(min_value=0, max_value=40), data=st.data())
@settings(max_examples=40, deadline=None)
def test_taint_is_monotone_in_its_source_set(seed, data):
    graph = build_cfg(resolve_family("random")(seed, 18, 4))
    nodes = sorted(graph.nodes)
    larger = data.draw(st.sets(st.sampled_from(nodes)))
    smaller = data.draw(st.sets(st.sampled_from(sorted(larger)))
                        if larger else st.just(set()))
    small = taint_analysis(graph, source_nodes=smaller)
    large = taint_analysis(graph, source_nodes=larger)
    assert small.sources <= large.sources
    for key, tainted in small.use_taint.items():
        if tainted:
            assert large.use_taint[key], key


@given(seed=st.integers(min_value=0, max_value=60))
@settings(max_examples=30, deadline=None)
def test_range_use_values_are_below_top_and_agree_with_reference(seed):
    graph = build_cfg(resolve_family("random")(seed, 18, 4))
    twin = default_registry().spec("sparse-range")
    sparse = range_analysis(graph)
    assert twin.equal(sparse, twin.oracle(graph, {}, None))
    for value in sparse.use_values.values():
        assert leq(value, iv.TOP)
