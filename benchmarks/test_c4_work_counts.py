"""Experiment C4 (Section 4/6): work proportional to relevant dependences.

Paper claim: the DFG "avoids propagating information through
single-entry single-exit regions in which there are no assignments to
the relevant variable" and performs "work proportional to the number of
variable references at each assignment statement".

On the sparse-use family (R disjoint regions, each with its own little
variable neighbourhood) the vector algorithm pays for all R*k variables
at every node -- work grows ~quadratically in R -- while DFG work grows
~linearly, because no dependence crosses between regions.

The sparse range and taint clients make the same argument for sparse
evaluation in general (Tavares et al., arXiv:1403.5952): their declared
dense references visit every (edge, variable) pair, while the sparse
engine visits only the sites whose input names change.
"""

from repro.cfg.builder import build_cfg
from repro.core.constprop import dfg_constant_propagation
from repro.opt.cfg_constprop import cfg_constant_propagation
from repro.pipeline.passes import default_registry
from repro.sparse.range_analysis import range_analysis
from repro.sparse.taint import taint_analysis
from repro.util.counters import WorkCounter
from repro.workloads.ladders import sparse_use_program

R_SIZES = (8, 16, 32)
GRAPHS = {n: build_cfg(sparse_use_program(n)) for n in R_SIZES}


def work_pair(n):
    cfg_counter, dfg_counter = WorkCounter(), WorkCounter()
    cfg_constant_propagation(GRAPHS[n], cfg_counter)
    dfg_constant_propagation(GRAPHS[n], counter=dfg_counter)
    return cfg_counter["vector_entries"], dfg_counter.total()


def client_visit_pair(n):
    """Visits of the range + taint clients: dense references vs sparse."""
    registry = default_registry()
    dense, sparse = WorkCounter(), WorkCounter()
    for name in ("sparse-range", "sparse-taint"):
        registry.spec(name).oracle(GRAPHS[n], {}, dense)
    range_analysis(GRAPHS[n], counter=sparse)
    taint_analysis(GRAPHS[n], counter=sparse)
    return (
        dense["dense_visits"] + dense["dense_taint_visits"],
        sparse["sparse_visits"],
    )


#: (dense, sparse) work of each pair, by label.
PAIRS = {
    "constant propagation (CFG / DFG)": work_pair,
    "range + taint visits (dense / sparse)": client_visit_pair,
}


def test_shape_sparse_work(benchmark):
    for label, pair in PAIRS.items():
        rows = {n: pair(n) for n in R_SIZES}
        print(f"\nC4 work, {label}:")
        for n in R_SIZES:
            print(f"  R={n:3d}: {rows[n][0]:8d} / {rows[n][1]:6d}")
            assert rows[n][1] < rows[n][0], (label, n, rows[n])
        for a, b in zip(R_SIZES, R_SIZES[1:]):
            dense_ratio = rows[b][0] / rows[a][0]
            sparse_ratio = rows[b][1] / rows[a][1]
            assert dense_ratio > 3.0, (
                f"{label}: dense work should ~quadruple: {dense_ratio}"
            )
            assert sparse_ratio < 3.0, (
                f"{label}: sparse work should ~double: {sparse_ratio}"
            )
    benchmark(work_pair, R_SIZES[-1])


def test_time_cfg_on_sparse(benchmark):
    benchmark(cfg_constant_propagation, GRAPHS[R_SIZES[-1]])


def test_time_dfg_on_sparse(benchmark):
    benchmark(dfg_constant_propagation, GRAPHS[R_SIZES[-1]])
