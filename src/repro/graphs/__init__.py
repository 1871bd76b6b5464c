"""Generic graph algorithms over hashable node ids.

These are the standard compiler-textbook substrates the paper assumes:
depth-first orders, dominance/postdominance (extended to *edges*, as
Definition 2 of the paper requires), dominance frontiers, and natural
loops.  Everything is generic over a successor function so the same code
runs on CFGs, reversed CFGs, and the edge-split graphs used for edge
dominance.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DFSResult": ".dfs",
    "DominatorTree": ".dominance",
    "back_edges": ".loops",
    "cfg_dominators": ".dominance",
    "cfg_dominators_lt": ".lengauer_tarjan",
    "cfg_postdominators": ".dominance",
    "cfg_postdominators_lt": ".lengauer_tarjan",
    "depth_first_search": ".dfs",
    "dominance_frontiers": ".frontier",
    "dominator_tree": ".dominance",
    "lengauer_tarjan": ".lengauer_tarjan",
    "edge_dominators": ".dominance",
    "edge_postdominators": ".dominance",
    "natural_loops": ".loops",
    "reverse_postorder": ".dfs",
})
