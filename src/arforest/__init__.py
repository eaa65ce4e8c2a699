"""Anti-Ramsey and Turan toolkit for linear forests.

Exact closed-form values, extremal graph and coloring generators, rainbow
subgraph detection, representing-graph machinery, and exhaustive small-n
search oracles that cross-check all of the above.
"""

from .graphs import (Edge, EdgeColoring, Embedding, Graph, GraphFormatError,
                     LinearForest, common_neighborhood, complete_graph,
                     graph6_decode, graph6_encode, lex_edges, norm_edge)
from .formulas import (FormulaResult, OutOfValidityError,
                       UnsupportedForestError, ar_asymptotic_coefficient,
                       ar_linear_forest, ar_matching, ar_path,
                       erdos_gallai_bound, ex_k_p3, ex_linear_forest)
from .constructions import (ConstructionError, InteriorArrangement,
                            build_forest_coloring, build_path_coloring,
                            build_turan_extremal)
from .rainbow import (RecombinationError, RepresentingGraph,
                      contains_subgraph, find_rainbow, recombine_representing,
                      representing_graphs, sample_representing)
from .oracles import (SearchBudget, SearchReport, brute_force_ar,
                      brute_force_ex, verify_witness)

__version__ = "0.1.0"

__all__ = [
    "Edge", "EdgeColoring", "Embedding", "Graph", "GraphFormatError",
    "LinearForest", "common_neighborhood", "complete_graph",
    "graph6_decode", "graph6_encode", "lex_edges", "norm_edge",
    "FormulaResult", "OutOfValidityError", "UnsupportedForestError",
    "ar_asymptotic_coefficient", "ar_linear_forest", "ar_matching",
    "ar_path", "erdos_gallai_bound", "ex_k_p3", "ex_linear_forest",
    "ConstructionError", "InteriorArrangement",
    "build_forest_coloring", "build_path_coloring", "build_turan_extremal",
    "RecombinationError", "RepresentingGraph", "contains_subgraph",
    "find_rainbow", "recombine_representing",
    "representing_graphs", "sample_representing",
    "SearchBudget", "SearchReport", "brute_force_ar", "brute_force_ex",
    "verify_witness",
]
