"""Generators for the extremal graphs and extremal edge-colorings.

Layout convention: hub vertices are always 0..hubSize-1, so two runs with the
same inputs produce identical objects and golden files.  Fresh colors are
allocated hub-internal edges first (lex), then hub-to-interior (lex), then the
interior classes.  Each builder asks its formula once, for the inputs it takes,
its parity case and its count.  check_free runs the detector on a built graph
or coloring small enough to exhaust; both coloring builders call it unless
verify=False.  build_turan_extremal does not: its callers check it.
"""
from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional

from .formulas import ar_linear_forest, ar_path, ex_linear_forest
from .graphs import (Edge, EdgeColoring, Embedding, Graph, LinearForest,
                     lex_edges)
from .rainbow import contains_subgraph, find_rainbow

VERIFY_LIMIT = 12  # check_free runs the detector up to this host order


class InteriorArrangement(Enum):
    """Where the extra interior color sits when the interior needs two colors."""

    SINGLE_EDGE_SECOND_COLOR = "single-edge"
    MONOCHROMATIC_INTERIOR = "mono-interior"


class ConstructionError(RuntimeError):
    """Self-verification found a copy of the forest in a supposedly extremal
    object, or the object's size disagrees with its formula."""

    def __init__(self, message: str, witness: Optional[Embedding] = None):
        super().__init__(message)
        self.witness = witness


def _check_count(built: int, formula: int, what: str) -> None:
    if built != formula:
        raise ConstructionError(
            f"{what} has {built}, but the formula gives {formula}")


def build_turan_extremal(n: int, forest: LinearForest) -> Graph:
    """The forest-free graph with the maximum edge count: a universal hub of
    half_sum-1 vertices, plus one extra outside edge iff all parts are odd."""
    result = ex_linear_forest(n, forest)
    hub = forest.half_sum - 1
    edges: list[Edge] = []
    for u in range(hub):
        for v in range(u + 1, n):
            edges.append((u, v))
    if result.epsilon:
        edges.append((hub, hub + 1))
    g = Graph.from_edges(n, edges)
    _check_count(g.edge_count, result.value,
                 f"Turan graph for {forest} at n={n}")
    return g


def _hub_coloring(n: int, hub: int, interior_colors: int,
                  arrangement: InteriorArrangement) -> EdgeColoring:
    """All hub-incident edges rainbow, interior on 1 or 2 further colors."""
    inner = itertools.count()  # hub-internal edges
    cross = itertools.count(hub * (hub - 1) // 2)  # hub-to-interior edges
    base = hub * (hub - 1) // 2 + hub * (n - hub)
    second = base + interior_colors - 1
    # the second color takes the first interior edge or, in a star split,
    # every interior edge at the first interior vertex
    star = arrangement is InteriorArrangement.MONOCHROMATIC_INTERIOR
    return EdgeColoring(n, [
        next(inner) if v < hub else next(cross) if u < hub
        else second if u == hub and (star or v == hub + 1) else base
        for u, v in lex_edges(n)])


def check_free(built: Graph | EdgeColoring, forest: LinearForest) -> bool:
    """Run the detector on a host of at most VERIFY_LIMIT vertices and
    return whether it ran.  Raise ConstructionError with the witness if it
    finds the forest in the graph, or a rainbow forest in the coloring."""
    if built.n > VERIFY_LIMIT:
        return False
    if isinstance(built, Graph):
        witness, found = contains_subgraph(built, forest), "a copy of"
    else:
        witness, found = find_rainbow(built, forest), "a rainbow"
    if witness is not None:
        raise ConstructionError(
            f"construction holds {found} {forest} at n={built.n}", witness)
    return True


def build_path_coloring(n: int, k: int, verify: bool = True) -> EdgeColoring:
    """An extremal rainbow-P_k-free coloring of K_n (k >= 3).

    Hub of floor((k-1)/2)-1 vertices with all incident edges rainbow; the
    interior clique takes one further color for odd k and two for even k.
    A degenerate hub just means an interior-only coloring.
    """
    result = ar_path(n, k)
    coloring = _hub_coloring(n, (k - 1) // 2 - 1, 1 + result.epsilon,
                             InteriorArrangement.SINGLE_EDGE_SECOND_COLOR)
    _check_count(coloring.m, result.value, f"path coloring for P{k} at n={n}")
    if verify:
        check_free(coloring, LinearForest((k,)))
    return coloring


def build_forest_coloring(
    n: int,
    forest: LinearForest,
    arrangement: InteriorArrangement | str = InteriorArrangement.SINGLE_EDGE_SECOND_COLOR,
    verify: bool = True,
) -> EdgeColoring:
    """An extremal rainbow-forest-free coloring of K_n.

    Hub of half_sum-2 vertices, all incident edges rainbow; interior takes
    one further color when at least two parts are even, two when exactly one
    is, placed by the arrangement or its value.  Fails loudly with the
    witness if self-verification finds a rainbow copy (that arrangement is
    then invalid for this forest).
    """
    result = ar_linear_forest(n, forest)
    if n < forest.num_vertices + forest.half_sum:
        raise ValueError(
            f"n={n} < f+s={forest.num_vertices + forest.half_sum}")
    coloring = _hub_coloring(n, forest.half_sum - 2, 1 + result.epsilon,
                             InteriorArrangement(arrangement))
    _check_count(coloring.m, result.value,
                 f"forest coloring for {forest} at n={n}")
    if verify:
        check_free(coloring, forest)
    return coloring
