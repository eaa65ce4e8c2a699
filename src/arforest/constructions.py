"""Generators for the extremal graphs and extremal edge-colorings.

Layout convention: hub vertices are always 0..hubSize-1, so two runs with the
same inputs produce identical objects and golden files.  Fresh colors are
allocated hub-internal edges first (lex), then hub-to-interior (lex), then the
interior classes.  Every generated coloring can be detector-verified before it
is returned; by default that happens for hosts small enough to exhaust.
"""
from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterable, Optional

from .formulas import (ar_linear_forest, ar_path, epsilon_for_forest,
                       ex_linear_forest)
from .graphs import (Edge, EdgeColoring, Embedding, Graph, LinearForest,
                     common_neighborhood, lex_edges)
from .rainbow import find_rainbow

VERIFY_LIMIT = 12  # auto-verify colorings up to this host order


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
    if forest.k < 2:
        raise ValueError("need at least two parts")
    if all(t == 3 for t in forest.parts):
        raise ValueError("all parts equal 3 has a different extremal shape")
    hub = forest.half_sum - 1
    if n < max(forest.num_vertices, hub + 2):
        raise ValueError(f"n={n} too small for hub {hub} plus two outside vertices")
    edges: list[Edge] = []
    for u in range(hub):
        for v in range(u + 1, n):
            edges.append((u, v))
    if forest.all_odd:
        edges.append((hub, hub + 1))
    g = Graph.from_edges(n, edges)
    _check_count(g.edge_count, ex_linear_forest(n, forest).value,
                 f"Turan graph for {forest} at n={n}")
    return g


def _hub_coloring(n: int, hub: int, interior_colors: int,
                  arrangement: InteriorArrangement) -> EdgeColoring:
    """All hub-incident edges rainbow, interior on 1 or 2 further colors."""
    color_of: dict[Edge, int] = {}
    fresh = itertools.count()
    for u, v in lex_edges(hub):
        color_of[(u, v)] = next(fresh)
    for u in range(hub):
        for v in range(hub, n):
            color_of[(u, v)] = next(fresh)
    interior = [(u, v) for u in range(hub, n) for v in range(u + 1, n)]
    if not interior:
        raise ValueError("interior has no edges; host too small")
    base = next(fresh)
    if interior_colors == 1:
        for e in interior:
            color_of[e] = base
    elif interior_colors == 2:
        if len(interior) < 2:
            raise ValueError("interior needs at least two edges for two colors")
        second = next(fresh)
        if arrangement is InteriorArrangement.SINGLE_EDGE_SECOND_COLOR:
            special = {interior[0]}
        else:
            # star split: the second color covers all interior edges at the
            # first interior vertex
            pivot = hub
            special = {e for e in interior if pivot in e}
            if len(special) == len(interior):
                special = {interior[0]}
        for e in interior:
            color_of[e] = second if e in special else base
    else:
        raise ValueError("interior takes one or two colors")
    return EdgeColoring(n, color_of)


def _maybe_verify(coloring: EdgeColoring, forest: LinearForest,
                  verify: Optional[bool]) -> None:
    if verify is None:
        verify = coloring.n <= VERIFY_LIMIT
    if not verify:
        return
    witness = find_rainbow(coloring, forest)
    if witness is not None:
        raise ConstructionError(
            f"arrangement admits a rainbow {forest} at n={coloring.n}", witness)


def build_path_coloring(n: int, k: int,
                        verify: Optional[bool] = None) -> EdgeColoring:
    """An extremal rainbow-P_k-free coloring of K_n (k >= 3).

    Hub of floor((k-1)/2)-1 vertices with all incident edges rainbow; the
    interior clique takes one further color for odd k and two for even k.
    A degenerate hub just means an interior-only coloring.
    """
    if k < 3:
        raise ValueError("need k >= 3 (a single edge is always rainbow)")
    if n < k:
        raise ValueError(f"n={n} < k={k}")
    hub = max((k - 1) // 2 - 1, 0)
    coloring = _hub_coloring(n, hub, 1 if k % 2 else 2,
                             InteriorArrangement.SINGLE_EDGE_SECOND_COLOR)
    _check_count(coloring.m, ar_path(n, k).value,
                 f"path coloring for P{k} at n={n}")
    _maybe_verify(coloring, LinearForest((k,)), verify)
    return coloring


def build_forest_coloring(
    n: int,
    forest: LinearForest,
    arrangement: InteriorArrangement = InteriorArrangement.SINGLE_EDGE_SECOND_COLOR,
    verify: Optional[bool] = None,
) -> EdgeColoring:
    """An extremal rainbow-forest-free coloring of K_n.

    Hub of half_sum-2 vertices, all incident edges rainbow; interior takes
    one further color when at least two parts are even, two when exactly one
    is.  Fails loudly with the witness if self-verification finds a rainbow
    copy (that arrangement is then invalid for this forest).
    """
    if forest.k < 2:
        raise ValueError("need at least two parts; use build_path_coloring")
    if n < forest.num_vertices + forest.half_sum:
        raise ValueError(
            f"n={n} < f+s={forest.num_vertices + forest.half_sum}")
    coloring = _hub_coloring(n, forest.half_sum - 2,
                             1 + epsilon_for_forest(forest), arrangement)
    _check_count(coloring.m, ar_linear_forest(n, forest).value,
                 f"forest coloring for {forest} at n={n}")
    _maybe_verify(coloring, forest, verify)
    return coloring


def hub_search(g: Graph, planted: Iterable[int],
               hub_size: int) -> tuple[tuple[int, ...], int]:
    """Best hub_size-subset of the planted set by outside common-neighborhood size.

    Returns (hub, size of common neighborhood outside the planted set); ties
    break lexicographically on the sorted vertex list.
    """
    planted = set(planted)
    pool = sorted(planted)
    for v in pool:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if hub_size > len(pool):
        raise ValueError(f"hub_size={hub_size} exceeds |P|={len(pool)}")
    best: Optional[tuple[int, ...]] = None
    best_val = -1
    for combo in itertools.combinations(pool, hub_size):
        val = len(common_neighborhood(g, combo) - planted)
        if val > best_val:
            best, best_val = combo, val
    return best, best_val
