"""Rainbow and plain linear-forest detection plus representing-graph machinery.

One detector, _search_forest, serves every caller.  The host is a list of
adjacency bitmasks and, for a colored host, a symmetric n x n color matrix,
col[u][v] being the color of edge uv (entries of absent edges are never
read).  The colors a partial embedding uses are an int bitmask, so a
rainbow check is one shift and one and.

The search is one depth-first backtracker, _grow, that places path parts
longest first, one vertex at a time at a part's growing end: a free
neighbour of that end whose edge color is unused.  Two symmetry rules keep
it from duplicating work without losing witnesses: a free part must start
at its smaller endpoint, and equal-length free parts are forced into
increasing order of their smallest host vertex.  A trailing block of
2-vertex parts needs no matching pass of its own: a greedy matching (the
lowest free vertex takes its lowest free neighbour whose color is unused,
part by part) is exactly the first leaf the backtracker reaches, since that
neighbour is above the lowest free vertex and each greedy edge starts above
the last.  Inside backtracking, a greedy edge below the previous equal
part's smallest vertex cannot succeed either, because the branch that
starts there was already searched exhaustively.

A search anchored at edge uv first places a part through uv, once for each
distinct part length t, and then the other parts as above.  That part grows
its left arm from u in one pass, and at each arm length L, before growing
it further, turns once and is finished with every right arm of t - 2 - L
vertices from v.  Every path through uv is one pair of arms, so each is
tried once, and the left arms are not rebuilt for each split.  The anchor
fixes the part's orientation and tells it apart from the parts of its
length, so neither symmetry rule applies to it.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional

from .graphs import (Edge, EdgeColoring, Embedding, Graph, LinearForest,
                     common_neighborhood, norm_edge)


class RecombinationError(ValueError):
    """A cardinality precondition of the recombination routine failed."""


def _search_forest(
    n: int,
    adj,
    parts: tuple[int, ...],
    col: Optional[list[list[int]]] = None,
    anchor: Optional[Edge] = None,
) -> Optional[list[tuple[int, ...]]]:
    """Find a (rainbow, if colored) embedding of the given path parts.

    adj holds host adjacency bitmasks; col, when given, is the host's
    symmetric color matrix and forces all used colors distinct.  anchor,
    when given, must appear among the used edges.  Returns one vertex
    sequence per part.
    """
    out: list[tuple[int, ...]] = []
    if anchor is None:
        found = _grow(n, adj, col, parts, 0, [], parts[0], 0, 0, 0, -1, out)
        return out if found else None
    u, v = anchor
    if not adj[u] >> v & 1:
        return None
    mask = 1 << u | 1 << v
    used = 0 if col is None else 1 << col[u][v]
    for idx, t in enumerate(parts):
        if idx and parts[idx - 1] == t:
            continue  # the same part again
        # the part through uv goes first; its copy goes back to index idx
        if _grow(n, adj, col, (t, *parts[:idx], *parts[idx + 1:]), 0, [v, u],
                 t - 2, 1, mask, used, -1, out):
            out.insert(idx, out.pop(0))
            return out
    return None


def _grow(n: int, adj, col, parts: tuple[int, ...], pi: int, seq: list[int],
          spare: int, arm: int, mask: int, used: int, prev_min: int,
          out: list) -> bool:
    """Add spare more vertices to the end of seq, part pi, then place the
    parts after it.  arm 0 is a free part, whose first vertex is any free
    one.  arm 1 is the left arm of the part through uv: seq is v, u and the
    arm, and at each arm length it is first reversed and finished from v as
    arm 2."""
    if arm == 1:
        seq.reverse()
        found = _grow(n, adj, col, parts, pi, seq, spare, 2, mask, used,
                      prev_min, out)
        seq.reverse()
        if found or not spare:
            return found
    elif not spare:
        if not arm:  # free parts only; the anchored part passes on -1
            if seq[0] > seq[-1]:
                return False
            mn = min(seq)
            if pi and parts[pi - 1] == parts[pi] and mn < prev_min:
                return False
            prev_min = mn
        out.append(tuple(seq))
        if pi + 1 == len(parts) or _grow(n, adj, col, parts, pi + 1, [],
                                         parts[pi + 1], 0, mask, used,
                                         prev_min, out):
            return True
        out.pop()
        return False
    if seq:
        cand = adj[seq[-1]] & ~mask
        row = None if col is None else col[seq[-1]]
    else:
        cand = ((1 << n) - 1) & ~mask
        row = None
    while cand:
        w = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        bit = 0
        if row is not None:
            bit = 1 << row[w]
            if used & bit:
                continue
        seq.append(w)
        if _grow(n, adj, col, parts, pi, seq, spare - 1, arm, mask | 1 << w,
                 used | bit, prev_min, out):
            return True
        seq.pop()
    return False


def find_rainbow(coloring: EdgeColoring,
                 forest: LinearForest) -> Optional[Embedding]:
    """A rainbow embedding of the forest in the colored K_n, or None."""
    # every used edge consumes a distinct color
    if forest.num_vertices > coloring.n or coloring.m < forest.num_edges:
        return None
    n = coloring.n
    full = (1 << n) - 1
    col = coloring.matrix()
    paths = _search_forest(n, [full ^ 1 << v for v in range(n)], forest.parts,
                           col=col)
    if paths is None:
        return None
    colors = tuple(col[a][b] for seq in paths
                   for a, b in itertools.pairwise(seq))
    return Embedding(forest, tuple(paths), colors)


def contains_subgraph(g: Graph, forest: LinearForest) -> Optional[Embedding]:
    """An embedding of the forest in the plain graph, or None."""
    if forest.num_vertices > g.n:
        return None
    paths = _search_forest(g.n, g.adj, forest.parts)
    if paths is None:
        return None
    return Embedding(forest, tuple(paths))


@dataclass(frozen=True)
class RepresentingGraph:
    """One edge chosen from each color class of an edge-colored K_n."""

    n: int
    chosen: tuple[Edge, ...]  # indexed by color id
    graph: Graph

    @classmethod
    def from_choice(cls, coloring: EdgeColoring,
                    choice: tuple[Edge, ...]) -> "RepresentingGraph":
        if len(choice) != coloring.m:
            raise ValueError("need exactly one edge per color")
        for cid, e in enumerate(choice):
            if coloring.color(*e) != cid:
                raise ValueError(f"edge {e} does not carry color {cid}")
        return cls(coloring.n, tuple(choice),
                   Graph.from_edges(coloring.n, choice))


class RepresentingEnumerator:
    """Lazy lexicographic enumeration of representing graphs, up to a cap.

    total_count is the full family size (product of color-class sizes);
    truncated flips to True if iteration stopped at the cap.
    """

    def __init__(self, coloring: EdgeColoring, cap: int):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.coloring = coloring
        self.classes = coloring.color_classes()
        self.total_count = prod(len(cls) for cls in self.classes)
        self.cap = cap
        self.truncated = False

    def __iter__(self) -> Iterator[RepresentingGraph]:
        emitted = 0
        for choice in itertools.product(*self.classes):
            if emitted >= self.cap:
                self.truncated = True
                return
            emitted += 1
            yield RepresentingGraph.from_choice(self.coloring, choice)


def representing_graphs(coloring: EdgeColoring,
                        cap: int) -> RepresentingEnumerator:
    return RepresentingEnumerator(coloring, cap)


def sample_representing(coloring: EdgeColoring, seed: int) -> RepresentingGraph:
    """One edge uniformly per color class; deterministic per (coloring, seed)."""
    rng = random.Random(seed)
    choice = tuple(rng.choice(cls) for cls in coloring.color_classes())
    return RepresentingGraph.from_choice(coloring, choice)


def recombine_representing(
    coloring: EdgeColoring,
    set_u: set[int],
    set_w: set[int],
    s: int,
    rep1: RepresentingGraph,
    rep2: RepresentingGraph,
) -> RepresentingGraph:
    """Merge two representing graphs so both vertex sets get s common neighbors.

    Keeps the star from set_u onto s of its rep1 common neighbors, then picks
    star edges from set_w toward rep2-neighbors whose colors avoid everything
    used between set_u and its witnesses.  The output is a representing graph
    of the same coloring.
    """
    if not set_u:
        raise ValueError("set_u must be nonempty")
    if set_u & set_w:
        raise ValueError("set_u and set_w must be disjoint")
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if not set_w:
        return rep1
    nbhd_u = common_neighborhood(rep1.graph, set_u)
    if len(nbhd_u) < s:
        raise RecombinationError(
            f"|N_rep1(U)|={len(nbhd_u)} < s={s}")
    need_w = s + s * len(set_u)
    nbhd_w = common_neighborhood(rep2.graph, set_w)
    if len(nbhd_w) < need_w:
        raise RecombinationError(
            f"|N_rep2(W)|={len(nbhd_w)} < s+s|U|={need_w}")
    witnesses_u = sorted(nbhd_u)[:s]
    blocked = {coloring.color(x, u) for x in witnesses_u for u in set_u}
    witnesses_w = []
    for y in sorted(nbhd_w):
        if all(coloring.color(y, w) not in blocked for w in set_w):
            witnesses_w.append(y)
            if len(witnesses_w) == s:
                break
    if len(witnesses_w) < s:
        raise RecombinationError(
            f"only {len(witnesses_w)} conflict-free neighbors of W, need {s}")
    chosen = list(rep1.chosen)
    for y in witnesses_w:
        for w in set_w:
            e = norm_edge(y, w)
            chosen[coloring.color(*e)] = e
    return RepresentingGraph.from_choice(coloring, tuple(chosen))
