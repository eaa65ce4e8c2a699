"""Input generation and answer checks that do not use the package's search code.

The random-coloring generator follows tests/test_rainbow.random_coloring
step for step and relabels colors itself, so the package receives a finished
assignment.  The embedding checks recompute disjointness, path orders, edge
existence and color distinctness from the inputs alone.
"""
from __future__ import annotations

import random
from math import comb
from typing import Optional


def edge_index(n: int, u: int, v: int) -> int:
    """Position of edge uv (u != v) in the lexicographic edge order of K_n."""
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def random_assignment(rng: random.Random, n: int) -> list[int]:
    """A surjective coloring of K_n's lex-ordered edges, colors canonical.

    Same draws as tests/test_rainbow.random_coloring: color count uniform in
    1..C(n,2), every color used once, the rest uniform, then shuffled; colors
    are then renamed by first occurrence.
    """
    ne = n * (n - 1) // 2
    m = rng.randint(1, ne)
    assign = list(range(m)) + [rng.randrange(m) for _ in range(ne - m)]
    rng.shuffle(assign)
    relabel: dict[int, int] = {}
    return [relabel.setdefault(c, len(relabel)) for c in assign]


def faudree_schelp(n: int, k: int) -> int:
    """ex(n, P_k) = floor(n/(k-1)) C(k-1, 2) + C(n mod (k-1), 2), k >= 2."""
    q, r = divmod(n, k - 1)
    return q * comb(k - 1, 2) + comb(r, 2)


def check_paths(n: int, parts: tuple[int, ...], paths) -> Optional[str]:
    """None if the paths are vertex-disjoint with the forest's orders."""
    if len(paths) != len(parts):
        return f"{len(paths)} paths for {len(parts)} parts"
    seen: set[int] = set()
    for t, seq in zip(parts, paths):
        if len(seq) != t:
            return f"path {tuple(seq)} has order {len(seq)}, expected {t}"
        for v in seq:
            if not 0 <= v < n or v in seen:
                return f"vertex {v} out of range or reused"
            seen.add(v)
    return None


def check_rainbow(n: int, assign: list[int], parts: tuple[int, ...],
                  paths) -> Optional[str]:
    """None if the paths form a rainbow copy of the forest in the coloring."""
    bad = check_paths(n, parts, paths)
    if bad:
        return bad
    colors = [assign[edge_index(n, a, b)]
              for seq in paths for a, b in zip(seq, seq[1:])]
    if len(set(colors)) != len(colors):
        return f"colors {colors} repeat"
    return None


def check_in_graph(n: int, adj, parts: tuple[int, ...],
                   paths) -> Optional[str]:
    """None if the paths form a copy of the forest in the graph."""
    bad = check_paths(n, parts, paths)
    if bad:
        return bad
    for seq in paths:
        for a, b in zip(seq, seq[1:]):
            if not adj[a] >> b & 1:
                return f"edge ({a},{b}) missing"
    return None


def common_neighbors(adj, vertices) -> int:
    """Number of vertices outside the set adjacent to all of it."""
    mask = ~0
    for v in vertices:
        mask &= adj[v]
    for v in vertices:
        mask &= ~(1 << v)
    return (mask & ((1 << len(adj)) - 1)).bit_count()
