"""Independent brute-force references used to cross-check the package.

Everything here deliberately avoids the package's search machinery: set
partitions come from a plain block-building recursion, and rainbow / subgraph
detection enumerates vertex permutations outright.  Slow, but trustworthy at
n <= 5 (naive_ex still finishes at n = 6).  Beyond that range, single paths
are checked against the Faudree-Schelp closed form.
"""
from itertools import combinations, permutations
from math import comb

from arforest import EdgeColoring, LinearForest, lex_edges


def set_partitions(items):
    """All partitions of a list into unordered nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def naive_has_rainbow(coloring: EdgeColoring, forest: LinearForest) -> bool:
    """Permutation-enumeration rainbow detection on a colored K_n."""
    n = coloring.n
    f = forest.num_vertices
    if f > n:
        return False
    for perm in permutations(range(n), f):
        colors = []
        pos = 0
        for t in forest.parts:
            seq = perm[pos:pos + t]
            pos += t
            for a, b in zip(seq, seq[1:]):
                colors.append(coloring.color(a, b))
        if len(set(colors)) == len(colors):
            return True
    return False


def naive_has_anchored_rainbow(n: int, color_of: dict, forest: LinearForest,
                               anchor=None) -> bool:
    """Permutation-enumeration rainbow detection on a partially colored K_n.

    Only the edges in color_of exist; with anchor, the copy must use the
    anchor edge.
    """
    f = forest.num_vertices
    if f > n:
        return False
    for perm in permutations(range(n), f):
        used = []
        pos = 0
        for t in forest.parts:
            seq = perm[pos:pos + t]
            pos += t
            used.extend((min(a, b), max(a, b)) for a, b in zip(seq, seq[1:]))
        colors = [color_of.get(e) for e in used]
        if ((anchor is None or anchor in used) and None not in colors
                and len(set(colors)) == len(colors)):
            return True
    return False


def naive_contains(n: int, edge_set: set, forest: LinearForest,
                   anchor=None) -> bool:
    """Permutation-enumeration containment in the graph with the given edges;
    with anchor, the copy must use the anchor edge."""
    f = forest.num_vertices
    if f > n:
        return False
    for perm in permutations(range(n), f):
        used = []
        pos = 0
        for t in forest.parts:
            seq = perm[pos:pos + t]
            pos += t
            used.extend((min(a, b), max(a, b)) for a, b in zip(seq, seq[1:]))
        if (all(e in edge_set for e in used)
                and (anchor is None or anchor in used)):
            return True
    return False


def naive_ar(n: int, forest: LinearForest) -> int:
    """Max colors over all edge partitions of K_n with no rainbow forest."""
    best = 0
    for part in set_partitions(list(range(n * (n - 1) // 2))):
        if len(part) <= best:
            continue  # cannot beat the best found
        colors = [0] * (n * (n - 1) // 2)
        for cid, block in enumerate(part):
            for i in block:
                colors[i] = cid
        coloring = EdgeColoring(n, colors).canonical()
        if not naive_has_rainbow(coloring, forest):
            best = len(part)
    return best


def naive_ex(n: int, forest: LinearForest) -> int:
    """Max edges over all forest-free graphs on n vertices (n <= 6)."""
    edges = lex_edges(n)
    best = 0
    for r in range(len(edges), -1, -1):
        if r <= best:
            break
        for chosen in combinations(edges, r):
            if not naive_contains(n, set(chosen), forest):
                best = r
                break
    return best


def faudree_schelp(n: int, k: int) -> int:
    """ex(n, P_k) for every n >= 1 and k >= 2 (Faudree and Schelp, 1975).

    With n = q(k-1) + r and 0 <= r < k-1, disjoint copies of K_{k-1} plus a
    K_r are extremal: q*C(k-1, 2) + C(r, 2) edges.
    """
    q, r = divmod(n, k - 1)
    return q * comb(k - 1, 2) + comb(r, 2)
