"""Exact small-n ground truth for anti-Ramsey and Turan values.

brute_force_ar enumerates edge-colorings of K_n as restricted-growth strings
over the lex edge order, which kills color-relabeling symmetry exactly.  A
branch is abandoned as soon as its colored prefix contains a rainbow copy
(later assignments can never un-rainbow it) or its block count plus remaining
edges cannot beat the incumbent.

brute_force_ex runs include/exclude branch-and-bound over the lex edge
sequence, seeded with a detector-verified candidate extremal graph so the
bound bites from the first node.  In that order the edges (u, v), v > u, form
row u of the adjacency matrix, and a lex-leader row rule breaks the symmetry
of relabelling vertices.  At the start of row u, two vertices a < b, both
> u, are twins when they have the same neighbours among 0..u-1; row u must be
nonincreasing over each twin class, so (u, b) may be included only if (u, a)
is, where a is b's nearest earlier twin.  No edge count is lost.  Suppose a
graph obeys the rule in rows 0..u-1, and let p permute the vertices > u
within their twin classes.  Then p maps each edge (r, x) with r < u to
(r, p(x)), and x and p(x) agree on all neighbours below u, so every row
before u (and every twin class used there) is left unchanged and keeps its
constraint; choosing the p that sorts row u gives an isomorphic graph that
obeys the rule through row u.  By induction on u every graph has an
isomorphic copy, with the same edge count and the same forest-freeness, that
obeys the rule in every row.  The sequential search and the parallel prefix
expansion apply the rule through the same test, so the parallel frontier
holds only prefixes the sequential search would visit.

Both searches are budgeted; running out of budget returns the best value
found so far (a valid lower bound) with exhausted=False.  With parallelism
greater than one, the top levels of the tree are expanded into independent
tasks; the incumbent bound is merged monotonically as tasks finish, so late
tasks start with a tighter bound (stale bounds only weaken pruning, never
correctness).
"""
from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional, Union

from .formulas import erdos_gallai_bound
from .graphs import (Edge, EdgeColoring, Graph, LinearForest, complete_graph,
                     lex_edges)
from .rainbow import contains_subgraph, find_rainbow, find_rainbow_partial

PARALLEL_EXPAND_LEVELS = 4


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 50_000_000
    max_millis: int = 300_000
    parallelism: int = 1

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_millis < 1 or self.parallelism < 1:
            raise ValueError("budget fields must be positive")


@dataclass
class SearchReport:
    value: int
    witness: Union[EdgeColoring, Graph, None]
    exhausted: bool
    nodes_visited: int = 0
    pruned_by_rainbow: int = 0
    pruned_by_bound: int = 0
    elapsed_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "exhausted": self.exhausted,
            "stats": {
                "nodes": self.nodes_visited,
                "pruned_by_rainbow": self.pruned_by_rainbow,
                "pruned_by_bound": self.pruned_by_bound,
                "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
            },
        }


class _BudgetExceeded(Exception):
    pass


def _ar_dfs(n: int, parts: tuple[int, ...], prefix: tuple[int, ...],
            init_best: int, max_nodes: int, deadline: float,
            collect_leaves: Optional[list] = None) -> dict:
    """Explore all restricted-growth extensions of the given color prefix."""
    edges = lex_edges(n)
    me = len(edges)
    forest = LinearForest(parts)
    assignment = list(prefix) + [0] * (me - len(prefix))
    color_map: dict[Edge, int] = {edges[i]: prefix[i]
                                  for i in range(len(prefix))}
    start_blocks = (max(prefix) + 1) if prefix else 0
    stats = {"nodes": 0, "pruned_rainbow": 0, "pruned_bound": 0}
    best = init_best
    best_assignment: Optional[list[int]] = None
    exhausted = True

    def rec(i: int, blocks: int) -> None:
        nonlocal best, best_assignment
        stats["nodes"] += 1
        if stats["nodes"] > max_nodes:
            raise _BudgetExceeded
        if stats["nodes"] % 4096 == 0 and time.monotonic() > deadline:
            raise _BudgetExceeded
        if i == me:
            if collect_leaves is not None:
                collect_leaves.append(tuple(assignment))
            if blocks > best:
                best = blocks
                best_assignment = assignment.copy()
            return
        if blocks + (me - i) <= best:
            stats["pruned_bound"] += 1
            return
        e = edges[i]
        for c in range(blocks, -1, -1):  # fresh color first
            assignment[i] = c
            color_map[e] = c
            if find_rainbow_partial(n, color_map, forest, anchor=e) is not None:
                stats["pruned_rainbow"] += 1
            else:
                rec(i + 1, blocks + (1 if c == blocks else 0))
            del color_map[e]

    try:
        rec(len(prefix), start_blocks)
    except _BudgetExceeded:
        exhausted = False
    return {"best": best, "assignment": best_assignment,
            "exhausted": exhausted, **stats}


def _expand_ar_prefixes(n: int, forest: LinearForest,
                        levels: int) -> tuple[list[tuple[int, ...]], dict]:
    """Feasible restricted-growth prefixes of the first few edges."""
    edges = lex_edges(n)
    levels = min(levels, len(edges))
    stats = {"nodes": 0, "pruned_rainbow": 0}
    frontier: list[tuple[int, ...]] = [()]
    for i in range(levels):
        nxt: list[tuple[int, ...]] = []
        for prefix in frontier:
            blocks = (max(prefix) + 1) if prefix else 0
            color_map = {edges[j]: prefix[j] for j in range(i)}
            for c in range(blocks, -1, -1):
                stats["nodes"] += 1
                color_map[edges[i]] = c
                if find_rainbow_partial(n, color_map, forest,
                                        anchor=edges[i]) is not None:
                    stats["pruned_rainbow"] += 1
                else:
                    nxt.append(prefix + (c,))
            del color_map[edges[i]]
        frontier = nxt
    return frontier, stats


def brute_force_ar(n: int, forest: LinearForest,
                   budget: Optional[SearchBudget] = None,
                   collect_leaves: Optional[list] = None) -> SearchReport:
    """Exact max color count of a rainbow-forest-free coloring of K_n."""
    if forest.num_vertices > n:
        raise ValueError(
            f"forest needs {forest.num_vertices} vertices but n={n}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.max_millis / 1000.0
    if budget.parallelism == 1:
        res = _ar_dfs(n, forest.parts, (), 0, budget.max_nodes, deadline,
                      collect_leaves)
        merged = [res]
        extra_nodes = 0
        extra_rainbow = 0
    else:
        prefixes, exp_stats = _expand_ar_prefixes(n, forest,
                                                  PARALLEL_EXPAND_LEVELS)
        extra_nodes = exp_stats["nodes"]
        extra_rainbow = exp_stats["pruned_rainbow"]
        merged = _run_parallel(
            _ar_dfs,
            [(n, forest.parts, p) for p in prefixes],
            init_best=0,
            max_nodes=max(1, budget.max_nodes - extra_nodes),
            deadline=deadline,
            workers=budget.parallelism)
    best = 0
    best_assignment = None
    exhausted = True
    nodes = extra_nodes
    pr = extra_rainbow
    pb = 0
    for res in merged:
        nodes += res["nodes"]
        pr += res["pruned_rainbow"]
        pb += res["pruned_bound"]
        exhausted = exhausted and res["exhausted"]
        if res["best"] > best and res["assignment"] is not None:
            best = res["best"]
            best_assignment = res["assignment"]
    witness = (EdgeColoring.from_assignment(n, best_assignment)
               if best_assignment is not None else None)
    return SearchReport(best, witness, exhausted, nodes, pr, pb,
                        time.monotonic() - start)


def _run_parallel(fn, task_args: list[tuple], init_best: int, max_nodes: int,
                  deadline: float, workers: int) -> list[dict]:
    """Dispatch tasks to worker processes, threading the incumbent through.

    Each task is submitted with the best value merged so far, so later tasks
    prune harder; a stale bound is safe, only less effective.
    """
    results: list[dict] = []
    best = init_best
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = set()
        queue = list(task_args)
        queue.reverse()

        def submit_one():
            if queue:
                args = queue.pop()
                pending.add(pool.submit(fn, *args, best, max_nodes, deadline))

        for _ in range(2 * workers):
            submit_one()
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                res = fut.result()
                results.append(res)
                if res["best"] > best and res["assignment"] is not None:
                    best = res["best"]
                submit_one()
    return results


def _clique_blocks(n: int, size: int) -> Graph:
    edges = []
    v = 0
    while v < n:
        block = list(range(v, min(v + size, n)))
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                edges.append((a, b))
        v += size
    return Graph.from_edges(n, edges)


def _seed_extremal(n: int, forest: LinearForest) -> Graph:
    """Best detector-verified forest-free candidate, used as the incumbent."""
    f = forest.num_vertices
    candidates: list[Graph] = []
    if f > n:
        return complete_graph(n)
    if f - 1 >= 1:
        # clique on f-1 vertices plus isolated vertices
        candidates.append(Graph.from_edges(
            n, [(u, v) for u in range(f - 1) for v in range(u + 1, f - 1)]))
    if forest.parts[0] - 1 >= 1:
        candidates.append(_clique_blocks(n, forest.parts[0] - 1))
    if forest.k >= 2 and any(t != 3 for t in forest.parts):
        hub = forest.half_sum - 1
        if n >= max(f, hub + 2):
            from .constructions import build_turan_extremal
            candidates.append(build_turan_extremal(n, forest))
    best = Graph(n, tuple([0] * n))
    for g in candidates:
        if g.edge_count > best.edge_count and contains_subgraph(g, forest) is None:
            best = g
    return best


def _ex_dfs(n: int, parts: tuple[int, ...], prefix: tuple[bool, ...],
            init_best: int, max_nodes: int, deadline: float) -> dict:
    """Include/exclude search below a fixed decision prefix."""
    edges = lex_edges(n)
    me = len(edges)
    forest = LinearForest(parts)
    adj = [0] * n
    count = 0
    included: list[Edge] = []
    for i, take in enumerate(prefix):
        if take:
            u, v = edges[i]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            included.append(edges[i])
            count += 1
    eg_cap: Optional[int] = None
    if forest.k == 1:
        eg_cap = int(erdos_gallai_bound(n, forest.parts[0]))
    stats = {"nodes": 0, "pruned_rainbow": 0, "pruned_bound": 0}
    best = init_best
    best_edges: Optional[list[Edge]] = None
    exhausted = True

    def rec(i: int, count: int) -> None:
        nonlocal best, best_edges
        stats["nodes"] += 1
        if stats["nodes"] > max_nodes:
            raise _BudgetExceeded
        if stats["nodes"] % 4096 == 0 and time.monotonic() > deadline:
            raise _BudgetExceeded
        if i == me:
            if count > best:
                best = count
                best_edges = included.copy()
            return
        ub = count + (me - i)
        if eg_cap is not None:
            ub = min(ub, eg_cap)
        if ub <= best:
            stats["pruned_bound"] += 1
            return
        u, v = edges[i]
        if not _twin_forbids(adj, u, v):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            included.append(edges[i])
            if _contains_with_anchor(n, adj, forest, edges[i]):
                stats["pruned_rainbow"] += 1
            else:
                rec(i + 1, count + 1)
            included.pop()
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        rec(i + 1, count)

    try:
        rec(len(prefix), count)
    except _BudgetExceeded:
        exhausted = False
    return {"best": best,
            "assignment": best_edges,
            "exhausted": exhausted, **stats}


def _twin_forbids(adj: list[int], u: int, v: int) -> bool:
    """Whether the lex-leader row rule excludes edge (u, v).

    The nearest earlier twin a of v (u < a < v, same neighbours below u)
    has already been decided in row u; (u, v) may be included only if
    (u, a) was.
    """
    low = (1 << u) - 1
    key = adj[v] & low
    for a in range(v - 1, u, -1):
        if adj[a] & low == key:
            return not adj[u] >> a & 1
    return False


def _contains_with_anchor(n: int, adj: list[int], forest: LinearForest,
                          anchor: Edge) -> bool:
    from .rainbow import _search_forest
    if forest.num_vertices > n:
        return False
    return _search_forest(n, adj, forest.parts, anchor=anchor) is not None


def brute_force_ex(n: int, forest: LinearForest,
                   budget: Optional[SearchBudget] = None) -> SearchReport:
    """Exact max edge count of a forest-free graph on n vertices."""
    if n < 1:
        raise ValueError("need n >= 1")
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.max_millis / 1000.0
    seed = _seed_extremal(n, forest)
    seed_count = seed.edge_count
    if budget.parallelism == 1:
        merged = [_ex_dfs(n, forest.parts, (), seed_count, budget.max_nodes,
                          deadline)]
    else:
        me = n * (n - 1) // 2
        levels = min(PARALLEL_EXPAND_LEVELS, me)
        prefixes, exp = _expand_ex_prefixes(n, forest, levels, seed_count)
        merged = _run_parallel(
            _ex_dfs,
            [(n, forest.parts, p) for p in prefixes],
            init_best=seed_count,
            max_nodes=max(1, budget.max_nodes - exp["nodes"]),
            deadline=deadline,
            workers=budget.parallelism)
        merged.append({"best": seed_count, "assignment": None,
                       "exhausted": True, **exp})
    best = seed_count
    best_edges = None
    exhausted = True
    nodes = pr = pb = 0
    for res in merged:
        nodes += res["nodes"]
        pr += res["pruned_rainbow"]
        pb += res.get("pruned_bound", 0)
        exhausted = exhausted and res["exhausted"]
        if res["best"] > best and res["assignment"] is not None:
            best = res["best"]
            best_edges = res["assignment"]
    witness = (Graph.from_edges(n, best_edges)
               if best_edges is not None else seed)
    return SearchReport(best, witness, exhausted, nodes, pr, pb,
                        time.monotonic() - start)


def _expand_ex_prefixes(n: int, forest: LinearForest, levels: int,
                        incumbent: int) -> tuple[list[tuple[bool, ...]], dict]:
    edges = lex_edges(n)
    me = len(edges)
    stats = {"nodes": 0, "pruned_rainbow": 0}
    frontier: list[tuple[bool, ...]] = [()]
    for i in range(levels):
        nxt: list[tuple[bool, ...]] = []
        for prefix in frontier:
            adj = [0] * n
            count = 0
            for j, take in enumerate(prefix):
                if take:
                    u, v = edges[j]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    count += 1
            if count + (me - i) <= incumbent:
                continue
            u, v = edges[i]
            if not _twin_forbids(adj, u, v):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                stats["nodes"] += 1
                if _contains_with_anchor(n, adj, forest, edges[i]):
                    stats["pruned_rainbow"] += 1
                else:
                    nxt.append(prefix + (True,))
            nxt.append(prefix + (False,))
        frontier = nxt
    return frontier, stats


def verify_witness(report: SearchReport, forest: LinearForest) -> bool:
    """Re-validate a search witness against its reported value."""
    w = report.witness
    if w is None:
        return False
    if isinstance(w, EdgeColoring):
        return w.m == report.value and find_rainbow(w, forest) is None
    if isinstance(w, Graph):
        return (w.edge_count == report.value
                and contains_subgraph(w, forest) is None)
    return False
