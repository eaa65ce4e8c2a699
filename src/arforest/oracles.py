"""Exact small-n ground truth for anti-Ramsey and Turan values.

Both oracles run one budgeted branch-and-bound search, _dfs, over the lex
edge sequence of K_n, as one loop over a stack of branch iterators, one per
open node.  Each oracle supplies a problem object that replays a decision
prefix, bounds the value any extension of a node can reach, and yields the
feasible decisions for the next edge one at a time: it applies a decision to
a shared incremental adjacency, runs the detector anchored at the new edge,
yields, and then undoes the decision.  A copy of the forest found in a prefix
survives every extension, so such a decision is dropped at once; a node
whose bound cannot beat the incumbent is pruned.

brute_force_ar decides one color per edge.  Colorings are enumerated as
restricted-growth strings, which kills color-relabeling symmetry exactly;
the fresh color is tried first.  It starts from 0 colors, so its witness
is always the search's own best leaf.

The AR bound is forward checking.  At a node with the edges before e_i
decided and c colors used, call a remaining edge e (e_i or later) dead if
giving e a color no decided edge has closes a rainbow copy of the forest
among the decided edges and e, and alive otherwise.  The bound is c plus
the number of alive edges.  It is sound: take any rainbow-free completion
and any color it uses that no decided edge has, and let e be that color's
first edge in lex order.  The decided edges and e, with the completion's
colors, form a subcoloring of the completion, so they have no rainbow copy;
rainbowness depends only on which edges share a color, and e shares none
with the decided edges, so e is alive.  Distinct new colors have distinct
first edges, so the completion has at most c + (alive edges) colors.  A dead
edge stays dead in every descendant: its rainbow copy uses decided edges,
which keep their colors, and e, whose color stays fresh.  So each node
starts from its parent's dead edges, checks the others with one anchored
check each (e_i first, which is also the fresh-color check of the node's
first branch), and stops once colors used plus alive edges exceed the
incumbent.  This is forward checking in the sense of Haralick and
Elliott (1980), applied through the representing-graph argument of Erdos,
Simonovits and Sos (1975): the first edges of the new colors pick one edge
per new color, and each of them must be alive.

brute_force_ex decides include or exclude per edge, include first, and is
seeded with a graph that is free of the forest because it has too few
vertices (see _seed_extremal), so the bound bites from the first node
without a detector call.  The bound is the edge count plus the edges left,
capped by Erdos-Gallai when the forest is a single path.

Every check of both oracles asks whether an edge e closes a copy of the
forest, rainbow for AR, among the decided edges.  The search keeps every
copy the detector has found through e, as its edges other than e, and reads
them newest first before it calls the detector.  A kept copy answers
"closes" when the host holds its other edges and, for AR, when those edges
and e have pairwise distinct colors: it is then a copy, or a rainbow copy,
through e in the host as it stands.  Each reuse re-checks a concrete
embedding, so it needs no argument about how the hosts of two checks
relate, and answers exactly as the detector would.  A copy is kept only
while its search runs.

The EX include check of edge e_i has a second record.  Its answer is
monotone: a copy through e_i in G + e_i is also a copy in G' + e_i for every
G' containing its edges.  So for each edge the search also keeps free, the
host G of included edges of the last check in which e_i closed no copy, and
answers "no copy" without the detector when G is a subgraph of free, since a
copy in G + e_i would also be one in free + e_i.  The host of a hit is a
poor record: in include-first order a host seen after a hit for e_i is never
a supergraph of it, but it often still holds the few edges of a copy.
Either subset test reversed by mistake hardly ever fires in include-first
order, so the values do not show it; only the search's counters do.

In the lex order the edges (u, v), v > u, form row u of the adjacency
matrix, and in both oracles a lex-leader row rule breaks the symmetry of
relabelling vertices.  At the start of row u, two vertices a < b, both > u,
are twins when their decisions toward every row r < u agree: the same
neighbours among 0..u-1 for EX, the same colors on (r, a) and (r, b) for
AR.  Each edge (u, v) is compared with (u, a), where a is v's nearest
earlier twin.  Both proofs rest on one fact: if p permutes the vertices > u
within their twin classes, p maps each edge (r, x) with r < u to (r, p(x)),
and x and p(x) agree toward every row below u, so every row before u (and
every twin class used there) is left unchanged and keeps its constraint.

EX: row u must be nonincreasing over each twin class, so (u, v) may be
included only if (u, a) is.  No edge count is lost.  Suppose a graph obeys
the rule in rows 0..u-1; choosing the p that sorts row u gives an
isomorphic graph that obeys the rule through row u.  By induction on u
every graph has an isomorphic copy, with the same edge count and the same
forest-freeness, that obeys the rule in every row.

AR: row u must be nondecreasing over each twin class in restricted-growth
labels, so (u, v) may take only colors >= the color of (u, a).  The fresh
color is always admitted, so it is still tried first.  No color count is
lost.  Suppose a coloring obeys the rule in rows 0..u-1, and pick the p
whose row u, after restricted-growth relabelling, is lexicographically
least.  Rows before u and their labels are unchanged.  Suppose twins a < b
then had label(u, a) > label(u, b).  A color that first appears after
position a gets a larger label than every color before it, so the color at
b already appears before position a.  Swapping a and b thus lowers the
label at position a and leaves every earlier position alone, which
contradicts the choice of p.  By induction on u every coloring has a copy
under relabelling of its vertices and colors, with the same color count and
the same rainbow-freeness, that obeys the rule in every row.

Both searches are budgeted: at most max_nodes nodes are visited and the
deadline is checked at every node.  Running out of budget returns the best
value found so far (a valid lower bound) with exhausted=False.  Every
search runs one head search.  With one worker the head runs to the end.
With more, it stops at depth PARALLEL_EXPAND_LEVELS and collects the
decision prefixes it reaches, in the order a single worker would reach
them, and each becomes a task in a worker process.  A task is granted a
share of the nodes not yet reserved when it is submitted and gives back
what it did not use, so the node budget holds across all tasks.  The
incumbent is merged monotonically as tasks finish, so late tasks start with
a tighter bound (stale bounds only weaken pruning, never correctness).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional, Union

from . import rainbow
from .formulas import erdos_gallai_bound
from .graphs import (Edge, EdgeColoring, Graph, LinearForest, _edge_index,
                     complete_graph, lex_edges)
from .rainbow import contains_subgraph, find_rainbow

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
    """What a search found and what it cost.

    pruned_by_rainbow counts branches dropped because they close a copy,
    dead_edges the edges the AR forward-checking bound found dead (0 for
    EX); a branch whose fresh color the bound already found dead counts
    only there.  The checks behind them are the EX include checks that the
    last forest-free host did not answer, and the AR branch and bound checks
    with at least as many colors in use as the forest has edges.
    reused_copies counts those answered from a copy found earlier through
    the same edge, in either oracle, and detector_calls the rest, each one
    detector call.  An oracle makes no other detector call.
    stop_reason is "exhausted", or the budget that stopped the search:
    "millis" if any part of it ran out of time, else "nodes".
    """

    value: int
    witness: Union[EdgeColoring, Graph, None]
    exhausted: bool
    nodes_visited: int = 0
    pruned_by_rainbow: int = 0
    pruned_by_bound: int = 0
    dead_edges: int = 0
    detector_calls: int = 0
    reused_copies: int = 0
    elapsed_seconds: float = 0.0
    stop_reason: str = "exhausted"

    def to_json_dict(self) -> dict:
        stats = {"nodes" if key == "nodes_visited" else key: getattr(self, key)
                 for key in _COUNTERS}
        return {
            "value": self.value,
            "exhausted": self.exhausted,
            "stats": {
                **stats,
                "stop_reason": self.stop_reason,
                "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
            },
        }


# the counter fields of SearchReport, which _dfs counts and _search sums
_COUNTERS = ("nodes_visited", "pruned_by_rainbow", "pruned_by_bound",
             "dead_edges", "detector_calls", "reused_copies")


class _Problem:
    """Host state shared by both oracles: K_n's lex edges, the adjacency
    bitmasks of the edges decided so far, and the copies found through each
    edge."""

    def __init__(self, n: int, parts: tuple[int, ...]):
        self.n = n
        self.parts = parts
        self.edges = lex_edges(n)
        self.adj = [0] * n
        # copies[j] lists, oldest first, each copy the detector found
        # through edge j as (lex bitmask of its other edges, those edges)
        self.copies: list[list] = [[] for _ in self.edges]

    def _flip(self, e: Edge) -> None:
        u, v = e
        self.adj[u] ^= 1 << v
        self.adj[v] ^= 1 << u

    def _detect(self, j: int, present: int, stats: dict,
                col: Optional[list[list[int]]] = None) -> bool:
        """Whether edge j, in adj, closes a copy of the forest (a rainbow
        one under col) among the edges in present, a lex bitmask.

        A kept copy through j answers without the detector when present
        holds its other edges and, under col, their colors and j's are
        pairwise distinct (see the module docstring).
        """
        e = self.edges[j]
        kept = self.copies[j]
        absent = ~present
        for mask, others in reversed(kept):
            if not mask & absent and (
                    col is None or _distinct_colors(col, e, others)):
                stats["reused_copies"] += 1
                return True
        stats["detector_calls"] += 1
        paths = rainbow._search_forest(self.n, self.adj, self.parts, col=col,
                                       anchor=e)
        if paths is None:
            return False
        others = [(a, b) if a < b else (b, a)
                  for seq in paths for a, b in pairwise(seq)]
        others.remove(e)
        kept.append((sum(1 << _edge_index(self.n, a, b) for a, b in others),
                     others))
        return True


class _ArProblem(_Problem):
    """One color per edge as a restricted-growth string; the value is the
    number of colors used."""

    def __init__(self, n: int, parts: tuple[int, ...]):
        super().__init__(n, parts)
        self.forest_edges = sum(parts) - len(parts)
        # col[u][v] = col[v][u] is the color of (u, v) once decided; the
        # detector reads it only for edges in adj
        self.col = [[0] * n for _ in range(n)]
        # dead[i + 1] holds the edges found dead at the current node at
        # depth i, edge i + k as bit k; the node starts from its parent's,
        # dead[i] >> 1
        self.dead = [0] * (len(self.edges) + 1)

    def replay(self, prefix: tuple[int, ...]) -> int:
        for e, c in zip(self.edges, prefix):
            self._flip(e)
            self._paint(e, c)
        return max(prefix) + 1 if prefix else 0

    def _paint(self, e: Edge, c: int) -> None:
        u, v = e
        self.col[u][v] = self.col[v][u] = c

    def _closes(self, i: int, j: int, colors: int, stats: dict) -> bool:
        """Whether edge j, colored and added, closes a rainbow copy of the
        forest among the decided edges, those before edge i; colors counts
        the colors then in use."""
        # every edge of a rainbow copy has a color of its own
        if colors < self.forest_edges:
            return False
        return self._detect(j, (1 << i) - 1, stats, self.col)

    def bound(self, i: int, value: int, best: int, stats: dict) -> int:
        """Colors used plus alive edges (see the module docstring), or the
        cheaper colors used plus edges left once either shows that the node
        cannot be pruned."""
        cheap = value + len(self.edges) - i
        if cheap <= best:
            return cheap
        dead = self.dead[i] >> 1
        alive = 0
        for j in range(i, len(self.edges)):
            if dead >> j - i & 1:
                continue
            e = self.edges[j]
            self._flip(e)
            self._paint(e, value)
            if self._closes(i, j, value + 1, stats):
                dead |= 1 << j - i
                stats["dead_edges"] += 1
            else:
                alive += 1
            self._flip(e)
            # edge i is always classified, as branches reuses its answer
            if alive > best - value:
                break
        self.dead[i + 1] = dead
        return value + alive if alive <= best - value else cheap

    def branches(self, i: int, value: int, stats: dict):
        e = u, v = self.edges[i]
        fresh_dead = self.dead[i + 1] & 1
        self._flip(e)
        for c in _twin_colors(self.col, u, v, value):
            self._paint(e, c)
            if c == value:
                # the bound has made this very check on edge i
                if not fresh_dead:
                    yield c, value + 1
            elif self._closes(i, i, value, stats):
                stats["pruned_by_rainbow"] += 1
            else:
                yield c, value
        self._flip(e)


class _ExProblem(_Problem):
    """Include (True) or exclude (False) per edge; the value is the number
    of edges included."""

    def __init__(self, n: int, parts: tuple[int, ...]):
        super().__init__(n, parts)
        # only a single path has a cap below the edge count of K_n
        self.cap = (int(erdos_gallai_bound(n, parts[0])) if len(parts) == 1
                    else len(self.edges))
        # taken is the bitmask of included edges, by lex index; free[i] is
        # the taken of the last host in which including edge i closed no
        # copy, -1 until the detector has given that answer once
        self.taken = 0
        self.free = [-1] * len(self.edges)

    def replay(self, prefix: tuple[bool, ...]) -> int:
        for i, take in enumerate(prefix):
            if take:
                self._flip(self.edges[i])
                self.taken |= 1 << i
        return sum(prefix)

    def bound(self, i: int, value: int, best: int, stats: dict) -> int:
        return min(value + len(self.edges) - i, self.cap)

    def _closes(self, i: int, stats: dict) -> bool:
        """Whether edge i, included, closes a copy of the forest; a host
        inside the last one where it closed none is answered without the
        detector (see the module docstring)."""
        taken = self.taken
        free = self.free[i]
        if free >= 0 and not taken & ~free:
            return False
        if self._detect(i, taken, stats):
            return True
        self.free[i] = taken
        return False

    def branches(self, i: int, value: int, stats: dict):
        e = self.edges[i]
        if not _twin_forbids(self.adj, *e):
            self._flip(e)
            if self._closes(i, stats):
                stats["pruned_by_rainbow"] += 1
            else:
                self.taken |= 1 << i
                yield True, value + 1
                self.taken ^= 1 << i
            self._flip(e)
        yield False, value


def _distinct_colors(col: list[list[int]], e: Edge,
                     others: list[Edge]) -> bool:
    """Whether e and the other edges have pairwise distinct colors."""
    u, v = e
    seen = 1 << col[u][v]
    for a, b in others:
        bit = 1 << col[a][b]
        if seen & bit:
            return False
        seen |= bit
    return True


def _twin_forbids(adj: list[int], u: int, v: int) -> bool:
    """Whether the EX row rule excludes edge (u, v).

    Twins have the same neighbours below u; (u, v) may be included only if
    (u, a) was, a being v's nearest earlier twin.
    """
    low = (1 << u) - 1
    k = adj[v] & low
    for a in range(v - 1, u, -1):
        if adj[a] & low == k:
            return not adj[u] >> a & 1
    return False


def _twin_colors(col: list[list[int]], u: int, v: int, value: int) -> range:
    """The colors the AR row rule admits on edge (u, v), fresh color first.

    col[x][r] is the color of (r, x), and value is the number of colors
    used so far.  Twins have the same colors toward rows below u; (u, v) may
    take only colors >= that of (u, a), a being v's nearest earlier twin.
    """
    k = col[v][:u]
    for a in range(v - 1, u, -1):
        if col[a][:u] == k:
            return range(value, col[a][u] - 1, -1)
    return range(value, -1, -1)


def _dfs(problem_cls: type, n: int, parts: tuple[int, ...], prefix: tuple,
         best: int, max_nodes: int, deadline: float,
         stop_at: Optional[int] = None) -> dict:
    """Branch-and-bound over every extension of a decision prefix.

    Returns the best value, the full decision sequence that reached it (None
    if nothing beat the given best), the stop reason ("exhausted" or the
    budget that ran out), and the counters.  With stop_at, nodes at that
    depth are not visited but collected, in visiting order, under "frontier".
    """
    problem = problem_cls(n, parts)
    me = len(problem.edges)
    stop = me + 1 if stop_at is None else stop_at
    path = list(prefix)
    stats = dict.fromkeys(_COUNTERS, 0)
    frontier: list[tuple] = []
    found: Optional[tuple] = None
    # one branch iterator per open node, deepest last, each with its path entry
    stack: list = []
    i, value = len(prefix), problem.replay(prefix)
    stop_reason = "exhausted"
    while True:
        if i == stop:
            frontier.append(tuple(path))
        elif stats["nodes_visited"] >= max_nodes:
            stop_reason = "nodes"
            break
        elif time.monotonic() > deadline:
            stop_reason = "millis"
            break
        else:
            stats["nodes_visited"] += 1
            if i == me:
                if value > best:
                    best, found = value, tuple(path)
            elif problem.bound(i, value, best, stats) <= best:
                stats["pruned_by_bound"] += 1
            else:
                stack.append(problem.branches(i, value, stats))
                path.append(None)
        # the next node is the next branch of the deepest open node with one
        while stack and (branch := next(stack[-1], None)) is None:
            stack.pop()
            path.pop()
        if not stack:
            break
        path[-1], value = branch
        i = len(path)
    return {"best": best, "path": found, "stop_reason": stop_reason,
            "frontier": frontier, **stats}


def _run_parallel(problem_cls: type, n: int, parts: tuple[int, ...],
                  prefixes: list[tuple], best: int, nodes_left: int,
                  deadline: float, workers: int) -> list[dict]:
    """Search below each prefix in worker processes.

    Each task is submitted with the best value merged so far, so later tasks
    prune harder; a stale bound is safe, only less effective.  Each task is
    also granted nodes reserved from nodes_left and returns the unused part
    when it finishes, so all tasks together visit at most nodes_left nodes.
    Returns one result per prefix that got a task, in the order the tasks
    finished.  The pool holds at most one worker per prefix, because a
    forked pool starts all its workers at the first submit; with no prefix
    there is no pool.
    """
    workers = min(workers, len(prefixes))
    if not workers:
        return []
    # imported here because the process pool brings in multiprocessing,
    # pickle and socket, about 2 MiB resident that sequential runs never use
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    results: list[dict] = []
    queue = list(reversed(prefixes))
    slots = 2 * workers
    pending: dict = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while True:
            while queue and len(pending) < slots and nodes_left > 0:
                grant = -(-nodes_left // (slots - len(pending)))
                nodes_left -= grant
                pending[pool.submit(_dfs, problem_cls, n, parts, queue.pop(),
                                    best, grant, deadline)] = grant
            if not pending:
                break
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                res = fut.result()
                nodes_left += pending.pop(fut) - res["nodes_visited"]
                results.append(res)
                best = max(best, res["best"])
    return results


def _search(problem_cls: type, n: int, forest: LinearForest, best: int,
            budget: Optional[SearchBudget],
            start: float) -> tuple[SearchReport, Optional[tuple]]:
    """Run the head _dfs, search below its frontier in parallel, and merge
    what they found.

    With one worker the head runs to the end, so its frontier is empty and
    no pool is started.  With more, it stops at depth
    PARALLEL_EXPAND_LEVELS, or runs to the end if K_n has fewer edges; a
    head with a frontier has reached no leaf, so the tasks start from best.
    Returns a report without a witness, and the decision sequence of the
    best value if any search beat the given best.
    """
    budget = budget or SearchBudget()
    deadline = start + budget.max_millis / 1000.0
    head = _dfs(problem_cls, n, forest.parts, (), best, budget.max_nodes,
                deadline, stop_at=None if budget.parallelism == 1
                else PARALLEL_EXPAND_LEVELS)
    tasks = _run_parallel(problem_cls, n, forest.parts, head["frontier"],
                          best, budget.max_nodes - head["nodes_visited"],
                          deadline, budget.parallelism)
    results = [head, *tasks]
    path = None
    for res in results:
        if res["best"] > best:
            best, path = res["best"], res["path"]
    reasons = {res["stop_reason"] for res in results}
    if len(tasks) < len(head["frontier"]):
        reasons.add("nodes")  # a prefix got no node grant
    stop_reason = ("millis" if "millis" in reasons
                   else "nodes" if "nodes" in reasons else "exhausted")
    report = SearchReport(
        best, None, stop_reason == "exhausted",
        **{key: sum(res[key] for res in results) for key in _COUNTERS},
        elapsed_seconds=time.monotonic() - start, stop_reason=stop_reason)
    return report, path


def brute_force_ar(n: int, forest: LinearForest,
                   budget: Optional[SearchBudget] = None) -> SearchReport:
    """Exact max color count of a rainbow-forest-free coloring of K_n."""
    if forest.num_vertices > n:
        raise ValueError(
            f"forest needs {forest.num_vertices} vertices but n={n}")
    report, path = _search(_ArProblem, n, forest, 0, budget, time.monotonic())
    if path is not None:
        report.witness = EdgeColoring(n, path)
    return report


def _seed_extremal(n: int, forest: LinearForest) -> Graph:
    """A forest-free graph on n vertices, used as the incumbent.

    Both candidates are free of the forest because they have too few
    vertices, so no detector call proves them.  K_{f-1} plus isolated
    vertices has f - 1 non-isolated vertices, and the forest needs f.
    Disjoint cliques on parts[0] - 1 vertices each have no component that
    can hold the largest part.  The larger is returned, K_{f-1} on a tie;
    with f > n, K_n itself has too few vertices.
    """
    f = forest.num_vertices
    if f > n:
        return complete_graph(n)
    size = forest.parts[0] - 1
    small = lex_edges(f - 1)
    blocks = [(u, v) for u, v in lex_edges(n) if u // size == v // size]
    return Graph.from_edges(n, blocks if len(blocks) > len(small) else small)


def brute_force_ex(n: int, forest: LinearForest,
                   budget: Optional[SearchBudget] = None) -> SearchReport:
    """Exact max edge count of a forest-free graph on n vertices."""
    if n < 1:
        raise ValueError("need n >= 1")
    start = time.monotonic()
    seed = _seed_extremal(n, forest)
    report, path = _search(_ExProblem, n, forest, seed.edge_count, budget,
                           start)
    report.witness = seed if path is None else Graph.from_edges(
        n, [e for e, take in zip(lex_edges(n), path) if take])
    return report


def verify_witness(report: SearchReport, forest: LinearForest) -> bool:
    """Re-validate a search witness against its reported value."""
    w = report.witness
    if w is None:
        # every coloring has a rainbow copy of a single edge, so the exact
        # AR value 0 of P2 is the one answer without a witness
        return (report.exhausted and report.value == 0
                and forest.num_edges == 1)
    if isinstance(w, EdgeColoring):
        return w.m == report.value and find_rainbow(w, forest) is None
    if isinstance(w, Graph):
        return (w.edge_count == report.value
                and contains_subgraph(w, forest) is None)
    return False
