import subprocess
import sys
import time
from dataclasses import replace
from itertools import permutations
from math import comb
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arforest
from arforest import (EdgeColoring, LinearForest, SearchBudget,
                      SearchReport, ar_linear_forest, brute_force_ar,
                      brute_force_ex, build_forest_coloring,
                      contains_subgraph, erdos_gallai_bound,
                      ex_linear_forest, lex_edges, verify_witness)
from arforest import rainbow
from arforest.oracles import (_COUNTERS, PARALLEL_EXPAND_LEVELS, _ArProblem,
                              _dfs, _ExProblem, _Problem, _seed_extremal,
                              _twin_colors, _twin_forbids)
from reference import (faudree_schelp, naive_ar, naive_ex, naive_has_rainbow,
                       set_partitions)

LF = LinearForest.parse

FAST = SearchBudget(max_nodes=5_000_000, max_millis=120_000)


def forest_specs(max_vertices: int, largest: int):
    """Spec strings of every linear forest on at most max_vertices vertices
    whose parts are at most largest."""
    for t in range(min(largest, max_vertices), 1, -1):
        yield str(t)
        for rest in forest_specs(max_vertices - t, t):
            yield f"{t},{rest}"


# every linear forest that fits in K_n, n = 2..6: 23 cases
SMALL_FORESTS = [(n, spec) for n in range(2, 7)
                 for spec in forest_specs(n, n)]

# every linear forest that fits in K_n, n = 2..4, and four at n = 5, where
# naive_ar takes 1-2.5 s per forest
AR_NAIVE_FORESTS = [(n, spec) for n in range(2, 5)
                    for spec in forest_specs(n, n)] + [
    (5, "2,2"), (5, "5"), (5, "4"), (5, "3,2")]


def frontier(problem_cls, n: int, spec: str, depth: int) -> list:
    """Decision prefixes the search reaches at the given depth, in order."""
    res = _dfs(problem_cls, n, LF(spec).parts, (), 0, 10**9, float("inf"),
               stop_at=depth)
    assert res["stop_reason"] == "exhausted"
    return res["frontier"]


@pytest.fixture
def inline_pool(monkeypatch) -> list:
    """Replace the process pool with one that starts no process and runs
    each task inline; returns the pools constructed, each with its
    max_workers and its count of submitted tasks."""
    import concurrent.futures

    pools: list = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.submitted = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.submitted += 1
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    return pools


def rg_colorings(n: int):
    """Every coloring of K_n's edges, as a restricted-growth string."""
    ne = len(lex_edges(n))
    for part in set_partitions(list(range(ne))):
        colors = [0] * ne
        for cid, block in enumerate(part):
            for i in block:
                colors[i] = cid
        yield EdgeColoring(n, colors).canonical().colors


def coloring_class(n: int, assign: tuple) -> tuple:
    """The least restricted-growth string over all relabellings of the
    vertices: one key per coloring class."""
    edges = lex_edges(n)
    best = None
    for p in permutations(range(n)):
        moved = {(min(p[a], p[b]), max(p[a], p[b])): c
                 for (a, b), c in zip(edges, assign)}
        labels: dict = {}
        key = tuple(labels.setdefault(moved[e], len(labels)) for e in edges)
        best = key if best is None else min(best, key)
    return best


class TestBruteForceAr:
    @pytest.mark.parametrize("n,spec,expected", [
        # K_4's three monochromatic perfect matchings block rainbow 2K_2,
        # so (4, "2,2") is 3 rather than 1
        (4, "3", 1), (4, "4", 3), (4, "2,2", 3),
        (5, "2,2", 1), (5, "3,2", 2), (5, "4", 2),
        (6, "2,2", 1), (6, "3,2", 2),
        (6, "3,3", 7), (6, "2,2,2", 6),
        (6, "6", 7), (7, "5", 7), (7, "3,3", 7),
    ])
    def test_pinned_values(self, n, spec, expected):
        report = brute_force_ar(n, LF(spec), FAST)
        assert report.exhausted
        assert report.value == expected
        assert verify_witness(report, LF(spec))

    @pytest.mark.parametrize("n,spec", AR_NAIVE_FORESTS)
    def test_agrees_with_naive(self, n, spec):
        assert brute_force_ar(n, LF(spec), FAST).value == naive_ar(n, LF(spec))

    def test_forest_too_large_rejected(self):
        with pytest.raises(ValueError):
            brute_force_ar(4, LF("3,2"), FAST)

    def test_leaf_enumeration_is_canonical(self):
        # the search walks rainbow-P4-free partitions of K_4's edges at most
        # once each, in restricted-growth form; the row rule skips some
        # relabellings but keeps one in every coloring class
        n, forest = 4, LF("4")
        leaves = frontier(_ArProblem, n, "4", len(lex_edges(n)))
        assert len(leaves) == len(set(leaves))
        for assign in leaves:
            seen_max = -1
            for c in assign:
                assert c <= seen_max + 1
                seen_max = max(seen_max, c)
        free = {assign for assign in rg_colorings(n)
                if not naive_has_rainbow(
                    EdgeColoring(n, assign), forest)}
        assert set(leaves) < free
        assert ({coloring_class(n, a) for a in leaves}
                == {coloring_class(n, a) for a in free})

    @pytest.mark.parametrize("n,spec", [(4, "4"), (5, "3,2"), (5, "4")])
    def test_bound_never_prunes_a_better_completion(self, n, spec):
        # at every node the search reaches, the forward-checking bound must
        # stay above best whenever some completion beats best; a search
        # with best = -1 prunes nothing and finds the best completion
        parts = LF(spec).parts
        for depth in range(len(lex_edges(n))):
            for prefix in frontier(_ArProblem, n, spec, depth):
                top = _dfs(_ArProblem, n, parts, prefix, -1, 10**9,
                           float("inf"))["best"]
                problem = _ArProblem(n, parts)
                value = problem.replay(prefix)
                stats = dict.fromkeys(_COUNTERS, 0)
                assert problem.bound(depth, value, top - 1, stats) >= top

    @pytest.mark.parametrize("n,spec", [
        *((n, spec) for n in range(2, 6) for spec in forest_specs(n, n)),
        (6, "5"), (6, "3,2")])
    def test_bound_never_prunes_a_better_completion_with_kept_copies(
            self, n, spec):
        # the test above bounds each prefix with an empty copy store, where
        # no conflict is found; here every prune of a real search, whose
        # store the search itself has filled, is re-checked: an exhaustive
        # search below the pruned prefix, with best = -1, must find nothing
        # above the best the prune was made against
        parts = LF(spec).parts
        prunes = []

        class Recorded(_ArProblem):
            def bound(self, i, value, best, stats):
                result = super().bound(i, value, best, stats)
                if result <= best:
                    prunes.append((tuple(self.col[u][v]
                                         for u, v in self.edges[:i]), best))
                return result

        res = _dfs(Recorded, n, parts, (), 0, 10**9, float("inf"))
        assert res["stop_reason"] == "exhausted"
        # the two searches at n = 6 match some conflicting edges
        assert res["conflict_pairs"] > 0 or n < 6
        for prefix, best in prunes:
            assert _dfs(_ArProblem, n, parts, prefix, -1, 10**9,
                        float("inf"))["best"] <= best

    @pytest.mark.parametrize("n,spec", [(5, "5"), (6, "5"), (6, "3,3")])
    def test_kept_copies_pair_only_conflicting_edges(self, n, spec):
        # each partner a kept copy gives alive edge j is re-checked on a host
        # of the decided edges, with their colors, the partner e and j, with
        # e and j carrying two fresh colors: the raw detector, anchored at j,
        # must find a rainbow copy there
        parts = LF(spec).parts
        pairs = []

        class Recorded(_ArProblem):
            def _partners(self, i, j, alive):
                found = super()._partners(i, j, alive)
                colors = [self.col[u][v] for u, v in self.edges[:i]]
                pairs.extend((colors, i + k, j)
                             for k in range(found.bit_length())
                             if found >> k & 1)
                return found

        res = _dfs(Recorded, n, parts, (), 0, 10**9, float("inf"))
        assert res["conflict_pairs"] > 0
        edges = lex_edges(n)
        for colors, e, j in pairs:
            # no decided edge has color len(colors) or more
            host = dict(zip(edges, colors))
            host[edges[e]] = len(colors)
            host[edges[j]] = len(colors) + 1
            assert copy_through(n, list(host), edges[j], parts,
                                host) is not None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda m: st.tuples(
        st.just(m), st.sets(st.tuples(st.integers(0, m - 1),
                                      st.integers(0, m - 1))))))
    def test_pair_grows_a_matching_of_conflicting_edges(self, case):
        # fed the alive edges in order, whatever conflicts the kept copies
        # show, _pair must report the pairs of a matching of conflicting
        # edges: alive edges less pairs then bounds every set of pairwise
        # non-conflicting alive edges, as the bound needs
        m, raw = case
        conflict = {(a, b) if a < b else (b, a) for a, b in raw if a != b}
        problem = _ArProblem(6, (2,))
        problem._partners = lambda i, j, alive: alive & sum(
            1 << a for a in range(j) if (a, j) in conflict)
        single = pairs = 0
        for j in range(m):
            matched = problem._pair(0, j, 0, single)
            if matched:
                single ^= matched
                pairs += 1
            else:
                single |= 1 << j
        matched_edges = [a for a in range(m) if not single >> a & 1]
        assert len(matched_edges) == 2 * pairs
        for a in matched_edges:
            b = problem.mate[a]
            assert problem.mate[b] == a and (min(a, b), max(a, b)) in conflict
        # and the matching is maximal
        assert not any(single >> a & single >> b & 1 for a, b in conflict)

    def test_ar_row_rule_keeps_every_coloring_class(self):
        # the rule may only drop relabellings: each of the 25 classes of the
        # 203 colorings of K_4 must keep a restricted-growth labelling whose
        # rows all pass the twin test
        n = 4

        def admitted(assign):
            col = [[0] * n for _ in range(n)]
            value = 0
            for (u, v), c in zip(lex_edges(n), assign):
                if c not in _twin_colors(col, u, v, value):
                    return False
                col[v][u] = c
                value = max(value, c + 1)
            return True

        classes, kept, labelled = set(), set(), 0
        for assign in rg_colorings(n):
            key = coloring_class(n, assign)
            classes.add(key)
            if admitted(assign):
                kept.add(key)
                labelled += 1
        assert len(classes) == 25
        assert kept == classes
        assert labelled < 203

    def test_prefix_expansion_keeps_row_zero_nondecreasing(self):
        # at row 0 every later vertex is a twin of every other, so each of
        # the first four colors repeats the one before or is fresh
        for n, spec in [(5, "3,2"), (6, "5"), (7, "4,2")]:
            prefixes = frontier(_ArProblem, n, spec, 4)
            assert 1 <= len(prefixes) <= 8
            for prefix in prefixes:
                assert list(prefix) == sorted(prefix)

    def test_at_least_construction(self):
        # lower bound from the explicit extremal coloring must be attained
        forest = LF("2,2")
        coloring = build_forest_coloring(6, forest)
        report = brute_force_ar(6, forest, FAST)
        assert report.exhausted
        assert report.value >= coloring.m
        assert report.value == ar_linear_forest(6, forest).value

    def test_search_pins(self):
        # 1,507 detector calls when no copy was kept; the copy store
        # answered 1,171 of those checks.  Before the bound matched
        # conflicting alive edges: 549 nodes, 336 detector calls, 1,171
        # reused copies, 1,256 dead edges, 48 rainbow and 343 bound prunes
        report = brute_force_ar(6, LF("5"), FAST)
        assert report.exhausted and report.value == 6
        assert report.nodes_visited == 178
        assert report.detector_calls == 315
        assert report.reused_copies == 536
        assert report.dead_edges == 601
        assert report.pruned_by_rainbow == 47
        assert report.pruned_by_bound == 105
        assert report.conflict_pairs == 188

    def test_search_deeper_than_the_interpreter_stack(self):
        # K_60 has 1,770 edges and every leaf lies that many decisions deep
        report = brute_force_ar(60, LF("3"), FAST)
        assert report.exhausted and report.value == 1
        assert report.nodes_visited == 1771
        assert verify_witness(report, LF("3"))

    def test_budget_exhaustion_returns_lower_bound(self):
        report = brute_force_ar(6, LF("3,2"), SearchBudget(max_nodes=50))
        assert not report.exhausted
        full = brute_force_ar(6, LF("3,2"), FAST)
        assert report.value <= full.value

    def test_parallel_matches_sequential(self):
        seq = brute_force_ar(5, LF("3,2"), FAST)
        par = brute_force_ar(
            5, LF("3,2"), SearchBudget(max_nodes=5_000_000,
                                       max_millis=120_000, parallelism=2))
        assert par.exhausted and par.value == seq.value
        assert verify_witness(par, LF("3,2"))


class TestBruteForceEx:
    @pytest.mark.parametrize("n,spec,expected", [
        (4, "3", 2), (4, "2,2", 3), (5, "2,2", 4),
        (5, "4", 4), (5, "3,2", 6), (6, "3,3", 10),
        (7, "4,2", 11),
        (8, "4,2", 13), (8, "4,3", 16),
    ])
    def test_pinned_values(self, n, spec, expected):
        report = brute_force_ex(n, LF(spec), FAST)
        assert report.exhausted
        assert report.value == expected
        assert verify_witness(report, LF(spec))

    def test_small_n_exceeds_large_n_formula(self):
        # EX(8, P4+P3) = 16 is pinned above: small hosts can beat the
        # closed form, which holds only for large n
        formula = ex_linear_forest(8, LF("4,3"))
        assert formula.value == 13
        assert formula.validity == "n sufficiently large"

    @pytest.mark.parametrize("n,k", [
        (8, 6), (8, 7), (9, 7), (9, 9), (10, 5),
    ])
    def test_paths_match_faudree_schelp(self, n, k):
        report = brute_force_ex(n, LF(str(k)), FAST)
        assert report.exhausted
        assert report.value == faudree_schelp(n, k)
        assert verify_witness(report, LF(str(k)))

    @pytest.mark.parametrize("n,spec", SMALL_FORESTS)
    def test_agrees_with_naive(self, n, spec):
        assert brute_force_ex(n, LF(spec), FAST).value == naive_ex(n, LF(spec))

    def test_row_rule_keeps_every_isomorphism_class(self):
        # the rule may only drop relabellings: each of the 34 graphs on five
        # vertices must keep a labelling whose rows all pass the twin test
        n = 5
        pairs = lex_edges(n)
        perms = list(permutations(range(n)))

        def canonical(edges):
            return min(tuple(sorted((min(p[a], p[b]), max(p[a], p[b]))
                                    for a, b in edges)) for p in perms)

        def admitted(edges):
            adj = [0] * n
            for u, v in pairs:
                if (u, v) in edges:
                    if _twin_forbids(adj, u, v):
                        return False
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            return True

        classes, kept, labelled = set(), set(), 0
        for mask in range(1 << len(pairs)):
            edges = {e for i, e in enumerate(pairs) if mask >> i & 1}
            classes.add(canonical(edges))
            if admitted(edges):
                kept.add(canonical(edges))
                labelled += 1
        assert len(classes) == 34
        assert kept == classes
        assert labelled < 1 << len(pairs)

    def test_prefix_expansion_keeps_row_zero_nonincreasing(self):
        # at row 0 every later vertex is a twin of every other, so the
        # lex-leader rule admits only 1...10...0 over the first four edges
        for n, spec in [(5, "2,2"), (8, "4,3"), (9, "3,2")]:
            prefixes = frontier(_ExProblem, n, spec, 4)
            assert 1 <= len(prefixes) <= 5
            for prefix in prefixes:
                assert list(prefix) == sorted(prefix, reverse=True)

    def test_two_disjoint_edges_on_five_vertices(self):
        # the star K_{1,4} has four edges and no two disjoint ones, so the
        # answer is 4, not 3
        report = brute_force_ex(5, LF("2,2"), FAST)
        assert report.value == 4 == naive_ex(5, LF("2,2"))

    def test_single_path_respects_average_degree_bound(self):
        for n in range(3, 8):
            for k in range(3, n + 1):
                report = brute_force_ex(n, LF(str(k)), FAST)
                assert report.exhausted
                assert report.value <= erdos_gallai_bound(n, k)

    def test_parallel_matches_sequential(self):
        for n, spec in [(7, "3,2"), (8, "4,3")]:
            seq = brute_force_ex(n, LF(spec), FAST)
            par = brute_force_ex(
                n, LF(spec), SearchBudget(max_nodes=5_000_000,
                                          max_millis=120_000, parallelism=2))
            assert par.exhausted and par.value == seq.value
            assert verify_witness(par, LF(spec))

    def test_budget_exhaustion(self):
        report = brute_force_ex(8, LF("4,3"), SearchBudget(max_nodes=10))
        assert not report.exhausted
        assert report.witness is not None  # seeded incumbent survives

    @pytest.mark.parametrize("n", range(2, 11))
    def test_seed_is_free_of_the_forest_by_vertex_count(self, n):
        # the seed is never checked by the detector, so its two arguments
        # are checked here: K_{f-1} and cliques on parts[0] - 1 vertices
        for spec in forest_specs(9, 9):
            forest = LF(spec)
            f, size = forest.num_vertices, forest.parts[0] - 1
            seed = _seed_extremal(n, forest)
            assert contains_subgraph(seed, forest) is None
            q, r = divmod(n, size)
            blocks = q * comb(size, 2) + comb(r, 2)
            assert seed.edge_count == (comb(n, 2) if f > n else
                                       max(comb(f - 1, 2), blocks))


@st.composite
def nested_hosts(draw):
    """Plain hosts G within G' on n <= 7 vertices, a pair e of vertices and
    a linear forest on at most 5 vertices."""
    n = draw(st.integers(2, 7))
    pairs = lex_edges(n)
    outer = [e for e in pairs if draw(st.booleans())]
    inner = [e for e in outer if draw(st.booleans())]
    e = draw(st.sampled_from(pairs))
    spec = draw(st.sampled_from(list(forest_specs(min(n, 5), 5))))
    return n, inner, outer, e, LF(spec).parts


def copy_through(n: int, edges: list, e: tuple, parts: tuple,
                 colors: Optional[dict] = None):
    """The edges of the detector's copy of the forest through e in the
    graph with the given edges plus e, or None; with colors, an edge to
    color dict over those edges, a rainbow copy."""
    adj = [0] * n
    col = None if colors is None else [[0] * n for _ in range(n)]
    for u, v in {*edges, e}:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if col is not None:
            col[u][v] = col[v][u] = colors[u, v]
    paths = rainbow._search_forest(n, adj, parts, col=col, anchor=e)
    return None if paths is None else {
        (min(a, b), max(a, b)) for seq in paths for a, b in zip(seq, seq[1:])}


class TestIncludeCheckReuse:
    @settings(max_examples=300, deadline=None)
    @given(nested_hosts())
    def test_a_miss_holds_in_every_subhost(self, case):
        # the premise of the free record: a copy through e in G + e is a
        # copy in G' + e, so no copy through e in G' + e means none in G + e
        n, inner, outer, e, parts = case
        assert (copy_through(n, outer, e, parts) is not None
                or copy_through(n, inner, e, parts) is None)

    @settings(max_examples=300, deadline=None)
    @given(nested_hosts())
    def test_a_copy_holds_in_every_host_with_its_edges(self, case):
        # the premise of the copy record: a copy through e found in G + e
        # is a copy through e in every G' + e with G' holding its edges
        n, inner, outer, e, parts = case
        copy = copy_through(n, outer, e, parts)
        if copy is not None:
            assert e in copy
            other = list(copy - {e})
            assert copy_through(n, other, e, parts) is not None
            assert copy_through(n, inner + other, e, parts) is not None

    @settings(max_examples=300, deadline=None)
    @given(nested_hosts(), st.data())
    def test_a_rainbow_copy_holds_in_every_host_with_its_colored_edges(
            self, case, data):
        # the premise of reusing a copy in AR: a rainbow copy through e
        # found in a colored G + e is a rainbow copy through e in every
        # colored G' + e that keeps its edges and their colors, whatever
        # the colors of G''s other edges
        n, inner, outer, e, parts = case
        colors = st.integers(0, 4)
        first = {f: data.draw(colors) for f in {*outer, e}}
        copy = copy_through(n, outer, e, parts, first)
        if copy is not None:
            assert e in copy
            assert len({first[f] for f in copy}) == len(copy)
            second = {f: data.draw(colors) for f in inner}
            second.update((f, first[f]) for f in copy)
            assert copy_through(n, [*inner, *copy], e, parts,
                                second) is not None

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_the_store_answers_as_the_detector(self, data):
        # a run of checks through the first few edges of K_n, on random
        # hosts and colors, gets the detector's answer whether or not a
        # kept copy gives it
        n = data.draw(st.integers(3, 6))
        parts = LF(data.draw(st.sampled_from(list(forest_specs(n, 5))))).parts
        colored = data.draw(st.booleans())
        problem = _Problem(n, parts)
        m = len(problem.edges)
        stats = dict.fromkeys(_COUNTERS, 0)
        for _ in range(12):
            j = data.draw(st.integers(0, 2))
            present = data.draw(st.integers(0, (1 << m) - 1)) & ~(1 << j)
            host = [e for k, e in enumerate(problem.edges)
                    if (present | 1 << j) >> k & 1]
            colors = {e: data.draw(st.integers(0, 3)) for e in host}
            problem.adj = [0] * n
            col = [[0] * n for _ in range(n)]
            for u, v in host:
                problem.adj[u] |= 1 << v
                problem.adj[v] |= 1 << u
                col[u][v] = col[v][u] = colors[u, v]
            expected = copy_through(n, host, problem.edges[j], parts,
                                    colors if colored else None)
            assert problem._detect(j, present, stats,
                                   col if colored else None) == (
                expected is not None)
        assert stats["detector_calls"] + stats["reused_copies"] == 12

    def test_fresh_problem_reuses_nothing(self):
        # a free record of 0 would claim that the empty host closes no
        # copy, which is false for a single edge; a kept copy with no other
        # edge claims that it closes one, which is true, so it answers the
        # next check
        problem = _ExProblem(4, LF("2").parts)
        assert problem.free == [-1] * len(problem.edges)
        assert problem.copies == [[]] * len(problem.edges)
        stats = dict.fromkeys(_COUNTERS, 0)
        assert list(problem.branches(0, 0, stats)) == [(False, 0)]
        assert stats["detector_calls"] == stats["pruned_by_rainbow"] == 1
        assert problem.copies[0] == [(0, [])] and stats["reused_copies"] == 0
        assert list(problem.branches(0, 0, stats)) == [(False, 0)]
        assert stats["detector_calls"] == 1
        assert stats["reused_copies"] == 1 and stats["pruned_by_rainbow"] == 2

    def test_search_pins(self):
        # 390 include checks without any reuse, 188 with the free record
        # alone; keeping the last copy per edge answered 47 of those (141
        # detector calls), keeping every copy answers 74
        report = brute_force_ex(7, LF("7"), FAST)
        assert report.exhausted and report.value == 15
        assert report.nodes_visited == 779
        assert report.detector_calls == 114
        assert report.reused_copies == 74


class TestCopyStore:
    @pytest.mark.parametrize("oracle,n,spec,checks,counts,witness", [
        # 1,507 checks and (549, 48, 343, 1,256) before the bound matched
        # conflicting alive edges
        (brute_force_ar, 6, "5", 851, (178, 47, 105, 601),
         (0, 1, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5)),
        (brute_force_ex, 7, "7", 188, (779, 132, 258, 0),
         (62, 61, 59, 55, 47, 31, 0)),
    ])
    def test_the_store_changes_only_who_answers(self, oracle, n, spec,
                                                checks, counts, witness):
        # each check the store answers was a detector call before there
        # was a store, and the search around it is the one it was then:
        # the same nodes, prunes, dead edges and witness.  The AR bound now
        # also pairs edges through kept copies, so its case pins the sums
        # and counts of that search, with the witness it had before
        report = oracle(n, LF(spec), FAST)
        assert report.exhausted
        assert report.detector_calls + report.reused_copies == checks
        assert (report.nodes_visited, report.pruned_by_rainbow,
                report.pruned_by_bound, report.dead_edges) == counts
        w = report.witness
        assert (w.colors if isinstance(w, EdgeColoring) else w.adj) == witness

    def test_dead_masks_hold_only_the_edges_left(self):
        # dead[i + 1] keeps edge i + k as bit k, so the masks of a path of
        # nodes hold O(m) bits each, not m
        class Checked(_ArProblem):
            def bound(self, i, value, best, stats):
                result = super().bound(i, value, best, stats)
                assert self.dead[i + 1].bit_length() <= len(self.edges) - i
                return result

        res = _dfs(Checked, 6, LF("5").parts, (), 0, 10**9, float("inf"))
        # 1,256 dead edges before the bound matched conflicting alive edges
        assert res["best"] == 6 and res["dead_edges"] == 601


class TestBudgets:
    def test_deadline_is_checked_at_every_node(self):
        report = brute_force_ar(7, LF("4,2"), SearchBudget(max_millis=200))
        assert not report.exhausted
        assert report.elapsed_seconds < 0.4

    @pytest.mark.parametrize("oracle,n,spec", [
        (brute_force_ex, 16, "6,5"), (brute_force_ar, 30, "4,2"),
    ])
    def test_budget_covers_the_whole_call(self, oracle, n, spec):
        # nothing before the search escapes the deadline: a detector proof
        # of a seed would take seconds at these sizes
        start = time.monotonic()
        report = oracle(n, LF(spec), SearchBudget(max_millis=100))
        assert time.monotonic() - start < 1.0
        assert report.stop_reason == "millis"

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("oracle,n,spec,max_nodes", [
        (brute_force_ex, 9, "6,2", 5_000),
        (brute_force_ar, 7, "4,2", 2_000),
    ])
    def test_node_budget_holds_across_tasks(self, oracle, n, spec, max_nodes,
                                            parallelism):
        report = oracle(n, LF(spec), SearchBudget(max_nodes=max_nodes,
                                                  parallelism=parallelism))
        assert not report.exhausted
        assert 0 < report.nodes_visited <= max_nodes
        if parallelism == 1:
            assert report.nodes_visited == max_nodes

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("budget,reason", [
        (dict(max_nodes=5_000_000, max_millis=120_000), "exhausted"),
        (dict(max_nodes=2_000), "nodes"),
        (dict(max_millis=200), "millis"),
    ])
    def test_stop_reason(self, budget, reason, parallelism):
        n, spec = (6, "3,2") if reason == "exhausted" else (7, "4,2")
        report = brute_force_ar(n, LF(spec), SearchBudget(
            parallelism=parallelism, **budget))
        assert report.stop_reason == reason
        assert report.exhausted == (reason == "exhausted")
        assert report.to_json_dict()["stats"]["stop_reason"] == reason

    @pytest.mark.parametrize("oracle,n,spec", [
        (brute_force_ar, 5, "3,2"), (brute_force_ex, 7, "4,2"),
        (brute_force_ar, 6, "5"),
    ])
    def test_oracles_call_the_module_detector(self, monkeypatch, oracle, n,
                                              spec):
        # the search looks the detector up on the rainbow module at each
        # call, so a wrapper sees every call; each hit, and each check
        # answered from a kept copy, prunes one branch or, in the AR bound,
        # marks one edge dead; every call is one of the search's own
        # anchored ones, as the seed needs no detector
        calls = hits = anchored = 0
        detect = rainbow._search_forest

        def counting(*args, **kwargs):
            nonlocal calls, hits, anchored
            result = detect(*args, **kwargs)
            calls += 1
            hits += result is not None
            anchored += kwargs.get("anchor") is not None
            return result

        monkeypatch.setattr(rainbow, "_search_forest", counting)
        report = oracle(n, LF(spec), FAST)
        assert report.exhausted
        assert hits + report.reused_copies == (report.pruned_by_rainbow
                                               + report.dead_edges)
        assert calls == anchored == report.detector_calls
        assert report.pruned_by_rainbow > 0
        assert calls > hits
        assert (report.dead_edges > 0) == (oracle is brute_force_ar)
        # both oracles answer some checks from the copy store (until the
        # store, AR reused nothing)
        assert report.reused_copies > 0
        # the AR bound pairs conflicting edges through kept copies, which
        # the equation above shows to cost no detector call
        assert (report.conflict_pairs > 0) == (oracle is brute_force_ar)

    @pytest.mark.parametrize("oracle,n,spec", [
        (brute_force_ex, 7, "4,2"), (brute_force_ar, 6, "5"),
    ])
    def test_pool_is_capped_at_prefix_count(self, inline_pool, oracle, n,
                                            spec):
        # a forked pool starts all its workers at the first submit, so a
        # huge parallelism must not reach the pool
        par = oracle(n, LF(spec), replace(FAST, parallelism=10_000))
        seq = oracle(n, LF(spec), FAST)
        assert par.exhausted and par.value == seq.value
        assert verify_witness(par, LF(spec))
        [pool] = inline_pool
        assert 0 < pool.max_workers == pool.submitted

    def test_head_finishes_a_search_shallower_than_the_split(
            self, inline_pool):
        # K_3 has fewer edges than the split depth, so the head search
        # reaches every leaf and leaves no prefix for a pool (EX at n <= 3
        # is pruned at the root, so only AR gets that far)
        assert 3 < PARALLEL_EXPAND_LEVELS
        par = brute_force_ar(3, LF("3"), replace(FAST, parallelism=2))
        seq = brute_force_ar(3, LF("3"), FAST)
        assert inline_pool == []
        assert seq.nodes_visited > 1
        assert (replace(par, elapsed_seconds=0.0)
                == replace(seq, elapsed_seconds=0.0))
        assert par.exhausted and verify_witness(par, LF("3"))

    def test_prefixes_left_without_nodes_stop_on_nodes(self, inline_pool):
        # a node budget the head search uses up exactly leaves every prefix
        # without a task, so the search is not exhausted
        head = _dfs(_ArProblem, 7, LF("4,2").parts, (), 0, 10**9,
                    float("inf"), stop_at=PARALLEL_EXPAND_LEVELS)
        assert head["stop_reason"] == "exhausted" and head["frontier"]
        report = brute_force_ar(7, LF("4,2"), SearchBudget(
            max_nodes=head["nodes_visited"], parallelism=2))
        assert report.nodes_visited == head["nodes_visited"]
        assert report.stop_reason == "nodes" and not report.exhausted
        [pool] = inline_pool
        assert pool.submitted == 0

    def test_one_worker_never_imports_the_pool(self):
        # the pool brings in multiprocessing, pickle and socket, about
        # 2 MiB that a sequential search must not pay for
        code = ("import sys\n"
                "from arforest import LinearForest as LF, brute_force_ar, "
                "brute_force_ex\n"
                "assert brute_force_ex(7, LF.parse('4,2')).exhausted\n"
                "assert brute_force_ar(5, LF.parse('3,2')).exhausted\n"
                "print('concurrent.futures' in sys.modules)\n")
        src = str(Path(arforest.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], cwd=src,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"


class TestVerifyWitness:
    def test_accepts_genuine_reports(self):
        forest = LF("3,2")
        assert verify_witness(brute_force_ar(5, forest, FAST), forest)
        assert verify_witness(brute_force_ex(6, forest, FAST), forest)

    def test_rejects_missing_witness(self):
        report = SearchReport(value=3, witness=None, exhausted=True)
        assert not verify_witness(report, LF("2,2"))
        # no witness passes only as the exhausted AR(n, P2) = 0
        for value, exhausted, spec in [(0, False, "2"), (0, True, "2,2"),
                                       (1, True, "2")]:
            assert not verify_witness(
                SearchReport(value, None, exhausted), LF(spec))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_accepts_exact_single_edge_answer(self, n):
        # every coloring has a rainbow P2, so AR(n, P2) = 0 has no witness
        report = brute_force_ar(n, LF("2"), FAST)
        assert report.exhausted and report.value == 0
        assert report.witness is None
        assert verify_witness(report, LF("2"))

    def test_rejects_tampered_value(self):
        forest = LF("2,2")
        report = brute_force_ar(5, forest, FAST)
        assert not verify_witness(replace(report, value=report.value + 1),
                                  forest)

    def test_rejects_recolored_witness(self):
        forest = LF("2,2")
        # the all-rainbow coloring certainly contains a rainbow copy
        fake = SearchReport(value=10, witness=EdgeColoring.all_rainbow(5),
                            exhausted=True)
        assert not verify_witness(fake, forest)

    def test_rejects_graph_with_copy(self):
        from arforest import complete_graph
        fake = SearchReport(value=10, witness=complete_graph(5),
                            exhausted=True)
        assert not verify_witness(fake, LF("2,2"))


class TestReportShape:
    def test_json_dict_fields(self):
        report = brute_force_ar(4, LF("2,2"), FAST)
        d = report.to_json_dict()
        assert d["value"] == 3 and d["exhausted"] is True
        assert set(d["stats"]) == {"nodes", "pruned_by_rainbow",
                                   "pruned_by_bound", "dead_edges",
                                   "detector_calls", "reused_copies",
                                   "conflict_pairs", "stop_reason",
                                   "elapsed_ms"}

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ValueError):
            SearchBudget(parallelism=0)
