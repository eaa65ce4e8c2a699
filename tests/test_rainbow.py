import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arforest import (EdgeColoring, Embedding, Graph, LinearForest,
                      RecombinationError, common_neighborhood, complete_graph,
                      contains_subgraph, find_rainbow, lex_edges, norm_edge,
                      rainbow, recombine_representing, representing_graphs,
                      sample_representing)
from reference import (naive_contains, naive_has_anchored_rainbow,
                       naive_has_rainbow)

LF = LinearForest.parse


def random_coloring(rng: random.Random, n: int) -> EdgeColoring:
    ne = n * (n - 1) // 2
    m = rng.randint(1, ne)
    # force surjectivity, then shuffle over the edge order
    assign = list(range(m)) + [rng.randrange(m) for _ in range(ne - m)]
    rng.shuffle(assign)
    return EdgeColoring(n, assign).canonical()


SMALL_SPECS = ("2", "3", "4", "5", "6", "2,2", "3,2", "4,2", "3,3", "2,2,2")


@st.composite
def anchored_partial_colorings(draw):
    """A partially colored K_n (n <= 6), a colored anchor edge or, about
    half the time, None, and a linear forest on at most n vertices: the
    inputs the AR oracle's detector gets, plus unanchored sparse hosts."""
    n = draw(st.integers(2, 6))
    edges = lex_edges(n)
    # sparse hosts as often as dense ones; any anchor is the first edge
    colored = draw(st.permutations(edges))[:draw(st.integers(1, len(edges)))]
    colors = draw(st.lists(st.integers(0, 4), min_size=len(colored),
                           max_size=len(colored)))
    color_of = dict(zip(colored, colors))
    anchor = colored[0] if draw(st.booleans()) else None
    spec = draw(st.sampled_from([s for s in SMALL_SPECS
                                 if LF(s).num_vertices <= n]))
    return n, color_of, LF(spec), anchor


@st.composite
def anchored_graphs(draw):
    """A graph on n <= 6 vertices, one of its edges as the anchor or, about
    half the time, None, and a linear forest on at most n vertices: the
    inputs the EX oracle's detector gets, plus unanchored sparse hosts."""
    n = draw(st.integers(2, 6))
    pairs = lex_edges(n)
    edges = draw(st.permutations(pairs))[:draw(st.integers(1, len(pairs)))]
    spec = draw(st.sampled_from([s for s in SMALL_SPECS
                                 if LF(s).num_vertices <= n]))
    anchor = edges[0] if draw(st.booleans()) else None
    return Graph.from_edges(n, edges), LF(spec), anchor


def partial_host(n: int, color_of: dict):
    """Adjacency bitmasks and symmetric color matrix of the colored edges."""
    adj = [0] * n
    col = [[-1] * n for _ in range(n)]
    for (u, v), c in color_of.items():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        col[u][v] = col[v][u] = c
    return adj, col


def check_anchored_rainbow(n: int, color_of: dict, forest: LinearForest,
                           anchor) -> bool:
    """Compare the detector on a partially colored K_n with the naive
    reference, check any copy it returns, and return whether it found one."""
    adj, col = partial_host(n, color_of)
    paths = rainbow._search_forest(n, adj, forest.parts, col=col,
                                   anchor=anchor)
    assert (paths is not None) == naive_has_anchored_rainbow(
        n, color_of, forest, anchor)
    if paths is not None:
        assert list(map(len, paths)) == list(forest.parts)
        assert len({v for seq in paths for v in seq}) == forest.num_vertices
        used = [norm_edge(a, b) for seq in paths
                for a, b in zip(seq, seq[1:])]
        assert anchor is None or anchor in used
        colors = [color_of[e] for e in used]
        assert len(set(colors)) == len(colors)
    return paths is not None


def check_anchored(g: Graph, forest: LinearForest, anchor) -> bool:
    """Compare the detector on a plain graph with the naive reference, check
    any copy it returns, and return whether it found one."""
    paths = rainbow._search_forest(g.n, g.adj, forest.parts, anchor=anchor)
    edges = {(u, v) for u, v in lex_edges(g.n) if g.adj[u] >> v & 1}
    assert (paths is not None) == naive_contains(g.n, edges, forest, anchor)
    if paths is not None:
        # the embedding checks the part lengths and that no vertex repeats
        emb = Embedding(forest, tuple(paths))
        assert all(g.adj[u] >> v & 1 for u, v in emb.used_edges)
        assert anchor is None or anchor in emb.used_edges
    return paths is not None


class TestFindRainbow:
    def test_all_rainbow_host(self):
        emb = find_rainbow(EdgeColoring.all_rainbow(6), LF("3,2"))
        assert emb is not None
        assert len(set(emb.used_colors)) == len(emb.used_colors) == 3

    def test_monochromatic_host(self):
        assert find_rainbow(EdgeColoring.monochromatic(8), LF("2,2")) is None

    def test_construction_is_rainbow_free(self):
        from arforest import build_forest_coloring
        coloring = build_forest_coloring(12, LF("4,2"))
        assert find_rainbow(coloring, LF("4,2")) is None

    def test_embedding_is_validated(self):
        c = EdgeColoring.all_rainbow(7)
        emb = find_rainbow(c, LF("4,3"))
        assert emb is not None
        assert emb.used_colors == tuple(c.color(u, v)
                                        for u, v in emb.used_edges)
        assert len(set(emb.used_colors)) == len(emb.used_colors)

    def test_quick_reject_agrees_with_search(self):
        # fewer colors than forest edges: both paths must say no
        rng = random.Random(3)
        forest = LF("4,2")
        for _ in range(20):
            n = rng.randint(6, 8)
            ne = n * (n - 1) // 2
            m = rng.randint(1, forest.num_edges - 1)
            assign = list(range(m)) + [rng.randrange(m) for _ in range(ne - m)]
            rng.shuffle(assign)
            c = EdgeColoring(n, assign).canonical()
            assert find_rainbow(c, forest) is None
            assert not naive_has_rainbow(c, forest)

    def test_quick_reject_builds_no_matrix(self, monkeypatch):
        def matrix(self):
            raise AssertionError("color matrix built for a quick reject")

        monkeypatch.setattr(EdgeColoring, "matrix", matrix)
        assert find_rainbow(EdgeColoring.monochromatic(12), LF("2,2")) is None

    def test_agrees_with_naive_on_random_colorings(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(4, 5)
            c = random_coloring(rng, n)
            forest = LF(rng.choice(["2,2", "3,2", "4", "2,2,2"][:3 if n == 4 else 4]))
            assert (find_rainbow(c, forest) is not None) == \
                naive_has_rainbow(c, forest)

    def test_invariant_under_color_permutation(self):
        rng = random.Random(5)
        for _ in range(25):
            c = random_coloring(rng, 6)
            perm = list(range(c.m))
            rng.shuffle(perm)
            permuted = EdgeColoring(c.n, [perm[cid] for cid in c.colors])
            for spec in ("2,2", "3,2"):
                assert (find_rainbow(c, LF(spec)) is None) == \
                    (find_rainbow(permuted, LF(spec)) is None)

    def test_invariant_under_vertex_permutation(self):
        rng = random.Random(6)
        for _ in range(25):
            c = random_coloring(rng, 6)
            vperm = list(range(c.n))
            rng.shuffle(vperm)
            # the edge that lands on lex edge (u, v) is (vinv[u], vinv[v])
            vinv = sorted(range(c.n), key=vperm.__getitem__)
            moved = EdgeColoring(c.n, [
                c.color(vinv[u], vinv[v])
                for u, v in lex_edges(c.n)]).canonical()
            for spec in ("2,2", "3,2"):
                assert (find_rainbow(c, LF(spec)) is None) == \
                    (find_rainbow(moved, LF(spec)) is None)


class TestFindRainbowPartial:
    @settings(max_examples=300, deadline=None)
    @given(anchored_partial_colorings())
    def test_anchored_agrees_with_naive(self, case):
        check_anchored_rainbow(*case)


class TestContainsSubgraph:
    @settings(max_examples=300, deadline=None)
    @given(anchored_graphs())
    def test_anchored_agrees_with_naive(self, case):
        check_anchored(*case)

    def test_hamiltonian_path_of_k4(self):
        assert contains_subgraph(complete_graph(4), LF("4")) is not None

    def test_perfect_matching_has_no_p3(self):
        pm = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        assert contains_subgraph(pm, LF("3")) is None

    def test_turan_extremal_is_forest_free(self):
        from arforest import build_turan_extremal
        g = build_turan_extremal(20, LF("5,4"))
        assert contains_subgraph(g, LF("5,4")) is None

    def test_monotone_under_edge_addition(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(5, 8)
            pairs = lex_edges(n)
            sub = [e for e in pairs if rng.random() < 0.3]
            extra = [e for e in pairs if e not in sub and rng.random() < 0.3]
            g_small = Graph.from_edges(n, sub)
            g_big = Graph.from_edges(n, sub + extra)
            for spec in ("3,2", "4", "2,2"):
                if contains_subgraph(g_small, LF(spec)) is not None:
                    assert contains_subgraph(g_big, LF(spec)) is not None


class TestLongAnchoredArms:
    """The strategies above stop at n = 6, so no arm grown from an anchor
    end there has more than 4 vertices; at n = 7 a P7 through an end edge
    has an arm of 5.  Each forest here has 7 vertices and a part of at
    least 3, and is anchored at every edge of its host."""

    SPECS = ("7", "5,2", "4,3", "3,2,2")

    @pytest.mark.parametrize("seed", [2, 3])
    def test_agrees_with_naive_at_every_anchor(self, seed):
        # a Hamiltonian path plus random chords, so some anchors close a
        # copy and some do not; the path edges get distinct colors
        rng = random.Random(seed)
        order = rng.sample(range(7), 7)
        path = [norm_edge(a, b) for a, b in zip(order, order[1:])]
        edges = path + [e for e in lex_edges(7)
                        if e not in path and rng.random() < 0.25]
        colors = rng.sample(range(6), 6) + [rng.randrange(6)
                                            for _ in edges[6:]]
        g, color_of = Graph.from_edges(7, edges), dict(zip(edges, colors))
        for spec in self.SPECS:
            plain = [check_anchored(g, LF(spec), e) for e in edges]
            colored = [check_anchored_rainbow(7, color_of, LF(spec), e)
                       for e in edges]
            assert any(plain) and any(colored) and not all(colored)


class TestRepresentingGraphs:
    def test_total_count_product(self):
        c = EdgeColoring(4, [0, 0, 1, 1, 1, 0])
        enum = representing_graphs(c, 100)
        assert enum.total_count == 9
        reps = list(enum)
        assert len(reps) == 9 and not enum.truncated
        seen = {rep.chosen for rep in reps}
        assert len(seen) == 9

    def test_all_rainbow_single_member(self):
        c = EdgeColoring.all_rainbow(5)
        enum = representing_graphs(c, 10)
        reps = list(enum)
        assert enum.total_count == 1
        assert reps[0].graph == complete_graph(5)

    def test_monochromatic_k4(self):
        enum = representing_graphs(EdgeColoring.monochromatic(4), 100)
        reps = list(enum)
        assert enum.total_count == 6
        assert all(rep.graph.edge_count == 1 for rep in reps)

    def test_cap_truncates(self):
        enum = representing_graphs(EdgeColoring.monochromatic(4), 2)
        assert len(list(enum)) == 2
        assert enum.truncated

    def test_each_member_valid(self):
        c = EdgeColoring(4, [0, 1, 0, 1, 2, 2])
        for rep in representing_graphs(c, 100):
            for cid, e in enumerate(rep.chosen):
                assert c.color_of[e] == cid
            assert rep.graph.edge_count == c.m


class TestSampleRepresenting:
    def test_forced_choice(self):
        c = EdgeColoring.all_rainbow(5)
        assert sample_representing(c, 42).graph == complete_graph(5)

    def test_deterministic(self):
        c = EdgeColoring(4, [0, 0, 1, 1, 2, 2])
        assert sample_representing(c, 3) == sample_representing(c, 3)

    def test_seed_sweep_varies_both_classes(self):
        # two classes of size 2 on K_4's first four edges is impossible;
        # use a 4-vertex coloring with classes {2, 2, 2}
        c = EdgeColoring(4, [0, 0, 1, 1, 2, 2])
        firsts = {sample_representing(c, s).chosen[0] for s in range(16)}
        seconds = {sample_representing(c, s).chosen[1] for s in range(16)}
        assert len(firsts) == 2 and len(seconds) == 2


class TestEquivalenceWithRepresentingContainment:
    def test_rainbow_iff_some_representing_contains(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(4, 6)
            c = random_coloring(rng, n)
            forest = LF(rng.choice(["2,2", "3,2", "4"]))
            enum = representing_graphs(c, 100_000)
            assert enum.total_count <= 100_000
            via_reps = any(contains_subgraph(rep.graph, forest) is not None
                           for rep in enum)
            assert (find_rainbow(c, forest) is not None) == via_reps


class TestRecombination:
    def _instance(self, seed):
        rng = random.Random(seed)
        c = random_coloring(rng, 12)
        rep1 = sample_representing(c, seed)
        rep2 = sample_representing(c, seed + 10_000)
        return c, rep1, rep2

    def test_empty_w_returns_first(self):
        c, rep1, rep2 = self._instance(0)
        assert recombine_representing(c, {0, 1}, set(), 3, rep1, rep2) is rep1

    def test_precondition_errors_name_cardinality(self):
        c = EdgeColoring.all_rainbow(6)
        rep = sample_representing(c, 0)
        sparse = EdgeColoring.monochromatic(6)
        rep_sparse = sample_representing(sparse, 0)
        with pytest.raises(RecombinationError):
            recombine_representing(c, {0, 1}, {3}, 3, rep_sparse, rep)

    @pytest.mark.parametrize("set_w", [{3}, set()])
    def test_negative_s_is_rejected(self, set_w):
        # sorted(...)[:s] would slice from the end instead of failing
        c = EdgeColoring.all_rainbow(6)
        rep = sample_representing(c, 0)
        with pytest.raises(ValueError, match="s must be nonnegative"):
            recombine_representing(c, {0, 1}, set_w, -1, rep, rep)

    def test_randomized_instances(self):
        done = 0
        seed = 0
        while done < 30 and seed < 4000:
            c, rep1, rep2 = self._instance(seed)
            seed += 1
            set_u, set_w, s = {0, 1}, {5}, 3
            if len(common_neighborhood(rep1.graph, set_u)) < s:
                continue
            if len(common_neighborhood(rep2.graph, set_w)) < s + s * 2:
                continue
            merged = recombine_representing(c, set_u, set_w, s, rep1, rep2)
            assert len(common_neighborhood(merged.graph, set_u)) >= s
            assert len(common_neighborhood(merged.graph, set_w)) >= s
            # output is a representing graph of the same coloring
            for cid, e in enumerate(merged.chosen):
                assert c.color_of[e] == cid
            done += 1
        assert done == 30
