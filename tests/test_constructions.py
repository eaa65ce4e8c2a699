import random
from dataclasses import replace

import pytest

import arforest.constructions as constructions
from arforest import (ConstructionError, Graph, InteriorArrangement,
                      LinearForest, ar_linear_forest, ar_path,
                      build_forest_coloring, build_path_coloring,
                      build_turan_extremal, complete_graph, contains_subgraph,
                      ex_linear_forest, find_rainbow, hub_search)

LF = LinearForest.parse


class TestTuranExtremal:
    @pytest.mark.parametrize("spec", ["5,4", "4,2", "5,3", "2,2", "6,3,2"])
    def test_edge_count_matches_formula(self, spec):
        forest = LF(spec)
        lo = max(forest.num_vertices, forest.half_sum + 1)
        for n in range(lo, lo + 15):
            g = build_turan_extremal(n, forest)
            assert g.edge_count == ex_linear_forest(n, forest).value

    @pytest.mark.parametrize("spec", ["4,2", "5,3", "2,2", "3,2"])
    def test_forest_free(self, spec):
        forest = LF(spec)
        for n in range(forest.num_vertices, forest.num_vertices + 5):
            g = build_turan_extremal(n, forest)
            assert contains_subgraph(g, forest) is None

    def test_all_odd_gets_extra_edge(self):
        g_odd = build_turan_extremal(20, LF("5,3"))
        g_even = build_turan_extremal(20, LF("5,4"))
        hub_odd = LF("5,3").half_sum - 1
        assert (hub_odd, hub_odd + 1) in g_odd.edges()
        assert all(u < LF("5,4").half_sum - 1 for u, _ in g_even.edges())

    def test_rejected_shapes(self):
        with pytest.raises(ValueError):
            build_turan_extremal(30, LF("3,3"))
        with pytest.raises(ValueError):
            build_turan_extremal(30, LF("5"))
        with pytest.raises(ValueError):
            build_turan_extremal(5, LF("4,2"))


class TestPathColoring:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_color_count_matches_formula(self, k):
        for n in range(max(k, 5), max(k, 5) + 8):
            c = build_path_coloring(n, k, verify=False)
            assert c.m == ar_path(n, k).value

    @pytest.mark.parametrize("n,k", [(8, 4), (10, 5), (10, 6), (12, 7),
                                     (12, 8), (9, 3)])
    def test_rainbow_free_small(self, n, k):
        c = build_path_coloring(n, k)  # auto-verify kicks in at n <= 12
        assert find_rainbow(c, LF(str(k))) is None

    def test_rejects_k2(self):
        with pytest.raises(ValueError):
            build_path_coloring(10, 2)


class TestForestColoring:
    @pytest.mark.parametrize("spec", ["5,4", "4,2", "3,3,2", "4,4", "6,2"])
    def test_color_count_matches_formula(self, spec):
        forest = LF(spec)
        lo = forest.num_vertices + forest.half_sum
        for n in range(lo, lo + 8):
            c = build_forest_coloring(n, forest, verify=False)
            assert c.m == ar_linear_forest(n, forest).value

    @pytest.mark.parametrize("spec", ["4,2", "3,3,2", "2,2,2", "3,2"])
    def test_rainbow_free_small(self, spec):
        forest = LF(spec)
        n = max(12, forest.num_vertices + forest.half_sum)
        c = build_forest_coloring(n, forest)
        assert find_rainbow(c, forest) is None

    def test_both_arrangements_small(self):
        forest = LF("4,2")
        for arr in InteriorArrangement:
            c = build_forest_coloring(12, forest, arrangement=arr)
            assert c.m == ar_linear_forest(12, forest).value
            assert find_rainbow(c, forest) is None

    def test_verification_failure_raises_with_witness(self):
        # hand the verifier a forest the arrangement cannot block: a bare
        # matching target with a rainbow interior edge next to the hub edges
        forest = LF("4,2")
        c = build_forest_coloring(12, forest, verify=False)
        with pytest.raises(ConstructionError) as err:
            # the coloring built for 4,2 has too many colors for 2,2
            from arforest.constructions import _maybe_verify
            _maybe_verify(c, LF("2,2"), True)
        assert err.value.witness is not None
        assert err.value.witness.is_rainbow

    def test_rejects_single_path(self):
        with pytest.raises(ValueError):
            build_forest_coloring(12, LF("4"))

    def test_rejects_small_host(self):
        with pytest.raises(ValueError):
            build_forest_coloring(8, LF("4,2"))  # needs n >= f+s = 9


class TestFormulaAgreement:
    @pytest.mark.parametrize("formula,build", [
        ("ex_linear_forest", lambda: build_turan_extremal(10, LF("4,2"))),
        ("ar_path", lambda: build_path_coloring(10, 5, verify=False)),
        ("ar_linear_forest",
         lambda: build_forest_coloring(12, LF("4,2"), verify=False)),
    ], ids=["turan", "path", "forest"])
    def test_formula_disagreement_raises(self, monkeypatch, formula, build):
        # a real check, not an assert, so it also holds under python -O
        real = getattr(constructions, formula)
        monkeypatch.setattr(
            constructions, formula,
            lambda *args: replace(real(*args), value=real(*args).value + 1))
        with pytest.raises(ConstructionError, match="formula gives"):
            build()


class TestHubSearch:
    def test_star_prefers_center(self):
        star = Graph.from_edges(8, [(0, i) for i in range(1, 8)])
        hub, size = hub_search(star, {0, 1}, 1)
        assert hub == (0,)
        assert size == 6

    def test_complete_graph_tie_breaks_lexicographically(self):
        hub, size = hub_search(complete_graph(6), {0, 1, 2, 3}, 2)
        assert hub == (0, 1)
        assert size == 2

    def test_equivariant_under_relabeling(self):
        rng = random.Random(13)
        from arforest import lex_edges
        for _ in range(20):
            n = 8
            edges = [e for e in lex_edges(n) if rng.random() < 0.4]
            g = Graph.from_edges(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = Graph.from_edges(
                n, [(perm[u], perm[v]) for u, v in edges])
            planted = {0, 1, 2, 3}
            _, size1 = hub_search(g, planted, 2)
            _, size2 = hub_search(g2, {perm[v] for v in planted}, 2)
            assert size1 == size2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hub_search(complete_graph(4), {0, 9}, 1)
        with pytest.raises(ValueError):
            hub_search(complete_graph(4), {0}, 2)
