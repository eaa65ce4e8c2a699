from dataclasses import replace

import pytest

import arforest.constructions as constructions
from arforest import (ConstructionError, InteriorArrangement, LinearForest,
                      OutOfValidityError, UnsupportedForestError,
                      ar_linear_forest, ar_path, build_forest_coloring,
                      build_path_coloring, build_turan_extremal,
                      complete_graph, contains_subgraph, ex_linear_forest,
                      find_rainbow, lex_edges)

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
        assert g_odd.adj[hub_odd] >> hub_odd + 1 & 1
        # every edge of the even graph has an end in the hub
        hub_even = LF("5,4").half_sum - 1
        assert not any(g_even.adj[v] >> hub_even
                       for v in range(hub_even, g_even.n))

    def test_check_free_raises_on_a_graph_with_a_copy(self):
        forest = LF("4,2")
        with pytest.raises(ConstructionError) as err:
            constructions.check_free(complete_graph(10), forest)
        assert err.value.witness.forest == forest
        assert str(err.value) == "construction holds a copy of P4+P2 at n=10"

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
            constructions.check_free(c, LF("2,2"))
        colors = err.value.witness.used_colors
        assert len(set(colors)) == len(colors) == 2

    def test_arrangement_by_value(self):
        # 3,2 has two interior colors, so the arrangements differ
        forest = LF("3,2")
        for arr in InteriorArrangement:
            assert (build_forest_coloring(7, forest, arr.value)
                    == build_forest_coloring(7, forest, arr))
        with pytest.raises(ValueError, match="no-such-arrangement"):
            build_forest_coloring(7, forest, "no-such-arrangement")

    def test_rejects_single_path(self):
        with pytest.raises(ValueError):
            build_forest_coloring(12, LF("4"))

    def test_rejects_small_host(self):
        with pytest.raises(ValueError):
            build_forest_coloring(8, LF("4,2"))  # needs n >= f+s = 9


class TestFormulaErrors:
    # each builder takes its inputs from its formula, so it raises the
    # formula's typed error, not one of its own
    @pytest.mark.parametrize("build,error", [
        (lambda: build_turan_extremal(5, LF("4,2")), OutOfValidityError),
        (lambda: build_turan_extremal(12, LF("3,3")), UnsupportedForestError),
        (lambda: build_turan_extremal(12, LF("4")), UnsupportedForestError),
        (lambda: build_forest_coloring(12, LF("3,3")), UnsupportedForestError),
        (lambda: build_forest_coloring(7, LF("3,3")), UnsupportedForestError),
        (lambda: build_forest_coloring(12, LF("4")), UnsupportedForestError),
        (lambda: build_path_coloring(3, 2), OutOfValidityError),
        (lambda: build_path_coloring(4, 5), OutOfValidityError),
    ], ids=["turan-small", "turan-all-3", "turan-path", "forest-all-odd",
            "forest-all-odd-small", "forest-path", "path-k2", "path-small"])
    def test_builder_raises_its_formulas_error(self, build, error):
        with pytest.raises(error):
            build()


class TestCheckFree:
    @pytest.mark.parametrize("n,ran", [(12, True), (13, False)])
    def test_returns_whether_the_detector_ran(self, monkeypatch, n, ran):
        calls = []
        monkeypatch.setattr(constructions, "find_rainbow",
                            lambda *a: calls.append(a) or find_rainbow(*a))
        c = build_forest_coloring(n, LF("4,2"), verify=False)
        assert constructions.check_free(c, LF("4,2")) is ran
        assert len(calls) == ran

    def test_builders_skip_it_when_told(self, monkeypatch):
        calls = []
        monkeypatch.setattr(constructions, "check_free",
                            lambda *a: calls.append(a))
        build_path_coloring(10, 5, verify=False)
        build_forest_coloring(10, LF("4,2"), verify=False)
        assert calls == []
        build_path_coloring(10, 5)
        build_forest_coloring(10, LF("4,2"))
        assert len(calls) == 2


def coloring_text(n: int, colors: list[int]) -> str:
    """The coloring file of K_n with the given colors in lex edge order."""
    return f"{n} {len(set(colors))}\n" + "".join(
        f"{u} {v} {c}\n" for (u, v), c in zip(lex_edges(n), colors))


class TestPinnedText:
    # hub colors first, hub-internal then hub-to-interior in lex order,
    # then the interior base color, then the interior's second color
    def test_path_coloring(self):
        assert build_path_coloring(6, 6).to_text() == (
            "6 7\n0 1 0\n0 2 1\n0 3 2\n0 4 3\n0 5 4\n1 2 6\n1 3 5\n"
            "1 4 5\n1 5 5\n2 3 5\n2 4 5\n2 5 5\n3 4 5\n3 5 5\n4 5 5\n")

    @pytest.mark.parametrize("arrangement", list(InteriorArrangement))
    def test_forest_coloring_one_interior_color(self, arrangement):
        # 4,2 has two even parts: hub {0}, one interior color
        c = build_forest_coloring(9, LF("4,2"), arrangement)
        assert c.to_text() == coloring_text(9, list(range(8)) + [8] * 28)

    @pytest.mark.parametrize("arrangement,first_row", [
        (InteriorArrangement.SINGLE_EDGE_SECOND_COLOR, [1, 0, 0, 0, 0, 0]),
        (InteriorArrangement.MONOCHROMATIC_INTERIOR, [1] * 6),
    ])
    def test_forest_coloring_two_interior_colors(self, arrangement,
                                                 first_row):
        # 3,2 has one even part: no hub, two interior colors
        c = build_forest_coloring(7, LF("3,2"), arrangement)
        assert c.to_text() == coloring_text(7, first_row + [0] * 15)


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

    @pytest.mark.parametrize("formula,build", [
        ("ex_linear_forest", lambda: build_turan_extremal(10, LF("5,3"))),
        ("ar_path", lambda: build_path_coloring(10, 6, verify=False)),
        ("ar_linear_forest",
         lambda: build_forest_coloring(12, LF("3,2"), verify=False)),
    ], ids=["turan", "path", "forest"])
    def test_each_builder_asks_its_formula_once(self, monkeypatch, formula,
                                                build):
        calls = []
        real = getattr(constructions, formula)
        monkeypatch.setattr(constructions, formula,
                            lambda *args: calls.append(args) or real(*args))
        build()
        assert len(calls) == 1

