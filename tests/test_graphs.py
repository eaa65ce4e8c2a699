import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arforest import (EdgeColoring, Embedding, Graph, GraphFormatError,
                      LinearForest, common_neighborhood, complete_graph,
                      graph6_decode, graph6_encode, lex_edges)


def random_graph(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = lex_edges(n)
    mask = draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    return Graph.from_edges(n, edges)


graphs = st.composite(random_graph)


class TestGraph:
    def test_complete_graph_edge_counts(self):
        assert complete_graph(1).edge_count == 0
        assert complete_graph(4).edge_count == 6
        assert complete_graph(10).edge_count == 45

    def test_complete_graph_rejects_zero(self):
        with pytest.raises(ValueError):
            complete_graph(0)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b10))  # self-loops

    def test_edges_roundtrip(self):
        g = Graph.from_edges(5, [(0, 1), (3, 1), (2, 4)])
        assert g.adj == (1 << 1, 1 << 0 | 1 << 3, 1 << 4, 1 << 1, 1 << 2)
        assert g.edge_count == 3

    @pytest.mark.parametrize("edge", [(-2, -1), (-1, 2), (1, 3), (3, 4)])
    def test_from_edges_rejects_out_of_range(self, edge):
        with pytest.raises(ValueError, match="out of range for n=3"):
            Graph.from_edges(3, [edge])


class TestCommonNeighborhood:
    def test_complete(self):
        assert common_neighborhood(complete_graph(5), {0, 1}) == {2, 3, 4}

    def test_path_middle(self):
        p = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert common_neighborhood(p, {0, 2}) == {1}

    def test_star_center(self):
        star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        assert common_neighborhood(star, {1, 2}) == {0}

    def test_empty_set_gives_all(self):
        assert common_neighborhood(complete_graph(3), set()) == {0, 1, 2}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            common_neighborhood(complete_graph(3), {5})

    @given(graphs(), st.integers(0, 11), st.integers(0, 11))
    def test_antitone(self, g, a, b):
        a, b = a % g.n, b % g.n
        smaller = common_neighborhood(g, {a})
        larger = common_neighborhood(g, {a, b})
        assert larger <= smaller


class TestLinearForest:
    def test_parse_sorts_descending(self):
        f = LinearForest.parse("2,5,4")
        assert f.parts == (5, 4, 2)
        assert f.num_vertices == 11
        assert f.half_sum == 2 + 2 + 1
        assert f.even_count == 2
        assert not f.all_odd

    def test_rejects_small_parts(self):
        with pytest.raises(ValueError):
            LinearForest.parse("3,1")
        with pytest.raises(ValueError):
            LinearForest.parse("")

    def test_derivations(self):
        f = LinearForest.parse("3,3")
        assert (f.k, f.num_vertices, f.half_sum, f.num_edges) == (2, 6, 2, 4)
        assert f.all_odd


class TestEdgeColoring:
    def test_dense_ids_required(self):
        with pytest.raises(ValueError, match="dense"):
            EdgeColoring(3, (2, 0, 0))  # gap at id 1

    def test_must_cover_all_pairs(self):
        # one color per edge of K_3, no fewer and no more
        for colors in ((0, 0), (0, 0, 0, 0)):
            with pytest.raises(ValueError, match="K_3 has 3 edges"):
                EdgeColoring(3, colors)

    def test_surjectivity_invariant(self):
        c = EdgeColoring(4, [0, 1, 2, 0, 1, 3])
        assert c.m == 4
        assert max(c.color_of.values()) + 1 == c.m

    def test_color_rejects_bad_endpoints(self):
        # K_4's lex edges: 01 02 03 12 13 23
        c = EdgeColoring(4, [0, 1, 2, 0, 1, 3])
        assert c.color(2, 1) == c.color(1, 2) == 0
        assert c.color(3, 2) == 3
        for u, v in [(-1, 2), (0, 4), (2, -1), (4, 5)]:
            with pytest.raises(KeyError):
                c.color(u, v)
        with pytest.raises(ValueError):
            c.color(2, 2)

    def test_from_assignment_checks_length_and_ids(self):
        for assign in ([0] * 5, [0] * 7, [0, 0, 0, 0, 0, 2]):
            with pytest.raises(ValueError):
                EdgeColoring.from_assignment(4, assign)
        with pytest.raises(ValueError):
            EdgeColoring.from_assignment(0, [])

    def test_color_of_is_a_read_only_view(self):
        assign = [0, 1, 2, 0, 1, 3]
        c = EdgeColoring(4, assign)
        assert c.colors == tuple(assign)
        assert dict(c.color_of) == dict(zip(lex_edges(4), assign))
        assert (1, 0) not in c.color_of and (0, 4) not in c.color_of
        with pytest.raises(KeyError):
            c.color_of[(2, 1)]
        with pytest.raises(TypeError):
            c.color_of[(0, 1)] = 1
        assert c.to_text() == "4 4\n0 1 0\n0 2 1\n0 3 2\n1 2 0\n1 3 1\n2 3 3\n"
        assert EdgeColoring(4, c.color_of.values()) == c

    def test_canonical_identifies_relabelings(self):
        c1 = EdgeColoring(4, [0, 1, 1, 0, 2, 2])
        c2 = EdgeColoring(4, [2, 0, 0, 2, 1, 1])
        assert c1 != c2
        assert c1.canonical() == c2.canonical()

    def test_text_roundtrip(self):
        c = EdgeColoring(4, [0, 1, 2, 0, 1, 3])
        assert EdgeColoring.from_text(c.to_text()) == c

    def test_text_errors_carry_offsets(self):
        with pytest.raises(GraphFormatError):
            EdgeColoring.from_text("")
        text = "3 1\n0 1 0\n0 2 0\n1 2 9\n"
        with pytest.raises(GraphFormatError) as err:
            EdgeColoring.from_text(text)
        assert err.value.offset == text.index("1 2 9")

    @pytest.mark.parametrize("bad", [
        "0 1 0", "0 3 0", "-1 2 0", "2 1 0", "1 1 0", "0 2", "0 2 0 0",
        "0 x 0", "0 2 0.5",
    ], ids=["duplicate-edge", "out-of-range", "negative-vertex", "u-above-v",
            "self-loop", "two-tokens", "four-tokens", "non-integer",
            "non-integer-color"])
    def test_edge_line_errors_carry_their_line_offset(self, bad):
        # the bad line takes the place of edge 02 of a valid K_3 file
        text = f"3 1\n0 1 0\n{bad}\n1 2 0\n"
        with pytest.raises(GraphFormatError) as err:
            EdgeColoring.from_text(text)
        assert err.value.offset == len("3 1\n0 1 0\n")

    @pytest.mark.parametrize("text", [
        "3 1\n0 1 0\n", "3 1\n0 1 0\n\n0 2 0\n", "0 0\n", "-2 1\n",
        "2 2\n0 1 1\n",
    ], ids=["missing-edges", "blank-line-for-an-edge", "no-vertices",
            "negative-n", "unused-color"])
    def test_text_shape_errors_are_format_errors(self, text):
        with pytest.raises(GraphFormatError):
            EdgeColoring.from_text(text)

    def test_oversized_header_fails_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="edge lines"):
                EdgeColoring.from_text("100000 1\n0 1 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestEmbedding:
    def test_distinctness_enforced(self):
        f = LinearForest.parse("2,2")
        with pytest.raises(ValueError):
            Embedding(f, ((0, 1), (1, 2)))

    def test_used_edges(self):
        f = LinearForest.parse("3,2")
        emb = Embedding(f, ((0, 1, 2), (3, 4)))
        assert emb.used_edges == ((0, 1), (1, 2), (3, 4))


class TestGraph6:
    def test_k1_single_header(self):
        assert graph6_encode(complete_graph(1)) == "@"

    def test_known_small(self):
        # K4 is n-header 'C' plus all-ones upper triangle
        assert graph6_encode(complete_graph(4)) == "C~"
        assert graph6_decode("C~") == complete_graph(4)

    @given(graphs(max_n=62))
    @settings(max_examples=200)
    def test_roundtrip(self, g):
        assert graph6_decode(graph6_encode(g)) == g

    def test_roundtrip_preserves_edge_count_n7(self):
        import random
        rng = random.Random(7)
        edges = [e for e in lex_edges(7) if rng.random() < 0.5]
        g = Graph.from_edges(7, edges)
        assert graph6_decode(graph6_encode(g)).edge_count == len(edges)

    def test_malformed_inputs(self):
        with pytest.raises(GraphFormatError) as err:
            graph6_decode("C")  # truncated payload for n=4
        assert err.value.offset is not None
        with pytest.raises(GraphFormatError):
            graph6_decode("C~~")  # trailing bytes
        with pytest.raises(GraphFormatError):
            graph6_decode("C\x1f")  # out-of-range character
        with pytest.raises(GraphFormatError):
            graph6_decode("")
