from fractions import Fraction

import pytest

from arforest import (LinearForest, OutOfValidityError, UnsupportedForestError,
                      ar_asymptotic_coefficient, ar_linear_forest, ar_matching,
                      ar_path, erdos_gallai_bound, ex_k_p3, ex_linear_forest)

LF = LinearForest.parse


class TestArPath:
    @pytest.mark.parametrize("n,k,expected", [
        (20, 5, 20), (20, 4, 2), (10, 3, 1),
    ])
    def test_pinned_values(self, n, k, expected):
        assert ar_path(n, k).value == expected

    def test_epsilon_tracks_parity(self):
        assert ar_path(20, 4).epsilon == 1
        assert ar_path(20, 5).epsilon == 0

    def test_range_errors(self):
        with pytest.raises(OutOfValidityError):
            ar_path(3, 4)
        with pytest.raises(OutOfValidityError):
            ar_path(10, 2)  # a single edge is always rainbow


class TestArMatching:
    @pytest.mark.parametrize("n,t,expected", [
        (5, 2, 1), (20, 4, 38), (10, 3, 10),
    ])
    def test_pinned_values(self, n, t, expected):
        assert ar_matching(n, t).value == expected

    def test_constant_for_two_edges(self):
        assert all(ar_matching(n, 2).value == 1 for n in range(5, 40))

    def test_below_validity_rejected(self):
        with pytest.raises(OutOfValidityError):
            ar_matching(6, 3)  # needs n >= 7


class TestArLinearForest:
    @pytest.mark.parametrize("n,spec,expected", [
        (20, "5,4", 39), (20, "4,2", 20), (20, "3,3,2", 21),
    ])
    def test_pinned_values(self, n, spec, expected):
        assert ar_linear_forest(n, LF(spec)).value == expected

    def test_epsilon_cases(self):
        assert ar_linear_forest(20, LF("5,4")).epsilon == 1
        assert ar_linear_forest(20, LF("4,2")).epsilon == 0

    def test_all_odd_unsupported(self):
        with pytest.raises(UnsupportedForestError):
            ar_linear_forest(20, LF("5,3"))

    def test_single_path_redirected(self):
        with pytest.raises(UnsupportedForestError):
            ar_linear_forest(20, LF("4"))

    def test_leading_coefficient_matches_asymptotic(self):
        for spec in ("5,4", "4,2", "4,3", "4,4", "3,3,2", "6,2,2"):
            forest = LF(spec)
            coeff = ar_asymptotic_coefficient(forest)
            assert coeff == forest.half_sum - 2
            lo = forest.num_vertices + 3
            for n in range(lo, lo + 10):
                delta = (ar_linear_forest(n, forest).value
                         - ar_linear_forest(n - 1, forest).value)
                assert delta == coeff

    def test_ar_below_turan(self):
        for spec in ("5,4", "4,2", "4,3", "4,4", "6,2"):
            forest = LF(spec)
            for n in range(forest.num_vertices + 4,
                           forest.num_vertices + 25):
                assert (ar_linear_forest(n, forest).value
                        < ex_linear_forest(n, forest).value)

    def test_values_positive(self):
        for spec in ("5,4", "4,2", "3,3,2"):
            forest = LF(spec)
            for n in range(forest.num_vertices, forest.num_vertices + 20):
                assert ar_linear_forest(n, forest).value >= 1


class TestAsymptoticCoefficient:
    @pytest.mark.parametrize("spec,expected", [
        ("5,4", 2), ("3,3", 1), ("2,2", 0),
    ])
    def test_pinned_values(self, spec, expected):
        assert ar_asymptotic_coefficient(LF(spec)) == expected


class TestErdosGallai:
    @pytest.mark.parametrize("n,k,expected", [
        (10, 5, 15), (7, 2, 0), (6, 4, 6),
    ])
    def test_pinned_values(self, n, k, expected):
        assert erdos_gallai_bound(n, k) == expected

    def test_exact_rational(self):
        assert erdos_gallai_bound(7, 5) == Fraction(21, 2)

    @pytest.mark.parametrize("n,k", [(7, 1), (7, 0), (0, 5)])
    def test_below_validity_rejected(self, n, k):
        # k = 1 would give the negative -n/2
        with pytest.raises(OutOfValidityError):
            erdos_gallai_bound(n, k)


class TestExKP3:
    @pytest.mark.parametrize("n,k,expected", [
        (7, 1, 3), (14, 2, 19), (21, 3, 48),
    ])
    def test_pinned_values(self, n, k, expected):
        assert ex_k_p3(n, k).value == expected

    def test_below_validity_rejected(self):
        with pytest.raises(OutOfValidityError):
            ex_k_p3(13, 2)


class TestExLinearForest:
    @pytest.mark.parametrize("n,spec,expected", [
        (20, "5,4", 54), (20, "5,3", 38), (20, "2,2", 19),
    ])
    def test_pinned_values(self, n, spec, expected):
        assert ex_linear_forest(n, LF(spec)).value == expected

    def test_all_threes_redirected(self):
        with pytest.raises(UnsupportedForestError):
            ex_linear_forest(30, LF("3,3"))
