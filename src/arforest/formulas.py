"""Closed-form anti-Ramsey and Turan values for paths, matchings and linear forests.

All arithmetic is exact (Python ints / Fraction).  Inputs outside a formula's
known validity range raise a typed error instead of returning a silently wrong
number; the small-n oracles exist precisely to probe that regime.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .graphs import LinearForest


class OutOfValidityError(ValueError):
    """Input outside the range for which the formula is known to hold."""


class UnsupportedForestError(ValueError):
    """Forest shape not covered by this formula (e.g. all parts odd)."""


@dataclass(frozen=True)
class FormulaResult:
    value: int
    epsilon: Optional[int]
    validity: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("formula values are nonnegative")


def ar_path(n: int, k: int) -> FormulaResult:
    """Max colors on K_n with no rainbow path on k vertices (k >= 3).

    k = 2 is degenerate: a single edge is always rainbow, so no coloring
    qualifies and the formula does not apply.
    """
    if k < 3:
        raise OutOfValidityError(
            "ar_path needs k >= 3 (a single edge is always rainbow)")
    if n < k:
        raise OutOfValidityError(f"n={n} < k={k}: no path on k vertices fits")
    h = (k - 1) // 2 - 1
    eps = 1 if k % 2 == 0 else 0
    value = comb(h, 2) + h * (n - h) + 1 + eps
    return FormulaResult(value, eps, "n sufficiently large")


def ar_matching(n: int, t: int) -> FormulaResult:
    """Max colors on K_n with no rainbow matching of t edges; needs n >= 2t+1."""
    if t < 2:
        raise OutOfValidityError("ar_matching needs t >= 2")
    if n < 2 * t + 1:
        raise OutOfValidityError(
            f"n={n} < 2t+1={2*t+1}: value undefined by the cited results")
    value = comb(t - 2, 2) + (t - 2) * (n - t + 2) + 1
    return FormulaResult(value, None, "n >= 2t+1")


def ar_linear_forest(n: int, forest: LinearForest) -> FormulaResult:
    """Exact anti-Ramsey value for a linear forest with at least one even part.

    Requires k >= 2; the validity threshold in n is known to exist but is
    not quantified, so the result carries that caveat.
    """
    if forest.k < 2:
        raise UnsupportedForestError("single path: use ar_path")
    if forest.all_odd:
        raise UnsupportedForestError(
            "all parts odd: exact value belongs to prior work, "
            "only the asymptotic coefficient is available here")
    if n < forest.num_vertices:
        raise OutOfValidityError(
            f"n={n} < f={forest.num_vertices}: forest does not fit")
    s = forest.half_sum
    eps = 1 if forest.even_count == 1 else 0
    value = comb(s - 2, 2) + (s - 2) * (n - s + 2) + 1 + eps
    return FormulaResult(
        value, eps,
        f"n >= f({forest.spec_string()}), threshold unquantified")


def ar_asymptotic_coefficient(forest: LinearForest) -> int:
    """Coefficient of n in AR(n, F) + O(1) for k >= 2."""
    if forest.k < 2:
        raise UnsupportedForestError("asymptotic coefficient needs k >= 2")
    return forest.half_sum - (1 if forest.all_odd else 2)


def erdos_gallai_bound(n: int, k: int) -> Fraction:
    """Upper bound (k-2)n/2 on the edge count of a P_k-free graph, k >= 2."""
    if n < 1 or k < 2:
        raise OutOfValidityError("erdos_gallai_bound needs n >= 1, k >= 2")
    return Fraction((k - 2) * n, 2)


def ex_k_p3(n: int, k: int) -> FormulaResult:
    """Turan number of k vertex-disjoint copies of P_3; needs n >= 7k."""
    if k < 1:
        raise OutOfValidityError("ex_k_p3 needs k >= 1")
    if n < 7 * k:
        raise OutOfValidityError(
            f"n={n} < 7k={7*k}: outside the proven range of this formula")
    value = comb(k - 1, 2) + (k - 1) * (n - k + 1) + (n - k + 1) // 2
    return FormulaResult(value, None, "n >= 7k")


def ex_linear_forest(n: int, forest: LinearForest) -> FormulaResult:
    """Turan number of a linear forest with k >= 2 and some part != 3."""
    if forest.k < 2:
        raise UnsupportedForestError("single path: no closed form here")
    if all(t == 3 for t in forest.parts):
        raise UnsupportedForestError("all parts equal 3: use ex_k_p3")
    if n < forest.num_vertices:
        raise OutOfValidityError(
            f"n={n} < f={forest.num_vertices}: forest does not fit")
    s = forest.half_sum
    c = 1 if forest.all_odd else 0
    value = comb(s - 1, 2) + (s - 1) * (n - s + 1) + c
    return FormulaResult(value, c, "n sufficiently large")
