"""Span questions of the exact linear algebra: independence, membership,
coordinates and rank over Q and Q(i), and rank over F_p."""

import random
from fractions import Fraction as Fr

from liecomposite.linalg import (
    GaussianRational as G,
    column_span_contains,
    independent_columns,
    rank,
    rank_mod_p,
    solve_columns,
)


def test_independent_columns_keeps_first_of_each_direction():
    a = [Fr(1), Fr(0), Fr(2)]
    twice_a = [Fr(2), Fr(0), Fr(4)]
    b = [Fr(0), Fr(1), Fr(0)]
    a_plus_b = [Fr(1), Fr(1), Fr(2)]
    c = [Fr(0), Fr(0), Fr(1)]
    zero = [Fr(0)] * 3
    cols = [zero, twice_a, a, b, a_plus_b, c]
    kept = independent_columns(cols)
    assert kept == [twice_a, b, c]
    # the input objects themselves, in input order
    assert [id(v) for v in kept] == [id(twice_a), id(b), id(c)]


def test_independent_columns_of_nothing_is_empty():
    assert independent_columns([]) == []


def test_empty_basis_contains_only_zero():
    assert column_span_contains([], [Fr(0), Fr(0)])
    assert not column_span_contains([], [Fr(0), Fr(1)])


def test_dependent_basis_span():
    basis = [[Fr(1), Fr(2), Fr(0)], [Fr(2), Fr(4), Fr(0)], [Fr(0), Fr(0), Fr(0)]]
    assert column_span_contains(basis, [Fr(-3), Fr(-6), Fr(0)])
    assert not column_span_contains(basis, [Fr(1), Fr(2), Fr(1)])
    assert not column_span_contains(basis, [Fr(0), Fr(1), Fr(0)])


def test_gaussian_span():
    basis = [[G(1), G(0, 1)], [G(0), G(1)]]
    assert column_span_contains(basis, [G(2, 3), G(5, -1)])
    one_line = [[G(1), G(0, 1)]]
    assert column_span_contains(one_line, [G(0, 1), G(-1)])  # i times the column
    assert not column_span_contains(one_line, [G(1), G(1)])
    assert solve_columns(one_line, [G(0, 1), G(-1)]) == [G(0, 1)]


def test_solve_columns_outside_span_is_none():
    basis = [[Fr(1), Fr(0), Fr(0)], [Fr(0), Fr(1), Fr(0)]]
    assert solve_columns(basis, [Fr(1), Fr(1), Fr(1)]) is None
    assert solve_columns(basis, [Fr(3), Fr(-2), Fr(0)]) == [Fr(3), Fr(-2)]
    assert solve_columns([], [Fr(1)]) is None
    assert solve_columns([], [Fr(0)]) == []


def test_rank_of_mixed_fraction_and_gaussian_rows():
    rows = [
        [Fr(1), G(0, 1), Fr(0)],
        [G(0, 1), Fr(-1), Fr(0)],  # i times the first row
        [Fr(0), Fr(0), G(2, 1)],
    ]
    assert rank(rows) == 2
    rows[1][1] = Fr(1)
    assert rank(rows) == 3


def test_rank_mod_p_matches_rank_over_q_away_from_p():
    rng = random.Random(31)
    p = 2**30 - 35
    for _ in range(30):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])  # a dependent row
        assert rank_mod_p(rows, p) == rank([[Fr(x) for x in row] for row in rows])


def test_rank_mod_p_can_only_drop():
    # rank 2 over Q; mod 7 the second row vanishes and the third reduces
    # to the first
    rows = [[1, 2, 3], [7, 14, 0], [8, 16, 24 + 7]]
    assert rank([[Fr(x) for x in row] for row in rows]) == 2
    assert rank_mod_p(rows, 7) == 1
    assert rank_mod_p([], 7) == 0
    assert rank_mod_p([[0, 7, -14]], 7) == 0
