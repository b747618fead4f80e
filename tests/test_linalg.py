"""Span questions of the exact linear algebra: independence, membership,
coordinates and rank over Q and Q(i), rank over F_p, and the integer
matrix type ZMatrix against naive list arithmetic."""

import random
from fractions import Fraction as Fr
from math import lcm

from hypothesis import given, settings, strategies as st

from liecomposite.linalg import (
    GaussianRational as G,
    ZMatrix,
    _gauss,
    column_space_intersection,
    column_span_contains,
    independent_columns,
    kron,
    mat_commutator,
    mat_mul,
    mat_sub,
    mat_trace,
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


_P = 2**30 - 35
_ROOT = pow(3, (_P - 1) // 4, _P)  # a square root of -1 mod _P


def int_rows(rows):
    """Integer rows as sparse Gaussian-integer rows {column: (re, 0)}."""
    return [{j: (x, 0) for j, x in enumerate(row) if x} for row in rows]


def test_rank_mod_p_matches_rank_over_q_away_from_p():
    rng = random.Random(31)
    for _ in range(30):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])  # a dependent row
        assert rank_mod_p(int_rows(rows), _P, _ROOT) == rank([[Fr(x) for x in row] for row in rows])


def test_rank_mod_p_can_only_drop():
    # rank 2 over Q; mod 7 the second row vanishes and the third reduces
    # to the first
    rows = [[1, 2, 3], [7, 14, 0], [8, 16, 24 + 7]]
    assert rank([[Fr(x) for x in row] for row in rows]) == 2
    assert rank_mod_p(int_rows(rows), 7, 0) == 1
    assert rank_mod_p([], 7, 0) == 0
    assert rank_mod_p(int_rows([[0, 7, -14]]), 7, 0) == 0
    # (1, i) and (-2, 3) are independent over Q(i), but their determinant
    # 3 + 2i has norm 13 and vanishes with i -> 5 (5 * 5 = -1 mod 13)
    gaussian = [{0: (1, 0), 1: (0, 1)}, {0: (-2, 0), 1: (3, 0)}]
    assert rank(gaussian) == 2
    assert rank_mod_p(gaussian, 13, 5) == 1


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=7),
    st.integers(0, 5),
)
def test_rank_mod_p_stops_at_its_ceiling(rows, ceiling):
    full = rank_mod_p(int_rows(rows), _P, _ROOT)
    read = []

    def lazy():
        for row in int_rows(rows):
            read.append(row)
            yield row

    assert rank_mod_p(lazy(), _P, _ROOT, ceiling=ceiling) == min(full, ceiling)
    if full >= ceiling:
        # no row is read after the one that reaches the ceiling
        assert rank_mod_p(read, _P, _ROOT) == ceiling
        assert len(read) == 0 or rank_mod_p(read[:-1], _P, _ROOT) < ceiling


# -- ZMatrix against a naive reference over (re, im) pairs of Fractions --------

_parts = st.builds(Fr, st.integers(-4, 4), st.sampled_from([1, 2, 3, 7]))
_entry = st.one_of(st.just(Fr(0)), st.just(Fr(0)), _parts, st.builds(G, _parts, _parts))


@st.composite
def square_pairs(draw):
    """Two n x n Q(i) matrices, n in 0..5, mostly zero entries; either may
    be the zero matrix."""
    n = draw(st.integers(0, 5))

    def matrix():
        if draw(st.booleans()) and draw(st.booleans()):
            return [[Fr(0)] * n for _ in range(n)]
        return [[draw(_entry) for _ in range(n)] for _ in range(n)]

    return matrix(), matrix()


def pair(x):
    """An exact scalar as its (re, im) pair of Fractions."""
    return (x.re, x.im) if isinstance(x, G) else (Fr(x), Fr(0))


def pairs(a):
    return [[pair(x) for x in row] for row in a]


def c_add(x, y, sign=1):
    return (x[0] + sign * y[0], x[1] + sign * y[1])


def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def c_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return c_mul(x, (y[0] / norm, -y[1] / norm))


_ZERO = (Fr(0), Fr(0))


def ref_mul(a, b):
    n = len(a)
    out = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = c_add(out[i][j], c_mul(a[i][k], b[k][j]))
    return out


def ref_sub(a, b):
    return [[c_add(x, y, -1) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_kron(a, b):
    return [[c_mul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def ref_rank(a):
    """Gaussian elimination over Q(i) with field division."""
    rows = [list(row) for row in a if any(x != _ZERO for x in row)]
    found = 0
    while rows:
        top = rows.pop()
        c = next(j for j, x in enumerate(top) if x != _ZERO)
        rows = [
            [c_add(x, c_mul(c_div(row[c], top[c]), y), -1) for x, y in zip(row, top)]
            for row in rows
        ]
        rows = [row for row in rows if any(x != _ZERO for x in row)]
        found += 1
    return found


def is_zero(a):
    return all(x == _ZERO for row in a for x in row)


@settings(max_examples=150, deadline=None)
@given(square_pairs())
def test_zmatrix_agrees_with_naive_list_arithmetic(pair_of_matrices):
    a, b = pair_of_matrices
    za, zb = ZMatrix.from_rows(a), ZMatrix.from_rows(b)
    pa, pb = pairs(a), pairs(b)
    commutator = ref_sub(ref_mul(pa, pb), ref_mul(pb, pa))
    assert pairs(za.to_rows()) == pa
    assert pairs(mat_mul(za, zb).to_rows()) == ref_mul(pa, pb)
    assert pairs(mat_commutator(za, zb).to_rows()) == commutator
    assert pairs(mat_sub(za, zb).to_rows()) == ref_sub(pa, pb)
    trace = _ZERO
    for i in range(len(a)):
        trace = c_add(trace, pa[i][i])
    assert pair(mat_trace(za)) == trace
    assert pairs(kron(za, zb).to_rows()) == ref_kron(pa, pb)
    assert (not za) == is_zero(pa)
    assert (not mat_commutator(za, zb)) == is_zero(commutator)
    assert rank_mod_p(za.rows, _P, _ROOT) == ref_rank(pa)
    assert rank(a) == ref_rank(pa)
    assert rank(za.rows) == ref_rank(pa)
    assert rank([za.flat(), zb.flat()]) == ref_rank([[x for row in m for x in row] for m in (pa, pb)])


def every_entry_from_rows(a):
    """(den, rows) of ZMatrix.from_rows by converting every entry, zeros
    included: the least denominator over all of them."""
    entries = [[_gauss(x) for x in row] for row in a]
    den = lcm(*(d for row in entries for _, _, d in row))
    return den, [
        {j: (r * (den // d), i * (den // d)) for j, (r, i, d) in enumerate(row) if r or i}
        for row in entries
    ]


_zero_or_entry = st.one_of(st.sampled_from([0, Fr(0), G(0)]), st.integers(-3, 3), _entry)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_zero_or_entry, min_size=n, max_size=n), max_size=4)
    )
)
def test_from_rows_skips_zeros_without_changing_the_matrix(a):
    z = ZMatrix.from_rows(a)
    assert (z.den, z.rows) == every_entry_from_rows(a)
    assert z.ncols == (len(a[0]) if a else 0)


@st.composite
def column_pairs(draw):
    """Two lists of Q(i) column vectors of one length; the second may
    repeat columns of the first, so that the spans meet."""
    vector = st.lists(_entry, min_size=(dim := draw(st.integers(1, 5))), max_size=dim)
    u = draw(st.lists(vector, min_size=1, max_size=4))
    shared = draw(st.lists(st.sampled_from(u), max_size=2))
    return u, shared + draw(st.lists(vector, max_size=4))


@settings(max_examples=150, deadline=None)
@given(column_pairs())
def test_intersection_lies_in_both_spans_with_the_dimension_of_the_formula(columns):
    u, v = columns
    inter = column_space_intersection(u, v)
    assert all(column_span_contains(u, w) and column_span_contains(v, w) for w in inter)
    assert rank(inter) == len(inter) == rank(u) + rank(v) - rank(u + v)
