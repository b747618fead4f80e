"""Differential oracle: linalg.rref against sympy's Matrix.rref on random
matrices over Q and over Q(i), including dependent and zero rows."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sp = pytest.importorskip("sympy")

from liecomposite.linalg import GaussianRational as G, rref  # noqa: E402

_parts = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
_real = st.one_of(st.just(Fraction(0)), _parts)
_gaussian = st.one_of(_real, st.builds(G, _parts, _parts))


@st.composite
def matrices(draw, entries):
    """Up to 6 x 5, with a repeated or zero last row now and then."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    a = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    last = draw(st.sampled_from(["random", "repeat", "zero"]))
    if rows > 1 and last == "repeat":
        a[-1] = list(a[0])
    elif last == "zero":
        a[-1] = [Fraction(0)] * cols
    return a


def to_sympy(x):
    re, im = (x.re, x.im) if isinstance(x, G) else (x, Fraction(0))
    return sp.Rational(re.numerator, re.denominator) + sp.I * sp.Rational(
        im.numerator, im.denominator
    )


def parts(x):
    """(re, im) of one of our scalars or of a sympy number, as Fractions."""
    if isinstance(x, (G, Fraction)):
        return (x.re, x.im) if isinstance(x, G) else (x, Fraction(0))
    re, im = sp.expand(x).as_real_imag()
    return Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([_real, _gaussian]).flatmap(matrices))
def test_rref_matches_sympy(a):
    ours, pivots = rref(a)
    theirs, their_pivots = sp.Matrix([[to_sympy(x) for x in row] for row in a]).rref(
        iszerofunc=lambda e: sp.expand(e) == 0
    )
    assert tuple(pivots) == their_pivots
    assert [[parts(x) for x in row] for row in ours] == [
        [parts(theirs[i, j]) for j in range(theirs.cols)] for i in range(theirs.rows)
    ]
