"""Differential oracle: findim.commutant_dimension against the null space
sympy finds for the equations S T = T S, entry by entry, on random small
exact representations, irreducible and reducible."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sp = pytest.importorskip("sympy")

from liecomposite.findim import FinDimRep, commutant_dimension  # noqa: E402
from liecomposite.linalg import GaussianRational as G  # noqa: E402

_parts = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
_entries = st.one_of(st.just(Fraction(0)), _parts, st.builds(G, _parts, _parts))


@st.composite
def reps(draw):
    """Up to 4 x 4 and three matrices; now and then block diagonal, so
    that reducible representations are common."""
    size, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cut = draw(st.integers(0, size - 1))
    matrices = {}
    for k in range(count):
        t = [[draw(_entries) for _ in range(size)] for _ in range(size)]
        if cut:
            t = [[x if (i < cut) == (j < cut) else Fraction(0) for j, x in enumerate(row)]
                 for i, row in enumerate(t)]
        matrices[f"t{k}"] = t
    return FinDimRep(size, matrices)


def to_sympy(x):
    re, im = (x.re, x.im) if isinstance(x, G) else (x, Fraction(0))
    return sp.Rational(re.numerator, re.denominator) + sp.I * sp.Rational(
        im.numerator, im.denominator
    )


def sympy_commutant_dimension(rep):
    m = rep.space_dim
    s = sp.Matrix(m, m, sp.symbols(f"s0:{m * m}"))
    equations = []
    for t in rep.matrices.values():
        t = sp.Matrix([[to_sympy(x) for x in row] for row in t])
        equations.extend(sp.expand(x) for x in s * t - t * s)
    system, _ = sp.linear_eq_to_matrix(equations, list(s))
    return m * m - system.rank(simplify=True)


@settings(max_examples=30, deadline=None)
@given(reps())
def test_commutant_dimension_matches_sympy(rep):
    assert commutant_dimension(rep) == sympy_commutant_dimension(rep)
