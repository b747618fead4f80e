"""Differential oracle: exact.py against sympy on random expressions in n and h.

Every value built from an expression string is compared with sympy's
``cancel`` of the same string: printed form, equality, sum, product,
argument shift, growth degree, and weight substitution followed by
evaluation, including where each side must refuse with a pole.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

sp = pytest.importorskip("sympy")

from liecomposite.errors import PoleError, ZeroDenominatorError  # noqa: E402
from liecomposite.exact import NEG_INF, asymptotic_degree, evaluate, parse, substitute_h  # noqa: E402

SN, SH = sp.symbols("n h")
_LOCALS = {"n": SN, "h": SH}

_leaves = st.sampled_from(["n", "h", "0", "1", "2", "3", "n - 1", "2*h - 1", "n + h"])
_exprs = st.recursive(
    _leaves,
    lambda sub: st.builds(
        lambda a, op, b: f"({a}) {op} ({b})", sub, st.sampled_from("+-*/"), sub
    ),
    max_leaves=6,
)
_small = st.sampled_from([Fraction(v) for v in (-2, -1, 0, 1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2)])


def _both(text: str):
    try:
        r = parse(text)
    except ZeroDenominatorError:
        assume(False)
    return r, sp.sympify(text, locals=_LOCALS)


def _same(r, expr) -> bool:
    return sp.cancel(sp.sympify(str(r), locals=_LOCALS) - expr) == 0


def _rat(x: Fraction):
    return sp.Rational(x.numerator, x.denominator)


@settings(max_examples=80, deadline=None)
@given(_exprs, _exprs, st.integers(min_value=-3, max_value=3), _small, _small)
@example("(n) / ((2*h - 1) * (n))", "h", 1, Fraction(1, 2), Fraction(0))
@example("(n + h) / (n - 1)", "(2*h - 1) / (n + h)", -2, Fraction(1, 2), Fraction(1))
def test_exact_agrees_with_sympy(s1, s2, k, h0, x):
    r1, e1 = _both(s1)
    r2, e2 = _both(s2)
    assert _same(r1, e1) and _same(r2, e2)
    assert (r1 == r2) == (sp.cancel(e1 - e2) == 0)
    assert _same(r1 + r2, e1 + e2)
    assert _same(r1 * r2, e1 * e2)
    assert _same(r1.shift_arg(k), e1.subs(SN, SN + k))

    num, den = sp.fraction(sp.cancel(e1))
    if num == 0:
        assert asymptotic_degree(r1) == NEG_INF
    else:
        assert asymptotic_degree(r1) == sp.degree(num, SN) - sp.degree(den, SN)

    if sp.expand(den.subs(SH, _rat(h0))) == 0:
        with pytest.raises(PoleError):
            substitute_h(r1, h0)
        return
    s = substitute_h(r1, h0)
    num_h, den_h = sp.fraction(sp.cancel(num.subs(SH, _rat(h0)) / den.subs(SH, _rat(h0))))
    assert _same(s, num_h / den_h)
    if den_h.subs(SN, _rat(x)) == 0:
        with pytest.raises(PoleError):
            evaluate(s, x)
        return
    value = evaluate(s, x).constant_value()
    assert _rat(value) == (num_h / den_h).subs(SN, _rat(x))
