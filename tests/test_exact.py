"""Exact arithmetic layer: canonical forms, tower coercion, parsing, growth."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecomposite.errors import ParseError, PoleError, ZeroDenominatorError
from liecomposite.exact import (
    NEG_INF,
    RationalFunc,
    asymptotic_degree,
    equals,
    evaluate,
    fraction_coeff_tuples,
    normalize,
    parse,
    parse_rational,
    qh_const,
    qhn_const,
    substitute_h,
    var_h,
    var_h_in_n,
    var_n,
)
from liecomposite import exact, verma
from liecomposite.cli import main
from liecomposite.exact import _bgcd  # canonical-form white-box checks

N = var_n()
H = var_h_in_n()


# -- frozen examples ---------------------------------------------------------


def test_normalize_cancels_common_factor():
    assert equals((2 * N + 2 * H) / 2, N + H)
    assert equals(parse("(n^2-1)/(n-1)"), N + 1)


def test_normalize_zero_is_canonical():
    z = (N - N) / (N + 1)
    assert z.is_zero()
    assert z == qhn_const(0)
    assert hash(z) == hash(qhn_const(0))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        RationalFunc.make(((1,),), (), "n")
    with pytest.raises(ZeroDenominatorError):
        parse("1/(n-n)")


def test_equals_expanded_square():
    assert equals((N + H) ** 2, N**2 + 2 * N * H + H**2)
    assert not equals(1 / (N + 2 * H), 1 / (N + 2 * H + 1))


def test_evaluate_after_weight_substitution():
    r = 1 / (N + 2 * H)
    s = substitute_h(r, Fraction(1, 2))
    assert evaluate(s, Fraction(1)).constant_value() == Fraction(1, 2)


def test_evaluate_pole_carries_point():
    r = substitute_h(1 / (N - 2), Fraction(1, 2))
    with pytest.raises(PoleError) as exc:
        evaluate(r, Fraction(2))
    assert exc.value.point == Fraction(2)


def test_asymptotic_degree_values():
    assert asymptotic_degree((N + 3 * H) / ((N + 2 * H) * (N + 2 * H + 1))) == -1
    assert asymptotic_degree(N**2 + N) == 2
    assert asymptotic_degree(qhn_const(0)) == NEG_INF
    assert asymptotic_degree(N / (N + H)) == 0
    # h-dependent leading coefficient counts as nonzero (generic h)
    assert asymptotic_degree((2 * H - 1) * N**3 + N) == 3


def test_structural_equality_is_mathematical():
    a = (N**2 - 1) / ((N - 1) * (N + 2))
    b = (N + 1) / (N + 2)
    assert a == b and hash(a) == hash(b)


def test_parse_rational_literals():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-12") == Fraction(-12)
    assert parse_rational(" 7 / 2 ") == Fraction(7, 2)
    for bad in ("", "3//4", "1.5", "h", "--2"):
        with pytest.raises(ParseError):
            parse_rational(bad)
    with pytest.raises(ZeroDenominatorError):
        parse_rational("1/0")


def test_parse_precedence_and_power():
    assert equals(parse("1/(n+2*h)^2"), 1 / (N + 2 * H) ** 2)
    assert equals(parse("3/2*h"), Fraction(3, 2) * H)
    assert equals(parse("-n^2+1"), 1 - N**2)
    assert equals(parse("2*-3"), qhn_const(-6))
    for bad in ("n^(2)", "(n+", "n+", "n n", "x+1", "n^-1"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_power_at_the_bound():
    # exponent x max(1, base degree) may reach 1000 but not pass it
    assert len(parse("(n+1)^1000").num) == 1001
    for bad in ("(n+1)^1001", "(h^2)^501", "(1/(n^2+1))^501", "3^1001"):
        with pytest.raises(ParseError, match="power bound"):
            parse(bad)


def test_parse_power_term_bound():
    # (exponent x n-degree + 1) x (exponent x h-degree + 1) may reach 10000
    assert len(parse("(n+h)^99").num) == 100
    for bad in ("(n+h)^100", "(n/(n+h^2))^500"):
        with pytest.raises(ParseError, match="> 10000 terms"):
            parse(bad)


def test_parse_nesting_bound():
    assert equals(parse("(" * 100 + "n" + ")" * 100), N)
    assert equals(parse("-" * 101 + "n"), -N)
    for bad in ("(" * 101 + "n" + ")" * 101, "-" * 102 + "n", "(--" * 51 + "n" + ")" * 51):
        with pytest.raises(ParseError, match="nest deeper than 100"):
            parse(bad)


def test_substitute_h_clears_removable_coefficient_poles():
    # canonical (monic) form stores 1/(2h-1) coefficients; the value at
    # h = 1/2 is still regular
    r = 1 / (N * (2 * H - 1) + 1)
    assert substitute_h(r, Fraction(1, 2)).is_one()
    with pytest.raises(PoleError):
        substitute_h(1 / ((2 * H - 1) * N), Fraction(1, 2))


def test_fraction_coeff_tuples_requires_h_free():
    num, den = fraction_coeff_tuples((N + 1) / (2 * N + 3))
    assert num == (Fraction(1, 2), Fraction(1, 2)) and den == (Fraction(3, 2), Fraction(1))
    with pytest.raises(ValueError):
        fraction_coeff_tuples(N + H)


# -- canonical-form invariants on random values ------------------------------


def _poly(coeffs, x: RationalFunc) -> RationalFunc:
    return sum((c * x**k for k, c in enumerate(coeffs)), qh_const(0))


def _random_qh(rng: random.Random) -> RationalFunc:
    def poly():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))

    while True:
        num, den = poly(), poly()
        if any(den):
            return _poly(num, var_h()) / _poly(den, var_h())


def _random_qhn(rng: random.Random) -> RationalFunc:
    def poly():
        return tuple(_random_qh(rng) for _ in range(rng.randint(1, 3)))

    while True:
        num, den = poly(), poly()
        if any(den):
            return _poly(num, N) / _poly(den, N)


def test_canonical_invariants_hold_on_random_values():
    rng = random.Random(20240817)
    for _ in range(40):
        r = _random_qhn(rng)
        assert r.den, "denominator never empty"
        assert r.den[-1][-1] > 0, "positive leading coefficient"
        if r.num:
            assert _bgcd(r.num, r.den) == ((1,),), "num and den coprime in Z[h][n]"
        else:
            assert r.den == ((1,),), "zero is 0/1"
        assert normalize(r) == r


def test_equality_consistent_with_evaluation_on_random_points():
    # r1 == r2 iff they agree at 50 random rational points away from poles
    rng = random.Random(991)
    h0 = Fraction(19, 7)
    for _ in range(12):
        r1, r2 = _random_qhn(rng), _random_qhn(rng)
        s1, s2 = substitute_h(r1, h0), substitute_h(r2, h0)
        agree = True
        checked = 0
        while checked < 50:
            p = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
            try:
                v1 = evaluate(s1, p)
                v2 = evaluate(s2, p)
            except PoleError:
                continue
            checked += 1
            if v1 != v2:
                agree = False
                break
        # equals() implies agreement everywhere; disagreement implies not-equals
        if equals(r1, r2):
            assert agree
        elif not agree:
            assert not equals(r1, r2)


# -- hypothesis property tests ------------------------------------------------

_frac = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_hpoly = st.lists(_frac, min_size=1, max_size=3).map(tuple)


@st.composite
def qh_values(draw):
    num = draw(_hpoly)
    den = draw(_hpoly.filter(lambda p: any(p)))
    return _poly(num, var_h()) / _poly(den, var_h())


@st.composite
def qhn_values(draw):
    def poly(nonzero: bool):
        p = draw(st.lists(qh_values(), min_size=1, max_size=3).map(tuple))
        if nonzero and not any(p):
            p = (qh_const(1),) + p[1:]
        return p

    return _poly(poly(False), N) / _poly(poly(True), N)


@settings(max_examples=60, deadline=None)
@given(qhn_values(), qhn_values(), qhn_values())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    if not a.is_zero():
        assert (a * (1 / a)).is_one()


@settings(max_examples=60, deadline=None)
@given(qhn_values(), qhn_values())
def test_asymptotic_degree_laws(a, b):
    da, db = asymptotic_degree(a), asymptotic_degree(b)
    if not (a.is_zero() or b.is_zero()):
        assert asymptotic_degree(a * b) == da + db
    s = a + b
    assert asymptotic_degree(s) <= max(da, db)
    if da != db:
        assert asymptotic_degree(s) == max(da, db)


@settings(max_examples=80, deadline=None)
@given(qhn_values())
def test_parse_round_trip(r):
    assert parse(str(r)) == r


@settings(max_examples=40, deadline=None)
@given(qhn_values(), st.integers(min_value=-5, max_value=5))
def test_argument_shift_invertible(r, k):
    assert r.shift_arg(k).shift_arg(-k) == r


@settings(max_examples=40, deadline=None)
@given(qh_values())
def test_level_h_round_trip_and_lift(c):
    assert parse(str(qhn_const(c))) == qhn_const(c)
    assert equals(qhn_const(c) * (N - N + 1), c)


@settings(max_examples=40, deadline=None)
@given(st.one_of(qh_values(), qhn_values()))
def test_unit_factor_returns_the_other_operand(r):
    units = [1, Fraction(1), qh_const(1) if r.symbol == "h" else qhn_const(1)]
    for product in [r * one for one in units] + [one * r for one in units]:
        assert (product.num, product.den, product.symbol) == (r.num, r.den, r.symbol)


# -- the memoized Z[h][n] kernels ----------------------------------------------

_KERNELS = ("_bgcd", "_bmul", "_bshift", "_bdivexact")

_zh = st.lists(st.integers(min_value=-6, max_value=6), max_size=3).map(exact._trim)
_zhn = st.lists(_zh, max_size=4).map(exact._trim)
_zhn_nonzero = _zhn.filter(bool)


def _cold_and_warm(name, *args):
    """The cached kernel's result on a cold and then a warm cache, each
    checked against the undecorated function."""
    kernel = getattr(exact, name)
    expected = kernel.__wrapped__(*args)
    kernel.cache_clear()
    assert kernel(*args) == expected
    hits = kernel.cache_info().hits
    assert kernel(*args) == expected
    assert kernel.cache_info().hits == hits + 1
    return expected


@settings(max_examples=80, deadline=None)
@given(_zhn_nonzero, _zhn_nonzero, _zhn_nonzero, st.integers(min_value=-5, max_value=5))
def test_cached_kernels_match_their_originals(g, p, q, k):
    # a and b share the factor g, so the gcd takes the PRS path too
    a = _cold_and_warm("_bmul", g, p)
    b = _cold_and_warm("_bmul", g, q)
    gcd = _cold_and_warm("_bgcd", a, b)
    _cold_and_warm("_bdivexact", a, gcd)
    assert _cold_and_warm("_bdivexact", a, g) == p
    _cold_and_warm("_bshift", a, k)


@settings(max_examples=40, deadline=None)
@given(_zhn, _zh)
def test_inexact_division_raises_on_every_call(q, c):
    b = ((2, 2), (1,))  # n + 2h + 2: b * q + r is inexact for a nonzero constant r
    r = c if any(c) else (1,)
    a = exact._badd(exact._bmul(q, b), (r,))
    exact._bdivexact.cache_clear()
    for _ in range(3):
        with pytest.raises(ArithmeticError):
            exact._bdivexact(a, b)
    assert exact._bdivexact.cache_info().currsize == 0
    with pytest.raises(ArithmeticError):
        exact._bdivexact.__wrapped__(a, b)


def _ints_only(value) -> bool:
    """True when every leaf of a nest of tuples is exactly an int."""
    if isinstance(value, tuple):
        return all(_ints_only(v) for v in value)
    return type(value) is int


def test_only_int_coefficients_reach_the_cached_kernels(monkeypatch, capsys):
    # An lru_cache key compares with ==, so 1, 1.0, True and Fraction(1)
    # would share one entry; the caches are sound only on int coefficients.
    seen = dict.fromkeys(_KERNELS, 0)
    bad = []

    def spy(name, kernel):
        def wrapper(*args):
            seen[name] += 1
            if not _ints_only(args):
                bad.append((name, args))
            return kernel(*args)

        return wrapper

    for name in _KERNELS:
        monkeypatch.setattr(exact, name, spy(name, getattr(exact, name)))
    # operators cached by earlier tests would keep the kernels out of view
    for value in vars(verma).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    commands = (
        ["witt-closed", "--depth", "1", "--index-bound", "1"],
        ["witt-symmetry", "--max-index", "3", "--word-length", "3", "--index-bound", "1"],
        ["witt-hs", "--index-bound", "3", "--truncation", "50", "--weight", "5/7"],
        ["tail-equivalence", "(n+1)/(n+2)", "(n+1)/(n+2) + 1/n", "--weight", "1/2",
         "--truncation", "1000"],
    )
    for argv in commands:
        assert main(argv) in (0, 1)
    capsys.readouterr()
    assert all(seen.values()), seen
    assert bad == []
