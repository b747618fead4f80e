"""Exact arithmetic layer: canonical forms in the one field Q(h)(n), parsing, growth."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from liecomposite.errors import ParseError, PoleError, ZeroDenominatorError
from liecomposite.exact import (
    NEG_INF,
    RationalFunc,
    asymptotic_degree,
    evaluate,
    fraction_coeff_tuples,
    parse,
    parse_rational,
    qhn_const,
    substitute_h,
    var_h,
    var_n,
)
from liecomposite import exact, verma
from liecomposite.cli import main
from liecomposite.exact import _bgcd  # canonical-form white-box checks

N = var_n()
H = var_h()
ONE = qhn_const(1)


# -- frozen examples ---------------------------------------------------------


def test_normalize_cancels_common_factor():
    assert (2 * N + 2 * H) / 2 == N + H
    assert parse("(n^2-1)/(n-1)") == N + 1


def test_normalize_zero_is_canonical():
    z = (N - N) / (N + 1)
    assert z.is_zero()
    assert z == qhn_const(0)
    assert hash(z) == hash(qhn_const(0))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        RationalFunc.make(((1,),), ())
    with pytest.raises(ZeroDenominatorError):
        parse("1/(n-n)")


def test_equals_expanded_square():
    assert (N + H) ** 2 == N**2 + 2 * N * H + H**2
    assert 1 / (N + 2 * H) != 1 / (N + 2 * H + 1)


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
    assert parse("1/(n+2*h)^2") == 1 / (N + 2 * H) ** 2
    assert parse("3/2*h") == Fraction(3, 2) * H
    assert parse("-n^2+1") == 1 - N**2
    assert parse("2*-3") == qhn_const(-6)
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


def test_parse_bounds_each_sum_and_product():
    # the numerator and denominator a + - * / forms before cancellation obey
    # the power bounds: degree 1000, and 10000 terms n^a h^b
    assert len(parse("(n+1)^500*(n+1)^500").num) == 1001
    assert len(parse("n + (n+1)^1000").num) == 1001
    assert parse("(n+1)^1000/(n+1)^1000") == ONE
    assert len(parse("(n+h)^49*(n+h)^50").num) == 100
    # a sum over one denominator multiplies nothing out, so it is not refused
    assert parse("(n+h)^99/(n+1) - 1/(n+1)").den == ((1,), (1,))
    for bad, message in (
        ("(n+1)^1000*(n+1)", "'*' exceeds the power bound: degree 1001 > 1000"),
        ("(n+1)^1000/(1/n)", "'/' exceeds the power bound: degree 1001 > 1000"),
        ("(n+1)^1000 + 1/n", "'+' exceeds the power bound: degree 1001 > 1000"),
        ("1/n - (n+1)^1000", "'-' exceeds the power bound: degree 1001 > 1000"),
        ("(n+h)^50*(n+h)^50", "'*' exceeds the power bound: 10201 > 10000 terms"),
        ("(n+h)^99/(n+1) + 1/(n+2)", "'+' exceeds the power bound: 10100 > 10000 terms"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(bad)


def test_parse_nesting_bound():
    assert parse("(" * 100 + "n" + ")" * 100) == N
    assert parse("-" * 101 + "n") == -N
    for bad in ("(" * 101 + "n" + ")" * 101, "-" * 102 + "n", "(--" * 51 + "n" + ")" * 51):
        with pytest.raises(ParseError, match="nest deeper than 100"):
            parse(bad)


def test_substitute_h_clears_removable_coefficient_poles():
    # canonical (monic) form stores 1/(2h-1) coefficients; the value at
    # h = 1/2 is still regular
    r = 1 / (N * (2 * H - 1) + 1)
    assert substitute_h(r, Fraction(1, 2)) == ONE
    with pytest.raises(PoleError):
        substitute_h(1 / ((2 * H - 1) * N), Fraction(1, 2))


def test_fraction_coeff_tuples_requires_h_free():
    num, den = fraction_coeff_tuples((N + 1) / (2 * N + 3))
    assert num == (Fraction(1, 2), Fraction(1, 2)) and den == (Fraction(3, 2), Fraction(1))
    with pytest.raises(ValueError):
        fraction_coeff_tuples(N + H)


def test_h_is_one_value_however_it_is_built():
    # Q(h) is the n-free part of the one field: h built directly, parsed or
    # made from a constant is the same value with the same hash
    for r in (parse("h"), qhn_const(0) + H, RationalFunc.make(((0, 1),), ((1,),))):
        assert r == H and hash(r) == hash(H)
    assert qhn_const(1) == parse("n/n") and hash(qhn_const(1)) == hash(parse("n/n"))
    assert H.is_constant() and not (N + H).is_constant()


def test_evaluate_and_shift_act_on_n_only():
    r = (N + H) / (N + 2 * H + 1)
    assert evaluate(r, 2) == (2 + H) / (2 * H + 3)
    assert r.shift_arg(1) == (N + 1 + H) / (N + 2 * H + 2)
    assert (H**2 + 1).shift_arg(3) == H**2 + 1
    assert evaluate(H / (H + 1), 5) == H / (H + 1)


def test_constant_value_needs_a_value_free_of_n_and_h():
    assert qhn_const(Fraction(-3, 4)).constant_value() == Fraction(-3, 4)
    assert qhn_const(0).constant_value() == Fraction(0)
    assert substitute_h(H / (H + 1), Fraction(1, 2)).constant_value() == Fraction(1, 3)
    for r in (H, 1 / (H + 1), N, H * N):
        with pytest.raises(ValueError, match="not a constant"):
            r.constant_value()


# -- canonical-form invariants on random values ------------------------------


def _poly(coeffs, x: RationalFunc) -> RationalFunc:
    return sum((c * x**k for k, c in enumerate(coeffs)), qhn_const(0))


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
        assert RationalFunc.make(r.num, r.den) == r


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
        # equality implies agreement everywhere; disagreement implies inequality
        if r1 == r2:
            assert agree
        elif not agree:
            assert r1 != r2


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
            p = (ONE,) + p[1:]
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
        assert a * (1 / a) == ONE


@settings(max_examples=60, deadline=None)
@given(qhn_values(), qhn_values())
def test_unreduced_sum_is_the_sum_before_its_last_cancellation(a, b):
    # the same value as the canonical sum, the same degree difference, and
    # an empty numerator exactly when the sum is zero
    num, den, _ = exact._unreduced_sum(a.num, a.den, b.num, b.den)
    assert RationalFunc.make(num, den) == a + b
    assert (not num) == (a + b).is_zero()
    if num:
        assert len(num) - len(den) == asymptotic_degree(a + b)


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
@given(st.one_of(qh_values(), qhn_values()))
def test_parse_round_trip(r):
    assert parse(str(r)) == r


@settings(max_examples=40, deadline=None)
@given(qhn_values(), st.integers(min_value=-5, max_value=5))
def test_argument_shift_invertible(r, k):
    assert r.shift_arg(k).shift_arg(-k) == r


@settings(max_examples=40, deadline=None)
@given(qh_values(), st.integers(min_value=-5, max_value=5))
def test_level_h_round_trip_and_lift(c, k):
    # a value free of n round-trips through the parser, and lifting it to
    # Q(h)(n) is the identity: the lift is constant in n
    assert parse(str(c)) == c
    assert qhn_const(c) is c
    assert qhn_const(c) * (N - N + 1) == c
    assert c.shift_arg(k) == c
    assert evaluate(c, k) == c


@settings(max_examples=40, deadline=None)
@given(st.one_of(qh_values(), qhn_values()))
def test_unit_factor_returns_the_other_operand(r):
    units = [1, Fraction(1), ONE]
    for product in [r * one for one in units] + [one * r for one in units]:
        assert (product.num, product.den) == (r.num, r.den)


# -- the memoized Z[h][n] kernels ----------------------------------------------

_KERNELS = ("_bgcd", "_bmul", "_bshift", "_bdivexact", "_linear_factors")

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
    _cold_and_warm("_linear_factors", a)


def _schoolbook(a, b):
    """a * b in ZZ[h][n] from nested ZZ[h] products and sums."""
    out = [()] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = exact._padd(out[i + j], exact._pmul(ca, cb))
    return exact._trim(out)


@settings(max_examples=150, deadline=None)
@given(_zhn, _zhn)
@example(((), (0, 0, 3), (), (1,)), ((5,), (), (), (0, -2)))
def test_flat_multiply_matches_the_nested_schoolbook_product(a, b):
    # ragged rows, zero coefficients and zero rows inside each operand
    assert exact._bmul.__wrapped__(a, b) == _schoolbook(a, b)


def _prs_gcd(a, b):
    """gcd in ZZ[h][n] by contents and the primitive PRS alone."""
    if len(a) == 1 or len(b) == 1:
        return (exact._content(a + b),)
    ca, cb = exact._content(a), exact._content(b)
    pp = [exact._bprimitive(x, c) for x, c in ((a, ca), (b, cb))]
    g = exact._prs(*pp, exact._pmul, exact._psub, exact._bprimitive)
    content = exact._pgcd(ca, cb)
    if len(g) == 1:
        return (content,)
    return tuple(exact._pmul(c, content) for c in (g if g[-1][-1] > 0 else exact._bneg(g)))


def _factor(shifted, j):
    """n + 2h + j, or n + j, as a ZZ[h][n] tuple."""
    return (exact._trim((j, 2 if shifted else 0)), (1,))


def _product(factors, c=1):
    out = ((c,),)
    for f in factors:
        out = exact._bmul(out, f)
    return out


_linear = st.tuples(st.booleans(), st.integers(min_value=-6, max_value=6))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_linear, st.integers(min_value=1, max_value=3)), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=36),
    st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
    st.integers(min_value=-36, max_value=36).filter(bool),
    _zhn_nonzero,
)
def test_linear_factor_gcd_matches_the_prs(factors, c, shared, d, cofactor):
    # b = c * prod (n + 2h + j)^m * prod (n + j)^k; a holds each of those
    # factors to a random power (possibly past b's), an integer d and a
    # random cofactor, which may add linear factors of its own
    b = _product([_factor(*f) for f, m in factors for _ in range(m)], c)
    split = exact._linear_factors(b)
    assert split is not None and split[0] == c
    assert _product([(exact._pneg(root), (1,)) for root, m in split[1] for _ in range(m)], c) == b
    a = exact._bmul(_product([_factor(*f) for (f, _), k in zip(factors, shared) for _ in range(k)], d),
                    cofactor)
    want = _prs_gcd(a, b)
    assert exact._bgcd.__wrapped__(a, b) == want
    assert exact._bgcd.__wrapped__(b, a) == want


def test_gcd_without_a_linear_side_takes_the_certificate_or_prs():
    g = ((0, 1), (), (1,))  # n^2 + h
    a = exact._bmul(g, ((3, 1), (0, 2)))  # 2n + h + 3
    b = exact._bmul(g, ((1,), (1,), (0, 1)))  # h n^2 + n + 1
    assert exact._linear_factors(a) is None and exact._linear_factors(b) is None
    assert exact._bgcd.__wrapped__(a, b) == exact._bgcd.__wrapped__(b, a) == _prs_gcd(a, b) == g
    # a coprime pair without a linear side, which the certificate settles
    q = ((1,), (1,), (0, 1))
    assert exact._coprime_certificate(g, q) and exact._bgcd.__wrapped__(g, q) == _prs_gcd(g, q) == ((1,),)
    # a root past the trial bound |r| <= 1000 is also left to the PRS
    assert exact._linear_factors(_factor(False, 1000)) == (1, (((-1000,), 1),))
    far = _product([_factor(False, 1001), _factor(False, -1)])
    assert exact._linear_factors(far) is None
    assert exact._bgcd.__wrapped__(far, _factor(False, -1)) == _factor(False, -1)


def _strip_one_at_a_time(a, root, most):
    k = 0
    while k < most and (q := exact._bdivlinear(a, root)) is not None:
        a, k = q, k + 1
    return a, k


@settings(max_examples=150, deadline=None)
@given(
    _linear,
    st.integers(min_value=0, max_value=40),
    _zhn_nonzero,
    st.integers(min_value=0, max_value=45),
)
def test_strip_matches_one_division_per_factor(factor, m, cofactor, most):
    a = exact._bmul(cofactor, _product([_factor(*factor)] * m))
    root = exact._pneg(_factor(*factor)[0])
    assert exact._strip(a, root, most) == _strip_one_at_a_time(a, root, most)


def _counted_strip(monkeypatch, a, root, most):
    """_strip's result and the names of the divisions it made, in order."""
    calls = []
    for name in ("_bdivlinear", "_bdivmonic"):

        def spy(*args, _name=name, _div=getattr(exact, name)):
            calls.append(_name)
            return _div(*args)

        monkeypatch.setattr(exact, name, spy)
    return exact._strip(a, root, most), calls


def test_strip_divides_by_powers_past_a_few_factors(monkeypatch):
    # multiplicity 3: one synthetic division per factor and one that fails
    cube = _product([_factor(False, 1)] * 3)
    for most, calls in ((4, 4), (3, 3)):
        got, spied = _counted_strip(monkeypatch, cube, (-1,), most)
        assert got == (((1,),), 3) and spied == ["_bdivlinear"] * calls
    # multiplicity 1000: a few dozen divisions, not one per factor
    a = exact._bpow(_factor(False, 2), 1000)
    got, spied = _counted_strip(monkeypatch, a, (-2,), len(a))
    assert got == (((1,),), 1000) and len(spied) <= 30
    # n + 2h + 2 keeps one synthetic division per factor
    a = exact._bpow(_factor(True, 2), 6)
    got, spied = _counted_strip(monkeypatch, a, (-2, -2), len(a))
    assert got == (((1,),), 6) and spied == ["_bdivlinear"] * 7


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
