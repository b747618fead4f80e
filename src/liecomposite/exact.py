"""Exact scalar arithmetic: rationals, polynomials, rational functions.

The package works over the fields QQ(h) and QQ(h)(n), where h is the
highest-weight parameter and n is the growth variable.  Every
``RationalFunc`` is stored fraction-free as N/D with N, D in ZZ[h][n]:

- N and D are coprime in ZZ[h, n], integer content included;
- D has a positive leading coefficient (highest power of n, then of h);
- zero is 0/1.

This form is unique, so structural equality (and hashing) coincides with
mathematical equality, which the operator layer relies on.  A QQ(h) value
(symbol "h") is the case where N and D do not involve n, so both symbols
share one set of integer kernels and mixing them only relabels the result.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the empty tuple is the zero polynomial.  A ZZ[h] polynomial
has int coefficients; a ZZ[h][n] polynomial has ZZ[h] coefficients.
``Fraction`` appears only at the boundary: constants, evaluating a QQ(h)
value, ``fraction_coeff_tuples`` and printing, which renders a value monic
in its own symbol with reduced QQ(h) (or QQ) coefficients.

Growth analysis (``asymptotic_degree``) reads off deg(num) - deg(den) in the
value's own symbol; for symbol "n" this treats h-dependent leading
coefficients as nonzero, i.e. h is generic.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction

from .errors import ParseError, PoleError, ZeroDenominatorError

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# ZZ[h]: int coefficient tuples (ascending, trailing coefficient nonzero).


def _trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _psub(a: tuple, b: tuple) -> tuple:
    return _padd(a, _pneg(b))


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _pdivexact(a: tuple, b: tuple) -> tuple:
    """a / b in ZZ[x]; raises ArithmeticError unless b divides a."""
    if b == (1,):
        return a
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = rem[i + db] // lead  # a remainder left here fails below
        if q:
            for j, cb in enumerate(b):
                rem[i + j] -= q * cb
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quot)


def _peval(a: tuple, x):
    """Horner evaluation of a coefficient tuple at x."""
    if not a:
        return x - x  # zero of the ambient arithmetic
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


def _phomog(a: tuple, p: int, q: int, d: int) -> int:
    """q^d * a(p/q) for deg a <= d, an integer."""
    return sum(c * p**i * q ** (d - i) for i, c in enumerate(a))


def _pshift_arg(a: tuple, k: int) -> tuple:
    """p(x) -> p(x + k), via Horner in (x + k)."""
    acc: list = []
    for c in reversed(a):
        acc = [0] + acc  # acc * x ...
        for i in range(len(acc) - 1):
            acc[i] += k * acc[i + 1]  # ... + k * acc
        acc[0] += c
    return tuple(acc)


def _pprimitive(a: tuple) -> tuple:
    g = math.gcd(*a)
    return a if g == 1 else tuple(c // g for c in a)


def _pprem(a: tuple, b: tuple, mul, sub) -> tuple:
    """Pseudo-remainder lead(b)^k * (a mod b) over the ring of mul and sub."""
    rem, db, lead = list(a), len(b) - 1, b[-1]
    while len(rem) > db:
        lr, shift = rem[-1], len(rem) - 1 - db
        rem = [mul(c, lead) for c in rem]
        for j, cb in enumerate(b):
            rem[j + shift] = sub(rem[j + shift], mul(cb, lr))
        while rem and not rem[-1]:
            rem.pop()
    return tuple(rem)


def _prs(a: tuple, b: tuple, mul, sub, primitive) -> tuple:
    """Last nonzero term of the primitive polynomial remainder sequence of
    primitive a, b over a coefficient ring given by mul, sub and primitive
    (W. S. Brown, J. ACM 18, 1971): their gcd up to a unit."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        rem = _pprem(a, b, mul, sub)
        a, b = b, (primitive(rem) if rem else ())
    return a


def _pgcd(a: tuple, b: tuple) -> tuple:
    """gcd in ZZ[x] with positive leading coefficient."""
    if not a or not b:
        g = a or b
        return _pneg(g) if g and g[-1] < 0 else g
    g = math.gcd(*a, *b)
    if len(a) == 1 or len(b) == 1:
        return (g,)
    a = _prs(_pprimitive(a), _pprimitive(b), operator.mul, operator.sub, _pprimitive)
    if len(a) == 1:
        return (g,)
    return tuple(c * (g if a[-1] > 0 else -g) for c in a)


def _pderiv(a: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(a))[1:]


def _sturm_chain(p: tuple) -> list:
    """Sturm sequence of the squarefree part of p in ZZ[x], each member
    scaled to a primitive integer polynomial by a positive factor."""
    p = _pdivexact(p, _pgcd(p, _pderiv(p)))
    chain = [p, _pderiv(p)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        if b[-1] < 0:  # an associate divisor leaves the remainder over Q
            b = _pneg(b)
        chain.append(_pprimitive(_pneg(_pprem(a, b, operator.mul, operator.sub))))
    return chain


# ---------------------------------------------------------------------------
# ZZ[h][n]: tuples (over powers of n) of ZZ[h] polynomials.

_ONE = ((1,),)
_ZERO = ((), _ONE)  # (num, den) of the zero value

# The ladder families' coefficients share a few denominator factors, so the
# same products, shifts, gcds and exact quotients recur; _bmul, _bdivexact,
# _bshift and _bgcd keep their most recent results in caches of this size
# (a larger one costs memory on large runs and gains little).  Results are
# tuples, so callers cannot alter a cached one.  A cache key compares
# coefficients with ==, under which 1, 1.0, True and Fraction(1) are one
# key; the caches are sound only because every coefficient that reaches
# these kernels is an int.
_KERNEL_CACHE_SIZE = 256
_kernel_cache = functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE)


def _badd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = _padd(out[i], c)
    return _trim(out)


def _bneg(a: tuple) -> tuple:
    return tuple(_pneg(c) for c in a)


@_kernel_cache
def _bmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out: list = [()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = _padd(out[i + j], _pmul(ca, cb))
    return tuple(out)


@_kernel_cache
def _bdivexact(a: tuple, b: tuple) -> tuple:
    """a / b in ZZ[h][n]; raises ArithmeticError unless b divides a."""
    if len(b) == 1:
        return tuple(_pdivexact(c, b[0]) for c in a)
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quot: list = [()] * max(len(a) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = _pdivexact(rem[i + db], lead)
        for j, cb in enumerate(b):
            rem[i + j] = _psub(rem[i + j], _pmul(q, cb))
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quot)


def _columns(a: tuple) -> list[tuple]:
    """The h^j coefficients of a, as int tuples in n padded to len(a)."""
    return [tuple(c[j] if j < len(c) else 0 for c in a) for j in range(max(map(len, a), default=0))]


@_kernel_cache
def _bshift(a: tuple, k: int) -> tuple:
    """A(h, n) -> A(h, n + k), shifting each h^j coefficient in n."""
    cols = [_pshift_arg(col, k) for col in _columns(a)]
    return tuple(_trim(col[i] for col in cols) for i in range(len(a)))


def _content(polys) -> tuple:
    """gcd in ZZ[h] of ZZ[h] polynomials, positive leading coefficient."""
    g: tuple = ()
    for c in polys:
        g = _pgcd(g, c)
        if g == (1,):
            break
    return g


def _bprimitive(a: tuple, content: tuple | None = None) -> tuple:
    content = _content(a) if content is None else content
    return tuple(_pdivexact(c, content) for c in a)


_SAMPLE_POINTS = (19, 29, 37)


def _coprime_certificate(a: tuple, b: tuple) -> bool:
    """True certifies that gcd(a, b) has n-degree 0; False is inconclusive.

    A cheap test for the common coprime case: specialize h at an integer
    sample h0 and take the gcd in ZZ[n].  It is sound when lc_n(a) or
    lc_n(b) does not vanish at h0: a common factor G of positive n-degree
    has lc_n(G) dividing that coefficient, so G(h0, n) keeps its degree and
    divides both specializations.
    """
    for h0 in _SAMPLE_POINTS:
        sa = [_peval(c, h0) for c in a]
        sb = [_peval(c, h0) for c in b]
        if sa[-1] or sb[-1]:
            return len(_pgcd(_trim(sa), _trim(sb))) == 1
    return False


@_kernel_cache
def _bgcd(a: tuple, b: tuple) -> tuple:
    """gcd in ZZ[h][n] of nonzero a, b, with positive leading coefficient.

    gcd(a, b) = gcd(cont a, cont b) * gcd(pp a, pp b) over the h-contents and
    primitive parts.  The second factor is 1 when either side has n-degree 0
    or the certificate holds; otherwise the primitive PRS over ZZ[h] gives it.
    """
    if a == _ONE or b == _ONE:
        return _ONE
    if len(a) == 1 or len(b) == 1 or _coprime_certificate(a, b):
        return (_content(a + b),)
    ca, cb = _content(a), _content(b)
    a = _prs(_bprimitive(a, ca), _bprimitive(b, cb), _pmul, _psub, _bprimitive)
    g = _pgcd(ca, cb)
    if len(a) == 1:
        return (g,)
    return tuple(_pmul(c, g) for c in (a if a[-1][-1] > 0 else _bneg(a)))


# --- canonical fractions: (num, den) pairs of ZZ[h][n] polynomials ----------


def _reduce(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    if not num:
        return _ZERO
    g = _bgcd(num, den)
    if g != _ONE:
        num, den = _bdivexact(num, g), _bdivexact(den, g)
    if den[-1][-1] < 0:
        num, den = _bneg(num), _bneg(den)
    return num, den


def _sum(a: "RationalFunc", b: "RationalFunc") -> tuple[tuple, tuple]:
    """a + b for canonical a, b; only the denominators' gcd is cancelled."""
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if not an:
        return bn, bd
    if not bn:
        return an, ad
    if ad == bd:
        num = _badd(an, bn)
        if not num:
            return _ZERO
        g = _bgcd(num, ad)
        return (num, ad) if g == _ONE else (_bdivexact(num, g), _bdivexact(ad, g))
    g = _bgcd(ad, bd)
    if g == _ONE:
        num = _badd(_bmul(an, bd), _bmul(bn, ad))
        return (num, _bmul(ad, bd)) if num else _ZERO
    ag = _bdivexact(ad, g)
    t = _badd(_bmul(an, _bdivexact(bd, g)), _bmul(bn, ag))
    if not t:
        return _ZERO
    g2 = _bgcd(t, g)
    if g2 != _ONE:
        t, bd = _bdivexact(t, g2), _bdivexact(bd, g2)
    return t, _bmul(ag, bd)


def _difference(a: "RationalFunc", b: "RationalFunc") -> tuple[tuple, tuple]:
    return _sum(a, -b)


def _product(a: "RationalFunc", b: "RationalFunc") -> tuple[tuple, tuple]:
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if not an or not bn:
        return _ZERO
    if an == _ONE and ad == _ONE:
        return bn, bd
    if bn == _ONE and bd == _ONE:
        return an, ad
    if bd != _ONE:
        g = _bgcd(an, bd)
        if g != _ONE:
            an, bd = _bdivexact(an, g), _bdivexact(bd, g)
    if ad != _ONE:
        g = _bgcd(bn, ad)
        if g != _ONE:
            bn, ad = _bdivexact(bn, g), _bdivexact(ad, g)
    return _bmul(an, bn), _bmul(ad, bd)


def _quotient(a: "RationalFunc", b: "RationalFunc") -> tuple[tuple, tuple]:
    return _product(a, b.reciprocal())


# ---------------------------------------------------------------------------
# Rational functions.


class RationalFunc:
    """An element of QQ(h) (symbol "h") or QQ(h)(n) (symbol "n").

    Instances are immutable and always canonical (see the module docstring);
    equality and hash are structural, which by canonicality coincides with
    mathematical equality at the same symbol.  Arithmetic accepts int,
    Fraction and RationalFunc operands of either symbol; a result with an
    "n" operand has symbol "n".
    """

    __slots__ = ("num", "den", "symbol")

    def __init__(self, num: tuple, den: tuple, symbol: str, *, _trust: bool = False):
        if not _trust:
            built = RationalFunc.make(num, den, symbol)
            num, den = built.num, built.den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "symbol", symbol)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalFunc is immutable")

    @classmethod
    def make(cls, num, den, symbol: str) -> "RationalFunc":
        """The canonical value of num/den, given as ZZ[h][n] int tuples."""
        if symbol not in ("h", "n"):
            raise ValueError(f"unknown symbol {symbol!r}")
        num = _trim(_trim(c) for c in num)
        den = _trim(_trim(c) for c in den)
        if not den:
            raise ZeroDenominatorError("zero denominator")
        if symbol == "h" and max(len(num), len(den)) > 1:
            raise ValueError('a level-"h" value cannot depend on n')
        return cls(*_reduce(num, den), symbol, _trust=True)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE and self.den == _ONE

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        """True when the value does not involve its own symbol."""
        if self.symbol == "n":
            return len(self.num) <= 1 and len(self.den) == 1
        return all(len(c) <= 1 for c in self.num) and len(self.den[0]) == 1

    def constant_value(self):
        """A constant's value one level down (a level-"h" value for symbol
        "n", a Fraction for symbol "h"); raises otherwise."""
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        if self.symbol == "n":
            return RationalFunc(self.num, self.den, "h", _trust=True)
        return Fraction(self.num[0][0], self.den[0][0]) if self.num else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def _apply(self, kernel, other, reflected: bool = False):
        if isinstance(other, RationalFunc):
            symbol = "n" if "n" in (self.symbol, other.symbol) else "h"
        elif isinstance(other, (int, Fraction)):
            other, symbol = _const(other, self.symbol), self.symbol
        else:
            return NotImplemented
        a, b = (other, self) if reflected else (self, other)
        return RationalFunc(*kernel(a, b), symbol, _trust=True)

    def __add__(self, other):
        return self._apply(_sum, other)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(_bneg(self.num), self.den, self.symbol, _trust=True)

    def __sub__(self, other):
        return self._apply(_difference, other)

    def __rsub__(self, other):
        return self._apply(_difference, other, reflected=True)

    def __mul__(self, other):
        return self._apply(_product, other)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunc":
        """1/self: num and den swap, signs fixed; no gcd is needed."""
        if self.is_zero():
            raise ZeroDenominatorError("division by zero rational function")
        num, den = self.den, self.num
        if den[-1][-1] < 0:
            num, den = _bneg(num), _bneg(den)
        return RationalFunc(num, den, self.symbol, _trust=True)

    def __truediv__(self, other):
        return self._apply(_quotient, other)

    def __rtruediv__(self, other):
        return self._apply(_quotient, other, reflected=True)

    def __pow__(self, exponent: int):
        """Coprime powers stay coprime, so num and den are raised apart."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer exponents")
        num = den = _ONE
        for _ in range(exponent):
            num, den = _bmul(num, self.num), _bmul(den, self.den)
        return RationalFunc(num, den, self.symbol, _trust=True)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalFunc) or other.symbol != self.symbol:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.symbol, self.num, self.den))

    def shift_arg(self, k: int) -> "RationalFunc":
        """Substitute symbol -> symbol + k.  This automorphism of ZZ[h, n]
        fixes leading coefficients, so the canonical form is preserved."""
        if k == 0:
            return self
        if self.symbol == "n":
            num, den = _bshift(self.num, k), _bshift(self.den, k)
        else:
            num, den = (tuple(_pshift_arg(c, k) for c in p) for p in (self.num, self.den))
        return RationalFunc(num, den, self.symbol, _trust=True)

    def evaluate(self, point):
        """Value at symbol = point (an int or Fraction): a Fraction for symbol
        "h", a level-"h" value for symbol "n".  Raises PoleError where the
        denominator vanishes (identically in h, for symbol "n")."""
        x = Fraction(point)
        if self.symbol == "h":
            den = _peval(self.den[0], x)
            if not den:
                raise PoleError(point)
            return Fraction(_peval(self.num[0], x)) / den if self.num else Fraction(0)
        d = max(len(self.num), len(self.den)) - 1
        num, den = (_trim(_phomog(col, x.numerator, x.denominator, d) for col in _columns(a))
                    for a in (self.num, self.den))
        if not den:
            raise PoleError(point)
        return RationalFunc.make((num,), (den,), "h")

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if self.symbol == "h":
            num, den = fraction_coeff_tuples(self)
        else:
            lead = self.den[-1]
            num, den = (tuple(_qh_coeff(c, lead) for c in a) for a in (self.num, self.den))
        return _ratio_str(num, den, self.symbol)

    def __repr__(self) -> str:
        return f"<{self.symbol}-rational {self}>"


def _monic(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    """ZZ coefficient tuples num/den as Fraction tuples with den monic."""
    lead = den[-1]
    return tuple(Fraction(c, lead) for c in num), tuple(Fraction(c, lead) for c in den)


def _qh_coeff(c: tuple, lead: tuple) -> tuple[tuple, tuple]:
    """The QQ(h) coefficient c/lead, reduced, as monic Fraction tuples."""
    g = _pgcd(c, lead)
    return _monic(_pdivexact(c, g), _pdivexact(lead, g))


def _ratio_str(num: tuple, den: tuple, symbol: str) -> str:
    text = _poly_str(num, symbol)
    return text if len(den) == 1 else f"({text})/({_poly_str(den, symbol)})"


def _poly_str(coeffs: tuple, symbol: str) -> str:
    """Coefficients are Fractions, or (num, den) Fraction tuples in h."""
    parts: list[tuple[bool, str]] = []  # (negative, text without sign)
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if isinstance(c, Fraction):
            if not c:
                continue
            negative = c < 0
            cs = str(-c if negative else c)
        else:
            if not c[0]:
                continue
            cs = _wrap_qh(*c)
            negative = cs.startswith("-")
            if negative:
                cs = cs[1:]
        if k == 0:
            text = cs
        else:
            sym = symbol if k == 1 else f"{symbol}^{k}"
            text = sym if cs == "1" else f"{cs}*{sym}"
        parts.append((negative, text))
    if not parts:
        return "0"
    out = []
    for i, (neg, text) in enumerate(parts):
        if i == 0:
            out.append(("-" if neg else "") + text)
        else:
            out.append((" - " if neg else " + ") + text)
    return "".join(out)


def _wrap_qh(num: tuple, den: tuple) -> str:
    """Render a QQ(h) coefficient for use inside a product term.

    A single monomial with positive rational coefficient ("3*h^2") is safe in
    a product because * and / associate left; anything else gets parentheses.
    A leading "-" is only produced for the negated-single-monomial case so the
    term joiner can absorb it.
    """
    if len(den) == 1:
        nonzero = [(i, v) for i, v in enumerate(num) if v]
        if len(nonzero) == 1:
            i, v = nonzero[0]
            neg = v < 0
            vv = -v if neg else v
            if i == 0:
                body = str(vv)
            elif vv == 1:
                body = "h" if i == 1 else f"h^{i}"
            else:
                body = f"{vv}*h" if i == 1 else f"{vv}*h^{i}"
            return "-" + body if neg else body
    return f"({_ratio_str(num, den, 'h')})"


# ---------------------------------------------------------------------------
# Constructors and the public exact-arithmetic operations.


def _const(value, symbol: str) -> RationalFunc:
    v = Fraction(value)
    return RationalFunc(((v.numerator,),) if v else (), ((v.denominator,),), symbol, _trust=True)


def qh_const(value=0) -> RationalFunc:
    """Constant element of QQ(h)."""
    return _const(value, "h")


def var_h() -> RationalFunc:
    return RationalFunc(((0, 1),), _ONE, "h", _trust=True)


def qhn_const(value=0) -> RationalFunc:
    """Element of QQ(h)(n) from an int, a Fraction or a value of either symbol.

    A level-"h" value is relabelled; a level-"n" value is returned as is.
    """
    if isinstance(value, RationalFunc):
        return value if value.symbol == "n" else RationalFunc(value.num, value.den, "n", _trust=True)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot use {type(value).__name__} as a rational-function constant")
    return _const(value, "n")


def var_n() -> RationalFunc:
    return RationalFunc(((), (1,)), _ONE, "n", _trust=True)


def var_h_in_n() -> RationalFunc:
    return qhn_const(var_h())


def normalize(r: RationalFunc) -> RationalFunc:
    """Re-canonicalize; the identity on values already in canonical form.

    Also serves as the validated constructor for raw numerator/denominator
    data via ``RationalFunc.make``; a zero denominator raises
    ZeroDenominatorError.
    """
    return RationalFunc.make(r.num, r.den, r.symbol)


def equals(r1, r2) -> bool:
    """Mathematical equality; accepts int/Fraction and values of either symbol."""
    a, b = (_const(r, "h") if isinstance(r, (int, Fraction)) else r for r in (r1, r2))
    if not (isinstance(a, RationalFunc) and isinstance(b, RationalFunc)):
        return False
    return a.num == b.num and a.den == b.den


def evaluate(r: RationalFunc, point):
    """Evaluate at the value's own symbol; PoleError at a vanishing denominator."""
    return r.evaluate(point)


def asymptotic_degree(r: RationalFunc):
    """deg(num) - deg(den) in the value's own symbol; -inf for the zero function."""
    if r.is_zero():
        return NEG_INF
    if r.symbol == "n":
        return len(r.num) - len(r.den)
    return len(r.num[0]) - len(r.den[0])


def substitute_h(r: RationalFunc, h0: Fraction) -> RationalFunc:
    """Specialize the weight symbol at h0; the result is h-free.

    N and D are specialized directly, so only a denominator that vanishes
    identically in n at h0 raises PoleError; removable poles of the printed
    (monic) coefficients do not.
    """
    if r.symbol != "n":
        raise ValueError("substitute_h expects a level-\"n\" value")
    h0 = Fraction(h0)
    if r.is_zero():
        return r
    p, q = h0.numerator, h0.denominator
    d = max(len(c) for c in (*r.num, *r.den)) - 1

    def spec(a: tuple) -> tuple:
        return _trim((v,) if v else () for v in (_phomog(c, p, q, d) for c in a))

    den = spec(r.den)
    if not den:
        raise PoleError(h0, f"denominator degenerates at h = {h0}")
    return RationalFunc(*_reduce(spec(r.num), den), "n", _trust=True)


def fraction_coeff_tuples(r: RationalFunc) -> tuple[tuple, tuple]:
    """(num, den) as Fraction tuples in the value's own symbol, den monic.

    Raises ValueError when a level-"n" value still depends on h.
    """
    if r.symbol == "h":
        num, den = (r.num[0] if r.num else ()), r.den[0]
    else:
        num, den = _int_coeff_tuples(r)
    return _monic(num, den)


def _int_coeff_tuples(r: RationalFunc) -> tuple[tuple, tuple]:
    """(N, D) of a level-"n" value as int tuples in n, or ValueError when
    the value still depends on h."""
    if any(len(c) > 1 for c in (*r.num, *r.den)):
        raise ValueError("value depends on h")
    return tuple(c[0] if c else 0 for c in r.num), tuple(c[0] if c else 0 for c in r.den)


def integer_values(r: RationalFunc, stop: int):
    """(N(n), D(n)) for n = 0, ..., stop - 1, by integer Horner, where N/D
    is the stored form of an h-free level-"n" value (as substitute_h
    returns); D(n) = 0 marks a pole at n."""
    num, den = _int_coeff_tuples(r)
    for n in range(stop):
        yield _peval(num, n), _peval(den, n)


# ---------------------------------------------------------------------------
# Parsing.


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with optional sign and whitespace."""
    s = text.strip()
    if not re.fullmatch(r"[+-]?\d+(\s*/\s*\d+)?", s):
        raise ParseError(f"malformed rational literal: {text!r}")
    try:
        return Fraction(s.replace(" ", ""))
    except ZeroDivisionError:
        raise ZeroDenominatorError(f"zero denominator in literal: {text!r}") from None


# parse refuses a power whose exponent times its base's degree (in n or in h,
# numerator or denominator, at least 1) exceeds _MAX_POWER_DEGREE, or whose
# expansion may hold more than _MAX_POWER_TERMS terms n^a h^b, that is
# (exponent x n-degree + 1) x (exponent x h-degree + 1): powers are expanded
# term by term, and neither n^100000 nor (n+h)^1000 would finish in seconds
_MAX_POWER_DEGREE = 1000
_MAX_POWER_TERMS = 10_000

# parse refuses parentheses and unary minus signs nested deeper than this,
# before the recursive descent runs out of Python's recursion limit
_MAX_NESTING = 100

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([nh])|([()+\-*/^]))")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in {text!r}")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("sym", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


def parse(text: str) -> RationalFunc:
    """Parse an expression in n and h into a level-"n" rational function.

    Grammar: integer literals, symbols n and h, + - * / ^ and parentheses;
    ^ takes a nonnegative integer exponent, exponent x base degree is at
    most _MAX_POWER_DEGREE and the expanded terms at most _MAX_POWER_TERMS;
    * and / associate left; parentheses and unary minus signs nest at most
    _MAX_NESTING deep.
    """
    tokens = _tokenize(text)
    pos = depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def deeper(parse_inner) -> RationalFunc:
        """parse_inner() one nesting level down."""
        nonlocal depth
        if depth == _MAX_NESTING:
            raise ParseError(f"parentheses and unary minus signs nest deeper than {_MAX_NESTING}")
        depth += 1
        node = parse_inner()
        depth -= 1
        return node

    def expr() -> RationalFunc:
        kind, val = peek()
        negate = False
        if kind == "op" and val in "+-":
            take()
            negate = val == "-"
        node = term()
        if negate:
            node = -node
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                take()
                rhs = term()
                node = node - rhs if val == "-" else node + rhs
            else:
                return node

    def term() -> RationalFunc:
        node = unary()
        while True:
            kind, val = peek()
            if kind == "op" and val in "*/":
                take()
                rhs = unary()
                node = node * rhs if val == "*" else node / rhs
            else:
                return node

    def unary() -> RationalFunc:
        kind, val = peek()
        if kind == "op" and val == "-":
            take()
            return -deeper(unary)
        return power()

    def power() -> RationalFunc:
        node = atom()
        kind, val = peek()
        if kind == "op" and val == "^":
            take()
            kind, val = take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            # a level-"n" value holds its n-coefficients, each an h-polynomial
            parts = (node.num, node.den)
            deg_n = max(len(p) - 1 for p in parts)
            deg_h = max(len(c) - 1 for p in parts for c in p)
            degree = max(1, deg_n, deg_h)
            if val * degree > _MAX_POWER_DEGREE:
                raise ParseError(
                    f"^{val} exceeds the power bound: exponent x max(1, base degree)"
                    f" = {val * degree} > {_MAX_POWER_DEGREE}"
                )
            terms = (val * deg_n + 1) * (val * deg_h + 1)
            if terms > _MAX_POWER_TERMS:
                raise ParseError(
                    f"^{val} exceeds the power bound: (exponent x n-degree + 1)"
                    f" x (exponent x h-degree + 1) = {terms} > {_MAX_POWER_TERMS} terms"
                )
            node = node ** val
        return node

    def atom() -> RationalFunc:
        kind, val = take()
        if kind == "int":
            return qhn_const(val)
        if kind == "sym":
            return var_n() if val == "n" else var_h_in_n()
        if kind == "op" and val == "(":
            node = deeper(expr)
            kind, val = take()
            if (kind, val) != ("op", ")"):
                raise ParseError(f"expected ')' in {text!r}")
            return node
        raise ParseError(f"unexpected token in {text!r}")

    if not tokens:
        raise ParseError("empty expression")
    result = expr()
    if pos != len(tokens):
        raise ParseError(f"trailing input in {text!r}")
    return result
