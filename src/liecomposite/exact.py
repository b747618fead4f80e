"""Exact scalar arithmetic: rationals, univariate polynomials, rational functions.

The package works in a fixed two-level tower of fields

    QQ  (Fraction)  <  QQ(h)  (symbol "h")  <  QQ(h)(n)  (symbol "n"),

where h is the highest-weight parameter and n is the growth variable.
Every value of ``RationalFunc`` is kept in canonical form: numerator and
denominator coprime, denominator monic, zero represented as 0/1.  Canonical
form makes structural equality (and hashing) agree with mathematical
equality, which the operator layer relies on.

Polynomials are plain tuples of coefficients in ascending degree order with
no trailing zeros; the empty tuple is the zero polynomial.  Coefficients are
``Fraction`` at the inner level and ``RationalFunc`` (symbol "h") at the
outer level, and all helpers are duck-typed over both.

Growth analysis (``asymptotic_degree``) reads off deg(num) - deg(den) in the
value's own symbol; for the outer level this treats h-dependent leading
coefficients as nonzero, i.e. h is generic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError, PoleError, ZeroDenominatorError

Rational = Fraction

NEG_INF = float("-inf")

# Tower order: lower-level values coerce into constants of higher levels.
_SYMBOL_LEVEL = {"h": 0, "n": 1}


def _is_one(c) -> bool:
    if isinstance(c, Fraction):
        return c == 1
    return c.is_one()


# ---------------------------------------------------------------------------
# Polynomials as coefficient tuples (ascending, trailing coefficient nonzero).


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
        out[i] = out[i] + c
    return _trim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _psub(a: tuple, b: tuple) -> tuple:
    return _padd(a, _pneg(b))


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out: list = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            t = ca * cb
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    zero = a[0] * 0  # zero of the coefficient arithmetic, not a bare int
    return _trim(zero if c is None else c for c in out)


def _pscale(a: tuple, s) -> tuple:
    if not s:
        return ()
    return tuple(c * s for c in a)


def _pscale_div(a: tuple, s) -> tuple:
    return tuple(c / s for c in a)


def _pdivmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder over a field; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    lead = b[-1]
    db = len(b) - 1
    quot: list = [None] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db]
        q = c / lead
        quot[i] = q
        if q:
            for j, cb in enumerate(b):
                rem[i + j] = rem[i + j] - q * cb
    return _trim(quot), _trim(rem)


def _pdivexact(a: tuple, b: tuple) -> tuple:
    q, r = _pdivmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _peval(a: tuple, x):
    """Horner evaluation; x may sit in the coefficient field or below it."""
    if not a:
        return x - x  # zero of the ambient arithmetic
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


def _pshift_arg(a: tuple, k: int) -> tuple:
    """p(x) -> p(x + k) for integer k, via Horner in (x + k)."""
    if k == 0 or not a:
        return a
    acc: list = []
    for c in reversed(a):
        # acc := acc*(x+k) + c
        nxt = [None] * (len(acc) + 1)
        for i, t in enumerate(acc):
            nxt[i + 1] = t
            scaled = t * k
            nxt[i] = scaled if nxt[i] is None else nxt[i] + scaled
        if nxt:
            nxt[0] = c if nxt[0] is None else nxt[0] + c
        else:
            nxt = [c]
        acc = nxt
    return _trim(acc)


def _pmonic(a: tuple) -> tuple:
    if not a or _is_one(a[-1]):
        return a
    return _pscale_div(a, a[-1])


# --- gcd over QQ[x] (Fraction coefficients) --------------------------------


def _primitive_int(a: tuple) -> tuple:
    """Scale a Fraction polynomial to primitive integer form, positive lead."""
    if not a:
        return a
    m = 1
    for c in a:
        m = m * c.denominator // math.gcd(m, c.denominator)
    ints = [int(c * m) for c in a]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if ints[-1] < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def _pgcd_fractions(a: tuple, b: tuple) -> tuple:
    a, b = _primitive_int(a), _primitive_int(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, _primitive_int(r)
    return _pmonic(a)


# --- gcd over QQ(h)[n] ------------------------------------------------------
#
# Coefficients here are RationalFunc values at level "h".  Plain Euclid over
# the fraction field suffers severe intermediate swell, so the real work is
# done on denominator-cleared bivariate polynomials (tuples of Fraction
# tuples) with a primitive polynomial remainder sequence.  A cheap sound
# certificate short-circuits the common coprime case: specialize h at a
# sample point and take a univariate gcd.  The certificate is sound whenever
# one argument is monic in n (true at every call site: canonical denominators
# are monic), because a monic common divisor of a monic pole-free polynomial
# is itself pole-free at the sample and stays full-degree there.

_SAMPLE_POINTS = (Fraction(19, 23), Fraction(29, 31), Fraction(17, 37))


def _qh_eval(c, h0: Fraction) -> Fraction:
    num = _peval(c.num, h0)
    den = _peval(c.den, h0)
    if not den:
        raise ZeroDivisionError
    return num / den


def _coprime_certificate(a: tuple, b: tuple) -> bool:
    """True certifies gcd(a, b) = 1; False is inconclusive.

    Requires at least one of a, b monic in the main variable.
    """
    for h0 in _SAMPLE_POINTS:
        try:
            sa = _trim(_qh_eval(c, h0) for c in a)
            sb = _trim(_qh_eval(c, h0) for c in b)
        except ZeroDivisionError:
            continue
        if len(sa) != len(a) and len(sb) != len(b):
            continue  # both degrees dropped; monic side lost
        g = _pgcd_fractions(sa, sb)
        return len(g) == 1
    return False


def _bp_content(bp: list[tuple]) -> tuple:
    g: tuple = ()
    for c in bp:
        if c:
            g = _pgcd_fractions(g, c) if g else _primitive_int(c)
        if len(g) == 1:
            break
    return g if g else ()


def _bp_primitive(bp) -> list[tuple]:
    bp = [c for c in bp]
    while bp and not bp[-1]:
        bp.pop()
    if not bp:
        return bp
    g = _bp_content(bp)
    if len(g) > 1:
        bp = [_pdivexact(c, g) if c else () for c in bp]
    return bp


def _bp_prem(a: list[tuple], b: list[tuple]) -> list[tuple]:
    """Pseudo-remainder of bivariate polynomials (main variable = outer index)."""
    db = len(b) - 1
    lead_b = b[-1]
    rem = list(a)
    while len(rem) - 1 >= db and rem:
        lr = rem[-1]
        shift = len(rem) - 1 - db
        rem = [_pmul(c, lead_b) for c in rem]
        for j, cb in enumerate(b):
            rem[j + shift] = _psub(rem[j + shift], _pmul(cb, lr))
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _pgcd_qh(a: tuple, b: tuple) -> tuple:
    """gcd in QQ(h)[n], returned monic; inputs are tuples of level-"h" values."""

    def clear(p: tuple) -> list[tuple]:
        lcm = (Fraction(1),)
        for c in p:
            g = _pgcd_fractions(lcm, c.den)
            lcm = _pmul(_pdivexact(lcm, g), c.den)
        return [_pmul(c.num, _pdivexact(lcm, c.den)) for c in p]

    qh_one = a[-1] / a[-1] if a else b[-1] / b[-1]
    bp_a = _bp_primitive(clear(a))
    bp_b = _bp_primitive(clear(b))
    if len(bp_a) < len(bp_b):
        bp_a, bp_b = bp_b, bp_a
    while bp_b:
        r = _bp_prem(bp_a, bp_b)
        bp_a, bp_b = bp_b, _bp_primitive(r)
    out = tuple(RationalFunc.make(c, (Fraction(1),), "h") for c in bp_a)
    if len(out) == 1:
        return (qh_one,)
    return _pmonic(out)


def _pgcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd over the coefficient field; dispatches on coefficient type."""
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    sample = a[-1]
    if isinstance(sample, Fraction):
        return _pgcd_fractions(a, b)
    if len(a) == 1 or len(b) == 1:
        return (sample / sample,)
    if _coprime_certificate(a, b):
        return (sample / sample,)
    return _pgcd_qh(a, b)


# ---------------------------------------------------------------------------
# Rational functions.


class RationalFunc:
    """A rational function in one symbol over the level below it.

    Instances are immutable and always canonical: num/den coprime, den monic,
    zero stored as ()/(1,).  Equality and hash are structural, which by
    canonicality coincides with mathematical equality at the same level.
    Arithmetic accepts int, Fraction and lower-level RationalFunc operands
    and lifts them; mixing values of the same symbol but different towers is
    the caller's responsibility (the package only ever builds h under n).
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
        num, den = _trim(num), _trim(den)
        if symbol not in _SYMBOL_LEVEL:
            raise ValueError(f"unknown symbol {symbol!r}")
        if not den:
            raise ZeroDenominatorError("zero denominator")
        lead = den[-1]
        if not _is_one(lead):
            den = _pscale_div(den, lead)
            num = _pscale_div(num, lead)
        if not num:
            return cls((), (den[-1],), symbol, _trust=True)
        if len(den) > 1:
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivexact(num, g)
                den = _pdivexact(den, g)
        return cls(num, den, symbol, _trust=True)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return len(self.num) == 1 and len(self.den) == 1 and _is_one(self.num[0])

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    @property
    def _one_coeff(self):
        """Multiplicative unit of the coefficient field (den is monic)."""
        return self.den[-1]

    def constant_value(self):
        """The coefficient-field value of a constant; raises otherwise."""
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.num[0] if self.num else self._one_coeff - self._one_coeff

    # -- coercion ----------------------------------------------------------

    def _const_from_coeff(self, c) -> "RationalFunc":
        one = self._one_coeff
        if not c:
            return RationalFunc((), (one,), self.symbol, _trust=True)
        return RationalFunc((c,), (one,), self.symbol, _trust=True)

    def _lift(self, other):
        if isinstance(other, RationalFunc):
            if other.symbol == self.symbol:
                return other
            if _SYMBOL_LEVEL[other.symbol] < _SYMBOL_LEVEL[self.symbol]:
                return self._const_from_coeff(other)
            return None
        if isinstance(other, (int, Fraction)):
            return self._const_from_coeff(self._one_coeff * other)
        return None

    def _pair(self, other):
        """(self, other) lifted to their common level, or None.

        Needed because Python skips reflected dunders when both operands share
        a type, so level mixing inside one class must be resolved here.
        """
        if isinstance(other, RationalFunc) and other.symbol != self.symbol \
                and _SYMBOL_LEVEL[other.symbol] > _SYMBOL_LEVEL[self.symbol]:
            return other._const_from_coeff(self), other
        lifted = self._lift(other)
        if lifted is None:
            return None
        return self, lifted

    # -- arithmetic ---------------------------------------------------------

    def _add(self, other: "RationalFunc") -> "RationalFunc":
        a, b = self, other
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        if a.den == b.den:
            num = _padd(a.num, b.num)
            if not num:
                return a._const_from_coeff(0)
            g = _pgcd(num, a.den) if len(a.den) > 1 else (a._one_coeff,)
            if len(g) > 1:
                return RationalFunc(_pdivexact(num, g), _pdivexact(a.den, g),
                                    a.symbol, _trust=True)
            return RationalFunc(num, a.den, a.symbol, _trust=True)
        g = _pgcd(a.den, b.den)
        if len(g) == 1:
            num = _padd(_pmul(a.num, b.den), _pmul(b.num, a.den))
            den = _pmul(a.den, b.den)
            if not num:
                return a._const_from_coeff(0)
            return RationalFunc(num, den, a.symbol, _trust=True)
        bg = _pdivexact(b.den, g)
        ag = _pdivexact(a.den, g)
        t = _padd(_pmul(a.num, bg), _pmul(b.num, ag))
        if not t:
            return a._const_from_coeff(0)
        g2 = _pgcd(t, g)
        if len(g2) > 1:
            t = _pdivexact(t, g2)
            den = _pmul(ag, _pdivexact(b.den, g2))
        else:
            den = _pmul(ag, b.den)
        return RationalFunc(t, den, a.symbol, _trust=True)

    def _mul(self, other: "RationalFunc") -> "RationalFunc":
        a, b = self, other
        if a.is_zero() or b.is_zero():
            return a._const_from_coeff(0)
        an, bd = a.num, b.den
        if len(bd) > 1:
            g1 = _pgcd(an, bd)
            if len(g1) > 1:
                an, bd = _pdivexact(an, g1), _pdivexact(bd, g1)
        bn, ad = b.num, a.den
        if len(ad) > 1:
            g2 = _pgcd(bn, ad)
            if len(g2) > 1:
                bn, ad = _pdivexact(bn, g2), _pdivexact(ad, g2)
        return RationalFunc(_pmul(an, bn), _pmul(ad, bd), a.symbol, _trust=True)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0]._add(pair[1])

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return RationalFunc(_pneg(self.num), self.den, self.symbol, _trust=True)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0]._add(-pair[1])

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[1]._add(-pair[0])

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0]._mul(pair[1])

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunc":
        if self.is_zero():
            raise ZeroDenominatorError("division by zero rational function")
        return RationalFunc.make(self.den, self.num, self.symbol)

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0]._mul(pair[1].reciprocal())

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[1]._mul(pair[0].reciprocal())

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer exponents")
        out = self._const_from_coeff(self._one_coeff)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out._mul(base)
            base = base._mul(base)
            e >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalFunc) or other.symbol != self.symbol:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.symbol, self.num, self.den))

    def shift_arg(self, k: int) -> "RationalFunc":
        """Substitute symbol -> symbol + k; a field automorphism, so the
        canonical form is preserved (shifting keeps denominators monic)."""
        if k == 0:
            return self
        return RationalFunc(_pshift_arg(self.num, k), _pshift_arg(self.den, k),
                            self.symbol, _trust=True)

    def evaluate(self, point):
        """Value at symbol = point; raises PoleError on a vanishing denominator."""
        den = _peval(self.den, point)
        if not den:
            raise PoleError(point)
        if not self.num:
            return den - den
        return _peval(self.num, point) / den

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        num = _poly_str(self.num, self.symbol)
        if len(self.den) == 1 and _is_one(self.den[0]):
            return num
        den = _poly_str(self.den, self.symbol)
        return f"({num})/({den})"

    def __repr__(self) -> str:
        return f"<{self.symbol}-rational {self}>"


def _poly_str(coeffs: tuple, symbol: str) -> str:
    if not coeffs:
        return "0"
    parts: list[tuple[bool, str]] = []  # (negative, text without sign)
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        negative = False
        if isinstance(c, Fraction):
            if c < 0:
                negative, c = True, -c
            cs = str(c)
        else:
            cs, _atomic = _wrap_qh(c)
            if cs.startswith("-"):
                negative, cs = True, cs[1:]
        if k == 0:
            text = cs
        else:
            sym = symbol if k == 1 else f"{symbol}^{k}"
            if cs == "1":
                text = sym
            else:
                text = f"{cs}*{sym}"
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


def _wrap_qh(c: RationalFunc) -> tuple[str, bool]:
    """Render a level-"h" coefficient for use inside a product term.

    Returns (text, atomic); non-atomic coefficients come back parenthesized.
    A single monomial with positive rational coefficient ("3*h^2") is safe in
    a product because * and / associate left; anything else gets parentheses.
    A leading "-" is only produced for the negated-single-monomial case so the
    term joiner can absorb it.
    """
    if len(c.den) == 1 and _is_one(c.den[0]):
        nonzero = [(i, v) for i, v in enumerate(c.num) if v]
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
            return ("-" + body if neg else body), True
    return f"({c})", False


# ---------------------------------------------------------------------------
# Tower constructors and the public exact-arithmetic operations.

_QH_ONE = Fraction(1)


def qh_const(value=0) -> RationalFunc:
    """Constant element of QQ(h)."""
    v = Fraction(value)
    return RationalFunc((v,) if v else (), (_QH_ONE,), "h", _trust=True)


def var_h() -> RationalFunc:
    return RationalFunc((Fraction(0), Fraction(1)), (_QH_ONE,), "h", _trust=True)


def qhn_const(value=0) -> RationalFunc:
    """Constant element of QQ(h)(n) from int/Fraction or a level-"h" value."""
    if isinstance(value, RationalFunc):
        if value.symbol == "n":
            return value
        c = value
    else:
        c = qh_const(value)
    return RationalFunc((c,) if c else (), (qh_const(1),), "n", _trust=True)


def var_n() -> RationalFunc:
    return RationalFunc((qh_const(0), qh_const(1)), (qh_const(1),), "n", _trust=True)


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
    """Mathematical equality; accepts int/Fraction and mixed tower levels."""
    if isinstance(r1, RationalFunc):
        lifted = r1._lift(r2)
        if lifted is not None:
            return r1.num == lifted.num and r1.den == lifted.den
        if isinstance(r2, RationalFunc):
            lifted = r2._lift(r1)
            return lifted.num == r2.num and lifted.den == r2.den
        return False
    if isinstance(r2, RationalFunc):
        return equals(r2, r1)
    return Fraction(r1) == Fraction(r2)


def evaluate(r: RationalFunc, point):
    """Evaluate at the value's own symbol; PoleError at a vanishing denominator."""
    return r.evaluate(point)


def asymptotic_degree(r: RationalFunc):
    """deg(num) - deg(den) in the value's own symbol; -inf for the zero function."""
    if r.is_zero():
        return NEG_INF
    return (len(r.num) - 1) - (len(r.den) - 1)


def substitute_h(r: RationalFunc, h0: Fraction) -> RationalFunc:
    """Specialize the weight symbol; result has constant level-"h" coefficients.

    Coefficient denominators are cleared jointly first (a unit scaling of the
    whole function), so only genuine degeneration of the denominator at h0
    raises PoleError; removable coefficient poles created by the monic
    canonical form do not.
    """
    if r.symbol != "n":
        raise ValueError("substitute_h expects a level-\"n\" value")
    h0 = Fraction(h0)
    if r.is_zero():
        return r

    lcm = (Fraction(1),)
    for c in (*r.num, *r.den):
        g = _pgcd_fractions(lcm, c.den)
        lcm = _pmul(_pdivexact(lcm, g), c.den)

    def spec(c: RationalFunc) -> Fraction:
        return _peval(_pmul(c.num, _pdivexact(lcm, c.den)), h0) if c.num else Fraction(0)

    den = _trim(spec(c) for c in r.den)
    if not den:
        raise PoleError(h0, f"denominator degenerates at h = {h0}")
    num = tuple(spec(c) for c in r.num)
    return RationalFunc.make(tuple(qh_const(v) for v in num),
                             tuple(qh_const(v) for v in den), "n")


def fraction_coeff_tuples(r: RationalFunc) -> tuple[tuple, tuple]:
    """(num, den) as Fraction tuples for an h-free level-"n" value.

    Raises ValueError when a coefficient still depends on h.
    """
    def unwrap(c: RationalFunc) -> Fraction:
        if not c.is_constant():
            raise ValueError("value depends on h")
        v = c.constant_value()
        return v if isinstance(v, Fraction) else Fraction(v)

    return tuple(unwrap(c) for c in r.num), tuple(unwrap(c) for c in r.den)


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
    ^ takes a nonnegative integer exponent; * and / associate left.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

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
            return -unary()
        return power()

    def power() -> RationalFunc:
        node = atom()
        kind, val = peek()
        if kind == "op" and val == "^":
            take()
            kind, val = take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            node = node ** val
        return node

    def atom() -> RationalFunc:
        kind, val = take()
        if kind == "int":
            return qhn_const(val)
        if kind == "sym":
            return var_n() if val == "n" else var_h_in_n()
        if kind == "op" and val == "(":
            node = expr()
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
