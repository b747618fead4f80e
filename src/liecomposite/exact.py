"""Exact scalar arithmetic: rationals, polynomials, rational functions.

Every ``RationalFunc`` is an element of the one field QQ(h)(n), where h
is the highest-weight parameter and n is the growth variable; a QQ(h)
value is one that is free of n.  It is stored fraction-free as N/D with
N, D in ZZ[h][n]:

- N and D are coprime in ZZ[h, n], integer content included;
- D has a positive leading coefficient (highest power of n, then of h);
- zero is 0/1.

This form is unique, so structural equality (and hashing) coincides with
mathematical equality, which the operator layer relies on.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the empty tuple is the zero polynomial.  A ZZ[h] polynomial
has int coefficients; a ZZ[h][n] polynomial has ZZ[h] coefficients.
``Fraction`` appears only at the boundary: constants, ``constant_value``,
``fraction_coeff_tuples`` and printing, which renders a value monic in n
with reduced QQ(h) coefficients.

Growth analysis (``asymptotic_degree``) reads off deg(num) - deg(den) in n;
this treats h-dependent leading coefficients as nonzero, i.e. h is generic.
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
# same products, shifts, gcds, factorizations and exact quotients recur;
# _bmul, _bdivexact, _bshift, _bgcd and _linear_factors keep their most
# recent results in caches of this size (a larger one costs memory on large
# runs and gains little).  Results are tuples, so callers cannot alter a
# cached one.  A cache key compares coefficients with ==, under which 1,
# 1.0, True and Fraction(1) are one key; the caches are sound only because
# every coefficient that reaches these kernels is an int.
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
    """a * b, summed into one int row per power of n."""
    if not a or not b:
        return ()
    width = max(map(len, a)) + max(map(len, b)) - 1
    rows = [[0] * width for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for k, x in enumerate(ca):
            if x:
                for j, cb in enumerate(b):
                    row = rows[i + j]
                    for l, y in enumerate(cb, k):
                        row[l] += x * y
    return tuple(map(_trim, rows))


def _bpow(a: tuple, exponent: int) -> tuple:
    """a ** exponent by repeated squaring."""
    out = _ONE
    while exponent:
        if exponent & 1:
            out = _bmul(out, a)
        exponent >>= 1
        if exponent:
            a = _bmul(a, a)
    return out


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


def _bdivlinear(a: tuple, root: tuple) -> tuple | None:
    """a / (n - root) for root in ZZ[h] by synthetic division, or None."""
    acc, quot = (), []
    room = max(map(len, a)) - max(len(root), 1) + 1  # the h-length of an exact quotient
    for c in reversed(a):
        acc = _padd(c, _pmul(root, acc))
        if len(acc) > room:
            return None
        quot.append(acc)
    return None if quot.pop() else tuple(reversed(quot))


def _bdivmonic(a: tuple, b: tuple) -> tuple | None:
    """a / b for a in ZZ[h][n] and b monic in ZZ[n], or None when b does
    not divide a: b divides each h^j column of a on its own."""
    try:
        cols = [_pdivexact(col, b) for col in _columns(a)]
    except ArithmeticError:
        return None
    return tuple(_trim(col[i] for col in cols) for i in range(len(a) - len(b) + 1))


def _strip(a: tuple, root: tuple, most: int) -> tuple[tuple, int]:
    """(a / (n - root)^k, k) for the largest k <= most that divides a.

    Up to 4 factors come off one synthetic division each (the ladder
    families' multiplicities are a few).  Past that, for a root free of h,
    it divides by (n - root)^2, ^4, ... while they divide, then tries each
    lower power once, highest first: O(log k) divisions in all.  A root
    with an h term keeps one division per factor, as a power of n + 2h - r
    is dense in n and h and dividing by it costs more than it saves."""
    k = 0
    while k < most and (q := _bdivlinear(a, root)) is not None:
        a, k = q, k + 1
        if k == 4 and len(root) < 2:
            break
    else:
        return a, k
    powers = [(-root[0] if root else 0, 1)]  # (n - root)^(2^i) in ZZ[n]
    while k + (step := 2 ** len(powers)) <= most and step < len(a):
        powers.append(_pmul(powers[-1], powers[-1]))
        if (q := _bdivmonic(a, powers[-1])) is None:
            powers.pop()
            break
        a, k = q, k + step
    for i in reversed(range(len(powers))):
        if k + 2**i <= most and (q := _bdivmonic(a, powers[i])) is not None:
            a, k = q, k + 2**i
    return a, k


@_kernel_cache
def _linear_factors(b: tuple) -> tuple | None:
    """(c, ((root, multiplicity), ...)) with b = c * prod (n - root)^m, c > 0
    an int and each root -2h - j or -j (the ladder families' factors
    n + 2h + j and n + j); None when b has no such form."""
    c = b[-1][0] if len(b[-1]) == 1 else 0
    p = [col[0] if col else 0 for col in b]  # b(0, n) = c * prod (n + j)
    if c <= 0 or any(v % c for v in p):
        return None
    *_, c2, c1, _ = [0, 0] + [v // c for v in p]  # n^d + c1 n^(d-1) + c2 n^(d-2) ...
    square_sum = c1 * c1 - 2 * c2  # of the roots of b(0, n)
    if not 0 <= square_sum <= 10**6:  # a wider search is left to the PRS
        return None
    bound, low, roots = math.isqrt(square_sum), next(v for v in p if v), []
    for r in range(-bound, bound + 1):
        if not p[0] if r == 0 else not low % r and not _peval(p, r):
            for root in ((r, -2), (r,) if r else ()):
                b, m = _strip(b, root, len(b))
                if m:
                    roots.append((root, m))
    return (c, tuple(roots)) if b == ((c,),) else None


def _coprime_certificate(a: tuple, b: tuple) -> bool:
    """True certifies that gcd(a, b) has n-degree 0; False is inconclusive.

    Specialize h at an integer h0 and take the gcd in ZZ[n].  It is sound
    when lc_n(a) or lc_n(b) does not vanish at h0: a common factor G of
    positive n-degree has lc_n(G) dividing that coefficient, so G(h0, n)
    keeps its degree and divides both specializations.
    """
    for h0 in (19, 29, 37):
        sa, sb = ([_peval(c, h0) for c in x] for x in (a, b))
        if sa[-1] or sb[-1]:
            return len(_pgcd(_trim(sa), _trim(sb))) == 1
    return False


@_kernel_cache
def _bgcd(a: tuple, b: tuple) -> tuple:
    """gcd in ZZ[h][n] of nonzero a, b, with positive leading coefficient.

    With n-degree 0 on either side it is the h-content gcd.  When one side
    is c * prod (n - root)^m, it is gcd(c, the other's integer content)
    times each factor to its lesser multiplicity.  Otherwise it is
    gcd(cont a, cont b) * gcd(pp a, pp b), where the second factor is 1
    when the certificate holds and comes from the primitive PRS if not.
    """
    if a == _ONE or b == _ONE:
        return _ONE
    if len(a) == 1 or len(b) == 1:
        return (_content(a + b),)
    for x, y in ((a, b), (b, a)):
        if split := _linear_factors(y):
            c, roots = split
            g = ((math.gcd(c, *(v for col in x for v in col)),),)
            for root, m in roots:
                x, k = _strip(x, root, m)
                if k:
                    g = _bmul(g, _bpow((_pneg(root), (1,)), k))
            return g
    if _coprime_certificate(a, b):
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


def _unreduced_sum(an: tuple, ad: tuple, bn: tuple, bd: tuple) -> tuple[tuple, tuple, tuple]:
    """(t, den, g) with an/ad + bn/bd = t/den: the sum over the lcm of the
    denominators, g = gcd(ad, bd); t is empty exactly when the sum is 0.
    Nothing else is cancelled: for coprime operands, every common factor
    of t and den divides g."""
    if not an:
        return bn, bd, _ONE
    if not bn:
        return an, ad, _ONE
    if ad == bd:
        return _badd(an, bn), ad, ad
    g = _bgcd(ad, bd)
    if g == _ONE:
        return _badd(_bmul(an, bd), _bmul(bn, ad)), _bmul(ad, bd), _ONE
    ag = _bdivexact(ad, g)
    return _badd(_bmul(an, _bdivexact(bd, g)), _bmul(bn, ag)), _bmul(ag, bd), g


def _sum(a: "RationalFunc", b: "RationalFunc") -> tuple[tuple, tuple]:
    """a + b for canonical a, b: the unreduced sum, then its common factor."""
    t, den, g = _unreduced_sum(a.num, a.den, b.num, b.den)
    if not t:
        return _ZERO
    if g != _ONE and (g2 := _bgcd(t, g)) != _ONE:
        t, den = _bdivexact(t, g2), _bdivexact(den, g2)
    return t, den


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
    """An element of QQ(h)(n).

    Instances are immutable and always canonical (see the module docstring);
    equality and hash are structural, which by canonicality coincides with
    mathematical equality.  Arithmetic accepts int, Fraction and
    RationalFunc operands.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple, *, _trust: bool = False):
        if not _trust:
            built = RationalFunc.make(num, den)
            num, den = built.num, built.den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalFunc is immutable")

    @classmethod
    def make(cls, num, den) -> "RationalFunc":
        """The canonical value of num/den, given as ZZ[h][n] int tuples."""
        num = _trim(_trim(c) for c in num)
        den = _trim(_trim(c) for c in den)
        if not den:
            raise ZeroDenominatorError("zero denominator")
        return cls(*_reduce(num, den), _trust=True)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        """True when the value is free of n, i.e. lies in QQ(h)."""
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        """The Fraction of a value free of both n and h; raises ValueError
        otherwise."""
        if not (self.is_constant() and len(self.den[0]) == 1 and all(len(c) == 1 for c in self.num)):
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num[0][0], self.den[0][0]) if self.num else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def _apply(self, kernel, other, reflected: bool = False):
        if isinstance(other, (int, Fraction)):
            other = _const(other)
        elif not isinstance(other, RationalFunc):
            return NotImplemented
        a, b = (other, self) if reflected else (self, other)
        return RationalFunc(*kernel(a, b), _trust=True)

    def __add__(self, other):
        return self._apply(_sum, other)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(_bneg(self.num), self.den, _trust=True)

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
        return RationalFunc(num, den, _trust=True)

    def __truediv__(self, other):
        return self._apply(_quotient, other)

    def __rtruediv__(self, other):
        return self._apply(_quotient, other, reflected=True)

    def __pow__(self, exponent: int):
        """Coprime powers stay coprime, so num and den are raised apart, by
        repeated squaring."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer exponents")
        return RationalFunc(_bpow(self.num, exponent), _bpow(self.den, exponent), _trust=True)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def shift_arg(self, k: int) -> "RationalFunc":
        """Substitute n -> n + k.  This automorphism of ZZ[h, n] fixes
        leading coefficients, so the canonical form is preserved."""
        if k == 0:
            return self
        return RationalFunc(_bshift(self.num, k), _bshift(self.den, k), _trust=True)

    def evaluate(self, point):
        """Value at n = point (an int or Fraction), a value free of n.
        Raises PoleError where the denominator vanishes identically in h."""
        x = Fraction(point)
        d = max(len(self.num), len(self.den)) - 1
        num, den = (_trim(_phomog(col, x.numerator, x.denominator, d) for col in _columns(a))
                    for a in (self.num, self.den))
        if not den:
            raise PoleError(point)
        return RationalFunc.make((num,), (den,))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        lead = self.den[-1]
        num, den = (tuple(_qh_coeff(c, lead) for c in a) for a in (self.num, self.den))
        return _ratio_str(num, den, "n")

    def __repr__(self) -> str:
        return f"<RationalFunc {self}>"


def _monic(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    """ZZ coefficient tuples num/den as Fraction tuples with den monic."""
    lead = den[-1]
    return tuple(Fraction(c, lead) for c in num), tuple(Fraction(c, lead) for c in den)


def _qh_coeff(c: tuple, lead: tuple) -> tuple[tuple, tuple]:
    """The QQ(h) coefficient c/lead, reduced, as monic Fraction tuples."""
    g = _pgcd(c, lead)
    return _monic(_pdivexact(c, g), _pdivexact(lead, g))


def _ratio_str(num: tuple, den: tuple, var: str) -> str:
    text = _poly_str(num, var)
    return text if len(den) == 1 else f"({text})/({_poly_str(den, var)})"


def _poly_str(coeffs: tuple, var: str) -> str:
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
            sym = var if k == 1 else f"{var}^{k}"
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


def _const(value) -> RationalFunc:
    v = Fraction(value)
    return RationalFunc(((v.numerator,),) if v else (), ((v.denominator,),), _trust=True)


def qhn_const(value=0) -> RationalFunc:
    """Element of QQ(h)(n) from an int or a Fraction; a RationalFunc is
    returned as is."""
    if isinstance(value, RationalFunc):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot use {type(value).__name__} as a rational-function constant")
    return _const(value)


def var_h() -> RationalFunc:
    return RationalFunc(((0, 1),), _ONE, _trust=True)


def var_n() -> RationalFunc:
    return RationalFunc(((), (1,)), _ONE, _trust=True)


def evaluate(r: RationalFunc, point):
    """Evaluate at n = point; PoleError at a vanishing denominator."""
    return r.evaluate(point)


def asymptotic_degree(r: RationalFunc):
    """deg(num) - deg(den) in n; -inf for the zero function."""
    if r.is_zero():
        return NEG_INF
    return len(r.num) - len(r.den)


def substitute_h(r: RationalFunc, h0: Fraction) -> RationalFunc:
    """Specialize the weight symbol at h0; the result is h-free.

    N and D are specialized directly, so only a denominator that vanishes
    identically in n at h0 raises PoleError; removable poles of the printed
    (monic) coefficients do not.
    """
    h0 = Fraction(h0)
    if r.is_zero():
        return r
    return RationalFunc(*_reduce(*_specialize((r.num, r.den), h0)), _trust=True)


def _specialize(pair: tuple, h0: Fraction) -> tuple[tuple, tuple]:
    """A (num, den) pair over ZZ[h][n] at h = h0, both scaled by one power
    of h0's denominator; PoleError when den vanishes identically in n."""
    p, q = h0.numerator, h0.denominator
    d = max(len(c) for a in pair for c in a) - 1

    def spec(a: tuple) -> tuple:
        return _trim((v,) if v else () for v in (_phomog(c, p, q, d) for c in a))

    num, den = map(spec, pair)
    if not den:
        raise PoleError(h0, f"denominator degenerates at h = {h0}")
    return num, den


def fraction_coeff_tuples(r: RationalFunc) -> tuple[tuple, tuple]:
    """(num, den) as Fraction tuples in n, den monic.

    Raises ValueError when the value depends on h.
    """
    return _monic(*_int_coeff_tuples(r))


def _int_coeff_tuples(r: RationalFunc) -> tuple[tuple, tuple]:
    """(N, D) of a value as int tuples in n, or ValueError when the value
    depends on h."""
    if any(len(c) > 1 for c in (*r.num, *r.den)):
        raise ValueError("value depends on h")
    return tuple(c[0] if c else 0 for c in r.num), tuple(c[0] if c else 0 for c in r.den)


def integer_values(r: RationalFunc, stop: int):
    """(N(n), D(n)) for n = 0, ..., stop - 1, by integer Horner, where N/D
    is the stored form of an h-free value (as substitute_h returns);
    D(n) = 0 marks a pole at n."""
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
# term by term, and neither n^100000 nor (n+h)^1000 would finish in seconds.
# It refuses a sum, difference, product or quotient whose numerator or
# denominator before cancellation passes the same bounds.
_MAX_POWER_DEGREE = 1000
_MAX_POWER_TERMS = 10_000

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _degrees(p: tuple) -> tuple[int, int]:
    """(n-degree, h-degree) of a ZZ[h][n] polynomial, -1 for zero."""
    return len(p) - 1, max(map(len, p), default=0) - 1


def _refuse_large(what: str, degree: int, deg_n: int, deg_h: int) -> None:
    if degree > _MAX_POWER_DEGREE:
        raise ParseError(f"{what} exceeds the power bound: degree {degree} > {_MAX_POWER_DEGREE}")
    if (terms := (deg_n + 1) * (deg_h + 1)) > _MAX_POWER_TERMS:
        raise ParseError(f"{what} exceeds the power bound: {terms} > {_MAX_POWER_TERMS} terms")


def _combine(op: str, a: RationalFunc, b: RationalFunc) -> RationalFunc:
    """a op b, refused first when a part it multiplies out before
    cancellation passes the bounds; a sum over one denominator multiplies
    nothing."""
    if op in "+-" and a.den == b.den:
        return _BINARY[op](a, b)
    an, ad, bn, bd = map(_degrees, (a.num, a.den, b.num, b.den))
    pairs = {"*": ((an, bn), (ad, bd)), "/": ((an, bd), (ad, bn))}
    deg_n, deg_h = (max(p[k] + q[k] for p, q in pairs.get(op, ((an, bd), (bn, ad), (ad, bd))))
                    for k in (0, 1))
    _refuse_large(f"the result of '{op}'", max(deg_n, deg_h), deg_n, deg_h)
    return _BINARY[op](a, b)


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
    """Parse an expression in n and h into a rational function.

    Grammar: integer literals, symbols n and h, + - * / ^ and parentheses;
    ^ takes a nonnegative integer exponent, exponent x base degree is at
    most _MAX_POWER_DEGREE and the expanded terms at most _MAX_POWER_TERMS,
    and so are the degree and terms of each + - * / result before
    cancellation;
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
                node = _combine(val, node, term())
            else:
                return node

    def term() -> RationalFunc:
        node = unary()
        while True:
            kind, val = peek()
            if kind == "op" and val in "*/":
                take()
                node = _combine(val, node, unary())
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
            deg_n, deg_h = map(max, zip(_degrees(node.num), _degrees(node.den)))
            _refuse_large(f"^{val}", val * max(1, deg_n, deg_h), val * deg_n, val * deg_h)
            node = node ** val
        return node

    def atom() -> RationalFunc:
        kind, val = take()
        if kind == "int":
            return qhn_const(val)
        if kind == "sym":
            return var_n() if val == "n" else var_h()
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
