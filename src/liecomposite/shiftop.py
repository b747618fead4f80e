"""Banded shift operators with exact rational-function coefficients.

An operator here is a finite sum of components, each acting on the
monomial basis by z^n -> c(n) * z^(n+d) for an integer displacement d
and a coefficient c rational in n over Q(h).  Storing the band structure
instead of a truncated matrix keeps every identity decidable: composition,
commutators and adjoints reduce to rational-function arithmetic, and
membership in the standard operator classes reduces to an integer growth
exponent per band.

Numerics are confined to two methods, truncate_numeric and
hs_partial_sums, and they touch only Python ints until each term's one
rounding.  At the weight h0, band d has the coefficient N(n)/D(n) and the
weight ratio w(n+d)/w(n) = P(n)/Q(n), with N, D, P, Q in ZZ[n] evaluated
by integer Horner.  A squared matrix element is the quotient
N^2 P / (D^2 Q) and a matrix entry is N/D * sqrt(P/Q); CPython's int / int
is correctly rounded, so each quotient is the double nearest its exact
rational.  The running sums are accumulated in floating point; the exact
sums exist but their denominators grow out of all proportion.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .errors import DomainError, NegativeExponentError, PoleError
from .exact import (
    RationalFunc,
    _bneg,
    _specialize,
    _unreduced_sum,
    evaluate,
    integer_values,
    qhn_const,
    var_h,
    var_n,
    substitute_h,
)


class OperatorClass(IntEnum):
    """Operator-class membership, ordered by containment (smallest first).

    Classification is decided per band from the integer growth exponent
    g = asymptotic_degree(coeff) + shift of the orthonormal matrix
    elements: g <= -2 trace class, g = -1 Hilbert-Schmidt, g = 0 bounded,
    g >= 1 unbounded.  At this integer granularity compact and
    Hilbert-Schmidt coincide (both are g <= -1), so no separate compact
    class is exposed.
    """

    ZERO = 0
    TRACE_CLASS = 1
    HILBERT_SCHMIDT = 2
    BOUNDED = 3
    UNBOUNDED = 4

    @property
    def label(self) -> str:
        return _CLASS_LABELS[self]


_CLASS_LABELS = {
    OperatorClass.ZERO: "zero",
    OperatorClass.TRACE_CLASS: "trace-class",
    OperatorClass.HILBERT_SCHMIDT: "hilbert-schmidt",
    OperatorClass.BOUNDED: "bounded",
    OperatorClass.UNBOUNDED: "unbounded",
}


def _as_scalar(value) -> RationalFunc:
    # scalars live in Q(h): n-dependent scaling would be a composition,
    # not a scalar multiple
    if isinstance(value, RationalFunc) and not value.is_constant():
        raise TypeError("operator scalars must not depend on n")
    return qhn_const(value)


class WeightFunction:
    """Norms of the monomial basis vectors: value(0) = 1 and
    value(n) = n * (2h + n - 1) * value(n - 1), h formal.

    Closed form: value(n) = n! * prod_{j=0}^{n-1} (2h + j); positive for
    every rational h > 0.  These are exactly the weights that make the
    raising and lowering families below mutual adjoints.
    """

    def __init__(self):
        self._values = [qhn_const(1)]
        self._ratios: dict[int, RationalFunc] = {0: qhn_const(1)}

    def value(self, n: int) -> RationalFunc:
        """value(n) as an element of Q(h), free of n."""
        if n < 0:
            raise DomainError("weights are indexed by n >= 0")
        vals = self._values
        h = var_h()
        while len(vals) <= n:
            m = len(vals)
            vals.append(vals[-1] * m * (2 * h + (m - 1)))
        return vals[n]

    def ratio(self, d: int) -> RationalFunc:
        """value(n)/value(n-d) as a rational function of n (symbolic h)."""
        cached = self._ratios.get(d)
        if cached is not None:
            return cached
        n, h = var_n(), var_h()
        r = qhn_const(1)
        if d > 0:
            for t in range(d):
                r = r * (n - t) * (2 * h + n - t - 1)
        else:
            for t in range(1, -d + 1):
                r = r * (n + t) * (2 * h + n + t - 1)
            r = 1 / r
        self._ratios[d] = r
        return r


WEIGHT = WeightFunction()


def _merge(merged: dict, terms, subtract: bool = False) -> dict:
    """Add (or subtract) each (shift, coefficient) term into merged."""
    for d, c in terms:
        if d in merged:
            merged[d] = merged[d] - c if subtract else merged[d] + c
        else:
            merged[d] = -c if subtract else c
    return merged


def _class_of(bands) -> OperatorClass:
    """Least class of (shift, num, den) bands, from the largest growth
    exponent g = deg num - deg den + shift over the nonzero bands:
    TRACE_CLASS (1) for g <= -2, one step up per unit, UNBOUNDED (4) from 1."""
    g = max((len(num) - len(den) + d for d, num, den in bands if num), default=None)
    if g is None:
        return OperatorClass.ZERO
    return OperatorClass(min(max(g, -2), 1) + 3)


class ShiftOperator:
    """Immutable finite sum of shift components.

    Construct from an iterable of (shift, coeff) pairs; equal shifts are
    merged by addition and zero coefficients are dropped, so the stored
    tuple is canonical and equality is both structural and mathematical.
    """

    __slots__ = ("components",)

    components: tuple[tuple[int, RationalFunc], ...]  # (shift, nonzero coeff)

    def __init__(self, components: Iterable = ()):
        checked = []
        for d, c in components:
            if not isinstance(d, int) or isinstance(d, bool):
                raise TypeError("component shift must be an integer")
            checked.append((d, qhn_const(c)))
        self._build(_merge({}, checked), self)

    @classmethod
    def _build(cls, merged: dict, op=None) -> "ShiftOperator":
        """op (a new instance by default) set to merged {shift: coeff}."""
        op = object.__new__(cls) if op is None else op
        components = tuple((d, merged[d]) for d in sorted(merged) if merged[d])
        object.__setattr__(op, "components", components)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("ShiftOperator is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ShiftOperator":
        return cls(())

    @classmethod
    def identity(cls) -> "ShiftOperator":
        return cls(((0, 1),))

    @classmethod
    def single(cls, shift: int, coeff) -> "ShiftOperator":
        return cls(((shift, coeff),))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def __eq__(self, other):
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self) -> str:
        if not self.components:
            return "{}"
        return "{" + ", ".join(f"({d}, {c})" for d, c in self.components) + "}"

    def __repr__(self) -> str:
        return f"<shift-operator {self}>"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, ShiftOperator):
            return self._build(_merge(dict(self.components), other.components))
        if isinstance(other, int) and other == 0:  # sum() support
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "ShiftOperator":
        return self._build({d: -c for d, c in self.components})

    def __sub__(self, other):
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return self._build(_merge(dict(self.components), other.components, subtract=True))

    def scale(self, s) -> "ShiftOperator":
        s = _as_scalar(s)
        return self._build({d: c * s for d, c in self.components})

    def __mul__(self, s):
        if isinstance(s, ShiftOperator):
            raise TypeError("use @ (compose) for operator products")
        return self.scale(s)

    __rmul__ = __mul__

    # -- multiplicative structure -------------------------------------------

    def compose(self, other: "ShiftOperator") -> "ShiftOperator":
        """self after other: (A @ B) z^n = A(B z^n).

        Band (dA, cA) against (dB, cB) contributes (dA+dB, cA(n+dB)*cB(n)).
        Stepwise agreement on monomials needs coefficient poles to stay off
        the nonnegative integers under every intermediate shift; denominators
        tied to generic h guarantee that, while an h-free integer pole could
        cancel against a zero and shift isolated matrix elements.
        """
        return self._build(_merge({}, self._products(other)))

    def _products(self, other: "ShiftOperator"):
        """The (shift, coefficient) terms of self after other, unmerged."""
        for da, ca in self.components:
            for db, cb in other.components:
                yield da + db, ca.shift_arg(db) * cb

    def __matmul__(self, other):
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return self.compose(other)

    def commutator(self, other: "ShiftOperator") -> "ShiftOperator":
        both = _merge({}, self._products(other))
        return self._build(_merge(both, other._products(self), subtract=True))

    def commutator_classes(self, other: "ShiftOperator", minus: "ShiftOperator", h0=None):
        """(class of [self, other] - minus, class of [self, other]) at the
        weight h0 (formal when None; minus is given at h0), from each band's
        unreduced sum of canonical terms (exact._unreduced_sum), specialized
        at a numeric h0 before minus's band is added, again unreduced.

        Exact: a class reads only each band's n-degree difference and zero
        test, and cancelling a common factor G of numerator and denominator
        changes neither.  At a numeric h0: every ladder denominator has a
        positive integer leading coefficient in n, so G has one too and
        G(h0, n) is not 0; specializing the unreduced pair gives the degree
        difference and zero test of the specialized canonical pair, and
        raises PoleError exactly where that would."""
        bands: dict = {}  # shift -> unreduced (num, den)

        def add(d, pair):
            bands[d] = _unreduced_sum(*bands[d], *pair)[:2] if d in bands else pair

        for d, c in self._products(other):
            add(d, (c.num, c.den))
        for d, c in other._products(self):
            add(d, (_bneg(c.num), c.den))
        if h0 is not None:
            h0 = Fraction(h0)
            bands = {d: _specialize(pair, h0) for d, pair in bands.items() if pair[0]}
        literal = _class_of((d, *pair) for d, pair in bands.items())
        for d, c in minus.components:
            add(d, (_bneg(c.num), c.den))
        return _class_of((d, *pair) for d, pair in bands.items()), literal

    # -- action on the module ------------------------------------------------

    def apply_to_monomial(self, n: int) -> list[tuple[int, RationalFunc]]:
        """Exact expansion of (operator applied to z^n) in the monomial basis.

        Returns (exponent, value) pairs with values in Q(h), zero terms
        dropped, exponents ascending.  A component that would lower below
        exponent 0 must have a vanishing coefficient there; otherwise the
        operator does not act on the polynomial module and the call raises.
        """
        if n < 0:
            raise DomainError("monomial exponents are n >= 0")
        out = []
        for d, c in self.components:
            v = evaluate(c, Fraction(n))
            if v.is_zero():
                continue
            if n + d < 0:
                raise NegativeExponentError(
                    f"component with shift {d} sends z^{n} below exponent 0 "
                    f"with nonzero coefficient {v}"
                )
            out.append((n + d, v))
        return out

    # -- adjoint and classification -------------------------------------------

    def adjoint(self) -> "ShiftOperator":
        """Adjoint for the inner product <z^m, z^n> = delta_mn * WEIGHT(n).

        Component (d, c) maps to (-d, c(n-d) * w(n)/w(n-d)); the transform
        keeps coefficients rational because the weight ratio is a finite
        product of linear factors.
        """
        return self._build({-d: c.shift_arg(-d) * WEIGHT.ratio(d) for d, c in self.components})

    def classify(self) -> OperatorClass:
        """Least operator class containing this operator (h generic)."""
        return _class_of((d, c.num, c.den) for d, c in self.components)

    # -- numerics ---------------------------------------------------------

    def _numeric_columns(self, size: int, h0) -> list:
        """(d, coefficient values, weight-ratio values) for every band that
        is nonzero at h0, each value an integer pair (N(n), D(n)) for
        n = 0..size; every band's poles are checked before any is used."""
        h0 = Fraction(h0)
        if h0 <= 0:
            raise DomainError("numeric evaluation needs a rational weight h0 > 0")
        if size < 0:
            raise DomainError("truncation size must be nonnegative")
        cols = []
        for d, c in self.components:
            ch = substitute_h(c, h0)
            if ch.is_zero():
                continue
            vals = list(integer_values(ch, size + 1))
            for n, (_, dn) in enumerate(vals):
                if not dn:
                    raise PoleError(Fraction(n), f"coefficient pole at n={n} with h0={h0}")
            # value(n+d)/value(n) at h0: P(n)/Q(n), Q(n) != 0 wherever n + d >= 0
            ratios = integer_values(substitute_h(WEIGHT.ratio(d).shift_arg(d), h0), size + 1)
            cols.append((d, vals, ratios))
        return cols

    def truncate_numeric(self, size: int, h0) -> list[list[float]]:
        """Matrix of the operator in the orthonormal basis e_0..e_size.

        Entries are float64: entry(n+d, n) = c(n) * sqrt(w(n+d)/w(n)) at
        the given h0 > 0.  Bands leaving the index window are cut off.
        """
        cols = self._numeric_columns(size, h0)
        mat = [[0.0] * (size + 1) for _ in range(size + 1)]
        for d, vals, ratios in cols:
            for n, ((nn, dn), (p, q)) in enumerate(zip(vals, ratios)):
                if nn and 0 <= n + d <= size:
                    mat[n + d][n] += nn / dn * math.sqrt(p / q)
        return mat

    def hs_partial_sums(self, count: int, h0) -> list[float]:
        """Partial sums S_0..S_count of squared orthonormal matrix elements.

        S_k sums |entry|^2 over all bands and columns n <= k (rows are not
        truncated).  Each term N(n)^2 P(n) / (D(n)^2 Q(n)) is one integer
        quotient, rounded once; the running sums are accumulated in float64.
        """
        cols = self._numeric_columns(count, h0)
        per_n = [0.0] * (count + 1)
        for d, vals, ratios in cols:
            first = next((n for n, (nn, _) in enumerate(vals) if nn), None)
            if first is not None and first + d < 0:
                raise NegativeExponentError(
                    f"component with shift {d} is not defined at z^{first}"
                )
            for n, ((nn, dn), (p, q)) in enumerate(zip(vals, ratios)):
                if nn:
                    per_n[n] += (nn * nn * p) / (dn * dn * q)
        return list(accumulate(per_n))
