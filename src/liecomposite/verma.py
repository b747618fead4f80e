"""Ladder-operator families on the weighted polynomial module, and the
checkers for the composite-structure claims about them.

Two families of banded operators act on polynomials in z, carrying the
inner product of shiftop.WEIGHT.  The e-family realizes the vector-field
bracket [e_i, e_j] = (i - j) e_{i+j}; the f-family is abelian and the
e-family transports it by [e_i, f_j] = -j f_{i+j}.  Within either index
half (all raising or all lowering) every bracket relation holds exactly
as a rational-function identity; across the halves the defects are small
operators (Hilbert-Schmidt or better).  The checkers decide all of this
symbolically and return structured reports.

Everything defaults to the formal weight symbol h.  A numeric rational
weight enters either by substitution (deviation and the in-half checks)
or through the numeric legs (partial sums, inner-product probes), which
require it to be positive.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import DomainError, PoleError
from .exact import (
    RationalFunc,
    _peval,
    _pshift_arg,
    _sturm_chain,
    asymptotic_degree,
    fraction_coeff_tuples,
    qhn_const,
    substitute_h,
    var_h,
    var_n,
)
from .report import FAIL, INFO, PASS, CheckItem, CheckReport
from .shiftop import WEIGHT, OperatorClass, ShiftOperator

_HS = OperatorClass.HILBERT_SCHMIDT


class GeneratorId(NamedTuple):
    family: str  # "e" or "f"
    index: int

    def __str__(self) -> str:
        return f"{self.family}_{self.index}"


def e(index: int) -> GeneratorId:
    return GeneratorId("e", index)


def f(index: int) -> GeneratorId:
    return GeneratorId("f", index)


def _weight(h) -> Fraction | None:
    """The module weight: None keeps the formal symbol, anything else
    (a Fraction, int or string like "5/7") becomes a rational."""
    return None if h is None else Fraction(h)


def _weight_str(h0: Fraction | None) -> str:
    return "h" if h0 is None else str(h0)


def _at_weight(op: ShiftOperator, h0: Fraction | None) -> ShiftOperator:
    if h0 is None:
        return op
    return ShiftOperator((d, substitute_h(c, h0)) for d, c in op.components)


# -- the two operator families ------------------------------------------------


@lru_cache(maxsize=None)
def _op_e(k: int) -> ShiftOperator:
    n, h = var_n(), var_h()
    if k >= 0:
        coeff = n - k + (k + 1) * h
        for t in range(k):
            coeff = coeff * (n - t)
        return ShiftOperator.single(-k, coeff)
    m = -k
    den = qhn_const(1)
    for j in range(m):
        den = den * (n + 2 * h + j)
    return ShiftOperator.single(m, (n + (m + 1) * h) / den)


@lru_cache(maxsize=None)
def _op_f(k: int) -> ShiftOperator:
    n, h = var_n(), var_h()
    coeff = qhn_const(1)
    if k >= 0:
        for t in range(k):
            coeff = coeff * (n - t)
        return ShiftOperator.single(-k, coeff)
    for j in range(-k):
        coeff = coeff * (n + 2 * h + j)
    return ShiftOperator.single(-k, 1 / coeff)


def op_L(k: int, h=None) -> ShiftOperator:
    """Index-k member of the bracket-carrying family (shift -k for k >= 0)."""
    return _at_weight(_op_e(k), _weight(h))


def op_F(k: int, h=None) -> ShiftOperator:
    """Index-k member of the abelian family (k-fold derivative for k >= 0)."""
    return _at_weight(_op_f(k), _weight(h))


def represent(x: GeneratorId, h=None) -> ShiftOperator:
    if x.family == "e":
        return op_L(x.index, h)
    if x.family == "f":
        return op_F(x.index, h)
    raise DomainError(f"unknown generator family {x.family!r}")


# -- abstract bracket table ----------------------------------------------


Combo = dict  # GeneratorId -> int, zero coefficients never stored


def bracket(x: GeneratorId, y: GeneratorId) -> Combo:
    """Structure constants: [e_i,e_j] = (i-j)e_{i+j}, [e_i,f_j] = -j*f_{i+j},
    f-family abelian; antisymmetric by construction.  The constants are
    integers, and so is every coefficient of a nested table bracket."""
    if x.family == "e" and y.family == "e":
        c, target = x.index - y.index, e(x.index + y.index)
    elif x.family == "e" and y.family == "f":
        c, target = -y.index, f(x.index + y.index)
    elif x.family == "f" and y.family == "e":
        c, target = x.index, f(x.index + y.index)
    else:
        return {}
    return {target: c} if c else {}


def bracket_combo(a: Combo, b: Combo) -> Combo:
    out: Combo = {}
    for x, ca in a.items():
        for y, cb in b.items():
            for z, c in bracket(x, y).items():
                out[z] = out.get(z, 0) + ca * cb * c
    return {z: c for z, c in out.items() if c}


def represent_combo(combo: Combo, h=None) -> ShiftOperator:
    return _represent_terms(tuple(combo.items()), _weight(h))


@lru_cache(maxsize=None)
def _represent_terms(terms: tuple, h0: Fraction | None) -> ShiftOperator:
    total = ShiftOperator.zero()
    for x, c in terms:
        total = total + represent(x, h0).scale(c)
    return total


def _combo_str(combo: Combo) -> str:
    if not combo:
        return "0"
    parts = []
    for x in sorted(combo, key=lambda g: (g.family, g.index)):
        c = combo[x]
        parts.append(f"{c}*{x}" if c != 1 else str(x))
    return " + ".join(parts)


# -- weights and deviations ---------------------------------------------------


@lru_cache(maxsize=None)
def _deviation_sym(x: GeneratorId, y: GeneratorId) -> ShiftOperator:
    if y < x:  # commutator (AB - BA) and bracket are both antisymmetric
        return -_deviation_sym(y, x)
    lhs = represent(x).commutator(represent(y))
    return lhs - represent_combo(bracket(x, y))


def deviation(x: GeneratorId, y: GeneratorId, h=None) -> ShiftOperator:
    """Commutator of the represented pair minus the represented bracket."""
    return _at_weight(_deviation_sym(x, y), _weight(h))


# -- checkers ---------------------------------------------------------


def _require_max_index(K: int):
    if K < 1:
        raise DomainError("max index must be at least 1")


def _letters(index_bound: int) -> list:
    """Both families' generators with indices in [-index_bound, index_bound]."""
    return [
        GeneratorId(fam, i)
        for i in range(-index_bound, index_bound + 1)
        for fam in ("e", "f")
    ]


def _deviation_item(half: str, x: GeneratorId, y: GeneratorId, h0) -> CheckItem:
    """One in-half relation: the deviation of (x, y) must vanish exactly."""
    dev = deviation(x, y, h0)
    ok = dev.is_zero()
    return CheckItem(
        subject=f"{half}: deviation({x}, {y})",
        verdict=PASS if ok else FAIL,
        residual=None if ok else str(dev),
    )


def check_witt_composite(K: int, h=None) -> CheckReport:
    """Exact in-half bracket relations for the e-family.

    Verifies deviation(e_i, e_j) = 0 as a rational-function identity for
    every ordered pair with distinct indices in the raising half
    (-1 <= i, j <= K) and in the lowering half (-K <= i, j <= 1); equal
    indices vanish trivially and are omitted.  One fixed cross-half pair
    is reported informationally with its operator class.
    """
    _require_max_index(K)
    h0 = _weight(h)
    items = []
    for half, lo, hi in (("upper", -1, K), ("lower", -K, 1)):
        for i in range(lo, hi + 1):
            for j in range(lo, hi + 1):
                if i != j:
                    items.append(_deviation_item(half, e(i), e(j), h0))
    probe = deviation(e(2), e(-2), h0)
    items.append(
        CheckItem(
            subject="mixed: deviation(e_2, e_-2)",
            verdict=INFO,
            operator_class=probe.classify().label,
            note="cross-half probe, outside the verified ranges",
        )
    )
    return CheckReport.build(
        "witt-composite",
        {"max_index": K, "h": _weight_str(h0)},
        items,
        notes=("pairs with equal indices vanish identically and are omitted",),
    )


_EF_TABLE_NOTE = (
    "e-f table: verified relation is [e_i, f_j] = -j*f_{i+j}, the one the"
    " operator families satisfy exactly; the alternative convention"
    " [e_i, f_j] = j*f_j fails already at (i, j) = (0, 1)"
)


def check_extended_composite(K: int, h=None) -> CheckReport:
    """Exact in-half relations once the abelian family joins.

    Upper half: e-indices in [-1, K] against f-indices in [0, K]; lower
    half mirrored.  Checks [T(e_i), T(f_j)] = -j*T(f_{i+j}) and
    [T(f_i), T(f_j)] = 0, all exactly.
    """
    _require_max_index(K)
    h0 = _weight(h)
    items = []
    halves = (
        ("upper", range(-1, K + 1), range(0, K + 1)),
        ("lower", range(-K, 2), range(-K, 1)),
    )
    for half, e_range, f_range in halves:
        for i in e_range:
            for j in f_range:
                items.append(_deviation_item(half, e(i), f(j), h0))
        for a in f_range:
            for b in f_range:
                if a < b:
                    items.append(_deviation_item(half, f(a), f(b), h0))
    return CheckReport.build(
        "extended-composite",
        {"max_index": K, "h": _weight_str(h0)},
        items,
        notes=(_EF_TABLE_NOTE,),
    )


def _inner_product_probe(h0: Fraction, K: int, size: int = 12) -> bool:
    # independent numeric leg: <A z^m, z^n> = <z^m, A* z^n> with exact
    # rational arithmetic at a fixed weight
    wvals = [substitute_h(WEIGHT.value(n), h0).constant_value() for n in range(size + 2 * K + 1)]

    def pairing(terms, n):
        acc = Fraction(0)
        for expo, v in terms:
            if expo == n:
                acc += v.constant_value() * wvals[n]
        return acc

    for mk in (op_L, op_F):
        for k in range(-K, K + 1):
            a, astar = mk(k, h0), mk(-k, h0)
            applied = [a.apply_to_monomial(m) for m in range(size + 1)]
            applied_star = [astar.apply_to_monomial(n) for n in range(size + 1)]
            for m in range(size + 1):
                for n in range(size + 1):
                    if pairing(applied[m], n) != pairing(applied_star[n], m):
                        return False
    return True


def check_symmetric(K: int, h=None) -> CheckReport:
    """Adjoint symmetry of both families: T(x_k)* = T(x_{-k}).

    The operator identity is verified at the formal weight.  When a
    numeric unitarizable weight is supplied, an independent finite
    inner-product cross-check at that weight is appended.
    """
    _require_max_index(K)
    h0 = _weight(h)
    items = []
    for fam, mk in (("e", op_L), ("f", op_F)):
        for k in range(-K, K + 1):
            ok = mk(k).adjoint() == mk(-k)
            items.append(
                CheckItem(
                    subject=f"adjoint(T({fam}_{k})) = T({fam}_{-k})",
                    verdict=PASS if ok else FAIL,
                )
            )
    if h0 is not None:
        if h0 <= 0:
            raise DomainError("the numeric leg needs a rational weight h > 0")
        ok = _inner_product_probe(h0, K)
        items.append(
            CheckItem(
                subject=f"inner-product cross-check at h={h0} on monomials up to 12",
                verdict=PASS if ok else FAIL,
                note="exact rational pairing, no tolerance",
            )
        )
    return CheckReport.build("symmetric", {"max_index": K, "h": _weight_str(h0)}, items)


def _word_coefficients(max_len: int, index_bound: int):
    """(word, total, acc) for every word of length <= max_len over
    _letters(index_bound) whose index sum can still return to 0, in
    pre-order.  T(word) is the single band of shift -total and coefficient
    acc(n - total): acc is carried in the frame n + total, so a letter x
    taking the sum to t multiplies it by c_x(n + t), and the accumulated
    product is never shifted itself."""
    letters = _letters(index_bound)
    shifted: dict = {}  # (letter, t) -> c_x(n + t)

    def letter_at(x: GeneratorId, t: int) -> RationalFunc:
        key = (x, t)
        if key not in shifted:
            ((_, c),) = represent(x).components
            shifted[key] = c.shift_arg(t)
        return shifted[key]

    def walk(word: tuple, acc: RationalFunc, total: int):
        if word:
            yield word, total, acc
        if len(word) == max_len:
            return
        slack = index_bound * (max_len - len(word) - 1)
        for x in letters:
            t = total + x.index
            if abs(t) <= slack:
                yield from walk(word + (x,), acc * letter_at(x, t), t)

    return walk((), qhn_const(1), 0)


def check_absolutely_symmetric(max_len: int, index_bound: int) -> CheckReport:
    """Every zero-graded word acts as a self-adjoint operator.

    Words are tuples over both families, graded by index sum; every word
    of length <= max_len, indices bounded by index_bound and grade zero is
    enumerated and T(word) = T(word)* checked exactly.  Each letter
    already satisfies T(x)* = T(x with index negated), so this adjoint
    reading coincides with the image of the reversed index-negated word;
    the notes record that the adjoint reading is the one computed.
    """
    if max_len < 2:
        raise DomainError("word length bound must be at least 2")
    if index_bound < 0:
        raise DomainError("index bound must be nonnegative")
    items: list[CheckItem] = []
    for word, total, acc in _word_coefficients(max_len, index_bound):
        if total:
            continue
        product = ShiftOperator.single(0, acc)
        adj = product.adjoint()
        ok = adj == product
        items.append(
            CheckItem(
                subject="word " + " ".join(str(x) for x in word),
                verdict=PASS if ok else FAIL,
                residual=None if ok else str(product - adj),
            )
        )
    return CheckReport.build(
        "absolutely-symmetric",
        {"max_word_length": max_len, "index_bound": index_bound, "h": "h"},
        items,
        notes=(
            "reading: each word's product operator is compared with its"
            " adjoint; by exact letter symmetry this coincides with the"
            " image of the reversed, index-negated word",
        ),
    )


def _gated(gate: OperatorClass) -> str:
    return PASS if gate <= _HS else FAIL


@lru_cache(maxsize=1)
def _closed_items(depth: int, index_bound: int, h0: Fraction | None) -> tuple:
    """The bracket-mode report items of every nested tuple in traversal
    order, their plain nested-commutator classes, and the count of nonzero
    table brackets.  Literal mode re-gates the same items, so the last
    traversal is kept for it; it holds report items, no operators.

    Swapping the root pair negates a whole subtree, and negating every
    index takes each operator to its adjoint up to sign, which keeps its
    class (README, "Design notes").  So operators are formed only under
    the first-visited root pair of each swap-and-negation orbit; the
    others read its classes by their tails, negated for the mirrored
    members.  The last level's commutators are classified, not formed."""
    letters = _letters(index_bound)
    position = {x: i for i, x in enumerate(letters)}
    mirror = {x: GeneratorId(x.family, -x.index) for x in letters}
    names = {x: str(x) for x in letters}
    items, plain = [], []
    nonzero_phi = 0
    orbits = {}  # first root pair -> [members still to read, {tail: classes}]

    def visit(tail_letters, acc_op, acc_combo: Combo, classes, key):
        # the children of tail_letters (nesting level 1 .. depth), each item
        # before its subtree; the length-2 case is the plain pair deviation
        # covered elsewhere.  A subtree without acc_op reads its classes at
        # key(tail).
        nonlocal nonzero_phi
        last = len(tail_letters) == depth + 1
        for letter in letters:
            child = tail_letters + (letter,)
            combo = bracket_combo(acc_combo, {letter: 1})
            tail, op = key(child[2:]), None
            if acc_op is None:
                bracket_cls, literal_cls = classes[tail]
            elif last:
                bracket_cls, literal_cls = classes[tail] = acc_op.commutator_classes(
                    represent(letter), represent_combo(combo, h0), h0
                )
            else:
                # substitute first, so the numeric table bracket is
                # subtracted from a numeric operator
                op = acc_op.commutator(represent(letter))
                op_at = _at_weight(op, h0)
                bracket_cls = (op_at - represent_combo(combo, h0)).classify()
                literal_cls = op_at.classify()
                classes[tail] = bracket_cls, literal_cls
            if combo:
                nonzero_phi += 1
            items.append(
                CheckItem(
                    subject="(" + ", ".join(map(names.__getitem__, child)) + ")",
                    verdict=_gated(bracket_cls),
                    operator_class=bracket_cls.label,
                    note=(
                        f"defect class {bracket_cls.label};"
                        f" plain nested-commutator class {literal_cls.label};"
                        f" table bracket {_combo_str(combo)}"
                    ),
                )
            )
            plain.append(literal_cls)
            if not last:
                visit(child, op, combo, classes, key)

    def mirrored(tail):
        return tuple(mirror[z] for z in tail)

    for x in letters:
        for y in letters:
            orbit = {(x, y), (y, x), (mirror[x], mirror[y]), (mirror[y], mirror[x])}
            first = min(orbit, key=lambda pair: (position[pair[0]], position[pair[1]]))
            if first == (x, y):
                orbits[first] = entry = [len(orbit), {}]
                op = represent(x).commutator(represent(y))
                visit((x, y), op, bracket(x, y), entry[1], tuple)
            else:
                entry = orbits[first]
                key = tuple if (y, x) == first else mirrored
                visit((x, y), None, bracket(x, y), entry[1], key)
            entry[0] -= 1
            if not entry[0]:
                del orbits[first]
    return tuple(items), tuple(plain), nonzero_phi


def check_absolutely_closed(
    depth: int, index_bound: int, h=None, mode: str = "bracket"
) -> CheckReport:
    """Nested commutator defects stay small.

    For tuples (X_0, ..., X_{m+1}) with 1 <= m <= depth and indices
    bounded by index_bound over both families, forms the iterated operator
    commutator N = [...[[T(X_0), T(X_1)], T(X_2)], ...] and the iterated
    table bracket phi.  Bracket mode gates each item on
    classify(N - T(phi)) <= hilbert-schmidt; literal mode gates on
    classify(N) instead.  Both classifications are recorded on every item
    so the non-gating reading stays visible.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if index_bound < 0:
        raise DomainError("index bound must be nonnegative")
    if mode not in ("bracket", "literal"):
        raise DomainError("mode must be 'bracket' or 'literal'")
    h0 = _weight(h)
    items, plain, nonzero_phi = _closed_items(depth, index_bound, h0)
    if mode == "literal":
        items = [
            item._replace(verdict=_gated(cls), operator_class=cls.label)
            for item, cls in zip(items, plain)
        ]
    if h0 is None:
        sub_note = ()
    else:
        sub_note = (f"operators evaluated at the numeric weight h = {h0}",)
    return CheckReport.build(
        "absolutely-closed",
        {"depth": depth, "index_bound": index_bound, "h": _weight_str(h0), "mode": mode},
        items,
        notes=(
            f"table bracket was nonzero for {nonzero_phi} of {len(items)}"
            " tuples: the strict reading (defect of the plain nested"
            " commutator) cannot hold uniformly; bracket mode verifies the"
            " defect after subtracting the represented table bracket",
        )
        + sub_note,
    )


# check_hs_deviations passes a deviation whose last count/2 columns add
# less than this share of its squared-element sum
_TAIL_FRACTION = Fraction(1, 100)


def check_hs_deviations(
    index_bound: int = 6, h0=Fraction(1, 2), count: int = 500
) -> CheckReport:
    """Cross-half deviations are small: symbolic class plus numeric tails.

    For i in [2, index_bound] and j in [-index_bound, -2], the deviation
    of (e_i, e_j) must classify as zero, trace-class or hilbert-schmidt,
    and the squared-element partial sums at the numeric weight must have
    S_count - S_{count/2} below _TAIL_FRACTION of S_count.
    """
    if index_bound < 2:
        raise DomainError("index bound must be at least 2")
    h0 = Fraction(h0)
    if h0 <= 0:
        raise DomainError("numeric weight must be positive")
    items = []
    for i in range(2, index_bound + 1):
        for j in range(-index_bound, -1):
            dev = deviation(e(i), e(j))
            cls = dev.classify()
            sym_ok = cls <= _HS
            sums = dev.hs_partial_sums(count, h0)
            total, half = sums[count], sums[count // 2]
            if total == 0.0:
                num_ok, frac_txt = True, "0"
            else:
                frac = (total - half) / total
                num_ok = frac < float(_TAIL_FRACTION)
                frac_txt = f"{frac:.3e}"
            items.append(
                CheckItem(
                    subject=f"deviation(e_{i}, e_{j})",
                    verdict=PASS if (sym_ok and num_ok) else FAIL,
                    operator_class=cls.label,
                    note=f"tail increment fraction {frac_txt} at h={h0}, columns <= {count}",
                )
            )
    return CheckReport.build(
        "hs-deviations",
        {
            "index_bound": index_bound,
            "h0": str(h0),
            "count": count,
            "tail_fraction": str(_TAIL_FRACTION),
        },
        items,
        notes=("partial sums: terms exact, running sums accumulated in float64",),
    )


# -- lattice tail-square equivalence ------------------------------------------


def _cauchy_bound(poly) -> Fraction:
    """A bound above the modulus of every complex root of poly
    (coefficients from low to high degree); 0 for a constant."""
    if len(poly) <= 1:
        return Fraction(0)
    lead = poly[-1]
    return 1 + max(abs(c / lead) for c in poly[:-1])


def _refuse_lattice_poles(den, h0: Fraction):
    """Raise at the smallest lattice point h0 + j (j >= 0) where den vanishes.

    Q(j) = den(h0 + j) is cleared to ZZ[j] and the real roots of its
    squarefree part in (-1, J] are isolated by Sturm-sequence bisection
    over integer endpoints, J the last j below the Cauchy bound of den.
    A unit interval (j - 1, j] that still holds a root is decided by
    evaluating Q at j exactly.
    """
    if len(den) <= 1:
        return
    top = math.floor(_cauchy_bound(den) - h0)
    if top < 0:
        return
    q = _pshift_arg(den, h0)
    lcm = math.lcm(*(c.denominator for c in q))
    sturm = _sturm_chain(tuple(int(c * lcm) for c in q))

    def variations(x: int) -> int:
        signs = [v > 0 for v in (_peval(p, x) for p in sturm) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # a stack of (a, V(a), b, V(b)): V(a) - V(b) roots lie in (a, b]
    stack = [(-1, variations(-1), top, variations(top))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if not _peval(sturm[0], b):
                x = h0 + b
                raise PoleError(x, f"difference has a pole on the sample lattice at {x}")
            continue
        m = (a + b) // 2
        vm = variations(m)
        stack += [(m, vm, b, vb), (a, va, m, vm)]  # the left half first


def _difference_polys(r1: RationalFunc, r2: RationalFunc, h0: Fraction):
    """The difference r1 - r2 and its (num, den) Fraction tuples, or None
    for them when it vanishes; refuses operands that are not rational
    functions, a difference that depends on h, and a pole on the lattice
    h0 + j."""
    if not isinstance(r1, RationalFunc) or not isinstance(r2, RationalFunc):
        raise DomainError("expected rational-function operands")
    d = r1 - r2
    if d.is_zero():
        return d, None
    try:
        polys = fraction_coeff_tuples(d)
    except ValueError:
        raise DomainError("the difference must be a function of n alone; it depends on h") from None
    _refuse_lattice_poles(polys[1], h0)
    return d, polys


def tail_square_equivalence(r1: RationalFunc, r2: RationalFunc, h0) -> bool:
    """Decide whether sum_{j>=0} |r1(h0+j) - r2(h0+j)|^2 converges.

    True iff the difference vanishes identically or has growth degree
    <= -1 (so the squared terms decay at least like 1/j^2).  Refuses with
    a pole error if the difference has a pole on the lattice h0 + j, and
    with a domain error if it depends on the weight symbol h.
    """
    d, polys = _difference_polys(r1, r2, Fraction(h0))
    return polys is None or asymptotic_degree(d) <= -1


# Sample points per call of the tail probe's kernel.
_PROBE_CHUNK = 2048


def _horner_source(coeffs: list, name: str, x: str) -> str:
    """Source of _peval's Horner steps, in its order, over the names
    name0, name1, ... of coeffs (low to high degree) at the point x.  It
    multiplies by no leading 1.0 and adds no 0.0: each of these could
    change only the sign of a zero."""
    d = len(coeffs) - 1
    src = f"{name}{d}"
    for i in reversed(range(d)):
        src = x if i == d - 1 and coeffs[d] == 1.0 else f"({src}) * {x}"
        if coeffs[i]:
            src += f" + {name}{i}"
    return src


def _probe_kernel(fnum: list, fden: list, x0: float):
    """A function from a range of int offsets o to the list of squared
    float differences at x0 + o: one comprehension, whose source holds
    only names; the coefficients and x0 are bound in its namespace.

    The float add rounds the int o as float(o) would, and each square is
    the correctly rounded product v * v (libm's pow is not).  A point the
    Horner steps use once is inlined, else bound once to x."""
    names = {f"a{i}": c for i, c in enumerate(fnum)}
    names.update({f"b{i}": c for i, c in enumerate(fden)}, x0=x0)
    uses = len(fnum) + len(fden) - 2
    x = "(x0 + o)" if uses == 1 else "x"
    bind = " for x in (x0 + o,)" if uses > 1 else ""
    quotient = f"({_horner_source(fnum, 'a', x)}) / ({_horner_source(fden, 'b', x)})"
    return eval(f"lambda offsets: [v * v for o in offsets{bind} for v in ({quotient},)]", names)


def _probe(polys, h0: Fraction, count: int) -> bool:
    if count < 8:
        raise DomainError("probe needs at least 8 terms")
    if polys is None:
        return True
    num, den = polys
    # As a function of j, the difference at h0 + j*stride has every root
    # below bound/stride.  A window that starts 6*(len(num) + len(den))
    # times further out keeps the terms within a factor 2 of c*j**(2*deg),
    # so the later block (twice as long) undercuts the earlier iff deg <= -1.
    q = count // 4
    bound = max(_cauchy_bound(num), _cauchy_bound(den)) + abs(h0)
    stride = max(1, math.ceil(6 * (len(num) + len(den)) * bound / q))
    far = math.ceil(abs(h0)) + count * stride
    bits = max(
        max(c.numerator.bit_length() - c.denominator.bit_length() for c in poly if c)
        + (len(poly) - 1) * math.log2(far)
        for poly in (num, den)
    )
    if bits > 1000:
        raise DomainError(
            f"the tail probe would evaluate the difference out to n = 2**{far.bit_length()},"
            " beyond the float64 range"
        )
    if count * stride > sys.maxsize:
        raise DomainError(
            f"the tail probe would sample {count} terms at stride {stride},"
            " more lattice points than a Python range can index"
        )
    squares = _probe_kernel([float(c) for c in num], [float(c) for c in den], float(h0))

    def block(start: int, stop: int) -> float:
        offsets = range(start * stride, stop * stride, stride)
        chunks = (
            squares(offsets[k : k + _PROBE_CHUNK]) for k in range(0, len(offsets), _PROBE_CHUNK)
        )
        # one sum() over the chained chunks: the terms in the same order
        # as one at a time, so also under Python 3.12's compensated sum
        # the same float, in memory bounded by the chunk length
        return sum(chain.from_iterable(chunks))

    # Past its roots every term is nonzero, so a block sum that is 0,
    # subnormal, infinite or NaN (a square that overflows is inf) has
    # left float64 and cannot decide anything.
    b1 = block(q, 2 * q)
    b2 = block(2 * q, count)
    if not all(sys.float_info.min <= b < math.inf for b in (b1, b2)):
        raise DomainError(
            f"the tail probe's squared terms out to n = 2**{far.bit_length()}"
            " leave the float64 range"
        )
    return b2 < b1


def tail_square_probe(r1: RationalFunc, r2: RationalFunc, h0, count: int = 10000) -> bool:
    """Numeric cross-check of tail_square_equivalence on count terms.

    Sums |difference|^2 in float64 at the lattice points h0 + j*stride and
    calls the series convergent iff the block j in [count/2, count)
    strictly undercuts the block j in [count/4, count/2).  The stride is
    1 unless the roots of the difference's numerator and denominator, or
    h0 itself, lie too far out for count terms: it then places the window
    past them.  Refuses with a domain error when float64 cannot hold the
    terms or their block sums out there.
    """
    h0 = Fraction(h0)
    _, polys = _difference_polys(r1, r2, h0)
    return _probe(polys, h0, count)


def tail_equivalence_report(r1: RationalFunc, r2: RationalFunc, h0, probe_terms: int = 10000) -> CheckReport:
    # both legs share the difference and its pole test
    h0 = Fraction(h0)
    d, polys = _difference_polys(r1, r2, h0)
    symbolic = polys is None or asymptotic_degree(d) <= -1
    numeric = _probe(polys, h0, probe_terms)
    answer = "equivalent (tail-square series converges)" if symbolic else "not equivalent (series diverges)"
    items = [
        CheckItem(subject="symbolic decision", verdict=INFO, note=answer),
        CheckItem(
            subject="numeric probe agreement",
            verdict=PASS if numeric == symbolic else FAIL,
            note=f"first {probe_terms} terms say "
            + ("convergent" if numeric else "divergent"),
        ),
    ]
    return CheckReport.build(
        "tail-equivalence",
        {"r1": str(r1), "r2": str(r2), "h0": str(h0)},
        items,
    )
