"""Shift-band operators: algebra, adjoints, classification, numerics."""

import math
import random
from fractions import Fraction

import pytest

from liecomposite.errors import DomainError, NegativeExponentError, PoleError
from liecomposite.exact import (
    evaluate,
    integer_values,
    qhn_const,
    substitute_h,
    var_h,
    var_n,
)
from liecomposite.shiftop import (
    WEIGHT,
    OperatorClass,
    ShiftOperator,
    WeightFunction,
)

N = var_n()
H = var_h()


def at_weight(value, h0) -> Fraction:
    """An n-free value at h = h0."""
    return substitute_h(value, h0).constant_value()


# the lowering/raising family used as worked examples throughout
LOWER_1 = ShiftOperator.single(-1, N * (N + 2 * H - 1))        # index +1
RAISE_1 = ShiftOperator.single(1, 1)                           # index -1
DIAG_0 = ShiftOperator.single(0, N + H)                        # index 0
LOWER_2 = ShiftOperator.single(-2, N * (N - 1) * (N + 3 * H - 2))
RAISE_2 = ShiftOperator.single(2, (N + 3 * H) / ((N + 2 * H) * (N + 2 * H + 1)))


def op(*pairs) -> ShiftOperator:
    return ShiftOperator(pairs)


# -- construction and linear structure ----------------------------------------


def test_constructor_merges_and_drops():
    assert op((0, N), (0, -N)).is_zero()
    assert LOWER_1.scale(0).is_zero()
    a = op((0, N), (1, 1))
    assert [d for d, _ in a.components] == [0, 1]
    assert a + ShiftOperator.zero() == a


def test_components_are_canonical():
    a = op((1, (N + 1) * 2), (0, N))
    b = op((0, N), (1, 2 * N + 2))
    assert a == b and hash(a) == hash(b)


def test_sum_builtin_and_scalar_types():
    three = sum([DIAG_0, DIAG_0, DIAG_0])
    assert three == DIAG_0.scale(3)
    assert DIAG_0.scale(Fraction(1, 2)) == Fraction(1, 2) * DIAG_0
    assert DIAG_0.scale(var_h()) == DIAG_0.scale(qhn_const(0) + var_h())
    with pytest.raises(TypeError):
        DIAG_0.scale(N)
    with pytest.raises(TypeError):
        DIAG_0 * DIAG_0


def test_immutability():
    with pytest.raises(AttributeError):
        DIAG_0.components = ()


# -- apply ---------------------------------------------------------------


def test_apply_diagonal_and_raise():
    assert DIAG_0.apply_to_monomial(3) == [(3, evaluate(N + H, Fraction(3)))]
    assert RAISE_1.apply_to_monomial(5) == [(6, evaluate(N - N + 1, Fraction(5)))]
    assert ShiftOperator.zero().apply_to_monomial(7) == []


def test_apply_lowering_edge():
    # coefficient vanishes where the exponent would go negative
    deriv = op((-1, N))
    assert deriv.apply_to_monomial(0) == []
    with pytest.raises(NegativeExponentError):
        op((-1, 1)).apply_to_monomial(0)
    with pytest.raises(DomainError):
        deriv.apply_to_monomial(-1)


# -- compose and commutator -----------------------------------------------


def test_compose_derivative_and_multiplication():
    deriv, mult = op((-1, N)), op((1, 1))
    assert deriv @ mult == op((0, N + 1))
    assert mult @ deriv == op((0, N))


def test_compose_lower2_raise2_frozen():
    want = op((0, (N + 1) * (N + 2) * (N + 3 * H) ** 2 / ((N + 2 * H) * (N + 2 * H + 1))))
    assert LOWER_2 @ RAISE_2 == want


def test_commutator_basics():
    assert op((-1, N)).commutator(op((1, 1))) == ShiftOperator.single(0, 1)
    assert LOWER_1.commutator(RAISE_1) == op((0, 2 * N + 2 * H))
    assert LOWER_1.commutator(RAISE_1) == DIAG_0.scale(2)
    assert DIAG_0.commutator(DIAG_0).is_zero()


# -- weights and adjoint -----------------------------------------------------


def test_weight_values():
    h = var_h()
    assert WEIGHT.value(0) == qhn_const(1)
    assert WEIGHT.value(1) == 2 * h
    assert WEIGHT.value(2) == 4 * h * (2 * h + 1)
    # a function of h alone, so a shift of n leaves it unchanged
    assert WEIGHT.value(2).is_constant()
    assert WEIGHT.value(2).shift_arg(1) == WEIGHT.value(2)
    with pytest.raises(DomainError):
        WEIGHT.value(-1)


def test_weight_ratios():
    assert WEIGHT.ratio(1) == N * (2 * H + N - 1)
    assert WEIGHT.ratio(-1) == 1 / ((N + 1) * (2 * H + N))
    assert WEIGHT.ratio(0) == qhn_const(1)
    # the numeric legs' integer ratio P(n)/Q(n), equal to the direct ratios
    for h0 in (Fraction(1, 2), Fraction(5, 7), Fraction(3)):
        w = [at_weight(WEIGHT.value(n), h0) for n in range(43)]
        for d in range(-3, 4):
            cols = [n for n in range(max(0, -d), 40) if n % 7 not in (2, 3)]
            pq = list(integer_values(substitute_h(WEIGHT.ratio(d).shift_arg(d), h0), 40))
            assert [Fraction(*pq[n]) for n in cols] == [w[n + d] / w[n] for n in cols]


def test_adjoint_frozen_examples():
    assert RAISE_1.adjoint() == LOWER_1
    assert LOWER_2.adjoint() == RAISE_2
    assert RAISE_2.adjoint() == LOWER_2
    assert ShiftOperator.zero().adjoint().is_zero()
    assert DIAG_0.adjoint() == DIAG_0


def test_adjoint_respects_inner_product_exactly():
    # <A z^m, z^n> = <z^m, A* z^n> with <z^m, z^n> = delta w(n), at h0 = 1/2
    h0 = Fraction(1, 2)
    rng = random.Random(7)
    ops = [RAISE_1, LOWER_2, DIAG_0, _random_op(rng), _random_op(rng)]
    wvals = [at_weight(WEIGHT.value(n), h0) for n in range(30)]

    def pairing(terms, n):
        acc = Fraction(0)
        for e, v in terms:
            if e == n:
                acc += at_weight(v, h0) * wvals[n]
        return acc

    for a in ops:
        astar = a.adjoint()
        for m in range(21):
            terms_a = a.apply_to_monomial(m)
            for n in range(21):
                lhs = pairing(terms_a, n)
                rhs = pairing(astar.apply_to_monomial(n), m)
                assert lhs == rhs


# -- classification ------------------------------------------------------


def test_classify_examples():
    assert ShiftOperator.single(0, 1).classify() is OperatorClass.BOUNDED
    assert op((0, 1 / (N + 1) ** 2)).classify() is OperatorClass.TRACE_CLASS
    assert LOWER_1.classify() is OperatorClass.UNBOUNDED
    assert ShiftOperator.zero().classify() is OperatorClass.ZERO
    assert op((2, 1 / (N + 2 * H) ** 2)).classify() is OperatorClass.BOUNDED
    assert op((1, 1 / (N + 1) ** 2)).classify() is OperatorClass.HILBERT_SCHMIDT
    assert op((0, 1 / (N + 2 * H))).classify() is OperatorClass.HILBERT_SCHMIDT


def test_classify_worst_component_wins():
    mixed = op((0, 1 / (N + 1) ** 2), (-1, N * (N + 2 * H - 1)))
    assert mixed.classify() is OperatorClass.UNBOUNDED
    # a plain first-derivative band is bounded here: the weight ratio
    # shrinks like 1/n and cancels the linear coefficient
    assert op((-1, N)).classify() is OperatorClass.BOUNDED


# -- numerics ---------------------------------------------------------


def test_truncate_diagonal():
    mat = DIAG_0.truncate_numeric(2, Fraction(1, 2))
    want = [[0.5, 0, 0], [0, 1.5, 0], [0, 0, 2.5]]
    assert mat == want
    assert ShiftOperator.zero().truncate_numeric(3, 1) == [[0.0] * 4 for _ in range(4)]


def test_truncate_band_entry():
    h0 = Fraction(1, 2)
    mat = RAISE_1.truncate_numeric(3, h0)
    # entry (n+1, n) = sqrt(w(n+1)/w(n))
    for n in range(3):
        want = math.sqrt(float(at_weight(WEIGHT.value(n + 1), h0) / at_weight(WEIGHT.value(n), h0)))
        assert mat[n + 1][n] == pytest.approx(want, rel=1e-12)
    assert mat[0][1] == 0.0


def test_numeric_domain_checks():
    with pytest.raises(DomainError):
        DIAG_0.truncate_numeric(2, Fraction(-1))
    with pytest.raises(DomainError):
        DIAG_0.truncate_numeric(2, 0)
    with pytest.raises(DomainError):
        DIAG_0.hs_partial_sums(2, Fraction(-1, 2))


def test_numeric_pole_reported():
    a = op((0, 1 / (N - 2)))
    with pytest.raises(PoleError) as exc:
        a.truncate_numeric(4, Fraction(1, 2))
    assert exc.value.point == 2


def test_hs_partial_sums_frozen():
    z = ShiftOperator.zero().hs_partial_sums(5, Fraction(1, 2))
    assert z == [0.0] * 6
    s = op((0, 1 / (N + 1))).hs_partial_sums(3, Fraction(1, 2))
    assert s[3] == pytest.approx(1 + 1 / 4 + 1 / 9 + 1 / 16, rel=1e-12)
    ident = ShiftOperator.single(0, 1).hs_partial_sums(4, Fraction(1, 2))
    assert ident == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(b >= a for a, b in zip(s, s[1:]))


def test_classify_matches_partial_sum_behavior():
    # block sums b1 = S_N - S_{N/2}, b2 = S_{2N} - S_N at N = 200:
    # decaying blocks for HS or better, nondecaying for bounded or worse
    h0 = Fraction(1, 2)
    cases = [
        (op((1, 1 / (N + 1) ** 3)), OperatorClass.TRACE_CLASS, True),
        (op((1, 1 / (N + 1) ** 2)), OperatorClass.HILBERT_SCHMIDT, True),
        (op((2, 1 / (N + 2 * H) ** 3)), OperatorClass.HILBERT_SCHMIDT, True),
        (ShiftOperator.single(0, 1), OperatorClass.BOUNDED, False),
        (op((1, 1 / (N + 1))), OperatorClass.BOUNDED, False),
        (LOWER_1, OperatorClass.UNBOUNDED, False),
    ]
    for a, want_class, want_decay in cases:
        assert a.classify() is want_class
        s = a.hs_partial_sums(400, h0)
        b1, b2 = s[200] - s[100], s[400] - s[200]
        if want_decay:
            assert b2 < b1
        else:
            assert b2 >= b1


def test_hs_sums_reject_undefined_operator():
    with pytest.raises(NegativeExponentError):
        op((-1, 1)).hs_partial_sums(3, Fraction(1, 2))


# -- randomized structure checks ---------------------------------------------


def _random_op(rng: random.Random) -> ShiftOperator:
    comps = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(-2, 2)
        num = N * 0 + 0
        while num.is_zero():
            num = (
                rng.randint(-3, 3) * N * N
                + rng.randint(-3, 3) * H * N
                + rng.randint(-3, 3)
            )
        # poles must stay tied to generic h so that no intermediate shift
        # can land one on a nonnegative integer
        den = {
            0: num * 0 + 1,
            1: N + 2 * H,
            2: (N + 2 * H) * (N + 2 * H + 1),
        }[rng.randint(0, 2)]
        c = num / den
        if d < 0:
            for t in range(-d):  # make lowering well defined on polynomials
                c = c * (N - t)
        comps.append((d, c))
    a = ShiftOperator(comps)
    return a if a else ShiftOperator.single(0, 1)


def _apply_twice(outer: ShiftOperator, inner: ShiftOperator, n: int):
    acc: dict[int, object] = {}
    for e, v in inner.apply_to_monomial(n):
        for e2, v2 in outer.apply_to_monomial(e):
            acc[e2] = acc.get(e2, 0) + v * v2
    return {e: v for e, v in acc.items() if not (hasattr(v, "is_zero") and v.is_zero())}


def test_compose_agrees_with_apply():
    rng = random.Random(20240818)
    for _ in range(8):
        a, b = _random_op(rng), _random_op(rng)
        ab = a @ b
        for n in range(31):
            chained = _apply_twice(a, b, n)
            direct = dict(ab.apply_to_monomial(n))
            assert set(chained) == set(direct)
            for e in direct:
                assert direct[e] == chained[e]


def test_commutator_is_bilinear_antisymmetric_jacobi():
    rng = random.Random(99)
    for _ in range(5):
        a, b, c = (_random_op(rng) for _ in range(3))
        assert a.commutator(b) == -(b.commutator(a))
        lhs = (a + b).commutator(c)
        assert lhs == a.commutator(c) + b.commutator(c)
        assert a.scale(3).commutator(b) == a.commutator(b).scale(3)
        jac = (
            a.commutator(b).commutator(c)
            + b.commutator(c).commutator(a)
            + c.commutator(a).commutator(b)
        )
        assert jac.is_zero()


def test_adjoint_involution_and_antimultiplicativity():
    rng = random.Random(555)
    for _ in range(6):
        a, b = _random_op(rng), _random_op(rng)
        assert a.adjoint().adjoint() == a
        assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
        assert (a + b).adjoint() == a.adjoint() + b.adjoint()


def test_weight_function_is_reusable():
    w = WeightFunction()
    assert w.value(4) == WEIGHT.value(4)
    assert w.ratio(3) == WEIGHT.ratio(3)
