"""The numeric legs against their reference routes, bit for bit.

The tail probe and the Hilbert-Schmidt partial sums only corroborate an
exact verdict, but their floats reach the reports.  Each property below
keeps a straightforward reference implementation of a leg in this file
and asserts exact equality (never approx) with the package's leg:

- the tail probe's two block sums against a generator that evaluates the
  float difference by plain Horner at every sampled lattice point;
- hs_partial_sums and truncate_numeric against columns built from
  RationalFunc.evaluate and an exact weight ratio (forward_ratio below),
  including the pole error's point and message;
- the lattice-pole refusal against a scan of every lattice point up to
  the Cauchy bound of the denominator.
"""

import builtins
import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from liecomposite import shiftop, verma
from liecomposite.cli import main
from liecomposite.errors import LibError, NegativeExponentError, PoleError
from liecomposite.exact import (
    evaluate,
    fraction_coeff_tuples,
    integer_values,
    qhn_const,
    substitute_h,
    var_h,
    var_n,
)
from liecomposite.shiftop import WEIGHT, ShiftOperator
from liecomposite.verma import (
    deviation,
    e,
    tail_square_equivalence,
    tail_square_probe,
)

N = var_n()
H = var_h()


def _poly(coeffs):
    return sum((c * N**k for k, c in enumerate(coeffs)), qhn_const(0))


def _outcome(call, *args):
    """A call's result, or the type, text and point of the library error it raised."""
    try:
        return call(*args)
    except LibError as exc:
        return type(exc), str(exc), getattr(exc, "point", None)


# -- the tail probe ------------------------------------------------------------


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _cauchy(poly):
    if len(poly) <= 1:
        return Fraction(0)
    return 1 + max(abs(c / poly[-1]) for c in poly[:-1])


def _window(num, den, h0, count):
    """The probe's sample spacing: its window starts past every root."""
    bound = max(_cauchy(num), _cauchy(den)) + abs(h0)
    return max(1, math.ceil(6 * (len(num) + len(den)) * bound / (count // 4)))


def _reference_blocks(r, h0, count):
    """The block sums over j in [count/4, count/2) and [count/2, count)."""
    num, den = fraction_coeff_tuples(r)
    q, stride = count // 4, _window(num, den, h0, count)
    fnum = [float(c) for c in num]
    fden = [float(c) for c in den]
    x0 = float(h0)

    def term(x):
        v = _horner(fnum, x) / _horner(fden, x)
        return v * v

    def block(start, stop):
        return sum(term(x0 + offset) for offset in range(start * stride, stop * stride, stride))

    return [block(q, 2 * q), block(2 * q, count)]


@contextlib.contextmanager
def _recorded_sums():
    """Record the value of every float sum() the verma module takes."""
    seen = []

    def recording_sum(iterable, start=0):
        total = builtins.sum(iterable, start)
        if isinstance(total, float):
            seen.append(total)
        return total

    verma.sum = recording_sum
    try:
        yield seen
    finally:
        del verma.sum


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any),
    st.lists(st.integers(-9, 9), min_size=0, max_size=5),
    st.integers(1, 9),
    st.fractions(min_value=-20, max_value=20, max_denominator=7),
    st.integers(1, 3),
    st.integers(0, 3),
)
def test_probe_block_sums_are_bit_identical(num, den_low, lead, h0, stride, extra):
    # numerator and denominator of degree 0-5, strides 1-3
    r = _poly(num) / _poly(den_low + [lead])
    pnum, pden = fraction_coeff_tuples(r)
    reach = 6 * (len(pnum) + len(pden)) * (max(_cauchy(pnum), _cauchy(pden)) + abs(h0))
    count = 4 * max(2, math.ceil(reach / stride)) + extra
    assume(_window(pnum, pden, h0, count) == stride)
    try:
        tail_square_equivalence(r, qhn_const(0), h0)
    except PoleError:
        assume(False)
    event(f"stride {stride}, degrees {len(pnum) - 1}/{len(pden) - 1}")
    want = _reference_blocks(r, h0, count)
    with _recorded_sums() as got:
        verdict = tail_square_probe(r, qhn_const(0), h0, count)
    assert got == want
    assert verdict == (want == [0.0, 0.0] or want[1] < want[0])


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize(
    "num_degree, den_degree", [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 3), (0, 0)]
)
@settings(max_examples=6, deadline=None)
@given(st.data())
def test_probe_block_sums_are_bit_identical_across_chunks(num_degree, den_degree, stride, data):
    # blocks of 3-4 chunks and 6-8 chunks, each ending in a partial chunk
    def poly(degree):
        low = data.draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
        return low + [data.draw(st.integers(1, 9))]

    r = _poly(poly(num_degree)) / _poly(poly(den_degree))
    pnum, pden = fraction_coeff_tuples(r)
    assume((len(pnum), len(pden)) == (num_degree + 1, den_degree + 1))
    chunk = verma._PROBE_CHUNK
    q = data.draw(st.integers(3, 4)) * chunk + data.draw(st.integers(1, chunk - 1))
    count = 4 * q + data.draw(st.integers(0, 3))
    # h0 beyond every root, at a distance that sets the spacing to stride
    scale = Fraction(q, 6 * (len(pnum) + len(pden)))
    slack = data.draw(st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=7))
    h0 = stride * scale - max(_cauchy(pnum), _cauchy(pden)) - slack
    assert _window(pnum, pden, h0, count) == stride
    want = _reference_blocks(r, h0, count)
    with _recorded_sums() as got:
        verdict = tail_square_probe(r, qhn_const(0), h0, count)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert verdict == (want[1] < want[0])


@pytest.mark.parametrize(
    "num, den, h0, count",
    [
        # the ladder-batch difference: a constant over a monic linear
        ([-1], [0, 1], Fraction(1, 2), 10**6),
        # a leading 1 with zero lower coefficients, in each place
        ([1], [1, 0, 0, 1], Fraction(1, 2), 4000),
        ([1, 0, 0, 1], [2, 1], Fraction(5, 7), 4000),
        # interior zero coefficients in both
        ([3, 0, -2, 0, 5], [7, 0, 0, 1, 0, 2], Fraction(-3, 2), 5000),
        # a constant numerator, and a constant denominator
        ([4], [2, -3, 5], Fraction(5, 7), 4000),
        ([-2, 0, 3], [3], Fraction(5, 7), 4000),
        # offsets beyond 2**53, the stride about 6.5e16
        ([1], [0, 1], 2**55 + Fraction(1, 3), 40),
    ],
    ids=["ladder-batch", "monic-den", "unit-num", "interior-zeros", "const-num", "const-den", "past-2**53"],
)
def test_probe_kernel_edge_cases_are_bit_identical(num, den, h0, count):
    r = _poly(num) / _poly(den)
    want = _reference_blocks(r, h0, count)
    with _recorded_sums() as got:
        verdict = tail_square_probe(r, qhn_const(0), h0, count)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert verdict == (want[1] < want[0])


@pytest.mark.parametrize(
    "v",
    [
        # libm's pow rounds each of these squares 1 ulp away from the exact one
        float.fromhex("0x1.0a49432c36700p+111"),
        float.fromhex("0x1.db65ad4386593p+4"),
        float.fromhex("0x1.4913f79cfe926p+53"),
        float.fromhex("-0x1.759aaef0d9d82p-117"),
        3.0,
        0.1,
        -(2.0**-500),
    ],
    ids=float.hex,
)
def test_probe_kernel_squares_are_correctly_rounded(v):
    # a constant quotient v / 1.0 == v at every offset
    squares = verma._probe_kernel([v], [1.0], 0.5)
    assert [s.hex() for s in squares(range(0, 12, 4))] == [float(Fraction(v) ** 2).hex()] * 3


@given(st.floats(min_value=-(2.0**511), max_value=2.0**511))
def test_probe_kernel_squares_match_exact_rounding(v):
    assert verma._probe_kernel([v], [1.0], 0.0)(range(1)) == [float(Fraction(v) ** 2)]


def test_probe_kernel_square_overflows_to_inf():
    assert verma._probe_kernel([1e200], [1.0], 0.0)(range(2)) == [math.inf, math.inf]


# -- Hilbert-Schmidt sums and the numeric matrix --------------------------------


def forward_ratio(n, d, h0):
    """w(n+d)/w(n) at the weight h0 as an exact rational, from the
    recurrence w(m) = m (2 h0 + m - 1) w(m - 1)."""
    assert n >= 0 and n + d >= 0
    out = Fraction(1)
    if d >= 0:
        for t in range(1, d + 1):
            out *= Fraction(n + t) * (2 * h0 + n + t - 1)
    else:
        for t in range(0, -d):
            out *= Fraction(n - t) * (2 * h0 + n - t - 1)
        out = 1 / out
    return out


def test_forward_ratio_matches_the_weight_values():
    for h0 in (Fraction(1, 2), Fraction(5, 7), Fraction(3)):
        w = [substitute_h(WEIGHT.value(n), h0).constant_value() for n in range(12)]
        for n in range(9):
            for d in range(-min(n, 3), 4):
                assert forward_ratio(n, d, h0) == w[n + d] / w[n]


def _reference_columns(op, size, h0):
    """Every band's coefficient at n = 0..size through RationalFunc.evaluate."""
    h0 = Fraction(h0)
    cols = []
    for d, c in op.components:
        ch = substitute_h(c, h0)
        vals = []
        for n in range(size + 1):
            try:
                vals.append(evaluate(ch, Fraction(n)).constant_value())
            except PoleError:
                raise PoleError(Fraction(n), f"coefficient pole at n={n} with h0={h0}") from None
        cols.append((d, vals))
    return h0, cols


def _reference_hs(op, count, h0):
    h0, cols = _reference_columns(op, count, h0)
    per_n = [0.0] * (count + 1)
    for d, vals in cols:
        for n in range(count + 1):
            v = vals[n]
            if not v:
                continue
            if n + d < 0:
                raise NegativeExponentError(f"component with shift {d} is not defined at z^{n}")
            per_n[n] += float(v * v * forward_ratio(n, d, h0))
    sums, running = [], 0.0
    for x in per_n:
        running += x
        sums.append(running)
    return sums


def _reference_matrix(op, size, h0):
    h0, cols = _reference_columns(op, size, h0)
    mat = [[0.0] * (size + 1) for _ in range(size + 1)]
    for d, vals in cols:
        for n in range(size + 1):
            row = n + d
            if row < 0 or row > size or not vals[n]:
                continue
            mat[row][n] += float(vals[n]) * math.sqrt(forward_ratio(n, d, h0))
    return mat


_WEIGHTS = st.sampled_from([Fraction(1, 2), Fraction(5, 7), Fraction(3), Fraction(2, 3), Fraction(11, 2)])


@st.composite
def _band_operators(draw):
    """Operators whose coefficients have linear factors n + a*h + b below,
    so some weights put a pole on a column."""
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        top = sum(
            (draw(st.integers(-3, 3)) * N**i * H**k for i in range(3) for k in range(2)),
            qhn_const(draw(st.integers(1, 3))),
        )
        bottom = qhn_const(1)
        for _ in range(draw(st.integers(0, 2))):
            bottom = bottom * (N + draw(st.integers(0, 3)) * H + draw(st.integers(-6, 4)))
        comps.append((draw(st.integers(-2, 2)), top / bottom))
    return ShiftOperator(comps)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.builds(deviation, st.builds(e, st.integers(2, 5)), st.builds(e, st.integers(-5, -2))),
        _band_operators(),
    ),
    _WEIGHTS,
    st.integers(0, 60),
)
def test_numeric_columns_match_the_evaluate_route(op, h0, size):
    assert _outcome(op.hs_partial_sums, size, h0) == _outcome(_reference_hs, op, size, h0)
    assert _outcome(op.truncate_numeric, size, h0) == _outcome(_reference_matrix, op, size, h0)


@pytest.mark.parametrize(
    "coeff, h0, n",
    [(1 / (N - 2), Fraction(1, 2), 2), (N / (N + 2 * H - 5), Fraction(1, 2), 4), (1 / (3 * N - 9 * H), Fraction(2, 3), 2)],
)
def test_coefficient_pole_is_named_as_by_the_evaluate_route(coeff, h0, n):
    op = ShiftOperator([(1, coeff), (0, N + 1)])
    want = (PoleError, f"coefficient pole at n={n} with h0={h0}", Fraction(n))
    for leg in (op.hs_partial_sums, op.truncate_numeric):
        assert _outcome(leg, n + 3, h0) == want
    assert _outcome(_reference_hs, op, n + 3, h0) == want


def test_a_band_that_vanishes_at_the_weight_is_skipped(monkeypatch):
    # at h0 = 1/2 the shift -2 band is 0; at 5/7 it sends z^0 below exponent 0
    op = ShiftOperator([(-2, (2 * H - 1) * (N + 3)), (1, (N + 1) / (N + 2))])
    h0 = Fraction(1, 2)
    assert _outcome(op.hs_partial_sums, 40, Fraction(5, 7))[0] is NegativeExponentError
    evaluated = []

    def spy(r, stop):
        evaluated.append(r)
        return integer_values(r, stop)

    monkeypatch.setattr(shiftop, "integer_values", spy)
    assert op.hs_partial_sums(40, h0) == _reference_hs(op, 40, h0)
    assert op.truncate_numeric(12, h0) == _reference_matrix(op, 12, h0)
    # only the live band's coefficient and weight ratio are evaluated
    live = {substitute_h((N + 1) / (N + 2), h0), substitute_h(WEIGHT.ratio(1).shift_arg(1), h0)}
    assert evaluated and set(evaluated) <= live


def test_ladder_deviation_sums_match_the_evaluate_route():
    for i, j, h0 in (
        (2, -6, Fraction(1, 2)),
        (6, -2, Fraction(1, 2)),
        (3, -4, Fraction(5, 7)),
        (4, -3, Fraction(3)),
        (5, -6, Fraction(3)),
        (2, -2, Fraction(7, 2)),
        (6, -6, Fraction(7, 2)),
    ):
        dev = deviation(e(i), e(j))
        assert dev.hs_partial_sums(500, h0) == _reference_hs(dev, 500, h0)
        assert dev.truncate_numeric(60, h0) == _reference_matrix(dev, 60, h0)


# -- lattice poles ----------------------------------------------------------------


def _reference_pole(den, h0):
    """The first lattice point h0 + j at which den vanishes, by a scan."""
    bound = _cauchy(den)
    x = h0
    while len(den) > 1 and x <= bound:
        if _horner(den, x) == 0:
            return x
        x += 1
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(-12, 12)), max_size=3),
    st.integers(1, 2),
    st.lists(st.integers(-5, 5), max_size=3),
    st.fractions(min_value=-12, max_value=12, max_denominator=4),
)
# a double root below the lattice: the Sturm count needs the squarefree part
@example(linear=[(1, 1), (1, 1), (1, 2)], power=1, other=[], h0=Fraction(2))
def test_lattice_pole_matches_a_scan(linear, power, other, h0):
    # den = (a0*n - b0)^power * prod(a*n - b) * (n^k + other...), with
    # rational roots where a divides b into a lattice point, multiple
    # roots and irrational ones
    den = _poly(other + [1])
    for i, (a, b) in enumerate(linear):
        den = den * (a * N - b) ** (power if i == 0 else 1)
    r = (N + 100) / den
    _, fden = fraction_coeff_tuples(r)
    pole = _reference_pole(fden, h0)
    event("lattice pole" if pole is not None else "no lattice pole")
    got = _outcome(tail_square_equivalence, r, qhn_const(0), h0)
    if pole is None:
        assert got in (True, False)
    else:
        assert got == (PoleError, f"difference has a pole on the sample lattice at {pole}", pole)


def test_smallest_of_several_lattice_poles_is_named(capsys):
    for expr, pole in (("1/((2*n-7)*(2*n-3))", "3/2"), ("1/((2*n-3)*(2*n-7))", "3/2"), ("1/(2*n-7)", "7/2")):
        code = main(["tail-equivalence", expr, "0", "--weight", "1/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: difference has a pole on the sample lattice at {pole}\n"


def test_poles_far_out_are_decided_exactly():
    # a scan would visit every one of the 10**12 lattice points below them
    far = 2 * 10**12 + 1
    want = (PoleError, f"difference has a pole on the sample lattice at {far}/2", Fraction(far, 2))
    assert _outcome(tail_square_equivalence, 1 / (2 * N - far), qhn_const(0), Fraction(1, 2)) == want
    twice = 1 / ((2 * N - far) ** 2 * (N**2 - 2))
    assert _outcome(tail_square_equivalence, twice, qhn_const(0), Fraction(1, 2)) == want
    assert tail_square_equivalence(1 / (N + 10**12), qhn_const(0), Fraction(1, 2))
    assert tail_square_equivalence(1 / (2 * N - far), qhn_const(0), Fraction(1, 3))


def test_report_tests_the_lattice_once(monkeypatch):
    seen = []
    real = verma._refuse_lattice_poles
    monkeypatch.setattr(verma, "_refuse_lattice_poles", lambda den, h0: seen.append(h0) or real(den, h0))
    report = verma.tail_equivalence_report(1 / (N + 1), qhn_const(0), Fraction(1, 2), 1000)
    assert report.passed
    assert seen == [Fraction(1, 2)]
