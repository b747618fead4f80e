"""Ladder families, bracket table, deviation checks, and tail equivalence."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecomposite.errors import DomainError, PoleError
from liecomposite.exact import (
    parse_rational,
    qh_const,
    qhn_const,
    substitute_h,
    var_h,
    var_h_in_n,
    var_n,
)
from liecomposite import verma
from liecomposite.report import FAIL, INFO, PASS, CheckItem
from liecomposite.shiftop import OperatorClass, ShiftOperator
from liecomposite.verma import (
    bracket,
    bracket_combo,
    check_absolutely_closed,
    check_absolutely_symmetric,
    check_extended_composite,
    check_hs_deviations,
    check_symmetric,
    check_witt_composite,
    deviation,
    e,
    f,
    op_F,
    op_L,
    represent,
    represent_combo,
    shapovalov_weight,
    tail_equivalence_report,
    tail_square_equivalence,
    tail_square_probe,
)

N = var_n()
H = var_h_in_n()
ONE = qhn_const(1)


def single(shift, coeff):
    return ShiftOperator.single(shift, coeff)


# -- operator families ---------------------------------------------------


def test_e_family_frozen():
    assert op_L(0) == single(0, N + H)
    assert op_L(-1) == single(1, ONE)
    assert op_L(1) == single(-1, N * (N + 2 * H - 1))
    assert op_L(2) == single(-2, N * (N - 1) * (N + 3 * H - 2))
    assert op_L(-2) == single(2, (N + 3 * H) / ((N + 2 * H) * (N + 2 * H + 1)))


def test_f_family_frozen():
    assert op_F(0) == ShiftOperator.identity()
    assert op_F(1) == single(-1, N)
    assert op_F(2) == single(-2, N * (N - 1))
    assert op_F(-1) == single(1, ONE / (N + 2 * H))
    assert op_F(-2) == single(2, ONE / ((N + 2 * H) * (N + 2 * H + 1)))


def test_numeric_weight_substitutes_coefficients():
    h0 = Fraction(1, 2)
    at = op_L(2, h0)
    expected = ShiftOperator(
        (d, substitute_h(c, h0)) for d, c in op_L(2).components
    )
    assert at == expected


def test_shapovalov_weights_frozen():
    h = var_h()
    assert shapovalov_weight(0) == qh_const(1)
    assert shapovalov_weight(1) == 2 * h
    assert shapovalov_weight(2) == 4 * h * (2 * h + 1)
    assert shapovalov_weight(2, Fraction(1, 2)) == Fraction(4)


def test_highest_weight_coercion():
    # the weight is None (formal symbol) or anything Fraction accepts
    assert op_L(2, "5/7") == op_L(2, Fraction(5, 7))
    assert op_L(2, None) == op_L(2)
    with pytest.raises(DomainError):
        check_symmetric(1, Fraction(-1, 3))


# -- bracket table --------------------------------------------------------


def test_bracket_frozen():
    assert bracket(e(2), e(5)) == {e(7): Fraction(-3)}
    assert bracket(e(3), e(3)) == {}
    assert bracket(e(2), f(3)) == {f(5): Fraction(-3)}
    assert bracket(f(3), e(2)) == {f(5): Fraction(3)}
    assert bracket(e(1), f(0)) == {}
    assert bracket(f(1), f(-4)) == {}


_gens = st.builds(
    lambda fam, i: fam(i),
    st.sampled_from([e, f]),
    st.integers(min_value=-5, max_value=5),
)


@given(_gens, _gens)
def test_bracket_antisymmetric(x, y):
    fwd, bwd = bracket(x, y), bracket(y, x)
    assert fwd == {z: -c for z, c in bwd.items()}


@settings(max_examples=60)
@given(_gens, _gens, _gens)
def test_bracket_jacobi(x, y, z):
    def j(a, b, c):
        return bracket_combo(bracket(a, b), {c: Fraction(1)})

    total = {}
    for part in (j(x, y, z), j(y, z, x), j(z, x, y)):
        for g, c in part.items():
            total[g] = total.get(g, Fraction(0)) + c
    assert all(c == 0 for c in total.values())


def test_represent_combo_linear():
    combo = {e(1): Fraction(2), f(-1): Fraction(-3)}
    assert represent_combo(combo) == op_L(1).scale(2) - op_F(-1).scale(3)


# -- deviations ------------------------------------------------------------


def test_in_half_deviations_vanish():
    for j in range(-8, 9):
        assert deviation(e(0), e(j)).is_zero()
    assert deviation(e(1), e(-1)).is_zero()
    assert deviation(e(-1), e(2)).is_zero()
    assert deviation(e(1), f(2)).is_zero()
    assert deviation(e(-1), f(0)).is_zero()


def test_mixed_deviation_class_and_special_weights():
    dev = deviation(e(2), e(-2))
    assert not dev.is_zero()
    assert dev.classify() is OperatorClass.TRACE_CLASS
    assert [d for d, _ in dev.components] == [0]
    # the defect vanishes identically at h = 1/2 but not at generic h
    assert deviation(e(2), e(-2), Fraction(1, 2)).is_zero()
    assert not deviation(e(2), e(-2), Fraction(5, 7)).is_zero()


def test_deviation_antisymmetric():
    pairs = [(e(2), e(-3)), (e(4), f(-2)), (f(3), e(-3))]
    for x, y in pairs:
        assert deviation(x, y) == -deviation(y, x)


def test_deviation_matches_float_matrix_commutator():
    # independent numeric route: truncate the factors, commute the float
    # matrices, subtract the represented bracket, compare interior entries
    h0 = Fraction(5, 7)
    size, interior = 16, 8
    a = op_L(2).truncate_numeric(size, h0)
    b = op_L(-2).truncate_numeric(size, h0)
    l0 = op_L(0).truncate_numeric(size, h0)
    comm = [
        [
            sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(size))
            for j in range(size)
        ]
        for i in range(size)
    ]
    dev = deviation(e(2), e(-2)).truncate_numeric(size, h0)
    for i in range(interior):
        for j in range(interior):
            expected = comm[i][j] - 4 * l0[i][j]
            assert abs(dev[i][j] - expected) < 1e-9


def test_ef_relations_frozen():
    assert op_L(1).commutator(op_F(1)) == -op_F(2)
    assert op_L(1).commutator(op_F(-1)) == op_F(0)
    assert op_F(-1).commutator(op_F(-2)).is_zero()
    chain = single(3, ONE / ((N + 2 * H) * (N + 2 * H + 1) * (N + 2 * H + 2)))
    assert op_F(-1) @ op_F(-2) == chain
    assert op_F(-2) @ op_F(-1) == chain


def test_f_pair_product_frozen():
    # dual-route value: both composition orders give the same band entry
    assert op_F(1) @ op_F(-1) == single(0, (N + 1) / (N + 2 * H))
    assert op_F(-1) @ op_F(1) == single(0, N / (N + 2 * H - 1))


def test_degree_zero_word_witness():
    value = single(0, (N + 1) * (N + 2) * (N + 3 * H))
    assert op_L(2) @ op_L(-1) @ op_L(-1) == value
    assert op_L(1) @ op_L(1) @ op_L(-2) == value
    assert value.adjoint() == value


# -- checkers -----------------------------------------------------------


def test_check_witt_composite_smoke():
    report = check_witt_composite(2)
    assert report.passed
    assert len(report.items) == 25
    assert report.items[-1].verdict == INFO
    assert report.items[-1].operator_class == "trace-class"
    assert all(item.verdict == PASS for item in report.items[:-1])
    data = report.to_dict()
    assert set(data) == {"check", "parameters", "pass", "items", "notes"}
    assert data["parameters"] == {"max_index": 2, "h": "h"}
    assert data["pass"] is True
    with pytest.raises(DomainError):
        check_witt_composite(0)


def test_check_extended_composite_smoke():
    report = check_extended_composite(2)
    assert report.passed
    assert len(report.items) == 30
    assert any("-j*f_{i+j}" in note for note in report.notes)
    assert any("(i, j) = (0, 1)" in note for note in report.notes)


def test_ef_alternative_convention_really_fails():
    # the flagged convention [e_i, f_j] = j*f_j breaks at (0, 1)
    wrong = op_L(0).commutator(op_F(1)) - op_F(1)
    assert not wrong.is_zero()
    assert op_L(0).commutator(op_F(1)) == -op_F(1)


def test_check_symmetric_smoke():
    report = check_symmetric(3)
    assert report.passed
    assert len(report.items) == 14
    numeric = check_symmetric(3, Fraction(1, 2))
    assert numeric.passed
    assert len(numeric.items) == 15
    assert "inner-product" in numeric.items[-1].subject
    with pytest.raises(DomainError):
        check_symmetric(3, Fraction(-1, 2))


def test_check_absolutely_symmetric_counts():
    report = check_absolutely_symmetric(2, 1)
    assert report.passed
    assert len(report.items) == 14
    wider = check_absolutely_symmetric(3, 2)
    assert wider.passed
    assert len(wider.items) == 174
    with pytest.raises(DomainError):
        check_absolutely_symmetric(1, 3)


def test_word_coefficients_match_composed_products():
    # the carried coefficient, shifted back by the word's index sum, is the
    # composed operator's one band, also for words that are not zero-graded
    letters = verma._letters(1)
    walked = []
    for word, total, acc in verma._word_coefficients(3, 1):
        composed = ShiftOperator.identity()
        for x in word:
            composed = composed @ represent(x)
        assert composed == single(-total, acc.shift_arg(-total))
        assert total == sum(x.index for x in word)
        walked.append(word)
    # pre-order over every word each of whose prefixes can still return to 0
    wanted = [
        word
        for length in (1, 2, 3)
        for word in itertools.product(letters, repeat=length)
        if all(abs(sum(x.index for x in word[:k])) <= 3 - k for k in range(1, length + 1))
    ]
    assert walked == sorted(wanted, key=lambda w: [letters.index(x) for x in w])
    assert any(sum(x.index for x in w) for w in walked)


def test_check_absolutely_closed_modes():
    report = check_absolutely_closed(1, 1)
    assert report.passed
    assert len(report.items) == 216
    assert report.to_dict()["parameters"]["mode"] == "bracket"
    literal = check_absolutely_closed(1, 1, mode="literal")
    assert not literal.passed
    assert any("nonzero" in note for note in report.notes)
    with pytest.raises(DomainError):
        check_absolutely_closed(0, 1)
    with pytest.raises(DomainError):
        check_absolutely_closed(1, 1, mode="strict")


def _closed_classes(report):
    """Per item: (subject, verdict, defect class, plain nested-commutator class)."""
    out = []
    for item in report.items:
        defect, plain = (
            OperatorClass.from_label(part.strip().split(" class ")[1])
            for part in item.note.split(";")[:2]
        )
        out.append((item.subject, item.verdict, defect, plain))
    return out


@pytest.mark.parametrize("h0", [Fraction(3), Fraction(5, 7)])
def test_closed_check_numeric_weight_matches_formal(h0):
    formal = _closed_classes(check_absolutely_closed(1, 1))
    numeric = check_absolutely_closed(1, 1, h0)
    assert numeric.passed
    assert _closed_classes(numeric) == formal


def test_closed_check_special_weight_only_lowers_classes():
    # at h = 1/2 some trace-class defects vanish identically
    formal = _closed_classes(check_absolutely_closed(1, 1))
    special = _closed_classes(check_absolutely_closed(1, 1, Fraction(1, 2)))
    assert [row[:2] for row in special] == [row[:2] for row in formal]
    assert all(
        s[2] <= f[2] and s[3] <= f[3] for s, f in zip(special, formal)
    )
    assert any(s[2:] != f[2:] for s, f in zip(special, formal))


def test_closed_check_frozen_examples():
    n1 = represent(e(2)).commutator(represent(e(-2))).commutator(represent(e(3)))
    phi1 = bracket_combo(bracket(e(2), e(-2)), {e(3): Fraction(1)})
    assert phi1 == {e(3): Fraction(-12)}
    assert n1.classify() is OperatorClass.UNBOUNDED
    defect1 = n1 - represent_combo(phi1)
    assert defect1.classify() <= OperatorClass.HILBERT_SCHMIDT

    n2 = represent(f(2)).commutator(represent(f(-2))).commutator(represent(e(1)))
    phi2 = bracket_combo(bracket(f(2), f(-2)), {e(1): Fraction(1)})
    assert phi2 == {}
    assert n2.classify() <= OperatorClass.HILBERT_SCHMIDT


# -- root-pair antisymmetry of the closed check ------------------------------


@pytest.mark.parametrize("h0", [None, Fraction(5, 7)])
def test_root_pairs_are_antisymmetric(h0):
    # every ordered pair of letters at index bound 2, and every pair of a
    # table bracket with a third letter: swapping negates both readings
    letters = verma._letters(2)
    for x in letters:
        for y in letters:
            fwd = represent(x, h0).commutator(represent(y, h0))
            assert fwd == -(represent(y, h0).commutator(represent(x, h0)))
            if x == y:
                assert fwd.is_zero()
            phi = bracket_combo({x: Fraction(1)}, {y: Fraction(1)})
            assert phi == {g: -c for g, c in bracket_combo({y: Fraction(1)}, {x: Fraction(1)}).items()}
            assert represent_combo(phi, h0) == -represent_combo(bracket(y, x), h0)
            for z in letters:
                nested = bracket_combo(phi, {z: Fraction(1)})
                assert nested == {g: -c for g, c in bracket_combo({z: Fraction(1)}, phi).items()}
                assert nested == {
                    g: -c for g, c in bracket_combo(bracket(y, x), {z: Fraction(1)}).items()
                }


@st.composite
def _operators(draw):
    """Sums of bands whose coefficients are small polynomials in n and h
    over products of linear factors, at the formal or a numeric weight."""
    comps = []
    for _ in range(draw(st.integers(0, 3))):
        top = sum(
            (draw(st.integers(-3, 3)) * N**i * H**k for i in range(3) for k in range(2)),
            qhn_const(draw(st.integers(-2, 2))),
        )
        bottom = qhn_const(1)
        for _ in range(draw(st.integers(0, 2))):
            bottom = bottom * (N + draw(st.integers(1, 3)) * H + draw(st.integers(0, 4)))
        comps.append((draw(st.integers(-3, 3)), top / bottom))
    op = ShiftOperator(comps)
    h0 = draw(st.sampled_from([None, Fraction(1, 2), Fraction(5, 7), Fraction(3)]))
    return op if h0 is None else verma._at_weight(op, h0)


@settings(max_examples=80, deadline=None)
@given(_operators())
def test_classify_ignores_sign(op):
    assert (-op).classify() == op.classify()
    assert (-op).is_zero() == op.is_zero()


def _closed_items_reference(depth, index_bound, h0):
    """Every tuple's operators formed from scratch, in the same pre-order:
    the traversal before the root-pair antisymmetry was used."""
    letters = verma._letters(index_bound)
    items, plain = [], []
    nonzero_phi = 0

    def visit(tail_letters, acc_op, acc_combo, length):
        nonlocal nonzero_phi
        if length >= 3:
            op_at = verma._at_weight(acc_op, h0)
            bracket_cls = (op_at - represent_combo(acc_combo, h0)).classify()
            literal_cls = op_at.classify()
            if acc_combo:
                nonzero_phi += 1
            items.append(
                CheckItem(
                    subject="(" + ", ".join(str(x) for x in tail_letters) + ")",
                    verdict=PASS if bracket_cls <= OperatorClass.HILBERT_SCHMIDT else FAIL,
                    operator_class=bracket_cls.label,
                    note=(
                        f"defect class {bracket_cls.label};"
                        f" plain nested-commutator class {literal_cls.label};"
                        f" table bracket {verma._combo_str(acc_combo)}"
                    ),
                )
            )
            plain.append(literal_cls)
        if length == depth + 2:
            return
        for letter in letters:
            visit(
                tail_letters + (letter,),
                acc_op.commutator(represent(letter)) if length else represent(letter),
                bracket_combo(acc_combo, {letter: Fraction(1)}) if length else {letter: Fraction(1)},
                length + 1,
            )

    visit((), ShiftOperator.zero(), {}, 0)
    return tuple(items), tuple(plain), nonzero_phi


@pytest.mark.parametrize("h0", [None, Fraction(1, 2), Fraction(5, 7)])
@pytest.mark.parametrize("depth, index_bound", [(1, 2), (2, 1)])
def test_closed_items_match_the_reference_traversal(depth, index_bound, h0):
    # the items carry the bracket-mode verdicts and both classes, and
    # literal mode re-gates them on the plain classes: equal triples give
    # equal reports in both modes
    got = verma._closed_items(depth, index_bound, h0)
    assert got == _closed_items_reference(depth, index_bound, h0)
    assert len(got[0]) == sum((4 * index_bound + 2) ** (m + 2) for m in range(1, depth + 1))


def test_check_hs_deviations_smoke():
    report = check_hs_deviations(3, Fraction(1, 2), 200)
    assert report.passed
    assert len(report.items) == 4
    assert all(item.operator_class == "trace-class" for item in report.items)
    # h = 1/2 is degenerate (all sums vanish); a generic weight is not
    generic = check_hs_deviations(3, Fraction(5, 7), 200)
    assert generic.passed
    assert any("fraction 0 " not in (item.note or "") for item in generic.items)
    with pytest.raises(DomainError):
        check_hs_deviations(1)
    with pytest.raises(DomainError):
        check_hs_deviations(3, Fraction(-1, 2))


# -- tail-square equivalence ----------------------------------------------


def test_tail_equivalence_frozen_trio():
    h = var_h()
    one = qh_const(1)
    assert tail_square_equivalence(h / (h + 1), h / (h + 1), Fraction(1, 2))
    assert not tail_square_equivalence(h + one, h, Fraction(1, 2))
    assert tail_square_equivalence(one / (h + 1), qh_const(0), Fraction(1, 2))
    assert tail_square_equivalence(1 / h, 1 / (h + 1), Fraction(1, 2))


def test_tail_equivalence_mixed_levels():
    h = var_h()
    r = (2 * h + 1) / (h + 3)
    assert tail_square_equivalence(r, qhn_const(r), Fraction(1, 2))
    assert not tail_square_equivalence(r + qh_const(1), qhn_const(r), Fraction(1, 2))


def test_tail_equivalence_refuses_lattice_pole():
    h = var_h()
    bad = 1 / (h - Fraction(3, 2))
    with pytest.raises(PoleError) as err:
        tail_square_equivalence(bad, qh_const(0), Fraction(1, 2))
    assert err.value.point == Fraction(3, 2)
    # same denominator is harmless one step off the lattice
    assert tail_square_equivalence(bad, qh_const(0), Fraction(7, 4))


def test_tail_equivalence_rejects_bivariate_difference():
    with pytest.raises(DomainError):
        tail_square_equivalence(var_h_in_n() * var_n(), qhn_const(0), Fraction(1, 2))


def test_tail_probe_agrees_on_frozen_trio():
    h = var_h()
    one = qh_const(1)
    cases = [
        (h / (h + 1), h / (h + 1)),
        (h + one, h),
        (one / (h + 1), qh_const(0)),
    ]
    for r1, r2 in cases:
        assert tail_square_probe(r1, r2, Fraction(1, 2), 2000) == tail_square_equivalence(
            r1, r2, Fraction(1, 2)
        )


def test_tail_probe_agreement_randomized():
    import random

    h = var_h()
    rng = random.Random(20240817)
    degrees = [0, 1, 2]
    for _ in range(12):
        num1 = sum(
            qh_const(rng.randint(-3, 3)) * h ** k for k in range(rng.choice(degrees) + 1)
        )
        num2 = sum(
            qh_const(rng.randint(-3, 3)) * h ** k for k in range(rng.choice(degrees) + 1)
        )
        den = (h + rng.randint(1, 4)) * (h + rng.randint(1, 4))
        r1, r2 = num1 / den, num2 / den
        sym = tail_square_equivalence(r1, r2, Fraction(1, 2))
        num = tail_square_probe(r1, r2, Fraction(1, 2), 4000)
        assert sym == num


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([-10**6, -1000, -3, -1, 1, 2, 10, 1000, 10**6]), min_size=1, max_size=4),
    st.lists(st.integers(-10, 10), max_size=3),
    st.sampled_from([Fraction(1, 2), Fraction(22, 7), Fraction(10**6 + 1, 3)]),
    st.sampled_from([8, 100, 4000]),
)
def test_tail_probe_agrees_when_roots_or_weight_lie_far_out(num_coeffs, den_low, h0, count):
    # a monic integer denominator has only integer rational roots, and no
    # lattice h0 + j here meets an integer, so there is no pole to refuse
    h = var_h()
    num = sum((qh_const(c) * h ** k for k, c in enumerate(num_coeffs)), qh_const(0))
    den = sum((qh_const(c) * h ** k for k, c in enumerate(den_low)), h ** len(den_low))
    r = num / den
    assert tail_square_probe(r, qh_const(0), h0, count) == tail_square_equivalence(
        r, qh_const(0), h0
    )


def test_tail_probe_refuses_terms_beyond_float_range():
    with pytest.raises(DomainError, match="float64"):
        tail_square_probe(var_h() ** 80, qh_const(0), Fraction(1, 2))


def test_tail_probe_streams_its_sums():
    import tracemalloc

    h = var_h()
    tracemalloc.start()
    try:
        assert tail_square_probe(1 / h, 1 / (h + 1), Fraction(1, 2), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_tail_equivalence_report_structure():
    h = var_h()
    report = tail_equivalence_report(1 / h, 1 / (h + 1), Fraction(1, 2), probe_terms=2000)
    assert report.passed
    assert report.items[0].verdict == INFO
    assert "converges" in report.items[0].note or "convergent" in report.items[0].note
    assert report.items[1].verdict == PASS
    data = report.to_dict()
    assert data["check"] == "tail-equivalence"
    assert data["parameters"]["h0"] == "1/2"
