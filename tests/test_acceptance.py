"""Acceptance gate: one test per contract criterion, one verdict line each.

Every criterion is checked at its stated tolerance (exact unless the
line says otherwise) and prints a single PASS/FAIL line, so a plain
pytest -v run doubles as the acceptance summary.
"""

import random
from fractions import Fraction

from liecomposite.cli import RunConfig, _render, run
from liecomposite.exact import qhn_const, var_h, var_n
from liecomposite.findim import (
    check_compatibility,
    check_connected,
    check_dense,
    check_representation,
)
from liecomposite.octa import (
    build_octahedron,
    extract_so4,
    killing_certificate,
    so4_composite_rep,
)
from liecomposite.shiftop import ShiftOperator
from liecomposite.verma import (
    check_absolutely_closed,
    check_absolutely_symmetric,
    check_extended_composite,
    check_hs_deviations,
    check_witt_composite,
    deviation,
    e,
    f,
    op_F,
    op_L,
    represent,
    tail_square_equivalence,
    tail_square_probe,
)

N = var_n()
H = var_h()
ONE = qhn_const(1)

GOOD_CLASSES = {"zero", "trace-class", "hilbert-schmidt"}


def verdict(number: int, label: str, ok: bool, extra: str = ""):
    tail = f"  ({extra})" if extra else ""
    print(f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_in_half_deviations_vanish_exactly():
    ok = True
    for lo, hi in ((-1, 8), (-8, 1)):
        for i in range(lo, hi + 1):
            for j in range(lo, hi + 1):
                if i == j:
                    continue
                ok = ok and deviation(e(i), e(j)).is_zero()
    report = check_witt_composite(8)
    gated = [item for item in report.items if item.verdict != "info"]
    ok = ok and report.passed and len(gated) == 180
    verdict(1, "in-half pair deviations vanish, symbolic weight, zero tolerance", ok)


def test_criterion_2_extended_family_relations():
    ok = True
    for sign in (1, -1):
        e_range = range(-1, 7) if sign == 1 else range(-6, 2)
        f_range = range(0, 7) if sign == 1 else range(-6, 1)
        for i in e_range:
            for j in f_range:
                diff = represent(e(i)).commutator(represent(f(j))) + op_F(i + j).scale(j)
                ok = ok and diff.is_zero()
        for i in f_range:
            for j in f_range:
                ok = ok and represent(f(i)).commutator(represent(f(j))).is_zero()
    report = check_extended_composite(6)
    flagged = any("fails already at" in note for note in report.notes)
    ok = ok and report.passed and flagged
    verdict(2, "mixed-family relations hold exactly, printed-table variant flagged", ok)


def test_criterion_3_mixed_deviations_classify_and_sum():
    ok = True
    pairs = [(i, j) for i in range(2, 7) for j in range(-6, -1)]
    for i, j in pairs:
        cls = deviation(e(i), e(j)).classify().label
        ok = ok and cls in GOOD_CLASSES
    nonzero_seen = False
    for h0 in (Fraction(1, 2), Fraction(5, 7)):
        for i, j in pairs:
            sums = deviation(e(i), e(j), h0).hs_partial_sums(500, h0)
            total = sums[-1]
            if total == 0.0:
                continue  # identically zero sums corroborate trivially
            nonzero_seen = True
            ok = ok and (total - sums[249]) < 0.01 * total
        ok = ok and check_hs_deviations(index_bound=6, h0=h0, count=500).passed
    ok = ok and nonzero_seen
    verdict(
        3,
        "mixed deviations at worst Hilbert-Schmidt; Cauchy increments under 1%"
        " at weights 1/2 and 5/7",
        ok,
    )


def test_criterion_4_adjoint_symmetry_and_word_identities():
    ok = True
    for k in range(-6, 7):
        ok = ok and op_L(k).adjoint() == op_L(-k)
        ok = ok and op_F(k).adjoint() == op_F(-k)
    word1 = op_L(2) @ op_L(-1) @ op_L(-1)
    word2 = op_L(1) @ op_L(1) @ op_L(-2)
    expected = ShiftOperator.single(0, (N + 1) * (N + 2) * (N + 3 * H))
    ok = ok and word1 == word2 == expected
    ok = ok and check_absolutely_symmetric(4, 3).passed
    verdict(4, "adjoint pairing of the families; degree-0 words agree exactly", ok)


def test_criterion_5_iterated_brackets_stay_close():
    gating = check_absolutely_closed(1, 4, None, mode="bracket")
    literal = check_absolutely_closed(1, 4, None, mode="literal")
    ok = gating.passed
    verdict(
        5,
        "depth-1 bracket remainders classify at worst Hilbert-Schmidt",
        ok,
        extra=f"literal mode recorded, not gating: "
        f"{'PASS' if literal.passed else 'FAIL'}",
    )


def test_criterion_6_octahedron_pipeline():
    octa = build_octahedron()
    ok = check_compatibility(octa).passed and check_dense(octa) and check_connected(octa)
    for pair in ((0, 1), (1, 0), (1, 1), (2, 0)):
        rep = so4_composite_rep(*pair)
        rep_report = check_representation(octa, rep)
        ok = ok and rep_report.passed
        ok = ok and dict(rep_report.parameters)["arithmetic"] == "exact"
        ext = extract_so4(rep)
        ok = ok and ext.passed
        subjects = [item.subject for item in ext.verdict.items if item.verdict == "pass"]
        ok = ok and sum("is central" in s for s in subjects) == 3
        ok = ok and sum("central commutator" in s for s in subjects) == 3
        ok = ok and sum(s.startswith("face (") for s in subjects) == 4
        ok = ok and sum("shifted opposite pair" in s for s in subjects) == 3
    ok = ok and killing_certificate().passed
    verdict(6, "octahedron axioms, four exact composite reps, static certificate", ok)


def test_criterion_7_tail_equivalence_examples_and_probe():
    base = (N + 1) / (N + 2)
    h0 = Fraction(1, 2)
    ok = tail_square_equivalence(base, base, h0) is True
    ok = ok and tail_square_equivalence(base, base + 1, h0) is False
    ok = ok and tail_square_equivalence(base, base + ONE / (N + 2), h0) is True

    rng = random.Random(20260819)
    agreements = 0
    for _ in range(20):
        a = Fraction(rng.randint(1, 9), 3)  # thirds keep poles off the lattice
        b = Fraction(rng.randint(1, 9), 3)
        num = (
            rng.randint(-3, 3) * N * N + rng.randint(-3, 3) * N + rng.randint(1, 5)
        )
        r1 = num / ((N + a) * (N + b))
        c = Fraction(rng.randint(1, 4))
        kind = rng.randint(0, 3)
        if kind == 0:
            r2 = r1
        elif kind == 1:
            r2 = r1 + c
        elif kind == 2:
            r2 = r1 + c / (N + a)
        else:
            r2 = r1 + c / ((N + a) * (N + b))
        symbolic = tail_square_equivalence(r1, r2, h0)
        probe = tail_square_probe(r1, r2, h0, count=10000)
        if symbolic == probe:
            agreements += 1
    ok = ok and agreements == 20
    verdict(
        7,
        "tail comparison: frozen trio true/false/true; symbolic matches"
        " 10^4-term probe on 20 random pairs",
        ok,
    )


def _random_op(rng: random.Random) -> ShiftOperator:
    comps = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(-2, 2)
        num = N * 0
        while num.is_zero():
            num = (
                rng.randint(-3, 3) * N * N
                + rng.randint(-3, 3) * H * N
                + rng.randint(-3, 3)
            )
        den = {
            0: num * 0 + 1,
            1: N + 2 * H,
            2: (N + 2 * H) * (N + 2 * H + 1),
        }[rng.randint(0, 2)]
        c = num / den
        if d < 0:
            for t in range(-d):
                c = c * (N - t)
        comps.append((d, c))
    a = ShiftOperator(comps)
    return a if a else ShiftOperator.identity()


def _apply_twice(outer: ShiftOperator, inner: ShiftOperator, n: int):
    acc = {}
    for k, v in inner.apply_to_monomial(n):
        for k2, v2 in outer.apply_to_monomial(k):
            acc[k2] = acc.get(k2, 0) + v * v2
    return {k: v for k, v in acc.items() if not v.is_zero()}


def test_criterion_8_algebraic_laws_and_determinism():
    rng = random.Random(20260818)
    ops = [_random_op(rng) for _ in range(100)]
    ok = all(a.adjoint().adjoint() == a for a in ops)

    for idx in range(0, 100, 2):
        a, b = ops[idx], ops[idx + 1]
        ab = a @ b
        for n in range(31):
            chained = _apply_twice(a, b, n)
            direct = dict(ab.apply_to_monomial(n))
            ok = ok and set(chained) == set(direct)
            ok = ok and all(direct[k] == chained[k] for k in direct)
        if not ok:
            break

    for idx in range(0, 30, 3):
        a, b, c = ops[idx], ops[idx + 1], ops[idx + 2]
        acc = a.commutator(b).commutator(c)
        acc = acc + b.commutator(c).commutator(a)
        acc = acc + c.commutator(a).commutator(b)
        ok = ok and acc.is_zero()

    for config in (
        RunConfig(command="witt-verify", max_index=3, fmt="json"),
        RunConfig(command="witt-hs", index_bound=2, truncation=100,
                  weight=Fraction(1, 2), fmt="json"),
    ):
        _, report1, payload1 = run(config)
        _, report2, payload2 = run(config)
        text1 = _render(config, report1, payload1)
        text2 = _render(config, report2, payload2)
        ok = ok and text1 == text2
    verdict(
        8,
        "compose/apply agree on monomials up to 30; adjoint involution;"
        " Jacobi; byte-identical JSON reports",
        ok,
    )
