"""Composite structures, axiom checks, representations, commutants, files."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from liecomposite import findim
from liecomposite.errors import (
    DimensionMismatchError,
    DomainError,
    MalformedInputError,
)
from liecomposite.findim import (
    FinDimComposite,
    FinDimRep,
    SubspaceAlgebra,
    check_compatibility,
    check_connected,
    check_dense,
    check_representation,
    commutant_dimension,
    composite_from_data,
    composite_to_data,
    format_scalar,
    intersect_subspaces,
    is_irreducible,
    load_composite,
    load_rep,
    parse_scalar,
    rep_from_data,
    rep_to_data,
    save_composite,
    save_rep,
    tensor_product,
)
from liecomposite.linalg import GaussianRational as G, ZMatrix, nullspace, rank, rank_mod_p
from liecomposite.octa import VERTICES, _abstract_constants, so4_composite_rep
from liecomposite.report import FAIL, INFO, PASS

F0, F1 = Fraction(0), Fraction(1)


def so3_constants():
    c = [[[F0] * 3 for _ in range(3)] for _ in range(3)]
    for k, i, j in [(2, 0, 1), (0, 1, 2), (1, 2, 0)]:
        c[k][i][j] = F1
        c[k][j][i] = -F1
    return c


def abelian_constants(d):
    return [[[F0] * d for _ in range(d)] for _ in range(d)]


def eye_rows(total, picks):
    rows = []
    for p in picks:
        row = [F0] * total
        row[p] = F1
        rows.append(row)
    return rows


def spin_half_matrices():
    half = Fraction(1, 2)
    mi = G(0, -half)
    return {
        "x": [[G(0), mi], [mi, G(0)]],
        "y": [[G(0), G(-half)], [G(half), G(0)]],
        "z": [[mi, G(0)], [G(0), G(0, half)]],
    }


def so3_composite():
    sub = SubspaceAlgebra("rot", eye_rows(3, [0, 1, 2]), so3_constants())
    return FinDimComposite(3, ["x", "y", "z"], [sub])


# -- validation ------------------------------------------------------------


def test_subspace_rejects_small_dimension():
    with pytest.raises(MalformedInputError):
        SubspaceAlgebra("s", eye_rows(3, [0]), abelian_constants(1))


def test_subspace_rejects_dependent_rows():
    rows = [[F1, F0, F0], [F1, F0, F0], [F0, F0, F1]]
    with pytest.raises(MalformedInputError):
        SubspaceAlgebra("s", rows, abelian_constants(3))


def test_subspace_refuses_float_scalars():
    # 3 * (0.1, 0.7) = (0.3, 2.1) exactly, but not in binary floating point
    with pytest.raises(MalformedInputError, match="float"):
        SubspaceAlgebra("s", [[0.1, 0.7], [0.3, 2.1]], abelian_constants(2))
    with pytest.raises(MalformedInputError, match="dependent"):
        SubspaceAlgebra("s", [["0.1", "0.7"], ["0.3", "2.1"]], abelian_constants(2))
    c = abelian_constants(2)
    c[0][0][1], c[0][1][0] = 1.0, -1.0
    with pytest.raises(MalformedInputError, match="float"):
        SubspaceAlgebra("s", eye_rows(2, [0, 1]), c)


def test_subspace_accepts_integer_scalars():
    c = [[[0, 0], [0, 0]], [[0, 1], [-1, 0]]]
    sub = SubspaceAlgebra("s", [[1, 0], [0, 2]], c)
    assert sub.basis == ((F1, F0), (F0, Fraction(2)))
    assert all(type(x) is Fraction for row in sub.basis for x in row)
    assert sub.structure_constants[1][0][1] == F1


def test_subspace_and_rep_refuse_boolean_scalars():
    # bool is a subclass of int, but True is not the scalar 1
    with pytest.raises(MalformedInputError, match="boolean"):
        SubspaceAlgebra("s", [[True, False], [0, 1]], abelian_constants(2))
    c = [[[0, 0], [0, 0]], [[0, True], [-1, 0]]]
    with pytest.raises(MalformedInputError, match="boolean"):
        SubspaceAlgebra("s", [[1, 0], [0, 1]], c)
    with pytest.raises(MalformedInputError, match="boolean"):
        FinDimRep(2, {"x": [[False, 0], [0, 0]]})


def test_subspace_rejects_bad_constant_shape():
    with pytest.raises(MalformedInputError):
        SubspaceAlgebra("s", eye_rows(3, [0, 1, 2]), abelian_constants(2))


def test_subspace_rejects_antisymmetry_violation():
    c = abelian_constants(2)
    c[0][0][1] = F1
    c[0][1][0] = F1
    with pytest.raises(MalformedInputError):
        SubspaceAlgebra("s", eye_rows(2, [0, 1]), c)


def test_subspace_rejects_jacobi_violation():
    # [x,y] = x, [y,z] = y, [z,x] = z is antisymmetric but breaks Jacobi
    c = abelian_constants(3)
    for k, i, j in [(0, 0, 1), (1, 1, 2), (2, 2, 0)]:
        c[k][i][j] = F1
        c[k][j][i] = -F1
    with pytest.raises(MalformedInputError):
        SubspaceAlgebra("s", eye_rows(3, [0, 1, 2]), c)


def jacobi_failures(c):
    """The triples i < j < k, in combinations order, whose cyclic sum of
    nested brackets from the constants c[k][i][j] is nonzero."""
    d = len(c)

    def bracket(x, y):
        return [sum(c[k][i][j] * x[i] * y[j] for i in range(d) for j in range(d)) for k in range(d)]

    e = [[F1 if a == b else F0 for b in range(d)] for a in range(d)]
    return [
        (i, j, k)
        for i, j, k in combinations(range(d), 3)
        if any(
            sum(parts)
            for parts in zip(
                bracket(bracket(e[i], e[j]), e[k]),
                bracket(bracket(e[j], e[k]), e[i]),
                bracket(bracket(e[k], e[i]), e[j]),
            )
        )
    ]


def test_jacobi_error_names_the_first_failing_triple():
    # [e0,e1] = e0, [e1,e3] = e1, [e3,e2] = e3, [e2,e1] = e2 breaks Jacobi
    # at (0,1,3) and (1,2,3) only
    c = abelian_constants(4)
    for k, i, j in [(0, 0, 1), (1, 1, 3), (3, 3, 2), (2, 2, 1)]:
        c[k][i][j] = F1
        c[k][j][i] = -F1
    assert jacobi_failures(c) == [(0, 1, 3), (1, 2, 3)]
    with pytest.raises(MalformedInputError, match=r"^subspace s: Jacobi fails at \(0,1,3\)$"):
        SubspaceAlgebra("s", eye_rows(4, [0, 1, 2, 3]), c)


def test_composite_validation():
    sub = SubspaceAlgebra("s", eye_rows(3, [0, 1]), abelian_constants(2))
    with pytest.raises(MalformedInputError):
        FinDimComposite(3, ["x", "y"], [sub])
    with pytest.raises(MalformedInputError):
        FinDimComposite(3, ["x", "x", "y"], [sub])
    with pytest.raises(MalformedInputError):
        FinDimComposite(3, ["x", "y", "z"], [])
    with pytest.raises(MalformedInputError):
        FinDimComposite(3, ["x", "y", "z"], [sub, sub])  # duplicate names
    with pytest.raises(MalformedInputError):
        FinDimComposite(4, ["w", "x", "y", "z"], [sub])


def test_rep_validation():
    with pytest.raises(MalformedInputError):
        FinDimRep(2, {"x": [[F0, F0]]})
    with pytest.raises(MalformedInputError):
        FinDimRep(0, {})


def test_rep_refuses_floats_mixed_with_gaussian_entries():
    half = Fraction(1, 2)
    gaussian = spin_half_matrices()
    across = {**gaussian, "y": [[0.0, -half], [half, 0.0]]}
    within = {"y": [[0.0, G(0, 1)], [F0, F0]]}
    for mats in (across, within):
        with pytest.raises(MalformedInputError, match="matrix for y has float entries"):
            FinDimRep(2, mats)
    # floats mixed with Fractions stay a float representation
    assert not FinDimRep(2, {"x": [[0.0, half], [-half, 0.0]]}).is_exact


def zero_start_ambient_matrix(rep, vector, names):
    """T(vector) as the sum of every nonzero coefficient's scaled matrix
    into a zero matrix."""
    total = ZMatrix(1, [{} for _ in range(rep.space_dim)], rep.space_dim)
    for coeff, name in zip(vector, names):
        if coeff:
            total = total.add(rep.matrices[name].scale(coeff))
    return total


_fraction = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 7]))
_coefficient = st.one_of(
    st.sampled_from([0, 1, -1, F0, F1, -F1, G(0), G(1), G(-1)]),
    _fraction,
    st.builds(G, _fraction, _fraction),
)
_REPS = [so4_composite_rep(0, 0), so4_composite_rep(1, 0), so4_composite_rep(2, 1)]


@given(st.sampled_from(_REPS), st.lists(_coefficient, min_size=6, max_size=6))
def test_ambient_matrix_equals_the_zero_start_sum(rep, vector):
    got = rep.ambient_matrix(vector, VERTICES)
    want = zero_start_ambient_matrix(rep, vector, VERTICES)
    assert (got.den, got.rows, got.ncols) == (want.den, want.rows, want.ncols)


def test_float_rep_refuses_a_gaussian_coefficient():
    rep = FinDimRep(2, {"x": [[0.0, 0.5], [-0.5, 0.0]], "y": [[1.0, 0.0], [0.0, -1.0]]})
    for vector in ([G(0, 1), F0], [F1, G(1)], [G(0), F1]):
        with pytest.raises(MalformedInputError, match="float entries does not mix"):
            rep.ambient_matrix(vector, ["x", "y"])
    assert rep.ambient_matrix([F1, F0], ["x", "y"]) is rep.matrices["x"]


# -- intersections and axioms ------------------------------------------------


def test_intersections_frozen():
    s1 = SubspaceAlgebra("a", eye_rows(4, [0, 1, 2]), so3_constants())
    s2 = SubspaceAlgebra("b", eye_rows(4, [1, 2, 3]), abelian_constants(3))
    comp = FinDimComposite(4, ["p", "q", "r", "s"], [s1, s2])
    assert len(intersect_subspaces(comp, 0, 1)) == 2
    assert len(intersect_subspaces(comp, 0, 0)) == 3
    assert len(intersect_subspaces(comp, 1, 0)) == 2
    s3 = SubspaceAlgebra("c", eye_rows(4, [0, 1]), abelian_constants(2))
    s4 = SubspaceAlgebra("d", eye_rows(4, [2, 3]), abelian_constants(2))
    comp2 = FinDimComposite(4, ["p", "q", "r", "s"], [s3, s4])
    assert intersect_subspaces(comp2, 0, 1) == []


def test_compatibility_identical_subspaces():
    s1 = SubspaceAlgebra("a", eye_rows(3, [0, 1, 2]), so3_constants())
    s2 = SubspaceAlgebra("b", eye_rows(3, [0, 1, 2]), so3_constants())
    comp = FinDimComposite(3, ["x", "y", "z"], [s1, s2])
    report = check_compatibility(comp)
    assert report.passed
    assert any(item.verdict == INFO and "same space" in item.note for item in report.items)


def test_compatibility_closure_failure_witness():
    s1 = SubspaceAlgebra("rot", eye_rows(4, [0, 1, 2]), so3_constants())
    s2 = SubspaceAlgebra("flat", eye_rows(4, [1, 2, 3]), abelian_constants(3))
    comp = FinDimComposite(4, ["w", "x", "y", "z"], [s1, s2])
    report = check_compatibility(comp)
    assert not report.passed
    bad = report.failures()[0]
    assert "leaves the intersection" in bad.note
    assert "witness" in bad.note


def test_compatibility_differing_brackets_witness():
    # [b0, b1] = b0 on one side, abelian on the other, sharing a plane
    c = abelian_constants(3)
    c[0][0][1] = F1
    c[0][1][0] = -F1
    s1 = SubspaceAlgebra("solv", eye_rows(4, [0, 1, 2]), c)
    s2 = SubspaceAlgebra("flat", eye_rows(4, [0, 1, 3]), abelian_constants(3))
    comp = FinDimComposite(4, ["w", "x", "y", "z"], [s1, s2])
    report = check_compatibility(comp)
    assert not report.passed
    assert "differ by" in report.failures()[0].note


def test_dense_and_connected():
    whole = SubspaceAlgebra("all", eye_rows(3, [0, 1, 2]), so3_constants())
    comp = FinDimComposite(3, ["x", "y", "z"], [whole])
    assert check_dense(comp) and check_connected(comp)
    s1 = SubspaceAlgebra("a", eye_rows(5, [0, 1]), abelian_constants(2))
    s2 = SubspaceAlgebra("b", eye_rows(5, [2, 3]), abelian_constants(2))
    comp2 = FinDimComposite(5, ["p", "q", "r", "s", "t"], [s1, s2])
    assert not check_dense(comp2)
    assert not check_connected(comp2)


# -- representations -----------------------------------------------------


def test_spin_half_representation_exact():
    comp = so3_composite()
    rep = FinDimRep(2, spin_half_matrices())
    result = check_representation(comp, rep)
    assert result.passed
    assert result.to_dict()["parameters"]["arithmetic"] == "exact"
    assert commutant_dimension(rep) == 1
    assert is_irreducible(rep)


def test_zero_rep_passes_and_has_full_commutant():
    comp = so3_composite()
    zero = FinDimRep(2, {n: [[F0, F0], [F0, F0]] for n in "xyz"})
    assert check_representation(comp, zero).passed
    assert commutant_dimension(zero) == 4


def test_scaled_generator_fails_with_witness():
    comp = so3_composite()
    mats = spin_half_matrices()
    mats["z"] = ZMatrix.from_rows(mats["z"]).scale(2)
    rep = FinDimRep(2, mats)
    result = check_representation(comp, rep)
    assert not result.passed
    assert result.failures()


def test_cross_subspace_pairs_unconstrained():
    s1 = SubspaceAlgebra("a", eye_rows(4, [0, 1]), abelian_constants(2))
    s2 = SubspaceAlgebra("b", eye_rows(4, [2, 3]), abelian_constants(2))
    comp = FinDimComposite(4, ["p", "q", "r", "s"], [s1, s2])
    up = [[F0, F1], [F0, F0]]
    down = [[F0, F0], [F1, F0]]
    rep = FinDimRep(
        2,
        {
            "p": up,
            "q": [[F0, Fraction(2)], [F0, F0]],
            "r": down,
            "s": [[F0, F0], [Fraction(3), F0]],
        },
    )
    # [T(p), T(r)] != 0, but (p, r) straddles the subspaces: not checked
    assert check_representation(comp, rep).passed


def test_float_matrices_use_tolerance():
    comp = so3_composite()
    # floats come from a real rational rep: the adjoint rep of so(3)
    ad = {
        "x": [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        "y": [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        "z": [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    }
    exact_rep = FinDimRep(3, {k: [[Fraction(e) for e in row] for row in v] for k, v in ad.items()})
    assert check_representation(comp, exact_rep).passed
    tiny = FinDimRep(3, {k: [[float(e) + (1e-12 if k == "x" else 0.0) for e in row] for row in v] for k, v in ad.items()})
    assert check_representation(comp, tiny).passed
    coarse = FinDimRep(3, {k: [[float(e) + (1e-3 if k == "x" else 0.0) for e in row] for row in v] for k, v in ad.items()})
    assert not check_representation(comp, coarse).passed
    assert check_representation(comp, coarse, tolerance=1.0).passed
    # tolerance 0 asks for exact agreement on the float path
    assert not check_representation(comp, coarse, tolerance=0).passed
    assert check_representation(comp, exact_rep, tolerance=0).passed


def abelian_plane():
    sub = SubspaceAlgebra("ab", eye_rows(2, [0, 1]), abelian_constants(2))
    return FinDimComposite(2, ["x", "y"], [sub])


def test_float_residual_is_the_exact_distance_of_the_given_floats():
    # in decimal T(y) = 0.3 T(x), so the two commute; the binary floats
    # written for them do not, by 3.331e-18, which float arithmetic rounds
    # to a zero commutator
    mats = {"x": [[-0.5, -0.5], [-0.6, -0.1]], "y": [[-0.15, -0.15], [-0.18, -0.03]]}
    x, y = ([[Fraction(v) for v in row] for row in mats[n]] for n in "xy")
    comm = [
        [sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert f"{float(max(abs(v) for row in comm for v in row)):.3e}" == "3.331e-18"
    rep = FinDimRep(2, mats)
    (item,) = check_representation(abelian_plane(), rep).items
    assert (item.verdict, item.residual) == (PASS, "3.331e-18")
    assert not check_representation(abelian_plane(), rep, tolerance=0).passed


def test_float_residual_beyond_the_float_range_is_inf():
    mats = {"x": [[1e200, 2e200], [3e200, 1e200]], "y": [[1e200, 0.0], [1e200, 5e199]]}
    (item,) = check_representation(abelian_plane(), FinDimRep(2, mats)).items
    assert (item.verdict, item.residual) == (FAIL, "inf")


def test_float_reps_stay_float_through_tensor_products_and_are_not_saved():
    floats = FinDimRep(2, {n: [[0.5, 0.0], [0.0, 0.5]] for n in "xy"})
    exact = FinDimRep(2, {n: [[F1, F0], [F0, F1]] for n in "xy"})
    assert tensor_product(exact, exact).is_exact
    for rep in (floats, tensor_product(floats, exact), tensor_product(exact, floats)):
        assert not rep.is_exact
        with pytest.raises(MalformedInputError, match="refusing to serialize float entries"):
            rep_to_data(rep)


@pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf")])
def test_check_representation_refuses_a_tolerance_that_decides_nothing(tolerance):
    rep = FinDimRep(3, {k: [[0.0] * 3 for _ in range(3)] for k in "xyz"})
    with pytest.raises(DomainError, match="tolerance must be finite and >= 0"):
        check_representation(so3_composite(), rep, tolerance=tolerance)


def test_missing_matrix_raises():
    comp = so3_composite()
    rep = FinDimRep(2, {"x": [[F0, F0], [F0, F0]], "y": [[F0, F0], [F0, F0]]})
    with pytest.raises(DimensionMismatchError):
        check_representation(comp, rep)


# -- tensor products and commutants -------------------------------------------


def test_tensor_product_dimensions_and_rep_property():
    rep = FinDimRep(2, spin_half_matrices())
    comp = so3_composite()
    tt = tensor_product(rep, rep)
    assert tt.space_dim == 4
    assert check_representation(comp, tt).passed
    assert commutant_dimension(tt) == 2
    zero = FinDimRep(2, {n: [[F0, F0], [F0, F0]] for n in "xyz"})
    zz = tensor_product(zero, zero)
    assert zz.space_dim == 4
    assert all(
        all(not x for row in m.to_rows() for x in row) for m in zz.matrices.values()
    )
    other = FinDimRep(2, {"a": [[F0, F0], [F0, F0]]})
    with pytest.raises(DomainError):
        tensor_product(rep, other)


def dsum(a, b):
    n, m = len(a), len(b)
    pad = G(0)
    return [
        [
            a[i][j]
            if i < n and j < n
            else (b[i - n][j - n] if i >= n and j >= n else pad)
            for j in range(n + m)
        ]
        for i in range(n + m)
    ]


def direct_sums():
    """spin-1/2 + spin-1/2 (commutant dimension 4) and spin-1/2 + zero (5)."""
    rep = FinDimRep(2, spin_half_matrices())
    zero = FinDimRep(2, {n: [[F0, F0], [F0, F0]] for n in "xyz"})
    rows, zero_rows = ({n: r.matrices[n].to_rows() for n in "xyz"} for r in (rep, zero))
    double = FinDimRep(4, {n: dsum(rows[n], rows[n]) for n in "xyz"})
    mixed = FinDimRep(4, {n: dsum(rows[n], zero_rows[n]) for n in "xyz"})
    return double, mixed


def test_direct_sum_commutant_superadditive():
    rep = FinDimRep(2, spin_half_matrices())
    zero = FinDimRep(2, {n: [[F0, F0], [F0, F0]] for n in "xyz"})
    double, mixed = direct_sums()
    assert commutant_dimension(double) == 4
    assert commutant_dimension(mixed) == 5
    assert commutant_dimension(mixed) >= commutant_dimension(rep) + commutant_dimension(zero)


def test_tensor_rep_property_randomized():
    # commuting matrices built as polynomials in one seed matrix
    rng = random.Random(715)
    sub = SubspaceAlgebra("ab", eye_rows(2, [0, 1]), abelian_constants(2))
    comp = FinDimComposite(2, ["u", "v"], [sub])
    for _ in range(5):
        seed = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        sq = [
            [sum(seed[i][k] * seed[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        t1 = FinDimRep(2, {"u": seed, "v": sq})
        t2 = FinDimRep(2, {"u": sq, "v": seed})
        assert check_representation(comp, t1).passed
        assert check_representation(comp, t2).passed
        assert check_representation(comp, tensor_product(t1, t2)).passed


# -- the two routes of commutant_dimension ----------------------------------


def commutant_system(rep):
    """Entry (i, j) of S T - T S, for every T, as a linear form in the
    entries of S (row-major): the exact system of the commutant, summed
    in real and imaginary Fraction parts."""
    m = rep.space_dim
    rows = []
    for t in (t.to_rows() for t in rep.matrices.values()):
        for i in range(m):
            for j in range(m):
                row = [[F0, F0] for _ in range(m * m)]
                for k in range(m):
                    for col, x, sign in ((i * m + k, t[k][j], 1), (k * m + j, t[i][k], -1)):
                        re, im = (x.re, x.im) if isinstance(x, G) else (x, F0)
                        row[col][0] += sign * re
                        row[col][1] += sign * im
                rows.append([G(re, im) for re, im in row])
    return rows


@pytest.fixture
def exact_fallbacks(monkeypatch):
    """Row counts of the exact rank computations commutant_dimension runs."""
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(findim, "rank", spy)
    return calls


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_entries = st.one_of(st.just(F0), _small, st.builds(G, _small, _small))


@st.composite
def exact_reps(draw):
    size = draw(st.integers(1, 4))
    count = draw(st.integers(1, 3))
    return FinDimRep(
        size,
        {
            f"t{k}": [[draw(_entries) for _ in range(size)] for _ in range(size)]
            for k in range(count)
        },
    )


@settings(max_examples=60, deadline=None)
@given(exact_reps())
def test_commutant_dimension_matches_exact_nullspace(rep):
    assert commutant_dimension(rep) == len(nullspace(commutant_system(rep)))


def adjoint_so4_rep():
    # the octahedron algebra acting on itself: real, two ideals, dimension 2
    c = _abstract_constants()
    return FinDimRep(
        6, {v: [[c[k][i][j] for j in range(6)] for k in range(6)] for i, v in enumerate(VERTICES)}
    )


def test_reducible_reps_take_the_exact_route(exact_fallbacks):
    rep = FinDimRep(2, spin_half_matrices())
    double, mixed = direct_sums()
    cases = [(tensor_product(rep, rep), 2), (double, 4), (mixed, 5), (adjoint_so4_rep(), 2)]
    for reducible, dimension in cases:
        before = len(exact_fallbacks)
        assert commutant_dimension(reducible) == dimension
        assert len(exact_fallbacks) == before + 1


@pytest.mark.parametrize("two_j1, two_j2", [(1, 1), (2, 1)])
def test_irreducible_so4_reps_are_decided_mod_p(exact_fallbacks, two_j1, two_j2):
    assert commutant_dimension(so4_composite_rep(two_j1, two_j2)) == 1
    assert exact_fallbacks == []


@settings(max_examples=80, deadline=None)
@given(exact_reps())
def test_cyclic_nullity_is_the_mod_p_nullity_of_the_system(rep):
    p, root = findim._COMMUTANT_PRIME, findim._COMMUTANT_ROOT
    m, matrices = rep.space_dim, rep.matrices.values()
    nullity = findim._cyclic_nullity(matrices, m)
    if nullity is not None:
        assert nullity == m * m - rank_mod_p(findim._commutant_rows(matrices), p, root)


@pytest.fixture
def system_routes(monkeypatch):
    """Row counts of every m*m system commutant_dimension builds."""
    calls, build = [], findim._commutant_rows

    def spy(matrices):
        rows = build(matrices)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(findim, "_commutant_rows", spy)
    return calls


def test_reps_without_a_cyclic_vector_take_the_system_route(system_routes, exact_fallbacks):
    # the zero rep, V + V with dim V = 1, and T_1 = E_01, T_2 = E_00 spin
    # e_0 up to a line only; the last has only the scalars as commutant
    zero = FinDimRep(2, {"x": [[F0, F0], [F0, F0]]})
    twice = FinDimRep(
        2, {"x": [[Fraction(3, 2), F0], [F0, Fraction(3, 2)]], "y": [[G(0, 1), F0], [F0, G(0, 1)]]}
    )
    line = FinDimRep(2, {"x": [[F0, F1], [F0, F0]], "y": [[F1, F0], [F0, F0]]})
    for rep, dimension in ((zero, 4), (twice, 4), (line, 1)):
        assert findim._cyclic_nullity(rep.matrices.values(), 2) is None
        assert commutant_dimension(rep) == dimension
    assert len(system_routes) == 3
    assert exact_fallbacks == system_routes


def block_diagonal(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    rows = [{j: (r * fa, i * fa) for j, (r, i) in row.items()} for row in a.rows]
    rows += [{a.ncols + j: (r * fb, i * fb) for j, (r, i) in row.items()} for row in b.rows]
    return ZMatrix(den, rows, a.ncols + b.ncols)


@pytest.mark.parametrize("first, dimension", [((2, 2), 4), ((3, 3), 2)])
def test_so4_direct_sums_take_one_exact_rank(exact_fallbacks, first, dimension):
    # (2,2) + (2,2) has m = 18 and isomorphic blocks, (3,3) + (2,2) has
    # m = 25 and blocks that are not; e_0 spins up to its block only
    a, b = so4_composite_rep(*first), so4_composite_rep(2, 2)
    rep = FinDimRep(
        a.space_dim + b.space_dim,
        {v: block_diagonal(a.matrices[v], b.matrices[v]) for v in VERTICES},
    )
    assert commutant_dimension(rep) == dimension
    assert len(exact_fallbacks) == 1


@pytest.mark.parametrize("two_j1, two_j2", [(1, 1), (2, 1), (3, 3), (4, 4)])
def test_so4_reps_are_decided_on_the_cyclic_route(system_routes, exact_fallbacks, two_j1, two_j2):
    assert commutant_dimension(so4_composite_rep(two_j1, two_j2)) == 1
    assert system_routes == []
    assert exact_fallbacks == []


def test_commutant_prime_is_a_split_prime_with_its_root():
    p, root = findim._COMMUTANT_PRIME, findim._COMMUTANT_ROOT
    assert p % 4 == 1
    assert all(p % d for d in range(2, math.isqrt(p) + 1))
    assert root * root % p == p - 1


def test_commutant_is_exact_where_the_prime_divides_a_denominator(exact_fallbacks):
    p, root = findim._COMMUTANT_PRIME, findim._COMMUTANT_ROOT
    # conjugating spin-1/2 by diag(1, p) puts p and 1/p off the diagonal
    d = ZMatrix(1, [{0: (1, 0)}, {1: (p, 0)}], 2)
    d_inv = ZMatrix(p, [{0: (p, 0)}, {1: (1, 0)}], 2)
    conjugated = {n: d_inv @ ZMatrix.from_rows(t) @ d for n, t in spin_half_matrices().items()}
    # x and y alone still act irreducibly, but their numerators reduce to
    # strictly lower triangular matrices mod p, whose commutant is 2-dim
    rep = FinDimRep(2, {n: conjugated[n] for n in "xy"})
    assert rep.matrices["x"].to_rows()[1][0] == G(0, Fraction(-1, 2 * p))
    rows = findim._commutant_rows(rep.matrices.values())
    assert 4 - rank_mod_p(rows, p, root) == 2
    assert commutant_dimension(rep) == 1
    assert exact_fallbacks == [len(rows)]
    # z has denominator 2, and with it the reduction keeps the rank
    assert commutant_dimension(FinDimRep(2, conjugated)) == 1
    assert len(exact_fallbacks) == 1


def test_float_reps_are_refused():
    # +-1e-12 noise makes the float commutant system full rank, so a rank
    # read off it would say 0, although the identity always commutes
    rng = random.Random(12)
    noisy = FinDimRep(
        6,
        {
            v: [[float(x) + rng.uniform(-1e-12, 1e-12) for x in row] for row in t.to_rows()]
            for v, t in adjoint_so4_rep().matrices.items()
        },
    )
    for rep in (noisy, FinDimRep(2, {"x": [[0.0, 1.0], [1.0, 0.0]]})):
        with pytest.raises(DomainError, match="exact representation"):
            commutant_dimension(rep)
        with pytest.raises(DomainError, match="exact representation"):
            is_irreducible(rep)


# -- serialization ----------------------------------------------------------


def test_scalar_parse_format():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("1/2-3/4i") == G(Fraction(1, 2), Fraction(-3, 4))
    # a sign after e or E is an exponent's, not the split of the parts
    assert parse_scalar("1e-3") == Fraction(1, 1000)
    assert parse_scalar("1e-3i") == G(0, Fraction(1, 1000))
    assert parse_scalar("2E+1i") == G(0, 20)
    assert parse_scalar("1-1e-3i") == G(1, Fraction(-1, 1000))
    assert parse_scalar("1.5e+1-2E-1i") == G(15, Fraction(-1, 5))
    assert format_scalar(Fraction(-5, 7)) == "-5/7"
    assert format_scalar(G(0, 1)) == "i"
    assert format_scalar(parse_scalar("1/2-3/4i")) == "1/2-3/4i"
    with pytest.raises(MalformedInputError):
        format_scalar(0.5)


def test_composite_data_round_trip():
    s1 = SubspaceAlgebra("rot", eye_rows(4, [0, 1, 2]), so3_constants())
    s2 = SubspaceAlgebra("flat", eye_rows(4, [1, 2, 3]), abelian_constants(3))
    comp = FinDimComposite(4, ["w", "x", "y", "z"], [s1, s2])
    data = composite_to_data(comp)
    assert composite_to_data(composite_from_data(data)) == data
    with pytest.raises(MalformedInputError):
        composite_from_data({"dimension": 3})


def test_rep_data_round_trip():
    rep = FinDimRep(2, spin_half_matrices())
    data = rep_to_data(rep)
    assert rep_to_data(rep_from_data(data)) == data
    assert data["matrices"]["x"][0][1] == "-1/2i"


def test_file_round_trip_bit_exact(tmp_path):
    comp = so3_composite()
    rep = FinDimRep(2, spin_half_matrices())
    cpath = tmp_path / "composite.json"
    rpath = tmp_path / "rep.json"
    save_composite(comp, str(cpath))
    save_rep(rep, str(rpath))
    first_c = cpath.read_bytes()
    first_r = rpath.read_bytes()
    save_composite(load_composite(str(cpath)), str(cpath))
    save_rep(load_rep(str(rpath)), str(rpath))
    assert cpath.read_bytes() == first_c
    assert rpath.read_bytes() == first_r
    with pytest.raises(MalformedInputError):
        load_composite(str(tmp_path / "missing.json"))
