"""Octahedron composite, so(3) irreducibles, and the so(4) extraction."""

import json
import random
from copy import deepcopy
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecomposite.errors import DomainError
from liecomposite.findim import (
    FinDimRep,
    check_compatibility,
    check_connected,
    check_dense,
    check_representation,
    commutant_dimension,
    intersect_subspaces,
    load_composite,
    load_rep,
    tensor_product,
)
from liecomposite.linalg import (
    GaussianRational,
    ZMatrix,
    mat_commutator,
    mat_sub,
    mat_trace,
    rank,
    rref,
)
from liecomposite.octa import (
    FACES,
    OPPOSITE_PAIRS,
    VERTEX_TABLE,
    VERTICES,
    So4Extraction,
    _abstract_constants,
    build_octahedron,
    extract_so4,
    killing_certificate,
    so3_irrep,
    so4_composite_rep,
    so4_decomposition,
)

G = GaussianRational


# -- the composite ----------------------------------------------------------


def test_octahedron_axioms():
    octa = build_octahedron()
    assert octa.dimension == 6
    assert check_compatibility(octa).passed
    assert check_dense(octa)
    assert check_connected(octa)


def test_octahedron_is_built_once():
    assert build_octahedron() is build_octahedron()


def test_faces_cover_the_twelve_edges_once():
    # the three opposite pairs split the six vertices, each other vertex
    # pair is an edge of exactly one face, and each vertex lies in two faces
    opposite = {frozenset(pair) for pair in OPPOSITE_PAIRS}
    assert len(opposite) == 3 and frozenset().union(*opposite) == set(VERTICES)
    edges = [frozenset((face[i], face[(i + 1) % 3])) for face in FACES for i in range(3)]
    assert len(set(edges)) == 12 and not opposite & set(edges)
    assert all(sum(v in face for face in FACES) == 2 for v in VERTICES)


def test_face_pairs_overlap_in_one_dimension():
    octa = build_octahedron()
    for i in range(4):
        for j in range(i + 1, 4):
            assert len(intersect_subspaces(octa, i, j)) == 1


# -- so(3) irreducibles -----------------------------------------------------


@pytest.mark.parametrize("two_j", [0, 1, 2, 3])
def test_so3_irrep_brackets(two_j):
    x, y, z = so3_irrep(two_j)
    assert len(x.rows) == x.ncols == two_j + 1
    for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
        assert not mat_sub(mat_commutator(p, q), r)
    for m in (x, y, z):
        assert not mat_trace(m)


def test_so3_irrep_size_two_matches_known_matrices():
    x, y, z = (m.to_rows() for m in so3_irrep(1))
    h = Fraction(1, 2)
    assert x == [[G(0), G(h)], [G(-h), G(0)]]
    assert y == [[G(0), G(0, -h)], [G(0, -h), G(0)]]
    assert z == [[G(0, -h), G(0)], [G(0), G(0, h)]]


def test_so3_irrep_trivial_and_invalid():
    x, y, z = (m.to_rows() for m in so3_irrep(0))
    assert x == [[G(0)]] and y == [[G(0)]] and z == [[G(0)]]
    with pytest.raises(DomainError):
        so3_irrep(-1)


@pytest.mark.parametrize("two_j", [1, 2, 3])
def test_so3_irrep_is_irreducible(two_j):
    x, y, z = so3_irrep(two_j)
    rep = FinDimRep(two_j + 1, {"x": x, "y": y, "z": z})
    assert commutant_dimension(rep) == 1


# -- vertex table and its derivation ----------------------------------------
#
# An independent derivation of VERTEX_TABLE: each entry is read as a pair of
# signed unit 3-vectors, one per tensor leg, and the face brackets become
# cross products.


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _vertex_vectors(option):
    """The two tensor legs of a table entry as signed unit 3-vectors."""
    s1, i1, s2, i2 = option
    a = [0, 0, 0]
    b = [0, 0, 0]
    a[i1] = s1
    b[i2] = s2
    return tuple(a), tuple(b)


def _verify_assignment(assignment) -> bool:
    """Abstract check of the table against all faces and opposite pairs:
    both tensor legs must satisfy the cross-product brackets."""
    vec = {vertex: _vertex_vectors(option) for vertex, option in assignment.items()}
    for p, q, r in FACES:
        for left, mid, right in ((p, q, r), (q, r, p), (r, p, q)):
            if _cross(vec[left][0], vec[mid][0]) != vec[right][0]:
                return False
            if _cross(vec[left][1], vec[mid][1]) != vec[right][1]:
                return False
    for p, q in OPPOSITE_PAIRS:
        if any(_cross(vec[p][leg], vec[q][leg]) != (0, 0, 0) for leg in (0, 1)):
            return False
    return True


def _search_vertex_assignment():
    """Derive the table by finite search: choose A, B, D freely over
    signed generator pairs; C, E, F are forced by the faces.  The six
    operators must be linearly independent (the constraints alone admit
    degenerate solutions whose image is a diagonal so(3))."""
    options = [
        (s1, i1, s2, i2)
        for s1 in (1, -1)
        for i1 in range(3)
        for s2 in (1, -1)
        for i2 in range(3)
    ]

    def forced(u, v):
        a = _cross(u[0], v[0])
        b = _cross(u[1], v[1])
        nz_a = [i for i, c in enumerate(a) if c]
        nz_b = [i for i, c in enumerate(b) if c]
        if len(nz_a) != 1 or len(nz_b) != 1:
            return None
        if abs(a[nz_a[0]]) != 1 or abs(b[nz_b[0]]) != 1:
            return None
        return (a[nz_a[0]], nz_a[0], b[nz_b[0]], nz_b[0])

    for opt_a, opt_b, opt_d in product(options, repeat=3):
        va, vb, vd = _vertex_vectors(opt_a), _vertex_vectors(opt_b), _vertex_vectors(opt_d)
        opt_c = forced(va, vb)  # face (A, B, C)
        if opt_c is None:
            continue
        opt_e = forced(va, vd)  # face (A, D, E)
        if opt_e is None:
            continue
        opt_f = forced(_vertex_vectors(opt_c), vd)  # face (C, D, F)
        if opt_f is None:
            continue
        candidate = {
            "A": opt_a,
            "B": opt_b,
            "C": opt_c,
            "D": opt_d,
            "E": opt_e,
            "F": opt_f,
        }
        if not _verify_assignment(candidate):
            continue
        rows = [
            [Fraction(x) for leg in _vertex_vectors(candidate[v]) for x in leg]
            for v in VERTICES
        ]
        if rank(rows) == 6:
            return candidate
    raise AssertionError("no sign/index table satisfies the four faces")


def test_shipped_vertex_table_is_valid():
    assert _verify_assignment(VERTEX_TABLE)


def test_search_rederives_the_shipped_table():
    assert _search_vertex_assignment() == VERTEX_TABLE


def test_tampered_table_fails_verification():
    broken = dict(VERTEX_TABLE)
    broken["F"] = (1, 0, 1, 0)  # same operator as A: opposite pair not central
    assert not _verify_assignment(broken)


# -- composite representations ----------------------------------------------

ACCEPTANCE_PAIRS = [(0, 1), (1, 0), (1, 1), (2, 0)]


@pytest.mark.parametrize("two_j1,two_j2", ACCEPTANCE_PAIRS)
def test_composite_rep_is_exact_representation(two_j1, two_j2):
    octa = build_octahedron()
    rep = so4_composite_rep(two_j1, two_j2)
    assert rep.space_dim == (two_j1 + 1) * (two_j2 + 1)
    assert rep.is_exact
    report = check_representation(octa, rep)
    assert report.passed
    assert dict(report.parameters)["arithmetic"] == "exact"


def test_trivial_composite_rep_is_zero():
    rep = so4_composite_rep(0, 0)
    assert all(rep.matrix(v).to_rows() == [[G(0)]] for v in VERTICES)


@given(two_j1=st.integers(0, 2), two_j2=st.integers(0, 2))
@settings(max_examples=9, deadline=None)
def test_composite_rep_opposite_pairs_commute(two_j1, two_j2):
    rep = so4_composite_rep(two_j1, two_j2)
    for p, q in OPPOSITE_PAIRS:
        assert not mat_commutator(rep.matrices[p], rep.matrices[q])


def _pulled_back(two_j: int, ideal: int) -> FinDimRep:
    """so(3)'s irreducible of size two_j + 1 as a composite rep, pulled back
    along the first (0) or second (1) ideal by VERTEX_TABLE."""
    t = so3_irrep(two_j)
    return FinDimRep(
        two_j + 1,
        {v: t[row[2 * ideal + 1]].scale(row[2 * ideal]) for v, row in VERTEX_TABLE.items()},
    )


@pytest.mark.parametrize("two_j", range(5))
def test_pulled_back_factors_and_their_product_are_representations(two_j):
    octa = build_octahedron()
    first, second = _pulled_back(two_j, 0), _pulled_back(4 - two_j, 1)
    product = tensor_product(first, second)
    for rep in (first, _pulled_back(two_j, 1), product):
        assert check_representation(octa, rep).passed
    rep = so4_composite_rep(two_j, 4 - two_j)
    assert {v: (m.den, m.rows) for v, m in product.matrices.items()} == {
        v: (m.den, m.rows) for v, m in rep.matrices.items()
    }


def test_golden_inputs_are_the_octahedron_and_so4_1_1():
    # composite-check's golden cases read these two files
    golden = Path(__file__).resolve().parent / "golden"
    octa, stored = build_octahedron(), load_composite(str(golden / "octa.json"))
    assert stored.basis_names == octa.basis_names
    assert [(s.name, s.basis, s.structure_constants) for s in stored.subspaces] == [
        (s.name, s.basis, s.structure_constants) for s in octa.subspaces
    ]
    rep, stored = so4_composite_rep(1, 1), load_rep(str(golden / "so4_1_1.json"))
    assert (stored.space_dim, stored.is_exact) == (rep.space_dim, True)
    assert {v: (m.den, m.rows) for v, m in stored.matrices.items()} == {
        v: (m.den, m.rows) for v, m in rep.matrices.items()
    }


# -- extraction -------------------------------------------------------------


def test_extraction_reports_vanishing_shifts():
    ext = extract_so4(so4_composite_rep(1, 1))
    notes = [item.note for item in ext.verdict.items if item.note]
    assert any("all shifts vanish" in n for n in notes)


def test_extraction_zero_rep_degenerate_pass():
    zero = {v: [[Fraction(0)]] for v in VERTICES}
    # a matrix under a name beyond the six vertices takes no part
    for mats in (zero, {**zero, "G": [[Fraction(1)]]}):
        ext = extract_so4(FinDimRep(1, mats))
        assert ext.verdict.passed
        notes = [item.note for item in ext.verdict.items if item.note]
        assert any("degenerate zero representation" in n for n in notes)


def test_extraction_forms_each_commutator_once(monkeypatch):
    # the precondition forms the twelve face commutators inside findim; the
    # extraction forms the three opposite-pair commutators K, which are zero
    # here, so no [K, T(V)], and no difference
    calls = []
    for name, real in (
        ("mat_commutator", mat_commutator),
        ("mat_sub", mat_sub),
        ("check_representation", check_representation),
    ):
        def spy(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(f"liecomposite.octa.{name}", spy, raising=False)
    rep = so4_composite_rep(2, 1)
    before = {name: (m.den, deepcopy(m.rows)) for name, m in rep.matrices.items()}
    assert check_representation(build_octahedron(), rep).passed
    assert extract_so4(rep).verdict.passed
    assert sorted(calls) == ["check_representation"] + ["mat_commutator"] * 3
    # ambient_matrix hands out the rep's own matrices for unit coefficients
    assert {name: (m.den, m.rows) for name, m in rep.matrices.items()} == before


def test_extraction_refuses_broken_precondition():
    rep = so4_composite_rep(1, 1)
    mats = dict(rep.matrices)
    mats["A"] = mats["A"].add(ZMatrix.identity(4).scale(2))
    ext = extract_so4(FinDimRep(4, mats))
    assert not ext.verdict.passed
    assert len(ext.verdict.items) == 1
    assert ext.verdict.items[0].subject.startswith("precondition")


def test_extraction_tensor_product_centrality():
    rep = tensor_product(so4_composite_rep(1, 0), so4_composite_rep(0, 1))
    assert check_representation(build_octahedron(), rep).passed
    ext = extract_so4(rep)
    central_items = [i for i in ext.verdict.items if "is central" in i.subject]
    assert len(central_items) == 3
    assert all(i.verdict == "pass" for i in central_items)


def adjoint_rep(as_float=False):
    # the abstract algebra acting on itself; reducible (two ideals) and real
    c = _abstract_constants()
    mats = {}
    for i, v in enumerate(VERTICES):
        m = [[c[k][i][j] for j in range(6)] for k in range(6)]
        if as_float:
            m = [[float(x) for x in row] for row in m]
        mats[v] = m
    return FinDimRep(6, mats)


def test_extraction_reducible_rep_skips_scalar_step():
    ext = extract_so4(adjoint_rep())
    assert ext.verdict.passed
    assert commutant_dimension(adjoint_rep()) == 2
    skipped = [
        i for i in ext.verdict.items if "scalar check" in i.subject
    ]
    assert len(skipped) == 3 and all(i.verdict == "info" for i in skipped)


def test_extraction_refuses_a_float_rep():
    # the face brackets still hold within the default tolerance
    rep = adjoint_rep(as_float=True)
    assert check_representation(build_octahedron(), rep).passed
    with pytest.raises(DomainError, match="needs an exact representation"):
        extract_so4(rep)


def extraction_data(ext) -> dict:
    """What tests/golden/extractions.json records of one extraction."""
    return {"pass": ext.verdict.passed, "details": ext.verdict.to_dict()}


def test_extraction_serialization_shape_and_determinism():
    ext = extract_so4(so4_composite_rep(1, 1))
    assert So4Extraction._fields == ("verdict", "precondition")
    data = extraction_data(ext)
    assert data["pass"] is True
    subjects = [item["subject"] for item in data["details"]["items"]]
    for p, q in OPPOSITE_PAIRS:
        assert f"central commutator ({p},{q}) is the scalar 0" in subjects
    text1 = json.dumps(data, indent=2, sort_keys=True)
    text2 = json.dumps(
        extraction_data(extract_so4(so4_composite_rep(1, 1))), indent=2, sort_keys=True
    )
    assert text1 == text2


# -- the Casimir decomposition ------------------------------------------------


def tensor_of(*factors):
    """The tensor product of so4_composite_rep(t1, t2) over the (t1, t2) factors."""
    rep = so4_composite_rep(*factors[0])
    for factor in factors[1:]:
        rep = tensor_product(rep, so4_composite_rep(*factor))
    return rep


# name -> (rep, {(t1, t2): multiplicity}), by the Clebsch-Gordan rule on each
# so(3) factor
DECOMPOSITIONS = {
    "(2,1)": (lambda: so4_composite_rep(2, 1), {(2, 1): 1}),
    "adjoint": (adjoint_rep, {(2, 0): 1, (0, 2): 1}),
    "zero-2": (lambda: FinDimRep(2, {v: [[0, 0], [0, 0]] for v in VERTICES}), {(0, 0): 2}),
    "(2,0)x(2,0)": (lambda: tensor_of((2, 0), (2, 0)), {(0, 0): 1, (2, 0): 1, (4, 0): 1}),
    "(1,0)^3": (lambda: tensor_of((1, 0), (1, 0), (1, 0)), {(1, 0): 2, (3, 0): 1}),
    "(1,1)x(1,1)": (
        lambda: tensor_of((1, 1), (1, 1)),
        {(0, 0): 1, (0, 2): 1, (2, 0): 1, (2, 2): 1},
    ),
    "(2,1)x(1,1)": (
        lambda: tensor_of((2, 1), (1, 1)),
        {(1, 0): 1, (1, 2): 1, (3, 0): 1, (3, 2): 1},
    ),
    "(1,1)^3": (
        lambda: tensor_of((1, 1), (1, 1), (1, 1)),
        {(1, 1): 4, (1, 3): 2, (3, 1): 2, (3, 3): 1},
    ),
}


def _dimension(decomposition):
    return sum(k * (t1 + 1) * (t2 + 1) for (t1, t2), k in decomposition.items())


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_so4_decomposition_multiplicities(name):
    build, expected = DECOMPOSITIONS[name]
    rep = build()
    ext = extract_so4(rep)
    assert ext.verdict.passed
    assert so4_decomposition(rep) == expected
    assert rep.space_dim == _dimension(expected)


@pytest.mark.parametrize(
    "name", sorted(n for n, (_, expected) in DECOMPOSITIONS.items() if _dimension(expected) <= 27)
)
def test_squared_multiplicities_are_the_commutant_dimension(name):
    # Schur: the commutant of sum k_i V_i, with V_i distinct irreducibles,
    # is a product of k_i x k_i matrix algebras
    build, expected = DECOMPOSITIONS[name]
    assert commutant_dimension(build()) == sum(k * k for k in expected.values())


def test_so4_decomposition_of_a_conjugated_rep():
    rep = recorded_cases()["exact-adjoint"]
    assert so4_decomposition(rep) == {(0, 2): 1, (2, 0): 1}


def test_so4_decomposition_needs_diagonalizable_casimirs():
    # S(A) a nilpotent Jordan block of size 3: both Casimirs are J^2 != 0,
    # whose kernels reach dimension 2 only
    jordan = [[Fraction(int(j == i + 1)) for j in range(3)] for i in range(3)]
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    rep = FinDimRep(3, {v: jordan if v == "A" else zero for v in VERTICES})
    assert so4_decomposition(rep) is None


def test_so4_decomposition_needs_whole_irreducibles():
    # S(A) = S(B) = S(C) = i on a line: both Casimirs are the scalar -3 of
    # t = 1, but the 1-dimensional space holds no (1, 1) part of dimension 4
    i, zero = [[G(0, 1)]], [[G(0)]]
    rep = FinDimRep(1, {v: i if v in "ABC" else zero for v in VERTICES})
    assert so4_decomposition(rep) is None


def commutant_spy(monkeypatch):
    """Record every rep extract_so4 passes to commutant_dimension."""
    calls = []

    def spy(rep):
        calls.append(rep)
        return commutant_dimension(rep)

    monkeypatch.setattr("liecomposite.octa.commutant_dimension", spy)
    return calls


@pytest.mark.parametrize("name", ["(2,1)", "adjoint", "(2,1)x(1,1)"])
def test_extraction_of_so4_reps_takes_the_casimir_route(monkeypatch, name):
    calls = commutant_spy(monkeypatch)
    assert extract_so4(DECOMPOSITIONS[name][0]()).verdict.passed
    assert calls == []


@pytest.mark.parametrize("name", ["(2,1)", "adjoint", "(1,1)x(1,1)"])
def test_extraction_without_a_decomposition_falls_back_to_the_commutant(monkeypatch, name):
    rep = DECOMPOSITIONS[name][0]()
    casimir = extraction_data(extract_so4(rep))
    calls = commutant_spy(monkeypatch)
    monkeypatch.setattr("liecomposite.octa.so4_decomposition", lambda rep: None)
    assert extraction_data(extract_so4(rep)) == casimir
    assert calls == [rep]


# -- recorded extractions ------------------------------------------------------
#
# extraction_data(extract_so4(...)) of conjugated reps, recorded in
# tests/golden/extractions.json; regenerate after an intended report change
# with ``PYTHONPATH=src python3 tests/test_octa.py``.

EXTRACTIONS = Path(__file__).resolve().parent / "golden" / "extractions.json"


def vector_rep():
    """The vector representation of so(4) on R^4: each vertex acts as an
    elementary antisymmetric matrix e_a e_b^T - e_b e_a^T.  It is the real
    form of so4_composite_rep(1, 1)."""
    mats = {}
    for v, (a, b) in zip(VERTICES, [(1, 3), (0, 3), (0, 1), (1, 2), (2, 3), (0, 2)]):
        m = [[Fraction(0)] * 4 for _ in range(4)]
        m[a][b], m[b][a] = Fraction(1), Fraction(-1)
        mats[v] = m
    return FinDimRep(4, mats)


def random_conjugator(rng, size, gaussian):
    """A random invertible matrix with small rational (or Gaussian) entries,
    and its inverse."""
    def entry():
        x = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        return G(x, Fraction(rng.randint(-2, 2), rng.choice([1, 2]))) if gaussian else x

    while True:
        s = [[entry() for _ in range(size)] for _ in range(size)]
        eye = ZMatrix.identity(size).to_rows()
        reduced, pivots = rref([row + eye_row for row, eye_row in zip(s, eye)])
        if pivots == list(range(size)):
            return s, [row[size:] for row in reduced]


def conjugated(rep, rng, gaussian=False):
    s, s_inv = (ZMatrix.from_rows(m) for m in random_conjugator(rng, rep.space_dim, gaussian))
    return FinDimRep(
        rep.space_dim, {v: s_inv @ t @ s for v, t in rep.matrices.items()}
    )


def recorded_cases():
    """Name -> rep: six rationally conjugated exact reps."""
    exact_bases = [
        ("so4-1-0", so4_composite_rep(1, 0), True),
        ("so4-0-1", so4_composite_rep(0, 1), False),
        ("so4-1-1", so4_composite_rep(1, 1), True),
        ("so4-2-0", so4_composite_rep(2, 0), True),
        ("vector", vector_rep(), True),
        ("adjoint", adjoint_rep(), False),
    ]
    return {
        f"exact-{name}": conjugated(base, random.Random(100 + seed), gaussian)
        for seed, (name, base, gaussian) in enumerate(exact_bases)
    }


def test_recorded_extractions_cover_every_case():
    cases = recorded_cases()
    assert sorted(cases) == sorted(json.loads(EXTRACTIONS.read_text(encoding="utf-8")))
    assert len(cases) == 6


@pytest.mark.parametrize("name", sorted(recorded_cases()))
def test_extraction_matches_recorded_data(name):
    expected = json.loads(EXTRACTIONS.read_text(encoding="utf-8"))[name]
    assert extraction_data(extract_so4(recorded_cases()[name])) == expected


# the decompositions of the recorded reps, those of their unconjugated bases
RECORDED_DECOMPOSITIONS = {
    "exact-so4-1-0": {(1, 0): 1},
    "exact-so4-0-1": {(0, 1): 1},
    "exact-so4-1-1": {(1, 1): 1},
    "exact-so4-2-0": {(2, 0): 1},
    "exact-vector": {(1, 1): 1},
    "exact-adjoint": {(0, 2): 1, (2, 0): 1},
}

# name -> (rep, {(t1, t2): multiplicity}) of every exact so(4) rep above
ROUND_TRIPS = {
    **{
        f"{j1}-{j2}": (lambda j1=j1, j2=j2: so4_composite_rep(j1, j2), {(j1, j2): 1})
        for j1, j2 in ACCEPTANCE_PAIRS
    },
    **DECOMPOSITIONS,
    **{
        name: (lambda name=name: recorded_cases()[name], expected)
        for name, expected in RECORDED_DECOMPOSITIONS.items()
    },
}


@pytest.mark.parametrize("name", list(ROUND_TRIPS))
def test_extraction_round_trip(name):
    # so(3) is perfect, so each vertex of a rep that passes the face
    # relations is a commutator: its trace, the shift extract_so4 does
    # not apply, is 0
    build, expected = ROUND_TRIPS[name]
    rep = build()
    ext = extract_so4(rep)
    assert ext.verdict.passed
    assert all(not mat_trace(rep.matrices[v]) for v in VERTICES)
    subjects = [item.subject for item in ext.verdict.items]
    assert any("is central" in s for s in subjects)
    assert any("face (ABC)" in s for s in subjects)
    assert any("shifted opposite pair" in s for s in subjects)
    # with all shifts zero the unshifted family is the so(4) rep
    assert so4_decomposition(rep) == expected


# -- static certificate -----------------------------------------------------


def test_killing_certificate_passes():
    report = killing_certificate()
    assert report.passed
    notes = {item.subject: item.note for item in report.items}
    assert notes["Killing form nondegenerate"] == "rank 6"
    assert notes["Killing form negative definite (compact type)"] == "inertia (0, 6, 0)"
    subjects = [item.subject for item in report.items]
    assert "the two ideals commute" in subjects
    assert "ideals are Killing-orthogonal" in subjects


def _record_extractions():
    data = {name: extraction_data(extract_so4(rep)) for name, rep in recorded_cases().items()}
    with open(EXTRACTIONS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _record_extractions()
