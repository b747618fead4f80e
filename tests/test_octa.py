"""Octahedron composite, so(3) irreducibles, and the so(4) extraction."""

import json
import random
from fractions import Fraction
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
    tensor_product,
)
from liecomposite.linalg import (
    GaussianRational,
    ZMatrix,
    mat_commutator,
    mat_identity,
    mat_sub,
    mat_trace,
    rref,
)
from liecomposite.octa import (
    FACES,
    OPPOSITE_PAIRS,
    VERTEX_TABLE,
    VERTICES,
    _abstract_constants,
    _search_vertex_assignment,
    _verify_assignment,
    build_octahedron,
    extract_so4,
    killing_certificate,
    so3_irrep,
    so4_composite_rep,
)

G = GaussianRational


# -- the composite ----------------------------------------------------------


def test_octahedron_axioms():
    octa = build_octahedron()
    assert octa.dimension == 6
    assert check_compatibility(octa).passed
    assert check_dense(octa)
    assert check_connected(octa)


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
    assert all(rep.matrix(v) == [[G(0)]] for v in VERTICES)


@given(two_j1=st.integers(0, 2), two_j2=st.integers(0, 2))
@settings(max_examples=9, deadline=None)
def test_composite_rep_opposite_pairs_commute(two_j1, two_j2):
    rep = so4_composite_rep(two_j1, two_j2)
    for p, q in OPPOSITE_PAIRS:
        assert not mat_commutator(rep.exact_matrices[p], rep.exact_matrices[q])


# -- extraction -------------------------------------------------------------


@pytest.mark.parametrize("two_j1,two_j2", ACCEPTANCE_PAIRS)
def test_extraction_round_trip(two_j1, two_j2):
    ext = extract_so4(so4_composite_rep(two_j1, two_j2))
    assert ext.passed
    assert all(not x for x in ext.lambdas.values())
    assert all(not x for x in ext.central_values.values())
    subjects = [item.subject for item in ext.verdict.items]
    assert any("is central" in s for s in subjects)
    assert any("face (ABC)" in s for s in subjects)
    assert any("shifted opposite pair" in s for s in subjects)
    # with all shifts zero the shifted family is the original one
    for v in VERTICES:
        assert ext.shifted.matrix(v) == so4_composite_rep(two_j1, two_j2).matrix(v)


def test_extraction_reports_vanishing_shifts():
    ext = extract_so4(so4_composite_rep(1, 1))
    notes = [item.note for item in ext.verdict.items if item.note]
    assert any("all shifts vanish" in n for n in notes)


def test_extraction_zero_rep_degenerate_pass():
    rep = FinDimRep(1, {v: [[Fraction(0)]] for v in VERTICES})
    ext = extract_so4(rep)
    assert ext.passed
    notes = [item.note for item in ext.verdict.items if item.note]
    assert any("degenerate zero representation" in n for n in notes)


def test_extraction_refuses_broken_precondition():
    rep = so4_composite_rep(1, 1)
    mats = dict(rep.exact_matrices)
    mats["A"] = mats["A"].add(ZMatrix.identity(4).scale(2))
    ext = extract_so4(FinDimRep(4, mats))
    assert not ext.passed
    assert ext.lambdas == {} and ext.central_values == {}
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
    assert ext.passed
    assert commutant_dimension(adjoint_rep()) == 2
    skipped = [
        i for i in ext.verdict.items if "scalar check" in i.subject
    ]
    assert len(skipped) == 3 and all(i.verdict == "info" for i in skipped)
    # the candidate scalars are still recorded, and vanish
    assert all(not x for x in ext.central_values.values())


def test_extraction_refuses_a_float_rep():
    # the face brackets still hold within the default tolerance
    rep = adjoint_rep(as_float=True)
    assert check_representation(build_octahedron(), rep).passed
    with pytest.raises(DomainError, match="needs an exact representation"):
        extract_so4(rep)


def test_extraction_serialization_shape_and_determinism():
    ext = extract_so4(so4_composite_rep(1, 1))
    data = ext.to_data()
    assert sorted(data) == ["central_values", "details", "lambdas", "pass"]
    assert data["pass"] is True
    assert data["lambdas"] == {v: "0" for v in VERTICES}
    assert data["central_values"] == {f"{p},{q}": "0" for p, q in OPPOSITE_PAIRS}
    text1 = json.dumps(data, indent=2, sort_keys=True)
    text2 = json.dumps(extract_so4(so4_composite_rep(1, 1)).to_data(), indent=2, sort_keys=True)
    assert text1 == text2


# -- recorded extractions ------------------------------------------------------
#
# extract_so4(...).to_data() of conjugated reps, recorded in
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
        eye = mat_identity(size)
        reduced, pivots = rref([row + eye_row for row, eye_row in zip(s, eye)])
        if pivots == list(range(size)):
            return s, [row[size:] for row in reduced]


def conjugated(rep, rng, gaussian=False):
    s, s_inv = (ZMatrix.from_rows(m) for m in random_conjugator(rng, rep.space_dim, gaussian))
    return FinDimRep(
        rep.space_dim, {v: s_inv @ t @ s for v, t in rep.exact_matrices.items()}
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
    assert extract_so4(recorded_cases()[name]).to_data() == expected


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
    data = {name: extract_so4(rep).to_data() for name, rep in recorded_cases().items()}
    with open(EXTRACTIONS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _record_extractions()
