"""The octahedron composite, end to end.

Six vertex labels span a 6-dimensional space; the four alternating faces
each carry a cyclic so(3) bracket ([P,Q] = R, [Q,R] = P, [R,P] = Q), and
every edge of the octahedron lies in exactly one chosen face, so the
brackets never conflict.  Composite representations are assembled from a
pair of so(3) irreducibles: each vertex acts as a signed combination
P (x) 1 +/- 1 (x) Q, with the sign/index table fixed once (a finite
search over the face constraints re-derives it).  From any composite
representation, extract_so4 verifies the central opposite-pair
commutators, removes the trace parts, and certifies the full so(4)
bracket table plus semisimplicity evidence.

Scalars: so(3) triples in the compact convention have no real rational
realization in even dimensions, so matrices take entries in the Gaussian
rationals (exact a + bi) in a rational-scaled weight basis; the composite
structure constants themselves stay rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DomainError, MalformedInputError, SearchFailureError
from .findim import (
    FinDimComposite,
    FinDimRep,
    SubspaceAlgebra,
    _entry_abs,
    _max_abs,
    check_representation,
    commutant_dimension,
    format_scalar,
)
from .linalg import (
    GaussianRational,
    column_span_contains,
    independent_columns,
    kron,
    mat_commutator,
    mat_identity,
    mat_mul,
    mat_trace,
    rank,
    symmetric_signature,
)
from .report import FAIL, INFO, PASS, CheckItem, CheckReport

VERTICES = ("A", "B", "C", "D", "E", "F")
FACES = (("A", "B", "C"), ("A", "D", "E"), ("C", "D", "F"), ("E", "B", "F"))
OPPOSITE_PAIRS = (("A", "F"), ("B", "D"), ("C", "E"))


@dataclass(frozen=True)
class OctahedronLabels:
    """Vertex labels, oriented faces, and opposite pairs, with the
    edge-coverage invariants checked at construction."""

    vertices: tuple = VERTICES
    faces: tuple = FACES
    opposite_pairs: tuple = OPPOSITE_PAIRS

    def __post_init__(self):
        if len(set(self.vertices)) != 6:
            raise MalformedInputError("need six distinct vertices")
        opposite = {frozenset(p) for p in self.opposite_pairs}
        if len(opposite) != 3 or any(len(p) != 2 for p in opposite):
            raise MalformedInputError("need three disjoint opposite pairs")
        edges = [
            frozenset((face[i], face[(i + 1) % 3]))
            for face in self.faces
            for i in range(3)
        ]
        if len(self.faces) != 4 or len(set(edges)) != 12:
            raise MalformedInputError("faces must cover twelve distinct edges")
        if any(edge in opposite for edge in edges):
            raise MalformedInputError("a face uses an opposite pair as an edge")
        for v in self.vertices:
            if sum(v in face for face in self.faces) != 2:
                raise MalformedInputError(f"vertex {v} must lie in exactly two faces")
        for i in range(4):
            for j in range(i + 1, 4):
                if len(set(self.faces[i]) & set(self.faces[j])) != 1:
                    raise MalformedInputError(
                        "chosen faces must pairwise share exactly one vertex"
                    )

    @classmethod
    def standard(cls) -> "OctahedronLabels":
        return cls()


def _cyclic_so3_constants():
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for k, i, j in [(2, 0, 1), (0, 1, 2), (1, 2, 0)]:
        c[k][i][j] = Fraction(1)
        c[k][j][i] = Fraction(-1)
    return c


def build_octahedron() -> FinDimComposite:
    """The 6-dimensional composite with one so(3) per chosen face."""
    labels = OctahedronLabels.standard()
    index = {v: i for i, v in enumerate(labels.vertices)}
    subspaces = []
    for face in labels.faces:
        basis = []
        for v in face:
            row = [Fraction(0)] * 6
            row[index[v]] = Fraction(1)
            basis.append(row)
        subspaces.append(
            SubspaceAlgebra("".join(face), basis, _cyclic_so3_constants())
        )
    return FinDimComposite(6, list(labels.vertices), subspaces)


# -- so(3) irreducibles over the Gaussian rationals --------------------------


def so3_irrep(two_j: int):
    """Triple (X, Y, Z) with [X,Y] = Z, [Y,Z] = X, [Z,X] = Y, exactly.

    Size (two_j + 1) in the scaled weight basis: with ladder matrices
    E v_r = r(two_j - r + 1) v_{r-1}, F v_r = v_{r+1}, H v_r =
    (two_j - 2r) v_r, the triple is X = (E - F)/2, Y = -i(E + F)/2,
    Z = -iH/2.  Entries are exact Gaussian rationals.
    """
    if two_j < 0:
        raise DomainError("two_j must be a nonnegative integer")
    size = two_j + 1
    zero = GaussianRational(0)
    half = Fraction(1, 2)

    def blank():
        return [[zero for _ in range(size)] for _ in range(size)]

    x, y, z = blank(), blank(), blank()
    for r in range(size):
        if r > 0:
            up = Fraction(r * (two_j - r + 1))  # E: v_r -> up * v_{r-1}
            x[r - 1][r] = x[r - 1][r] + GaussianRational(up * half)
            y[r - 1][r] = y[r - 1][r] + GaussianRational(0, -up * half)
        if r < two_j:
            x[r + 1][r] = x[r + 1][r] + GaussianRational(-half)  # F: v_r -> v_{r+1}
            y[r + 1][r] = y[r + 1][r] + GaussianRational(0, -half)
        z[r][r] = GaussianRational(0, -(two_j - 2 * r) * half)
    return x, y, z


# vertex -> (sign1, index1, sign2, index2): the operator is
# sign1 * T1[index1] (x) 1 + sign2 * 1 (x) T2[index2]
VERTEX_TABLE = {
    "A": (1, 0, 1, 0),
    "B": (1, 1, 1, 1),
    "C": (1, 2, 1, 2),
    "D": (1, 1, -1, 1),
    "E": (1, 2, -1, 2),
    "F": (-1, 0, 1, 0),
}


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
    """Re-derive the table by finite search: choose A, B, D freely over
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
    raise SearchFailureError("no sign/index table satisfies the four faces")


def _rep_from_assignment(two_j1: int, two_j2: int, assignment) -> FinDimRep:
    t1 = so3_irrep(two_j1)
    t2 = so3_irrep(two_j2)
    eye1 = mat_identity(two_j1 + 1)
    eye2 = mat_identity(two_j2 + 1)
    matrices = {}
    for vertex, (s1, i1, s2, i2) in assignment.items():
        left = kron(t1[i1], eye2)
        right = kron(eye1, t2[i2])
        matrices[vertex] = [
            [s1 * a + s2 * b for a, b in zip(r1, r2)]
            for r1, r2 in zip(left, right)
        ]
    return FinDimRep((two_j1 + 1) * (two_j2 + 1), matrices)


def so4_composite_rep(two_j1: int, two_j2: int) -> FinDimRep:
    """Composite representation on the tensor product of two so(3)
    irreducibles, using the fixed vertex table."""
    if not _verify_assignment(VERTEX_TABLE):
        raise SearchFailureError("the shipped vertex table fails its face checks")
    return _rep_from_assignment(two_j1, two_j2, VERTEX_TABLE)


# -- the extraction ---------------------------------------------------------


def _minus_scalar(matrix, scalar):
    """matrix - scalar * identity, entry by entry."""
    eye = mat_identity(len(matrix))
    return [
        [x - scalar * e for x, e in zip(row, eye_row)]
        for row, eye_row in zip(matrix, eye)
    ]


def _scalar_str(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return format_scalar(x)


@dataclass(frozen=True)
class So4Extraction:
    lambdas: dict
    shifted: FinDimRep
    central_values: dict
    verdict: CheckReport

    @property
    def passed(self) -> bool:
        return self.verdict.passed

    def to_data(self) -> dict:
        return {
            "lambdas": {v: _scalar_str(x) for v, x in self.lambdas.items()},
            "central_values": {
                pair: _scalar_str(x) for pair, x in self.central_values.items()
            },
            "pass": self.verdict.passed,
            "details": self.verdict.to_dict(),
        }


def extract_so4(
    rep: FinDimRep, irreducible_hint: bool = False, tolerance=None
) -> So4Extraction:
    """Recover an so(4) representation from a composite representation.

    Steps, each contributing report items: (1) precondition: the input
    restricts to a representation on every face; (2) opposite-pair
    commutators are central; (3) under established irreducibility they
    are scalar, and being traceless, zero; (4) scalar shifts by
    lambda_V = trace/dim make every operator traceless and the shifted
    family satisfies the full so(4) table; (5) semisimplicity evidence:
    the span of the shifted operators is bracket-closed (the abstract
    6-dimensional table is certified separately by killing_certificate).
    """
    composite = build_octahedron()
    exact = rep.is_exact and tolerance is None
    tol = 1e-9 if tolerance is None else float(tolerance)

    def zeroish(matrix) -> bool:
        if exact:
            return all(not x for row in matrix for x in row)
        return _max_abs(matrix) <= tol

    pre = check_representation(composite, rep, tolerance)
    items = [
        CheckItem(
            subject="precondition: composite representation",
            verdict=PASS if pre.passed else FAIL,
            note=None
            if pre.passed
            else f"{len(pre.failures())} face bracket(s) fail; refusing to extract",
        )
    ]
    if not pre.passed:
        verdict = CheckReport.build(
            "so4-extraction",
            {"space_dim": rep.space_dim, "arithmetic": "exact" if exact else f"tolerance {tol:g}"},
            items,
            notes=("input rejected before extraction",),
        )
        return So4Extraction({}, rep, {}, verdict)

    dim = rep.space_dim
    mats = {v: rep.matrix(v) for v in VERTICES}
    dim_scalar = Fraction(dim)

    centrals = {}
    for p, q in OPPOSITE_PAIRS:
        k = mat_commutator(mats[p], mats[q])
        centrals[f"{p},{q}"] = k
        comms = [mat_commutator(k, mats[v]) for v in VERTICES]
        ok = all(zeroish(m) for m in comms)
        items.append(
            CheckItem(
                subject=f"[T({p}), T({q})] is central",
                verdict=PASS if ok else FAIL,
                residual=None if exact else f"{max(map(_max_abs, comms)):.3e}",
            )
        )

    if irreducible_hint:
        irreducible, how = True, "asserted by caller"
    elif exact:
        irreducible = commutant_dimension(rep) == 1
        how = "commutant dimension 1" if irreducible else "commutant dimension > 1"
    else:
        irreducible, how = False, "not established for float input (pass irreducible_hint)"
    items.append(
        CheckItem(subject="irreducibility", verdict=INFO, note=how)
    )

    central_values = {}
    for pair, k in centrals.items():
        scalar = mat_trace(k) / dim_scalar
        central_values[pair] = scalar
        if irreducible:
            scalar_ok = zeroish(_minus_scalar(k, scalar))
            zero_ok = not scalar if exact else _entry_abs(scalar) <= tol
            items.append(
                CheckItem(
                    subject=f"central commutator ({pair}) is the scalar {_scalar_str(scalar)}",
                    verdict=PASS if (scalar_ok and zero_ok) else FAIL,
                    note="traceless and central, hence zero",
                )
            )
        else:
            items.append(
                CheckItem(
                    subject=f"central commutator ({pair}) scalar check",
                    verdict=INFO,
                    note="skipped: irreducibility not established",
                )
            )

    lambdas = {v: mat_trace(mats[v]) / dim_scalar for v in VERTICES}
    all_zero = all(
        (not x) if not isinstance(x, float) else abs(x) <= tol
        for x in lambdas.values()
    )
    items.append(
        CheckItem(
            subject="scalar shifts lambda_V = trace/dim",
            verdict=INFO,
            note="all shifts vanish"
            if all_zero
            else "nonzero shifts: "
            + ", ".join(f"{v}={_scalar_str(x)}" for v, x in lambdas.items() if x),
        )
    )

    shifted_mats = {v: _minus_scalar(mats[v], lambdas[v]) for v in VERTICES}
    shifted = FinDimRep(dim, shifted_mats)

    for p, q, r in FACES:
        worst_residual = 0.0
        ok = True
        for left, mid, right in ((p, q, r), (q, r, p), (r, p, q)):
            diff = mat_commutator(shifted_mats[left], shifted_mats[mid])
            diff = [
                [diff[i][j] - shifted_mats[right][i][j] for j in range(dim)]
                for i in range(dim)
            ]
            ok = ok and zeroish(diff)
            worst_residual = max(worst_residual, _max_abs(diff))
        items.append(
            CheckItem(
                subject=f"face ({p}{q}{r}) so(3) relations on shifted operators",
                verdict=PASS if ok else FAIL,
                residual=None if exact else f"{worst_residual:.3e}",
            )
        )
    for p, q in OPPOSITE_PAIRS:
        diff = mat_commutator(shifted_mats[p], shifted_mats[q])
        items.append(
            CheckItem(
                subject=f"shifted opposite pair ({p}, {q}) commutes",
                verdict=PASS if zeroish(diff) else FAIL,
                residual=None if exact else f"{_max_abs(diff):.3e}",
            )
        )

    flat = {v: [x for row in shifted_mats[v] for x in row] for v in VERTICES}
    if all(all(not x for x in vec) for vec in flat.values()) and exact:
        items.append(
            CheckItem(
                subject="semisimplicity evidence",
                verdict=PASS,
                note="degenerate zero representation: empty span is trivially closed",
            )
        )
    elif exact:
        basis = independent_columns([flat[v] for v in VERTICES])
        closed = True
        for p in VERTICES:
            for q in VERTICES:
                br = mat_commutator(shifted_mats[p], shifted_mats[q])
                if not column_span_contains(basis, [x for row in br for x in row]):
                    closed = False
        items.append(
            CheckItem(
                subject="semisimplicity evidence",
                verdict=PASS if closed else FAIL,
                note=f"span dimension {len(basis)}, bracket-closed: {closed};"
                " abstract so(3)+so(3) certificate: see killing_certificate",
            )
        )
    else:
        items.append(
            CheckItem(
                subject="semisimplicity evidence",
                verdict=INFO,
                note="span computation skipped for float input",
            )
        )

    verdict = CheckReport.build(
        "so4-extraction",
        {
            "space_dim": dim,
            "arithmetic": "exact" if exact else f"tolerance {tol:g}",
            "irreducible": how,
        },
        items,
    )
    return So4Extraction(lambdas, shifted, central_values, verdict)


# -- static certificate for the abstract 6-dimensional algebra ---------------


def _abstract_constants():
    index = {v: i for i, v in enumerate(VERTICES)}
    c = [[[Fraction(0)] * 6 for _ in range(6)] for _ in range(6)]
    for p, q, r in FACES:
        for left, mid, right in ((p, q, r), (q, r, p), (r, p, q)):
            c[index[right]][index[left]][index[mid]] = Fraction(1)
            c[index[right]][index[mid]][index[left]] = Fraction(-1)
    return c


def killing_certificate() -> CheckReport:
    """Static certificate that the abstract vertex algebra is so(3)+so(3).

    Builds the 6-dimensional bracket from the face table (Jacobi is
    validated in the process), computes the Killing form exactly, and
    checks nondegeneracy, negative definiteness, and the splitting into
    two commuting 3-dimensional ideals.
    """
    c = _abstract_constants()
    # constructing the subspace validates antisymmetry and Jacobi exactly
    so4 = SubspaceAlgebra("so4", mat_identity(6), c)
    items = [CheckItem(subject="bracket table satisfies Jacobi", verdict=PASS)]

    ad = [
        [[c[k][i][j] for j in range(6)] for k in range(6)] for i in range(6)
    ]
    killing = [
        [mat_trace(mat_mul(ad[i], ad[j])) for j in range(6)] for i in range(6)
    ]
    r = rank(killing)
    items.append(
        CheckItem(
            subject="Killing form nondegenerate",
            verdict=PASS if r == 6 else FAIL,
            note=f"rank {r}",
        )
    )
    signature = symmetric_signature(killing)
    items.append(
        CheckItem(
            subject="Killing form negative definite (compact type)",
            verdict=PASS if signature == (0, 6, 0) else FAIL,
            note=f"inertia {signature}",
        )
    )

    index = {v: i for i, v in enumerate(VERTICES)}

    def combo(plus, minus=None):
        vec = [Fraction(0)] * 6
        vec[index[plus[0]]] += Fraction(plus[1])
        if minus:
            vec[index[minus[0]]] += Fraction(minus[1])
        return vec

    ideal1 = [combo(("A", 1), ("F", -1)), combo(("B", 1), ("D", 1)), combo(("C", 1), ("E", 1))]
    ideal2 = [combo(("A", 1), ("F", 1)), combo(("B", 1), ("D", -1)), combo(("C", 1), ("E", -1))]
    ok_cross = all(
        all(x == 0 for x in so4.bracket_coords(u, v)) for u in ideal1 for v in ideal2
    )
    items.append(
        CheckItem(
            subject="the two ideals commute",
            verdict=PASS if ok_cross else FAIL,
        )
    )
    for name, ideal in (("first", ideal1), ("second", ideal2)):
        closed = all(
            column_span_contains(ideal, so4.bracket_coords(u, v))
            for u in ideal
            for v in ideal
        )
        nonabelian = any(
            any(so4.bracket_coords(u, v)) for u in ideal for v in ideal
        )
        items.append(
            CheckItem(
                subject=f"{name} ideal is a 3-dimensional subalgebra",
                verdict=PASS if (closed and nonabelian and rank(ideal) == 3) else FAIL,
            )
        )
    ortho = all(
        sum(
            (u[i] * killing[i][j] * v[j] for i in range(6) for j in range(6)),
            Fraction(0),
        )
        == 0
        for u in ideal1
        for v in ideal2
    )
    items.append(
        CheckItem(
            subject="ideals are Killing-orthogonal",
            verdict=PASS if ortho else FAIL,
        )
    )
    return CheckReport.build("killing-certificate", {"dimension": 6}, items)
