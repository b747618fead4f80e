"""The octahedron composite, end to end.

Six vertex labels span a 6-dimensional space; the four alternating faces
each carry a cyclic so(3) bracket ([P,Q] = R, [Q,R] = P, [R,P] = Q), and
every edge of the octahedron lies in exactly one chosen face, so the
brackets never conflict.  Composite representations are assembled from a
pair of so(3) irreducibles: each vertex acts as a signed combination
P (x) 1 +/- 1 (x) Q, with the sign/index table fixed once
(tests/test_octa.py re-derives it by finite search).  From any exact
composite representation, extract_so4 verifies the central opposite-pair
commutators, removes the trace parts, and certifies the full so(4)
bracket table plus semisimplicity evidence.

Scalars: so(3) triples in the compact convention have no real rational
realization in even dimensions, so matrices take entries in the Gaussian
rationals (exact a + bi) in a rational-scaled weight basis; the composite
structure constants themselves stay rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import DomainError
from .findim import (
    FinDimComposite,
    FinDimRep,
    SubspaceAlgebra,
    check_representation,
    commutant_dimension,
    format_scalar,
)
from .linalg import (
    ZMatrix,
    _transposes,
    mat_commutator,
    mat_sub,
    rank,
    symmetric_signature,
)
from .report import FAIL, INFO, PASS, CheckItem, CheckReport

VERTICES = ("A", "B", "C", "D", "E", "F")
FACES = (("A", "B", "C"), ("A", "D", "E"), ("C", "D", "F"), ("E", "B", "F"))
OPPOSITE_PAIRS = (("A", "F"), ("B", "D"), ("C", "E"))


def build_octahedron() -> FinDimComposite:
    """The 6-dimensional composite with one so(3) per chosen face."""
    so3 = _abstract_constants([(0, 1, 2)], range(3))
    subspaces = [
        SubspaceAlgebra("".join(face), [[Fraction(v == w) for w in VERTICES] for v in face], so3)
        for face in FACES
    ]
    return FinDimComposite(6, list(VERTICES), subspaces)


# -- so(3) irreducibles over the Gaussian rationals --------------------------


def so3_irrep(two_j: int):
    """Triple (X, Y, Z) of ZMatrix values with [X,Y] = Z, [Y,Z] = X,
    [Z,X] = Y, exactly.

    Size (two_j + 1) in the scaled weight basis: with ladder matrices
    E v_r = r(two_j - r + 1) v_{r-1}, F v_r = v_{r+1}, H v_r =
    (two_j - 2r) v_r, the triple is X = (E - F)/2, Y = -i(E + F)/2,
    Z = -iH/2, held as Gaussian-integer numerators over the denominator 2.
    """
    if two_j < 0:
        raise DomainError("two_j must be a nonnegative integer")
    size = two_j + 1
    x, y, z = ([{} for _ in range(size)] for _ in range(3))
    for r in range(size):
        if r > 0:
            up = r * (two_j - r + 1)  # E: v_r -> up * v_{r-1}
            x[r - 1][r], y[r - 1][r] = (up, 0), (0, -up)
        if r < two_j:
            x[r + 1][r], y[r + 1][r] = (-1, 0), (0, -1)  # F: v_r -> v_{r+1}
        if two_j != 2 * r:
            z[r][r] = (0, 2 * r - two_j)
    return tuple(ZMatrix(2, m, size) for m in (x, y, z))


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


def so4_composite_rep(two_j1: int, two_j2: int) -> FinDimRep:
    """Composite representation on the tensor product of two so(3)
    irreducibles, using the fixed vertex table."""
    t1, t2 = so3_irrep(two_j1), so3_irrep(two_j2)
    eye1, eye2 = ZMatrix.identity(two_j1 + 1), ZMatrix.identity(two_j2 + 1)
    matrices = {
        vertex: t1[i1].kron(eye2).add(eye1.kron(t2[i2]), s1 * s2).scale(s1)
        for vertex, (s1, i1, s2, i2) in VERTEX_TABLE.items()
    }
    return FinDimRep((two_j1 + 1) * (two_j2 + 1), matrices)


# -- the extraction ---------------------------------------------------------


def _trace_shift(matrix: ZMatrix):
    """(lambda, matrix - lambda * identity) for lambda = trace / size, in
    integers: lambda is the trace numerator over den * size."""
    n = len(matrix.rows)
    scalar = matrix.trace(n)
    return scalar, matrix.add(ZMatrix.identity(n).scale(scalar), -1) if scalar else matrix


class So4Extraction(NamedTuple):
    lambdas: dict
    shifted: FinDimRep
    central_values: dict
    verdict: CheckReport
    precondition: CheckReport  # check_representation on the octahedron

    @property
    def passed(self) -> bool:
        return self.verdict.passed

    def to_data(self) -> dict:
        return {
            "lambdas": {v: format_scalar(x) for v, x in self.lambdas.items()},
            "central_values": {
                pair: format_scalar(x) for pair, x in self.central_values.items()
            },
            "pass": self.verdict.passed,
            "details": self.verdict.to_dict(),
        }


def _vanishing_item(subject, matrices) -> CheckItem:
    return CheckItem(subject=subject, verdict=FAIL if any(matrices) else PASS)


def extract_so4(rep: FinDimRep) -> So4Extraction:
    """Recover an so(4) representation from an exact composite
    representation.

    Steps, each contributing report items: (1) precondition: the input
    restricts to a representation on every face; (2) opposite-pair
    commutators are central; (3) when the commutant dimension is 1 they
    are scalar, and being traceless, zero; (4) scalar shifts by
    lambda_V = trace/dim make every operator traceless and the shifted
    family satisfies the full so(4) table; (5) semisimplicity evidence:
    the span of the shifted operators is bracket-closed (the abstract
    6-dimensional table is certified separately by killing_certificate).
    A float representation raises DomainError, as commutant_dimension
    does: every step is an exact identity.
    """
    if not rep.is_exact:
        raise DomainError("the so(4) extraction needs an exact representation")
    pre = check_representation(build_octahedron(), rep)
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
            {"space_dim": rep.space_dim, "arithmetic": "exact"},
            items,
            notes=("input rejected before extraction",),
        )
        return So4Extraction({}, rep, {}, verdict, pre)

    dim = rep.space_dim
    mats = rep.matrices
    shifts = {v: _trace_shift(mats[v]) for v in VERTICES}
    lambdas = {v: lam for v, (lam, _) in shifts.items()}
    shifted_mats = {v: m for v, (_, m) in shifts.items()}
    shifted = FinDimRep(dim, shifted_mats)

    # each commutator of the shifted family once; a reversed pair negates
    pairs = list(combinations(VERTICES, 2))
    brackets = {(p, q): mat_commutator(shifted_mats[p], shifted_mats[q]) for p, q in pairs}
    for p, q in pairs:
        brackets[q, p] = brackets[p, q].scale(-1)

    centrals = {}
    for p, q in OPPOSITE_PAIRS:
        # scalar shifts leave a commutator unchanged
        k = centrals[f"{p},{q}"] = brackets[p, q]
        comms = [mat_commutator(k, mats[v]) for v in VERTICES]
        items.append(_vanishing_item(f"[T({p}), T({q})] is central", comms))

    irreducible = commutant_dimension(rep) == 1
    how = "commutant dimension 1" if irreducible else "commutant dimension > 1"
    items.append(CheckItem(subject="irreducibility", verdict=INFO, note=how))

    central_values = {}
    for pair, k in centrals.items():
        scalar, residue = _trace_shift(k)
        central_values[pair] = scalar
        if irreducible:
            items.append(
                CheckItem(
                    subject=f"central commutator ({pair}) is the scalar {format_scalar(scalar)}",
                    verdict=FAIL if residue or scalar else PASS,
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

    items.append(
        CheckItem(
            subject="scalar shifts lambda_V = trace/dim",
            verdict=INFO,
            note="all shifts vanish"
            if not any(lambdas.values())
            else "nonzero shifts: "
            + ", ".join(f"{v}={format_scalar(x)}" for v, x in lambdas.items() if x),
        )
    )

    for p, q, r in FACES:
        diffs = [
            mat_sub(brackets[left, mid], shifted_mats[right])
            for left, mid, right in ((p, q, r), (q, r, p), (r, p, q))
        ]
        items.append(
            _vanishing_item(f"face ({p}{q}{r}) so(3) relations on shifted operators", diffs)
        )
    for p, q in OPPOSITE_PAIRS:
        items.append(
            _vanishing_item(f"shifted opposite pair ({p}, {q}) commutes", [brackets[p, q]])
        )

    if not any(shifted_mats.values()):
        evidence = PASS, "degenerate zero representation: empty span is trivially closed"
    else:
        vectors = [shifted_mats[v].flat() for v in VERTICES]
        span_dim = rank(vectors)
        closed = rank(vectors + [brackets[pair].flat() for pair in pairs]) == span_dim
        evidence = PASS if closed else FAIL, (
            f"span dimension {span_dim}, bracket-closed: {closed};"
            " abstract so(3)+so(3) certificate: see killing_certificate"
        )
    items.append(
        CheckItem(subject="semisimplicity evidence", verdict=evidence[0], note=evidence[1])
    )

    verdict = CheckReport.build(
        "so4-extraction", {"space_dim": dim, "arithmetic": "exact", "irreducible": how}, items
    )
    return So4Extraction(lambdas, shifted, central_values, verdict, pre)


# -- static certificate for the abstract 6-dimensional algebra ---------------


def _abstract_constants(faces=FACES, names=VERTICES):
    """c[k][i][j] of the brackets [P,Q] = R, [Q,R] = P, [R,P] = Q on each
    face (P, Q, R); by default those of the 6-dimensional vertex algebra."""
    index = {v: i for i, v in enumerate(names)}
    n = len(index)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for p, q, r in faces:
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
    so4 = SubspaceAlgebra("so4", ZMatrix.identity(6).to_rows(), c)
    items = [CheckItem(subject="bracket table satisfies Jacobi", verdict=PASS)]

    # K[i][j] = tr(ad_i ad_j) = tr(ad_i^T ad_j^T); rows 6i..6i+5 of the
    # bracket matrix, whose denominator is 1, hold ad_i^T
    ads = [ZMatrix(1, so4.bracket_matrix.rows[6 * i : 6 * i + 6], 6) for i in range(6)]
    killing = [[(a @ b).trace() for b in ads] for a in ads]
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

    # the ideals spanned by A - F, B + D, C + E and by A + F, B - D, C - E
    ideal1 = [[1, 0, 0, 0, 0, -1], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 0]]
    ideal2 = [[1, 0, 0, 0, 0, 1], [0, 1, 0, -1, 0, 0], [0, 0, 1, 0, -1, 0]]
    ok_cross = not any(any(so4.bracket_coords(u, v)) for u in ideal1 for v in ideal2)
    items.append(CheckItem(subject="the two ideals commute", verdict=PASS if ok_cross else FAIL))
    for name, ideal in (("first", ideal1), ("second", ideal2)):
        brackets = [so4.bracket_coords(u, v) for u in ideal for v in ideal]
        ideal_dim = rank(ideal)
        closed = rank(ideal + brackets) == ideal_dim
        nonabelian = any(any(br) for br in brackets)
        items.append(
            CheckItem(
                subject=f"{name} ideal is a 3-dimensional subalgebra",
                verdict=PASS if (closed and nonabelian and ideal_dim == 3) else FAIL,
            )
        )
    z1, z2 = ZMatrix.from_rows(ideal1), ZMatrix.from_rows(ideal2)
    ortho = not z1 @ ZMatrix.from_rows(killing) @ _transposes(z2)
    items.append(
        CheckItem(subject="ideals are Killing-orthogonal", verdict=PASS if ortho else FAIL)
    )
    return CheckReport.build("killing-certificate", {"dimension": 6}, items)
