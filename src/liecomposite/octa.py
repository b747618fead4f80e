"""The octahedron composite, end to end.

Six vertex labels span a 6-dimensional space; the four alternating faces
each carry a cyclic so(3) bracket ([P,Q] = R, [Q,R] = P, [R,P] = Q), and
every edge of the octahedron lies in exactly one chosen face, so the
brackets never conflict.  Composite representations are assembled from a
pair of so(3) irreducibles: each vertex acts as a signed combination
P (x) 1 +/- 1 (x) Q, with the sign/index table fixed once
(tests/test_octa.py re-derives it by finite search).  From any exact
composite representation, extract_so4 verifies the central opposite-pair
commutators and certifies the full so(4) bracket table plus
semisimplicity evidence; it needs no trace shift, since so(3) is perfect
and so each vertex, a commutator on its faces, is traceless.

Scalars: so(3) triples in the compact convention have no real rational
realization in even dimensions, so matrices take entries in the Gaussian
rationals (exact a + bi) in a rational-scaled weight basis; the composite
structure constants themselves stay rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import isqrt
from typing import NamedTuple

from .errors import DomainError
from .findim import (
    FinDimComposite,
    FinDimRep,
    SubspaceAlgebra,
    check_representation,
    commutant_dimension,
)
from .linalg import (
    ZMatrix,
    _transposes,
    mat_commutator,
    rank,
    symmetric_signature,
)
from .report import FAIL, INFO, PASS, CheckItem, CheckReport

VERTICES = ("A", "B", "C", "D", "E", "F")
FACES = (("A", "B", "C"), ("A", "D", "E"), ("C", "D", "F"), ("E", "B", "F"))
OPPOSITE_PAIRS = (("A", "F"), ("B", "D"), ("C", "E"))
# the two commuting so(3) ideals, spanned by A - F, B + D, C + E and by
# A + F, B - D, C - E (coordinates over VERTICES)
IDEALS = (
    [[1, 0, 0, 0, 0, -1], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 0]],
    [[1, 0, 0, 0, 0, 1], [0, 1, 0, -1, 0, 0], [0, 0, 1, 0, -1, 0]],
)


@cache
def build_octahedron() -> FinDimComposite:
    """The 6-dimensional composite with one so(3) per chosen face, built
    and validated once per process: callers share it and must not mutate it."""
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


class So4Extraction(NamedTuple):
    verdict: CheckReport
    precondition: CheckReport  # check_representation on the octahedron

    @property
    def passed(self) -> bool:
        return self.verdict.passed


def _vanishing_item(subject, matrices) -> CheckItem:
    return CheckItem(subject=subject, verdict=FAIL if any(matrices) else PASS)


def _joint_kernels(casimirs, keys, m: int):
    """{key: dimension} of the joint kernels of C + t(t + 2), over C, t in
    zip(casimirs, key), for the keys with a nonzero one, read until the
    dimensions reach m; None if they never do."""
    dims, total, eye = {}, 0, ZMatrix.identity(m)
    for key in keys:
        rows = [row for c, t in zip(casimirs, key) for row in c.add(eye.scale(t * (t + 2))).rows]
        if dim := m - rank(rows):
            dims[key], total = dim, total + dim
            if total == m:
                return dims
    return None


def so4_decomposition(rep: FinDimRep):
    """{(t1, t2): multiplicity} of the irreducibles of dimension
    (t1 + 1)(t2 + 1) in the vertex matrices of an so(4) representation,
    or None unless the Casimirs prove it.  They need no trace shift:
    each vertex is a face commutator, so it is traceless.

    C_i sums u^2 over the basis u of IDEALS[i]; A - F = 2 T1[0] (x) 1 in
    VERTEX_TABLE, so C_i is -t_i(t_i + 2) on the (t1, t2) part (t = 2j).
    A scalar C_i gives its t from its trace.  Otherwise the kernels for t =
    0, 1, ..., and then the joint kernels of the pairs found, are read
    until their dimensions reach m, which proves diagonalizability.  Each
    dimension must divide by (t1 + 1)(t2 + 1)."""
    m, casimirs, found = rep.space_dim, [], []
    for ideal in IDEALS:
        us = [rep.ambient_matrix(coords, VERTICES) for coords in ideal]
        c = (us[0] @ us[0]).add(us[1] @ us[1]).add(us[2] @ us[2])
        value = c.trace(m)  # -t(t + 2) = 1 - (t + 1)^2 if c is scalar
        t = isqrt(max(1 - int(value), 0)) - 1 if isinstance(value, Fraction) else -1
        scalar = t >= 0 and not c.add(ZMatrix.identity(m).scale(t * (t + 2)))
        dims = {(t,): m} if scalar else _joint_kernels([c], ((t,) for t in range(m)), m)
        if dims is None:
            return None
        casimirs.append(c)
        found.append(dims)
    joint = _joint_kernels(casimirs, ((t1, t2) for (t1,) in found[0] for (t2,) in found[1]), m)
    if joint is None or any(dim % ((t1 + 1) * (t2 + 1)) for (t1, t2), dim in joint.items()):
        return None
    return {(t1, t2): dim // ((t1 + 1) * (t2 + 1)) for (t1, t2), dim in joint.items()}


def extract_so4(rep: FinDimRep) -> So4Extraction:
    """Recover an so(4) representation from an exact composite
    representation.

    Steps, each contributing report items: (1) precondition: the input
    restricts to a representation on every face; (2) opposite-pair
    commutators are central; (3) when the commutant dimension is 1 they
    are scalar, and being traceless, zero: if the opposite pairs commute,
    that dimension is the sum of the squared multiplicities of
    so4_decomposition (Schur, as the rep is completely reducible), and
    otherwise, or if the Casimirs prove no decomposition,
    commutant_dimension computes it; (4) no scalar shift is needed: so(3)
    is perfect, so by (1) each vertex is a commutator, traceless, and
    lambda_V = trace/dim is 0, and the input itself satisfies the full
    so(4) table once its opposite pairs commute; (5) semisimplicity
    evidence: the span of the vertex operators is bracket-closed (the
    abstract 6-dimensional table is certified separately by
    killing_certificate).  A float representation raises DomainError, as
    commutant_dimension does: every step is an exact identity.
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
        return So4Extraction(verdict, pre)

    mats = {v: rep.matrices[v] for v in VERTICES}  # a rep may carry more names

    centrals = {pair: mat_commutator(mats[pair[0]], mats[pair[1]]) for pair in OPPOSITE_PAIRS}
    for (p, q), k in centrals.items():
        # a zero K is central: it forms no products
        comms = [mat_commutator(k, m) for m in mats.values()] if k else []
        items.append(_vanishing_item(f"[T({p}), T({q})] is central", comms))

    # on an so(4) rep the multiplicities give the commutant dimension
    decomposition = None if any(centrals.values()) else so4_decomposition(rep)
    if decomposition is None:
        irreducible = commutant_dimension(rep) == 1
    else:
        irreducible = sum(k * k for k in decomposition.values()) == 1
    how = "commutant dimension 1" if irreducible else "commutant dimension > 1"
    items.append(CheckItem(subject="irreducibility", verdict=INFO, note=how))

    # a commutator is traceless, so the only scalar it can be is 0
    for (p, q), k in centrals.items():
        items.append(
            CheckItem(
                subject=f"central commutator ({p},{q}) is the scalar 0",
                verdict=FAIL if k else PASS,
                note="traceless and central, hence zero",
            )
            if irreducible
            else CheckItem(
                subject=f"central commutator ({p},{q}) scalar check",
                verdict=INFO,
                note="skipped: irreducibility not established",
            )
        )

    shifts = "scalar shifts lambda_V = trace/dim"
    items.append(CheckItem(subject=shifts, verdict=INFO, note="all shifts vanish"))
    # check_representation has just verified each face's three relations
    # on these same matrices, and every shift is 0
    for face in FACES:
        subject = f"face ({''.join(face)}) so(3) relations on shifted operators"
        items.append(CheckItem(subject=subject, verdict=PASS))
    for (p, q), k in centrals.items():
        items.append(_vanishing_item(f"shifted opposite pair ({p}, {q}) commutes", [k]))

    if not any(mats.values()):
        evidence = PASS, "degenerate zero representation: empty span is trivially closed"
    else:
        # the face relations put the other twelve brackets in the span
        vectors = [m.flat() for m in mats.values()]
        span_dim = rank(vectors)
        closed = rank(vectors + [k.flat() for k in centrals.values()]) == span_dim
        evidence = PASS if closed else FAIL, (
            f"span dimension {span_dim}, bracket-closed: {closed};"
            " abstract so(3)+so(3) certificate: see killing_certificate"
        )
    items.append(
        CheckItem(subject="semisimplicity evidence", verdict=evidence[0], note=evidence[1])
    )

    verdict = CheckReport.build(
        "so4-extraction",
        {"space_dim": rep.space_dim, "arithmetic": "exact", "irreducible": how},
        items,
    )
    return So4Extraction(verdict, pre)


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
    killing = [[None] * 6 for _ in range(6)]
    for i, j in combinations_with_replacement(range(6), 2):  # tr(XY) = tr(YX)
        killing[i][j] = killing[j][i] = (ads[i] @ ads[j]).trace()
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

    # row 3p + q of z.kron(w) @ bracket_matrix is [z_p, w_q] in coordinates
    z1, z2 = (ZMatrix.from_rows(ideal) for ideal in IDEALS)
    ok_cross = not z1.kron(z2) @ so4.bracket_matrix
    items.append(CheckItem(subject="the two ideals commute", verdict=PASS if ok_cross else FAIL))
    for name, z in (("first", z1), ("second", z2)):
        brackets = z.kron(z) @ so4.bracket_matrix
        ideal_dim = rank(z.rows)
        closed = rank(z.rows + brackets.rows) == ideal_dim
        items.append(
            CheckItem(
                subject=f"{name} ideal is a 3-dimensional subalgebra",
                verdict=PASS if (closed and brackets and ideal_dim == 3) else FAIL,
            )
        )
    ortho = not z1 @ ZMatrix.from_rows(killing) @ _transposes(z2)
    items.append(
        CheckItem(subject="ideals are Killing-orthogonal", verdict=PASS if ortho else FAIL)
    )
    return CheckReport.build("killing-certificate", {"dimension": 6}, items)
