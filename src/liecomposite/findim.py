"""Finite-dimensional composite Lie structures over exact scalars.

A composite is a linear space with a list of marked subspaces, each
carrying its own Lie bracket (as structure constants); the axioms are
that the brackets agree on pairwise intersections (compatibility), the
subspaces span the whole space (density), and the nonzero-intersection
graph is connected.  A representation assigns a matrix to every ambient
basis vector and must restrict to an honest Lie algebra representation
on each subspace; pairs straddling two subspaces are deliberately not
constrained.

All axiom checks are exact.  Representation matrices may be Fraction,
Gaussian-rational, or float entries; a tolerance enters only when floats
are present or is asked for.  Every exact computation runs on ZMatrix
integers: subspace bases and structure constants, brackets, spans and
coordinates, and representation matrices, also under a tolerance, where
each residual entry is read as the rational it stands for.  Only float
representations use the entry lists.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product

from .errors import (
    DimensionMismatchError,
    DomainError,
    MalformedInputError,
    ParseError,
)
from .linalg import (
    GaussianRational,
    ZMatrix,
    _pivot_mod_p,
    _transposes,
    column_space_intersection,
    coordinates,
    kron,
    mat_add,
    mat_commutator,
    mat_identity,
    mat_sub,
    nullspace,  # unused here; findim.nullspace stays a public name
    rank,
    rank_mod_p,
)
from .report import FAIL, INFO, PASS, CheckItem, CheckReport

_EXACT_TYPES = (int, Fraction, GaussianRational)


def parse_scalar(text: str):
    """Exact scalar from a string: Fraction, or Gaussian rational if it
    carries an imaginary part."""
    g = GaussianRational.parse(text)
    return g.re if not g.im else g


def format_scalar(x) -> str:
    if isinstance(x, float):
        raise MalformedInputError("refusing to serialize float entries exactly")
    if isinstance(x, GaussianRational):
        return str(x)
    return str(Fraction(x))


def _sequence(value, what: str):
    """value itself if it is a list or tuple: a JSON string or object would
    otherwise be read as its characters or its keys."""
    if not isinstance(value, (list, tuple)):
        raise MalformedInputError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _coerce_vector(values, what: str):
    _sequence(values, what)
    try:
        return tuple(
            parse_scalar(v) if isinstance(v, str) else _coerce_scalar(v)
            for v in values
        )
    except (TypeError, ValueError, ParseError) as exc:
        raise MalformedInputError(f"bad {what}: {exc}") from None


def _exact_vector(values, what: str):
    """_coerce_vector, refusing floats: the axiom checks are exact."""
    vector = _coerce_vector(values, what)
    if any(isinstance(x, float) for x in vector):
        raise MalformedInputError(f"bad {what}: float scalar (write it as a string)")
    return vector


def _integer(value, what: str) -> int:
    """value itself if it is an int; a float, string or boolean (JSON
    true is not 1) is refused rather than truncated or read."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{what} must be an integer, not {value!r}")
    return value


def _coerce_scalar(v):
    if isinstance(v, bool):
        raise MalformedInputError(f"unsupported scalar {v!r} (a boolean is not a number)")
    if isinstance(v, _EXACT_TYPES):
        return Fraction(v) if isinstance(v, int) else v
    if isinstance(v, float):
        # JSON's NaN and Infinity would turn every residual into nan
        if not math.isfinite(v):
            raise ValueError(f"non-finite float {v!r}")
        return v
    raise MalformedInputError(f"unsupported scalar {v!r}")


class SubspaceAlgebra:
    """A marked subspace with its own bracket.

    basis: rows, each an ambient coordinate vector; structure constants
    c[k][i][j] give [b_i, b_j] = sum_k c[k][i][j] b_k.  Scalars are exact
    (floats are refused).  Validates linear independence, antisymmetry,
    and the Jacobi identity exactly.  The arithmetic runs on two ZMatrix
    values: basis_matrix (dim x ambient) and bracket_matrix (dim^2 x dim,
    row i * dim + j holding the coordinates of [b_i, b_j]), so that the
    brackets of coordinate rows X are X.kron(Y) @ bracket_matrix.
    """

    def __init__(self, name: str, basis, structure_constants):
        if not isinstance(name, str) or not name:
            raise MalformedInputError(f"subspace name must be a non-empty string, not {name!r}")
        self.name = name
        rows = _sequence(basis, f"basis of {name}")
        self.basis = tuple(_exact_vector(row, f"basis row of {name}") for row in rows)
        dim = len(self.basis)
        if dim < 2:
            raise MalformedInputError(
                f"subspace {name}: dimension {dim} < 2"
            )
        widths = {len(row) for row in self.basis}
        if len(widths) != 1:
            raise MalformedInputError(f"subspace {name}: ragged basis rows")
        self.basis_matrix = ZMatrix.from_rows(self.basis)
        if rank(self.basis_matrix.rows) != dim:
            raise MalformedInputError(f"subspace {name}: basis rows are dependent")
        what = f"structure constants of {name}"
        c = self.structure_constants = tuple(
            tuple(_exact_vector(row, what) for row in _sequence(plane, what))
            for plane in _sequence(structure_constants, what)
        )
        if len(c) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane) for plane in c
        ):
            raise MalformedInputError(
                f"subspace {name}: structure constants must be {dim}x{dim}x{dim}"
            )
        self.bracket_matrix = ZMatrix.from_rows(
            [[plane[i][j] for plane in self.structure_constants]
             for i in range(dim) for j in range(dim)]
        )
        rows = self.bracket_matrix.rows
        for k, i, j in product(range(dim), repeat=3):
            r, im = rows[j * dim + i].get(k, (0, 0))
            if rows[i * dim + j].get(k, (0, 0)) != (-r, -im):
                raise MalformedInputError(
                    f"subspace {name}: c[{k}][{i}][{j}] breaks antisymmetry"
                )
        self._check_jacobi()

    def _check_jacobi(self):
        """[[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j] = 0:
        row (i * dim + j) * dim + k of nested holds [[b_i, b_j], b_k]."""
        d = self.dim
        nested = self.bracket_matrix.kron(ZMatrix.identity(d)) @ self.bracket_matrix
        for i, j, k in combinations(range(d), 3):
            cyclic = {(a * d + b) * d + c: (1, 0) for a, b, c in ((i, j, k), (j, k, i), (k, i, j))}
            if ZMatrix(1, [cyclic], d**3) @ nested:
                raise MalformedInputError(f"subspace {self.name}: Jacobi fails at ({i},{j},{k})")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0])

    def bracket_coords(self, x, y):
        """Bracket of two coordinate vectors, in subspace coordinates."""
        xy = ZMatrix.from_rows([x]).kron(ZMatrix.from_rows([y]))
        return (xy @ self.bracket_matrix).to_rows()[0]

    def ambient_brackets(self, vectors: ZMatrix) -> ZMatrix:
        """Row p * k + q: the bracket of rows p and q of vectors, k ambient
        vectors of this subspace, in ambient coordinates."""
        x = coordinates(self.basis_matrix, vectors)
        return x.kron(x) @ self.bracket_matrix @ self.basis_matrix


class FinDimComposite:
    def __init__(self, dimension: int, basis_names, subspaces):
        self.dimension = _integer(dimension, "dimension")
        if not isinstance(basis_names, (list, tuple)) or not all(
            isinstance(n, str) for n in basis_names
        ):
            raise MalformedInputError(f"basis_names must be a list of strings, not {basis_names!r}")
        self.basis_names = tuple(basis_names)
        if self.dimension < 1 or len(self.basis_names) != self.dimension:
            raise MalformedInputError("dimension must match the basis name count")
        if len(set(self.basis_names)) != self.dimension:
            raise MalformedInputError("ambient basis names must be distinct")
        self.subspaces = tuple(subspaces)
        if not self.subspaces:
            raise MalformedInputError("a composite needs at least one subspace")
        if not all(isinstance(s, SubspaceAlgebra) for s in self.subspaces):
            raise MalformedInputError("subspaces must be SubspaceAlgebra values")
        for s in self.subspaces:
            if s.ambient_dim != self.dimension:
                raise MalformedInputError(
                    f"subspace {s.name}: vectors have length {s.ambient_dim},"
                    f" ambient dimension is {self.dimension}"
                )
        names = [s.name for s in self.subspaces]
        if len(set(names)) != len(names):
            raise MalformedInputError("subspace names must be distinct")


class FinDimRep:
    """A matrix for every ambient basis vector, all of one square size.

    A matrix is given as rows of scalars or as a ZMatrix; matrices holds
    the rows."""

    def __init__(self, space_dim: int, matrices):
        self.space_dim = _integer(space_dim, "space_dim")
        if self.space_dim < 1:
            raise MalformedInputError("representation space must be nonzero")
        out = {}
        for name, matrix in dict(matrices).items():
            name = str(name)
            if isinstance(matrix, ZMatrix):
                rows = matrix.to_rows()
            else:
                rows = [
                    list(_coerce_vector(row, f"matrix row of {name}"))
                    for row in _sequence(matrix, f"matrix for {name}")
                ]
            if len(rows) != self.space_dim or any(
                len(row) != self.space_dim for row in rows
            ):
                raise MalformedInputError(
                    f"matrix for {name} is not {self.space_dim}x{self.space_dim}"
                )
            out[name] = rows
        if not out:
            raise MalformedInputError("representation has no matrices")
        floated = [n for n, m in out.items() if any(isinstance(x, float) for r in m for x in r)]
        if floated and any(
            isinstance(x, GaussianRational) for m in out.values() for r in m for x in r
        ):
            raise MalformedInputError(
                f"matrix for {floated[0]} has float entries, which do not mix with"
                " Gaussian-rational entries (write them as strings)"
            )
        self.matrices = out
        self.is_exact = not floated

    @cached_property
    def exact_matrices(self) -> dict:
        """The matrices of an exact representation as ZMatrix, by name."""
        return {name: ZMatrix.from_rows(m) for name, m in self.matrices.items()}

    def matrix(self, name: str):
        try:
            return self.matrices[name]
        except KeyError:
            raise DimensionMismatchError(f"no matrix for basis vector {name!r}") from None

    def ambient_matrix(self, vector, basis_names):
        """Matrix of T applied to an ambient coordinate vector: for an exact
        representation a ZMatrix summed over the nonzero coefficients,
        else a list of rows."""
        if len(vector) != len(basis_names):
            raise DimensionMismatchError("coordinate vector has the wrong length")
        matrices = [self.matrix(name) for name in basis_names]
        if self.is_exact:
            total = ZMatrix(1, [{} for _ in range(self.space_dim)], self.space_dim)
            for coeff, name in zip(vector, basis_names):
                if coeff:
                    total = total.add(self.exact_matrices[name].scale(coeff))
            return total
        if any(isinstance(coeff, GaussianRational) for coeff in vector):
            raise MalformedInputError(
                "a representation with float entries does not mix with"
                " Gaussian-rational basis vectors or structure constants"
            )
        total = None
        for coeff, matrix in zip(vector, matrices):
            term = [[coeff * x for x in row] for row in matrix]
            total = term if total is None else [
                [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(total, term)
            ]
        return total


# -- axiom checks ---------------------------------------------------------


def intersect_subspaces(composite: FinDimComposite, i: int, j: int):
    """Exact basis (list of ambient vectors) of the pairwise intersection."""
    subs = composite.subspaces
    return column_space_intersection(subs[i].basis, subs[j].basis)


def _abs(re: int, im: int, den: int) -> float:
    """|(re + im i) / den|, rounded as the Fraction or Gaussian rational
    that _scalar makes of it."""
    return abs(re / den) if not im else ((re * re + im * im) / (den * den)) ** 0.5


def _max_abs(matrix) -> float:
    """Largest entry modulus of a ZMatrix, or of rows of floats and Fractions."""
    if isinstance(matrix, ZMatrix):
        entries = (_abs(r, i, matrix.den) for row in matrix.rows for r, i in row.values())
    else:
        entries = (abs(float(x)) for row in matrix for x in row)
    return max(entries, default=0.0)


def _tolerance(tolerance) -> float:
    """The max-entry tolerance of a float check, 1e-9 by default.  A NaN
    or negative tolerance would FAIL every pair and an infinite one PASS
    any, so those are refused."""
    tol = 1e-9 if tolerance is None else float(tolerance)
    if not 0 <= tol < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, not {tol}")
    return tol


def _vec_str(v) -> str:
    return "(" + ", ".join(format_scalar(x) for x in v) + ")"


def check_compatibility(composite: FinDimComposite) -> CheckReport:
    """Pairwise bracket agreement on intersections, exactly.

    For each unordered subspace pair: the intersection must be closed
    under both induced brackets and the two brackets must coincide on an
    intersection basis.  Failures are reported with witnesses, never
    raised.  Pairs with equal spans are additionally flagged as
    informational duplicates.
    """
    items = []
    subs = composite.subspaces
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            a, b = subs[i], subs[j]
            label = f"({a.name}, {b.name})"
            inter = intersect_subspaces(composite, i, j)
            if a.dim == b.dim == len(inter):
                items.append(
                    CheckItem(
                        subject=f"{label} duplicate spans",
                        verdict=INFO,
                        note="the two subspaces span the same space",
                    )
                )
            if not inter:
                items.append(
                    CheckItem(subject=f"{label} intersection", verdict=PASS,
                              note="zero intersection, trivially compatible")
                )
                continue
            # row p * k + q of each bracket table: [inter[p], inter[q]]
            k, basis = len(inter), ZMatrix.from_rows(inter)
            br_a, br_b = a.ambient_brackets(basis), b.ambient_brackets(basis)
            diff = br_a.add(br_b, -1)
            subject = f"{label} intersection dimension {k}"
            for pq in range(k * k):
                if rank(basis.rows + [br_a.rows[pq]]) > k:
                    why = f"bracket of {a.name} leaves the intersection"
                elif rank(basis.rows + [br_b.rows[pq]]) > k:
                    why = f"bracket of {b.name} leaves the intersection"
                elif diff.rows[pq]:
                    why = f"induced brackets differ by {_vec_str(diff.to_rows()[pq])}"
                else:
                    continue
                p, q = divmod(pq, k)
                note = f"witness vectors {_vec_str(inter[p])}, {_vec_str(inter[q])}: {why}"
                items.append(CheckItem(subject=subject, verdict=FAIL, note=note))
                break
            else:
                items.append(CheckItem(subject=subject, verdict=PASS))
    return CheckReport.build(
        "compatibility", {"subspaces": len(subs)}, items
    )


def check_dense(composite: FinDimComposite) -> bool:
    rows = [row for s in composite.subspaces for row in s.basis_matrix.rows]
    return rank(rows) == composite.dimension


def check_connected(composite: FinDimComposite) -> bool:
    subs = composite.subspaces
    n = len(subs)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            # independent bases meet in a nonzero space iff together they drop rank
            if j not in seen and rank(
                subs[i].basis_matrix.rows + subs[j].basis_matrix.rows
            ) < subs[i].dim + subs[j].dim:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def check_representation(
    composite: FinDimComposite, rep: FinDimRep, tolerance=None
) -> CheckReport:
    """Per-subspace bracket compatibility of a representation.

    For each subspace and each basis pair (x, y) of it, the commutator
    [T(x), T(y)] must equal T of the subspace bracket [x, y]: exactly
    for exact entries, within max-entry tolerance when floats appear.
    Cross-subspace pairs are left unconstrained on purpose.
    """
    exact = rep.is_exact and tolerance is None
    tol = _tolerance(tolerance)
    names = composite.basis_names
    items = []
    for sub in composite.subspaces:
        mats = [rep.ambient_matrix(list(row), names) for row in sub.basis]
        brackets = (sub.bracket_matrix @ sub.basis_matrix).to_rows()
        for p in range(sub.dim):
            for q in range(p + 1, sub.dim):
                comm = mat_commutator(mats[p], mats[q])
                target = rep.ambient_matrix(brackets[p * sub.dim + q], names)
                diff = mat_sub(comm, target)
                if exact:
                    ok = not diff
                    residual = None if ok else "nonzero exact difference"
                else:
                    worst = _max_abs(diff)
                    ok = worst <= tol
                    residual = f"{worst:.3e}"
                items.append(
                    CheckItem(
                        subject=f"{sub.name}: basis pair ({p}, {q})",
                        verdict=PASS if ok else FAIL,
                        residual=residual,
                    )
                )
    mode = "exact" if exact else f"tolerance {tol:g}"
    return CheckReport.build(
        "representation",
        {"space_dim": rep.space_dim, "arithmetic": mode},
        items,
        notes=("cross-subspace pairs are not constrained",),
    )


def tensor_product(rep1: FinDimRep, rep2: FinDimRep) -> FinDimRep:
    """Tensor of two representations of the same composite:
    x maps to T1(x) (x) 1 + 1 (x) T2(x), in ZMatrix integers when both
    are exact."""
    if set(rep1.matrices) != set(rep2.matrices):
        raise DomainError("representations are keyed by different basis names")
    n1, n2 = rep1.space_dim, rep2.space_dim
    if rep1.is_exact and rep2.is_exact:
        eye1, eye2 = ZMatrix.identity(n1), ZMatrix.identity(n2)
        mats1, mats2 = rep1.exact_matrices, rep2.exact_matrices
    else:
        eye1, eye2 = mat_identity(n1), mat_identity(n2)
        mats1, mats2 = rep1.matrices, rep2.matrices
    matrices = {
        name: mat_add(kron(m1, eye2), kron(eye1, mats2[name])) for name, m1 in mats1.items()
    }
    return FinDimRep(rep1.space_dim * rep2.space_dim, matrices)


# The modulus of the commutant certificate: p = 1 (mod 4), so F_p holds
# a square root of -1 for i to map to (3 is a non-residue mod p), and
# p < 2**30 keeps every residue a one-digit Python int.
_COMMUTANT_PRIME = 2**30 - 35
_COMMUTANT_ROOT = pow(3, (_COMMUTANT_PRIME - 1) // 4, _COMMUTANT_PRIME)


def _commutant_rows(matrices):
    """The linear system [S, T] = 0 for every ZMatrix T in matrices, in
    the m*m entries of S (row-major): one sparse row {column: (re, im)}
    of Gaussian integers per entry (i, j) of each T, the row (i, j) of
    1 (x) T^T - T (x) 1.  The system is homogeneous, so each T enters by
    its numerators alone; rows that vanish are dropped."""
    rows = []
    for t in matrices:
        m, cols = t.ncols, _transposes(t).rows
        for i, trow in enumerate(t.rows):
            for j in range(m):
                row = {i * m + q: z for q, z in cols[j].items()}
                for k, (r, im) in trow.items():
                    r0, i0 = row.pop(k * m + j, (0, 0))
                    if r0 != r or i0 != im:
                        row[k * m + j] = (r0 - r, i0 - im)
                if row:
                    rows.append(row)
    return rows


def _cyclic_nullity(matrices, m: int):
    """The commutant dimension of the numerators of matrices mod p, from
    m unknowns by the MeatAxe spin-up of e_0, or None if e_0 is not cyclic
    mod p (README "Design notes").  Each basis vector b_k = W_k e_0 keeps
    its word W_k, W_0 = 1; a new T b_k joins with the word T W_k, and any
    other gives a relation M = T W_k + sum_l a_l W_l with M e_0 = 0.  A
    commuting S is fixed by w = S e_0, and it commutes exactly when M w = 0
    for every M.  w = e_0 solves these rows, so a rank of m - 1 ends them."""
    p = _COMMUTANT_PRIME
    gens = [
        [{j: x for j, (r, i) in row.items() if (x := (r + _COMMUTANT_ROOT * i) % p)}
         for row in t.rows]
        for t in matrices
    ]
    words, relations = [[[int(i == j) for j in range(m)] for i in range(m)]], []

    def times(row, word):
        """The row of T W whose row of T is row, not yet reduced mod p."""
        acc = [0] * m
        for j, y in row.items():
            acc = [a + y * b for a, b in zip(acc, word[j])]
        return acc

    # b_k is a row with 1 at m + k: each pivot row carries its combination
    # of the b_l at m + l, and each relation its coefficients
    pivots = {0: {0: 1, m: 1}}
    for word in words:  # grows while it is read
        for t in gens:
            v = {i: x for i, row in enumerate(t)
                 if (x := sum(y * word[j][0] for j, y in row.items()) % p)}
            v[m + len(words)] = 1
            if _pivot_mod_p(v, pivots, p, m):
                words.append([[x % p for x in times(row, word)] for row in t])
            else:
                del v[m + len(words)]
                relations.append((t, word, v))
    if len(words) < m:
        return None

    def equations(t, word, coeffs):
        for i, row in enumerate(t):
            acc = times(row, word)
            for key, a in coeffs.items():
                acc = [x + a * y for x, y in zip(acc, words[key - m][i])]
            yield {j: (y, 0) for j, x in enumerate(acc) if (y := x % p)}

    rows = (row for relation in relations for row in equations(*relation))
    return m - rank_mod_p(rows, p, 0, ceiling=m - 1)


def commutant_dimension(rep: FinDimRep) -> int:
    """Dimension of {S : [S, T(v)] = 0 for every basis matrix T(v)}, for
    an exact representation.

    If e_0 is cyclic mod p (p = 1 mod 4, with i mapped to a square root
    of -1), _cyclic_nullity finds the dimension over F_p from the
    numerators.  That reduction is a ring homomorphism, so the rank cannot
    rise under it, also where p divides a denominator: the mod-p nullity
    is at least the exact one, which is at least 1 because the identity
    commutes.  A mod-p nullity of 1 is therefore the exact answer.  Any
    other nullity, and a rep whose e_0 is not cyclic mod p, takes the
    exact rank of the m*m system on echelon.  A float representation is
    refused, since noise makes the system full rank.  The dimension is
    insensitive to scalar extension; its interpretation as a Schur
    irreducibility test is only faithful over algebraically closed
    scalars."""
    if not rep.is_exact:
        raise DomainError("the commutant dimension needs an exact representation")
    matrices = rep.exact_matrices.values()
    if _cyclic_nullity(matrices, rep.space_dim) == 1:
        return 1
    return rep.space_dim**2 - rank(_commutant_rows(matrices))


def is_irreducible(rep: FinDimRep) -> bool:
    """Schur test: commutant dimension exactly 1; a float representation
    raises DomainError.  For an irreducible exact representation whose
    e_0 is cyclic mod p, commutant_dimension proves this with one rank
    computation mod p in m unknowns.  Over non-closed scalars this is
    evidence, not proof."""
    return commutant_dimension(rep) == 1


# -- serialization -----------------------------------------------------


def composite_to_data(composite: FinDimComposite) -> dict:
    return {
        "dimension": composite.dimension,
        "basis_names": list(composite.basis_names),
        "subspaces": [
            {
                "name": s.name,
                "basis": [[format_scalar(x) for x in row] for row in s.basis],
                "structure_constants": [
                    [[format_scalar(x) for x in row] for row in plane]
                    for plane in s.structure_constants
                ],
            }
            for s in composite.subspaces
        ],
    }


def composite_from_data(data) -> FinDimComposite:
    try:
        dimension = data["dimension"]
        basis_names = data["basis_names"]
        raw_subs = data["subspaces"]
        subs = [
            SubspaceAlgebra(s["name"], s["basis"], s["structure_constants"])
            for s in raw_subs
        ]
    except (KeyError, TypeError, IndexError) as exc:
        raise MalformedInputError(f"bad composite data: {exc!r}") from None
    return FinDimComposite(dimension, basis_names, subs)


def rep_to_data(rep: FinDimRep) -> dict:
    return {
        "space_dim": rep.space_dim,
        "matrices": {
            name: [[format_scalar(x) for x in row] for row in matrix]
            for name, matrix in rep.matrices.items()
        },
    }


def rep_from_data(data) -> FinDimRep:
    try:
        space_dim, matrices = data["space_dim"], data["matrices"]
        if not isinstance(matrices, dict):
            raise MalformedInputError("matrices must be a JSON object")
        return FinDimRep(space_dim, matrices)
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad representation data: {exc!r}") from None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None


def _dump_json(data, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_composite(path: str) -> FinDimComposite:
    return composite_from_data(_load_json(path))


def save_composite(composite: FinDimComposite, path: str):
    _dump_json(composite_to_data(composite), path)


def load_rep(path: str) -> FinDimRep:
    return rep_from_data(_load_json(path))


def save_rep(rep: FinDimRep, path: str):
    _dump_json(rep_to_data(rep), path)
