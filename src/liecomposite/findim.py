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
are present.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    DomainError,
    MalformedInputError,
    ParseError,
)
from .linalg import (
    GaussianRational,
    column_space_intersection,
    column_span_contains,
    kron,
    mat_commutator,
    mat_identity,
    mat_sub,
    nullspace,
    rank,
    solve_columns,
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


def _coerce_vector(values, what: str):
    try:
        return tuple(
            parse_scalar(v) if isinstance(v, str) else _coerce_scalar(v)
            for v in values
        )
    except (TypeError, ValueError, ParseError) as exc:
        raise MalformedInputError(f"bad {what}: {exc}") from None


def _coerce_scalar(v):
    if isinstance(v, _EXACT_TYPES):
        return Fraction(v) if isinstance(v, int) else v
    if isinstance(v, float):
        return v
    raise MalformedInputError(f"unsupported scalar {v!r}")


class SubspaceAlgebra:
    """A marked subspace with its own bracket.

    basis: rows, each an ambient coordinate vector; structure constants
    c[k][i][j] give [b_i, b_j] = sum_k c[k][i][j] b_k.  Validates linear
    independence, antisymmetry, and the Jacobi identity exactly.
    """

    def __init__(self, name: str, basis, structure_constants):
        self.name = str(name)
        self.basis = tuple(_coerce_vector(row, f"basis row of {name}") for row in basis)
        dim = len(self.basis)
        if dim < 2:
            raise MalformedInputError(
                f"subspace {name}: dimension {dim} < 2"
            )
        widths = {len(row) for row in self.basis}
        if len(widths) != 1:
            raise MalformedInputError(f"subspace {name}: ragged basis rows")
        if rank([list(row) for row in self.basis]) != dim:
            raise MalformedInputError(f"subspace {name}: basis rows are dependent")
        c = structure_constants
        if len(c) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane) for plane in c
        ):
            raise MalformedInputError(
                f"subspace {name}: structure constants must be {dim}x{dim}x{dim}"
            )
        self.structure_constants = tuple(
            tuple(_coerce_vector(row, f"structure constants of {name}") for row in plane)
            for plane in c
        )
        for k in range(dim):
            for i in range(dim):
                for j in range(dim):
                    if self.structure_constants[k][i][j] != -self.structure_constants[k][j][i]:
                        raise MalformedInputError(
                            f"subspace {name}: c[{k}][{i}][{j}] breaks antisymmetry"
                        )
        self._check_jacobi()

    def _check_jacobi(self):
        dim = self.dim
        c = self.structure_constants
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    for l in range(dim):
                        total = Fraction(0)
                        for m in range(dim):
                            total += (
                                c[m][i][j] * c[l][m][k]
                                + c[m][j][k] * c[l][m][i]
                                + c[m][k][i] * c[l][m][j]
                            )
                        if total:
                            raise MalformedInputError(
                                f"subspace {self.name}: Jacobi fails at ({i},{j},{k})"
                            )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0])

    def columns(self):
        """Basis vectors as columns of the inclusion matrix."""
        return [list(row) for row in self.basis]

    def to_ambient(self, coords):
        return [
            sum((coords[p] * self.basis[p][i] for p in range(self.dim)), Fraction(0))
            for i in range(self.ambient_dim)
        ]

    def bracket_coords(self, x, y):
        """Bracket of two coordinate vectors, in subspace coordinates."""
        dim = self.dim
        c = self.structure_constants
        return [
            sum(
                (c[k][i][j] * x[i] * y[j] for i in range(dim) for j in range(dim)),
                Fraction(0),
            )
            for k in range(dim)
        ]


class FinDimComposite:
    def __init__(self, dimension: int, basis_names, subspaces):
        self.dimension = int(dimension)
        self.basis_names = tuple(str(n) for n in basis_names)
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
    """A matrix for every ambient basis vector, all of one square size."""

    def __init__(self, space_dim: int, matrices):
        self.space_dim = int(space_dim)
        if self.space_dim < 1:
            raise MalformedInputError("representation space must be nonzero")
        out = {}
        for name, matrix in dict(matrices).items():
            rows = [
                list(_coerce_vector(row, f"matrix row of {name}")) for row in matrix
            ]
            if len(rows) != self.space_dim or any(
                len(row) != self.space_dim for row in rows
            ):
                raise MalformedInputError(
                    f"matrix for {name} is not {self.space_dim}x{self.space_dim}"
                )
            out[str(name)] = rows
        if not out:
            raise MalformedInputError("representation has no matrices")
        self.matrices = out

    @property
    def is_exact(self) -> bool:
        return all(
            isinstance(x, _EXACT_TYPES)
            for m in self.matrices.values()
            for row in m
            for x in row
        )

    def matrix(self, name: str):
        try:
            return self.matrices[name]
        except KeyError:
            raise DimensionMismatchError(f"no matrix for basis vector {name!r}") from None

    def ambient_matrix(self, vector, basis_names):
        """Matrix of T applied to an ambient coordinate vector."""
        if len(vector) != len(basis_names):
            raise DimensionMismatchError("coordinate vector has the wrong length")
        total = None
        for coeff, name in zip(vector, basis_names):
            term = [[coeff * x for x in row] for row in self.matrix(name)]
            total = term if total is None else [
                [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(total, term)
            ]
        return total


# -- axiom checks ---------------------------------------------------------


def intersect_subspaces(composite: FinDimComposite, i: int, j: int):
    """Exact basis (list of ambient vectors) of the pairwise intersection."""
    a = composite.subspaces[i]
    b = composite.subspaces[j]
    return column_space_intersection(a.columns(), b.columns())


def _entry_abs(x) -> float:
    if isinstance(x, GaussianRational):
        return float(x.abs2()) ** 0.5
    return abs(float(x))


def _max_abs(matrix) -> float:
    return max((_entry_abs(x) for row in matrix for x in row), default=0.0)


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
            coords_a = [solve_columns(a.columns(), w) for w in inter]
            coords_b = [solve_columns(b.columns(), w) for w in inter]
            witness = None
            for p in range(len(inter)):
                for q in range(len(inter)):
                    br_a = a.to_ambient(a.bracket_coords(coords_a[p], coords_a[q]))
                    br_b = b.to_ambient(b.bracket_coords(coords_b[p], coords_b[q]))
                    if not column_span_contains(inter, br_a):
                        witness = (p, q, f"bracket of {a.name} leaves the intersection")
                        break
                    if not column_span_contains(inter, br_b):
                        witness = (p, q, f"bracket of {b.name} leaves the intersection")
                        break
                    if br_a != br_b:
                        diff = [x - y for x, y in zip(br_a, br_b)]
                        witness = (p, q, f"induced brackets differ by {_vec_str(diff)}")
                        break
                if witness:
                    break
            if witness is None:
                items.append(
                    CheckItem(
                        subject=f"{label} intersection dimension {len(inter)}",
                        verdict=PASS,
                    )
                )
            else:
                p, q, why = witness
                items.append(
                    CheckItem(
                        subject=f"{label} intersection dimension {len(inter)}",
                        verdict=FAIL,
                        note=f"witness vectors {_vec_str(inter[p])}, {_vec_str(inter[q])}: {why}",
                    )
                )
    return CheckReport.build(
        "compatibility", {"subspaces": len(subs)}, items
    )


def check_dense(composite: FinDimComposite) -> bool:
    rows = [list(row) for s in composite.subspaces for row in s.basis]
    return rank(rows) == composite.dimension


def check_connected(composite: FinDimComposite) -> bool:
    subs = composite.subspaces
    n = len(subs)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and column_space_intersection(
                subs[i].columns(), subs[j].columns()
            ):
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
    tol = 1e-9 if tolerance is None else float(tolerance)
    names = composite.basis_names
    items = []
    for sub in composite.subspaces:
        mats = [rep.ambient_matrix(list(row), names) for row in sub.basis]
        for p in range(sub.dim):
            for q in range(p + 1, sub.dim):
                comm = mat_commutator(mats[p], mats[q])
                unit = [Fraction(0)] * sub.dim
                unit[p] = Fraction(1)
                other = [Fraction(0)] * sub.dim
                other[q] = Fraction(1)
                coords = sub.bracket_coords(unit, other)
                target = rep.ambient_matrix(sub.to_ambient(coords), names)
                diff = mat_sub(comm, target)
                if exact:
                    ok = all(not x for row in diff for x in row)
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
    x maps to T1(x) (x) 1 + 1 (x) T2(x)."""
    if set(rep1.matrices) != set(rep2.matrices):
        raise DomainError("representations are keyed by different basis names")
    eye1 = mat_identity(rep1.space_dim)
    eye2 = mat_identity(rep2.space_dim)
    matrices = {}
    for name, m1 in rep1.matrices.items():
        m2 = rep2.matrices[name]
        matrices[name] = [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(kron(m1, eye2), kron(eye1, m2))
        ]
    return FinDimRep(rep1.space_dim * rep2.space_dim, matrices)


def commutant_dimension(rep: FinDimRep) -> int:
    """Dimension of {S : [S, T(v)] = 0 for every basis matrix T(v)},
    by one exact null-space computation.  The dimension is insensitive to
    scalar extension; its interpretation as a Schur irreducibility test
    is only faithful over algebraically closed scalars."""
    m = rep.space_dim
    rows = []
    for matrix in rep.matrices.values():
        for i in range(m):
            for j in range(m):
                row = []
                for p in range(m):
                    for q in range(m):
                        entry = Fraction(0)
                        if p == i:
                            entry = entry + matrix[q][j]
                        if q == j:
                            entry = entry - matrix[i][p]
                        row.append(entry)
                rows.append(row)
    return len(nullspace(rows))


def is_irreducible(rep: FinDimRep) -> bool:
    """Schur test: commutant dimension exactly 1.  Over non-closed
    scalars this is evidence, not proof; callers may override with an
    asserted flag where the spec of the pipeline allows it."""
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
        return FinDimRep(data["space_dim"], data["matrices"])
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
