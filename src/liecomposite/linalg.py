"""Exact linear algebra over small fields: Gaussian rationals and generic
matrix routines (rref, rank, nullspace, Kronecker products, congruence
signature) for list-of-lists matrices.

Matrix entries may be Fraction or GaussianRational; the routines only use
field operations and truthiness for zero tests, so the two mix freely.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatchError, ParseError


class GaussianRational:
    """Element of Q(i): an exact complex number with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        s = text.replace(" ", "")
        if not s:
            raise ParseError("empty scalar")
        try:
            if not s.endswith("i"):
                return cls(Fraction(s))
            body = s[:-1]
            split = None
            for pos in range(len(body) - 1, 0, -1):
                if body[pos] in "+-" and body[pos - 1] not in "+-/":
                    split = pos
                    break
            if split is None:
                real, imag = "0", body
            else:
                real, imag = body[:split], body[split:]
            if imag in ("", "+"):
                imag = "1"
            elif imag == "-":
                imag = "-1"
            return cls(Fraction(real), Fraction(imag))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {text!r}: {exc}") from None

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def _coerced(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(o.re / d, -o.im / d)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if abs(self.im) == 1:
            imag = "i" if self.im > 0 else "-i"
        else:
            imag = f"{self.im}i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = "i" if abs(self.im) == 1 else f"{abs(self.im)}i"
        return f"{self.re}{sign}{mag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


# -- generic matrix helpers ----------------------------------------------


def mat_shape(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise DimensionMismatchError("ragged matrix")
    return rows, cols


def mat_identity(n, one=Fraction(1)):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(a, b):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if (ra, ca) != (rb, cb):
        raise DimensionMismatchError(f"add {ra}x{ca} with {rb}x{cb}")
    return [[a[i][j] + b[i][j] for j in range(ca)] for i in range(ra)]


def mat_sub(a, b):
    return mat_add(a, [[-x for x in row] for row in b])


def mat_mul(a, b):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise DimensionMismatchError(f"multiply {ra}x{ca} by {rb}x{cb}")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = a[i][0] * b[0][j]
            for k in range(1, ca):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_trace(a):
    rows, cols = mat_shape(a)
    if rows != cols:
        raise DimensionMismatchError("trace of non-square matrix")
    if rows == 0:
        return Fraction(0)
    acc = a[0][0]
    for i in range(1, rows):
        acc = acc + a[i][i]
    return acc


def kron(a, b):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    return [
        [a[i][j] * b[k][l] for j in range(ca) for l in range(cb)]
        for i in range(ra)
        for k in range(rb)
    ]


def rref(a):
    """Reduced row echelon form; returns (new matrix, pivot column list)."""
    rows, cols = mat_shape(a)
    m = [list(row) for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [m[i][j] - factor * m[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a matrix of Python ints (list of rows), by row
    echelon elimination with every entry kept in [0, p)."""
    m = [r for r in ([x % p for x in row] for row in rows) if any(r)]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], -1, p)
        pivot = [x * inv % p for x in m[r][c:]]
        for i in range(r + 1, len(m)):
            factor = m[i][c]
            if factor:
                m[i][c:] = [(x - factor * y) % p for x, y in zip(m[i][c:], pivot)]
        r += 1
    return r


def nullspace(a):
    """Basis of the right kernel, as a list of column vectors (lists)."""
    rows, cols = mat_shape(a)
    if cols == 0:
        return []
    r, pivots = rref(a)
    pivot_set = set(pivots)
    one = a[0][0] * 0 + 1  # unit of whatever field the entries live in
    zero = one * 0
    basis = []
    free = [c for c in range(cols) if c not in pivot_set]
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for prow, pc in enumerate(pivots):
            v[pc] = -r[prow][fc]
        basis.append(v)
    return basis


def column_span_contains(basis_cols, vector) -> bool:
    """Whether vector lies in the span of the given column vectors."""
    return solve_columns(basis_cols, vector) is not None


def independent_columns(cols):
    """Subset of the given column vectors forming a basis of their span:
    the first column of each new direction, in input order."""
    return [cols[c] for c in rref([list(row) for row in zip(*cols)])[1]]


def column_space_intersection(u_cols, v_cols):
    """Basis of the intersection of two column spans (lists of columns)."""
    if not u_cols or not v_cols:
        return []
    dim = len(u_cols[0])
    stacked = [
        [u_cols[j][i] for j in range(len(u_cols))]
        + [-v_cols[j][i] for j in range(len(v_cols))]
        for i in range(dim)
    ]
    vectors = []
    for null in nullspace(stacked):
        coeffs = null[: len(u_cols)]
        w = [sum(coeffs[j] * u_cols[j][i] for j in range(len(u_cols))) for i in range(dim)]
        if any(w):
            vectors.append(w)
    return independent_columns(vectors)


def solve_columns(basis_cols, vector):
    """Coordinates of vector in the span of the given columns, or None."""
    if not basis_cols:
        return [] if all(not x for x in vector) else None
    dim = len(basis_cols[0])
    ncols = len(basis_cols)
    aug = [
        [basis_cols[j][i] for j in range(ncols)] + [vector[i]] for i in range(dim)
    ]
    r, pivots = rref(aug)
    if ncols in pivots:
        return None
    zero = basis_cols[0][0] * 0
    coords = [zero] * ncols
    for row, col in enumerate(pivots):
        coords[col] = r[row][ncols]
    return coords


def symmetric_signature(a):
    """Inertia (n_plus, n_minus, n_zero) of a symmetric Fraction matrix,
    by exact congruence diagonalization."""
    rows, cols = mat_shape(a)
    if rows != cols:
        raise DimensionMismatchError("signature of non-square matrix")
    m = [[Fraction(x) for x in row] for row in a]
    if any(m[i][j] != m[j][i] for i in range(rows) for j in range(rows)):
        raise DimensionMismatchError("signature of non-symmetric matrix")
    n_plus = n_minus = n_zero = 0
    idx = list(range(rows))
    while idx:
        # find a nonzero diagonal pivot, manufacturing one by a congruence
        # row+column add if only off-diagonal entries remain
        p = next((i for i in idx if m[i][i]), None)
        if p is None:
            off = next(
                ((i, j) for i in idx for j in idx if i != j and m[i][j]), None
            )
            if off is None:
                n_zero += len(idx)
                break
            i, j = off
            for k in range(rows):
                m[i][k] += m[j][k]
            for k in range(rows):
                m[k][i] += m[k][j]
            p = i
        pivot = m[p][p]
        if pivot > 0:
            n_plus += 1
        else:
            n_minus += 1
        idx.remove(p)
        for i in idx:
            if m[i][p]:
                factor = m[i][p] / pivot
                for k in range(rows):
                    m[i][k] -= factor * m[p][k]
                for k in range(rows):
                    m[k][i] -= factor * m[k][p]
    return n_plus, n_minus, n_zero
