"""Exact linear algebra over small fields: Gaussian rationals, the integer
matrix type ZMatrix, and matrix routines (rref, rank, nullspace, Kronecker
products, congruence signature).

List-of-lists matrices may hold Fraction, GaussianRational or float
entries; those routines only use field operations and truthiness for zero
tests, so the types mix freely.  An exact matrix can instead be a ZMatrix,
whose arithmetic stays in Python ints; the product, sum, trace and
Kronecker helpers accept either form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def _gauss(x):
    """An exact scalar as (re, im, den): Gaussian-integer numerator over a
    positive integer denominator."""
    re, im = (x.re, x.im) if isinstance(x, GaussianRational) else (x, 0)
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def _scalar(re: int, im: int, den: int):
    """(re + im i) / den as a Fraction, or a GaussianRational if im != 0."""
    return Fraction(re, den) if not im else GaussianRational(Fraction(re, den), Fraction(im, den))


class ZMatrix:
    """An exact Q(i) matrix kept in integers: one positive denominator
    ``den`` and sparse ``rows``, each a dict {column: (re, im)} of nonzero
    Gaussian-integer numerators.  Arithmetic never leaves Python ints, and
    zero entries are neither stored nor multiplied."""

    __slots__ = ("den", "rows", "ncols")

    def __init__(self, den: int, rows: list, ncols: int):
        self.den, self.rows, self.ncols = den, rows, ncols

    @classmethod
    def from_rows(cls, a):
        entries = [[_gauss(x) for x in row] for row in a]
        den = lcm(*(d for row in entries for _, _, d in row))
        rows = [
            {j: (r * (den // d), i * (den // d)) for j, (r, i, d) in enumerate(row) if r or i}
            for row in entries
        ]
        return cls(den, rows, len(a[0]) if a else 0)

    def to_rows(self):
        zero = Fraction(0)
        return [
            [_scalar(*row[j], self.den) if j in row else zero for j in range(self.ncols)]
            for row in self.rows
        ]

    def __bool__(self):
        return any(self.rows)

    def add(self, other, sign: int = 1):
        """self + sign * other."""
        if (len(self.rows), self.ncols) != (len(other.rows), other.ncols):
            raise DimensionMismatchError("add matrices of different shapes")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = []
        for arow, brow in zip(self.rows, other.rows):
            row = {j: (r * fa, i * fa) for j, (r, i) in arow.items()}
            for j, (r, i) in brow.items():
                r0, i0 = row.pop(j, (0, 0))
                if r0 + r * fb or i0 + i * fb:
                    row[j] = (r0 + r * fb, i0 + i * fb)
            out.append(row)
        return ZMatrix(den, out, self.ncols)

    def __matmul__(self, other):
        if self.ncols != len(other.rows):
            raise DimensionMismatchError(f"multiply by {len(other.rows)} rows, need {self.ncols}")
        out = []
        for arow in self.rows:
            acc = {}
            for k, (ar, ai) in arow.items():
                for j, (br, bi) in other.rows[k].items():
                    r0, i0 = acc.get(j, (0, 0))
                    acc[j] = (r0 + ar * br - ai * bi, i0 + ar * bi + ai * br)
            out.append({j: e for j, e in acc.items() if e[0] or e[1]})
        return ZMatrix(self.den * other.den, out, other.ncols)

    def scale(self, scalar):
        sr, si, sd = _gauss(scalar)
        if not (sr or si):
            return ZMatrix(1, [{} for _ in self.rows], self.ncols)
        rows = [
            {j: (r * sr - i * si, r * si + i * sr) for j, (r, i) in row.items()}
            for row in self.rows
        ]
        return ZMatrix(self.den * sd, rows, self.ncols)

    def trace(self):
        diagonal = [row[k] for k, row in enumerate(self.rows) if k in row]
        return _scalar(sum(r for r, _ in diagonal), sum(i for _, i in diagonal), self.den)

    def kron(self, other):
        rows = [
            {
                j * other.ncols + l: (ar * br - ai * bi, ar * bi + ai * br)
                for j, (ar, ai) in arow.items()
                for l, (br, bi) in brow.items()
            }
            for arow in self.rows
            for brow in other.rows
        ]
        return ZMatrix(self.den * other.den, rows, self.ncols * other.ncols)

    def flat(self) -> dict:
        """All entries times den as one sparse row, row-major."""
        return {k * self.ncols + j: e for k, row in enumerate(self.rows) for j, e in row.items()}


# -- matrix helpers: lists of rows, or ZMatrix --------------------------------


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
    if isinstance(a, ZMatrix):
        return a.add(b)
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if (ra, ca) != (rb, cb):
        raise DimensionMismatchError(f"add {ra}x{ca} with {rb}x{cb}")
    return [[a[i][j] + b[i][j] for j in range(ca)] for i in range(ra)]


def mat_sub(a, b):
    if isinstance(a, ZMatrix):
        return a.add(b, -1)
    return mat_add(a, [[-x for x in row] for row in b])


def mat_mul(a, b):
    if isinstance(a, ZMatrix):
        return a @ b
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
    if isinstance(a, ZMatrix):
        return a.trace()
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
    if isinstance(a, ZMatrix):
        return a.kron(b)
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
    """Rank over Q(i) of a list of rows, each a list of exact scalars or a
    sparse dict {column: (re, im)} of Gaussian integers (ZMatrix.flat),
    by fraction-free elimination in Z[i] (Bareiss, Math. Comp. 22, 1968):
    a step cross-multiplies by the pivot and divides exactly by the one
    before, so every entry stays a minor of the denominator-free rows."""
    rows = [row if isinstance(row, dict) else ZMatrix.from_rows([row]).rows[0] for row in a]
    rows = [row for row in rows if row]
    pr, pi, found = 1, 0, 0
    while rows:
        top = rows.pop()
        c = min(top)
        tr, ti = top[c]
        norm = pr * pr + pi * pi
        reduced = []
        for row in rows:
            fr, fi = row.get(c, (0, 0))
            new = {}
            for j in row.keys() | top.keys():
                xr, xi = row.get(j, (0, 0))
                yr, yi = top.get(j, (0, 0))
                zr = tr * xr - ti * xi - fr * yr + fi * yi
                zi = tr * xi + ti * xr - fr * yi - fi * yr
                if zr or zi:
                    new[j] = ((zr * pr + zi * pi) // norm, (zi * pr - zr * pi) // norm)
            if new:
                reduced.append(new)
        rows, pr, pi, found = reduced, tr, ti, found + 1
    return found


def rank_mod_p(rows, p: int, root: int) -> int:
    """Rank over F_p of sparse rows {column: (re, im)} of Gaussian
    integers, with i mapped to root (a square root of -1 mod p).  Each
    row is reduced against the pivot rows kept so far, one per leading
    column and scaled to lead with 1, entries in [0, p)."""
    pivots = {}
    for row in rows:
        v = {j: x for j, (r, i) in row.items() if (x := (r + root * i) % p)}
        while v:
            c = min(v)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(v[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in v.items()}
                break
            f = v[c]
            for j, y in pivot.items():
                x = (v.get(j, 0) - f * y) % p
                if x:
                    v[j] = x
                else:
                    v.pop(j, None)
    return len(pivots)


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
