"""Exact linear algebra over Q(i): the integer matrix type ZMatrix, one
fraction-free elimination for the rank and every span question (rref,
nullspace, coordinates, intersections), rank over F_p, Kronecker
products and the congruence signature.

Every exact computation runs on sparse Gaussian-integer rows: a ZMatrix
keeps one positive denominator and rows {column: (re, im)} of Python
ints.  GaussianRational only parses, prints and compares scalars at the
boundary; it does no arithmetic.  ZMatrix is the one matrix type: the
mat_* helpers and kron are its operations under the names callers look up.
The span routines on lists of rows (rref, nullspace, solve_columns, ...)
take and return exact scalars (Fraction or GaussianRational) and convert
to ZMatrix at entry and back at exit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from .errors import DimensionMismatchError, ParseError


class GaussianRational:
    """Element of Q(i): an exact complex number with rational parts.  A
    value type: it parses, prints, compares and hashes, and arithmetic on
    Q(i) runs on ZMatrix integers instead."""

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

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

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

    @classmethod
    def identity(cls, n: int):
        return cls(1, [{k: (1, 0)} for k in range(n)], n)

    def to_rows(self):
        zero = Fraction(0)
        return [
            [_scalar(*row[j], self.den) if j in row else zero for j in range(self.ncols)]
            for row in self.rows
        ]

    def __bool__(self):
        return any(self.rows)

    def reduced(self):
        """The same matrix over the least denominator, the lcm of its entries'."""
        g = gcd(self.den, *(x for row in self.rows for entry in row.values() for x in entry))
        rows = [{j: (r // g, i // g) for j, (r, i) in row.items()} for row in self.rows]
        return ZMatrix(self.den // g, rows, self.ncols)

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

    def trace(self, divisor: int = 1):
        """The trace over divisor, from the diagonal numerators over den * divisor."""
        diagonal = [row[k] for k, row in enumerate(self.rows) if k in row]
        re, im = sum(r for r, _ in diagonal), sum(i for _, i in diagonal)
        return _scalar(re, im, self.den * divisor)

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


# -- matrix helpers ------------------------------------------------------------


def mat_shape(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise DimensionMismatchError("ragged matrix")
    return rows, cols


def mat_add(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    return a.add(b)


def mat_sub(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    return a.add(b, -1)


def mat_mul(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    return a @ b


def mat_commutator(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_trace(a: ZMatrix):
    return a.trace()


def kron(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    return a.kron(b)


def _pivot_mod_p(v: dict, pivots: dict, p: int, width=inf) -> bool:
    """Reduce the sparse row v {column: residue} in place by the pivot rows
    {leading column: row leading with 1}; if its leading column is then
    new and below width, keep v there as a pivot row and return True."""
    while v and (c := min(v)) < width:
        if c not in pivots:
            inv = pow(v[c], -1, p)
            pivots[c] = {j: x * inv % p for j, x in v.items()}
            return True
        f = v[c]
        for j, y in pivots[c].items():
            x = (v.get(j, 0) - f * y) % p
            if x:
                v[j] = x
            else:
                v.pop(j, None)
    return False


def rank_mod_p(rows, p: int, root: int, ceiling=None) -> int:
    """Rank over F_p of sparse rows {column: (re, im)} of Gaussian
    integers, with i mapped to root (a square root of -1 mod p).  Each
    row is reduced against the pivot rows kept so far, one per leading
    column and scaled to lead with 1, entries in [0, p).  Once the rank
    reaches ceiling it is returned, and no further row is read."""
    pivots, rows = {}, iter(rows)
    while len(pivots) != ceiling and (row := next(rows, None)) is not None:
        _pivot_mod_p({j: x for j, (r, i) in row.items() if (x := (r + root * i) % p)}, pivots, p)
    return len(pivots)


# -- rank and span questions on one fraction-free elimination -----------------


def _content_free(row: dict) -> dict:
    g = gcd(*(x for entry in row.values() for x in entry))
    return row if g == 1 else {j: (r // g, i // g) for j, (r, i) in row.items()}


def _eliminate(row: dict, pivot_row: dict, c: int) -> dict:
    """d * row - row[c] * pivot_row, with d the integer at pivot_row[c]."""
    d, (fr, fi) = pivot_row[c][0], row[c]
    out = {j: (d * r, d * i) for j, (r, i) in row.items()}
    for j, (pr, pi) in pivot_row.items():
        r0, i0 = out.pop(j, (0, 0))
        r, i = r0 - fr * pr + fi * pi, i0 - fr * pi - fi * pr
        if r or i:
            out[j] = (r, i)
    return _content_free(out)


def echelon(rows) -> tuple:
    """Reduced row echelon form of sparse Gaussian-integer rows
    {column: (re, im)} by fraction-free Gauss-Jordan elimination: returns
    (rows, pivots), one row per pivot column in increasing order.  A row
    holds a positive integer d at its pivot, zeros at the other pivots,
    and integer content 1; divided by d it is the row of the (unique)
    reduced echelon form over Q(i).  Each new row is reduced by the pivot
    rows so far, multiplied by the conjugate of its leading entry, and
    cleared from the earlier pivot rows."""
    pivots = {}
    for row in rows:
        for c in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[c], c)
        if row:
            c = min(row)
            pr, pi = row[c]
            row = _content_free(
                {j: (r * pr + i * pi, i * pr - r * pi) for j, (r, i) in row.items()}
            )
            for k, other in pivots.items():
                if c in other:
                    pivots[k] = _eliminate(other, row, c)
            pivots[c] = row
    return [pivots[c] for c in sorted(pivots)], sorted(pivots)


def rank(a) -> int:
    """Rank over Q(i) of a list of rows, each a list of exact scalars or a
    sparse dict {column: (re, im)} of Gaussian integers (ZMatrix.flat):
    the number of pivots echelon finds."""
    rows = [row if isinstance(row, dict) else ZMatrix.from_rows([row]).rows[0] for row in a]
    return len(echelon(rows)[1])


def _kernel(a: ZMatrix) -> ZMatrix:
    """Right kernel basis, one row per free column in increasing order: 1
    there and minus the reduced echelon entry of that column at each
    pivot."""
    reduced, pivots = echelon(a.rows)
    den = lcm(*(row[c][0] for row, c in zip(reduced, pivots)))
    basis = []
    for free in sorted(set(range(a.ncols)) - set(pivots)):
        vector = {free: (den, 0)}
        for row, c in zip(reduced, pivots):
            if free in row:
                f = den // row[c][0]
                vector[c] = (-row[free][0] * f, -row[free][1] * f)
        basis.append(vector)
    return ZMatrix(den, basis, a.ncols)


def _transposes(*blocks) -> ZMatrix:
    """[A^T | B^T | ...] for ZMatrix blocks of rows of one length."""
    den = lcm(*(block.den for block in blocks))
    out, offset = [{} for _ in range(blocks[0].ncols)], 0
    for block in blocks:
        for k, row in enumerate(block.rows):
            for i, (r, im) in row.items():
                out[i][offset + k] = (r * (den // block.den), im * (den // block.den))
        offset += len(block.rows)
    return ZMatrix(den, out, offset)


def coordinates(basis: ZMatrix, vectors: ZMatrix):
    """X with X @ basis = vectors, zero at basis rows that depend on
    earlier ones, or None if a row of vectors is outside the span: the
    kernel rows of [basis^T | -vectors^T] at the vector columns."""
    n = len(basis.rows)
    kernel = _kernel(_transposes(basis, vectors.scale(-1)))
    x = [row for row in kernel.rows if max(row) >= n]
    if len(x) < len(vectors.rows):
        return None
    return ZMatrix(kernel.den, [{j: e for j, e in row.items() if j < n} for row in x], n)


def rref(a):
    """Reduced row echelon form; returns (new matrix, pivot column list)."""
    rows, cols = mat_shape(a)
    reduced, pivots = echelon(ZMatrix.from_rows(a).rows)
    zero = Fraction(0)
    m = [
        [_scalar(*row[j], row[c][0]) if j in row else zero for j in range(cols)]
        for row, c in zip(reduced, pivots)
    ]
    return m + [[zero] * cols for _ in range(rows - len(m))], pivots


def nullspace(a):
    """Basis of the right kernel, as a list of column vectors (lists)."""
    return _kernel(ZMatrix.from_rows(a)).to_rows() if mat_shape(a)[1] else []


def column_span_contains(basis_cols, vector) -> bool:
    """Whether vector lies in the span of the given column vectors."""
    return solve_columns(basis_cols, vector) is not None


def independent_columns(cols):
    """Subset of the given column vectors forming a basis of their span:
    the first column of each new direction, in input order."""
    return [cols[c] for c in echelon(_transposes(ZMatrix.from_rows(cols)).rows)[1]]


def column_space_intersection(u_cols, v_cols):
    """Basis of the intersection of two column spans (lists of columns):
    the nonzero U x over a kernel basis (x, y) of [U | -V], thinned to
    independent vectors."""
    if not u_cols or not v_cols:
        return []
    u, n = ZMatrix.from_rows(u_cols), len(u_cols)
    kernel = _kernel(_transposes(u, ZMatrix.from_rows(v_cols).scale(-1)))
    x = ZMatrix(kernel.den, [{j: e for j, e in row.items() if j < n} for row in kernel.rows], n)
    return independent_columns([w for w in (x @ u).to_rows() if any(w)])


def solve_columns(basis_cols, vector):
    """Coordinates of vector in the span of the given columns, or None."""
    if not basis_cols:
        return [] if all(not x for x in vector) else None
    x = coordinates(ZMatrix.from_rows(basis_cols), ZMatrix.from_rows([vector]))
    return None if x is None else x.to_rows()[0]


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
