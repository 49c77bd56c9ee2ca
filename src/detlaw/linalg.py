"""Exact matrix and subspace linear algebra over finite fields.

Matrices are immutable and hashable; entries are stored as field codes.
One kernel, mul_codes, multiplies code tuples for Mat and the descent of reps.
2 x 2 products, determinants and inverses unroll into field table reads.
Row-space utilities (RREF, nullspace, span membership) operate on plain
tuples of codes so algebra modules can share them for ideal computations.
"""

from bisect import bisect
from itertools import combinations, product

from .errors import ShapeMismatch


class Mat:
    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, nrows, ncols, data):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = tuple(data)
        if len(self.data) != nrows * ncols:
            raise ShapeMismatch(f"{len(self.data)} entries for a {nrows}x{ncols} matrix")

    @classmethod
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        data = []
        for r in rows:
            data.extend(field.coerce(e) for e in r)
        return cls(field, len(rows), len(rows[0]) if rows else 0, data)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.ncols + j]

    def rows(self):
        c = self.ncols
        return [self.data[i * c:(i + 1) * c] for i in range(self.nrows)]

    def __add__(self, other):
        self._same_shape(other)
        F = self.field
        return Mat(F, self.nrows, self.ncols,
                   [F.add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._same_shape(other)
        F = self.field
        return Mat(F, self.nrows, self.ncols,
                   [F.sub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self):
        F = self.field
        return Mat(F, self.nrows, self.ncols, [F.neg(a) for a in self.data])

    def _require_square(self, what):
        if self.nrows != self.ncols:
            raise ShapeMismatch(f"{what} of a non-square {self.nrows}x{self.ncols} matrix")

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols or self.field != other.field:
            raise ShapeMismatch("matrix shapes/fields disagree")

    def __mul__(self, other):
        if isinstance(other, Mat):
            F = self.field
            if self.ncols != other.nrows or not (other.field is F or other.field == F):
                raise ShapeMismatch("incompatible matrix product")
            n, m = self.nrows, other.ncols
            return Mat(F, n, m, mul_codes(F, n, self.ncols, m, self.data, other.data))
        if isinstance(other, int):
            F = self.field
            code = F.coerce(other)
            return Mat(F, self.nrows, self.ncols, [F.mul(a, code) for a in self.data])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def apply(self, vec):
        """Matrix times a column vector of codes."""
        return mul_codes(self.field, self.nrows, self.ncols, 1, self.data, vec)

    def __pow__(self, e):
        self._require_square("power")
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a non-negative int, got {e!r}")
        if e == 0:
            return Mat.identity(self.field, self.nrows)
        # identity * b == b, so the first factor is taken as is
        r = None
        b = self
        while True:
            if e & 1:
                r = b if r is None else r * b
            e >>= 1
            if not e:
                return r
            b = b * b

    def det(self):
        self._require_square("determinant")
        F = self.field
        n = self.nrows
        if n == 2:
            q, mul = F.q, F._mul
            a, b, c, d = self.data
            return F._add[mul[a * q + d] * q + F._neg[mul[b * q + c]]]
        rows = [list(r) for r in self.rows()]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if rows[r][col]), None)
            if piv is None:
                return 0
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = F.neg(det)
            inv = F.inv(rows[col][col])
            det = F.mul(det, rows[col][col])
            for r in range(col + 1, n):
                f = F.mul(rows[r][col], inv)
                if f:
                    rows[r][col:] = F.sub_mul_row(rows[r][col:], f, rows[col][col:])
        return det

    def char_poly_coeffs(self):
        """Coefficients (c_1, ..., c_n) with det(tI - M) = t^n + sum (-1)^i c_i t^{n-i}.

        c_i is the sum of the i x i principal minors (exact, no division).
        """
        F = self.field
        n = self.nrows
        out = []
        for i in range(1, n + 1):
            acc = 0
            for subset in combinations(range(n), i):
                sub = Mat(F, i, i, [self[r, c] for r in subset for c in subset])
                acc = F.add(acc, sub.det())
            out.append(acc)
        return tuple(out)

    def inverse(self):
        self._require_square("inverse")
        F = self.field
        n = self.nrows
        if n == 2:
            # the adjugate over the determinant
            det = self.det()
            if not det:
                raise ZeroDivisionError("matrix not invertible")
            q, mul, neg = F.q, F._mul, F._neg
            a, b, c, d = self.data
            i = F._inv[det] * q
            return Mat(F, 2, 2, (mul[i + d], neg[mul[i + b]], neg[mul[i + c]], mul[i + a]))
        rows = [list(r) + [1 if i == j else 0 for j in range(n)]
                for i, r in enumerate(self.rows())]
        for col in range(n):
            piv = next((r for r in range(col, n) if rows[r][col]), None)
            if piv is None:
                raise ZeroDivisionError("matrix not invertible")
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = F.inv(rows[col][col])
            rows[col] = [F.mul(inv, x) for x in rows[col]]
            for r in range(n):
                if r != col and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = F.sub_mul_row(rows[r], f, rows[col])
        return Mat(F, n, n, [x for row in rows for x in row[n:]])

    def is_identity(self):
        return self == Mat.identity(self.field, self.nrows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.data == other.data
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.nrows, self.ncols, self.data))

    def __repr__(self):
        rows = [" ".join(map(self.field.format_code, row)) for row in self.rows()]
        return "[" + "; ".join(rows) + "]"


def mul_codes(F, n, k, m, a, b):
    """The code tuple of the product of an n x k and a k x m matrix given by
    their code tuples a and b; shapes are not checked."""
    if n == k == m == 2:
        # eight products, four sums
        q, add, mul = F.q, F._add, F._mul
        a0, a1, a2, a3 = a[0] * q, a[1] * q, a[2] * q, a[3] * q
        b0, b1, b2, b3 = b
        return (add[mul[a0 + b0] * q + mul[a1 + b2]],
                add[mul[a0 + b1] * q + mul[a1 + b3]],
                add[mul[a2 + b0] * q + mul[a3 + b2]],
                add[mul[a2 + b1] * q + mul[a3 + b3]])
    out = [0] * (n * m)
    for i in range(n):
        base = i * k
        for l in range(k):
            x = a[base + l]
            if x:
                brow = l * m
                orow = i * m
                for j in range(m):
                    y = b[brow + j]
                    if y:
                        out[orow + j] = F.add(out[orow + j], F.mul(x, y))
    return tuple(out)


def block_matrix(field, n, blocks):
    """The n x n matrix that is zero outside blocks, a list of (row, column,
    M) with the top-left entry of the matrix M at (row, column)."""
    data = [0] * (n * n)
    for r0, c0, M in blocks:
        for r, row in enumerate(M.rows(), start=r0):
            data[r * n + c0:r * n + c0 + M.ncols] = row
    return Mat(field, n, n, data)


def _cycles(perm):
    """The cycles of a permutation of range(n), each listed from its least
    element, in order of those elements."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        out.append(cyc)
    return out


def _perm_sign(perm):
    return -1 if (len(perm) - len(_cycles(perm))) % 2 else 1


# --- row-space utilities over code tuples ---

def rref(field, rows):
    """Reduced row echelon form; returns (basis rows, pivot columns)."""
    basis, pivots = [], []
    for row in rows:
        if any(row):
            _adjoin(field, basis, pivots, reduce_vector(field, row, basis, pivots))
    return [tuple(b) for b in basis], pivots


def _adjoin(field, basis, pivots, row):
    """Add a row already reduced against an RREF basis (lists of codes,
    pivots ascending), keeping the basis in RREF.  Returns False, adding
    nothing, when the row is zero."""
    F = field
    piv = next((i for i, x in enumerate(row) if x), None)
    if piv is None:
        return False
    inv = F.inv(row[piv])
    row = [F.mul(inv, x) for x in row]
    for b in basis:
        if b[piv]:
            b[:] = F.sub_mul_row(b, b[piv], row)
    at = bisect(pivots, piv)
    basis.insert(at, row)
    pivots.insert(at, piv)
    return True


def reduce_vector(field, vec, basis, pivots):
    """Reduce vec against an RREF basis; returns the remainder tuple."""
    F = field
    row = list(vec)
    for b, p in zip(basis, pivots):
        if row[p]:
            row = F.sub_mul_row(row, row[p], b)
    return tuple(row)


def in_span(field, vec, basis, pivots):
    return not any(reduce_vector(field, vec, basis, pivots))


def span_closure(field, rows, maps, bound=None):
    """The smallest subspace that contains rows and that every linear map in
    maps (callables on code tuples) sends into itself, as (RREF basis,
    pivots).  Each vector that enlarges the span is mapped once.

    Rows are read one at a time and each is closed under maps before the
    next is read.  With ``bound`` no further row is read once the span
    reaches that dimension: the result is then the closure of the rows read
    so far, which is the whole closure whenever bound is an upper bound on
    its dimension."""
    basis, pivots, added = [], [], []

    def grow(vec):
        r = reduce_vector(field, vec, basis, pivots)
        if _adjoin(field, basis, pivots, r):
            added.append(r)

    rows = iter(rows)
    while bound is None or len(basis) < bound:
        v = next(rows, None)
        if v is None:
            break
        grow(v)
        for w in added:  # grows while it is walked
            for f in maps:
                grow(f(w))
        added.clear()
    return [tuple(b) for b in basis], pivots


def is_stable(field, basis, pivots, maps):
    """True iff every map in maps sends the span of an RREF basis into itself."""
    return all(in_span(field, f(v), basis, pivots) for v in basis for f in maps)


def nullspace(field, mat_rows, ncols):
    """Basis of the right nullspace of the matrix given by rows (code tuples)."""
    F = field
    basis, pivots = rref(field, mat_rows)
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for b, p in zip(basis, pivots):
            vec[p] = F.neg(b[f])
        out.append(tuple(vec))
    return out


def solve(field, mat_rows, ncols, rhs):
    """One solution x of A x = rhs, or None; A given by rows."""
    F = field
    aug = [tuple(r) + (v,) for r, v in zip(mat_rows, rhs)]
    basis, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for b, p in zip(basis, pivots):
        x[p] = b[ncols]
    return tuple(x)


def intersect_spans(field, rows1, rows2, n):
    """Basis of the intersection of two row spaces in F^n (Zassenhaus)."""
    b1, _ = rref(field, rows1)
    b2, _ = rref(field, rows2)
    stacked = [tuple(r) + tuple(r) for r in b1] + [tuple(r) + (0,) * n for r in b2]
    basis, pivots = rref(field, stacked)
    out = []
    for b, p in zip(basis, pivots):
        if p >= n:
            out.append(tuple(b[n:]))
    result, _ = rref(field, out)
    return result


def combine(field, coeffs, rows):
    """The code tuple sum_i coeffs[i] * rows[i]; rows must be nonempty."""
    F = field
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = F.sub_mul_row(out, F.neg(c), row)
    return tuple(out)


def projective_points(q, m):
    """One vector per line of F_q^m, scaled so its first nonzero coordinate
    is 1; lines whose leading coordinate comes earlier come first."""
    for lead in range(m):
        for rest in product(range(q), repeat=m - lead - 1):
            yield (0,) * lead + (1,) + rest


def proj_point_count(q, m):
    """The number of lines in F_q^m, that is |P^{m-1}(F_q)|."""
    return (q ** m - 1) // (q - 1)


def all_subspaces(field, n, k):
    """All k-dimensional subspaces of F^n as canonical RREF bases.

    Enumerated by pivot-column choice then free entries; deterministic order.
    """
    q = field.q
    for pivots in combinations(range(n), k):
        free_positions = []
        for r, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in product(range(q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            yield [tuple(r) for r in rows]


def gl_order(q, d):
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out
