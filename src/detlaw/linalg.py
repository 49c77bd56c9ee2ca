"""Exact matrix and subspace linear algebra over finite fields.

Matrices are immutable and hashable; entries are stored as field codes.
Over fields with tables, 2 x 2 products, determinants and inverses are
unrolled into table lookups; every other shape runs the general loops.
Row-space utilities (RREF, nullspace, span membership) operate on plain
tuples of codes so algebra modules can share them for ideal computations.
"""

from itertools import permutations

from .errors import ShapeMismatch
from .fields import FFElem


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

    @classmethod
    def zero(cls, field, n, m=None):
        m = n if m is None else m
        return cls(field, n, m, [0] * (n * m))

    @classmethod
    def scalar(cls, field, n, code):
        return cls(field, n, n, [code if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.ncols + j]

    def entry(self, i, j):
        return FFElem(self.field, self[i, j])

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
            n, k, m = self.nrows, self.ncols, other.ncols
            a, b = self.data, other.data
            mul = F._mul
            if mul is not None and n == k == m == 2:
                # 2x2 over a tabled field: eight products, four sums
                q, add = F.q, F._add
                a0, a1, a2, a3 = a[0] * q, a[1] * q, a[2] * q, a[3] * q
                b0, b1, b2, b3 = b
                return Mat(F, 2, 2, (add[mul[a0 + b0] * q + mul[a1 + b2]],
                                     add[mul[a0 + b1] * q + mul[a1 + b3]],
                                     add[mul[a2 + b0] * q + mul[a3 + b2]],
                                     add[mul[a2 + b1] * q + mul[a3 + b3]]))
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
            return Mat(F, n, m, out)
        if isinstance(other, (int, FFElem)):
            F = self.field
            code = F.coerce(other)
            return Mat(F, self.nrows, self.ncols, [F.mul(a, code) for a in self.data])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, FFElem)):
            return self * other
        return NotImplemented

    def apply(self, vec):
        """Matrix times a column vector of codes."""
        F = self.field
        n, m = self.nrows, self.ncols
        out = [0] * n
        for i in range(n):
            acc = 0
            base = i * m
            for j in range(m):
                a = self.data[base + j]
                if a and vec[j]:
                    acc = F.add(acc, F.mul(a, vec[j]))
            out[i] = acc
        return tuple(out)

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

    def trace(self):
        F = self.field
        acc = 0
        for i in range(self.nrows):
            acc = F.add(acc, self[i, i])
        return acc

    def det(self):
        self._require_square("determinant")
        F = self.field
        n = self.nrows
        if n == 2 and F._mul is not None:
            q, mul = F.q, F._mul
            a, b, c, d = self.data
            return F._add[mul[a * q + d] * q + F._neg[mul[b * q + c]]]
        if n <= 3:
            acc = 0
            for perm in permutations(range(n)):
                t = 1
                for i, j in enumerate(perm):
                    t = F.mul(t, self[i, j])
                    if not t:
                        break
                if t:
                    t = t if _perm_sign(perm) > 0 else F.neg(t)
                    acc = F.add(acc, t)
            return acc
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
        from itertools import combinations

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
        if n == 2 and F._mul is not None:
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
        rows = [" ".join(str(self.field.elem(x)) for x in row) for row in self.rows()]
        return "[" + "; ".join(rows) + "]"


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# --- row-space utilities over code tuples ---

def rref(field, rows):
    """Reduced row echelon form; returns (basis rows, pivot columns)."""
    F = field
    work = [list(r) for r in rows if any(r)]
    basis = []
    pivots = []
    for row in work:
        for b, p in zip(basis, pivots):
            if row[p]:
                row[:] = F.sub_mul_row(row, row[p], b)
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            continue
        inv = F.inv(row[piv])
        row[:] = [F.mul(inv, x) for x in row]
        for b, p in zip(basis, pivots):
            if b[piv]:
                b[:] = F.sub_mul_row(b, b[piv], row)
        basis.append(row)
        pivots.append(piv)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [tuple(basis[i]) for i in order], [pivots[i] for i in order]


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


def span_dim(field, rows):
    basis, _ = rref(field, rows)
    return len(basis)


def all_vectors(field, n):
    """All code tuples in F^n, in lexicographic code order."""
    if n == 0:
        yield ()
        return
    for rest in all_vectors(field, n - 1):
        for c in range(field.q):
            yield (c,) + rest


def all_subspaces(field, n, k):
    """All k-dimensional subspaces of F^n as canonical RREF bases.

    Enumerated by pivot-column choice then free entries; deterministic order.
    """
    from itertools import combinations, product

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
