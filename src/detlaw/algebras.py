"""Finite-dimensional associative unital algebras over finite fields.

Structure constants are stored sparsely: sc[i][j] is a tuple of (k, code)
pairs with e_i * e_j = sum_k code * e_k.  Coordinate vectors are tuples of
field codes.  Everything is immutable after construction.
"""

from functools import cached_property, partial

from .errors import BadGroupTable, NotAnIdeal
from .linalg import Mat, is_stable, reduce_vector, rref, span_closure
from .poly import MPoly, _add_into


class FinAlgebra:
    def __init__(self, field, labels, sc, unit, check=True, name=None):
        self.field = field
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.sc = tuple(tuple(tuple(pairs) for pairs in row) for row in sc)
        self.unit = tuple(unit)
        self.name = name or "A"
        if check:
            self._verify()

    # --- basic arithmetic on coordinate vectors (code tuples) ---

    def zero_vec(self):
        return (0,) * self.n

    @cached_property
    def basis(self):
        """The basis elements e_0..e_{n-1} as coordinate vectors."""
        n = self.n
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def multiplication_maps(self):
        """x -> e_i x and x -> x e_i for each basis element e_i, in that order:
        the maps whose stable subspaces are the two-sided ideals."""
        mul = self.mul
        return [f for e in self.basis
                for f in (partial(mul, e), lambda x, e=e: mul(x, e))]

    def add(self, x, y):
        F = self.field
        return tuple(F.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        F = self.field
        return tuple(F.sub(a, b) for a, b in zip(x, y))

    def smul(self, c, x):
        F = self.field
        return tuple(F.mul(c, a) for a in x)

    def mul(self, x, y):
        """The product of coordinate vectors: two field table reads per
        structure constant; on F[G], the convolution."""
        F = self.field
        out = [0] * self.n
        xs = [(i, xi) for i, xi in enumerate(x) if xi]
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        tmul, tadd, q = F._mul, F._add, F.q
        for i, xi in xs:
            row = self.sc[i]
            xq = xi * q
            for j, yj in ys:
                cq = tmul[xq + yj] * q
                for k, s in row[j]:
                    out[k] = tadd[out[k] * q + tmul[cq + s]]
        return tuple(out)

    def mul_poly(self, x, y, zero):
        """Multiply vectors whose coordinates are MPoly in the field and
        variables of ``zero``, adding each product into the result in place."""
        F = zero.field
        out = [{} for _ in range(self.n)]
        ys = [(j, yj) for j, yj in enumerate(y) if not yj.is_zero()]
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            row = self.sc[i]
            for j, yj in ys:
                c = xi * yj
                for k, s in row[j]:
                    _add_into(F, out[k], (c if s == 1 else c.scale(s)).terms.items())
        return tuple(MPoly(F, zero.vars, t) for t in out)

    # --- verification ---

    def _verify(self):
        for i in range(self.n):
            u = self.mul(self.unit, self.basis[i])
            v = self.mul(self.basis[i], self.unit)
            if u != self.basis[i] or v != self.basis[i]:
                raise BadGroupTable(f"unit fails on basis element {i}")
        for i in range(self.n):
            for j in range(self.n):
                eij = self.mul(self.basis[i], self.basis[j])
                for k in range(self.n):
                    left = self.mul(eij, self.basis[k])
                    right = self.mul(self.basis[i],
                                     self.mul(self.basis[j], self.basis[k]))
                    if left != right:
                        raise BadGroupTable(f"associativity fails at ({i},{j},{k})")

    # --- derived structure ---

    def left_mult_matrix(self, x):
        cols = [self.mul(x, e) for e in self.basis]
        data = [cols[j][i] for i in range(self.n) for j in range(self.n)]
        return Mat(self.field, self.n, self.n, data)

    def __repr__(self):
        return f"{self.name}(dim={self.n} over {self.field})"


class GroupAlgebra(FinAlgebra):
    def __init__(self, group, field):
        n = group.order
        sc = [[((group.table[i][j], 1),) for j in range(n)] for i in range(n)]
        unit = [1 if i == group.identity else 0 for i in range(n)]
        labels = [f"g{i}" for i in range(n)]
        super().__init__(field, labels, sc, unit, check=False, name=f"F[{group.name}]")
        self.group = group

    def multiplication_maps(self):
        """x -> g x and x -> x g for each generator g of G, as coordinate
        permutations.  A subspace stable under these is stable under every
        group element (g^-1 is a power of g), so it is a two-sided ideal."""
        G = self.group
        perms = [p for h in map(G.inverse, G.generators)
                 for p in (G.table[h], tuple(row[h] for row in G.table))]
        return [lambda x, p=p: tuple(map(x.__getitem__, p)) for p in perms]


def group_algebra(group, field):
    """The group algebra F[G]; structure constants are the group table."""
    return GroupAlgebra(group, field)


class Ideal:
    """A two-sided ideal, stored as a canonical RREF basis of coordinate rows."""

    def __init__(self, parent, rows, check=True):
        self.parent = parent
        basis, pivots = rref(parent.field, rows)
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)
        if check and not self._closed():
            raise NotAnIdeal("basis not closed under two-sided multiplication")

    @property
    def dim(self):
        return len(self.basis)

    def _closed(self):
        A = self.parent
        return is_stable(A.field, self.basis, self.pivots, A.multiplication_maps())

    def reduce(self, vec):
        return reduce_vector(self.parent.field, vec, self.basis, self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.parent is other.parent
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Ideal(dim={self.dim} in {self.parent.name})"


def ideal_generated(algebra, elems, bound=None):
    """Smallest two-sided ideal containing elems, by span closure; elems may
    be a lazy iterable, read only until the ideal reaches dimension bound."""
    basis, _ = span_closure(algebra.field, elems, algebra.multiplication_maps(), bound)
    return Ideal(algebra, basis, check=False)


def quotient(algebra, ideal):
    """Quotient algebra R/I with the projection and a section of lifts.

    Returns (Q, project, lift) where project maps R-coordinates to
    Q-coordinates and lift sends a Q-basis index to an R-coordinate vector.
    """
    A = algebra
    if ideal.parent is not A or not ideal._closed():
        raise NotAnIdeal("not a two-sided ideal of this algebra")
    free = [j for j in range(A.n) if j not in ideal.pivots]
    m = len(free)

    def project(vec):
        r = ideal.reduce(vec)
        return tuple(r[j] for j in free)

    def lift(qvec):
        out = [0] * A.n
        for pos, j in enumerate(free):
            out[j] = qvec[pos]
        return tuple(out)

    sc = []
    for a in range(m):
        row = []
        for b in range(m):
            prod = project(A.mul(A.basis[free[a]], A.basis[free[b]]))
            row.append(tuple((k, c) for k, c in enumerate(prod) if c))
        sc.append(row)
    unit = project(A.unit)
    labels = [A.labels[j] for j in free]
    Q = FinAlgebra(A.field, labels, sc, unit, check=True, name=f"{A.name}/I")
    return Q, project, lift
