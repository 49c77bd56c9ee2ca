"""Finite-dimensional associative unital algebras over finite fields.

Structure constants are stored sparsely: sc[i][j] is a tuple of (k, code)
pairs with e_i * e_j = sum_k code * e_k.  Coordinate vectors are tuples of
field codes.  Everything is immutable after construction.
"""

import re

from .errors import BadGroupTable, DimensionCapExceeded, NotAnIdeal
from .linalg import in_span, reduce_vector, rref


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

    def basis_vec(self, i):
        return tuple(1 if j == i else 0 for j in range(self.n))

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
        F = self.field
        out = [0] * self.n
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.sc[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = F.mul(xi, yj)
                for k, s in row[j]:
                    out[k] = F.add(out[k], F.mul(c, s))
        return tuple(out)

    def mul_poly(self, x, y, zero):
        """Multiply vectors whose coordinates are MPoly (or anything with +/*)."""
        out = [zero] * self.n
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            row = self.sc[i]
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                c = xi * yj
                for k, s in row[j]:
                    out[k] = out[k] + c.scale(s)
        return tuple(out)

    # --- verification ---

    def _verify(self):
        for i in range(self.n):
            u = self.mul(self.unit, self.basis_vec(i))
            v = self.mul(self.basis_vec(i), self.unit)
            if u != self.basis_vec(i) or v != self.basis_vec(i):
                raise BadGroupTable(f"unit fails on basis element {i}")
        for i in range(self.n):
            for j in range(self.n):
                eij = self.mul(self.basis_vec(i), self.basis_vec(j))
                for k in range(self.n):
                    left = self.mul(eij, self.basis_vec(k))
                    right = self.mul(self.basis_vec(i),
                                     self.mul(self.basis_vec(j), self.basis_vec(k)))
                    if left != right:
                        raise BadGroupTable(f"associativity fails at ({i},{j},{k})")

    # --- derived structure ---

    def left_mult_matrix(self, x):
        from .linalg import Mat

        cols = [self.mul(x, self.basis_vec(j)) for j in range(self.n)]
        data = [cols[j][i] for i in range(self.n) for j in range(self.n)]
        return Mat(self.field, self.n, self.n, data)

    def center_dim(self):
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                diff = self.sub(self.mul(self.basis_vec(j), self.basis_vec(i)),
                                self.mul(self.basis_vec(i), self.basis_vec(j)))
                row.append(diff)
            rows.append(row)
        # x = sum a_j e_j central  <=>  for all i: sum_j a_j (e_j e_i - e_i e_j) = 0
        eqs = []
        for i in range(self.n):
            for k in range(self.n):
                eqs.append(tuple(rows[i][j][k] for j in range(self.n)))
        from .linalg import nullspace

        return len(nullspace(self.field, eqs, self.n))

    def trace_form_radical(self):
        """Kernel of (x, y) -> trace of left multiplication by x*y."""
        F = self.field
        tr = [self.left_mult_matrix(self.basis_vec(i)).trace() for i in range(self.n)]
        gram = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                prod = self.mul(self.basis_vec(i), self.basis_vec(j))
                acc = 0
                for k, c in enumerate(prod):
                    if c:
                        acc = F.add(acc, F.mul(c, tr[k]))
                row.append(acc)
            gram.append(tuple(row))
        from .linalg import nullspace

        return nullspace(F, gram, self.n)

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
        for v in self.basis:
            for i in range(A.n):
                e = A.basis_vec(i)
                for w in (A.mul(e, v), A.mul(v, e)):
                    if not in_span(A.field, w, self.basis, self.pivots):
                        return False
        return True

    def contains(self, vec):
        return in_span(self.parent.field, vec, self.basis, self.pivots)

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


def ideal_generated(algebra, elems):
    """Smallest two-sided ideal containing elems, by span closure."""
    A = algebra
    basis, pivots = rref(A.field, [tuple(v) for v in elems])
    frontier = list(basis)
    while frontier:
        new = []
        for v in frontier:
            for i in range(A.n):
                e = A.basis_vec(i)
                for w in (A.mul(e, v), A.mul(v, e)):
                    r = reduce_vector(A.field, w, basis, pivots)
                    if any(r):
                        basis, pivots = rref(A.field, list(basis) + [r])
                        new.append(r)
        frontier = new
    return Ideal(A, list(basis), check=False)


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
            prod = project(A.mul(A.basis_vec(free[a]), A.basis_vec(free[b])))
            row.append(tuple((k, c) for k, c in enumerate(prod) if c))
        sc.append(row)
    unit = project(A.unit)
    labels = [A.labels[j] for j in free]
    Q = FinAlgebra(A.field, labels, sc, unit, check=True, name=f"{A.name}/I")
    return Q, project, lift


# --- finitely presented algebras ---

class Presentation:
    """Generators and noncommutative polynomial relations.

    Relations are dicts mapping words (tuples of generator indices) to
    nonzero coefficient codes.
    """

    def __init__(self, generators, relations, field):
        self.generators = tuple(generators)
        self.field = field
        self.relations = [parse_relation(r, self.generators, field) if isinstance(r, str) else dict(r)
                          for r in relations]


_TOKEN = re.compile(r"\s*([A-Za-z_]\w*|\d+|[-+*^()])")


def parse_relation(text, generators, field):
    """Parse expressions like 'x^2-1' or 'x*y*x-y^2' into word polynomials."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    F = field

    def combine(poly, other, sign):
        for w, c in other.items():
            c = F.mul(c, sign) if sign != 1 else c
            prev = poly.get(w, 0)
            s = F.add(prev, c)
            if s:
                poly[w] = s
            elif w in poly:
                del poly[w]
        return poly

    def parse_atom():
        t = take()
        if t == "(":
            e = parse_sum()
            assert take() == ")", "unbalanced parenthesis"
            base = e
        elif t.isdigit():
            base = {(): int(t) % F.p} if int(t) % F.p else {}
        else:
            assert t in generators, f"unknown generator {t!r}"
            base = {(generators.index(t),): 1}
        if peek() == "^":
            take()
            e = int(take())
            out = {(): 1}
            for _ in range(e):
                out = mul_word_polys(out, base, F)
            return out
        return base

    def parse_product():
        out = parse_atom()
        while peek() == "*":
            take()
            out = mul_word_polys(out, parse_atom(), F)
        return out

    def parse_sum():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        out = {}
        term = parse_product()
        combine(out, term, sign if sign == 1 else F.neg(1))
        while peek() in ("+", "-"):
            sign = take()
            term = parse_product()
            combine(out, term, 1 if sign == "+" else F.neg(1))
        return out

    result = parse_sum()
    assert pos == len(tokens), f"trailing tokens in relation {text!r}"
    return result


def mul_word_polys(a, b, field):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            c = field.mul(c1, c2)
            if not c:
                continue
            w = w1 + w2
            s = field.add(out.get(w, 0), c)
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return out


def saturate(presentation, cap=256, max_words=200000):
    """Quotient of the free algebra by the relations, when its dimension is <= cap.

    Works in the truncated free algebra of words of length <= L for growing L:
    span the relation ideal up to length L, read off the surviving (non-leading)
    words, and stop once left multiplication by every generator closes on the
    candidate basis.  The result is verified post hoc (relations vanish,
    associativity holds), which makes false stabilization impossible.
    """
    P = presentation
    F = P.field
    g = len(P.generators)
    maxrel = max((max(len(w) for w in r) for r in P.relations if r), default=1)
    L = maxrel + 1
    while True:
        result = _try_saturate(P, L)
        if result is not None:
            algebra, word_basis = result
            if algebra.n > cap:
                raise DimensionCapExceeded(
                    f"quotient dimension {algebra.n} exceeds cap {cap}")
            return algebra
        count = sum(g ** l for l in range(L + 2))
        if count > max_words:
            raise DimensionCapExceeded(
                f"span still growing at truncation length {L} "
                f"({count} words); algebra may be infinite-dimensional")
        # the basis is still growing: if already past cap, stop now
        interior = _basis_words_at(P, L)
        if interior is not None and len(interior) > cap:
            raise DimensionCapExceeded(
                f"span of reduced words already exceeds cap {cap}")
        L += 1


def _all_words(g, L):
    words = [()]
    layer = [()]
    for _ in range(L):
        layer = [w + (x,) for w in layer for x in range(g)]
        words.extend(layer)
    return words


def _word_key(w):
    return (len(w), w)


def _ideal_rows(P, words, index, L):
    g = len(P.generators)
    rows = []
    prefixes = _all_words(g, L)
    for rel in P.relations:
        if not rel:
            continue
        deg = max(len(w) for w in rel)
        for u in prefixes:
            if len(u) + deg > L:
                continue
            for v in prefixes:
                if len(u) + deg + len(v) > L:
                    continue
                vec = [0] * len(words)
                ok = True
                for w, c in rel.items():
                    full = u + w + v
                    if len(full) > L:
                        ok = False
                        break
                    vec[index[full]] = P.field.add(vec[index[full]], c)
                if ok and any(vec):
                    rows.append(tuple(vec))
    return rows


def _reduction_setup(P, L):
    g = len(P.generators)
    words = sorted(_all_words(g, L), key=_word_key)
    index = {w: i for i, w in enumerate(words)}
    rows = _ideal_rows(P, words, index, L)
    # echelonize with the HIGHEST word (length-then-lex) as leading term
    rev_rows = [tuple(reversed(r)) for r in rows]
    basis, pivots = rref(P.field, rev_rows)
    leading = {len(words) - 1 - p for p in pivots}
    return words, index, basis, pivots, leading


def _basis_words_at(P, L):
    try:
        words, index, basis, pivots, leading = _reduction_setup(P, L)
    except MemoryError:
        return None
    return [w for i, w in enumerate(words) if i not in leading and len(w) < L]


def _try_saturate(P, L):
    F = P.field
    words, index, basis, pivots, leading = _reduction_setup(P, L)
    nwords = len(words)

    def reduce_word_vec(vec):
        rev = tuple(reversed(vec))
        red = reduce_vector(F, rev, basis, pivots)
        return tuple(reversed(red))

    basis_words = [w for i, w in enumerate(words) if i not in leading and len(w) < L]
    bw_index = {w: i for i, w in enumerate(basis_words)}
    m = len(basis_words)
    if m == 0:
        return None

    # left multiplication by each generator must close on the candidate basis
    left = []
    for x in range(len(P.generators)):
        cols = []
        for w in basis_words:
            xw = (x,) + w
            vec = [0] * nwords
            vec[index[xw]] = 1
            red = reduce_word_vec(vec)
            col = [0] * m
            for i, c in enumerate(red):
                if c:
                    wi = words[i]
                    if wi not in bw_index:
                        return None  # not closed yet
                    col[bw_index[wi]] = c
            cols.append(col)
        left.append([tuple(cols[j][i] for j in range(m)) for i in range(m)])

    from .linalg import Mat

    left_mats = []
    for lm in left:
        data = []
        for row in lm:
            data.extend(row)
        left_mats.append(Mat(F, m, m, data))

    eps = basis_words.index(())
    unit_vec = tuple(1 if i == eps else 0 for i in range(m))

    def word_action(word, vec):
        for x in reversed(word):
            vec = left_mats[x].apply(vec)
        return vec

    # relations must vanish as elements
    for rel in P.relations:
        acc = [0] * m
        for w, c in rel.items():
            img = word_action(w, unit_vec)
            acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, img)]
        if any(acc):
            return None

    # structure constants: e_u * e_v = action of word u on the vector of v
    vecs = [tuple(1 if i == j else 0 for i in range(m)) for j in range(m)]
    sc = []
    for a, wa in enumerate(basis_words):
        row = []
        for b in range(m):
            prod = word_action(wa, vecs[b])
            row.append(tuple((k, c) for k, c in enumerate(prod) if c))
        sc.append(row)
    labels = ["1" if not w else "*".join(P.generators[x] for x in w) for w in basis_words]
    algebra = FinAlgebra(F, labels, sc, unit_vec, check=True,
                         name="<" + ",".join(P.generators) + ">")
    return algebra, basis_words
