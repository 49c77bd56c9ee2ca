"""Determinant laws: degree-d homogeneous multiplicative polynomial laws.

A law D on a finite-dimensional algebra R with basis e_0..e_{n-1} is stored
by its value on the generic element, D(x_0 e_0 + ... + x_{n-1} e_{n-1}),
a single homogeneous polynomial of degree d.  Every identity (axioms,
characteristic polynomials, kernels, Cayley-Hamilton obstructions) is then
an exact polynomial computation: the generic element is a universal point,
so identities checked here hold after arbitrary base change.
"""

from .algebras import FinAlgebra, GroupAlgebra, Ideal, ideal_generated, quotient
from .errors import (NotFoundWithinBound, SchemaError, SearchCapExceeded,
                     VariableMismatch)
from .fields import make_field
from .linalg import Mat, nullspace, rref
from .poly import MPoly, symbolic_det
from .reps import (JHDecomposition, Representation, invariant_subspace,
                   irreducible_reps, isomorphic)

T_VAR = "t"


def generic_vars(n):
    return tuple(f"x{i}" for i in range(n))


class CharPoly:
    """chi(r, t) = t^d + sum_{i=1}^d (-1)^i L_i t^{d-i}, stored by (L_1..L_d)."""

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)
        self.d = len(self.coeffs)

    def evaluate(self, t_code):
        F = self.field
        acc = F.pow(t_code, self.d)
        sign = 1
        for i, L in enumerate(self.coeffs, start=1):
            sign = -sign
            term = F.mul(L, F.pow(t_code, self.d - i))
            acc = F.add(acc, term if sign > 0 else F.neg(term))
        return acc

    def __eq__(self, other):
        return (isinstance(other, CharPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"CharPoly(d={self.d}, L={self.coeffs})"


class PseudoRep:
    """A degree-d determinant law on a finite-dimensional algebra."""

    def __init__(self, source, d, poly, check=False):
        self.source = source
        self.field = source.field
        self.d = d
        self.poly = poly
        if poly.vars != generic_vars(source.n) or poly.field != source.field:
            raise VariableMismatch("generic value must live in x0..x{n-1} over the source field")
        self._lambdas = None
        if check and not self.check_axioms():
            raise SchemaError("determinant law axioms fail")

    # --- construction ---

    @classmethod
    def induce(cls, rep):
        """The law det(rho(-)) of an algebra representation (psi on points)."""
        if rep.is_group_rep:
            rep = from_group_rep(rep)
        A = rep.source
        F = rep.field
        xs = generic_vars(A.n)
        d = rep.dim
        entries = []
        for i in range(d):
            for j in range(d):
                p = MPoly.zero(F, xs)
                for k, M in enumerate(rep.images):
                    c = M[i, j]
                    if c:
                        p = p + MPoly.var(F, xs, xs[k], c)
                entries.append(p)
        return cls(A, d, symbolic_det(F, xs, entries, d))

    # --- evaluation ---

    def evaluate(self, vec):
        """D(r) for an element given by source coordinates (codes)."""
        xs = self.poly.vars
        return self.poly.evaluate({xs[i]: c for i, c in enumerate(vec)})

    def lambda_polys(self):
        """The coefficient laws L_1..L_d of chi(x, t), as polynomials in the
        generic coordinates."""
        if self._lambdas is None:
            F = self.field
            xs = self.poly.vars
            ext = xs + (T_VAR,)
            t = MPoly.var(F, ext, T_VAR)
            images = {}
            for i, u in enumerate(self.source.unit):
                img = t.scale(u) if u else MPoly.zero(F, ext)
                images[xs[i]] = img - MPoly.var(F, ext, xs[i])
            chi = self.poly.substitute(images)
            out = []
            sign = 1
            for i in range(1, self.d + 1):
                sign = -sign
                c = chi.coefficient(T_VAR, self.d - i)
                c = _drop_var(c, T_VAR)
                out.append(c if sign > 0 else c.scale(F.neg(1)))
            self._lambdas = tuple(out)
        return self._lambdas

    def char_poly(self, vec):
        """chi(r, t) for a specific element r (coordinate codes)."""
        xs = self.poly.vars
        point = {xs[i]: c for i, c in enumerate(vec)}
        return CharPoly(self.field, [L.evaluate(point) for L in self.lambda_polys()])

    def trace_form(self):
        """L_1 as a linear form: the tuple of values on basis elements."""
        L1 = self.lambda_polys()[0]
        xs = self.poly.vars
        return tuple(L1.coefficient(xs[i], 1).constant_code() for i in range(len(xs)))

    # --- axioms ---

    def is_unital(self):
        return self.evaluate(self.source.unit) == 1

    def is_homogeneous(self):
        return self.poly.is_homogeneous(self.d)

    def is_multiplicative(self):
        """D(x) D(y) = D(xy) as an identity in 2n generic coordinates."""
        A = self.source
        F = self.field
        n = A.n
        xs = self.poly.vars
        both = tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n))
        xv = tuple(MPoly.var(F, both, both[i]) for i in range(n))
        yv = tuple(MPoly.var(F, both, both[n + i]) for i in range(n))
        zv = A.mul_poly(xv, yv, MPoly.zero(F, both))
        dx = self.poly.substitute({xs[i]: xv[i] for i in range(n)})
        dy = self.poly.substitute({xs[i]: yv[i] for i in range(n)})
        dz = self.poly.substitute({xs[i]: zv[i] for i in range(n)})
        return dx * dy == dz

    def check_axioms(self):
        return self.is_homogeneous() and self.is_unital() and self.is_multiplicative()

    # --- comparison / base change ---

    def equals(self, other):
        """Exact equality of laws: identical generic values (no sampling)."""
        return (self.d == other.d and self.field == other.field
                and self.source.n == other.source.n
                and self.poly == other.poly)

    def base_change(self, target):
        if target == self.field:
            return self
        A2 = algebra_base_change(self.source, target)
        return PseudoRep(A2, self.d, self.poly.map_field(target))

    def __repr__(self):
        return f"PseudoRep(d={self.d} on {self.source.name} over {self.field})"


def _drop_var(poly, name):
    i = poly.vars.index(name)
    assert all(e[i] == 0 for e in poly.terms)
    newvars = poly.vars[:i] + poly.vars[i + 1:]
    terms = {e[:i] + e[i + 1:]: c for e, c in poly.terms.items()}
    return MPoly(poly.field, newvars, terms)


def from_group_rep(rep):
    """Reinterpret a group representation as a group-algebra representation."""
    assert rep.is_group_rep
    A = GroupAlgebra(rep.source, rep.field)
    return Representation(A, rep.field, rep.dim, rep.images, check_now=False)


def algebra_base_change(A, target):
    """The same algebra with coefficients embedded into an extension field."""
    if isinstance(A, GroupAlgebra):
        return GroupAlgebra(A.group, target)
    from .fields import embed_code

    sc = [[tuple((k, embed_code(A.field, target, c)) for k, c in pairs)
           for pairs in row] for row in A.sc]
    unit = [embed_code(A.field, target, c) for c in A.unit]
    return FinAlgebra(target, A.labels, sc, unit, check=False, name=A.name)


# --- matrix algebras and the determinant law ---

def matrix_algebra(field, d):
    """M_d(F) with basis the matrix units E_{ij}, row-major."""
    n = d * d
    labels = [f"E{i}{j}" for i in range(d) for j in range(d)]
    sc = []
    for a in range(n):
        i, j = divmod(a, d)
        row = []
        for b in range(n):
            k, l = divmod(b, d)
            row.append(((i * d + l, 1),) if j == k else ())
        sc.append(row)
    unit = [1 if i == j else 0 for i in range(d) for j in range(d)]
    return FinAlgebra(field, labels, sc, unit, check=False, name=f"M{d}({field})")


def tautological_rep(field, d):
    A = matrix_algebra(field, d)
    images = []
    for a in range(d * d):
        i, j = divmod(a, d)
        images.append(Mat(field, d, d,
                          [1 if (r, c) == (i, j) else 0
                           for r in range(d) for c in range(d)]))
    return Representation(A, field, d, images, check_now=False)


def det_law(field, d):
    """The determinant as a law on M_d(F)."""
    return PseudoRep.induce(tautological_rep(field, d))


# --- Cayley-Hamilton condition, ideal, quotient ---

def _generic_element(A):
    F = A.field
    xs = generic_vars(A.n)
    return tuple(MPoly.var(F, xs, v) for v in xs)


def ch_element(D):
    """chi(x, x) at the generic element, as a vector of coordinate polynomials."""
    A = D.source
    F = A.field
    xs = generic_vars(A.n)
    zero = MPoly.zero(F, xs)
    xi = _generic_element(A)
    lambdas = D.lambda_polys()
    powers = [tuple(MPoly.const(F, xs, u) for u in A.unit)]
    for _ in range(D.d):
        powers.append(A.mul_poly(powers[-1], xi, zero))
    acc = list(powers[D.d])
    sign = 1
    for i in range(1, D.d + 1):
        sign = -sign
        coeff = lambdas[i - 1] if sign > 0 else lambdas[i - 1].scale(F.neg(1))
        vec = powers[D.d - i]
        for k in range(A.n):
            acc[k] = acc[k] + coeff * vec[k]
    return tuple(acc)


def is_cayley_hamilton(D):
    """True iff the generic element satisfies its characteristic polynomial."""
    return all(c.is_zero() for c in ch_element(D))


def ch_ideal(D):
    """The obstruction ideal: generated by all coefficient extractions of
    chi(x, x) at the generic element."""
    A = D.source
    vec = ch_element(D)
    exps = set()
    for c in vec:
        exps.update(c.terms)
    gens = []
    for e in sorted(exps):
        gens.append(tuple(c.terms.get(e, 0) for c in vec))
    return ideal_generated(A, gens)


def ch_quotient(D):
    """(Q, D_Q, project, lift): the universal Cayley-Hamilton quotient and the
    factored law.  Factoring is verified exactly: D is invariant under adding
    a generic ideal element."""
    A = D.source
    F = A.field
    I = ch_ideal(D)
    _assert_factors_through(D, I)
    Q, project, lift = quotient(A, I)
    ys = generic_vars(Q.n)
    xs = D.poly.vars
    images = {}
    for i in range(A.n):
        img = MPoly.zero(F, ys)
        for j in range(Q.n):
            c = lift(Q.basis_vec(j))[i]
            if c:
                img = img + MPoly.var(F, ys, ys[j], c)
        images[xs[i]] = img
    DQ = PseudoRep(Q, D.d, D.poly.substitute(images))
    return Q, DQ, project, lift


def _assert_factors_through(D, ideal):
    A = D.source
    F = A.field
    n = A.n
    xs = D.poly.vars
    m = len(ideal.basis)
    ext = xs + tuple(f"s{j}" for j in range(m))
    images = {}
    for i in range(n):
        img = MPoly.var(F, ext, xs[i])
        for j, v in enumerate(ideal.basis):
            if v[i]:
                img = img + MPoly.var(F, ext, f"s{j}", v[i])
        images[xs[i]] = img
    shifted = D.poly.substitute(images)
    base = D.poly.substitute({xs[i]: MPoly.var(F, ext, xs[i]) for i in range(n)})
    assert shifted == base, "law does not factor through the quotient"


# --- kernel and nilpotency ---

def kernel(D, cap=200000):
    """ker(D) = {r : chi(r r', t) = t^d for the generic r'}, as a verified ideal.

    The linear constraints from L_1 cut the candidate space down first; the
    remaining conditions (all L_i vanish on r x identically in x) are checked
    on projective representatives of that subspace.
    """
    A = D.source
    F = A.field
    n = A.n
    lambdas = D.lambda_polys()
    tr = D.trace_form()
    rows = []
    for j in range(n):
        row = []
        for i in range(n):
            prod = A.mul(A.basis_vec(i), A.basis_vec(j))
            acc = 0
            for k, c in enumerate(prod):
                if c:
                    acc = F.add(acc, F.mul(c, tr[k]))
            row.append(acc)
        rows.append(tuple(row))
    null = nullspace(F, rows, n)
    m = len(null)
    if m == 0:
        return Ideal(A, [], check=False)
    npts = (F.q ** m - 1) // (F.q - 1)
    if npts > cap:
        raise SearchCapExceeded(f"{npts} candidate lines exceed kernel search cap")
    xi = _generic_element(A)
    zero = MPoly.zero(F, D.poly.vars)
    members = []
    for coeffs in _projective_points(F.q, m):
        r = [0] * n
        for c, v in zip(coeffs, null):
            if c:
                for i in range(n):
                    r[i] = F.add(r[i], F.mul(c, v[i]))
        if _kernel_member(D, lambdas, tuple(r), xi, zero):
            members.append(tuple(r))
    basis, _ = rref(F, members)
    return Ideal(A, list(basis), check=True)


def _projective_points(q, m):
    """Representatives of lines in F^m: first nonzero coordinate is 1."""
    from itertools import product

    for lead in range(m):
        for rest in product(range(q), repeat=m - lead - 1):
            yield (0,) * lead + (1,) + rest


def _kernel_member(D, lambdas, r, xi, zero):
    A = D.source
    F = A.field
    const = tuple(MPoly.const(F, D.poly.vars, c) for c in r)
    rx = A.mul_poly(const, xi, zero)
    images = {D.poly.vars[i]: rx[i] for i in range(A.n)}
    return all(L.substitute(images).is_zero() for L in lambdas)


def nilpotency_index(ideal, cap=64):
    """Smallest k with I^k = 0 by iterated span multiplication; None if the
    power series stabilizes at a nonzero subspace."""
    A = ideal.parent
    F = A.field
    base = list(ideal.basis)
    if not base:
        return 1
    cur = base
    for k in range(1, cap + 1):
        if not cur:
            return k
        prods = [A.mul(v, w) for v in cur for w in base]
        nxt, _ = rref(F, prods)
        if nxt == cur:
            return None
        cur = list(nxt)
    raise SearchCapExceeded("nilpotency index search cap exceeded")


# --- splitting over extensions ---

def split_search(D, max_degree=None):
    """Find the smallest-degree extension carrying a semisimple representation
    that induces D, together with that representation.

    Scans degrees 1..d (the separable-case bound), enumerating direct sums of
    irreducible representations over each extension; the Jordan-Hoelder
    multiset of the answer is asserted unique among all matches at the
    successful degree.
    """
    A = D.source
    F = D.field
    bound = max_degree if max_degree is not None else D.d
    for e in range(1, bound + 1):
        target = make_field(F.p, F.k * e)
        De = D.base_change(target)
        irs = _irreducible_modules(De.source, D, target)
        matches = []
        for multiset in _dim_multisets(irs, D.d):
            rep = multiset[0]
            for extra in multiset[1:]:
                rep = _module_direct_sum(De.source, rep, extra)
            if PseudoRep.induce(rep).equals(De):
                matches.append((multiset, rep))
        if matches:
            keys = {JHDecomposition(ms).multiset_key() for ms, _ in matches}
            assert len(keys) == 1, "matching semisimple factor multiset not unique"
            return target, matches[0][1]
    raise NotFoundWithinBound(
        f"no semisimple representation inducing the law within degree {bound}")


def _module_direct_sum(A, rep1, rep2):
    from .reps import direct_sum

    out = direct_sum(rep1, rep2)
    return Representation(A, out.field, out.dim, out.images, check_now=False)


def _dim_multisets(irs, d):
    """Multisets of irreducibles (as rep tuples) with total dimension d."""
    out = []

    def rec(start, left, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for i in range(start, len(irs)):
            if irs[i].dim <= left:
                rec(i, left - irs[i].dim, acc + [irs[i]])

    rec(0, d, [])
    return out


def _irreducible_modules(A, D, field):
    """Absolutely irreducible representations of A of dimension <= D.d, one
    per class.  Splitness requires End = F (Schur condition, commutant of
    dimension 1), so factors that only become irreducible after a further
    extension are excluded."""
    if isinstance(A, GroupAlgebra):
        group_irs = irreducible_reps(A.group, field, D.d)
        group_irs = [r for r in group_irs if _absolutely_irreducible(r)]
        return [Representation(A, field, r.dim, r.images, check_now=False)
                for r in group_irs]
    regular = Representation(
        A, field, A.n,
        [A.left_mult_matrix(A.basis_vec(i)) for i in range(A.n)],
        check_now=False)
    factors = _module_factors(regular)
    out = []
    for f in factors:
        if f.dim > D.d or not _absolutely_irreducible(f):
            continue
        if not any(g.dim == f.dim and isomorphic(f, g) for g in out):
            out.append(f)
    out.sort(key=lambda r: r.sort_key())
    return out


def _absolutely_irreducible(rep):
    from .reps import commutant_basis

    mats = list(rep.images)
    return len(commutant_basis(rep.field, mats, rep.dim)) == 1


def _module_factors(rep):
    """Composition factors of a module: exhaustive subspace search at small
    dimension, cyclic-submodule spinning above it."""
    from .reps import sub_quotient_reps

    if rep.dim <= 3:
        rows = invariant_subspace(rep)
        if rows is None:
            return [rep]
        sub, quo = sub_quotient_reps(rep, rows)
        return _module_factors(sub) + _module_factors(quo)
    F = rep.field
    n = rep.dim
    pool = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    pool += [tuple(1 if i in (a, b) else 0 for i in range(n))
             for a in range(n) for b in range(a + 1, n)]
    for v in pool:
        rows = _spin(rep, v)
        if 0 < len(rows) < n:
            sub, quo = sub_quotient_reps(rep, rows)
            return _module_factors(sub) + _module_factors(quo)
    raise SearchCapExceeded(
        f"cannot split a {n}-dimensional module by cyclic-vector spinning")


def _spin(rep, v):
    F = rep.field
    basis, pivots = rref(F, [v])
    frontier = list(basis)
    while frontier:
        new = []
        for w in frontier:
            for M in rep.images:
                img = M.apply(w)
                from .linalg import reduce_vector

                r = reduce_vector(F, img, basis, pivots)
                if any(r):
                    basis, pivots = rref(F, list(basis) + [r])
                    new.append(r)
        frontier = new
    return list(basis)
