"""Determinant laws: degree-d homogeneous multiplicative polynomial laws.

A law D on a finite-dimensional algebra R with basis e_0..e_{n-1} is stored
by its value on the generic element, D(x_0 e_0 + ... + x_{n-1} e_{n-1}),
a single homogeneous polynomial of degree d.  Every identity (axioms,
characteristic polynomials, kernels, Cayley-Hamilton obstructions) is then
an exact polynomial computation: the generic element is a universal point,
so identities checked here hold after arbitrary base change.
"""

from collections import Counter
from itertools import chain, combinations_with_replacement, product, repeat
from math import comb, lcm

from .algebras import FinAlgebra, GroupAlgebra, Ideal, ideal_generated, quotient
from .errors import (InvariantViolation, NotFoundWithinBound, SchemaError,
                     SearchCapExceeded, VariableMismatch)
from .fields import make_field
from .linalg import (Mat, combine, proj_point_count, projective_points, rref,
                     span_closure)
from .poly import MPoly, _add_into, _pack, _substitute_terms, symbolic_det
from .reps import (JHDecomposition, Representation, direct_sum,
                   intertwiner_basis, invariant_subspace, irreducible_reps,
                   isomorphic, sub_quotient_reps)

# the largest power of an ideal nilpotency_index computes
MAX_NILPOTENCY = 64


def generic_vars(n):
    return tuple(f"x{i}" for i in range(n))


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
        """The law det(rho(-)) of an algebra representation, or of a group
        representation on its group algebra (psi on points)."""
        A = GroupAlgebra(rep.source, rep.field) if rep.is_group_rep else rep.source
        F = rep.field
        xs = generic_vars(A.n)
        d = rep.dim
        entries = [MPoly.linear(F, xs, [M.data[c] for M in rep.images])
                   for c in range(d * d)]
        return cls(A, d, symbolic_det(F, xs, entries, d))

    # --- evaluation ---

    def evaluate(self, vec):
        """D(r) for an element given by source coordinates (codes)."""
        xs = self.poly.vars
        return self.poly.evaluate({xs[i]: c for i, c in enumerate(vec)})

    def lambda_polys(self):
        """The coefficient laws L_1..L_d of chi(x, t) = D(t - x), as
        polynomials in the generic coordinates.

        D(x + s u) = sum_k s^k H^k D(x), where H^k is the order-k Hasse
        derivative along the unit u, so L_i = H^(d-i) D in every
        characteristic.  H^k sends x^a to sum_b prod_j binom(a_j, b_j)
        u_j^(b_j) x^(a-b) over b <= a with |b| = k and support in u's."""
        if self._lambdas is None:
            F, d = self.field, self.d
            unit = [(j, u) for j, u in enumerate(self.source.unit) if u]
            hasse = [{} for _ in range(d)]  # hasse[k] = H^k D for 0 < k < d
            for e, c in self.poly.terms.items():
                steps = [(j, e[j], u) for j, u in unit if e[j]]
                for b in product(*(range(a + 1) for _j, a, _u in steps)):
                    k = sum(b)
                    if not 0 < k < d:
                        continue
                    key, coeff = list(e), c
                    for (j, a, u), bj in zip(steps, b):
                        key[j] = a - bj
                        coeff = F.mul(coeff, F.mul(comb(a, bj) % F.p, F.pow(u, bj)))
                    if coeff:
                        _add_into(F, hasse[k], ((tuple(key), coeff),))
            xs = self.poly.vars
            self._lambdas = tuple(MPoly(F, xs, hasse[d - i])
                                  for i in range(1, d)) + (self.poly,)
        return self._lambdas

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
        """D(x) D(y) = D(xy) as an identity in 2n generic coordinates.

        x and y share no variable, so D(x) D(y) has exactly one term per
        ordered pair (a, b) of terms of D, x^a y^b with coefficient c_a c_b:
        that is nonzero in a field, and distinct pairs give distinct
        monomials.  So D is multiplicative iff D(xy) has len(D)^2 terms and
        the term of each pair has coefficient c_a c_b; the product is never
        expanded.  D(xy) keeps the substitution kernel's keys: packed ints,
        x_i in byte i and y_i in byte n + i, or exponent tuples.
        """
        A = self.source
        F = self.field
        n = A.n
        xs = self.poly.vars
        both = tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n))
        xv = tuple(MPoly.var(F, both, both[i]) for i in range(n))
        yv = tuple(MPoly.var(F, both, both[n + i]) for i in range(n))
        zv = A.mul_poly(xv, yv, MPoly.zero(F, both))
        dz, packed = _substitute_terms(self.poly, {xs[i]: zv[i] for i in range(n)})
        left = self.poly.terms
        if len(dz) != len(left) ** 2:
            return False
        right = left  # tuple keys: x^a y^b is keyed a + b
        if packed:
            left, _top = _pack(F, left, n)
            if left is None:
                # an exponent of D reaches 256, past every exponent of D(xy)
                return False
            right = {b << (8 * n): c for b, c in left.items()}
        get, mul = dz.get, F.mul
        return all(get(a + b) == mul(ca, cb)
                   for a, ca in left.items() for b, cb in right.items())

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

def is_cayley_hamilton(D):
    """True iff the generic element satisfies its characteristic polynomial."""
    return not ch_ideal(D).basis


def ch_ideal(D):
    """The obstruction ideal, generated by the coefficients of chi(x, x) at
    the generic element, computed one monomial at a time with no symbolic
    chi(x, x).

    For a multiset m of d basis indices the coefficient of x^m is
    sum_i (-1)^i sum_{m' <= m, |m'| = i} L_i[m'] S(m - m'), with L_0 = 1,
    where S(k), the coefficient of x^k in x^|k|, is the sum of the products
    of k's basis elements over its distinct orderings.  On a group algebra
    D and every L_i are conjugation invariant, so chi(h x h^-1) =
    h chi(x) h^-1 and one multiset per simultaneous-conjugation orbit
    generates the same two-sided ideal.
    """
    A = D.source
    F = A.field
    n = A.n
    minus_one = F.neg(1)
    lams = [{(): 1}]  # (-1)^i L_i, keyed by the sorted indices of a monomial
    for i, L in enumerate(D.lambda_polys(), start=1):
        lams.append({tuple(chain.from_iterable(map(repeat, range(n), e))):
                     F.mul(c, minus_one) if i % 2 else c
                     for e, c in L.terms.items()})
    powers = {(): {j: c for j, c in enumerate(A.unit) if c}}

    def power_coeff(k):
        """S(k), memoized by S(k) = sum over distinct g in k of e_g S(k - g)."""
        v = powers.get(k)
        if v is None:
            v = {}
            for g in dict.fromkeys(k):
                i = k.index(g)
                for j, c in power_coeff(k[:i] + k[i + 1:]).items():
                    for t, s in A.sc[g][j]:
                        v[t] = F.add(v.get(t, 0), F.mul(c, s))
            v = powers[k] = {t: c for t, c in v.items() if c}
        return v

    conjugations = []
    if isinstance(A, GroupAlgebra):
        G = A.group
        conjugations = [tuple(G.table[G.table[h][g]][G.inverse(h)] for g in range(n))
                        for h in range(n)]
    seen = set()
    rows = []
    for m in combinations_with_replacement(range(n), D.d):
        if m in seen:
            continue
        seen.update(tuple(sorted(map(p.__getitem__, m))) for p in conjugations)
        counts = list(Counter(m).items())
        row = [0] * n
        for take in product(*(range(k + 1) for _, k in counts)):
            sub, rest = (), ()
            for (g, k), t in zip(counts, take):
                sub += (g,) * t
                rest += (g,) * (k - t)
            c = lams[len(sub)].get(sub)
            if c:
                for j, v in power_coeff(rest).items():
                    row[j] = F.add(row[j], F.mul(c, v))
        if any(row):
            rows.append(tuple(row))
    return ideal_generated(A, rows)


def ch_quotient(D):
    """(Q, D_Q, project, lift): the universal Cayley-Hamilton quotient and the
    factored law.  Factoring is verified exactly: D(x) = D_Q(project(x)) at
    the generic x.  Since x - lift(project(x)) lies in the ideal, this holds
    iff D(x + s) = D(x) for every s in the ideal."""
    A = D.source
    F = A.field
    Q, project, lift = quotient(A, ch_ideal(D))
    xs = D.poly.vars
    ys = generic_vars(Q.n)
    lifts = [lift(e) for e in Q.basis]
    DQ = PseudoRep(Q, D.d, D.poly.substitute(
        {x: MPoly.linear(F, ys, [v[i] for v in lifts]) for i, x in enumerate(xs)}))
    cols = [project(e) for e in A.basis]
    back = (DQ.poly.substitute({y: MPoly.linear(F, xs, [c[j] for c in cols])
                                for j, y in enumerate(ys)})
            if ys else MPoly.const(F, xs, DQ.poly.constant_code()))
    if back != D.poly:
        raise InvariantViolation("law does not factor through the quotient",
                                 witness=(D.poly - back).sorted_terms()[0])
    return Q, DQ, project, lift


# --- kernel and nilpotency ---

def kernel(D, cap=200000):
    """ker(D) = {r : chi(r r', t) = t^d for the generic r'}, as a verified ideal.

    D = D_Q o project on the Cayley-Hamilton quotient Q, and project is onto,
    so ker(D) = CH(D) + lift(ker(D_Q)).  In Q the linear constraints from L_1
    cut the candidate space down first; the remaining conditions (all L_i
    vanish on r x identically in x) are checked on projective
    representatives of that subspace.
    """
    A = D.source
    F = A.field
    Q, DQ, project, lift = ch_quotient(D)
    rows = [A.sub(e, lift(project(e))) for e in A.basis]  # these span CH(D)
    null = Q.trace_form_radical(DQ.trace_form())
    m = len(null)
    if m:
        npts = proj_point_count(F.q, m)
        if npts > cap:
            raise SearchCapExceeded(f"{npts} candidate lines exceed kernel search cap")
        lambdas = DQ.lambda_polys()
        for coeffs in projective_points(F.q, m):
            r = combine(F, coeffs, null)
            if _kernel_member(DQ, lambdas, r):
                rows.append(lift(r))
    return Ideal(A, rows, check=True)


def _kernel_member(D, lambdas, r):
    """True iff every L_i vanishes on r x at the generic x; coordinate k of
    r x is the linear form read off row k of r's left multiplication."""
    F = D.field
    xs = D.poly.vars
    rows = D.source.left_mult_matrix(r).rows()
    images = {x: MPoly.linear(F, xs, row) for x, row in zip(xs, rows)}
    return all(L.substitute(images).is_zero() for L in lambdas)


def nilpotency_index(ideal):
    """Smallest k <= MAX_NILPOTENCY with I^k = 0 by iterated span
    multiplication; None if the power series stabilizes at a nonzero
    subspace."""
    A = ideal.parent
    F = A.field
    base = list(ideal.basis)
    if not base:
        return 1
    cur = base
    for k in range(1, MAX_NILPOTENCY + 1):
        if not cur:
            return k
        prods = [A.mul(v, w) for v in cur for w in base]
        nxt, _ = rref(F, prods)
        if nxt == cur:
            return None
        cur = list(nxt)
    raise SearchCapExceeded("nilpotency index search cap exceeded")


# --- splitting over extensions ---

def split_search(D):
    """Find the smallest-degree extension carrying a semisimple representation
    that induces D, together with that representation.

    D splits over F_{q^e} iff e is a multiple of the lcm of the sizes of the
    Frobenius orbits on its absolutely irreducible factors.  Those sizes sum
    to at most d, so the degrees scanned are the divisors of lcm(1..d) in
    increasing order, enumerating direct sums of irreducible representations
    over each extension; the Jordan-Hoelder multiset of the answer must be
    the same for all matches at the successful degree (InvariantViolation
    otherwise).
    """
    F = D.field
    bound = lcm(*range(1, D.d + 1))
    for e in (e for e in range(1, bound + 1) if bound % e == 0):
        target = make_field(F.p, F.k * e)
        De = D.base_change(target)
        irs = _irreducible_modules(De.source, D, target)
        matches = []
        for multiset in _dim_multisets(irs, D.d):
            rep = direct_sum(*multiset)
            if PseudoRep.induce(rep).equals(De):
                matches.append((multiset, rep))
        if matches:
            keys = {JHDecomposition(ms).multiset_key() for ms, _ in matches}
            if len(keys) != 1:
                raise InvariantViolation(
                    "matching semisimple factor multiset not unique",
                    witness=sorted(keys))
            return target, matches[0][1]
    raise NotFoundWithinBound(
        f"no semisimple representation inducing the law over an extension of degree "
        f"dividing lcm(1..{D.d}) = {bound}")


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
        [A.left_mult_matrix(e) for e in A.basis],
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
    return len(intertwiner_basis(rep.field, rep.images, rep.images, rep.dim)) == 1


def _module_factors(rep):
    """Composition factors of a module: exhaustive subspace search at small
    dimension, cyclic-submodule spinning above it."""
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
    maps = [M.apply for M in rep.images]
    for v in pool:
        rows, _ = span_closure(F, [v], maps)
        if 0 < len(rows) < n:
            sub, quo = sub_quotient_reps(rep, rows)
            return _module_factors(sub) + _module_factors(quo)
    raise SearchCapExceeded(
        f"cannot split a {n}-dimensional module by cyclic-vector spinning")

