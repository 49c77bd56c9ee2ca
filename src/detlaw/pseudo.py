"""Determinant laws: degree-d homogeneous multiplicative polynomial laws.

A law D on a finite-dimensional algebra R with basis e_0..e_{n-1} is stored
by its value on the generic element, D(x_0 e_0 + ... + x_{n-1} e_{n-1}),
a single homogeneous polynomial of degree d.  Every identity (axioms,
characteristic polynomials, Cayley-Hamilton obstructions) is then an exact
polynomial computation: the generic element is a universal point, so
identities checked here hold after arbitrary base change.  The kernel of a
law induced from a representation is linear algebra on its Jordan-Hoelder
factors.
"""

from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb, lcm

from .algebras import FinAlgebra, GroupAlgebra, Ideal, ideal_generated, quotient
from .errors import (HypothesisViolation, InvariantViolation, NotAnIdeal,
                     NotFoundWithinBound, SchemaError, SearchCapExceeded,
                     VariableMismatch)
from .fields import embed_code, make_field
from .linalg import Mat, nullspace, rref, span_closure
from .poly import MPoly, _add_into, _pack, _substitute_terms, symbolic_det
from .reps import (Representation, _hom_dim, direct_sum, irreducible_reps, isomorphic,
                   semisimplify, sub_quotient_reps)


def generic_vars(n):
    return tuple(f"x{i}" for i in range(n))


class PseudoRep:
    """A degree-d determinant law on a finite-dimensional algebra."""

    def __init__(self, source, d, poly, check=False):
        self.source = source
        self.field = source.field
        self.d = d
        self.poly = poly
        self.rep = None  # the representation a law is induced from
        if poly.vars != generic_vars(source.n) or poly.field != source.field:
            raise VariableMismatch("generic value must live in x0..x{n-1} over the source field")
        self._lambdas = None
        if check and not self.check_axioms():
            raise SchemaError("determinant law axioms fail")

    # --- construction ---

    @classmethod
    def induce(cls, rep):
        """The law det(rho(-)) of an algebra representation, or of a group
        representation on its group algebra (psi on points), with rho kept
        as ``rep``."""
        A = GroupAlgebra(rep.source, rep.field) if rep.is_group_rep else rep.source
        F = rep.field
        xs = generic_vars(A.n)
        d = rep.dim
        entries = [MPoly.linear(F, xs, [M.data[c] for M in rep.images])
                   for c in range(d * d)]
        law = cls(A, d, symbolic_det(F, xs, entries, d))
        law.rep = rep
        return law

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
        expanded.  D(xy) keeps the substitution kernel's packed keys, x_i in
        byte i and y_i in byte n + i.  A law with an exponent past 255, or
        whose D(xy) could reach one, raises SizeCapExceeded.
        """
        A = self.source
        F = self.field
        n = A.n
        xs = self.poly.vars
        left = _pack(self.poly.terms, n)[0]
        both = tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n))
        xv = tuple(MPoly.var(F, both, both[i]) for i in range(n))
        yv = tuple(MPoly.var(F, both, both[n + i]) for i in range(n))
        zv = A.mul_poly(xv, yv, MPoly.zero(F, both))
        dz = _substitute_terms(self.poly, {xs[i]: zv[i] for i in range(n)})
        if len(dz) != len(left) ** 2:
            return False
        get, mul, q = dz.get, F._mul, F.q
        pairs = [(b << (8 * n), c) for b, c in left.items()]
        for a, ca in left.items():
            row = ca * q
            for b, cb in pairs:
                if get(a + b) != mul[row + cb]:
                    return False
        return True

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


def ch_ideal(D, bound=None):
    """The obstruction ideal, generated by the coefficients of chi(x, x) at
    the generic element, computed one monomial at a time with no symbolic
    chi(x, x).

    For a multiset m of d basis indices the coefficient of x^m is
    sum_i (-1)^i sum_{m' <= m, |m'| = i} L_i[m'] S(m - m'), with L_0 = 1,
    where S(k), the coefficient of x^k in x^|k|, is the sum of the products
    of k's basis elements over its distinct orderings; each L_i[m'] is
    looked up in L_i's terms by its exponent tuple.  chi(x + t, x + t) =
    chi(x, x) for a scalar t, so a monomial with a positive exponent on a
    basis element equal to the unit has coefficient 0 and is skipped.  On a
    group algebra D and every L_i are conjugation invariant, so
    chi(h x h^-1) = h chi(x) h^-1 and one multiset per
    simultaneous-conjugation orbit generates the same two-sided ideal.

    The coefficient rows are made lazily and closed one at a time; given
    ``bound``, an upper bound on the ideal's dimension, no row is made once
    the closure reaches it.
    """
    A = D.source
    F = A.field
    n = A.n
    lams = [{(0,) * n: 1}] + [L.terms for L in D.lambda_polys()]
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
    others = [j for j, e in enumerate(A.basis) if e != A.unit]

    def rows():
        seen = set()
        for m in combinations_with_replacement(others, D.d):
            if m in seen:
                continue
            seen.update(tuple(sorted(map(p.__getitem__, m))) for p in conjugations)
            counts = list(Counter(m).items())
            row = [0] * n
            key = [0] * n  # the exponent tuple of the sub-multiset m'
            for take in product(*(range(k + 1) for _, k in counts)):
                rest = ()
                for (g, k), t in zip(counts, take):
                    key[g] = t
                    rest += (g,) * (k - t)
                i = D.d - len(rest)
                c = lams[i].get(tuple(key))
                if c:
                    if i % 2:
                        c = F.neg(c)
                    for j, v in power_coeff(rest).items():
                        row[j] = F.add(row[j], F.mul(c, v))
            if any(row):
                yield tuple(row)

    return ideal_generated(A, rows(), bound)


def ch_quotient(D):
    """(Q, D_Q, project, lift): the universal Cayley-Hamilton quotient and the
    factored law of a law induced from a representation rho.

    Each rho(x) satisfies its own characteristic polynomial, so rho kills
    the Cayley-Hamilton ideal, which therefore lies in ker rho: its
    closure stops once it reaches dim ker rho.  rho killing the ideal is
    checked exactly on its basis, which with the equal dimensions also
    certifies an early stop.  Then rho = rho_Q o project with rho_Q =
    rho o lift, and D_Q is the law induced from rho_Q, so D = D_Q o
    project."""
    rho = D.rep
    if rho is None:
        raise HypothesisViolation("ch_quotient needs a law induced from a representation")
    entries = [tuple(M.data[c] for M in rho.images) for c in range(D.d * D.d)]
    ideal = ch_ideal(D, bound=D.source.n - len(rref(D.field, entries)[0]))
    for a in ideal.basis:
        if any(rho.image_of(a).data):
            raise InvariantViolation("rho does not kill the Cayley-Hamilton ideal", witness=a)
    Q, project, lift = quotient(D.source, ideal)
    rho_Q = Representation(Q, D.field, D.d, [rho.image_of(lift(e)) for e in Q.basis],
                           check_now=False)
    return Q, PseudoRep.induce(rho_Q), project, lift


# --- kernel and nilpotency ---

def kernel(D):
    """ker(D) = {r : chi(r r', t) = t^d for the generic r'}, as a verified ideal.

    For D = det o rho over a perfect field, r lies in ker(D) iff
    rho(r) rho(A) is nil, that is iff rho(r) lies in the radical of rho(A):
    the elements that act as zero on every Jordan-Hoelder factor of rho
    (Chenevier, arXiv:0809.0415).  So ker(D) is the nullspace of one linear
    system, with a row per factor rho_j and matrix entry c holding c's value
    of rho_j on each basis element of A.
    """
    rho = D.rep
    if rho is None:
        raise HypothesisViolation("kernel needs a law induced from a representation")
    A = D.source
    rows = [tuple(M.data[c] for M in f.images)
            for f in semisimplify(rho) for c in range(f.dim * f.dim)]
    return Ideal(A, nullspace(A.field, rows, A.n), check=True)


def _kernel_member(D, lambdas, r):
    """True iff every L_i vanishes on r x at the generic x; coordinate k of
    r x is the linear form read off row k of r's left multiplication."""
    F = D.field
    xs = D.poly.vars
    rows = D.source.left_mult_matrix(r).rows()
    images = {x: MPoly.linear(F, xs, row) for x, row in zip(xs, rows)}
    return all(L.substitute(images).is_zero() for L in lambdas)


def nilpotency_index(ideal):
    """Smallest k with I^k = 0 by iterated span multiplication; None if the
    powers stabilize at a nonzero subspace.

    Each I^(k+1) lies in I^k, so the powers shrink strictly until they
    stop, within dim I + 1 steps; powers that do not are those of a
    subspace that is not an ideal."""
    A = ideal.parent
    F = A.field
    base = list(ideal.basis)
    cur = base
    for k in range(1, len(base) + 2):
        if not cur:
            return k
        prods = [A.mul(v, w) for v in cur for w in base]
        nxt, _ = rref(F, prods)
        if nxt == cur:
            return None
        cur = list(nxt)
    raise NotAnIdeal("powers of the basis do not shrink")


# --- splitting over extensions ---

def split_search(D):
    """Find the smallest-degree extension carrying a semisimple representation
    that induces D, together with that representation (of the group, when
    D's source is a group algebra).

    D splits over F_{q^e} iff e is a multiple of the lcm of the sizes of the
    Frobenius orbits on its absolutely irreducible factors.  Those sizes sum
    to at most d, so the degrees scanned are the divisors of lcm(1..d) in
    increasing order, enumerating direct sums of irreducible representations
    over each extension; every match at the successful degree must be
    isomorphic to the first (InvariantViolation otherwise).
    """
    F = D.field
    bound = lcm(*range(1, D.d + 1))
    for e in (e for e in range(1, bound + 1) if bound % e == 0):
        target = make_field(F.p, F.k * e)
        De = D.base_change(target)
        irs = _irreducible_modules(De.source, D, target)
        sums = (direct_sum(*multiset) for multiset in _dim_multisets(irs, D.d))
        matches = [rep for rep in sums if PseudoRep.induce(rep).equals(De)]
        if matches:
            first, *rest = matches
            for rep in rest:
                if not isomorphic(rep, first):
                    raise InvariantViolation(
                        "semisimple representations inducing the law are not isomorphic",
                        witness=(first, rep))
            return target, first
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
    per class; on a group algebra they are representations of the group.
    Splitness requires End = F (Schur condition, commutant of dimension 1),
    so factors that only become irreducible after a further extension are
    excluded."""
    if isinstance(A, GroupAlgebra):
        return [r for r in irreducible_reps(A.group, field, D.d) if _absolutely_irreducible(r)]
    regular = Representation(
        A, field, A.n,
        [A.left_mult_matrix(e) for e in A.basis],
        check_now=False)
    out = []
    for f in _module_factors(regular):
        if f.dim > D.d or not _absolutely_irreducible(f):
            continue
        # Schur: absolutely irreducible factors of one dimension are
        # isomorphic iff some nonzero map intertwines them
        if not any(g.dim == f.dim and _hom_dim(f, g) for g in out):
            out.append(f)
    out.sort(key=lambda r: r.sort_key())
    return out


def _absolutely_irreducible(rep):
    return _hom_dim(rep, rep) == 1


def _module_factors(rep):
    """Composition factors of a module: ``semisimplify``'s exhaustive
    subspace search at small dimension, cyclic-submodule spinning above it."""
    if rep.dim <= 3:
        return semisimplify(rep)
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

