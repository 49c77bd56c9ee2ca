"""Generalized matrix algebras: idempotent data, axiom verification, the
canonical cycle-sum determinant law, and adapted representations.

A GMA structure on an algebra R is given by matrix-unit lifts: for each
block i a family w[i][j][k] of elements multiplying like the matrix units
of M_{d_i}, with the block idempotent e_i = sum_j w[i][j][j].  All derived
data (primitive idempotents E^l, the coordinate modules A^{l,m}, scalar
extractions) is computed from these lifts.
"""

from functools import cached_property, reduce
from itertools import permutations, product
from operator import add, le, sub

from .errors import (GmaAxiomFailure, HypothesisViolation, InvariantViolation,
                     PointCapExceeded, ShapeMismatch)
from .linalg import Mat, rref, in_span, _cycles
from .poly import MPoly, _add_into, symbolic_det
from .pseudo import PseudoRep, ch_quotient, generic_vars
from .reps import Representation, direct_sum


class GmaData:
    """A GMA structure: parent algebra, block type, matrix-unit lifts."""

    def __init__(self, parent, block_type, units):
        self.parent = parent
        self.field = parent.field
        self.type = tuple(block_type)
        self.r = len(self.type)
        self.d = sum(self.type)
        # units[i][j][k] is the lift of the (j,k) matrix unit of block i
        self.units = tuple(tuple(tuple(tuple(v) for v in row) for row in block)
                           for block in units)
        if len(self.units) != self.r or any(
                len(b) != di or any(len(row) != di for row in b)
                for b, di in zip(self.units, self.type)):
            raise ShapeMismatch("matrix-unit array shape disagrees with the type")
        self.e = tuple(self._block_sum(i) for i in range(self.r))
        flat = []
        for i, di in enumerate(self.type):
            for j in range(di):
                flat.append(self.units[i][j][j])
        self.E = tuple(flat)
        self.block_of = tuple(i for i, di in enumerate(self.type) for _ in range(di))
        self.inner_of = tuple(j for di in self.type for j in range(di))

    def _block_sum(self, i):
        A = self.parent
        acc = A.zero_vec()
        for j in range(self.type[i]):
            acc = A.add(acc, self.units[i][j][j])
        return acc

    @cached_property
    def report(self):
        """The GmaReport of verify_gma, computed once: the data is fixed."""
        return verify_gma(self)

    def module_basis(self, l, m):
        """Canonical basis of A^{l,m} = E^l R E^m."""
        A = self.parent
        rows = [A.mul(self.E[l], A.mul(b, self.E[m])) for b in A.basis]
        basis, _ = rref(A.field, rows)
        return list(basis)

    def block_module_basis(self, i, j):
        """Canonical basis of A_{i,j} = E_i^1 R E_j^1."""
        l = sum(self.type[:i])
        m = sum(self.type[:j])
        return self.module_basis(l, m)

    def scalar_of(self, l, vec):
        """phi^l: the scalar c with vec = c * E^l (vec in A^{l,l})."""
        F = self.field
        E = self.E[l]
        idx = next(i for i, c in enumerate(E) if c)
        c = F.mul(vec[idx], F.inv(E[idx]))
        if tuple(F.mul(c, x) for x in E) != tuple(vec):
            raise GmaAxiomFailure(f"element not a scalar multiple of E^{l}")
        return c


def gma_full(field, d):
    """M_d(F) as a GMA with one block: the tautological matrix units."""
    from .pseudo import matrix_algebra

    A = matrix_algebra(field, d)
    units = [[[A.basis[j * d + k] for k in range(d)] for j in range(d)]]
    return GmaData(A, (d,), units)


class GmaReport:
    def __init__(self):
        self.checks = {}

    def record(self, name, ok, witness=None):
        self.checks[name] = (bool(ok), witness)

    @property
    def ok(self):
        return all(v[0] for v in self.checks.values())

    def failures(self):
        return {k: w for k, (ok, w) in self.checks.items() if not ok}

    def __repr__(self):
        return f"GmaReport(ok={self.ok}, checks={ {k: v[0] for k, v in self.checks.items()} })"


def verify_gma(data):
    """Check every GMA axiom; the report carries the first counterexample of
    each failing check, in loop order."""
    A = data.parent
    F = data.field
    mul = A.mul
    d = data.d
    pairs = list(product(range(d), repeat=2))
    mods = {(l, m): data.module_basis(l, m) for l, m in pairs}

    def matrix_units():
        # w[i][j][k] w[i'][l][m] = delta delta w[i][j][m]
        for i, i2 in product(range(data.r), repeat=2):
            for j, k in product(range(data.type[i]), repeat=2):
                for l, m in product(range(data.type[i2]), repeat=2):
                    want = (data.units[i][j][m]
                            if (i == i2 and k == l) else A.zero_vec())
                    if mul(data.units[i][j][k], data.units[i2][l][m]) != want:
                        yield (i, j, k, i2, l, m)

    def idempotent_sum():
        total = A.zero_vec()
        for e in data.e:
            total = A.add(total, e)
        if total != A.unit:
            yield total

    def block_isomorphism():
        # phi_i isomorphism: e_i R e_i has dimension d_i^2 and the units span it
        for i, di in enumerate(data.type):
            e = data.e[i]
            basis, pivots = rref(F, [mul(e, mul(b, e)) for b in A.basis])
            if len(basis) != di * di:
                yield (i, "corner dimension", len(basis))
            for j, k in product(range(di), repeat=2):
                if not in_span(F, data.units[i][j][k], basis, pivots):
                    yield (i, j, k)

    def trace_central():
        # on basis pairs (bilinear, so pairs suffice)
        for a, b in product(range(A.n), repeat=2):
            x, y = A.basis[a], A.basis[b]
            if _trace(data, mul(x, y)) != _trace(data, mul(y, x)):
                yield (a, b)

    def diagonal_lines():
        # diagonal coordinate modules are lines through E^l
        for l in range(d):
            if len(mods[l, l]) != 1:
                yield (l, len(mods[l, l]))

    def unit_property():
        # E^l is a left unit on A^{l,m} and E^m a right unit
        for l, m in pairs:
            for v in mods[l, m]:
                if mul(data.E[l], v) != v or mul(v, data.E[m]) != v:
                    yield (l, m)

    def com_property():
        # phi^l(xy) = phi^m(yx) for x in A^{l,m}, y in A^{m,l}
        for l, m in pairs:
            for x, y in product(mods[l, m], mods[m, l]):
                try:
                    cl = data.scalar_of(l, mul(x, y))
                    cm = data.scalar_of(m, mul(y, x))
                except GmaAxiomFailure:
                    yield (l, m)
                else:
                    if cl != cm:
                        yield (l, m, x, y)

    def asso_property():
        # triple products associate module-wise
        for l, m, n2 in product(range(d), repeat=3):
            for x, y, z in product(mods[l, m], mods[m, n2], mods[n2, l]):
                if mul(mul(x, y), z) != mul(x, mul(y, z)):
                    yield (l, m, n2)

    rep = GmaReport()
    for check in (matrix_units, idempotent_sum, block_isomorphism, trace_central,
                  diagonal_lines, unit_property, com_property, asso_property):
        wit = next(check(), None)
        rep.record(check.__name__, wit is None, wit)
    return rep


def _trace(data, vec):
    """Tr_E(x) = sum_l phi^l(E^l x E^l)."""
    A = data.parent
    F = data.field
    acc = 0
    for l in range(data.d):
        v = A.mul(data.E[l], A.mul(vec, data.E[l]))
        acc = F.add(acc, data.scalar_of(l, v))
    return acc


def trace_form(data):
    """Tr_E on the basis of the parent algebra."""
    A = data.parent
    return tuple(_trace(data, e) for e in A.basis)


def canonical_det(data, start="min"):
    """The canonical determinant law D_E by the signed cycle-sum formula, on
    a verified GMA.

    At the generic x, E^l x E^m = sum_t f_t(x) w_t over the RREF basis w_t
    of A^{l,m}, where the linear form f_t reads pivot t of E^l e_b E^m off
    each basis element e_b.  A cycle's scalar phi(E^l x E^m ... x E^l) is
    then the sum, over one w_t per factor, of phi(product of the w_t) times
    the product of their forms, so every product in R is one of code
    vectors.

    ``start`` picks the initial element of each cycle ("min" or "max");
    the result is independent of the choice, which callers may verify by
    comparing both.
    """
    if not data.report.ok:
        raise GmaAxiomFailure(f"GMA axioms fail: {data.report.failures()}")
    A = data.parent
    F = data.field
    d = data.d
    xs = generic_vars(A.n)
    X = {}
    for l, m in product(range(d), repeat=2):
        images = [A.mul(data.E[l], A.mul(b, data.E[m])) for b in A.basis]
        basis, pivots = rref(F, images)
        X[l, m] = [(w, MPoly.linear(F, xs, [v[p] for v in images]))
                   for w, p in zip(basis, pivots)]
    acc = MPoly.zero(F, xs)
    pick = min if start == "min" else max
    for perm in permutations(range(d)):
        term = MPoly.const(F, xs, 1)
        cycles = _cycles(perm)
        for cycle in cycles:
            j = cycle.index(pick(cycle))
            seq = cycle[j:] + cycle[:j]
            value = MPoly.zero(F, xs)
            for factors in product(*(X[l, perm[l]] for l in seq)):
                s = data.scalar_of(seq[0], reduce(A.mul, (w for w, _f in factors)))
                if s:
                    value = value + reduce(MPoly.__mul__, (f for _w, f in factors)).scale(s)
            term = term * value
            if term.is_zero():
                break
        if (d - len(cycles)) % 2:
            term = term.scale(F.neg(1))
        acc = acc + term
    return PseudoRep(A, d, acc)


# --- adapted representations ---

class AdaptedScheme:
    """The coordinate presentation of adapted representations.

    One commutative variable per basis element of each off-diagonal block
    module A_{i,j}; the relation ideal identifies products of composable
    variables with their value under multiplication in R.  Each relation is
    monic in its one quadratic term, its leading exponent.
    """

    def __init__(self, data):
        self.data = data
        F = data.field
        self.off_bases = {}  # (i, j) -> (RREF basis of A_{i,j}, pivots)
        self.var_blocks = []  # (i, j) of each variable
        self._var_index = {}
        names = []
        for i in range(data.r):
            for j in range(data.r):
                if i != j:
                    self.off_bases[(i, j)] = rref(F, data.block_module_basis(i, j))
                    for t in range(len(self.off_bases[(i, j)][0])):
                        self._var_index[(i, j, t)] = len(names)
                        names.append(f"a{i}{j}_{t}")
                        self.var_blocks.append((i, j))
        self.vars = tuple(names)
        self.relations = self._build_relations()
        self._by_lead = {_lead(rel): rel for rel in self.relations}
        self.universal = self._build_universal()

    def var(self, i, j, t):
        F = self.data.field
        return MPoly.var(F, self.vars, self.vars[self._var_index[(i, j, t)]])

    def _linear_form(self, i, j, vec):
        """sum_t c_t a{i}{j}_t for vec = sum_t c_t b_t in A_{i,j} = <b_t>."""
        F = self.data.field
        basis, pivots = self.off_bases[(i, j)]
        if not in_span(F, vec, basis, pivots):
            raise InvariantViolation(f"vector outside A_{i}{j}", witness=(i, j, vec))
        coeffs = [0] * len(self.vars)
        for t, p in enumerate(pivots):
            coeffs[self._var_index[(i, j, t)]] = vec[p]
        return MPoly.linear(F, self.vars, coeffs)

    def _build_relations(self):
        """b*c - phi(b (x) c) for all composable off-diagonal basis pairs."""
        data = self.data
        A = data.parent
        F = data.field
        rels = []
        for i in range(data.r):
            for j in range(data.r):
                if i == j:
                    continue
                for k in range(data.r):
                    if j == k:
                        continue
                    for tb, b in enumerate(self.off_bases[(i, j)][0]):
                        for tc, c in enumerate(self.off_bases[(j, k)][0]):
                            prod = A.mul(b, c)
                            if i == k:
                                s = data.scalar_of(sum(data.type[:i]), prod)
                                value = MPoly.const(F, self.vars, s)
                            else:
                                value = self._linear_form(i, k, prod)
                            rel = self.var(i, j, tb) * self.var(j, k, tc) - value
                            if rel not in rels:
                                rels.append(rel)
        return tuple(rels)

    def _build_universal(self):
        """Images of the parent basis in M_d over the polynomial ring."""
        data = self.data
        A = data.parent
        F = data.field
        d = data.d
        out = []
        for b in A.basis:
            entries = []
            for l in range(d):
                for m in range(d):
                    v = A.mul(data.E[l], A.mul(b, data.E[m]))
                    i, j = data.block_of[l], data.block_of[m]
                    jl, jm = data.inner_of[l], data.inner_of[m]
                    # transport A^{l,m} to A_{i,j} through the matrix units
                    w = A.mul(data.units[i][0][jl], A.mul(v, data.units[j][jm][0]))
                    if i == j:
                        s = data.scalar_of(sum(data.type[:i]), w)
                        entries.append(MPoly.const(F, self.vars, s))
                    else:
                        entries.append(self._linear_form(i, j, w))
            out.append(entries)
        return tuple(out)

    def reduce(self, poly):
        """Rewrite modulo the relations until no term is divisible by a
        leading exponent.

        ``poly``'s first variables are the scheme's; any further ones ride
        along as coefficients.  Terms are rewritten from the highest scheme
        degree down, each by the first relation whose leading exponent
        divides it.  A rewrite only adds terms of lower scheme degree, so
        the order within one degree does not matter.  Each step subtracts a
        polynomial multiple of a relation, so a zero result certifies ideal
        membership."""
        F = self.data.field
        nv = len(self.vars)
        pad = (0,) * (len(poly.vars) - nv)
        terms = dict(poly.terms)
        top = max((sum(e[:nv]) for e in terms), default=0)
        for deg in range(top, 1, -1):
            for e in [e for e in terms if sum(e[:nv]) == deg]:
                lead = next((lead for lead in self._by_lead
                             if all(map(le, lead, e))), None)
                if lead is None:
                    continue
                c = F.neg(terms[e])
                quot = tuple(map(sub, e, lead + pad))
                _add_into(F, terms, ((tuple(map(add, quot, r + pad)), F.mul(c, rc))
                                     for r, rc in self._by_lead[lead].terms.items()))
        return MPoly(F, poly.vars, terms)

    def image(self, vec):
        """The universal matrix of the parent element vec, sum_k vec[k]
        universal[k], as its d * d entries."""
        F = self.data.field
        out = [MPoly.zero(F, self.vars) for _ in range(self.data.d ** 2)]
        for k, c in enumerate(vec):
            if c:
                for t, cell in enumerate(self.universal[k]):
                    out[t] = out[t] + cell.scale(c)
        return out

    def universal_is_homomorphism(self):
        """Check rho(x) rho(y) = rho(xy) entrywise modulo the relations."""
        data = self.data
        A = data.parent
        F = data.field
        d = data.d
        for a in range(A.n):
            for b in range(A.n):
                want = self.image(A.mul(A.basis[a], A.basis[b]))
                for i in range(d):
                    for j in range(d):
                        got = MPoly.zero(F, self.vars)
                        for k in range(d):
                            got = got + (self.universal[a][i * d + k]
                                         * self.universal[b][k * d + j])
                        diff = got - want[i * d + j]
                        if not self.reduce(diff).is_zero():
                            return False, (a, b, i, j)
        return True, None

    def universal_det(self):
        """det of the universal matrix for the generic parent element, as a
        law reduced modulo the relations."""
        data = self.data
        A = data.parent
        F = data.field
        d = data.d
        xs = generic_vars(A.n)
        both = self.vars + xs
        # entry t is sum_k universal[k][t] * x_k; no two terms share a key
        entries = [MPoly(F, both, {e + x: c for x, row in zip(A.basis, self.universal)
                                   for e, c in row[t].terms.items()})
                   for t in range(d * d)]
        return self.reduce(symbolic_det(F, both, entries, d))


def _lead(poly):
    """The leading exponent of a nonzero polynomial in graded-lex order."""
    return max(poly.terms, key=lambda e: (sum(e), e))


def adapted_scheme(data):
    scheme = AdaptedScheme(data)
    ok, wit = scheme.universal_is_homomorphism()
    if not ok:
        raise GmaAxiomFailure(f"universal adapted map is not a homomorphism at {wit}")
    return scheme


def adapted_points(scheme, cap=200000):
    """All points of the adapted scheme over its own field, assembled into
    representations.

    Returns (points, reps): parallel lists, where each point is a tuple of
    variable values and each rep is the evaluated universal representation.
    """
    data = scheme.data
    field = data.field
    nv = len(scheme.vars)
    if field.q ** nv > cap:
        raise PointCapExceeded(f"{field.q ** nv} candidate points exceed cap {cap}")
    univ = scheme.universal
    d = data.d
    points = []
    reps = []
    for values in product(range(field.q), repeat=nv):
        pt = dict(zip(scheme.vars, values))
        if any(r.evaluate(pt) for r in scheme.relations):
            continue
        images = []
        for bidx in range(data.parent.n):
            m = Mat(field, d, d, [univ[bidx][t].evaluate(pt) for t in range(d * d)])
            images.append(m)
        rep = Representation(data.parent, field, d, images, check_now=False)
        points.append(tuple(values))
        reps.append(rep)
    return points, reps


def torus_orbits(scheme, points):
    """Orbits of the Z(E)(F) = (F^*)^r block-scalar torus on adapted points.

    z = (z_1..z_r) conjugates the universal matrix by the block-scalar
    diagonal, scaling the A_{i,j} variable block by z_i / z_j.  This stays
    apart from the orbit search of ``reps._descend``: it scales coordinate
    tuples of points by z_i / z_j and never conjugates matrices.
    """
    field, r = scheme.data.field, scheme.data.r
    on_scheme = set(points)
    seen = set()
    orbits = []
    for p in points:
        if p in seen:
            continue
        orbit = set()
        for z in product(range(1, field.q), repeat=r):
            q = tuple(field.mul(val, field.mul(z[i], field.inv(z[j])))
                      for val, (i, j) in zip(p, scheme.var_blocks))
            if q not in on_scheme:
                raise InvariantViolation("torus action leaves the point set",
                                         witness=(p, z))
            orbit.add(q)
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


# --- GMA structures from residual data ---

def gma_from_characters(group, chars, field):
    """A GMA of type (1,..,1) on E = F[G]/CH(psi(sum of chars)).

    ``chars`` are pairwise distinct one-dimensional representations; the i-th
    block idempotent lifts the projector onto the i-th character through the
    Cayley-Hamilton quotient.
    """
    if not chars:
        raise HypothesisViolation("a GMA needs at least one character")
    for j, c in enumerate(chars):
        for i in range(j):
            if chars[i].images == c.images:
                values = [c.images[g][0, 0] for g in group.generators]
                raise HypothesisViolation(
                    f"characters {i} and {j} are the same character (values "
                    f"{values} on the generators); a GMA needs pairwise "
                    f"distinct characters")
    rho = direct_sum(*chars)
    Q, DQ, project, lift = ch_quotient(PseudoRep.induce(rho))
    d = len(chars)
    # the residual rep factors through Q; images of the Q basis
    qrep = Representation(Q, field, d, [rho.image_of(lift(e)) for e in Q.basis],
                          check_now=False)
    es = []
    partial = Q.zero_vec()
    for i in range(d - 1):
        target = Mat(field, d, d, [1 if (a == b == i) else 0
                                   for a in range(d) for b in range(d)])
        a = _idempotent_preimage(Q, qrep, target)
        # push into the corner cut out by the previous idempotents, which
        # keeps the lifts mutually orthogonal
        comp = Q.sub(Q.unit, partial)
        a = Q.mul(comp, Q.mul(a, comp))
        e = _idempotent_lift(Q, a)
        es.append(e)
        partial = Q.add(partial, e)
    es.append(Q.sub(Q.unit, partial))
    units = [[[e]] for e in es]
    return GmaData(Q, (1,) * d, units), DQ, project


def _idempotent_preimage(Q, qrep, target):
    """Any element of Q mapping to the target matrix under the rep."""
    F = Q.field
    rows = []
    rhs = []
    d = qrep.dim
    for i in range(d):
        for j in range(d):
            rows.append(tuple(qrep.images[k][i, j] for k in range(Q.n)))
            rhs.append(target[i, j])
    from .linalg import solve

    a = solve(F, rows, Q.n, rhs)
    if a is None:
        raise GmaAxiomFailure("projector has no preimage in the quotient algebra")
    return a


def _idempotent_lift(Q, a):
    """Iterate a <- 3a^2 - 2a^3, at most 64 times; converges when a^2 - a is
    nilpotent."""
    F = Q.field
    three = 3 % F.p
    two = 2 % F.p
    for _ in range(64):
        sq = Q.mul(a, a)
        if sq == a:
            return a
        cube = Q.mul(sq, a)
        a = Q.sub(Q.smul(three, sq), Q.smul(two, cube))
    raise GmaAxiomFailure("idempotent lifting did not converge")
