"""Generalized matrix algebras: idempotent data, axiom verification, the
canonical cycle-sum determinant law, and adapted representations.

A GMA structure on an algebra R is given by matrix-unit lifts: for each
block i a family w[i][j][k] of elements multiplying like the matrix units
of M_{d_i}, with the block idempotent e_i = sum_j w[i][j][j].  All derived
data (primitive idempotents E^l, the coordinate modules A^{l,m}, scalar
extractions) is computed from these lifts.
"""

from itertools import permutations, product

from .algebras import FinAlgebra, GroupAlgebra
from .errors import GmaAxiomFailure, PointCapExceeded, ShapeMismatch
from .fields import embed_code
from .linalg import Mat, rref, in_span, reduce_vector, _perm_sign
from .poly import MPoly, symbolic_det
from .pseudo import (PseudoRep, algebra_base_change, ch_quotient, from_group_rep,
                     generic_vars)
from .reps import Representation


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

    def module_basis(self, l, m):
        """Canonical basis of A^{l,m} = E^l R E^m."""
        A = self.parent
        rows = []
        for b in range(A.n):
            v = A.mul(self.E[l], A.mul(A.basis_vec(b), self.E[m]))
            rows.append(v)
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

    def scalar_poly_of(self, l, vec, zero):
        """phi^l for a vector with polynomial coordinates."""
        F = self.field
        E = self.E[l]
        idx = next(i for i, c in enumerate(E) if c)
        c = vec[idx].scale(F.inv(E[idx]))
        for i, u in enumerate(E):
            if vec[i] != c.scale(u):
                raise GmaAxiomFailure(f"element not a scalar multiple of E^{l}")
        return c


def gma_full(field, d):
    """M_d(F) as a GMA with one block: the tautological matrix units."""
    from .pseudo import matrix_algebra

    A = matrix_algebra(field, d)
    units = [[[A.basis_vec(j * d + k) for k in range(d)] for j in range(d)]]
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
    each failing check."""
    A = data.parent
    F = data.field
    rep = GmaReport()

    # matrix-unit relations: w[i][j][k] w[i'][l][m] = delta delta w[i][j][m]
    ok, wit = True, None
    for i in range(data.r):
        for i2 in range(data.r):
            for j in range(data.type[i]):
                for k in range(data.type[i]):
                    for l in range(data.type[i2]):
                        for m in range(data.type[i2]):
                            prod = A.mul(data.units[i][j][k], data.units[i2][l][m])
                            want = (data.units[i][j][m]
                                    if (i == i2 and k == l) else A.zero_vec())
                            if prod != want:
                                ok, wit = False, (i, j, k, i2, l, m)
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    rep.record("matrix_units", ok, wit)

    total = A.zero_vec()
    for e in data.e:
        total = A.add(total, e)
    rep.record("idempotent_sum", total == A.unit, None if total == A.unit else total)

    # phi_i isomorphism: e_i R e_i has dimension d_i^2 and the units span it
    ok, wit = True, None
    for i in range(data.r):
        rows = [A.mul(data.e[i], A.mul(A.basis_vec(b), data.e[i])) for b in range(A.n)]
        basis, pivots = rref(F, rows)
        di = data.type[i]
        if len(basis) != di * di:
            ok, wit = False, (i, "corner dimension", len(basis))
            break
        for j in range(di):
            for k in range(di):
                if not in_span(F, data.units[i][j][k], basis, pivots):
                    ok, wit = False, (i, j, k)
                    break
    rep.record("block_isomorphism", ok, wit)

    # trace centrality on basis pairs (bilinear, so pairs suffice)
    ok, wit = True, None
    for a in range(A.n):
        for b in range(A.n):
            xy = A.mul(A.basis_vec(a), A.basis_vec(b))
            yx = A.mul(A.basis_vec(b), A.basis_vec(a))
            if _trace(data, xy) != _trace(data, yx):
                ok, wit = False, (a, b)
                break
        if not ok:
            break
    rep.record("trace_central", ok, wit)

    # diagonal coordinate modules are lines through E^l
    ok, wit = True, None
    for l in range(data.d):
        basis = data.module_basis(l, l)
        if len(basis) != 1:
            ok, wit = False, (l, len(basis))
            break
    rep.record("diagonal_lines", ok, wit)

    # (UNIT): E^l is a left unit on A^{l,m} and a right unit via E^m
    ok, wit = True, None
    for l in range(data.d):
        for m in range(data.d):
            for v in data.module_basis(l, m):
                if A.mul(data.E[l], v) != v or A.mul(v, data.E[m]) != v:
                    ok, wit = False, (l, m)
                    break
    rep.record("unit_property", ok, wit)

    # (COM): phi^l(xy) = phi^m(yx) for x in A^{l,m}, y in A^{m,l}
    ok, wit = True, None
    for l in range(data.d):
        for m in range(data.d):
            for x in data.module_basis(l, m):
                for y in data.module_basis(m, l):
                    try:
                        cl = data.scalar_of(l, A.mul(x, y))
                        cm = data.scalar_of(m, A.mul(y, x))
                    except GmaAxiomFailure:
                        ok, wit = False, (l, m)
                        break
                    if cl != cm:
                        ok, wit = False, (l, m, x, y)
                        break
    rep.record("com_property", ok, wit)

    # (ASSO): triple products associate module-wise
    ok, wit = True, None
    for l in range(data.d):
        for m in range(data.d):
            for n2 in range(data.d):
                for x in data.module_basis(l, m):
                    for y in data.module_basis(m, n2):
                        for z in data.module_basis(n2, l):
                            if A.mul(A.mul(x, y), z) != A.mul(x, A.mul(y, z)):
                                ok, wit = False, (l, m, n2)
                                break
    rep.record("asso_property", ok, wit)
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
    return tuple(_trace(data, A.basis_vec(i)) for i in range(A.n))


def canonical_det(data, start="min", check=True):
    """The canonical determinant law D_E by the signed cycle-sum formula.

    ``start`` picks the initial element of each cycle ("min" or "max");
    the result is independent of the choice, which callers may verify by
    comparing both.
    """
    if check:
        report = verify_gma(data)
        if not report.ok:
            raise GmaAxiomFailure(f"GMA axioms fail: {report.failures()}")
    A = data.parent
    F = data.field
    d = data.d
    xs = generic_vars(A.n)
    zero = MPoly.zero(F, xs)
    xi = tuple(MPoly.var(F, xs, v) for v in xs)
    consts = {l: tuple(MPoly.const(F, xs, c) for c in data.E[l]) for l in range(d)}
    # X[l][m] = E^l x E^m on the generic element
    X = [[A.mul_poly(consts[l], A.mul_poly(xi, consts[m], zero), zero)
          for m in range(d)] for l in range(d)]
    acc = zero
    for perm in permutations(range(d)):
        term = MPoly.const(F, xs, 1)
        for cycle in _cycles(perm):
            k = min(cycle) if start == "min" else max(cycle)
            seq = [k]
            while perm[seq[-1]] != k:
                seq.append(perm[seq[-1]])
            prod = X[seq[0]][perm[seq[0]]]
            for l in seq[1:]:
                prod = A.mul_poly(prod, X[l][perm[l]], zero)
            term = term * data.scalar_poly_of(k, prod, zero)
            if term.is_zero():
                break
        if _perm_sign(perm) < 0:
            term = term.scale(F.neg(1))
        acc = acc + term
    return PseudoRep(A, d, acc)


def _cycles(perm):
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


# --- adapted representations ---

class AdaptedScheme:
    """The coordinate presentation of adapted representations.

    One commutative variable per basis element of each off-diagonal block
    module A_{i,j}; the relation ideal identifies products of composable
    variables with their value under multiplication in R.
    """

    def __init__(self, data):
        self.data = data
        A = data.parent
        F = data.field
        self.off_bases = {}
        names = []
        for i in range(data.r):
            for j in range(data.r):
                if i != j:
                    basis = data.block_module_basis(i, j)
                    self.off_bases[(i, j)] = basis
                    names.extend(f"a{i}{j}_{t}" for t in range(len(basis)))
        self.vars = tuple(names)
        self._var_index = {}
        pos = 0
        for i in range(data.r):
            for j in range(data.r):
                if i != j:
                    for t in range(len(self.off_bases[(i, j)])):
                        self._var_index[(i, j, t)] = pos
                        pos += 1
        self.relations = self._build_relations()
        self.universal = self._build_universal()

    def var(self, i, j, t, coeff=1):
        F = self.data.field
        return MPoly.var(F, self.vars, self.vars[self._var_index[(i, j, t)]], coeff)

    def _module_coords(self, i, j, vec):
        """Coordinates of vec in the canonical basis of A_{i,j}."""
        F = self.data.field
        basis = self.off_bases[(i, j)] if i != j else None
        assert basis is not None
        b, p = rref(F, basis)
        # canonical bases are already in RREF, so pivots read off coordinates
        coords = [vec[pi] for pi in p]
        recon = [0] * len(vec)
        for c, row in zip(coords, b):
            for idx, x in enumerate(row):
                if x:
                    recon[idx] = F.add(recon[idx], F.mul(c, x))
        assert tuple(recon) == tuple(vec), "vector outside the module span"
        return coords

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
                    for tb, b in enumerate(self.off_bases[(i, j)]):
                        for tc, c in enumerate(self.off_bases[(j, k)]):
                            prod = A.mul(b, c)
                            rel = self.var(i, j, tb) * self.var(j, k, tc)
                            if i == k:
                                l = sum(data.type[:i])
                                s = data.scalar_of(l, prod)
                                rel = rel - MPoly.const(F, self.vars, s)
                            else:
                                coords = self._module_coords(i, k, prod)
                                for t, s in enumerate(coords):
                                    if s:
                                        rel = rel - self.var(i, k, t, s)
                            if not rel.is_zero() and rel not in rels:
                                rels.append(rel)
        return tuple(rels)

    def _build_universal(self):
        """Images of the parent basis in M_d over the polynomial ring."""
        data = self.data
        A = data.parent
        F = data.field
        d = data.d
        out = []
        for bidx in range(A.n):
            entries = []
            for l in range(d):
                for m in range(d):
                    v = A.mul(data.E[l], A.mul(A.basis_vec(bidx), data.E[m]))
                    i, j = data.block_of[l], data.block_of[m]
                    jl, jm = data.inner_of[l], data.inner_of[m]
                    # transport A^{l,m} to A_{i,j} through the matrix units
                    w = A.mul(data.units[i][0][jl], A.mul(v, data.units[j][jm][0]))
                    if i == j:
                        li = sum(data.type[:i])
                        s = data.scalar_of(li, w)
                        entries.append(MPoly.const(F, self.vars, s))
                    else:
                        coords = self._module_coords(i, j, w)
                        p = MPoly.zero(F, self.vars)
                        for t, s in enumerate(coords):
                            if s:
                                p = p + self.var(i, j, t, s)
                        entries.append(p)
            out.append(entries)
        return tuple(out)

    def reduce(self, poly):
        """Rewrite modulo the relations until no composable product remains.

        Each step subtracts a polynomial multiple of a relation, so a zero
        result certifies ideal membership."""
        F = self.data.field
        rel_by_pair = {}
        for rel in self.relations:
            lead = max(rel.terms, key=lambda e: (sum(e), e))
            rel_by_pair[lead] = rel
        cur = poly
        changed = True
        while changed:
            changed = False
            for e in sorted(cur.terms, key=lambda t: (sum(t), t), reverse=True):
                if sum(e) < 2:
                    continue
                hit = self._find_reduction(e, rel_by_pair)
                if hit is None:
                    continue
                lead, rel, quot_exp = hit
                c = cur.terms[e]
                mult = MPoly(F, self.vars, {quot_exp: c})
                lead_coeff = rel.terms[lead]
                cur = cur - mult * rel.scale(F.inv(lead_coeff))
                changed = True
                break
        return cur

    def _find_reduction(self, e, rel_by_pair):
        for lead, rel in rel_by_pair.items():
            if all(le <= ee for le, ee in zip(lead, e)):
                quot = tuple(ee - le for le, ee in zip(lead, e))
                return lead, rel, quot
        return None

    def universal_is_homomorphism(self):
        """Check rho(x) rho(y) = rho(xy) entrywise modulo the relations."""
        data = self.data
        A = data.parent
        F = data.field
        d = data.d
        for a in range(A.n):
            for b in range(A.n):
                prod_vec = A.mul(A.basis_vec(a), A.basis_vec(b))
                want = [MPoly.zero(F, self.vars) for _ in range(d * d)]
                for k, c in enumerate(prod_vec):
                    if c:
                        for t in range(d * d):
                            want[t] = want[t] + self.universal[k][t].scale(c)
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
        entries = []
        for i in range(d):
            for j in range(d):
                p = MPoly.zero(F, both)
                for k in range(A.n):
                    cell = self.universal[k][i * d + j]
                    xslot = [0] * len(xs)
                    xslot[k] = 1
                    xslot = tuple(xslot)
                    for e, c in cell.terms.items():
                        p = p + MPoly(F, both, {e + xslot: c})
                entries.append(p)
        det = symbolic_det(F, both, entries, d)
        # reduce the scheme variables away modulo relations
        return self._reduce_mixed(det)

    def _reduce_mixed(self, poly):
        """Reduce a polynomial in scheme-vars + extra vars: relations only
        involve scheme variables (the leading exponents live there)."""
        F = self.data.field
        nv = len(self.vars)
        rel_by_pair = {}
        for rel in self.relations:
            lead = max(rel.terms, key=lambda e: (sum(e), e))
            rel_by_pair[lead] = rel
        cur = poly
        changed = True
        while changed:
            changed = False
            for e in sorted(cur.terms, key=lambda t: (sum(t[:nv]), t), reverse=True):
                scheme_part = e[:nv]
                if sum(scheme_part) < 2:
                    continue
                hit = self._find_reduction(scheme_part, rel_by_pair)
                if hit is None:
                    continue
                lead, rel, quot = hit
                c = cur.terms[e]
                rel_ext = MPoly(F, poly.vars,
                                {re + (0,) * (len(poly.vars) - nv): rc
                                 for re, rc in rel.terms.items()})
                mult = MPoly(F, poly.vars, {quot + e[nv:]: c})
                lead_coeff = rel.terms[lead]
                cur = cur - mult * rel_ext.scale(F.inv(lead_coeff))
                changed = True
                break
        return cur


def adapted_scheme(data):
    scheme = AdaptedScheme(data)
    ok, wit = scheme.universal_is_homomorphism()
    if not ok:
        raise GmaAxiomFailure(f"universal adapted map is not a homomorphism at {wit}")
    return scheme


def adapted_points(scheme, field, cap=200000):
    """All field points of the adapted scheme, assembled into representations.

    Returns (points, reps): parallel lists, where each point is a tuple of
    variable values and each rep is the evaluated universal representation.
    """
    data = scheme.data
    F0 = data.field
    nv = len(scheme.vars)
    if field.q ** nv > cap:
        raise PointCapExceeded(f"{field.q ** nv} candidate points exceed cap {cap}")
    parent = (data.parent if field == F0
              else algebra_base_change(data.parent, field))
    rels = [r.map_field(field) for r in scheme.relations]
    univ = [[cell.map_field(field) for cell in row] for row in scheme.universal]
    d = data.d
    points = []
    reps = []
    for values in product(range(field.q), repeat=nv):
        pt = dict(zip(scheme.vars, values))
        if any(r.evaluate(pt) for r in rels):
            continue
        images = []
        for bidx in range(data.parent.n):
            m = Mat(field, d, d, [univ[bidx][t].evaluate(pt) for t in range(d * d)])
            images.append(m)
        rep = Representation(parent, field, d, images, check_now=False)
        points.append(tuple(values))
        reps.append(rep)
    return points, reps


def torus_orbits(scheme, field, points):
    """Orbits of the Z(E)(F) = (F^*)^r block-scalar torus on adapted points.

    z = (z_1..z_r) conjugates the universal matrix by the block-scalar
    diagonal, scaling the A_{i,j} variable block by z_i / z_j.
    """
    data = scheme.data
    r = data.r
    var_blocks = []
    for name in scheme.vars:
        i, j = int(name[1]), int(name[2])
        var_blocks.append((i, j))
    index = {p: t for t, p in enumerate(points)}
    seen = set()
    orbits = []
    for p in points:
        if p in seen:
            continue
        orbit = set()
        for z in product(range(1, field.q), repeat=r):
            q = []
            for val, (i, j) in zip(p, var_blocks):
                factor = field.mul(z[i], field.inv(z[j]))
                q.append(field.mul(val, factor))
            q = tuple(q)
            assert q in index, "torus action leaves the point set"
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
    from .reps import direct_sum

    assert len(chars) >= 1
    rho = chars[0]
    for c in chars[1:]:
        rho = direct_sum(rho, c)
    D = PseudoRep.induce(rho)
    Q, DQ, project, lift = ch_quotient(D)
    d = len(chars)
    # the residual rep factors through Q; images of the Q basis
    qrep = _factor_rep_through(rho, Q, lift, field, d)
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


def _factor_rep_through(rho, Q, lift, field, d):
    arep = from_group_rep(rho)
    images = []
    for j in range(Q.n):
        vec = lift(Q.basis_vec(j))
        images.append(arep.image_of(vec))
    return Representation(Q, field, d, images, check_now=False)


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


def _idempotent_lift(Q, a, max_iter=64):
    """Iterate a <- 3a^2 - 2a^3; converges when a^2 - a is nilpotent."""
    F = Q.field
    three = 3 % F.p
    two = 2 % F.p
    for _ in range(max_iter):
        sq = Q.mul(a, a)
        if sq == a:
            return a
        cube = Q.mul(sq, a)
        a = Q.sub(Q.smul(three, sq), Q.smul(two, cube))
    raise GmaAxiomFailure("idempotent lifting did not converge")
