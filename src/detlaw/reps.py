"""d-dimensional representations of finite groups and algebras over finite fields.

Enumeration works from per-generator candidate sets {M : M^m = 1} built by
characteristic-polynomial fibers, so no scan of all of M_d(F) is ever needed.
Orbit classification under GL_d-conjugation descends through centralizers of
canonical class representatives, which keeps large fields (q up to 49 at
d = 2) within reach.
"""

from functools import lru_cache
from itertools import product

from .errors import (EnumerationCapExceeded, SearchCapExceeded, ShapeMismatch)
from .groups import FiniteGroup
from .linalg import (Mat, all_subspaces, gl_order, nullspace, rref,
                     reduce_vector)
from .poly import MPoly, symbolic_det


class Representation:
    """Images of either all group elements (group source) or all basis
    elements (algebra source), as d x d matrices."""

    def __init__(self, source, field, dim, images, check_now=True):
        self.source = source
        self.field = field
        self.dim = dim
        self.images = tuple(images)
        if check_now and not self.check():
            raise ShapeMismatch("images do not define a representation")

    @property
    def is_group_rep(self):
        return isinstance(self.source, FiniteGroup)

    def generator_images(self):
        assert self.is_group_rep
        return [self.images[g] for g in self.source.generators]

    def check(self):
        d = self.dim
        for m in self.images:
            if m.nrows != d or m.ncols != d or m.field != self.field:
                raise ShapeMismatch("inconsistent matrix shapes")
        if self.is_group_rep:
            G = self.source
            if not self.images[G.identity].is_identity():
                return False
            for a in range(G.order):
                for b in range(G.order):
                    if self.images[a] * self.images[b] != self.images[G.table[a][b]]:
                        return False
            return True
        A = self.source
        if len(self.images) != A.n:
            raise ShapeMismatch("need one matrix per algebra basis element")
        unit = _combine(self, A.unit)
        if not unit.is_identity():
            return False
        for i in range(A.n):
            for j in range(A.n):
                lhs = self.images[i] * self.images[j]
                rhs = _combine(self, A.mul(A.basis_vec(i), A.basis_vec(j)))
                if lhs != rhs:
                    return False
        return True

    def image_of(self, vec):
        """Image of a coordinate vector of the source (algebra coords or a
        formal group-algebra combination)."""
        return _combine(self, vec)

    def sort_key(self):
        return (self.dim, tuple(m.data for m in self.images))

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.source is other.source
            and self.field == other.field
            and self.images == other.images
        )

    def __hash__(self):
        return hash((id(self.source), self.field, self.images))

    def __repr__(self):
        return f"Rep(dim={self.dim}, {self.field}, source={getattr(self.source, 'name', self.source)})"


def _combine(rep, vec):
    F = rep.field
    out = Mat.zero(F, rep.dim)
    for i, c in enumerate(vec):
        if c:
            out = out + rep.images[i] * c
    return out


def trivial_rep(group, field, dim=1):
    eye = Mat.identity(field, dim)
    return Representation(group, field, dim, [eye] * group.order)


def conjugate_rep(rep, g):
    ginv = g.inverse()
    return Representation(rep.source, rep.field, rep.dim,
                          [g * m * ginv for m in rep.images], check_now=False)


def direct_sum(rep1, rep2):
    assert rep1.source is rep2.source and rep1.field == rep2.field
    F = rep1.field
    d1, d2 = rep1.dim, rep2.dim
    images = []
    for m1, m2 in zip(rep1.images, rep2.images):
        data = []
        for i in range(d1):
            data.extend(list(m1.rows()[i]) + [0] * d2)
        for i in range(d2):
            data.extend([0] * d1 + list(m2.rows()[i]))
        images.append(Mat(F, d1 + d2, d1 + d2, data))
    return Representation(rep1.source, F, d1 + d2, images, check_now=False)


# --- candidate matrices of bounded order ---

def scalar_roots_of_unity(field, m):
    return [a for a in range(1, field.q) if field.pow(a, m) == 1]


def _fiber_elements(field, s, p):
    """All 2x2 matrices with trace s and determinant p (p may be 0)."""
    F = field
    out = []
    for alpha in range(F.q):
        delta = F.sub(s, alpha)
        v = F.sub(F.mul(alpha, delta), p)
        if v:
            for beta in range(1, F.q):
                gamma = F.mul(v, F.inv(beta))
                out.append(Mat(F, 2, 2, (alpha, beta, gamma, delta)))
        else:
            for gamma in range(F.q):
                out.append(Mat(F, 2, 2, (alpha, 0, gamma, delta)))
            for beta in range(1, F.q):
                out.append(Mat(F, 2, 2, (alpha, beta, 0, delta)))
    return out


def _companion2(field, s, p):
    return Mat(field, 2, 2, (0, field.neg(p), 1, s))


@lru_cache(maxsize=None)
def order_candidates(field, d, m):
    """All M in GL_d(F) with M^m = 1, in a deterministic order."""
    F = field
    if d == 1:
        return tuple(Mat(F, 1, 1, (a,)) for a in scalar_roots_of_unity(F, m))
    if d == 2:
        out = [Mat.scalar(F, 2, a) for a in scalar_roots_of_unity(F, m)]
        for s in range(F.q):
            for p in range(1, F.q):
                comp = _companion2(F, s, p)
                if (comp ** m).is_identity():
                    out.extend(M for M in _fiber_elements(F, s, p)
                               if not _is_scalar(M))
        return tuple(out)
    if d == 3 and F.q <= 3:
        out = []
        for data in product(range(F.q), repeat=9):
            M = Mat(F, 3, 3, data)
            if M.det() and (M ** m).is_identity():
                out.append(M)
        return tuple(out)
    raise EnumerationCapExceeded(f"candidate enumeration unsupported for d={d}, q={F.q}")


def _is_scalar(M):
    d = M.nrows
    a = M[0, 0]
    return all(M[i, j] == (a if i == j else 0) for i in range(d) for j in range(d))


@lru_cache(maxsize=None)
def order_class_reps(field, d, m):
    """Conjugacy class representatives of {M in GL_d : M^m = 1} (canonical forms)."""
    F = field
    if d == 1:
        return order_candidates(field, 1, m)
    if d == 2:
        reps = [Mat.scalar(F, 2, a) for a in scalar_roots_of_unity(F, m)]
        # split semisimple: diag(a, b), a < b
        roots = scalar_roots_of_unity(F, m)
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                reps.append(Mat(F, 2, 2, (a, 0, 0, b)))
        # non-semisimple and irreducible classes via companion matrices;
        # root count of t^2 - s t + p decides the class shape in any char
        for s in range(F.q):
            for p in range(1, F.q):
                comp = _companion2(F, s, p)
                if not (comp ** m).is_identity():
                    continue
                nroots = sum(
                    1 for x in range(F.q)
                    if F.add(F.sub(F.mul(x, x), F.mul(s, x)), p) == 0
                )
                if nroots == 2:
                    continue  # already listed as diag(a,b)
                reps.append(comp)  # Jordan block (1 root) or irreducible (0 roots)
        return tuple(reps)
    # small d=3 fallback: orbit representatives by explicit conjugation
    seen = set()
    reps = []
    for M in order_candidates(field, d, m):
        if M not in seen:
            reps.append(M)
            seen |= conjugation_orbit(M, gl_pairs(field, d))
    return tuple(reps)


def _has_sqrt(field, a):
    if a == 0:
        return True
    return field.pow(a, (field.q - 1) // 2) == 1 if field.p != 2 else True


@lru_cache(maxsize=None)
def gl_elements(field, d):
    """All of GL_d(F); guarded by size."""
    if gl_order(field.q, d) > 300000:
        raise EnumerationCapExceeded(f"GL_{d}(F_{field.q}) too large to enumerate")
    out = []
    for data in product(range(field.q), repeat=d * d):
        M = Mat(field, d, d, data)
        if M.det():
            out.append(M)
    return tuple(out)


@lru_cache(maxsize=None)
def gl_pairs(field, d):
    """(g, g^-1) for every g of GL_d(F), in gl_elements order."""
    return tuple((g, g.inverse()) for g in gl_elements(field, d))


def conjugation_orbit(M, pairs):
    """The conjugates g M g^-1 over the (g, g^-1) pairs of a matrix group."""
    return {g * M * ginv for g, ginv in pairs}


def least_conjugate(rep):
    """The least point of rep's GL_d-orbit under sort_key, and the order of
    rep's stabilizer.

    One pass over gl_pairs.  Each conjugate is compared lazily, image by
    image in element order, with the least conjugate so far and with rep
    itself; scalar images are skipped, since conjugation fixes them.
    """
    images = rep.images
    moving = [x for x, m in enumerate(images) if not _is_scalar(m)]
    best, best_data = None, {}
    stab = 0
    for g, ginv in gl_pairs(rep.field, rep.dim):
        order = -1 if best is None else 0
        fixed = True
        data = {}
        for x in moving:
            c = data[x] = (g * images[x] * ginv).data
            fixed = fixed and c == images[x].data
            if not order:
                if x not in best_data:
                    best_data[x] = (best[0] * images[x] * best[1]).data
                order = (c > best_data[x]) - (c < best_data[x])
            if order and not fixed:
                break
        stab += fixed
        if order < 0:
            best, best_data = (g, ginv), data
    return conjugate_rep(rep, best[0]), stab


def commutant_basis(field, mats, d):
    """Basis of {T : T M = M T for all M in mats}, as d x d matrices."""
    rows = []
    for M in mats:
        # (TM - MT)[i][j] = sum_k T[i][k] M[k][j] - M[i][k] T[k][j]
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[i * d + k] = field.add(row[i * d + k], M[k, j])
                    row[k * d + j] = field.sub(row[k * d + j], M[i, k])
                rows.append(tuple(row))
    basis = nullspace(field, rows, d * d)
    return [Mat(field, d, d, v) for v in basis]


def intertwiner_basis(field, mats1, mats2, d):
    """Basis of {T : mats1[i] T = T mats2[i] for all i}."""
    rows = []
    for M1, M2 in zip(mats1, mats2):
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[k * d + j] = field.add(row[k * d + j], M1[i, k])
                    row[i * d + k] = field.sub(row[i * d + k], M2[k, j])
                rows.append(tuple(row))
    basis = nullspace(field, rows, d * d)
    return [Mat(field, d, d, v) for v in basis]


def unit_count_of_commutant(field, basis, d):
    """Number of invertible elements in the span of a commutant basis.

    The span is an algebra (it always is for a commutant); for d <= 2 the
    count follows from its isomorphism type, otherwise small spans are
    enumerated.
    """
    F = field
    m = len(basis)
    q = F.q
    if m == 1:
        return q - 1
    if d == 2:
        if m == 4:
            return gl_order(q, 2)
        if m == 2:
            u = next(b for b in basis if not _is_scalar(b))
            s, p = u.trace(), u.det()
            disc = F.sub(F.mul(s, s), F.mul(4 % F.p, p))
            if F.p == 2:
                # char 2: (t^2 - st + p) separable iff s != 0
                if s == 0:
                    return q * q - q
                # roots in F iff t^2+st+p has a root: scan (q is tiny here)
                has_root = any(F.add(F.mul(x, F.add(x, s)), p) == 0 for x in range(q))
                return (q - 1) ** 2 if has_root else q * q - 1
            if disc == 0:
                return q * q - q
            return (q - 1) ** 2 if _has_sqrt(F, disc) else q * q - 1
    if q ** m <= 200000:
        return sum(1 for _ in _span_units(F, basis, d))
    raise SearchCapExceeded("commutant too large to count units")


def _span_units(field, basis, d):
    """The invertible elements of the span of basis (d x d matrices), in
    coefficient order: sum c_i B_i for (c_1, ..., c_m) in product order."""
    F = field
    rows = [B.data for B in basis]
    for coeffs in product(range(F.q), repeat=len(rows)):
        data = [0] * (d * d)
        for c, row in zip(coeffs, rows):
            if c:
                data = F.sub_mul_row(data, F.neg(c), row)
        T = Mat(F, d, d, data)
        if T.det():
            yield T


# --- enumeration of homomorphisms ---

def _extend_images(group, images, assigned):
    """Extend the image table of the subgroup generated by the first
    len(assigned) - 1 generators by the image assigned[-1] of the next one.

    ``images`` (element -> matrix) must already agree on every edge
    a -> a*g by those generators, so only new edges are checked: edges by
    the new generator and edges out of new elements.  Returns the table of
    the larger subgroup, or None if no homomorphism takes these images.
    """
    table = group.table
    gens = list(zip(group.generators, assigned))
    out = dict(images)
    frontier = list(images)
    steps = gens[-1:]
    while frontier:
        nxt = []
        for a in frontier:
            A = out[a]
            for g, M in steps:
                b = table[a][g]
                cand = A * M
                if b not in out:
                    out[b] = cand
                    nxt.append(b)
                elif out[b] != cand:
                    return None
        frontier, steps = nxt, gens
    return out


def _leaf_rep(group, field, dim, images):
    return Representation(group, field, dim,
                          [images[x] for x in range(group.order)],
                          check_now=False)


def enumerate_reps(group, dim, field, cap=10 ** 7):
    """Complete list of homomorphisms G -> GL_d(F), in deterministic order."""
    gens = group.generators
    cand_sets = [order_candidates(field, dim, group.element_order(g)) for g in gens]
    total = 1
    for s in cand_sets:
        total *= len(s)
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} candidate tuples exceed enumeration cap {cap}")
    out = []

    def dfs(assigned, images):
        i = len(assigned)
        if i == len(gens):
            out.append(_leaf_rep(group, field, dim, images))
            return
        for M in cand_sets[i]:
            ext = _extend_images(group, images, assigned + [M])
            if ext is not None:
                dfs(assigned + [M], ext)

    dfs([], {group.identity: Mat.identity(field, dim)})
    out.sort(key=lambda r: r.sort_key())
    return out


FULL_GL = "full"


@lru_cache(maxsize=None)
def hom_orbit_reps(group, dim, field):
    """GL_d-conjugation orbit representatives of Hom(G, GL_d(F)) with orbit sizes.

    Descends generator by generator: under the full GL the first image is
    reduced to a canonical conjugacy class representative and the remaining
    generators are classified under its centralizer (explicit lists of
    (g, g^-1) pairs once the symmetry group is small enough).  No symmetry
    group is built after the last generator.

    Returns a tuple of (Representation, orbit_size), deterministically
    ordered.  The result is cached per (group, dim, field), so that `fiber`
    descends once per dimension across orbit_partition and split_search.
    """
    gens = group.generators
    orders = [group.element_order(g) for g in gens]
    gl = gl_order(field.q, dim)
    results = []

    def recurse(assigned, images, symmetry):
        i = len(assigned)
        if i == len(gens):
            comm = commutant_basis(field, assigned or [Mat.identity(field, dim)], dim)
            results.append((_leaf_rep(group, field, dim, images),
                            gl // unit_count_of_commutant(field, comm, dim)))
            return
        last = i + 1 == len(gens)
        if symmetry is FULL_GL:
            for M in order_class_reps(field, dim, orders[i]):
                ext = _extend_images(group, images, assigned + [M])
                if ext is not None:
                    recurse(assigned + [M], ext,
                            None if last else centralizer_or_full(field, M, dim))
            return
        seen = set()
        for M in order_candidates(field, dim, orders[i]):
            if M in seen:
                continue
            ext = _extend_images(group, images, assigned + [M])
            if ext is None:
                continue
            seen |= conjugation_orbit(M, symmetry)
            stab = None if last else [(g, ginv) for g, ginv in symmetry
                                      if g * M == M * g]
            recurse(assigned + [M], ext, stab)

    recurse([], {group.identity: Mat.identity(field, dim)}, FULL_GL)
    results.sort(key=lambda t: t[0].sort_key())
    return tuple(results)


def centralizer_or_full(field, M, dim):
    """Centralizer of M in GL_d as a list of (g, g^-1) pairs, or FULL_GL for
    scalars."""
    if _is_scalar(M):
        return FULL_GL
    basis = commutant_basis(field, [M], dim)
    return [(T, T.inverse()) for T in _span_units(field, basis, dim)]


# --- submodules, semisimplification, isomorphism ---

def _acting_matrices(rep):
    """A set of matrices whose stable subspaces are exactly the submodules."""
    if rep.is_group_rep:
        return [rep.images[g] for g in rep.source.generators]
    return list(rep.images)


def _stable(field, mats, rows, pivots):
    for M in mats:
        for r in rows:
            img = M.apply(r)
            if any(reduce_vector(field, img, rows, pivots)):
                return False
    return True


def invariant_subspace(rep):
    """A proper nonzero stable subspace basis (RREF rows), or None iff irreducible.

    Searches all k-dimensional subspaces for k = 1..d-1 in canonical order;
    exhaustive, hence None certifies irreducibility.
    """
    F = rep.field
    d = rep.dim
    mats = _acting_matrices(rep)
    for k in range(1, d):
        for rows in all_subspaces(F, d, k):
            basis, pivots = rref(F, rows)
            if _stable(F, mats, basis, pivots):
                return list(basis)
    return None


def sub_quotient_reps(rep, subspace_rows):
    """Restrict to a stable subspace and to the quotient by it."""
    F = rep.field
    d = rep.dim
    basis, pivots = rref(F, subspace_rows)
    k = len(basis)
    free = [j for j in range(d) if j not in pivots]

    def sub_coords(vec):
        # vec is in the span; its coordinates wrt the RREF basis are the pivots
        return tuple(vec[p] for p in pivots)

    sub_images = []
    quo_images = []
    for M in rep.images:
        sdata = []
        for b in basis:
            img = M.apply(b)
            sdata.append(sub_coords(img))
        sub_images.append(Mat(F, k, k, [sdata[j][i] for i in range(k) for j in range(k)]))
        qdata = []
        cols = []
        for j in free:
            e = tuple(1 if t == j else 0 for t in range(d))
            img = reduce_vector(F, M.apply(e), basis, pivots)
            cols.append(tuple(img[t] for t in free))
        for i in range(d - k):
            qdata.extend(cols[j][i] for j in range(d - k))
        quo_images.append(Mat(F, d - k, d - k, qdata))
    sub = _rebuild(rep, k, sub_images)
    quo = _rebuild(rep, d - k, quo_images)
    return sub, quo


def _rebuild(rep, dim, images):
    return Representation(rep.source, rep.field, dim, images, check_now=False)


class JHDecomposition:
    """Multiset of irreducible Jordan-Hoelder factors, canonically sorted."""

    def __init__(self, factors):
        self.factors = sorted(factors, key=lambda r: r.sort_key())

    def multiset_key(self):
        """Iso-invariant key: sorted (dim, char-poly data) of each factor."""
        out = []
        for f in self.factors:
            out.append((f.dim, tuple(m.char_poly_coeffs() for m in f.images)))
        return tuple(sorted(out))

    def direct_sum_rep(self):
        out = self.factors[0]
        for f in self.factors[1:]:
            out = direct_sum(out, f)
        return out

    def __repr__(self):
        return f"JH({[f.dim for f in self.factors]})"


def semisimplify(rep):
    """Jordan-Hoelder factors by recursive splitting along stable subspaces."""
    sub_rows = invariant_subspace(rep)
    if sub_rows is None:
        return JHDecomposition([rep])
    sub, quo = sub_quotient_reps(rep, sub_rows)
    return JHDecomposition(semisimplify(sub).factors + semisimplify(quo).factors)


def isomorphic(rep1, rep2, cap=200000):
    """Exact isomorphism test via the intertwiner space.

    An invertible intertwiner exists iff det(sum x_i T_i) is a nonzero
    polynomial; for deg < q a witness is found by deterministic
    variable-by-variable substitution, otherwise the solution space is
    enumerated (guarded by cap).
    """
    if rep1.source is not rep2.source or rep1.field != rep2.field or rep1.dim != rep2.dim:
        return False
    if rep1.images == rep2.images:
        return True
    F = rep1.field
    d = rep1.dim
    basis = intertwiner_basis(F, rep1.images, rep2.images, d)
    if not basis:
        return False
    m = len(basis)
    names = tuple(f"x{i}" for i in range(m))
    entries = []
    for i in range(d):
        for j in range(d):
            poly = MPoly.zero(F, names)
            for t, B in enumerate(basis):
                if B[i, j]:
                    poly = poly + MPoly.var(F, names, names[t], F.elem(B[i, j]))
            entries.append(poly)
    detp = symbolic_det(F, names, entries, d)
    if detp.is_zero():
        return False
    if d < F.q:
        return True
    if F.q ** m > cap:
        raise SearchCapExceeded("intertwiner space too large to certify invertibility")
    for coeffs in product(range(F.q), repeat=m):
        if detp.evaluate(dict(zip(names, coeffs))):
            return True
    return False


# --- irreducibles and characters ---

def characters(group, field):
    """All 1-dimensional representations, deterministically ordered."""
    return enumerate_reps(group, 1, field)


def irreducible_reps(group, field, maxdim):
    """Irreducible representations of dimension <= maxdim, one per iso class."""
    out = []
    for d in range(1, maxdim + 1):
        for rep, _size in hom_orbit_reps(group, d, field):
            if invariant_subspace(rep) is None:
                out.append(rep)
    return out
