"""d-dimensional representations of finite groups and algebras over finite fields.

The classes of {M in GL_d : M^m = 1}, d <= 3 (q <= 5 at d = 3), are listed
by elementary divisors, and the candidates of a generator are their union.
One descent serves enumeration and orbit classification under
GL_d-conjugation: it descends through class representatives and the units
of their commutants, and reads each orbit's size off the stabilizer it
reaches.  Least orbit points come alike at every d: the first moving
image goes to the least member of its class, grown by conjugation, and
only the intertwiners that take it there are scanned.  Candidates that
break a conjugation or power relation of the group are dropped before
their image table.
"""

from functools import lru_cache, partial
from itertools import accumulate, combinations_with_replacement, product
from math import prod

from .errors import EnumerationCapExceeded, HypothesisViolation, ShapeMismatch
from .groups import FiniteGroup
from .linalg import (Mat, all_subspaces, block_matrix, combine, gl_order,
                     is_stable, mul_codes, nullspace, projective_points,
                     reduce_vector, rref)


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
        if not self.is_group_rep:
            raise ShapeMismatch(f"generator images need a group source, not {self.source!r}")
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
        unit = self.image_of(A.unit)
        if not unit.is_identity():
            return False
        for i in range(A.n):
            for j in range(A.n):
                lhs = self.images[i] * self.images[j]
                rhs = self.image_of(A.mul(A.basis[i], A.basis[j]))
                if lhs != rhs:
                    return False
        return True

    def image_of(self, vec):
        """Image of a coordinate vector of the source (algebra coords or a
        formal group-algebra combination): sum_i vec[i] images[i]."""
        F, d = self.field, self.dim
        return Mat(F, d, d, combine(F, vec, [m.data for m in self.images]))

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


def trivial_rep(group, field, dim=1):
    eye = Mat.identity(field, dim)
    return Representation(group, field, dim, [eye] * group.order)


def conjugate_rep(rep, g):
    ginv = g.inverse()
    return Representation(rep.source, rep.field, rep.dim,
                          [g * m * ginv for m in rep.images], check_now=False)


def direct_sum(*reps):
    """The block-diagonal sum of one or more representations of one source
    over one field."""
    first = reps[0]
    for rep in reps[1:]:
        if rep.source is not first.source or rep.field != first.field:
            raise ShapeMismatch(f"direct sum across sources or fields: {first!r}, {rep!r}")
    *starts, d = accumulate((rep.dim for rep in reps), initial=0)
    F = first.field
    images = [block_matrix(F, d, zip(starts, starts, mats))
              for mats in zip(*(rep.images for rep in reps))]
    return Representation(first.source, F, d, images, check_now=False)


# --- classes and candidate matrices of bounded order ---

def _times_linear(field, f, a):
    """(t - a) f for a monic f, both as low coefficients: f = t^k + sum f[i] t^i."""
    full = f + (1,)
    return tuple(field.sub(lo, field.mul(a, hi)) for lo, hi in zip((0,) + full[:-1], full))


def _divides_t_m_minus_1(field, f, m):
    """Whether the monic f divides t^m - 1, carrying t^m modulo f."""
    F = field
    r = one = (1,) + (0,) * (len(f) - 1)
    for _ in range(m):
        top = r[-1]
        r = tuple(F.sub(lo, F.mul(top, c)) for lo, c in zip((0,) + r[:-1], f))
    return r == one


@lru_cache(maxsize=None)
def _elementary_divisors(field, d, m):
    """The powers of monic irreducibles of degree <= d that divide t^m - 1,
    by degree: (t - a)^k for each a^m = 1 in code order, then the irreducible
    f.  Roots of a divisor are m-th roots of unity, and so is their product
    (-1)^k f(0).  At degree <= 3 a divisor with no root is irreducible; one
    with a root is (t - a) h for a divisor h of lower degree."""
    F = field
    roots = [a for a in range(1, F.q) if F.pow(a, m) == 1]
    powers, divisors, out = [()] * len(roots), [()], []
    for k in range(1, d + 1):
        reducible = {_times_linear(F, h, a) for h in divisors for a in roots}
        divisors = [f for c in roots for rest in product(range(F.q), repeat=k - 1)
                    for f in [(F.neg(c) if k % 2 else c,) + rest]
                    if _divides_t_m_minus_1(F, f, m)]
        powers = [_times_linear(F, f, a) for f, a in zip(powers, roots)]
        out += [f for f in powers if f in divisors] + [f for f in divisors if f not in reducible]
    return out


def _companion(field, f):
    k = len(f)
    return Mat(field, k, k, [field.neg(f[i]) if j == k - 1 else int(j == i - 1)
                             for i in range(k) for j in range(k)])


@lru_cache(maxsize=None)
def order_class_reps(field, d, m):
    """One matrix per class of {M in GL_d(F) : M^m = 1}, d <= 3 (q <= 5 at
    d = 3): the block sum of the companion matrices of its elementary
    divisors, linear ones first and in code order, so diag(a, b) has a <= b."""
    F = field
    if d not in (1, 2, 3) or d == 3 and F.q > 5:
        raise EnumerationCapExceeded(f"candidate enumeration unsupported for d={d}, q={F.q}")
    divisors = _elementary_divisors(F, d, m)
    multisets = (fs for r in range(1, d + 1) for fs in combinations_with_replacement(divisors, r)
                 if sum(map(len, fs)) == d)
    return tuple(block_matrix(F, d, [(s, s, _companion(F, f)) for s, f in
                                     zip(accumulate(map(len, fs), initial=0), fs)])
                 for fs in multisets)


def gl_generators(field, d):
    """I + E_ij, i != j, and diag(z, 1, ..., 1) for a generator z of F^x:
    d^2 - d + 1 matrices that generate GL_d(F)."""
    F = field
    z = next(z for z in range(1, F.q) if len({F.pow(z, e) for e in range(1, F.q)}) == F.q - 1)
    gens = [Mat(F, d, d, [int(x % (d + 1) == 0) + (x == y) for x in range(d * d)])
            for y in range(d * d) if y % (d + 1)]
    gens.append(Mat(F, d, d, [z if x == 0 else int(x % (d + 1) == 0) for x in range(d * d)]))
    return gens


@lru_cache(maxsize=None)
def _conjugacy_class(R):
    """The class of R in GL_d(F): the closure of {R} under conjugation by
    gl_generators(F, d), as a frozenset."""
    F, d = R.field, R.nrows
    mul = partial(mul_codes, F, d, d, d)
    pairs = [(g.data, g.inverse().data) for g in gl_generators(F, d)]
    seen, found = {R.data}, [R.data]
    for m in found:  # grows while it is walked
        for g, ginv in pairs:
            n = mul(mul(g, m), ginv)
            if n not in seen:
                seen.add(n)
                found.append(n)
    return frozenset(Mat(F, d, d, m) for m in found)


@lru_cache(maxsize=None)
def order_candidates(field, d, m):
    """All M in GL_d(F) with M^m = 1 in entry order, the order of
    gl_elements: the union of the classes of order_class_reps(F, d, m)."""
    return tuple(sorted((M for R in order_class_reps(field, d, m) for M in _conjugacy_class(R)),
                        key=lambda M: M.data))


def _is_scalar(M):
    d = M.nrows
    a = M[0, 0]
    return all(M[i, j] == (a if i == j else 0) for i in range(d) for j in range(d))


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


def intertwiner_units(field, X, Y):
    """The invertible T with X T = T Y, one per scalar class, as (T, T^-1)
    pairs: T = sum v_i B_i over a basis B of the intertwiners and v in
    projective_points.  With Y = X, non-scalar, they are X's centralizer
    modulo scalars; at d = 2, X is then cyclic, so the commutant is
    F[X] = span(1, X) and no system is solved."""
    F, d = field, X.nrows
    basis = ([Mat.identity(F, 2), X] if d == 2 and X == Y
             else intertwiner_basis(F, [X], [Y], d))
    units = (Mat(F, d, d, combine(F, v, [B.data for B in basis]))
             for v in projective_points(F.q, len(basis)))
    return tuple((T, T.inverse()) for T in units if T.det())


def least_conjugate(rep):
    """The least point of rep's GL_d-orbit under sort_key, and the order of
    rep's stabilizer, for a group rep.

    Conjugation fixes scalar images, so only the others, the moving ones,
    are compared, image by image in element order.  With none, rep is its
    own least point and all of GL_d fixes it.

    The first moving image X goes to L, the least member of its class,
    which is found among the class representatives of the order of X's
    element.  The g with g X g^-1 = L are the invertible T with L T = T X,
    a coset of X's centralizer, so one per scalar class is scanned
    (intertwiner_units) on the later moving images.  The least point is the
    least conjugate they give, and the T that reach it form one coset of
    rep's stabilizer: their count times q - 1 is its order.
    """
    F, d, images = rep.field, rep.dim, rep.images
    moving = [x for x, m in enumerate(images) if not _is_scalar(m)]
    if not moving:
        return rep, gl_order(F.q, d)
    X = images[moving[0]]
    chi = X.char_poly_coeffs()
    chi_classes = (_conjugacy_class(R) for R in
                   order_class_reps(F, d, rep.source.element_order(moving[0]))
                   if R.char_poly_coeffs() == chi)
    cls = next(c for c in chi_classes if X in c)
    L = min(cls, key=lambda M: M.data)
    mul = partial(mul_codes, F, d, d, d)
    rest = [images[x].data for x in moving[1:]]
    units = intertwiner_units(F, L, X)
    keys = [[mul(mul(T.data, m), Tinv.data) for m in rest] for T, Tinv in units]
    best = min(keys)
    return conjugate_rep(rep, units[keys.index(best)][0]), keys.count(best) * (F.q - 1)


def intertwiner_basis(field, mats1, mats2, d):
    """Basis of {T : mats1[i] T = T mats2[i] for all i}; with mats1 = mats2
    it is the commutant of mats1."""
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


# --- enumeration of homomorphisms ---

def _extend_images(group, images, assigned):
    """Extend the image table of the subgroup generated by the first
    len(assigned) - 1 generators by the image assigned[-1] of the next one.

    ``images`` (element -> code tuple of its matrix) must already agree on
    every edge a -> a*g by those generators, so only new edges are checked:
    edges by the new generator and edges out of new elements.  Returns the
    table of the larger subgroup, or None if no homomorphism takes these
    images (the matrices ``assigned``)."""
    table = group.table
    F, d = assigned[-1].field, assigned[-1].nrows
    gens = [(g, M.data) for g, M in zip(group.generators, assigned)]
    out = dict(images)
    frontier = list(images)
    steps = gens[-1:]
    while frontier:
        nxt = []
        for a in frontier:
            A = out[a]
            for g, m in steps:
                b = table[a][g]
                cand = mul_codes(F, d, d, d, A, m)
                if b not in out:
                    out[b] = cand
                    nxt.append(b)
                elif out[b] != cand:
                    return None
        frontier, steps = nxt, gens
    return out


def _leaf_rep(group, field, dim, images):
    return Representation(group, field, dim,
                          [Mat(field, dim, dim, images[x]) for x in range(group.order)],
                          check_now=False)


def conjugation_relations(group):
    """Per generator g_i, the pairs (h, k) with h one of g_0 .. g_(i-1) and
    k = g_i^-1 h g_i in the subgroup H those generate.

    A homomorphism rho has rho(h) rho(g_i) = rho(g_i) rho(k), and rho(k) is
    known from H's image table before any image of g_i is tried; so
    rho(h) N = N rho(k) must hold for every pair before N is extended."""
    gens, table = group.generators, group.table
    out = []
    for i, g in enumerate(gens):
        ginv = group.inverse(g)
        sub = group._closure(gens[:i])
        conj = ((h, table[table[ginv][h]][g]) for h in gens[:i])
        out.append(tuple((h, k) for h, k in conj if k in sub))
    return out


def power_relations(group):
    """Per generator g_i, the pairs (h, k) with h one of g_0 .. g_(i-1) and
    h^-1 g_i h = g_i^k, k != 1 (k = 1 is a conjugation relation).  rho(h) is
    known before g_i's image N is tried, and N rho(h) = rho(h) N^k must hold."""
    gens, table = group.generators, group.table
    out = []
    for i, g in enumerate(gens):
        power, x = {}, group.identity
        for k in range(group.element_order(g)):  # x = g^k
            power[x], x = k, table[x][g]
        conj = ((h, table[table[group.inverse(h)][g]][h]) for h in gens[:i])
        out.append(tuple((h, power[c]) for h, c in conj if c in power and c != g))
    return out


def _respects(relations, powers, images, M):
    F, d, m = M.field, M.nrows, M.data
    for h, k in relations:
        if mul_codes(F, d, d, d, images[h], m) != mul_codes(F, d, d, d, m, images[k]):
            return False
    return all(mul_codes(F, d, d, d, m, images[h])
               == mul_codes(F, d, d, d, images[h], (M ** k).data) for h, k in powers)


FULL_GL = "full"


def _descend(group, dim, field, symmetry):
    """The homomorphisms G -> GL_d(F) up to conjugation by a symmetry group,
    generator by generator, as (rep, symmetry at the leaf).

    symmetry is FULL_GL or a list of (g, g^-1) pairs, one per scalar class
    of a subgroup of GL_d(F).  Under FULL_GL a generator's image runs over
    the class representatives of its order and the symmetry becomes the
    image's centralizer (centralizer_or_full); under pairs it runs over all
    candidates of that order, the first of each orbit of the pairs is kept,
    and the symmetry becomes the pairs that commute with it.  So the leaf
    symmetry is rep's stabilizer in the symmetry group, one pair per scalar
    class, or FULL_GL while every image is scalar.  From no pairs nothing is
    identified, so every homomorphism comes out once; the identity pair would
    do the same with products that can only give back each image.
    """
    gens = group.generators
    orders = [group.element_order(g) for g in gens]
    relations = conjugation_relations(group)
    powers = power_relations(group)
    mul = partial(mul_codes, field, dim, dim, dim)

    def recurse(assigned, images, symmetry):
        i = len(assigned)
        if i == len(gens):
            yield _leaf_rep(group, field, dim, images), symmetry
            return
        full = symmetry is FULL_GL
        seen = set()
        cands = (order_class_reps if full else order_candidates)(field, dim, orders[i])
        for M in cands:
            m = M.data
            if m in seen or not _respects(relations[i], powers[i], images, M):
                continue
            ext = _extend_images(group, images, assigned + [M])
            if ext is None:
                continue
            if full:
                stab = centralizer_or_full(field, M)
            elif _is_scalar(M):
                stab = symmetry  # every conjugation fixes a scalar
            else:
                seen |= {mul(mul(g.data, m), ginv.data) for g, ginv in symmetry}
                stab = [(g, ginv) for g, ginv in symmetry if mul(g.data, m) == mul(m, g.data)]
            yield from recurse(assigned + [M], ext, stab)

    return recurse([], {group.identity: Mat.identity(field, dim).data}, symmetry)


def enumerate_reps(group, dim, field, cap=10 ** 7):
    """Complete list of homomorphisms G -> GL_d(F), in deterministic order."""
    # the identity stands in for no generators: a bad d fails before any I_d
    total = prod(len(order_candidates(field, dim, group.element_order(g)))
                 for g in group.generators or (group.identity,))
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} candidate tuples exceed enumeration cap {cap}")
    out = [rep for rep, _ in _descend(group, dim, field, [])]
    out.sort(key=lambda r: r.sort_key())
    return out


@lru_cache(maxsize=None)
def hom_orbit_reps(group, dim, field):
    """GL_d-conjugation orbit representatives of Hom(G, GL_d(F)) with orbit sizes.

    The descent (_descend) starts from FULL_GL: each first non-scalar image
    is a canonical class representative, and the later generators are
    classified under its centralizer.  The leaf symmetry is rep's
    stabilizer, one pair per scalar class, so the orbit has
    |GL_d| / (pairs x (q - 1)) points, or 1 when every image is scalar.

    Returns a tuple of (Representation, orbit_size), deterministically
    ordered.  The result is cached per (group, dim, field), so that `fiber`
    descends once per dimension across orbit_partition and split_search.
    """
    order_class_reps(field, dim, 1)  # an unsupported (d, q) fails before I_d is built
    gl = gl_order(field.q, dim)
    results = [(rep, 1 if stab is FULL_GL else gl // (len(stab) * (field.q - 1)))
               for rep, stab in _descend(group, dim, field, FULL_GL)]
    results.sort(key=lambda t: t[0].sort_key())
    return tuple(results)


def centralizer_or_full(field, M):
    """Centralizer of M in GL_d, one (g, g^-1) pair per scalar class (g and
    its multiples conjugate alike), or FULL_GL for scalar M."""
    return FULL_GL if _is_scalar(M) else intertwiner_units(field, M, M)


# --- submodules, semisimplification, isomorphism ---

def _acting_matrices(rep):
    """A set of matrices whose stable subspaces are exactly the submodules."""
    if rep.is_group_rep:
        return [rep.images[g] for g in rep.source.generators]
    return list(rep.images)


def stable_subspaces(rep, k):
    """Every k-dimensional submodule, as RREF rows, in all_subspaces order:
    an exhaustive search."""
    F = rep.field
    maps = [M.apply for M in _acting_matrices(rep)]
    for rows in all_subspaces(F, rep.dim, k):
        basis, pivots = rref(F, rows)
        if is_stable(F, basis, pivots, maps):
            yield list(basis)


def invariant_subspace(rep):
    """A proper nonzero stable subspace basis (RREF rows), or None iff irreducible.

    Searches the k-dimensional subspaces for k = 1..d-1 in canonical order;
    exhaustive, hence None certifies irreducibility.
    """
    return next((rows for k in range(1, rep.dim) for rows in stable_subspaces(rep, k)),
                None)


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


def semisimplify(rep):
    """The Jordan-Hoelder factors of rep, by recursive splitting along
    stable subspaces, as a tuple sorted by sort_key."""
    sub_rows = invariant_subspace(rep)
    if sub_rows is None:
        return (rep,)
    sub, quo = sub_quotient_reps(rep, sub_rows)
    return tuple(sorted(semisimplify(sub) + semisimplify(quo), key=Representation.sort_key))


def _hom_dim(rep1, rep2):
    """dim Hom(rep1, rep2) for representations of one dimension: the
    T with T rep1(a) = rep2(a) T for every acting matrix."""
    return len(intertwiner_basis(rep1.field, _acting_matrices(rep2), _acting_matrices(rep1),
                                 rep1.dim))


def is_semisimple(rep, factors):
    """Whether rep, whose Jordan-Hoelder factors are ``factors``, is
    semisimple: iff dim End rep = dim End rep^ss.  Otherwise the orbit of
    rep^ss lies in the boundary of rep's orbit, which has lower dimension,
    so rep^ss has the larger stabilizer."""
    if len(factors) == 1:
        return True
    ss = direct_sum(*factors)
    return _hom_dim(rep, rep) == _hom_dim(ss, ss)


def require_semisimple(rep):
    """rep, or HypothesisViolation with rep as witness if it is not semisimple."""
    if not is_semisimple(rep, semisimplify(rep)):
        raise HypothesisViolation("isomorphic compares semisimple representations only",
                                  witness=rep)
    return rep


def isomorphic(rep1, rep2):
    """semisimple_isomorphic(rep1, rep2) once both pass require_semisimple."""
    return semisimple_isomorphic(require_semisimple(rep1), require_semisimple(rep2))


def semisimple_isomorphic(rep1, rep2):
    """Whether two semisimple representations (not checked) are isomorphic:
    iff they share source, field and dimension and dim Hom(rep1, rep2) =
    dim End rep1 = dim End rep2.  With m_S and n_S the multiplicities of a
    simple S, dim End rep1 + dim End rep2 - 2 dim Hom(rep1, rep2) is
    sum_S (m_S - n_S)^2 dim End S, zero only when every m_S = n_S."""
    if rep1.source is not rep2.source or rep1.field != rep2.field or rep1.dim != rep2.dim:
        return False
    return _hom_dim(rep1, rep2) == _hom_dim(rep1, rep1) == _hom_dim(rep2, rep2)


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
