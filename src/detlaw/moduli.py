"""The map psi at desk scale: orbit partition of representation points,
closed-orbit detection, fibers, and trace-of-word invariants.

Orbits of Hom(G, GL_d(F)) under conjugation are computed by centralizer
descent through conjugacy-class representatives (reps.hom_orbit_reps), the
only production orbit path.  While GL_d(F) is small enough to scan, each
orbit is reported by its least point, so the report does not depend on
which representative the descent happened to pick.
"""

from .errors import InvariantViolation, UnknownPseudoRep
from .fields import embedding_table
from .linalg import Mat, gl_order
from .pseudo import PseudoRep, split_search
from .reps import (Representation, conjugate_rep, direct_sum, enumerate_reps,
                   gl_elements, hom_orbit_reps, invariant_subspace, isomorphic,
                   least_conjugate, semisimplify, sub_quotient_reps)

# Largest |GL_d(F)| for which orbits are reported by their least point.
LEAST_POINT_GL = 30000


class Orbit:
    __slots__ = ("rep", "size", "is_closed", "jh", "pseudo_index")

    def __init__(self, rep, size, is_closed, jh, pseudo_index):
        self.rep = rep
        self.size = size
        self.is_closed = is_closed
        self.jh = jh
        self.pseudo_index = pseudo_index

    def __repr__(self):
        return (f"Orbit(size={self.size}, closed={self.is_closed}, "
                f"D#{self.pseudo_index})")


class OrbitReport:
    """Conjugation orbits of Hom(G, GL_d(F)) with their induced laws."""

    def __init__(self, group, dim, field, orbits, pseudoreps, fiber_map):
        self.group = group
        self.dim = dim
        self.field = field
        self.orbits = orbits
        self.pseudoreps = pseudoreps
        self.fiber_map = fiber_map

    @property
    def total_points(self):
        return sum(o.size for o in self.orbits)

    def closed_orbits(self):
        return [i for i, o in enumerate(self.orbits) if o.is_closed]

    def __repr__(self):
        return (f"OrbitReport({self.group.name}, d={self.dim}, {self.field}: "
                f"{len(self.orbits)} orbits, {len(self.pseudoreps)} laws)")


def orbit_partition(group, dim, field):
    """Partition all homomorphisms G -> GL_d(F) into conjugation orbits.

    Orbits come from class descent (reps.hom_orbit_reps).  When
    |GL_d(F)| <= LEAST_POINT_GL, each orbit is reported by its least point
    under Representation.sort_key, and its size is checked exactly:
    size x |stabilizer| must equal |GL_d(F)|.  Above that the class
    representative is kept.  Orbits are ordered by their representatives.
    """
    pairs = hom_orbit_reps(group, dim, field)
    gl = gl_order(field.q, dim)
    if gl <= LEAST_POINT_GL:
        least = []
        for rep, size in pairs:
            point, stab = least_conjugate(rep)
            if size * stab != gl:
                raise InvariantViolation(
                    f"orbit size {size} times stabilizer order {stab} is not "
                    f"|GL_{dim}(F_{field.q})| = {gl}",
                    witness={"rep": rep, "size": size, "stabilizer": stab})
            least.append((point, size))
        pairs = sorted(least, key=lambda t: t[0].sort_key())
    return _report(group, dim, field, pairs)


def _report(group, dim, field, pairs):
    """The OrbitReport of (representative, orbit size) pairs, in order."""
    orbits = []
    pseudoreps = []
    fiber_map = {}
    for rep, size in pairs:
        D = PseudoRep.induce(rep)
        idx = next((i for i, E in enumerate(pseudoreps) if E.equals(D)), None)
        if idx is None:
            idx = len(pseudoreps)
            pseudoreps.append(D)
        jh = semisimplify(rep)
        closed = _is_closed(rep, jh)
        orbits.append(Orbit(rep, size, closed, jh, idx))
        fiber_map.setdefault(idx, []).append(len(orbits) - 1)
    return OrbitReport(group, dim, field, orbits, pseudoreps, fiber_map)


def _orbits_direct(group, dim, field):
    """Orbits by conjugating every point by every element of GL_d: the test
    oracle for orbit_partition.  No production code calls it; it stays
    importable here because the benchmark tracer wraps it by name."""
    points = enumerate_reps(group, dim, field)
    gl = gl_elements(field, dim)
    index = {r.images: i for i, r in enumerate(points)}
    seen = set()
    out = []
    for r in points:
        if r.images in seen:
            continue
        orbit = set()
        for g in gl:
            c = conjugate_rep(r, g)
            assert c.images in index, "conjugation left the point set"
            orbit.add(c.images)
        seen |= orbit
        out.append((r, len(orbit)))
    return out


def _is_closed(rep, jh=None):
    """An orbit is closed iff its representative is semisimple."""
    if rep.dim == 1:
        return True
    if jh is None:
        jh = semisimplify(rep)
    if len(jh.factors) == 1:
        return True
    return isomorphic(rep, jh.direct_sum_rep())


class FiberReport:
    __slots__ = ("pseudo_index", "orbit_indices", "closed_index", "jh_key")

    def __init__(self, pseudo_index, orbit_indices, closed_index, jh_key):
        self.pseudo_index = pseudo_index
        self.orbit_indices = orbit_indices
        self.closed_index = closed_index
        self.jh_key = jh_key

    def __repr__(self):
        return (f"Fiber(D#{self.pseudo_index}: {len(self.orbit_indices)} orbits, "
                f"closed={self.closed_index})")


def psi_fiber(report, D):
    """The fiber of psi over D: its orbits, with the closed one singled out.

    Verifies that every orbit in the fiber has the same Jordan-Hoelder
    multiset (after base change) as the semisimple representation found by
    split_search, and that exactly one orbit is closed.
    """
    idx = next((i for i, E in enumerate(report.pseudoreps) if E.equals(D)), None)
    if idx is None:
        raise UnknownPseudoRep("law does not occur in the orbit report")
    members = report.fiber_map[idx]
    closed = [i for i in members if report.orbits[i].is_closed]
    if len(closed) != 1:
        raise InvariantViolation(f"fiber has {len(closed)} closed orbits",
                                 witness={"law": idx, "closed": closed})
    ext_field, split_rep = split_search(D)
    key = semisimplify(_to_field(split_rep, ext_field)).multiset_key()
    for i in members:
        got = semisimplify(_to_field(report.orbits[i].rep, ext_field)).multiset_key()
        if got != key:
            raise InvariantViolation(
                "orbit leaves the Jordan-Hoelder class of its fiber",
                witness={"orbit": i, "key": got, "fiber_key": key})
    return FiberReport(idx, members, closed[0], key)


def _to_field(rep, target):
    if rep.field == target:
        return rep
    table = embedding_table(rep.field.p, rep.field.k, target.k)
    images = [Mat(target, rep.dim, rep.dim, [table[c] for c in m.data])
              for m in rep.images]
    return Representation(rep.source, target, rep.dim, images, check_now=False)


# --- invariant functions of words ---

def _words_up_to(num_gens, maxlen):
    out = [()]
    layer = [()]
    for _ in range(maxlen):
        layer = [w + (g,) for w in layer for g in range(num_gens)]
        out.extend(layer)
    return out


def word_invariant_vector(rep, maxlen):
    """Char-poly coefficients (trace first) of all generator words of length
    <= maxlen, in length-then-lex word order."""
    gens = rep.generator_images()
    out = []
    for w in _words_up_to(len(gens), maxlen):
        M = Mat.identity(rep.field, rep.dim)
        for g in w:
            M = M * gens[g]
        out.extend(M.char_poly_coeffs())
    return tuple(out)


def word_invariants(report, maxlen=3, constancy_samples=8):
    """Invariant vectors per orbit, with constancy spot-checked on conjugates.

    Returns a list (per orbit) of vectors, parallel to report.orbits.
    """
    F = report.field
    vectors = []
    samples = _sample_gl(F, report.dim, constancy_samples)
    for o in report.orbits:
        v = word_invariant_vector(o.rep, maxlen)
        for g in samples:
            assert word_invariant_vector(conjugate_rep(o.rep, g), maxlen) == v, \
                "invariant vector varies on an orbit"
        vectors.append(v)
    return vectors


def _sample_gl(field, dim, count):
    out = []
    seen = set()
    code = 1
    while len(out) < count and code < field.q ** (dim * dim):
        data = []
        c = code
        for _ in range(dim * dim):
            data.append(c % field.q)
            c //= field.q
        M = Mat(field, dim, dim, data)
        if M.det() and M.data not in seen:
            seen.add(M.data)
            out.append(M)
        code += 1
    return out


def invariants_separate_laws(report, maxlen=3):
    """True iff two orbits share the invariant vector exactly when their
    induced laws are equal."""
    vectors = word_invariants(report, maxlen)
    n = len(report.orbits)
    for i in range(n):
        for j in range(i + 1, n):
            same_vec = vectors[i] == vectors[j]
            same_law = report.orbits[i].pseudo_index == report.orbits[j].pseudo_index
            if same_vec != same_law:
                return False
    return True


# --- degeneration witnesses ---

def degeneration_limit(rep):
    """The one-parameter limit of a non-closed orbit: triangularize along a
    full stable flag, then discard the strictly upper blocks (the s -> 0
    limit of conjugation by diag(s, 1, ...)).  Returns the limiting
    semisimple representation."""
    rows = invariant_subspace(rep)
    if rows is None:
        return rep
    sub, quo = sub_quotient_reps(rep, rows)
    return direct_sum(degeneration_limit(sub), degeneration_limit(quo))


def degeneration_lands_in_closed_orbit(report, orbit_index):
    """Check that the degeneration limit of an orbit lies in the closed orbit
    of the same fiber."""
    o = report.orbits[orbit_index]
    limit = degeneration_limit(o.rep)
    if not PseudoRep.induce(limit).equals(report.pseudoreps[o.pseudo_index]):
        return False
    members = report.fiber_map[o.pseudo_index]
    closed = next(i for i in members if report.orbits[i].is_closed)
    return isomorphic(limit, report.orbits[closed].rep)
