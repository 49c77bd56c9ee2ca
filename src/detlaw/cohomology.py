"""Group cohomology Ext^1 between representations by exact cocycle linear
algebra, and the stratification of a multiplicity-free psi-fiber into
projective spaces of extensions around the semisimple point.
"""

from . import moduli, pseudo
from .errors import InvariantViolation, NotMultiplicityFree, ShapeMismatch
from .linalg import (Mat, block_matrix, combine, nullspace, proj_point_count,
                     projective_points, reduce_vector, rref)
from .reps import (Representation, direct_sum, invariant_subspace,
                   sub_quotient_reps)


class Ext1Space:
    """Extensions of rep2 (quotient) by rep1 (sub): cocycles modulo
    coboundaries for the action c(gh) = rho1(g) c(h) + c(g) rho2(h)."""

    def __init__(self, group, field, rep1, rep2, z_basis, b_basis):
        self.group = group
        self.field = field
        self.rep1 = rep1
        self.rep2 = rep2
        self.z_basis = z_basis
        self.b_basis = b_basis
        self.dim = len(z_basis) - len(b_basis)
        if self.dim < 0:
            raise InvariantViolation(
                "more coboundaries than cocycles",
                witness={"cocycles": len(z_basis), "coboundaries": len(b_basis)})

    def cocycle_matrices(self, vec):
        """Unflatten a cocycle vector into one d1 x d2 block per element."""
        d1, d2 = self.rep1.dim, self.rep2.dim
        block = d1 * d2
        out = []
        for g in range(self.group.order):
            out.append(Mat(self.field, d1, d2, vec[g * block:(g + 1) * block]))
        return out

    def __repr__(self):
        return (f"Ext1({self.group.name}: dimZ={len(self.z_basis)}, "
                f"dimB={len(self.b_basis)}, dim={self.dim})")


def ext1(group, rep1, rep2):
    """Ext^1_G(rep2, rep1) with explicit cocycle and coboundary bases.

    Unknowns are the blocks c(g) for every group element.  The cocycle
    condition c(gs) = rho1(g) c(s) + c(g) rho2(s) is imposed for every g and
    every generator s, with c(1) = 0 pinned: every element is a positive
    word in the generators, so induction on the word gives the condition on
    all pairs, and the solution space is the one of the all-pairs system.
    """
    if rep1.field != rep2.field or rep1.source is not rep2.source:
        raise ShapeMismatch("ext1 needs representations of one group over one field")
    F = rep1.field
    n = group.order
    d1, d2 = rep1.dim, rep2.dim
    block = d1 * d2
    nvars = n * block

    def slot(g, i, j):
        return g * block + i * d2 + j

    rows = []
    for g in range(n):
        for s in group.generators:
            gs = group.table[g][s]
            for i in range(d1):
                for j in range(d2):
                    row = [0] * nvars
                    row[slot(gs, i, j)] = F.add(row[slot(gs, i, j)], 1)
                    # -(rho1(g) c(s))_{ij}
                    for k in range(d1):
                        a = rep1.images[g][i, k]
                        if a:
                            row[slot(s, k, j)] = F.sub(row[slot(s, k, j)], a)
                    # -(c(g) rho2(s))_{ij}
                    for k in range(d2):
                        a = rep2.images[s][k, j]
                        if a:
                            row[slot(g, i, k)] = F.sub(row[slot(g, i, k)], a)
                    rows.append(tuple(row))
    # c(identity) = 0 is the base of the induction over words
    e = group.identity
    for i in range(d1):
        for j in range(d2):
            row = [0] * nvars
            row[slot(e, i, j)] = 1
            rows.append(tuple(row))
    z_basis = nullspace(F, rows, nvars)
    b_rows = []
    for i in range(d1):
        for j in range(d2):
            M = Mat(F, d1, d2, [1 if (a, b) == (i, j) else 0
                                for a in range(d1) for b in range(d2)])
            vec = []
            for g in range(n):
                cb = M * rep2.images[g] - rep1.images[g] * M
                vec.extend(cb.data)
            b_rows.append(tuple(vec))
    b_basis, _ = rref(F, b_rows)
    z_canon, _ = rref(F, z_basis)
    return Ext1Space(group, F, rep1, rep2, list(z_canon), list(b_basis))


def assemble_extension(space, vec):
    """The block-triangular representation [[rho1, c], [0, rho2]]."""
    d1 = space.rep1.dim
    d = d1 + space.rep2.dim
    images = [block_matrix(space.field, d, [(0, 0, a), (0, d1, c), (d1, d1, b)])
              for a, c, b in zip(space.rep1.images, space.cocycle_matrices(vec),
                                 space.rep2.images)]
    return Representation(space.group, space.field, d, images, check_now=False)


class FiberStratification:
    """A multiplicity-free fiber as P(ext up) + semisimple + P(ext down)."""

    def __init__(self, group, field, chi, psi, ext_up, ext_down, strata=None):
        self.group = group
        self.field = field
        self.chi = chi
        self.psi = psi
        self.ext_up = ext_up
        self.ext_down = ext_down
        self.strata = strata  # optional orbit-index lists (up, ss, down)

    @property
    def m_up(self):
        return self.ext_up.dim

    @property
    def m_down(self):
        return self.ext_down.dim

    def counts(self):
        q = self.field.q
        return (proj_point_count(q, self.m_up), 1, proj_point_count(q, self.m_down))

    def total(self):
        return sum(self.counts())

    def __repr__(self):
        return (f"FiberStratification({self.group.name}/{self.field}: "
                f"{self.counts()})")


def fiber_stratify(group, chi, psi, field, orbit_report=None):
    """Stratify the fiber over psi(chi + psi) for distinct characters.

    ``ext up'' holds the non-split extensions with sub chi and quotient psi;
    ``ext down'' the opposite.  When an orbit report is supplied, fiber
    orbits are classified into strata and the counts must agree.
    """
    if chi.dim != 1 or psi.dim != 1:
        raise NotMultiplicityFree("strata require one-dimensional characters")
    if chi.images == psi.images:
        raise NotMultiplicityFree("characters coincide")
    up = ext1(group, chi, psi)
    down = ext1(group, psi, chi)
    strata = None
    if orbit_report is not None:
        D = pseudo.PseudoRep.induce(direct_sum(chi, psi))
        fiber = moduli.psi_fiber(orbit_report, D)
        ss, ups, downs = [], [], []
        for idx in fiber.orbit_indices:
            o = orbit_report.orbits[idx]
            if o.is_closed:
                ss.append(idx)
                continue
            rows = invariant_subspace(o.rep)
            if rows is None or len(rows) != 1:
                raise InvariantViolation("non-closed orbit has no stable line",
                                         witness={"orbit": idx, "rows": rows})
            sub, quo = sub_quotient_reps(o.rep, rows)
            if sub.images == chi.images:
                ups.append(idx)
            elif sub.images == psi.images:
                downs.append(idx)
            else:
                raise InvariantViolation("stable line is neither character",
                                         witness={"orbit": idx, "sub": sub})
        strata = (tuple(ups), tuple(ss), tuple(downs))
        q = field.q
        want = (proj_point_count(q, up.dim), 1, proj_point_count(q, down.dim))
        got = (len(ups), len(ss), len(downs))
        if got != want:
            raise InvariantViolation(f"stratum counts {got} disagree with {want}",
                                     witness=(got, want))
    return FiberStratification(group, field, chi, psi, up, down, strata)


def ext_representatives(space):
    """One representative cocycle per projective class of Ext^1.

    The cocycles reduced modulo the coboundaries span a complement C of B
    in Z, so the classes are the lines of C: one vector per projective
    point of C.
    """
    F = space.field
    b_basis, b_pivots = rref(F, space.b_basis)
    comp, _ = rref(F, [reduce_vector(F, z, b_basis, b_pivots) for z in space.z_basis])
    return [combine(F, coeffs, comp) for coeffs in projective_points(F.q, len(comp))]
