"""The ordinary locus at desk scale.

A finite group G with a distinguished inertia subgroup I stands in for a
local Galois group; given two distinct characters psi (trivial on I) and
chi, the locus of adapted points whose representation is reducible with an
unramified one-dimensional quotient is cut out by an explicit ideal in the
adapted coordinate ring: the intersection of two branch ideals, one per
possible quotient character, each demanding that one off-diagonal block
vanish and that the corresponding diagonal character be trivial on I.
"""

from .errors import DimensionUnsupported, HypothesisViolation, InvariantViolation
from .gma import _lead, adapted_scheme, gma_from_characters
from .linalg import Mat, in_span, intersect_spans, rref
from .poly import MPoly
from .reps import Representation, stable_subspaces, sub_quotient_reps

# the degree at which the two branch ideals are intersected
MAX_DEGREE = 4


class OrdinaryInstance:
    """Characters (psi unramified, chi) on a group with inertia, together
    with the adapted scheme of the Cayley-Hamilton quotient of F[G] at the
    law of psi + chi.

    Block 0 of the generalized matrix algebra carries chi, block 1 psi, so
    in the universal adapted matrix the (0,0) entry is the constant chi and
    the (1,1) entry the constant psi.
    """

    def __init__(self, group, psi, chi):
        if group.inertia is None:
            raise HypothesisViolation("group carries no inertia subgroup")
        if psi.dim != 1 or chi.dim != 1:
            raise HypothesisViolation("both characters must be one-dimensional")
        if psi.field != chi.field:
            raise HypothesisViolation("characters live over different fields")
        for s in group.inertia:
            if psi.images[s][0, 0] != 1:
                raise HypothesisViolation("psi is ramified")
        if psi.images == chi.images:
            raise HypothesisViolation(
                "characters coincide on the decomposition group")
        self.group = group
        self.field = psi.field
        self.psi = psi
        self.chi = chi
        data, law, project = gma_from_characters(group, [chi, psi], self.field)
        self.data = data
        self.law = law
        self._project = project
        self.scheme = adapted_scheme(data)
        self._group_universal = self._build_group_universal()

    def _build_group_universal(self):
        """Universal adapted matrix of every group element (entries MPoly)."""
        n = self.group.order
        out = []
        for g in range(n):
            entries = self.scheme.image(self._project(_group_basis_vec(n, g)))
            # the diagonal carries the residual characters exactly
            if (entries[0] != self.chi.images[g][0, 0]
                    or entries[3] != self.psi.images[g][0, 0]):
                raise InvariantViolation(
                    "universal diagonal differs from the residual characters",
                    witness=(g, entries[0], entries[3]))
            out.append(entries)
        return out

    def rep_at_point(self, point):
        """The group representation assembled at an adapted point.

        ``point`` is a tuple of values parallel to scheme.vars (as returned
        by adapted_points).
        """
        F = self.field
        env = dict(zip(self.scheme.vars, point))
        images = []
        for g in range(self.group.order):
            images.append(Mat(F, 2, 2,
                              [e.evaluate(env) for e in self._group_universal[g]]))
        return Representation(self.group, F, 2, images, check_now=False)

    def __repr__(self):
        return (f"OrdinaryInstance({self.group.name}/{self.field}, "
                f"|I|={len(self.group.inertia)})")


def _group_basis_vec(n, g):
    return tuple(1 if j == g else 0 for j in range(n))


class OrdinaryIdeal:
    """Generators of the ordinary ideal in the adapted coordinate ring,
    together with the two branch ideals it intersects."""

    def __init__(self, instance, gens, branch_psi, branch_chi, single_branch):
        self.instance = instance
        self.gens = tuple(gens)
        self.branch_psi = tuple(branch_psi)
        self.branch_chi = branch_chi  # tuple, or None when the branch is unit
        self.single_branch = single_branch

    def vanishes_at(self, point):
        env = dict(zip(self.instance.scheme.vars, point))
        return all(g.evaluate(env) == 0 for g in self.gens)

    def __repr__(self):
        kind = "single branch" if self.single_branch else "two branches"
        return f"OrdinaryIdeal({len(self.gens)} generators, {kind})"


def ordinary_ideal(instance):
    """The ideal cutting out ordinary adapted points.

    Branch one demands a stable line with quotient psi: the entries below
    the diagonal vanish and psi is trivial on inertia (automatic).  Branch
    two demands quotient chi, so it contains the nonzero constant
    chi(s) - 1 whenever chi is ramified, in which case the ordinary ideal
    is branch one alone.  Otherwise the two branches are intersected by
    linear algebra on a degree-truncated monomial basis.
    """
    sch = instance.scheme
    F = instance.field
    inertia = sorted(instance.group.inertia)

    def branch(off_entry, char):
        gens = []
        for g in range(instance.group.order):
            p = sch.reduce(instance._group_universal[g][off_entry])
            if p.is_zero():
                continue
            p = p.scale(F.inv(p.terms[_lead(p)]))
            if p not in gens:
                gens.append(p)
        for s in inertia:
            c = F.sub(char.images[s][0, 0], 1)
            if c:
                gens.append(MPoly.const(F, sch.vars, c))
        return gens

    branch_psi = branch(2, instance.psi)  # kill entries (1,0)
    branch_chi = branch(1, instance.chi)  # kill entries (0,1)
    units = [g for g in branch_psi if g.degree() == 0]
    if units:
        raise InvariantViolation(
            "psi branch contains a unit despite the unramified hypothesis",
            witness=units[0])
    if any(g.degree() == 0 for g in branch_chi):
        return OrdinaryIdeal(instance, branch_psi, branch_psi, None, True)
    gens = _intersect_truncated(sch, branch_psi, branch_chi)
    return OrdinaryIdeal(instance, gens, branch_psi, tuple(branch_chi), False)


def _monomials_up_to(nv, deg):
    def rec(pos, remaining):
        if pos == nv:
            yield ()
            return
        for e in range(remaining + 1):
            for rest in rec(pos + 1, remaining - e):
                yield (e,) + rest
    return sorted(rec(0, deg), key=lambda e: (sum(e), e))


def _row(scheme, poly, index):
    """The reduced polynomial as a row over the truncated monomial basis."""
    row = [0] * len(index)
    for e, c in scheme.reduce(poly).terms.items():
        row[index[e]] = c
    return row


def _intersect_truncated(scheme, gens1, gens2):
    """Polynomials spanning the intersection of two ideals up to MAX_DEGREE.

    Exact whenever the intersection is generated in degree <= MAX_DEGREE,
    which the point-level certification below checks in practice.
    """
    F = scheme.data.field
    monomials = _monomials_up_to(len(scheme.vars), MAX_DEGREE)
    index = {m: i for i, m in enumerate(monomials)}

    def multiples(g):
        """Rows of g * m for every monomial m with deg(g m) <= MAX_DEGREE."""
        return [_row(scheme, g * MPoly(F, scheme.vars, {m: 1}), index)
                for m in monomials if sum(m) + g.degree() <= MAX_DEGREE]

    meet = intersect_spans(F, [row for g in gens1 for row in multiples(g)],
                           [row for g in gens2 for row in multiples(g)],
                           len(monomials))
    polys = [MPoly(F, scheme.vars,
                   {m: c for m, c in zip(monomials, row) if c})
             for row in meet]
    polys.sort(key=lambda p: (p.degree(), p.sorted_terms()))
    # drop span elements that earlier ones already generate; basis and
    # pivots are the echelon form of the kept generators' truncated ideal
    kept, basis, pivots = [], [], []
    for p in polys:
        if kept and in_span(F, _row(scheme, p, index), basis, pivots):
            continue
        kept.append(p)
        basis, pivots = rref(F, basis + multiples(p))
    return kept


def is_ordinary(rep, inertia):
    """True iff the representation has a stable line whose quotient
    character is trivial on the inertia subgroup.  Two-dimensional only."""
    if rep.dim != 2:
        raise DimensionUnsupported("ordinarity test requires dimension 2")
    for rows in stable_subspaces(rep, 1):
        _sub, quo = sub_quotient_reps(rep, rows)
        if all(quo.images[s][0, 0] == 1 for s in inertia):
            return True
    return False


def certify_points(instance, ideal, cap=200000):
    """Exhaustive soundness and completeness of the ordinary ideal.

    Every adapted point over the base field is assembled into a group
    representation; vanishing of the ideal must coincide with ordinarity.
    Returns (ordinary points, non-ordinary points).
    """
    from .gma import adapted_points

    points, _reps = adapted_points(instance.scheme, cap=cap)
    good, bad = [], []
    for pt in points:
        rep = instance.rep_at_point(pt)
        ordn = is_ordinary(rep, instance.group.inertia)
        cut = ideal.vanishes_at(pt)
        if ordn != cut:
            raise InvariantViolation(
                f"ideal misclassifies the point {pt} "
                f"({'ordinary' if ordn else 'not ordinary'})", witness=pt)
        (good if ordn else bad).append(pt)
    return good, bad
