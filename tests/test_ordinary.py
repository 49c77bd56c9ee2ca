import pytest

from detlaw.errors import (DimensionUnsupported, HypothesisViolation,
                           InvariantViolation)
from detlaw.fields import make_field
from detlaw.gma import adapted_points
from detlaw.groups import dihedral, symmetric, with_inertia
from detlaw.ordinary import (OrdinaryIdeal, OrdinaryInstance, _intersect_truncated,
                             certify_points, is_ordinary, ordinary_ideal)
from detlaw.poly import MPoly
from detlaw.reps import characters, direct_sum, trivial_rep

F3 = make_field(3)
F5 = make_field(5)


def _chi_unramified(inst):
    return all(inst.chi.images[s][0, 0] == 1 for s in inst.group.inertia)


def _two_chars(group, field):
    cs = characters(group, field)
    triv = next(c for c in cs if all(m[0, 0] == 1 for m in c.images))
    other = next(c for c in cs if c is not triv)
    return triv, other


def _s3_unramified_instance():
    S3 = symmetric(3)
    triv, sgn = _two_chars(S3, F3)
    a3 = [g for g in range(6) if sgn.images[g][0, 0] == 1]
    G = with_inertia(S3, a3)
    triv, sgn = _two_chars(G, F3)
    return OrdinaryInstance(G, triv, sgn)


def _d5_instance(whole_group):
    D5 = dihedral(5)
    triv, sgn = _two_chars(D5, F5)
    if whole_group:
        iner = list(range(10))
    else:
        iner = [g for g in range(10) if sgn.images[g][0, 0] == 1]
    G = with_inertia(D5, iner)
    triv, sgn = _two_chars(G, F5)
    return OrdinaryInstance(G, triv, sgn)


def test_hypothesis_psi_unramified():
    G = with_inertia(symmetric(3), range(6))
    triv, sgn = _two_chars(G, F3)
    with pytest.raises(HypothesisViolation):
        OrdinaryInstance(G, sgn, triv)


def test_hypothesis_distinct_characters():
    G = with_inertia(symmetric(3), [0])
    triv, _sgn = _two_chars(G, F3)
    with pytest.raises(HypothesisViolation):
        OrdinaryInstance(G, triv, triv)


def test_single_branch_when_chi_ramified():
    inst = _d5_instance(whole_group=True)
    assert not _chi_unramified(inst)
    J = ordinary_ideal(inst)
    assert J.single_branch
    assert J.branch_chi is None
    # one linear generator: the lower-left coordinate
    assert len(J.gens) == 1 and J.gens[0].degree() == 1


def test_two_branches_when_chi_unramified():
    inst = _d5_instance(whole_group=False)
    assert _chi_unramified(inst)
    J = ordinary_ideal(inst)
    assert not J.single_branch
    # bc = 0 in the coordinate ring, so the intersection ideal vanishes
    assert J.gens == ()


def test_point_certification_d5():
    inst = _d5_instance(whole_group=True)
    J = ordinary_ideal(inst)
    good, bad = certify_points(inst, J)
    # lower-left = 0: 5 triangular points; the other 4 have ramified quotient
    assert (len(good), len(bad)) == (5, 4)


def test_point_certification_s3():
    inst = _s3_unramified_instance()
    J = ordinary_ideal(inst)
    good, bad = certify_points(inst, J)
    # sgn restricted to A3 is trivial, so every reducible point is ordinary
    assert (len(good), len(bad)) == (5, 0)


def test_certify_points_rejects_a_wrong_ideal():
    # with no generators the ideal vanishes everywhere, so the first
    # non-ordinary point is misclassified and comes back as the witness
    inst = _d5_instance(whole_group=True)
    J = ordinary_ideal(inst)
    empty = OrdinaryIdeal(inst, (), J.branch_psi, None, True, J.truncation)
    with pytest.raises(InvariantViolation) as exc:
        certify_points(inst, empty)
    points, _reps = adapted_points(inst.scheme)
    pt = exc.value.witness
    assert pt in points
    assert not is_ordinary(inst.rep_at_point(pt), inst.group.inertia)
    assert pt == next(p for p in points
                      if not is_ordinary(inst.rep_at_point(p), inst.group.inertia))


def test_intersect_truncated_drops_generated_elements():
    # coordinate ring F_3[b, c]/(bc); every ordinary_ideal call on the
    # shipped instances intersects to zero, so the redundancy filter is
    # pinned here on ideals whose meet is not zero
    sch = _s3_unramified_instance().scheme
    assert [str(r) for r in sch.relations] == ["a01_0*a10_0"]
    b, c = (MPoly.var(F3, sch.vars, v) for v in sch.vars)
    cases = [
        ([b], [b], [b]),
        ([b], [b * b], [b * b]),
        ([b, c], [b + c], [b + c]),
        ([b + c], [b - c], [c * c, b * b]),
        ([b * b + c], [b], [b ** 3]),
    ]
    for gens1, gens2, want in cases:
        assert _intersect_truncated(sch, gens1, gens2) == want


def test_rep_at_point_matches_adapted_rep():
    inst = _s3_unramified_instance()
    points, reps = adapted_points(inst.scheme)
    for pt, arep in zip(points, reps):
        grep = inst.rep_at_point(pt)
        assert grep.check()
        # diagonal carries the residual characters
        for g in range(inst.group.order):
            assert grep.images[g][0, 0] == inst.chi.images[g][0, 0]
            assert grep.images[g][1, 1] == inst.psi.images[g][0, 0]


def test_is_ordinary_split_and_irreducible():
    G = with_inertia(symmetric(3), [0, 3, 4])
    triv, sgn = _two_chars(G, F5)
    split = direct_sum(sgn, triv)
    assert is_ordinary(split, G.inertia)
    # the 2-dim irreducible has no stable line at all
    from detlaw.reps import hom_orbit_reps, invariant_subspace
    irr = next(r for r, _ in hom_orbit_reps(G, 2, F5)
               if invariant_subspace(r) is None)
    assert not is_ordinary(irr, G.inertia)


def test_is_ordinary_dimension_guard():
    G = with_inertia(symmetric(3), [0])
    with pytest.raises(DimensionUnsupported):
        is_ordinary(trivial_rep(G, F3, 3), G.inertia)
