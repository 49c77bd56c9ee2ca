import pytest

from detlaw.fields import make_field
from detlaw.groups import cyclic, dihedral, symmetric
from detlaw.linalg import Mat, gl_order
from detlaw.reps import (Representation, centralizer_or_full, characters,
                         commutant_basis, conjugate_rep, direct_sum,
                         enumerate_reps, gl_elements,
                         hom_orbit_reps, intertwiner_basis, invariant_subspace,
                         irreducible_reps, isomorphic, order_candidates,
                         order_class_reps, semisimplify, sub_quotient_reps,
                         trivial_rep, unit_count_of_commutant)

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F4 = make_field(2, 2)


def _brute_order_candidates(field, d, m):
    out = []
    q = field.q
    for data in _all_mats(field, d):
        M = Mat(field, d, d, data)
        if (M ** m).is_identity():
            out.append(M)
    return out


def _all_mats(field, d):
    from itertools import product
    return product(range(field.q), repeat=d * d)


@pytest.mark.parametrize("field,m", [(F3, 2), (F3, 3), (F5, 4), (F4, 2)])
def test_order_candidates_exhaustive_d2(field, m):
    got = set(M.data for M in order_candidates(field, 2, m))
    want = set(M.data for M in _brute_order_candidates(field, 2, m))
    assert got == want


def test_order_class_reps_cover_all_classes():
    # every solution of M^3 = 1 in GL_2(F_7) is conjugate to exactly one rep
    reps = order_class_reps(F7, 2, 3)
    gl = [Mat(F7, 2, 2, d) for d in _all_mats(F7, 2)]
    gl = [g for g in gl if g.det()]
    covered = set()
    for r in reps:
        for g in gl:
            covered.add((g * r * g.inverse()).data)
    want = set(M.data for M in _brute_order_candidates(F7, 2, 3))
    assert covered == want
    # and the reps are pairwise non-conjugate
    keys = [r.char_poly_coeffs() for r in reps]
    for i, r in enumerate(reps):
        for s in reps[i + 1:]:
            assert not any((g * r * g.inverse()) == s for g in gl)


def test_enumerate_reps_counts():
    # homs C3 -> GL_1(F_7): cube roots of unity, 3 of them
    assert len(enumerate_reps(cyclic(3), 1, F7)) == 3
    # homs C2 -> GL_2(F_3): involutions, 1 + #conjugates
    reps = enumerate_reps(cyclic(2), 2, F3)
    want = len(_brute_order_candidates(F3, 2, 2))
    assert len(reps) == want


def test_enumerate_reps_respects_relations():
    S3 = symmetric(3)
    for rep in enumerate_reps(S3, 1, F7):
        assert rep.check()
    assert len(enumerate_reps(S3, 1, F7)) == 2


def test_characters_form_a_group():
    cs = characters(cyclic(4), F5)
    assert len(cs) == 4
    values = sorted(c.images[1][0, 0] for c in cs)
    # the four fourth roots of unity in F_5
    assert values == [1, 2, 3, 4]


def test_hom_orbit_reps_matches_direct_oracle():
    for G in (cyclic(2), cyclic(3), symmetric(3)):
        pairs = hom_orbit_reps(G, 2, F3)
        total = sum(size for _rep, size in pairs)
        assert total == len(enumerate_reps(G, 2, F3))
        # sizes divide |GL_2(F_3)|
        for _rep, size in pairs:
            assert gl_order(3, 2) % size == 0


@pytest.mark.parametrize("F, d, data", [
    (F3, 2, (1, 1, 0, 1)), (F3, 2, (0, 2, 1, 0)), (F3, 2, (1, 0, 0, 2)),
    (F4, 2, (1, 0, 0, 2)), (F4, 2, (0, 1, 1, 1)), (F4, 2, (1, 1, 0, 1)),
    (F5, 2, (2, 0, 0, 3)), (F5, 2, (0, 3, 1, 0)), (F5, 2, (1, 1, 0, 1)),
    # commutants of dimension 5 and 3, where the units are counted by a walk
    (F3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 2)), (F3, 3, (1, 1, 0, 0, 1, 0, 0, 0, 2)),
], ids=str)
def test_centralizer_is_the_brute_force_commutant(F, d, data):
    M = Mat(F, d, d, data)
    pairs = centralizer_or_full(F, M, d)
    want = [g for g in gl_elements(F, d) if g * M == M * g]
    assert sorted(g.data for g, _ in pairs) == sorted(g.data for g in want)
    assert len({g.data for g, _ in pairs}) == len(pairs)
    eye = Mat.identity(F, d)
    assert all(g * ginv == eye and ginv * g == eye for g, ginv in pairs)
    basis = commutant_basis(F, [M], d)
    assert unit_count_of_commutant(F, basis, d) == len(pairs)


def _full_closure(group, dim, field, assigned):
    """Images of the subgroup generated by the first len(assigned)
    generators, recomputed from scratch; None if inconsistent."""
    gens = group.generators[:len(assigned)]
    images = {group.identity: Mat.identity(field, dim)}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g, M in zip(gens, assigned):
                b = group.table[a][g]
                if b not in images:
                    images[b] = images[a] * M
                    nxt.append(b)
                elif images[b] != images[a] * M:
                    return None
        frontier = nxt
    return images


@pytest.mark.parametrize("G", [symmetric(3), dihedral(4)], ids=str)
def test_incremental_closure_matches_full_recompute(G):
    from detlaw.reps import _extend_images

    cand_sets = [order_candidates(F3, 2, G.element_order(g))
                 for g in G.generators]
    # elements of order 3, the wrong order for either first generator, so
    # that first steps are rejected too
    cand_sets[0] += tuple(M for M in order_candidates(F3, 2, 3)
                          if not M.is_identity())[:3]
    rejected_at = set()

    def walk(assigned, images):
        for M in cand_sets[len(assigned)]:
            ext = _extend_images(G, images, assigned + [M])
            assert ext == _full_closure(G, 2, F3, assigned + [M])
            if ext is None:
                rejected_at.add(len(assigned))
            elif len(assigned) + 1 < len(cand_sets):
                walk(assigned + [M], ext)

    walk([], {G.identity: Mat.identity(F3, 2)})
    assert rejected_at == {0, 1}


def test_conjugate_rep_preserves_relations():
    # char 3 kills the irreducible, so work over F_5
    S3 = symmetric(3)
    rep = next(r for r in enumerate_reps(S3, 2, F5)
               if invariant_subspace(r) is None)
    g = Mat.from_rows(F5, [[1, 1], [0, 1]])
    assert conjugate_rep(rep, g).check()
    assert isomorphic(rep, conjugate_rep(rep, g))


def test_direct_sum_and_invariant_subspace():
    S3 = symmetric(3)
    cs = characters(S3, F3)
    rep = direct_sum(cs[0], cs[1])
    rows = invariant_subspace(rep)
    assert rows is not None and len(rows) == 1
    sub, quo = sub_quotient_reps(rep, rows)
    assert sub.dim == 1 and quo.dim == 1
    assert sub.check() and quo.check()


def test_irreducible_has_no_invariant_subspace():
    S3 = symmetric(3)
    irr = [r for r, _ in hom_orbit_reps(S3, 2, F5)
           if invariant_subspace(r) is None]
    assert irr, "S3 has a 2-dimensional irreducible over F_5"
    for r in irr:
        assert commutant_basis(r.field, r.images, r.dim)


def test_semisimplify_idempotent():
    S3 = symmetric(3)
    for rep in (r for r, _ in hom_orbit_reps(S3, 2, F3)):
        jh = semisimplify(rep)
        ss = jh.direct_sum_rep()
        again = semisimplify(ss)
        assert jh.multiset_key() == again.multiset_key()


def test_isomorphic_iff_conjugate_exhaustive():
    # all pairs of orbit representatives are pairwise non-isomorphic
    reps = [r for r, _ in hom_orbit_reps(cyclic(3), 2, F7)]
    for i, r in enumerate(reps):
        for s in reps[i + 1:]:
            assert not isomorphic(r, s)
        assert isomorphic(r, r)


def test_intertwiner_basis_schur():
    S3 = symmetric(3)
    irr = next(r for r, _ in hom_orbit_reps(S3, 2, F5)
               if invariant_subspace(r) is None)
    # Schur: commutant of an absolutely irreducible rep is the scalars
    assert len(commutant_basis(irr.field, irr.images, irr.dim)) == 1
    triv2 = trivial_rep(S3, F5, 2)
    assert len(intertwiner_basis(F5, irr.images, triv2.images, 2)) == 0


def test_irreducible_reps_s3():
    F = F5
    irs = irreducible_reps(symmetric(3), F, 2)
    dims = sorted(r.dim for r in irs)
    assert dims == [1, 1, 2]
