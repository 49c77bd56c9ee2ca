from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from detlaw import reps
from detlaw.errors import EnumerationCapExceeded, ShapeMismatch
from detlaw.fields import make_field
from detlaw.groups import (cyclic, dihedral, direct_product,
                           semidirect_cyclic_squared, symmetric)
from detlaw.linalg import Mat, gl_order
from detlaw.moduli import orbit_partition
from detlaw.reps import (Representation, centralizer_or_full, characters,
                         conjugate_rep, direct_sum,
                         enumerate_reps, gl_elements,
                         hom_orbit_reps, intertwiner_basis, invariant_subspace,
                         irreducible_reps, isomorphic, least_conjugate,
                         order_candidates, order_class_reps, semisimplify,
                         sub_quotient_reps, trivial_rep)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F4 = make_field(2, 2)
F9 = make_field(3, 2)
F25 = make_field(5, 2)


def _mats_with_det(field, delta):
    """The entries (a, b, c, d) of every 2 x 2 matrix with ad - bc = delta."""
    F = field
    for a, b, c in product(range(F.q), repeat=3):
        rest = F.add(delta, F.mul(b, c))
        if a:
            yield (a, b, c, F.mul(rest, F.inv(a)))
        elif not rest:
            for d in range(F.q):
                yield (0, b, c, d)


def _brute_order_candidates(field, d, m):
    """Every 2 x 2 M with M^m = 1, by powering each matrix whose
    determinant is an m-th root of unity (det(M)^m = det(M^m))."""
    assert d == 2
    out = []
    for delta in range(1, field.q):
        if field.pow(delta, m) == 1:
            for data in _mats_with_det(field, delta):
                M = Mat(field, 2, 2, data)
                if (M ** m).is_identity():
                    out.append(M)
    return out


def _all_mats(field, d):
    return product(range(field.q), repeat=d * d)


@lru_cache(maxsize=None)
def _gl_pairs(field, d):
    """(g, g^-1) for every g of GL_d(F), in gl_elements order."""
    return tuple((g, g.inverse()) for g in gl_elements(field, d))


_ORDER_CASES = [(F3, 2), (F3, 3), (F5, 4), (F4, 2)]


@pytest.mark.parametrize("field,m", _ORDER_CASES + [
    (F, m) for F in (F3, F4, F5, F9) for m in range(1, 13)
    if (F, m) not in _ORDER_CASES
] + [(F25, 4), (F25, 5), (F25, 10)])
def test_order_candidates_exhaustive_d2(field, m):
    got = [M.data for M in order_candidates(field, 2, m)]
    want = set(M.data for M in _brute_order_candidates(field, 2, m))
    assert len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9], ids=str)
def test_cyclic_char_polys_match_companion_powers(field):
    # a non-scalar 2 x 2 matrix is cyclic, so its class is fixed by its
    # (trace, det) = (s, p), and it has order dividing m iff the companion
    # matrix of t^2 - s t + p does.  The class representatives at d = 2 are
    # diag(a, b) with a < b and those companion matrices
    for m in range(1, 13):
        want = [(s, p) for s in range(field.q) for p in range(1, field.q)
                if (Mat(field, 2, 2, (0, field.neg(p), 1, s)) ** m).is_identity()]
        classes = [R for R in order_class_reps(field, 2, m) if not reps._is_scalar(R)]
        assert sorted(R.char_poly_coeffs() for R in classes) == want, m
        for R in classes:
            a, b, c, d = R.data
            s, p = R.char_poly_coeffs()
            assert b == c == 0 and a < d or R.data == (0, field.neg(p), 1, s)


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


@pytest.mark.parametrize("field", [F2, F3], ids=str)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_d3_candidates_are_the_gl_filter(field, m):
    # at d = 2 and d = 3 alike, the classes grown from their
    # representatives are disjoint and give exactly the M with M^m = 1, in
    # gl_elements order
    for d in (2, 3):
        got = order_candidates(field, d, m)
        assert got == tuple(M for M in gl_elements(field, d) if (M ** m).is_identity()), d
        classes = [reps._conjugacy_class(R) for R in order_class_reps(field, d, m)]
        assert sum(map(len, classes)) == len(got), d


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
    (F2, 3, (1, 1, 0, 0, 1, 0, 0, 0, 1)), (F2, 3, (0, 0, 1, 1, 0, 1, 0, 1, 0)),
    (F3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 2)), (F3, 3, (0, 2, 0, 1, 1, 0, 0, 0, 2)),
    (F3, 3, (1, 1, 0, 0, 1, 1, 0, 0, 1)), (F3, 3, (0, 0, 1, 1, 0, 2, 0, 1, 0)),
], ids=str)
def test_centralizer_is_the_brute_force_commutant(F, d, data):
    M = Mat(F, d, d, data)
    pairs = centralizer_or_full(F, M)
    want = [g for g in gl_elements(F, d) if g * M == M * g]

    def leading_one(g):
        # the multiple of g whose first nonzero entry is 1
        return (g * F.inv(next(filter(None, g.data)))).data

    # one pair per scalar class of the brute-force commutant, each class once
    assert sorted(leading_one(g) for g, _ in pairs) == \
        sorted({leading_one(g) for g in want})
    assert all(g * M == M * g for g, _ in pairs)
    eye = Mat.identity(F, d)
    assert all(g * ginv == eye and ginv * g == eye for g, ginv in pairs)
    assert len(pairs) * (F.q - 1) == len(want)


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
    # n-ary sums are the nested pairwise sums
    three = direct_sum(cs[0], cs[1], rep)
    assert three == direct_sum(direct_sum(cs[0], cs[1]), rep)
    assert three.dim == 4 and three.check()


def test_direct_sum_rejects_mixed_sources_and_fields():
    cs = characters(symmetric(3), F7)
    with pytest.raises(ShapeMismatch):
        direct_sum(cs[0], characters(symmetric(3), F7)[0])  # another S3 object
    with pytest.raises(ShapeMismatch):
        direct_sum(trivial_rep(cs[0].source, F5), trivial_rep(cs[0].source, F7))
    with pytest.raises(ShapeMismatch):
        direct_sum(cs[0], cs[1], trivial_rep(cs[0].source, F5))


def test_irreducible_has_no_invariant_subspace():
    S3 = symmetric(3)
    irr = [r for r, _ in hom_orbit_reps(S3, 2, F5)
           if invariant_subspace(r) is None]
    assert irr, "S3 has a 2-dimensional irreducible over F_5"
    for r in irr:
        assert intertwiner_basis(r.field, r.images, r.images, r.dim)


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


@pytest.mark.parametrize("G, d, F", [
    (symmetric(3), 2, F2), (cyclic(3), 2, F2), (dihedral(4), 2, F2),
    (symmetric(3), 3, F3)], ids=["S3-d2-F_2", "C3-d2-F_2", "D4-d2-F_2", "S3-d3-F_3"])
def test_isomorphic_scans_the_intertwiners_when_d_reaches_q(G, d, F):
    # d >= q, so a nonzero det(sum x_i T_i) does not yet give an invertible
    # intertwiner and isomorphic enumerates the q^m combinations
    orbit_reps = [r for r, _ in hom_orbit_reps(G, d, F)]
    g = Mat(F, d, d, [int(x % (d + 1) == 0 or x == 1) for x in range(d * d)])
    for i, r in enumerate(orbit_reps):
        assert isomorphic(r, conjugate_rep(r, g))
        for s in orbit_reps[i + 1:]:
            assert not isomorphic(r, s)


def test_intertwiner_basis_schur():
    S3 = symmetric(3)
    irr = next(r for r, _ in hom_orbit_reps(S3, 2, F5)
               if invariant_subspace(r) is None)
    # Schur: commutant of an absolutely irreducible rep is the scalars
    assert len(intertwiner_basis(irr.field, irr.images, irr.images, irr.dim)) == 1
    triv2 = trivial_rep(S3, F5, 2)
    assert len(intertwiner_basis(F5, irr.images, triv2.images, 2)) == 0


def test_irreducible_reps_s3():
    F = F5
    irs = irreducible_reps(symmetric(3), F, 2)
    dims = sorted(r.dim for r in irs)
    assert dims == [1, 1, 2]


# --- the relation pre-filter and least points by descent, against oracles ---

_GROUPS = [cyclic(2), cyclic(4), symmetric(3), dihedral(4), dihedral(6),
           direct_product(cyclic(3), symmetric(3)),
           semidirect_cyclic_squared(3, 2, 2)]
# the three slowest cases: about 1.4, 7 and 5 s, mostly in the oracle
_SLOW = {("D6", "F_7"), ("C3xS3", "F_7"), ("(C3xC3):C2", "F_7")}


def _enumerate_unfiltered(group, dim, field):
    """enumerate_reps without the relation pre-filter: every candidate is
    tried by _extend_images."""
    gens = group.generators
    cand_sets = [order_candidates(field, dim, group.element_order(g))
                 for g in gens]
    out = []

    def dfs(assigned, images):
        if len(assigned) == len(gens):
            out.append(reps._leaf_rep(group, field, dim, images))
            return
        for M in cand_sets[len(assigned)]:
            ext = reps._extend_images(group, images, assigned + [M])
            if ext is not None:
                dfs(assigned + [M], ext)

    dfs([], {group.identity: Mat.identity(field, dim)})
    out.sort(key=lambda r: r.sort_key())
    return out


def _orbit_keys(pairs):
    return [(rep.sort_key(), size) for rep, size in pairs]


@pytest.mark.parametrize("G, F, dims", [
    pytest.param(G, F, (1, 2), id=f"{G.name}-{F}",
                 marks=[pytest.mark.slow] if (G.name, str(F)) in _SLOW else [])
    for G in _GROUPS for F in (F2, F3, F4, F5, F7)
] + [pytest.param(symmetric(3), F2, (3,), id="S3-F_2-d3")])
def test_prefilter_keeps_every_homomorphism_and_orbit(monkeypatch, G, F, dims):
    for d in dims:
        got = enumerate_reps(G, d, F)
        assert [r.sort_key() for r in got] == \
            [r.sort_key() for r in _enumerate_unfiltered(G, d, F)], d
        orbits = hom_orbit_reps.__wrapped__(G, d, F)
        with monkeypatch.context() as m:
            for relations in ("conjugation_relations", "power_relations"):
                m.setattr(reps, relations, lambda group: [()] * len(group.generators))
            unfiltered = hom_orbit_reps.__wrapped__(G, d, F)
        assert _orbit_keys(orbits) == _orbit_keys(unfiltered), d
        assert sum(size for _rep, size in orbits) == len(got), d


@pytest.mark.parametrize("G", [
    pytest.param(symmetric(3), id="S3", marks=pytest.mark.slow),  # about 9 s
    pytest.param(direct_product(cyclic(2), cyclic(2)), id="C2xC2")])
def test_scalar_class_centralizer_keeps_every_orbit_d3(G):
    # over F_3 there are two scalars, so the class descent scans half of
    # each centralizer, and the least-point descent half of each commutant.
    # The orbits must be those of the descent under every element of GL_3,
    # compared by least point since the representatives differ, and the
    # sizes, read off the leaf stabilizer as one pair per scalar class,
    # must count every homomorphism
    orbits = hom_orbit_reps.__wrapped__(G, 3, F3)
    assert sum(size for _rep, size in orbits) == \
        len(enumerate_reps(G, 3, F3)) == {"S3": 7724, "C2xC2": 7024}[G.name]
    every = reps._descend(G, 3, F3, _gl_pairs(F3, 3))
    want = sorted((least_conjugate(rep)[0].sort_key(), gl_order(3, 3) // len(stab))
                  for rep, stab in every)
    assert sorted((least_conjugate(rep)[0].sort_key(), size)
                  for rep, size in orbits) == want


@pytest.mark.parametrize("G, d, F", [(symmetric(3), 3, F7), (cyclic(3), 4, F3),
                                     (cyclic(2), 4, F2), (symmetric(1), 4, F3),
                                     (symmetric(1), 10 ** 5, F3)], ids=str)
def test_unsupported_dimension_fails_before_gl_is_built(monkeypatch, G, d, F):
    # symmetric(1) has no generators: its one point is the d x d identity
    def no_gl(field, dim):
        raise AssertionError(f"built GL_{dim}(F_{field.q})")

    monkeypatch.setattr(reps, "gl_elements", no_gl)
    for search in (hom_orbit_reps.__wrapped__, enumerate_reps):
        with pytest.raises(EnumerationCapExceeded,
                           match=f"unsupported for d={d}, q={F.q}"):
            search(G, d, F)


@pytest.mark.parametrize("G, F", [(dihedral(4), F5), (symmetric(3), F7)],
                         ids=["D4-F_5", "S3-F_7"])
def test_orbit_sizes_at_d2_solve_no_intertwiner_system(monkeypatch, G, F):
    # the leaf stabilizer of the descent gives each orbit's size, so no
    # commutant is solved for at d = 2
    want = _orbit_keys(hom_orbit_reps.__wrapped__(G, 2, F))

    def no_system(*args):
        raise AssertionError("solved an intertwiner system")

    monkeypatch.setattr(reps, "intertwiner_basis", no_system)
    assert _orbit_keys(hom_orbit_reps.__wrapped__(G, 2, F)) == want


def _classes_reversed(field, d, m):
    return tuple(M for R in reversed(order_class_reps(field, d, m))
                 for M in sorted(reps._conjugacy_class(R), key=lambda M: M.data))


def test_orbit_reps_do_not_depend_on_the_order_of_classes(monkeypatch):
    # the descent keeps the first candidate of each orbit of the centralizer
    # pairs; such an orbit lies in one class, whose members come in entry
    # order either way, so listing the classes backwards changes nothing
    want = _orbit_keys(hom_orbit_reps.__wrapped__(dihedral(4), 2, F25))
    monkeypatch.setattr(reps, "order_candidates", _classes_reversed)
    assert _orbit_keys(hom_orbit_reps.__wrapped__(dihedral(4), 2, F25)) == want


def test_conjugation_relations_from_the_table():
    D4, S3 = dihedral(4), symmetric(3)
    r, f = D4.generators
    # f^-1 r f = r^-1, in the subgroup generated by r
    assert reps.conjugation_relations(D4) == [(), ((r, D4.inverse(r)),)]
    assert reps.conjugation_relations(S3) == [(), ()]
    assert reps.conjugation_relations(cyclic(5)) == [()]


def _extension_outcomes(monkeypatch, G, F):
    """The homomorphisms G -> GL_2(F) and, per _extend_images call the
    enumeration made, whether it extended."""
    calls = []
    extend = reps._extend_images

    def counting(group, images, assigned):
        out = extend(group, images, assigned)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(reps, "_extend_images", counting)
    return enumerate_reps(G, 2, F), calls


def test_prefilter_leaves_no_rejected_extension_on_d4(monkeypatch):
    # D4 = <r, f | r^4, f^2, f r f^-1 = r^-1>: the candidate orders give the
    # first two relations and the pre-filter the third, so every candidate
    # that reaches _extend_images extends (the unfiltered search rejects
    # 5,124 of 5,900)
    points, calls = _extension_outcomes(monkeypatch, dihedral(4), F7)
    assert len(points) == 676
    assert calls and all(calls)


def test_prefilter_leaves_no_rejected_extension_on_s3(monkeypatch):
    # S3 = <s, c | s^2, c^3, s^-1 c s = c^2>: the last is a power relation
    # of c, not a conjugation relation of s, so only the power pre-filter
    # drops the dead candidates (without it 9,524 of 9,976 calls reject)
    S3 = symmetric(3)
    s, _c = S3.generators
    assert reps.power_relations(S3) == [(), ((s, 2),)]
    want = [r.sort_key() for r in _enumerate_unfiltered(S3, 2, F7)]
    points, calls = _extension_outcomes(monkeypatch, S3, F7)
    assert [r.sort_key() for r in points] == want
    assert len(calls) == 452 and all(calls)


def _least_conjugate_scan(rep):
    """The least point of rep's orbit and its stabilizer order, by one pass
    over all of GL_d: each conjugate is compared lazily, image by image in
    element order, with the least so far and with rep itself."""
    images = rep.images
    moving = [x for x, m in enumerate(images) if not reps._is_scalar(m)]
    best, best_data = None, {}
    stab = 0
    for g, ginv in _gl_pairs(rep.field, rep.dim):
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


def test_least_point_by_descent_matches_the_full_scan():
    # every orbit of C2, C4, S3 and D4 at d = 2 over F_2 .. F_7, at its
    # class representative and at two conjugates of it
    samples = scalar = 0
    for G in _GROUPS[:4]:
        for F in (F2, F3, F4, F5, F7):
            gl = gl_elements(F, 2)
            conjugators = [gl[len(gl) // 3], gl[2 * len(gl) // 3]]
            for rep, _size in hom_orbit_reps(G, 2, F):
                for c in [rep] + [conjugate_rep(rep, g) for g in conjugators]:
                    point, stab = least_conjugate(c)
                    want_point, want_stab = _least_conjugate_scan(c)
                    assert point.sort_key() == want_point.sort_key(), (G, F, c)
                    assert stab == want_stab, (G, F, c)
                    samples += 1
                    scalar += all(reps._is_scalar(m) for m in c.images)
    assert samples == 291 and scalar > 0


# the two slowest cases: about 12 and 5 s
_D3_SCAN_SLOW = {("C2xC2", "F_3"), ("S3", "F_3")}


@pytest.mark.parametrize("G, F", [
    pytest.param(G, F, id=f"{F}-{G.name}",
                 marks=[pytest.mark.slow] if (G.name, str(F)) in _D3_SCAN_SLOW else [])
    for F in (F2, F3)
    for G in (symmetric(3), cyclic(3), direct_product(cyclic(2), cyclic(2)))])
def test_least_point_by_descent_matches_the_full_scan_d3(G, F):
    # every orbit at d = 3, at its class representative and at two
    # conjugates of it: the descent from the class's least member and its
    # commutant coset agrees with the scan over all of GL_3
    gl = gl_elements(F, 3)
    conjugators = [gl[len(gl) // 3], gl[2 * len(gl) // 3]]
    for rep, size in hom_orbit_reps(G, 3, F):
        for c in [rep] + [conjugate_rep(rep, g) for g in conjugators]:
            point, stab = least_conjugate(c)
            want_point, want_stab = _least_conjugate_scan(c)
            assert (point.sort_key(), stab) == (want_point.sort_key(), want_stab), c
        assert size * stab == gl_order(F.q, 3)


@pytest.mark.parametrize("G, d, F", [(dihedral(4), 2, F7), (symmetric(3), 3, F3)],
                         ids=["D4-d2-F_7", "S3-d3-F_3"])
def test_least_points_build_no_gl(monkeypatch, G, d, F):
    # least points come from the class closure and a commutant coset, so
    # orbit_partition reports them with no list of GL_d
    want = [(o.rep.sort_key(), o.size) for o in orbit_partition(G, d, F).orbits]
    monkeypatch.setattr(reps, "gl_elements", _no_gl)
    hom_orbit_reps.cache_clear()
    reps._conjugacy_class.cache_clear()
    assert [(o.rep.sort_key(), o.size) for o in orbit_partition(G, d, F).orbits] == want


# --- d = 3 by classes for q <= 5, against Maschke and Schur ---

def _maschke_orbit_sizes(G, F):
    """The orbit sizes of Hom(G, GL_3(F)), p not dividing |G|, from the
    irreducibles of dimension <= 2 alone: by Maschke and Schur the orbits
    are the multisets sum m_i V_i of dimension 3, and the stabilizer of one
    is prod |GL_(m_i)(End_G V_i)|, each End_G V_i a field."""
    irr = irreducible_reps(G, F, 2)
    ends = [F.q ** len(intertwiner_basis(F, V.images, V.images, V.dim)) for V in irr]
    sizes = []
    for r in (1, 2, 3):
        for combo in combinations_with_replacement(range(len(irr)), r):
            if sum(irr[i].dim for i in combo) == 3:
                stab = prod(gl_order(ends[i], combo.count(i)) for i in set(combo))
                sizes.append(gl_order(F.q, 3) // stab)
    return sorted(sizes)


def _no_gl(field, dim):
    raise AssertionError(f"built GL_{dim}(F_{field.q})")


@pytest.mark.parametrize("G, F, orbits, points", [
    (symmetric(3), F5, 6, 187552), (cyclic(3), F4, 10, 8739),
    (cyclic(3), F5, 2, 15501), (dihedral(4), F5, 24, 474304),
], ids=lambda x: str(getattr(x, "name", x)))
def test_d3_orbits_match_maschke_without_gl3(monkeypatch, G, F, orbits, points):
    # End_G V = F_25 for the 2-dimensional irreducible of C3 over F_5
    want = _maschke_orbit_sizes(G, F)
    monkeypatch.setattr(reps, "gl_elements", _no_gl)
    hom_orbit_reps.cache_clear()
    report = orbit_partition(G, 3, F)
    assert sorted(o.size for o in report.orbits) == want
    assert (len(want), sum(want)) == (orbits, points)
    assert all(o.is_closed for o in report.orbits)


def test_d3_orbits_of_s3_over_f4(monkeypatch):
    # 2 divides |S3|: the sign and trivial characters agree over F_4, and
    # the orbit of a non-split extension of the trivial character by itself,
    # plus a trivial summand, is not closed
    monkeypatch.setattr(reps, "gl_elements", _no_gl)
    hom_orbit_reps.cache_clear()
    report = orbit_partition(symmetric(3), 3, F4)
    assert [(o.size, o.is_closed) for o in report.orbits] == \
        [(20160, True), (315, False), (1, True)]
