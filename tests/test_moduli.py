import pytest

from detlaw import moduli, reps
from detlaw.errors import HypothesisViolation, InvariantViolation, UnknownPseudoRep
from detlaw.fields import make_field
from detlaw.groups import cyclic, dihedral, symmetric
from detlaw.linalg import Mat
from detlaw.moduli import (degeneration_lands_in_closed_orbit,
                           degeneration_limit, invariants_separate_laws,
                           orbit_partition, psi_fiber, word_invariant_vector,
                           word_invariants)
from detlaw.pseudo import PseudoRep, det_law, split_search
from detlaw.reps import Representation, characters, direct_sum, isomorphic, semisimplify
from oracles import isomorphic_by_search

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F4 = make_field(2, 2)


def test_orbit_partition_methods_agree():
    # class descent with least-point representatives against the oracle
    # that conjugates every point by every element of GL_d
    cases = [(cyclic(2), 2, F3), (cyclic(3), 2, F3), (symmetric(3), 2, F3),
             (dihedral(4), 2, F3), (symmetric(3), 2, F5), (cyclic(3), 2, F7),
             (symmetric(3), 1, F7), (cyclic(3), 3, F2)]
    for G, d, F in cases:
        got = orbit_partition(G, d, F)
        want = moduli._report(G, d, F, moduli._orbits_direct(G, d, F))
        assert [(o.rep.sort_key(), o.size, o.is_closed, o.pseudo_index)
                for o in got.orbits] == \
            [(o.rep.sort_key(), o.size, o.is_closed, o.pseudo_index)
             for o in want.orbits], (G, d, F)
        assert got.fiber_map == want.fiber_map, (G, d, F)


def test_orbit_size_check_raises_with_witness(monkeypatch):
    # each centralizer pair listed twice halves every non-scalar orbit size
    # the descent reads off its leaf stabilizer
    centralizer = reps.centralizer_or_full

    def listed_twice(*args):
        pairs = centralizer(*args)
        return pairs if pairs is reps.FULL_GL else pairs * 2

    monkeypatch.setattr(reps, "centralizer_or_full", listed_twice)
    reps.hom_orbit_reps.cache_clear()
    with pytest.raises(InvariantViolation) as info:
        orbit_partition(cyclic(3), 2, F3)
    reps.hom_orbit_reps.cache_clear()
    assert type(info.value) is InvariantViolation
    witness = info.value.witness
    assert witness["stabilizer"] > 1
    assert witness["size"] * witness["stabilizer"] * 2 == 48


@pytest.mark.parametrize("G, F", [(symmetric(3), F7), (dihedral(4), F5)],
                         ids=["S3-F_7", "D4-F_5"])
def test_least_points_at_d2_never_scan_gl(monkeypatch, G, F):
    # least points descend through the centralizer of the first moving
    # image; only d >= 3 builds GL_d
    want = [(o.rep.sort_key(), o.size) for o in orbit_partition(G, 2, F).orbits]

    def no_scan(field, d):
        raise AssertionError(f"scanned GL_{d}(F_{field.q})")

    monkeypatch.setattr(reps, "gl_elements", no_scan)
    reps.hom_orbit_reps.cache_clear()
    got = orbit_partition(G, 2, F)
    assert [(o.rep.sort_key(), o.size) for o in got.orbits] == want


def test_fiber_descends_once_per_dimension():
    # orbit_partition descends at d = 2; psi_fiber's split_search asks for
    # the irreducibles of dimension 1 and 2 and reuses the d = 2 descent
    reps.hom_orbit_reps.cache_clear()
    S3 = symmetric(3)
    report = orbit_partition(S3, 2, F5)
    cs = characters(S3, F5)
    psi_fiber(report, PseudoRep.induce(direct_sum(cs[0], cs[1])))
    info = reps.hom_orbit_reps.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_psi_fiber_closed_count_raises_with_witness():
    C3 = cyclic(3)
    report = orbit_partition(C3, 2, F3)
    cs = characters(C3, F3)
    D = PseudoRep.induce(direct_sum(cs[0], cs[0]))
    for o in report.orbits:
        o.is_closed = False
    with pytest.raises(InvariantViolation) as info:
        psi_fiber(report, D)
    assert info.value.witness["closed"] == []


def test_c3_f7_six_classes():
    report = orbit_partition(cyclic(3), 2, F7)
    assert len(report.pseudoreps) == 6
    # the map to laws has exactly one closed orbit per fiber
    for idx, members in report.fiber_map.items():
        closed = [i for i in members if report.orbits[i].is_closed]
        assert len(closed) == 1


def test_closed_iff_semisimple():
    report = orbit_partition(symmetric(3), 2, F3)
    for o in report.orbits:
        ss = direct_sum(*semisimplify(o.rep))
        assert o.is_closed == isomorphic_by_search(o.rep, ss)


def test_psi_fiber_c3_f3():
    # the law of 1 + 1 on C3 over F3 has a non-split unipotent companion
    C3 = cyclic(3)
    report = orbit_partition(C3, 2, F3)
    cs = characters(C3, F3)
    D = PseudoRep.induce(direct_sum(cs[0], cs[0]))
    fib = psi_fiber(report, D)
    assert len(fib.orbit_indices) >= 2
    closed = fib.closed_index
    assert report.orbits[closed].is_closed


def test_psi_fiber_base_changes_orbits_to_the_split_field():
    # law 0 of C3 over F_2 at d = 2 is the 2-dimensional irreducible, which
    # splits only over F_4 into the two characters t -> w, t -> w^2: the
    # orbit is base-changed before it is compared with the split sum
    report = orbit_partition(cyclic(3), 2, F2)
    fib = psi_fiber(report, report.pseudoreps[0])
    assert fib.orbit_indices == [0] and fib.closed_index == 0
    factors = semisimplify(moduli._to_field(report.orbits[0].rep, F4))
    assert [f.dim for f in factors] == [1, 1]
    # the images of the three elements lie in F_4^x = {1, 2, 3}, not in F_2
    assert {c for f in factors for m in f.images for c in m.data} == {1, 2, 3}
    field, split = split_search(report.pseudoreps[0])
    assert field == F4
    assert isomorphic(direct_sum(*factors),
                      Representation(report.group, F4, 2, split.images, check_now=False))


@pytest.mark.parametrize("G, F, fibers", [
    (cyclic(3), F5, [([0], 0), ([1], 1)]),
    (cyclic(4), F3, [([0], 0), ([1], 1), ([2], 2), ([3], 3)]),
    (cyclic(3), F2, [([0], 0), ([1], 1)]),
], ids=["C3-F_5", "C4-F_3", "C3-F_2"])
def test_psi_fiber_over_laws_that_split_only_over_f_q2(G, F, fibers):
    # each case has a law whose split representation lives over F_{q^2}
    # only, on the group algebra, which psi_fiber compares on the group
    report = orbit_partition(G, 2, F)
    got = [psi_fiber(report, D) for D in report.pseudoreps]
    assert [(f.orbit_indices, f.closed_index) for f in got] == fibers
    assert any(split_search(D)[0].q == F.q ** 2 for D in report.pseudoreps)


def test_psi_fiber_rejects_a_member_that_is_not_the_split_representation():
    # the orbit of law 0 carries the Jordan-Hoelder factors of another law
    report = orbit_partition(symmetric(3), 2, F5)
    i = report.fiber_map[0][0]
    other = next(o for o in report.orbits if o.pseudo_index != 0)
    report.orbits[i].jh = other.jh
    with pytest.raises(InvariantViolation) as info:
        psi_fiber(report, report.pseudoreps[0])
    assert info.value.witness == {"orbit": i, "law": 0}


def test_psi_fiber_checks_the_split_representation_once(monkeypatch):
    # the fiber of law 0 of S3 over F_3 has three orbits: one semisimplicity
    # check for the split representation and one per member
    report = orbit_partition(symmetric(3), 2, F3)
    D = report.pseudoreps[0]
    found = split_search(D)
    monkeypatch.setattr(moduli, "split_search", lambda law: found)
    checked, is_semisimple = [], reps.is_semisimple
    monkeypatch.setattr(reps, "is_semisimple",
                        lambda rep, factors: checked.append(rep) or is_semisimple(rep, factors))
    assert len(psi_fiber(report, D).orbit_indices) == 3
    assert len(checked) == 4
    assert checked[0].images == found[1].images and checked[0].source is report.group


def test_psi_fiber_refuses_a_member_that_is_not_semisimple():
    # the orbit of the law 1 + 1 of C3 over F_3 is given the non-split
    # unipotent representation as its only Jordan-Hoelder factor
    C3 = cyclic(3)
    report = orbit_partition(C3, 2, F3)
    u = Mat.from_rows(F3, [[1, 1], [0, 1]])
    ext = Representation(C3, F3, 2, [u ** k for k in range(3)])
    report.orbits[report.fiber_map[0][0]].jh = (ext,)
    with pytest.raises(HypothesisViolation) as info:
        psi_fiber(report, report.pseudoreps[0])
    assert info.value.witness == ext


def test_psi_fiber_unknown_law():
    report = orbit_partition(cyclic(3), 2, F3)
    with pytest.raises(UnknownPseudoRep):
        psi_fiber(report, det_law(F3, 2))


def test_degeneration_lands_in_closed_orbit():
    report = orbit_partition(symmetric(3), 2, F3)
    for i, o in enumerate(report.orbits):
        if not o.is_closed:
            assert degeneration_lands_in_closed_orbit(report, i)


def test_degeneration_limit_is_semisimple():
    report = orbit_partition(cyclic(3), 2, F3)
    for o in report.orbits:
        lim = degeneration_limit(o.rep)
        assert isomorphic(lim, direct_sum(*semisimplify(lim)))


def test_word_invariants_constant_on_orbits():
    report = orbit_partition(symmetric(3), 2, F3)
    vectors = word_invariants(report, maxlen=2)
    assert len(vectors) == len(report.orbits)


def test_word_invariants_raise_when_a_conjugate_differs(monkeypatch):
    report = orbit_partition(symmetric(3), 2, F3)
    first = report.orbits[0].rep
    monkeypatch.setattr(moduli, "conjugate_rep", lambda rep, g: first)
    with pytest.raises(InvariantViolation) as info:
        word_invariants(report, maxlen=2)
    assert info.value.witness[0] != first.images


def test_orbits_direct_raises_when_conjugation_leaves_the_points(monkeypatch):
    # r -> r * g is no conjugation, and sends the trivial point off the set
    monkeypatch.setattr(moduli, "conjugate_rep", lambda rep, g: Representation(
        rep.source, rep.field, rep.dim, [m * g for m in rep.images], check_now=False))
    with pytest.raises(InvariantViolation):
        moduli._orbits_direct(cyclic(3), 2, F3)


def test_invariants_separate_laws_s3_f3():
    report = orbit_partition(symmetric(3), 2, F3)
    assert invariants_separate_laws(report, maxlen=3)
