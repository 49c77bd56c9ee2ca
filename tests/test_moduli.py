import pytest

from detlaw import moduli, reps
from detlaw.errors import InvariantViolation, UnknownPseudoRep
from detlaw.fields import make_field
from detlaw.groups import cyclic, dihedral, symmetric
from detlaw.moduli import (degeneration_lands_in_closed_orbit,
                           degeneration_limit, invariants_separate_laws,
                           orbit_partition, psi_fiber, word_invariant_vector,
                           word_invariants)
from detlaw.pseudo import PseudoRep, det_law
from detlaw.reps import characters, direct_sum, semisimplify

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


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
    monkeypatch.setattr(reps, "unit_count_of_commutant", lambda *a: 1)
    with pytest.raises(InvariantViolation) as info:
        orbit_partition(cyclic(3), 2, F3)
    assert info.value.code == "InvariantViolation"
    assert info.value.witness["stabilizer"] > 1


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
        from detlaw.reps import isomorphic
        ss = semisimplify(o.rep).direct_sum_rep()
        assert o.is_closed == isomorphic(o.rep, ss)


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
        from detlaw.reps import isomorphic
        assert isomorphic(lim, semisimplify(lim).direct_sum_rep())


def test_word_invariants_constant_on_orbits():
    report = orbit_partition(symmetric(3), 2, F3)
    vectors = word_invariants(report, maxlen=2)
    assert len(vectors) == len(report.orbits)


def test_invariants_separate_laws_s3_f3():
    report = orbit_partition(symmetric(3), 2, F3)
    assert invariants_separate_laws(report, maxlen=3)
