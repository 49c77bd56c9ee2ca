import json
import os
import time
from itertools import permutations

import pytest

import detlaw.gma as gma_mod
from detlaw.cli import main
from detlaw.errors import GmaAxiomFailure, HypothesisViolation
from detlaw.fields import make_field
from detlaw.gma import (GmaData, adapted_points, adapted_scheme, canonical_det,
                        gma_from_characters, gma_full, torus_orbits,
                        trace_form, verify_gma)
from detlaw.groups import (FiniteGroup, cyclic, dihedral, semidirect_cyclic_squared,
                           symmetric, with_inertia)
from detlaw.poly import MPoly
from detlaw.pseudo import PseudoRep, det_law, matrix_algebra
from detlaw.reps import Representation, characters, direct_sum

F3 = make_field(3)
F5 = make_field(5)


def _m2_split_gma(field):
    """M_2(F) regarded as a type-(1,1) GMA on the diagonal idempotents."""
    A = matrix_algebra(field, 2)
    units = [[[A.basis[0]]], [[A.basis[3]]]]
    return GmaData(A, (1, 1), units)


def _s3_gma(field):
    S3 = symmetric(3)
    cs = characters(S3, field)
    data, law, project = gma_from_characters(S3, [cs[0], cs[1]], field)
    return data, law


def test_full_matrix_gma_verifies():
    for d in (1, 2, 3):
        data = gma_full(F3, d)
        report = verify_gma(data)
        assert report.ok, report.failures()


def test_full_matrix_canonical_det_is_det():
    for d in (1, 2):
        data = gma_full(F5, d)
        D = canonical_det(data)
        assert D.equals(det_law(F5, d))


def test_canonical_det_cycle_start_invariance():
    for data in (gma_full(F5, 2), _m2_split_gma(F5), _s3_gma(F3)[0]):
        dmin = canonical_det(data, start="min")
        dmax = canonical_det(data, start="max")
        assert dmin.poly == dmax.poly


def test_trace_form_matches_lambda1():
    data = gma_full(F5, 2)
    D = canonical_det(data)
    assert MPoly.linear(F5, D.poly.vars, trace_form(data)) == D.lambda_polys()[0]


def test_type_1_1_gma_on_m2():
    data = _m2_split_gma(F5)
    assert verify_gma(data).ok
    D = canonical_det(data)
    assert D.equals(det_law(F5, 2))


def test_broken_units_detected():
    A = matrix_algebra(F5, 2)
    # swap one idempotent for a non-idempotent element
    units = [[[A.basis[1]]], [[A.basis[3]]]]
    data = GmaData(A, (1, 1), units)
    assert not verify_gma(data).ok
    with pytest.raises(GmaAxiomFailure):
        canonical_det(data)


def test_verify_gma_reports_the_first_counterexample():
    # E_01 as the block-0 unit of a type-(1,1,1) structure on M_3(F_5):
    # E_01 * E_01 = 0, so (UNIT) already fails on A^{0,0} = <E_01>
    A = matrix_algebra(F5, 3)
    units = [[[A.basis[1]]], [[A.basis[4]]], [[A.basis[8]]]]
    report = verify_gma(GmaData(A, (1, 1, 1), units))
    assert report.checks["unit_property"] == (False, (0, 0))
    assert report.checks["matrix_units"] == (False, (0, 0, 0, 0, 0, 0))


def test_gma_from_characters_s3():
    data, law = _s3_gma(F3)
    assert verify_gma(data).ok
    # idempotents are orthogonal and sum to 1
    A = data.parent
    for i in range(2):
        for j in range(2):
            prod = A.mul(data.e[i], data.e[j])
            assert prod == (data.e[i] if i == j else A.zero_vec())
    total = A.add(data.e[0], data.e[1])
    assert total == A.unit
    assert canonical_det(data).equals(law)


@pytest.mark.slow
def test_three_block_gma_of_order_100():
    # (C5xC5):C4 over F_5 with three characters: the quotient law is induced
    # from the quotient representation, so the 3 x 3 determinant in
    # dim Q = 10 variables is built directly (1.5 s under pytest on a 2-CPU
    # VM with Python 3.11)
    G = semidirect_cyclic_squared(5, 4, 2)
    cs = characters(G, F5)
    t0 = time.perf_counter()
    data, law, _project = gma_from_characters(G, cs[:3], F5)
    assert time.perf_counter() - t0 < 30
    assert data.type == (1, 1, 1) and verify_gma(data).ok
    assert canonical_det(data, "min").equals(law)


def test_gma_from_no_characters_is_rejected():
    with pytest.raises(HypothesisViolation):
        gma_from_characters(symmetric(3), [], F3)


def test_gma_from_repeated_characters_is_rejected():
    # equal images, not the same object: the third character repeats the first
    cs = characters(symmetric(3), F5)
    again = Representation(cs[0].source, F5, 1, cs[0].images)
    with pytest.raises(HypothesisViolation, match="characters 0 and 2"):
        gma_from_characters(symmetric(3), [cs[0], cs[1], again], F5)


@pytest.mark.parametrize("sub", ["gma-det", "gma-verify", "adapted-points"])
@pytest.mark.parametrize("instance, chars", [("s3_f3.json", "triv,triv"),
                                             ("c3_f7.json", "c1,triv,c1")])
def test_repeated_characters_exit_2(capsys, sub, instance, chars):
    # this used to surface as GmaAxiomFailure from the idempotent lift
    inst = os.path.join(os.path.dirname(__file__), "instances", instance)
    assert main([sub, inst, "--chars", chars]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "HypothesisViolation"
    assert "same character" in err["message"]


def test_adapted_scheme_m2_split():
    # M_2 as a (1,1) GMA: one variable per off-diagonal entry, relation bc = 1
    data = _m2_split_gma(F5)
    scheme = adapted_scheme(data)
    assert len(scheme.vars) == 2
    assert len(scheme.relations) == 1
    rel = scheme.relations[0]
    assert rel.degree() == 2 and rel.terms.get((0, 0)) == F5.neg(1)
    # reduction runs from the top degree down, so b^2 c^2 -> bc -> 1, and
    # variables after the scheme's ride along as coefficients
    assert scheme.reduce(MPoly.from_terms(
        F5, scheme.vars, [((2, 2), 1), ((0, 0), 4)])).is_zero()
    assert scheme.reduce(MPoly.from_terms(
        F5, scheme.vars + ("x",), [((2, 2, 1), 1), ((0, 0, 1), 4)])).is_zero()
    points, reps = adapted_points(scheme)
    assert len(points) == 4  # b free in F*, c = 1/b
    orbits = torus_orbits(scheme, points)
    assert len(orbits) == 1
    for rep in reps:
        assert PseudoRep.induce(rep).equals(det_law(F5, 2))


def test_adapted_scheme_s3():
    data, law = _s3_gma(F3)
    scheme = adapted_scheme(data)
    assert scheme.universal_is_homomorphism()[0]
    assert [scheme.image(e) for e in data.parent.basis] == list(map(list, scheme.universal))
    points, reps = adapted_points(scheme)
    assert len(points) == 5  # bc = 0: two lines through the origin
    orbits = torus_orbits(scheme, points)
    assert len(orbits) == 3
    for rep in reps:
        assert PseudoRep.induce(rep).equals(law)


def test_adapted_scheme_rejects_a_block_of_size_two():
    # A_{i,j} is A^{i,j} only when every block has size 1
    with pytest.raises(HypothesisViolation, match="type"):
        adapted_scheme(gma_full(F5, 2))


@pytest.mark.parametrize("group, field, count", [(symmetric(3), F3, 2), (cyclic(4), F5, 4)],
                         ids=["S3-F3-2", "C4-F5-4"])
def test_gma_readers_take_the_coordinate_modules_from_the_data(monkeypatch, group, field,
                                                               count):
    # GmaData.corners is the one place A^{l,m} is row-reduced: once it and
    # the axiom report are built, the determinant and the adapted scheme
    # read them and never call rref, and at type (1, ..., 1) neither does
    # verify_gma, whose block check reads e_i R e_i = A^{i,i}
    data = gma_from_characters(group, characters(group, field)[:count], field)[0]
    assert data.corners and data.report.ok

    def no_rref(field, rows):
        raise AssertionError("rref called")

    monkeypatch.setattr(gma_mod, "rref", no_rref)
    assert verify_gma(data).ok
    assert canonical_det(data, "min").poly == canonical_det(data, "max").poly
    assert adapted_scheme(data).universal_is_homomorphism() == (True, None)


def _reduced_universal_det(scheme):
    """universal_det() in the generic coordinates alone: after reduction no
    scheme variable may survive, since the law is constant on the adapted
    family."""
    det = scheme.universal_det()
    nv = len(scheme.vars)
    assert all(sum(e[:nv]) == 0 for e in det.terms)
    return MPoly(det.field, det.vars[nv:], {e[nv:]: c for e, c in det.terms.items()})


def test_universal_det_reduces_to_law():
    # det o rho_univ = D_E, symbolically, on two- to four-block GMAs
    for group, field, count in [(symmetric(3), F3, 2), (symmetric(3), F5, 2),
                                (dihedral(4), F5, 3), (dihedral(6), make_field(7), 3),
                                (cyclic(4), F5, 4)]:
        cs = characters(group, field)
        data, _law, _project = gma_from_characters(group, cs[:count], field)
        scheme = adapted_scheme(data)
        assert _reduced_universal_det(scheme) == canonical_det(data).poly, group.name


def _alternating_group_4():
    """A4 by its multiplication table, composing even permutations of 4 points."""
    def even(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0

    elems = sorted(p for p in permutations(range(4)) if even(p))
    pos = {p: i for i, p in enumerate(elems)}
    table = [[pos[tuple(a[b[k]] for k in range(4))] for b in elems] for a in elems]
    return FiniteGroup(table, name="A4")


def test_three_block_adapted_scheme_a4():
    # A4 has three characters over F_4 (its abelianization is C3), giving a
    # type-(1,1,1) GMA: one variable per ordered pair of distinct blocks
    F4 = make_field(2, 2)
    G = _alternating_group_4()
    cs = characters(G, F4)
    assert len(cs) == 3
    data, law, _project = gma_from_characters(G, cs, F4)
    scheme = adapted_scheme(data)
    assert len(scheme.vars) == 6
    assert len(scheme.relations) == 9
    assert scheme.universal_is_homomorphism() == (True, None)
    assert _reduced_universal_det(scheme) == canonical_det(data).poly
    points, reps = adapted_points(scheme)
    assert len(points) == 73
    assert len(torus_orbits(scheme, points)) == 13
    for rep in reps:
        assert PseudoRep.induce(rep).equals(law)


def test_gma_det_job_verifies_the_gma_once(monkeypatch, capsys):
    runs = []
    verify = gma_mod.verify_gma
    monkeypatch.setattr(gma_mod, "verify_gma", lambda data: runs.append(data) or verify(data))
    inst = os.path.join(os.path.dirname(__file__), "instances", "s3_f3.json")
    assert main(["gma-det", inst]) == 0
    assert '"start_invariant": true' in capsys.readouterr().out
    assert len(runs) == 1


def _canonical_det_oracle(data, start):
    """The cycle-sum formula with E^l x E^m expanded through mul_poly on the
    generic element and each cycle's scalar read off a polynomial vector."""
    A = data.parent
    F = data.field
    d = data.d
    xs = tuple(f"x{i}" for i in range(A.n))
    zero = MPoly.zero(F, xs)
    xi = tuple(MPoly.var(F, xs, v) for v in xs)
    consts = [tuple(MPoly.const(F, xs, c) for c in E) for E in data.E]
    X = [[A.mul_poly(consts[l], A.mul_poly(xi, consts[m], zero), zero)
          for m in range(d)] for l in range(d)]
    acc = zero
    pick = min if start == "min" else max
    for perm in permutations(range(d)):
        term = MPoly.const(F, xs, 1)
        for cycle in gma_mod._cycles(perm):
            j = cycle.index(pick(cycle))
            seq = cycle[j:] + cycle[:j]
            prod = X[seq[0]][perm[seq[0]]]
            for l in seq[1:]:
                prod = A.mul_poly(prod, X[l][perm[l]], zero)
            E = data.E[seq[0]]
            i = next(i for i, c in enumerate(E) if c)
            scalar = prod[i].scale(F.inv(E[i]))
            assert all(prod[k] == scalar.scale(u) for k, u in enumerate(E))
            term = term * scalar
        if (d - len(gma_mod._cycles(perm))) % 2:
            term = term.scale(F.neg(1))
        acc = acc + term
    return acc


def _canonical_det_cases():
    out = [(f"M{d}-F5", gma_full(F5, d)) for d in (1, 2, 3)]
    out.append(("M2-F5-split", _m2_split_gma(F5)))
    for group, field, count in [(symmetric(3), F3, 2), (dihedral(4), F5, 3),
                                (dihedral(6), make_field(7), 4), (cyclic(4), F5, 4),
                                (_alternating_group_4(), make_field(2, 2), 3)]:
        cs = characters(group, field)
        data = gma_from_characters(group, cs[:count], field)[0]
        out.append((f"{group.name}-F{field.q}-{count}", data))
    return out


@pytest.mark.parametrize("data", [pytest.param(data, id=name)
                                  for name, data in _canonical_det_cases()])
def test_canonical_det_matches_the_mul_poly_expansion(monkeypatch, data):
    want = {start: _canonical_det_oracle(data, start) for start in ("min", "max")}

    def no_mul_poly(self, x, y, zero):
        raise AssertionError("mul_poly called")

    monkeypatch.setattr(type(data.parent), "mul_poly", no_mul_poly)
    for start in ("min", "max"):
        assert canonical_det(data, start=start).poly == want[start]
