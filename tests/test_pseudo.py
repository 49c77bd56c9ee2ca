import pytest

import detlaw.pseudo as pseudo_mod
from detlaw.algebras import FinAlgebra, Ideal, group_algebra, ideal_generated
from detlaw.errors import InvariantViolation, ShapeMismatch
from detlaw.fields import make_field
from detlaw.groups import cyclic, dihedral, symmetric
from detlaw.linalg import Mat
from detlaw.poly import MPoly
from detlaw.pseudo import (PseudoRep, ch_ideal, ch_quotient, det_law,
                           from_group_rep, is_cayley_hamilton, kernel,
                           matrix_algebra, nilpotency_index, split_search,
                           tautological_rep)
from detlaw.reps import Representation, characters, direct_sum, enumerate_reps

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def test_induced_law_of_c2_sign():
    C2 = cyclic(2)
    cs = characters(C2, F3)
    triv = next(c for c in cs if c.images[1][0, 0] == 1)
    sgn = next(c for c in cs if c.images[1][0, 0] == 2)
    D = PseudoRep.induce(direct_sum(triv, sgn))
    # D(x0*1 + x1*g) = (x0 + x1)(x0 - x1) = x0^2 - x1^2
    xs = D.poly.vars
    x0 = MPoly.var(F3, xs, "x0")
    x1 = MPoly.var(F3, xs, "x1")
    assert D.poly == x0 * x0 - x1 * x1
    assert D.check_axioms()


def test_trivial_character_law_is_linear_sum():
    C2 = cyclic(2)
    cs = characters(C2, F3)
    triv = next(c for c in cs if c.images[1][0, 0] == 1)
    D = PseudoRep.induce(triv)
    xs = D.poly.vars
    assert D.poly == MPoly.var(F3, xs, "x0") + MPoly.var(F3, xs, "x1")


def test_char_poly_of_diag_2_4():
    # chi(g, t) = t^2 - 6t + 8 = t^2 - 6t + 1 over F_7
    C3 = cyclic(3)
    g_img = Mat.from_rows(F7, [[2, 0], [0, 4]])  # diag entries are cube roots
    rep = Representation(C3, F7, 2, [Mat.identity(F7, 2), g_img, g_img * g_img])
    D = PseudoRep.induce(rep)
    g = (0, 1, 0)
    chi = D.char_poly(g)
    assert chi.coeffs == (6, 1)
    assert chi.evaluate(2) == 0 and chi.evaluate(4) == 0


def test_lambda_decomposition():
    S3 = symmetric(3)
    cs = characters(S3, F5)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    l1, l2 = D.lambda_polys()
    assert l2 == D.poly
    # Lambda_1 is the trace-like linear form
    assert l1.is_homogeneous(1)
    tf = D.trace_form()
    assert len(tf) == 6
    # trace of the identity is 2
    assert tf[0] == 2


def test_det_law_is_cayley_hamilton():
    for d in (1, 2, 3):
        for p in (2, 3, 5):
            D = det_law(make_field(p), d)
            assert is_cayley_hamilton(D)
            assert D.check_axioms()


def test_det_law_kernel_zero():
    for d in (1, 2):
        for p in (3, 5):
            D = det_law(make_field(p), d)
            assert kernel(D).dim == 0


def test_dual_numbers_law():
    # F5[e]/(e^2), D(a + b e) = a^2: kernel is (e), nilpotency index 2
    A = FinAlgebra(F5, ("1", "e"), [[((0, 1),), ((1, 1),)], [((1, 1),), ()]], (1, 0))
    xs = ("x0", "x1")
    poly = MPoly.var(F5, xs, "x0") ** 2
    D = PseudoRep(A, 2, poly, check=True)
    assert is_cayley_hamilton(D)
    ker = kernel(D)
    assert ker.basis == ((0, 1),)
    assert nilpotency_index(ker) == 2


@pytest.mark.parametrize("group, field", [
    (symmetric(3), F3), (symmetric(3), F5), (dihedral(4), F3), (cyclic(3), F7)])
def test_trace_form_is_symmetric(group, field):
    # kernel takes the radical of (x, y) -> L_1(xy) on one side only, which
    # is the whole radical because L_1(xy) = L_1(yx) for a determinant law
    cs = characters(group, field)
    D = PseudoRep.induce(direct_sum(cs[0], cs[-1]))
    A = D.source
    tr = D.trace_form()

    def form(i, j):
        prod = A.mul(A.basis[i], A.basis[j])
        return sum(c * t for c, t in zip(prod, tr)) % field.p

    for i in range(A.n):
        for j in range(i):
            assert form(i, j) == form(j, i)


def test_nilpotency_index_none_for_idempotent_ideal():
    # F_5[C2] is semisimple: the whole algebra is an ideal with I^2 = I
    A = group_algebra(cyclic(2), F5)
    ideal = ideal_generated(A, [A.unit])
    assert ideal.dim == 2
    assert nilpotency_index(ideal) is None


def test_unipotent_kernel_is_augmentation_ideal():
    # C3 over F3 via the unipotent 2-dim rep: ker D = augmentation ideal
    C3 = cyclic(3)
    u = Mat.from_rows(F3, [[1, 1], [0, 1]])
    rep = Representation(C3, F3, 2, [Mat.identity(F3, 2), u, u * u])
    D = PseudoRep.induce(rep)
    ker = kernel(D)
    assert ker.dim == 2
    for v in ker.basis:
        assert sum(v) % 3 == 0  # augmentation: coefficient sum vanishes
    idx = nilpotency_index(ker)
    assert idx is not None and idx <= 3


def test_ch_quotient_verifies_and_shrinks():
    S3 = symmetric(3)
    cs = characters(S3, F3)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    Q, DQ, project, lift = ch_quotient(D)
    assert Q.n < 6
    assert is_cayley_hamilton(DQ)
    # the law factors: D = DQ o project on every basis vector combination
    A = D.source
    for i in range(A.n):
        v = A.basis[i]
        assert D.evaluate(v) == DQ.evaluate(project(v))


def test_base_change_preserves_law_identities():
    C3 = cyclic(3)
    cs = characters(C3, F7)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    E = make_field(7, 2)
    DE = D.base_change(E)
    assert DE.check_axioms()


def test_split_search_finds_characters():
    S3 = symmetric(3)
    cs = characters(S3, F5)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    field, rep = split_search(D)
    assert field == F5  # already split
    assert PseudoRep.induce(rep).equals(D)


def test_split_search_cube_roots_needs_degree_2():
    # the 2-dim rep of C3 over F_5 splits only after adjoining cube roots
    C3 = cyclic(3)
    g = Mat.from_rows(F5, [[0, 4], [1, 4]])  # order 3, irreducible char poly
    rep = Representation(C3, F5, 2, [Mat.identity(F5, 2), g, g * g])
    D = PseudoRep.induce(rep)
    field, split = split_search(D)
    assert field.k == 2
    assert PseudoRep.induce(split).equals(D.base_change(field))


@pytest.mark.parametrize("p", [2, 3])
def test_split_search_on_a_matrix_algebra(p):
    # M_2(F) is no group algebra: its factors come from cyclic-vector spans
    # of the regular module
    F = make_field(p)
    D = det_law(F, 2)
    field, rep = split_search(D)
    assert field == F
    assert PseudoRep.induce(rep).equals(D)


def test_split_search_rejects_two_factor_multisets(monkeypatch):
    # every match is found twice and every multiset key differs
    keys = iter(range(1000))

    class DistinctKeys:
        def __init__(self, factors):
            pass

        def multiset_key(self):
            return next(keys)

    dim_multisets = pseudo_mod._dim_multisets
    monkeypatch.setattr(pseudo_mod, "JHDecomposition", DistinctKeys)
    monkeypatch.setattr(pseudo_mod, "_dim_multisets",
                        lambda irs, d: dim_multisets(irs, d) * 2)
    cs = characters(symmetric(3), F5)
    with pytest.raises(InvariantViolation) as info:
        split_search(PseudoRep.induce(direct_sum(cs[0], cs[1])))
    assert len(info.value.witness) == 2


def test_ch_quotient_rejects_a_law_that_does_not_factor(monkeypatch):
    # the whole algebra in place of the Cayley-Hamilton ideal
    monkeypatch.setattr(pseudo_mod, "ch_ideal",
                        lambda D: Ideal(D.source, D.source.basis))
    cs = characters(cyclic(3), F7)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    with pytest.raises(InvariantViolation) as info:
        ch_quotient(D)
    exps, code = info.value.witness
    assert len(exps) == 3 + 3 and code


def test_tautological_rep_induces_det():
    for d in (1, 2):
        D = det_law(F3, d)
        taut = tautological_rep(F3, d)
        assert PseudoRep.induce(taut).equals(D)


def test_multiplicativity_catches_fakes():
    # x0^2 + x1^2 on F3[C2] is homogeneous but not multiplicative
    C2 = cyclic(2)
    from detlaw.algebras import GroupAlgebra
    A = GroupAlgebra(C2, F3)
    xs = ("x0", "x1")
    fake = MPoly.var(F3, xs, "x0") ** 2 + MPoly.var(F3, xs, "x1") ** 2
    D = PseudoRep(A, 2, fake, check=False)
    assert not D.is_multiplicative()


def test_group_rep_views_reject_an_algebra_source():
    rep = tautological_rep(F5, 2)
    with pytest.raises(ShapeMismatch):
        rep.generator_images()
    with pytest.raises(ShapeMismatch):
        from_group_rep(rep)


def test_ch_ideal_rows_are_the_coefficients_of_chi(monkeypatch):
    # one generator per exponent of chi(x, x), in sorted exponent order
    cs = characters(symmetric(3), F5)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    vec = pseudo_mod.ch_element(D)
    exps = sorted({e for c in vec for e in c.terms})
    seen = []
    monkeypatch.setattr(pseudo_mod, "ideal_generated",
                        lambda A, gens: seen.append(gens) or ideal_generated(A, gens))
    I = ch_ideal(D)
    assert seen == [[tuple(c.terms.get(e, 0) for c in vec) for e in exps]]
    assert I == ideal_generated(D.source, seen[0])
