import time
import tracemalloc

import pytest

import detlaw.poly as poly_mod
import detlaw.pseudo as pseudo_mod
from detlaw.algebras import FinAlgebra, Ideal, group_algebra, ideal_generated
from detlaw.errors import InvariantViolation, ShapeMismatch
from detlaw.fields import make_field
from detlaw.groups import cyclic, dihedral, direct_product, symmetric
from detlaw.linalg import Mat, combine, projective_points
from detlaw.poly import MPoly
from detlaw.pseudo import (PseudoRep, ch_ideal, ch_quotient, det_law,
                           is_cayley_hamilton, kernel, matrix_algebra,
                           nilpotency_index, split_search, tautological_rep)
from detlaw.reps import (Representation, characters, direct_sum, enumerate_reps,
                         irreducible_reps)

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
    point = dict(zip(D.poly.vars, (0, 1, 0)))
    L1, L2 = (L.evaluate(point) for L in D.lambda_polys())
    assert (L1, L2) == (6, 1)
    assert all(F7.add(F7.sub(F7.mul(t, t), F7.mul(L1, t)), L2) == 0 for t in (2, 4))


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


def _field_product_algebra(base, *fields):
    """E_1 x ... x E_r as a base-algebra, each E_i = base[t]/(m_i) on the
    basis 1, t, ..., t^(k_i - 1) of its codes p^0, ..., p^(k_i - 1)."""
    p, offsets = base.p, [0]
    for E in fields:
        offsets.append(offsets[-1] + E.k)
    n = offsets[-1]
    sc = [[()] * n for _ in range(n)]
    for E, off in zip(fields, offsets):
        for i in range(E.k):
            for j in range(E.k):
                c = E.mul(p ** i, p ** j)
                sc[off + i][off + j] = tuple((off + b, c // p ** b % p) for b in range(E.k)
                                             if c // p ** b % p)
    unit = [int(x in offsets[:-1]) for x in range(n)]
    return FinAlgebra(base, [f"e{x}" for x in range(n)], sc, unit)


def test_split_search_scans_divisors_of_lcm_1_to_d():
    # the regular law of F_4 x F_8 over F_2 has d = 5 and absolutely
    # irreducible factors in Frobenius orbits of sizes 2 and 3: it splits
    # first over F_2^6, a degree beyond 1..d
    F2 = make_field(2)
    A = _field_product_algebra(F2, make_field(2, 2), make_field(2, 3))
    D = PseudoRep.induce(Representation(A, F2, 5, [A.left_mult_matrix(e) for e in A.basis]))
    assert D.check_axioms()
    field, rep = split_search(D)
    assert field == make_field(2, 6)
    assert rep.dim == 5 and PseudoRep.induce(rep).equals(D.base_change(field))


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
    # the whole algebra in place of the Cayley-Hamilton ideal: Q = 0, so
    # D_Q o project is the zero polynomial in the n = 3 coordinates
    monkeypatch.setattr(pseudo_mod, "ch_ideal",
                        lambda D: Ideal(D.source, D.source.basis))
    cs = characters(cyclic(3), F7)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    with pytest.raises(InvariantViolation) as info:
        ch_quotient(D)
    exps, code = info.value.witness
    assert len(exps) == 3 and code


def test_ch_quotient_rejects_the_augmentation_ideal(monkeypatch):
    # a two-sided ideal that D = triv + sgn on S3 does not factor through:
    # D_Q o project is (sum x_g)^2, D is (sum x_g)(sum sgn(g) x_g)
    cs = characters(symmetric(3), F5)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    A = D.source
    aug = ideal_generated(A, [A.sub(e, A.unit) for e in A.basis])
    assert aug.dim == 5
    monkeypatch.setattr(pseudo_mod, "ch_ideal", lambda D: aug)
    with pytest.raises(InvariantViolation):
        ch_quotient(D)


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


# --- the Cayley-Hamilton ideal and the kernel against their oracles ---

def _generic(D):
    """The generic element x = sum x_i e_i, as a vector of variables."""
    xs = D.poly.vars
    return tuple(MPoly.var(D.field, xs, x) for x in xs)


def _ch_element(D):
    """chi(x, x) at the generic element, expanded symbolically: the oracle
    for ch_ideal's polarized coefficients."""
    A = D.source
    F = A.field
    xs = D.poly.vars
    zero = MPoly.zero(F, xs)
    xi = _generic(D)
    lambdas = D.lambda_polys()
    powers = [tuple(MPoly.const(F, xs, u) for u in A.unit)]
    for _ in range(D.d):
        powers.append(A.mul_poly(powers[-1], xi, zero))
    acc = list(powers[D.d])
    for i in range(1, D.d + 1):
        coeff = lambdas[i - 1] if i % 2 == 0 else lambdas[i - 1].scale(F.neg(1))
        for k in range(A.n):
            acc[k] = acc[k] + coeff * powers[D.d - i][k]
    return acc


def _oracle_rows(D):
    """One row per monomial of chi(x, x): its coefficient in each coordinate."""
    vec = _ch_element(D)
    exps = sorted({e for c in vec for e in c.terms})
    return [tuple(c.terms.get(e, 0) for c in vec) for e in exps]


def _kernel_oracle(D):
    """ker(D) by testing every projective line of the trace-form radical of
    the whole algebra, with no pass through the Cayley-Hamilton quotient."""
    A = D.source
    F = A.field
    null = A.trace_form_radical(D.trace_form())
    if not null:
        return Ideal(A, [], check=False)
    lambdas = D.lambda_polys()
    members = [r for r in (combine(F, c, null)
                           for c in projective_points(F.q, len(null)))
               if pseudo_mod._kernel_member(D, lambdas, r)]
    return Ideal(A, members, check=True)


def _kernel_member_oracle(D, r):
    """Every L_i vanishes on r x, with r x expanded through mul_poly."""
    F = D.field
    xs = D.poly.vars
    zero = MPoly.zero(F, xs)
    rx = D.source.mul_poly(tuple(MPoly.const(F, xs, c) for c in r), _generic(D), zero)
    images = dict(zip(xs, rx))
    return all(L.substitute(images).is_zero() for L in D.lambda_polys())


def _dual_numbers_law():
    # F5[e]/(e^2) with D(a + b e) = a^2
    A = FinAlgebra(F5, ("1", "e"), [[((0, 1),), ((1, 1),)], [((1, 1),), ()]], (1, 0))
    return PseudoRep(A, 2, MPoly.var(F5, ("x0", "x1"), "x0") ** 2, check=True)


def _sum_law(reps):
    return PseudoRep.induce(direct_sum(*reps))


def _ch_sweep():
    """Laws on C3, S3, D4, D5 and C3xS3 over F_3, F_5, F_7 with 1-4
    characters (repeated where the field has fewer), a 2-dimensional
    irreducible with and without a character, the determinant on M_2 and
    M_3, and the dual numbers."""
    out = []
    for G in (cyclic(3), symmetric(3), dihedral(4), dihedral(5),
              direct_product(cyclic(3), symmetric(3))):
        for F in (F3, F5, F7):
            cs = characters(G, F)
            for k in range(1, 5):
                out.append((f"{G.name}-F{F.q}-{k}",
                            _sum_law([cs[i % len(cs)] for i in range(k)])))
    for G, F in ((symmetric(3), F5), (dihedral(4), F3)):
        two = next(r for r in irreducible_reps(G, F, 2) if r.dim == 2)
        out.append((f"{G.name}-F{F.q}-2dim", _sum_law([two])))
        out.append((f"{G.name}-F{F.q}-2dim+1", _sum_law([two, characters(G, F)[-1]])))
    out += [(f"M{d}-F5", det_law(F5, d)) for d in (2, 3)]
    out.append(("dual-numbers-F5", _dual_numbers_law()))
    return out


@pytest.mark.parametrize("D", [pytest.param(D, id=name) for name, D in _ch_sweep()])
def test_ch_ideal_matches_the_symbolic_oracle(D):
    assert ch_ideal(D) == ideal_generated(D.source, _oracle_rows(D))


def test_ch_ideal_rows_are_the_coefficients_of_chi(monkeypatch):
    # a plain FinAlgebra copy of F[G] has the same structure constants but
    # no orbit reduction, so every nonzero coefficient row of chi(x, x)
    # reaches ideal_generated
    seen = []
    monkeypatch.setattr(pseudo_mod, "ideal_generated",
                        lambda A, gens: seen.append(gens) or ideal_generated(A, gens))
    for group, field, k in ((symmetric(3), F5, 2), (symmetric(3), F5, 3),
                            (dihedral(4), F3, 3), (dihedral(4), F3, 4)):
        cs = characters(group, field)
        D = _sum_law([cs[i % len(cs)] for i in range(k)])
        A = D.source
        plain = PseudoRep(FinAlgebra(field, A.labels, A.sc, A.unit, check=False),
                          D.d, D.poly)
        seen.clear()
        I_plain = ch_ideal(plain)
        assert len(seen) == 1
        assert sorted(seen[0]) == sorted(_oracle_rows(plain))
        # on F[G] itself one row per conjugation orbit generates the same ideal
        seen.clear()
        I = ch_ideal(D)
        assert len(seen[0]) < len(_oracle_rows(plain))
        assert I.basis == I_plain.basis


def _kernel_cases():
    out = []
    for G, F, k in ((symmetric(3), F5, 2), (symmetric(3), F3, 2), (cyclic(3), F7, 2),
                    (cyclic(3), F7, 3), (cyclic(3), F3, 1),
                    (dihedral(4), F3, 2), (symmetric(3), F7, 2)):
        cs = characters(G, F)
        out.append((f"{G.name}-F{F.q}-{k}", _sum_law([cs[i % len(cs)] for i in range(k)])))
    u = Mat.from_rows(F3, [[1, 1], [0, 1]])
    out.append(("C3-F3-unipotent", PseudoRep.induce(
        Representation(cyclic(3), F3, 2, [Mat.identity(F3, 2), u, u * u]))))
    out += [(f"M{d}-F3", det_law(F3, d)) for d in (1, 2)]
    out.append(("dual-numbers-F5", _dual_numbers_law()))
    return out


@pytest.mark.parametrize("D", [pytest.param(D, id=name) for name, D in _kernel_cases()])
def test_kernel_matches_the_direct_enumeration(D):
    assert kernel(D) == _kernel_oracle(D)


@pytest.mark.parametrize("D", [pytest.param(D, id=name) for name, D in _kernel_cases()])
def test_kernel_member_matches_the_expanded_product(D):
    # r x from the rows of r's left multiplication against r x expanded
    # through mul_poly, on every basis element and every sum of two
    A = D.source
    lambdas = D.lambda_polys()
    tests = list(A.basis) + [A.add(a, b) for i, a in enumerate(A.basis)
                             for b in A.basis[i + 1:]]
    assert [pseudo_mod._kernel_member(D, lambdas, r) for r in tests] == \
        [_kernel_member_oracle(D, r) for r in tests]


def test_kernel_makes_no_mul_poly_call(monkeypatch):
    def no_mul_poly(self, x, y, zero):
        raise AssertionError("mul_poly called")

    D = dict(_kernel_cases())["C3-F3-unipotent"]
    want = kernel(D)
    member = pseudo_mod._kernel_member
    lines = []
    monkeypatch.setattr(pseudo_mod, "_kernel_member",
                        lambda *args: lines.append(args[2]) or member(*args))
    monkeypatch.setattr(FinAlgebra, "mul_poly", no_mul_poly)
    assert kernel(D) == want and lines


@pytest.mark.parametrize("group, field", [(dihedral(5), F5), (dihedral(6), F3)],
                         ids=["D5-F5", "D6-F3"])
def test_kernel_through_the_quotient_frees_large_searches(group, field):
    # the direct search has 97,656 lines on D5/F_5 and 29,524 on D6/F_3
    cs = characters(group, field)
    D = _sum_law(cs[:2])
    t0 = time.perf_counter()
    ker = kernel(D)
    assert time.perf_counter() - t0 < 1.0
    Ideal(D.source, ker.basis, check=True)
    assert not any(any(ker.reduce(v)) for v in ch_ideal(D).basis)


# --- multiplicativity against the expanded product ---

def _multiplicative_oracle(D):
    """D(x) D(y) == D(xy) with both sides expanded in full."""
    A = D.source
    F = D.field
    n = A.n
    xs = D.poly.vars
    both = tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n))
    xv = tuple(MPoly.var(F, both, both[i]) for i in range(n))
    yv = tuple(MPoly.var(F, both, both[n + i]) for i in range(n))
    zv = A.mul_poly(xv, yv, MPoly.zero(F, both))
    dx = D.poly.substitute({xs[i]: xv[i] for i in range(n)})
    dy = D.poly.substitute({xs[i]: yv[i] for i in range(n)})
    dz = D.poly.substitute({xs[i]: zv[i] for i in range(n)})
    return dx * dy == dz


def _changed(D, edit):
    terms = dict(D.poly.terms)
    edit(terms)
    return PseudoRep(D.source, D.d, MPoly(D.field, D.poly.vars, terms))


def _bump_first(F):
    def edit(terms):
        e = next(iter(terms))
        terms[e] = F.add(terms[e], 1)
    return edit


def _add_missing(d):
    """Add x0^(d-1) x_k for the first k where the law has no such term."""
    def edit(terms):
        n = len(next(iter(terms)))
        e = next(e for e in ((d - 1,) + tuple(int(i == k) for i in range(1, n))
                             for k in range(1, n)) if e not in terms)
        terms[e] = 1
    return edit


def _multiplicativity_cases():
    """(name, law, expected) on genuine laws of every shape the kernel keys
    differently, and fakes that differ from a law in one place."""
    out = []
    for d in (1, 2, 3):
        for F in (F3, F5):
            out.append((f"M{d}-F{F.q}", det_law(F, d), True))
    out.append(("dual-numbers-F5", _dual_numbers_law(), True))
    F257 = make_field(257)  # no tables: exponent-tuple keys
    out.append(("S3-F257-2", _sum_law(characters(symmetric(3), F257)), True))
    C1 = group_algebra(cyclic(1), F3)
    out.append(("C1-F3-degree-256", PseudoRep(
        C1, 256, MPoly.var(F3, ("x0",), "x0") ** 256), True))
    S3 = symmetric(3)
    law = _sum_law(characters(S3, F5))
    two = next(r for r in irreducible_reps(S3, F5, 2) if r.dim == 2)
    for name, D in (("S3-F5-2", law), ("S3-F5-2dim", _sum_law([two]))):
        _Q, DQ, _p, _l = ch_quotient(D)
        out.append((f"{name}-quotient", DQ, True))
    C2 = group_algebra(cyclic(2), F3)
    xs = ("x0", "x1")
    x0, x1 = MPoly.var(F3, xs, "x0"), MPoly.var(F3, xs, "x1")
    out.append(("C2-F3-x0^2+x1^2", PseudoRep(C2, 2, x0 ** 2 + x1 ** 2), False))
    # every pair's key holds c_a c_b, but D(xy) has two more terms
    out.append(("C2-F3-x0^2", PseudoRep(C2, 2, x0 ** 2), False))
    out.append(("S3-F5-coefficient-changed", _changed(law, _bump_first(F5)), False))
    out.append(("S3-F5-term-added", _changed(law, _add_missing(2)), False))
    out.append(("S3-F5-2dim-term-added",
                _changed(_sum_law([two]), _add_missing(2)), False))
    # z has zero products, so D(xy) packs although z^256 does not fit a
    # byte, and D(xy) has the 4 = 2^2 terms of x0 y0 (x0 y2 + x2 y0)^3
    one, e = ((0, 1),), ((2, 1),)
    zero_z = FinAlgebra(F5, ("1", "z", "e"), [[one, (), e], [(), (), ()], [e, (), ()]],
                        (1, 0, 0), check=False)
    out.append(("zero-product-degree-256", PseudoRep(zero_z, 4, MPoly.from_terms(
        F5, ("x0", "x1", "x2"), [((1, 0, 3), 1), ((0, 256, 0), 1)])), False))
    return out


@pytest.mark.parametrize("D, expected", [pytest.param(D, want, id=name)
                                         for name, D, want in _multiplicativity_cases()])
def test_is_multiplicative_matches_the_expanded_product(D, expected):
    assert _multiplicative_oracle(D) is expected
    assert D.is_multiplicative() is expected


@pytest.mark.parametrize("gname", ["C2", "C3", "C4", "S3", "D4"])
def test_is_multiplicative_on_the_acceptance_corpus(gname):
    from test_acceptance import PRIMES, corpus_laws

    laws = [D for q in PRIMES for d in (1, 2) for D, _rep in corpus_laws(gname, q, d)]
    assert laws
    for D in laws:
        assert D.is_multiplicative() is _multiplicative_oracle(D) is True
    # a changed coefficient breaks each of the degree-2 laws
    for D in laws:
        if D.d == 2:
            assert not _changed(D, _bump_first(D.field)).is_multiplicative()


def test_is_multiplicative_holds_no_expanded_product(monkeypatch):
    # the 144-term law of c1 + c5 on C3xS3 over F_7 in 18 variables: the
    # expanded D(x) D(y) had 20,736 terms keyed by 36-entry tuples
    G = direct_product(cyclic(3), symmetric(3))
    cs = [c for c in characters(G, F7) if any(m[0, 0] != 1 for m in c.images)]
    D = _sum_law([cs[0], cs[4]])
    assert len(D.poly.terms) == 144

    def no_unpack(packed, nv):
        raise AssertionError("unpacked a term dict on a tabled field")

    monkeypatch.setattr(poly_mod, "_unpack", no_unpack)
    tracemalloc.start()
    try:
        assert D.is_multiplicative()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


# --- Lambda_i against the substitution in n + 1 variables ---

def _lambda_oracle(D):
    """L_1..L_d read off chi(x, t) = D(t - x): substitute x_i -> t u_i - x_i
    in the generic coordinates and t, and take the t-coefficients."""
    F = D.field
    xs = D.poly.vars
    ext = xs + ("t",)
    t = MPoly.var(F, ext, "t")
    chi = D.poly.substitute({x: t.scale(u) - MPoly.var(F, ext, x)
                             for x, u in zip(xs, D.source.unit)})
    out = []
    for i in range(1, D.d + 1):
        c = chi.coefficient("t", D.d - i)
        L = MPoly(F, xs, {e[:-1]: v for e, v in c.terms.items()})
        out.append(L if i % 2 == 0 else -L)
    return tuple(out)


def _lambda_laws():
    """Laws on group algebras at d = 2 and 3, the determinant on M_1..M_3
    over F_2..F_5, Cayley-Hamilton quotients whose unit has two or three
    nonzero coordinates, and laws over the untabled F_17^2, F_7^3, F_5^4."""
    F2, F4 = make_field(2), make_field(2, 2)
    out = []
    for G, F in ((cyclic(3), F4), (cyclic(3), F7), (symmetric(3), F5),
                 (dihedral(4), F3), (direct_product(cyclic(3), symmetric(3)), F7)):
        cs = characters(G, F)
        for k in (2, 3):
            out.append((f"{G.name}-F{F.q}-{k}", _sum_law([cs[i % len(cs)] for i in range(k)])))
    for G, F in ((symmetric(3), F5), (dihedral(4), F3)):
        two = next(r for r in irreducible_reps(G, F, 2) if r.dim == 2)
        out.append((f"{G.name}-F{F.q}-2dim", _sum_law([two])))
        out.append((f"{G.name}-F{F.q}-2dim+1", _sum_law([two, characters(G, F)[-1]])))
    u = Mat.from_rows(F3, [[1, 1], [0, 1]])
    out.append(("C3-F3-unipotent", PseudoRep.induce(
        Representation(cyclic(3), F3, 2, [Mat.identity(F3, 2), u, u * u]))))
    out += [(f"M{d}-F{F.q}", det_law(F, d)) for F in (F2, F3, F4, F5) for d in (1, 2, 3)]
    for G, F, k in ((cyclic(3), F7, 2), (symmetric(3), F3, 2), (cyclic(4), F5, 3),
                    (dihedral(4), F5, 3), (cyclic(4), F4, 3), (dihedral(4), F4, 3)):
        cs = characters(G, F)
        out.append((f"{G.name}-F{F.q}-{k}-quotient",
                    ch_quotient(_sum_law([cs[i % len(cs)] for i in range(k)]))[1]))
    laws = dict(out)
    c4 = characters(cyclic(4), make_field(17))  # taken over F_17^2 only
    laws["C4-F17-2"] = _sum_law(c4[1:3])
    laws["C4-F17-3-quotient"] = ch_quotient(_sum_law(c4[:3]))[1]
    for (p, k), names in (((17, 2), ("C4-F17-2", "C4-F17-3-quotient")),
                          ((7, 3), ("C3-F7-2", "C3-F7-3", "C3-F7-2-quotient")),
                          ((5, 4), ("S3-F5-2dim", "C4-F5-3-quotient"))):
        E = make_field(p, k)
        out += [(f"{name}-over-F{E.q}", laws[name].base_change(E)) for name in names]
        out.append((f"M2-F{E.q}", det_law(E, 2)))
    out.append(("M3-F343", det_law(make_field(7, 3), 3)))
    return out


_LAMBDA_LAWS = _lambda_laws()


@pytest.mark.parametrize("D", [pytest.param(D, id=name) for name, D in _LAMBDA_LAWS])
def test_lambda_polys_match_the_substitution(D):
    assert D.lambda_polys() == _lambda_oracle(D)


@pytest.mark.parametrize("D", [pytest.param(D, id=name) for name, D in _LAMBDA_LAWS
                               if D.field.p > D.d])
def test_lambda_polys_satisfy_newtons_identities(D):
    # i L_i = sum_{k=1..i} (-1)^(k-1) L_{i-k} L_1(x^k), with L_0 = 1, as
    # polynomials in the generic coordinates; i is invertible since p > d
    A = D.source
    F = D.field
    xs = D.poly.vars
    zero = MPoly.zero(F, xs)
    tr = D.trace_form()
    lambdas = (MPoly.const(F, xs, 1),) + D.lambda_polys()
    power = tuple(MPoly.const(F, xs, u) for u in A.unit)
    traces = [None]
    for _ in range(D.d):
        power = A.mul_poly(power, _generic(D), zero)
        traces.append(sum((c.scale(t) for c, t in zip(power, tr) if t), zero))
    for i in range(1, D.d + 1):
        rhs = zero
        for k in range(1, i + 1):
            term = lambdas[i - k] * traces[k]
            rhs = rhs + (term if k % 2 else -term)
        assert lambdas[i] * i == rhs, i


def test_lambda_polys_substitute_nothing(monkeypatch):
    # every L_i comes term by term from D, with no substitution of t - x
    def no_substitute(*args):
        raise AssertionError("substitution called")

    laws = [dict(_LAMBDA_LAWS)[name] for name in ("S3-F5-3", "M3-F5", "C4-F5-3-quotient")]
    want = [_lambda_oracle(D) for D in laws]
    monkeypatch.setattr(MPoly, "substitute", no_substitute)
    monkeypatch.setattr(poly_mod, "_substitute_terms", no_substitute)
    monkeypatch.setattr(pseudo_mod, "_substitute_terms", no_substitute)
    assert [PseudoRep(D.source, D.d, D.poly).lambda_polys() for D in laws] == want
