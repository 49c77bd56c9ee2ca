from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detlaw.poly as poly_mod
from detlaw.algebras import (FinAlgebra, Ideal, group_algebra, ideal_generated,
                             quotient)
from detlaw.errors import NotAnIdeal
from detlaw.fields import make_field
from detlaw.groups import cyclic, dihedral, direct_product, symmetric
from detlaw.linalg import nullspace, span_closure
from detlaw.poly import MPoly

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def test_group_algebra_unit_and_associativity():
    A = group_algebra(symmetric(3), F5)
    assert A.n == 6
    assert A.mul(A.unit, A.basis[3]) == A.basis[3]
    x = A.add(A.basis[1], A.smul(2, A.basis[4]))
    y = A.add(A.basis[2], A.basis[5])
    z = A.basis[3]
    assert A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))


def test_group_algebra_mirrors_group_table():
    G = cyclic(4)
    A = group_algebra(G, F3)
    for a in range(4):
        for b in range(4):
            assert A.mul(A.basis[a], A.basis[b]) == \
                A.basis[G.table[a][b]]


def _center_dim(A):
    """Oracle: x = sum a_j e_j is central iff sum_j a_j (e_j e_i - e_i e_j)
    vanishes for every i."""
    diffs = [[A.sub(A.mul(A.basis[j], A.basis[i]), A.mul(A.basis[i], A.basis[j]))
              for j in range(A.n)] for i in range(A.n)]
    eqs = [tuple(diffs[i][j][k] for j in range(A.n))
           for i in range(A.n) for k in range(A.n)]
    return len(nullspace(A.field, eqs, A.n))


def test_center_of_group_algebra_counts_conjugacy_classes():
    # S3 has 3 conjugacy classes; F5 has char prime to 6
    A = group_algebra(symmetric(3), F5)
    assert _center_dim(A) == 3


def test_ideal_generated_augmentation():
    G = cyclic(3)
    A = group_algebra(G, F3)
    g_minus_1 = A.sub(A.basis[1], A.basis[0])
    I = ideal_generated(A, [g_minus_1])
    assert I.dim == 2
    # the whole augmentation ideal: sums of coefficients vanish
    for v in I.basis:
        assert sum(v) % 3 == 0


def test_non_ideal_rejected():
    A = group_algebra(symmetric(3), F5)
    with pytest.raises(NotAnIdeal):
        Ideal(A, [A.basis[1]])


def test_quotient_ring_structure():
    G = cyclic(3)
    A = group_algebra(G, F3)
    g_minus_1 = A.sub(A.basis[1], A.basis[0])
    I = ideal_generated(A, [g_minus_1])
    Q, project, lift = quotient(A, I)
    assert Q.n == 1
    # projection is a ring map
    for a in range(A.n):
        for b in range(A.n):
            lhs = project(A.mul(A.basis[a], A.basis[b]))
            rhs = Q.mul(project(A.basis[a]), project(A.basis[b]))
            assert lhs == rhs
    # lift splits the projection
    for j in range(Q.n):
        assert project(lift(Q.basis[j])) == Q.basis[j]


# --- table-backed products and closure by generator translations ---

def _mul_by_field_methods(A, x, y):
    """Oracle: the structure-constant loop through F.mul and F.add."""
    F = A.field
    out = [0] * A.n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, s in A.sc[i][j]:
                out[k] = F.add(out[k], F.mul(F.mul(xi, yj), s))
    return tuple(out)


def _norm_quotient(G, F):
    """F[G] modulo the line through sum_g g: structure constants with -1."""
    A = group_algebra(G, F)
    Q, _project, _lift = quotient(A, ideal_generated(A, [(1,) * A.n]))
    return Q


@cache
def _algebra(kind, q):
    F = {4: make_field(2, 2), 7: F7, 25: make_field(5, 2), 257: make_field(257)}[q]
    if kind == "S3/N":
        return _norm_quotient(symmetric(3), F)
    return group_algebra(symmetric(3) if kind == "S3" else dihedral(4), F)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_matches_the_field_method_loop(data):
    A = _algebra(data.draw(st.sampled_from(["S3", "D4", "S3/N"])),
                 data.draw(st.sampled_from([4, 7, 25, 257])))
    vec = st.tuples(*[st.sampled_from([0, 0, 1, A.field.q - 1, 2 % A.field.q])
                      | st.integers(0, A.field.q - 1)] * A.n)
    x, y = data.draw(vec), data.draw(vec)
    assert A.mul(x, y) == _mul_by_field_methods(A, x, y)


def _mul_poly_reference(A, x, y, zero):
    """The product loop that adds each term into a new MPoly."""
    out = [zero] * A.n
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            c = xi * yj
            for k, s in A.sc[i][j]:
                out[k] = out[k] + c.scale(s)
    return tuple(out)


@pytest.mark.parametrize("kind", ["S3", "S3/N"])
@pytest.mark.parametrize("q", [7, 25, 257])
def test_mul_poly_matches_the_reference_term_order(kind, q):
    A = _algebra(kind, q)
    F = A.field
    n = A.n
    names = tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n))
    zero = MPoly.zero(F, names)
    xv = tuple(MPoly.var(F, names, names[i]) for i in range(n))
    yv = tuple(MPoly.var(F, names, names[n + i]) + MPoly.const(F, names, i)
               for i in range(n))
    # linear and quadratic coordinates; S3/N has -1 structure constants
    sq = _mul_poly_reference(A, xv, xv, zero)
    for x, y in ((xv, yv), (sq, yv), (yv, sq), (sq, A.mul_poly(yv, xv, zero))):
        got = A.mul_poly(x, y, zero)
        want = _mul_poly_reference(A, x, y, zero)
        assert [list(p.terms.items()) for p in got] == \
            [list(p.terms.items()) for p in want]


def test_mul_poly_multiplies_only_nonzero_pairs(monkeypatch):
    A = group_algebra(symmetric(3), F7)
    names = tuple(f"x{i}" for i in range(A.n))
    zero = MPoly.zero(F7, names)
    xv = tuple(MPoly.var(F7, names, v) if i % 2 else zero for i, v in enumerate(names))
    cv = tuple(MPoly.const(F7, names, i % 3) for i in range(A.n))
    calls = []
    kernel = poly_mod._mul_terms
    monkeypatch.setattr(poly_mod, "_mul_terms",
                        lambda *args: calls.append(args) or kernel(*args))
    got = A.mul_poly(xv, cv, zero)
    assert len(calls) == 3 * 4  # nonzero coordinates: x1, x3, x5 times 4 constants
    assert got == _mul_poly_reference(A, xv, cv, zero)


@pytest.mark.parametrize("G, F", [(symmetric(3), F3), (dihedral(4), F5),
                                  (direct_product(cyclic(3), symmetric(3)), F7)])
def test_ideal_generated_matches_closure_under_all_basis_products(G, F):
    A = group_algebra(G, F)
    one_plus = [A.add(A.unit, A.basis[g]) for g in G.generators]
    minus = [A.sub(A.basis[G.generators[0]], A.unit)]
    mixed = [A.add(A.basis[1], A.smul(2 % F.q, A.basis[A.n - 1]))]
    for elems in (one_plus, minus, mixed, one_plus[:1]):
        I = ideal_generated(A, elems)
        basis, pivots = span_closure(F, elems, FinAlgebra.multiplication_maps(A))
        assert I.basis == tuple(basis) and I.pivots == tuple(pivots)
        Ideal(A, I.basis)  # check=True holds


@pytest.mark.parametrize("F", [F5, F7])
def test_left_ideal_is_not_a_two_sided_ideal(F):
    # F[S3](1 + s) for a transposition s is a left ideal but not a right one
    G = symmetric(3)
    A = group_algebra(G, F)
    s = next(g for g in range(G.order) if G.element_order(g) == 2)
    left = [A.mul(e, A.add(A.unit, A.basis[s])) for e in A.basis]
    with pytest.raises(NotAnIdeal):
        Ideal(A, left)
    assert ideal_generated(A, left).dim > Ideal(A, left, check=False).dim
