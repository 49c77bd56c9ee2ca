import pytest

from detlaw.algebras import Ideal, group_algebra, ideal_generated, quotient
from detlaw.errors import NotAnIdeal
from detlaw.fields import make_field
from detlaw.groups import cyclic, symmetric

F3 = make_field(3)
F5 = make_field(5)


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


def test_center_of_group_algebra_counts_conjugacy_classes():
    # S3 has 3 conjugacy classes; F5 has char prime to 6
    A = group_algebra(symmetric(3), F5)
    assert A.center_dim() == 3


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


def test_trace_form_radical_detects_nonsemisimple():
    # F3[C3] is local non-semisimple (p divides |G|)
    A = group_algebra(cyclic(3), F3)
    assert len(A.trace_form_radical(_regular_trace(A))) > 0
    # F5[C3] is semisimple
    B = group_algebra(cyclic(3), F5)
    assert len(B.trace_form_radical(_regular_trace(B))) == 0


def _regular_trace(A):
    return [A.left_mult_matrix(A.basis[i]).trace() for i in range(A.n)]
