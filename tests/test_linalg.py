import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detlaw.errors import ShapeMismatch
from detlaw.fields import make_field
from detlaw.linalg import (Mat, all_subspaces, all_vectors, gl_order,
                           intersect_spans, nullspace, rref, solve, span_dim)

F3 = make_field(3)
F5 = make_field(5)


def test_matrix_product_vs_apply():
    A = Mat.from_rows(F5, [[1, 2], [3, 4]])
    B = Mat.from_rows(F5, [[0, 1], [2, 3]])
    C = A * B
    for v in [(1, 0), (0, 1), (2, 3)]:
        assert C.apply(v) == A.apply(B.apply(v))


def test_det_multiplicative_exhaustive_2x2_f3():
    mats = [Mat(F3, 2, 2, data)
            for data in ((a, b, c, d) for a in range(3) for b in range(3)
                         for c in range(3) for d in range(3))]
    import random
    rng = random.Random(7)
    for _ in range(200):
        A, B = rng.choice(mats), rng.choice(mats)
        assert (A * B).det() == F3.mul(A.det(), B.det())


def test_det_gaussian_matches_permanent_expansion():
    # n = 4 uses elimination; compare against cofactor recursion
    def cof_det(m):
        n = m.nrows
        if n == 1:
            return m[0, 0]
        F = m.field
        acc = 0
        for j in range(n):
            if not m[0, j]:
                continue
            sub = Mat(F, n - 1, n - 1,
                      [m[i, c] for i in range(1, n) for c in range(n) if c != j])
            t = F.mul(m[0, j], cof_det(sub))
            acc = F.add(acc, t if j % 2 == 0 else F.neg(t))
        return acc

    import random
    rng = random.Random(3)
    for _ in range(20):
        m = Mat(F5, 4, 4, [rng.randrange(5) for _ in range(16)])
        assert m.det() == cof_det(m)


def test_inverse():
    A = Mat.from_rows(F5, [[1, 2], [3, 4]])
    assert (A * A.inverse()).is_identity()
    singular = Mat.from_rows(F5, [[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_char_poly_coeffs_trace_and_det():
    A = Mat.from_rows(F5, [[2, 1], [0, 3]])
    c = A.char_poly_coeffs()
    assert c == (A.trace(), A.det())


def test_char_poly_cayley_hamilton_3x3():
    A = Mat.from_rows(F5, [[1, 2, 0], [0, 3, 1], [4, 0, 2]])
    c1, c2, c3 = A.char_poly_coeffs()
    I = Mat.identity(F5, 3)
    Z = A ** 3 - c1 * (A ** 2) + c2 * A - c3 * I
    assert Z == Mat.zero(F5, 3)


def test_shape_mismatch():
    A = Mat.from_rows(F5, [[1, 2], [3, 4]])
    B = Mat.from_rows(F5, [[1, 2, 3]])
    with pytest.raises(ShapeMismatch):
        A + B
    with pytest.raises(ShapeMismatch):
        B.det()
    with pytest.raises(ShapeMismatch):
        B.inverse()
    with pytest.raises(ShapeMismatch):
        Mat(F5, 2, 2, (1, 2, 3))


# --- the 2x2 table kernel against loops over the field methods ---

def _product_loop(A, B):
    F = A.field
    out = []
    for i in range(A.nrows):
        for j in range(B.ncols):
            acc = 0
            for k in range(A.ncols):
                acc = F.add(acc, F.mul(A[i, k], B[k, j]))
            out.append(acc)
    return Mat(F, A.nrows, B.ncols, out)


def _det2_loop(A):
    F = A.field
    return F.sub(F.mul(A[0, 0], A[1, 1]), F.mul(A[0, 1], A[1, 0]))


def _inverse2_loop(A):
    F = A.field
    i = F.inv(_det2_loop(A))
    return Mat(F, 2, 2, (F.mul(i, A[1, 1]), F.neg(F.mul(i, A[0, 1])),
                         F.neg(F.mul(i, A[1, 0])), F.mul(i, A[0, 0])))


# tabled fields of every size class up to the table cap, and F_257 without
_KERNEL_FIELDS = [make_field(2), make_field(2, 2), make_field(3, 2),
                  make_field(5, 2), make_field(7, 2), make_field(2, 8),
                  make_field(257)]


def _mat(data, field, n, m):
    return Mat(field, n, m, data.draw(st.tuples(*[st.integers(0, field.q - 1)] * (n * m))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_2x2_kernel_matches_field_method_loops(data):
    F = data.draw(st.sampled_from(_KERNEL_FIELDS))
    A, B = _mat(data, F, 2, 2), _mat(data, F, 2, 2)
    assert A * B == _product_loop(A, B)
    assert A.det() == _det2_loop(A)
    if A.det():
        assert A.inverse() == _inverse2_loop(A)
        assert _product_loop(A, A.inverse()) == Mat.identity(F, 2)
    else:
        with pytest.raises(ZeroDivisionError):
            A.inverse()


@pytest.mark.parametrize("F", [make_field(2, 2), make_field(7, 2), make_field(257)],
                         ids=str)
def test_non_square_product_matches_loop(F):
    A = Mat(F, 2, 3, [(5 * i + 1) % F.q for i in range(6)])
    B = Mat(F, 3, 2, [(3 * i + 2) % F.q for i in range(6)])
    assert A * B == _product_loop(A, B)
    assert B * A == _product_loop(B, A)


def test_rref_idempotent_and_canonical():
    rows = [(1, 2, 0), (2, 4, 1), (0, 0, 2)]
    basis, pivots = rref(F5, rows)
    again, pivots2 = rref(F5, list(basis))
    assert basis == again and pivots == pivots2
    # scaled generators give the same canonical basis
    scaled = [tuple(F5.mul(3, x) for x in r) for r in rows]
    assert rref(F5, scaled)[0] == basis


def test_nullspace_annihilates():
    rows = [(1, 2, 3), (2, 4, 1)]
    ns = nullspace(F5, rows, 3)  # second row is 2x the first mod 5
    assert len(ns) == 2
    for v in ns:
        for r in rows:
            acc = 0
            for a, b in zip(r, v):
                acc = F5.add(acc, F5.mul(a, b))
            assert acc == 0


def test_solve():
    rows = [(1, 2), (3, 4)]
    x = solve(F5, rows, 2, (1, 0))
    assert x is not None
    got = [sum(F5.mul(a, b) for a, b in zip(r, x)) % 5 for r in rows]
    assert tuple(got) == (1, 0)
    assert solve(F5, [(1, 2), (2, 4)], 2, (0, 1)) is None


def test_intersect_spans():
    s1 = [(1, 0, 0), (0, 1, 0)]
    s2 = [(0, 1, 0), (0, 0, 1)]
    meet = intersect_spans(F5, s1, s2, 3)
    assert meet == [(0, 1, 0)]
    assert span_dim(F5, s1 + s2) == 3


def test_all_vectors_count():
    assert len(list(all_vectors(F3, 2))) == 9


def test_all_subspaces_grassmannian_count():
    # lines in F_3^3: (27-1)/2 = 13
    assert len(list(all_subspaces(F3, 3, 1))) == 13
    # planes are dual to lines
    assert len(list(all_subspaces(F3, 3, 2))) == 13
    for rows in all_subspaces(F3, 3, 2):
        assert span_dim(F3, rows) == 2


def test_gl_order():
    assert gl_order(3, 2) == 48
    assert gl_order(2, 3) == 168


def test_matrix_pow_matches_repeated_product():
    A = Mat.from_rows(F5, [[1, 2], [3, 4]])
    want = Mat.identity(F5, 2)
    for e in range(9):
        assert A ** e == want
        want = want * A


def test_matrix_pow_squares_only_while_bits_remain(monkeypatch):
    A = Mat.from_rows(F5, [[1, 2], [3, 4]])
    products = []
    mul = Mat.__mul__

    def counted(self, other):
        products.append(self is other)
        return mul(self, other)

    monkeypatch.setattr(Mat, "__mul__", counted)
    A ** 8
    assert products == [True, True, True]


def test_matrix_pow_rejects_bad_arguments():
    A = Mat.from_rows(F5, [[1, 2], [3, 4]])
    for bad in (-1, 1.5):
        with pytest.raises(ValueError):
            A ** bad
    with pytest.raises(ShapeMismatch):
        Mat.from_rows(F5, [[1, 2, 3], [4, 0, 1]]) ** 2
