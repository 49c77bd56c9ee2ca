from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detlaw.poly as poly_mod
from detlaw.errors import VariableMismatch
from detlaw.fields import make_field
from detlaw.linalg import _perm_sign
from detlaw.poly import MPoly, symbolic_det

F5 = make_field(5)
XY = ("x", "y")


def x():
    return MPoly.var(F5, XY, "x")


def y():
    return MPoly.var(F5, XY, "y")


def test_ring_identities():
    p = x() * x() + 2 * y()
    q = x() - y()
    assert p + q - q == p
    assert (p + q) * q == p * q + q * q
    assert p * MPoly.const(F5, XY, 1) == p
    assert (p * MPoly.zero(F5, XY)).is_zero()


def test_binomial_cube():
    p = (x() + y()) ** 3
    # char 5: coefficients 1,3,3,1
    assert p.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}


def test_frobenius_in_char_5():
    p = (x() + y()) ** 5
    assert p == x() ** 5 + y() ** 5


def test_degree_and_homogeneity():
    p = x() * y() + x() * x()
    assert p.degree() == 2
    assert p.is_homogeneous(2)
    assert not (p + 1).is_homogeneous(2)
    assert MPoly.zero(F5, XY).degree() == -1


def test_evaluate_full_and_partial():
    p = x() * x() + 2 * x() * y() + 3
    for a in range(5):
        for b in range(5):
            want = (a * a + 2 * a * b + 3) % 5
            assert p.evaluate({"x": a, "y": b}) == want


def test_substitute_is_ring_homomorphism():
    p = x() * y() + x() ** 2
    images = {"x": y(), "y": x() + 1}
    got = p.substitute(images)
    assert got == y() * (x() + 1) + y() ** 2


def test_substitute_missing_variable():
    with pytest.raises(VariableMismatch):
        (x() * y()).substitute({"x": x()})


def test_mismatched_variables_rejected():
    other = MPoly.var(F5, ("z",), "z")
    with pytest.raises(VariableMismatch):
        x() + other


def test_extension_scalar_codes_survive():
    # codes above p must not be reduced mod p by constructors
    E = make_field(5, 2)
    v = ("x",)
    p = MPoly.var(E, v, "x").scale(7)
    assert p.terms == {(1,): 7}
    assert MPoly.const(E, v, 13).terms == {(0,): 13}


def test_map_field_respects_products():
    E = make_field(5, 2)
    p = (x() + 2) * (y() + 3)
    q = x().map_field(E) + 2
    r = y().map_field(E) + 3
    assert p.map_field(E) == q * r


def test_sorted_terms_graded_lex():
    p = x() + y() ** 2 + x() * y() + 1
    exps = [e for e, _c in p.sorted_terms()]
    assert exps == [(1, 1), (0, 2), (1, 0), (0, 0)]


# --- the product kernel ---

F25 = make_field(5, 2)
F257 = make_field(257)  # q > 256: no add/mul tables


def _ref_mul(F, a, b):
    """The original tuple loop for a product of term dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            c = F.mul(c1, c2)
            if not c:
                continue
            e = tuple(u + v for u, v in zip(e1, e2))
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = F.add(prev, c)
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _ref_add(F, a, b):
    out = dict(a)
    for e, c in b.items():
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = F.add(prev, c)
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _ref_pow(F, a, n, nv):
    result = {(0,) * nv: 1}
    while n:
        if n & 1:
            result = _ref_mul(F, result, a)
        a = _ref_mul(F, a, a)
        n >>= 1
    return result


def _ref_substitute(p, images):
    """The original substitution: one product per term, summed by copying."""
    some = next(iter(images.values()))
    F, nv = some.field, len(some.vars)
    out = {}
    for e, c in p.terms.items():
        term = {(0,) * nv: c}
        for name, exp in zip(p.vars, e):
            if exp:
                term = _ref_mul(F, term, _ref_pow(F, images[name].terms, exp, nv))
        out = _ref_add(F, out, term)
    return out


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = poly_mod._mul_terms

    def counted(F, a, b, packed):
        calls.append((a is b, packed))
        return kernel(F, a, b, packed)

    monkeypatch.setattr(poly_mod, "_mul_terms", counted)
    return calls


@pytest.mark.parametrize("F", [F5, F25, F257], ids=str)
def test_pow_matches_repeated_product(F):
    p = MPoly.var(F, XY, "x").scale(2) + MPoly.var(F, XY, "y").scale(3) + 1
    want = MPoly.const(F, XY, 1)
    for n in range(10):
        assert p ** n == want
        want = want * p


def test_pow_rejects_bad_exponents():
    for bad in (-1, 2.0, "2"):
        with pytest.raises(ValueError):
            x() ** bad


@pytest.mark.parametrize("k", range(7))
def test_pow_of_two_squares_k_times(monkeypatch, k):
    p = x() + 2 * y() + 3
    calls = _count_kernel_calls(monkeypatch)
    got = p ** (2 ** k)
    assert calls == [(True, True)] * k
    assert list(got.terms.items()) == list(_ref_pow(F5, p.terms, 2 ** k, 2).items())


def test_exponent_sums_past_a_byte_take_the_tuple_path(monkeypatch):
    p = MPoly.from_terms(F5, XY, [((200, i), i + 1) for i in range(4)] + [((0, 0), 1)])
    q = MPoly.from_terms(F5, XY, [((100, i), 1) for i in range(4)] + [((0, 0), 1)])
    calls = _count_kernel_calls(monkeypatch)
    got = p * q
    assert calls == [(False, False)]
    assert list(got.terms.items()) == list(_ref_mul(F5, p.terms, q.terms).items())
    assert got.terms[(300, 0)] == 1


def test_small_exponents_take_the_packed_path(monkeypatch):
    p = (x() + y() + 1) ** 3
    calls = _count_kernel_calls(monkeypatch)
    got = p * p
    assert calls == [(False, True)]
    assert list(got.terms.items()) == list(_ref_mul(F5, p.terms, p.terms).items())


def _sparse(field, names, max_exp):
    nv = len(names)
    exps = st.tuples(*[st.integers(0, max_exp)] * nv)
    terms = st.dictionaries(exps, st.integers(1, field.q - 1), max_size=12)
    return terms.map(lambda t: MPoly(field, names, t))


_FIELDS = st.sampled_from([F5, F25, F257])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_reference_loop(data):
    F = data.draw(_FIELDS)
    names = ("a", "b", "c")[:data.draw(st.integers(1, 3))]
    p = data.draw(_sparse(F, names, 3))
    q = data.draw(_sparse(F, names, 3))
    assert list((p * q).terms.items()) == list(_ref_mul(F, p.terms, q.terms).items())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_matches_reference_loop(data):
    F = data.draw(_FIELDS)
    src = ("a", "b")
    dst = ("u", "v", "w")[:data.draw(st.integers(1, 3))]
    p = data.draw(_sparse(F, src, 3))
    images = {name: data.draw(_sparse(F, dst, 2)) for name in src}
    got = p.substitute(images)
    assert got.vars == dst
    assert list(got.terms.items()) == list(_ref_substitute(p, images).items())


def _ref_symbolic_det(F, names, entries, d):
    """The Leibniz sum as one MPoly product per entry, summed by copying."""
    acc = MPoly.zero(F, names)
    for perm in permutations(range(d)):
        term = MPoly.const(F, names, 1)
        for i, j in enumerate(perm):
            term = term * entries[i * d + j]
        if _perm_sign(perm) < 0:
            term = term.scale(F.neg(1))
        acc = acc + term
    return acc


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_symbolic_det_matches_reference_loop(data):
    F = data.draw(_FIELDS)
    names = ("a", "b", "c")[:data.draw(st.integers(1, 3))]
    d = data.draw(st.integers(1, 3))
    entries = [data.draw(_sparse(F, names, 2)) for _ in range(d * d)]
    got = symbolic_det(F, names, entries, d)
    assert list(got.terms.items()) == \
        list(_ref_symbolic_det(F, names, entries, d).terms.items())


def _det_entries(F, top):
    """A 2x2 matrix whose rows' exponent bounds are both ``top``, so the
    bounds sum to 2 * top."""
    return [MPoly.from_terms(F, XY, [((top, 0), 1), ((0, 1), 2)]), x() + 1,
            MPoly.from_terms(F, XY, [((top, 1), 3), ((0, 2), 1)]), y() * y()]


@pytest.mark.parametrize("top, packed", [(127, True), (128, False), (300, False)])
def test_symbolic_det_packs_below_the_byte_limit(monkeypatch, top, packed):
    entries = _det_entries(F5, top)
    calls = _count_kernel_calls(monkeypatch)
    got = symbolic_det(F5, XY, entries, 2)
    assert {p for _same, p in calls} == {packed}
    assert list(got.terms.items()) == \
        list(_ref_symbolic_det(F5, XY, entries, 2).terms.items())


def test_symbolic_det_untabled_field_takes_the_tuple_path(monkeypatch):
    entries = [MPoly.var(F257, XY, "x").scale(c) + c for c in (3, 256, 1, 200)]
    calls = _count_kernel_calls(monkeypatch)
    got = symbolic_det(F257, XY, entries, 2)
    assert {p for _same, p in calls} == {False}
    assert list(got.terms.items()) == \
        list(_ref_symbolic_det(F257, XY, entries, 2).terms.items())
