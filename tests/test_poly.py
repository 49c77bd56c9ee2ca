from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detlaw.poly as poly_mod
from detlaw.algebras import FinAlgebra, group_algebra
from detlaw.errors import SizeCapExceeded, VariableMismatch
from detlaw.fields import make_field
from detlaw.groups import cyclic
from detlaw.linalg import _perm_sign
from detlaw.poly import MPoly, symbolic_det
from detlaw.pseudo import PseudoRep

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
F257 = make_field(257)  # q > 256: computed table reads


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

    def counted(F, a, b):
        calls.append(a is b)
        return kernel(F, a, b)

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
    assert calls == [True] * k
    assert list(got.terms.items()) == list(_ref_pow(F5, p.terms, 2 ** k, 2).items())


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
    return [MPoly.from_terms(F, XY, pairs) for pairs in (
        [((top, 0), 1), ((0, 1), 2)], [((1, 0), 1), ((0, 0), 1)],
        [((top, 1), 3), ((0, 2), 1)], [((0, 2), 1)])]


@pytest.mark.parametrize("F, top, fits", [
    pytest.param(F, top, fits, id=f"{top}-{fits}" if F is F5 else f"{F}-{top}-{fits}")
    for F in (F5, F257) for top, fits in [(127, True), (128, False), (300, False)]])
def test_symbolic_det_packs_below_the_byte_limit(F, top, fits):
    # the cap depends on the exponent bound alone: F_257 computes its table
    # reads and packs like F_5, which stores them
    entries = _det_entries(F, top)
    if not fits:
        with pytest.raises(SizeCapExceeded):
            symbolic_det(F, XY, entries, 2)
        return
    got = symbolic_det(F, XY, entries, 2)
    assert list(got.terms.items()) == \
        list(_ref_symbolic_det(F, XY, entries, 2).terms.items())


# --- the exponent cap: every product packs one byte per variable ---

def _mul_case(F, top):
    p = MPoly.from_terms(F, XY, [((top - 100, i), i + 1) for i in range(4)] + [((0, 0), 1)])
    q = MPoly.from_terms(F, XY, [((100, i), 1) for i in range(4)] + [((0, 0), 1)])
    return lambda: (p * q).terms, _ref_mul(F, p.terms, q.terms)


def _pow_case(F, top):
    p = MPoly.from_terms(F, XY, [((1, 0), 1), ((0, 0), 1)])
    return lambda: (p ** top).terms, _ref_pow(F, p.terms, top, 2)


def _substitute_case(F, top):
    p = MPoly.from_terms(F, XY, [((top - 100, 1), 1), ((0, 0), 2)])
    uv = ("u", "v")
    images = {"x": MPoly.from_terms(F, uv, [((1, 0), 1), ((0, 1), 1)]),
              "y": MPoly.from_terms(F, uv, [((100, 0), 1), ((0, 0), 1)])}
    return lambda: p.substitute(images).terms, _ref_substitute(p, images)


def _symbolic_det_case(F, top):
    # the rows' largest x exponents are a and top - a, met by the diagonal
    a = top // 2
    e = [MPoly.from_terms(F, XY, pairs) for pairs in (
        [((a, 0), 1), ((0, 1), 2)], [((1, 0), 1), ((0, 0), 1)],
        [((0, 2), 1)], [((top - a, 1), 3), ((0, 2), 1)])]
    minus = {k: F.neg(c) for k, c in _ref_mul(F, e[1].terms, e[2].terms).items()}
    want = _ref_add(F, _ref_mul(F, e[0].terms, e[3].terms), minus)
    return lambda: symbolic_det(F, XY, e, 2).terms, want


def _power_law_case(F, top):
    # x0^top on the one-dimensional algebra F[C1] is multiplicative
    C1 = group_algebra(cyclic(1), F)
    D = PseudoRep(C1, top, MPoly.from_terms(F, ("x0",), [((top,), 1)]))
    return D.is_multiplicative, True


def _zero_product_case(F, top):
    # z has zero products, so no exponent of D(xy) comes near the x1^top
    # term of D, and D(xy) has the 4 = 2^2 terms of x0 y0 (x0 y2 + x2 y0)^3
    one, e = ((0, 1),), ((2, 1),)
    A = FinAlgebra(F, ("1", "z", "e"), [[one, (), e], [(), (), ()], [e, (), ()]],
                   (1, 0, 0), check=False)
    D = PseudoRep(A, 4, MPoly.from_terms(F, ("x0", "x1", "x2"),
                                        [((1, 0, 3), 1), ((0, top, 0), 1)]))
    return D.is_multiplicative, False


_CAPPED = {"mul": _mul_case, "pow": _pow_case, "substitute": _substitute_case,
           "symbolic_det": _symbolic_det_case, "is_multiplicative": _power_law_case,
           "is_multiplicative-zero-product": _zero_product_case}


@pytest.mark.parametrize("case, F, top", [
    pytest.param(case, F, top, id=f"{case}-{F}-{top}")
    for case in _CAPPED for F in (F5, F257) for top in (255, 256)])
def test_products_cap_exponents_at_255(case, F, top):
    run, want = _CAPPED[case](F, top)
    if top >= poly_mod.PACK_LIMIT:
        with pytest.raises(SizeCapExceeded):
            run()
    elif isinstance(want, bool):
        assert run() is want
    else:
        assert list(run().items()) == list(want.items())
