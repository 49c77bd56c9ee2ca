"""Brute-force oracles that the tests compare detlaw's exact rules against."""

from itertools import product

from detlaw.fields import _poly_mul_mod
from detlaw.poly import MPoly, symbolic_det
from detlaw.reps import intertwiner_basis


def isomorphic_by_search(rep1, rep2):
    """Whether some invertible map intertwines rep1 and rep2, for any two
    representations, semisimple or not, by search.

    With T_1 .. T_m a basis of the intertwiners, an invertible one exists
    iff det(sum x_i T_i) takes a nonzero value on F^m.  A nonzero
    determinant of degree d < q does, since no variable reaches degree q;
    otherwise all q^m combinations are tried.
    """
    if rep1.source is not rep2.source or rep1.field != rep2.field or rep1.dim != rep2.dim:
        return False
    if rep1.images == rep2.images:
        return True
    F, d = rep1.field, rep1.dim
    basis = intertwiner_basis(F, rep1.images, rep2.images, d)
    if not basis:
        return False
    names = tuple(f"x{i}" for i in range(len(basis)))
    entries = [MPoly.linear(F, names, [B.data[c] for B in basis]) for c in range(d * d)]
    detp = symbolic_det(F, names, entries, d)
    if detp.is_zero():
        return False
    if d < F.q:
        return True
    return any(detp.evaluate(dict(zip(names, coeffs)))
               for coeffs in product(range(F.q), repeat=len(basis)))


def field_sum_and_product(F, a, b):
    """a + b and a * b in F for codes a and b: the coefficientwise sum and
    the product of polynomials modulo F's modulus."""
    p, ca, cb = F.p, F.coeffs(a), F.coeffs(b)
    s = F._encode([(x + y) % p for x, y in zip(ca, cb)])
    m = F._encode(_poly_mul_mod(list(ca), list(cb), list(F.modulus), p)) if a and b else 0
    return s, m


def field_tables_by_pairs(F):
    """The add and mul tables of F, one unordered pair of codes at a time
    (field_sum_and_product)."""
    q = F.q
    add = [0] * (q * q)
    mul = [0] * (q * q)
    for a in range(q):
        for b in range(a, q):
            add[a * q + b], mul[a * q + b] = add[b * q + a], mul[b * q + a] = \
                field_sum_and_product(F, a, b)
    return add, mul
