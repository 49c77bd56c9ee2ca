"""Sparse multivariate polynomials over a finite field.

Terms are stored as a dict mapping exponent tuples to nonzero coefficient
codes.  The canonical term order used for printing and serialization is
graded lexicographic (total degree first, then lex on the exponent vector).

Every product (``*``, ``**``, ``substitute``) runs through one kernel,
``_mul_terms``.  When the field has add/mul tables (q <= 256) and no exponent
of the result can reach 256, exponent tuples are first packed into ints, one
byte per variable (``int.from_bytes(bytes(e), "little")``), so multiplying
two monomials is a single integer add and each coefficient is one table
lookup.  Otherwise, and for ``*`` on at most ``SMALL_PRODUCT`` term pairs,
where packing costs more than it saves, the kernel adds exponent tuples entry
by entry through the field's methods.  Both paths visit term pairs in the
same order and update the result dict the same way, so a result's terms, and
their insertion order, do not depend on the path.
"""

from functools import reduce
from itertools import permutations, repeat
from operator import add as _add_ints, or_

from .errors import VariableMismatch
from .fields import embed_code
from .linalg import _perm_sign

PACK_LIMIT = 256  # exponents must stay below this to fit one byte each
SMALL_PRODUCT = 16  # up to this many term pairs, packing costs more than it saves


def _pack(F, terms, nv):
    """A packed copy of a term dict and an upper bound on its exponents.

    Returns (None, PACK_LIMIT) when F has no tables or an exponent does not
    fit a byte.  The bound is the largest byte of the OR of all keys.
    """
    if F._mul is None:
        return None, PACK_LIMIT
    try:
        keys = list(map(int.from_bytes, map(bytes, terms), repeat("little")))
    except ValueError:  # bytes() rejects values >= 256
        return None, PACK_LIMIT
    top = max(reduce(or_, keys, 0).to_bytes(nv, "little"), default=0)
    return dict(zip(keys, terms.values())), top


def _unpack(packed, nv):
    keys = map(tuple, map(int.to_bytes, packed, repeat(nv), repeat("little")))
    return dict(zip(keys, packed.values()))


def _mul_terms(F, a, b, packed):
    """The product of two term dicts over F, as a new term dict.

    With ``packed`` the keys are packed ints and F has tables; otherwise
    they are exponent tuples.  Pairs are visited in (a, b) order and a
    cancelled key is deleted, so later hits re-insert it at the end.
    """
    out = {}
    get = out.get
    if packed:
        mul, add, q = F._mul, F._add, F.q
        b_items = list(b.items())
        for k1, c1 in a.items():
            row = c1 * q
            for k2, c2 in b_items:
                c = mul[row + c2]
                if not c:
                    continue
                k = k1 + k2
                prev = get(k)
                if prev is None:
                    out[k] = c
                else:
                    s = add[prev * q + c]
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return out
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            c = F.mul(c1, c2)
            if not c:
                continue
            e = tuple(map(_add_ints, e1, e2))
            prev = get(e)
            if prev is None:
                out[e] = c
            else:
                s = F.add(prev, c)
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _pow_terms(F, terms, n, packed):
    """terms ** n for n >= 1 by binary powering through _mul_terms.

    Squares only while higher bits remain, so 2**k costs k squarings.
    """
    result = None
    while True:
        if n & 1:
            # 1 * terms == terms, so the first factor is taken as is
            result = terms if result is None else _mul_terms(F, result, terms, packed)
        n >>= 1
        if not n:
            return result
        terms = _mul_terms(F, terms, terms, packed)


def _add_into(F, out, items):
    """Add (key, code) pairs into the term dict ``out`` in place."""
    get = out.get
    tab, q = F._add, F.q
    for k, c in items:
        prev = get(k)
        if prev is None:
            out[k] = c
            continue
        s = tab[prev * q + c] if tab is not None else F.add(prev, c)
        if s:
            out[k] = s
        else:
            del out[k]


def _substitute_terms(poly, images):
    """The terms of ``poly.substitute(images)`` as the kernel leaves them:
    (terms, packed), with packed-int keys over the images' variables when
    ``packed`` is true and exponent tuples otherwise."""
    some = next(iter(images.values()))
    tf, tv = some.field, some.vars
    nv = len(tv)
    used = {}  # name -> (packed image, its exponent bound)
    bound = 0  # the largest exponent any term's product can reach
    for e in poly.terms:
        reach = 0
        for name, exp in zip(poly.vars, e):
            if exp:
                got = used.get(name)
                if got is None:
                    img = images.get(name)
                    if img is None:
                        raise VariableMismatch(f"no image for variable {name}")
                    if img.field != tf or img.vars != tv:
                        raise VariableMismatch(f"image of {name} is not over {tf}{tv}")
                    got = used[name] = _pack(tf, img.terms, nv)
                reach += exp * got[1]
        bound = max(bound, reach)
    packed = tf._mul is not None and bound < PACK_LIMIT
    one = 0 if packed else (0,) * nv
    pow_cache = {}
    out = {}
    for e, c in poly.terms.items():
        term = {one: embed_code(poly.field, tf, c)}
        for name, exp in zip(poly.vars, e):
            if exp:
                p = pow_cache.get((name, exp))
                if p is None:
                    base = used[name][0] if packed else images[name].terms
                    p = pow_cache[name, exp] = _pow_terms(tf, base, exp, packed)
                term = _mul_terms(tf, term, p, packed)
        _add_into(tf, out, term.items())
    return out, packed


class MPoly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field, variables, terms=None):
        self.field = field
        self.vars = tuple(variables)
        self.terms = terms if terms is not None else {}

    # --- constructors ---

    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def const(cls, field, variables, value):
        code = field.coerce(value)
        nv = len(variables)
        if code == 0:
            return cls(field, variables, {})
        return cls(field, variables, {(0,) * nv: code})

    @classmethod
    def var(cls, field, variables, name):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(field, variables, {tuple(e): 1})

    @classmethod
    def linear(cls, field, variables, coeffs):
        """The linear form sum_k coeffs[k] * variables[k] (codes), its terms
        in k order."""
        nv = len(variables)
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                e = [0] * nv
                e[k] = 1
                terms[tuple(e)] = c
        return cls(field, variables, terms)

    @classmethod
    def from_terms(cls, field, variables, pairs):
        terms = {}
        _add_into(field, terms, ((e, c) for e, c in pairs if c))
        return cls(field, variables, terms)

    # --- helpers ---

    def _check(self, other):
        if self.field != other.field or self.vars != other.vars:
            raise VariableMismatch(
                f"operands disagree: {self.field}{self.vars} vs {other.field}{other.vars}"
            )

    def _coerce(self, other):
        if isinstance(other, MPoly):
            self._check(other)
            return other
        if isinstance(other, int):
            return MPoly.const(self.field, self.vars, other)
        return NotImplemented

    # --- ring operations ---

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        _add_into(self.field, terms, other.terms.items())
        return MPoly(self.field, self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return MPoly(F, self.vars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.coerce(other))
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        F = self.field
        a, b = self.terms, other.terms
        if len(a) * len(b) > SMALL_PRODUCT:
            nv = len(self.vars)
            pa, top_a = _pack(F, a, nv)
            pb, top_b = _pack(F, b, nv)
            if top_a + top_b < PACK_LIMIT:
                return MPoly(F, self.vars, _unpack(_mul_terms(F, pa, pb, True), nv))
        return MPoly(F, self.vars, _mul_terms(F, a, b, False))

    __rmul__ = __mul__

    def scale(self, code):
        if code == 0:
            return MPoly(self.field, self.vars, {})
        F = self.field
        return MPoly(F, self.vars, {e: F.mul(c, code) for e, c in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative int, got {n!r}")
        F = self.field
        if n == 0:
            return MPoly.const(F, self.vars, 1)
        nv = len(self.vars)
        packed, top = _pack(F, self.terms, nv)
        if n * top < PACK_LIMIT:
            return MPoly(F, self.vars, _unpack(_pow_terms(F, packed, n, True), nv))
        out = _pow_terms(F, self.terms, n, False)
        return MPoly(F, self.vars, dict(out) if out is self.terms else out)

    # --- structure ---

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, d):
        return all(sum(e) == d for e in self.terms)

    def coefficient(self, var, power):
        """The coefficient of var**power, as a polynomial in the same variables."""
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == power:
                e2 = e[:i] + (0,) + e[i + 1:]
                out[e2] = c
        return MPoly(self.field, self.vars, out)

    def constant_code(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def substitute(self, images):
        """Ring-homomorphic substitution.

        ``images`` maps every variable name to an MPoly (all over a common
        field/variable set).  Missing variables with nonzero exponent raise
        VariableMismatch.
        """
        some = next(iter(images.values()))
        terms, packed = _substitute_terms(self, images)
        return MPoly(some.field, some.vars,
                     _unpack(terms, len(some.vars)) if packed else terms)

    def evaluate(self, point):
        """Evaluate at a dict var -> code; returns a code."""
        F = self.field
        acc = 0
        for e, c in self.terms.items():
            t = c
            for name, exp in zip(self.vars, e):
                if exp:
                    t = F.mul(t, F.pow(point[name], exp))
                    if not t:
                        break
            acc = F.add(acc, t)
        return acc

    def map_field(self, target):
        """Coefficient-wise canonical embedding into an extension field."""
        if target == self.field:
            return self
        terms = {e: embed_code(self.field, target, c) for e, c in self.terms.items()}
        return MPoly(target, self.vars, terms)

    def sorted_terms(self):
        """Terms in descending graded-lex order: (exps, coeff code) pairs."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    # --- comparisons / display ---

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.field, self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.vars, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{n}^{x}" if x > 1 else n for n, x in zip(self.vars, e) if x
            )
            cs = self.field.format_code(c)
            if mono:
                bits.append(mono if c == 1 else f"{cs}*{mono}")
            else:
                bits.append(cs)
        return " + ".join(bits)


def symbolic_det(field, names, entries, d):
    """The determinant of a d x d matrix of MPoly entries (row-major), by
    the Leibniz formula, summed in permutation order.  Entries are packed once
    unless the field is untabled or the rows' exponent bounds sum past a byte."""
    nv = len(names)
    packed = field._mul is not None
    if packed:
        pairs = [_pack(field, e.terms, nv) for e in entries]
        reach = sum(max(top for _, top in pairs[i * d:(i + 1) * d]) for i in range(d))
        packed = reach < PACK_LIMIT
    terms = [p for p, _ in pairs] if packed else [e.terms for e in entries]
    one = 0 if packed else (0,) * nv
    minus_one = field.neg(1)
    acc = {}
    for perm in permutations(range(d)):
        term = {one: 1}
        for i, j in enumerate(perm):
            term = _mul_terms(field, term, terms[i * d + j], packed)
            if not term:
                break
        if term:
            if _perm_sign(perm) < 0:
                term = {k: field.mul(c, minus_one) for k, c in term.items()}
            _add_into(field, acc, term.items())
    return MPoly(field, names, _unpack(acc, nv) if packed else acc)
