"""Sparse multivariate polynomials over a finite field.

Terms are stored as a dict mapping exponent tuples to nonzero coefficient
codes.  The canonical term order used for printing and serialization is
graded lexicographic (total degree first, then lex on the exponent vector).

Every product (``*``, ``**``, ``substitute``, ``symbolic_det``) runs through
one kernel, ``_mul_terms``, on packed keys: an exponent tuple becomes an int
with one byte per variable (``int.from_bytes(bytes(e), "little")``), so
multiplying two monomials is a single integer add and each coefficient is
one field table read.  A product whose exponent of some variable could reach
256 (its factors' largest exponents of that variable sum past 255) raises
SizeCapExceeded before it is computed; a law of degree d has none past d.
"""

from itertools import permutations, repeat
from operator import add as _add_ints

from .errors import SizeCapExceeded, VariableMismatch
from .fields import embed_code
from .linalg import _perm_sign

PACK_LIMIT = 256  # exponents must stay below this to fit one byte each


def _pack(terms, nv):
    """A packed copy of a term dict and the largest exponent of each of its
    nv variables.  Raises SizeCapExceeded on an exponent that does not fit a
    byte."""
    try:
        keys = list(map(int.from_bytes, map(bytes, terms), repeat("little")))
    except ValueError:  # bytes() rejects values outside 0..255
        raise SizeCapExceeded(f"exponents must stay below {PACK_LIMIT}") from None
    top = next(iter(terms), (0,) * nv) if len(terms) < 2 else tuple(map(max, zip(*terms)))
    return dict(zip(keys, terms.values())), top


def _fits(reach):
    """Raise SizeCapExceeded unless each of a product's exponent bounds, one
    per variable, fits a byte."""
    top = max(reach, default=0)
    if top >= PACK_LIMIT:
        raise SizeCapExceeded(f"a product's exponent can reach {top}, past {PACK_LIMIT - 1}")


def _unpack(packed, nv):
    keys = map(tuple, map(int.to_bytes, packed, repeat(nv), repeat("little")))
    return dict(zip(keys, packed.values()))


def _mul_terms(F, a, b):
    """The product of two packed term dicts over F, read from F's tables.
    Pairs are visited in (a, b) order and a cancelled key is deleted, so
    later hits re-insert it at the end."""
    out = {}
    get = out.get
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


def _pow_terms(F, terms, n):
    """terms ** n for n >= 1 by binary powering through _mul_terms; squares
    only while higher bits remain, so 2**k costs k squarings."""
    result = None
    while True:
        if n & 1:
            # 1 * terms == terms, so the first factor is taken as is
            result = terms if result is None else _mul_terms(F, result, terms)
        n >>= 1
        if not n:
            return result
        terms = _mul_terms(F, terms, terms)


def _add_into(F, out, items):
    """Add (key, code) pairs into the term dict ``out`` in place."""
    get = out.get
    tab, q = F._add, F.q
    for k, c in items:
        prev = get(k)
        if prev is None:
            out[k] = c
            continue
        s = tab[prev * q + c]
        if s:
            out[k] = s
        else:
            del out[k]


def _substitute_terms(poly, images):
    """The terms of ``poly.substitute(images)`` as the kernel leaves them,
    packed over the images' variables."""
    some = next(iter(images.values()))
    tf, tv = some.field, some.vars
    nv = len(tv)
    used = {}  # name -> (packed image, its largest exponents)
    pow_cache = {}
    out = {}
    for e, c in poly.terms.items():
        term, reach = {0: embed_code(poly.field, tf, c)}, (0,) * nv
        for name, exp in zip(poly.vars, e):
            if not exp:
                continue
            got = used.get(name)
            if got is None:
                img = images.get(name)
                if img is None:
                    raise VariableMismatch(f"no image for variable {name}")
                if img.field != tf or img.vars != tv:
                    raise VariableMismatch(f"image of {name} is not over {tf}{tv}")
                got = used[name] = _pack(img.terms, nv)
            reach = [r + exp * t for r, t in zip(reach, got[1])]
            _fits(reach)
            p = pow_cache.get((name, exp))
            if p is None:
                p = pow_cache[name, exp] = _pow_terms(tf, got[0], exp)
            term = _mul_terms(tf, term, p)
        _add_into(tf, out, term.items())
    return out


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
        nv = len(self.vars)
        pa, top_a = _pack(self.terms, nv)
        pb, top_b = _pack(other.terms, nv)
        _fits(map(_add_ints, top_a, top_b))
        return MPoly(self.field, self.vars, _unpack(_mul_terms(self.field, pa, pb), nv))

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
        packed, top = _pack(self.terms, nv)
        _fits([n * t for t in top])
        return MPoly(F, self.vars, _unpack(_pow_terms(F, packed, n), nv))

    # --- structure ---

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, d):
        return all(sum(e) == d for e in self.terms)

    def substitute(self, images):
        """Ring-homomorphic substitution.

        ``images`` maps every variable name to an MPoly (all over a common
        field/variable set).  Missing variables with nonzero exponent raise
        VariableMismatch.
        """
        some = next(iter(images.values()))
        return MPoly(some.field, some.vars,
                     _unpack(_substitute_terms(self, images), len(some.vars)))

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
    the Leibniz formula, summed in permutation order.  Each Leibniz product
    takes one entry per row, so its exponent bound is the sum over rows of
    the row's largest exponents."""
    nv = len(names)
    pairs = [_pack(e.terms, nv) for e in entries]
    rows = (map(max, zip(*(top for _, top in pairs[i * d:(i + 1) * d]))) for i in range(d))
    _fits(map(sum, zip(*rows)))
    minus_one = field.neg(1)
    acc = {}
    for perm in permutations(range(d)):
        term = {0: 1}
        for i, j in enumerate(perm):
            term = _mul_terms(field, term, pairs[i * d + j][0])
            if not term:
                break
        if term:
            if _perm_sign(perm) < 0:
                term = {k: field.mul(c, minus_one) for k, c in term.items()}
            _add_into(field, acc, term.items())
    return MPoly(field, names, _unpack(acc, nv))
