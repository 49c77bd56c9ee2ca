"""Finite fields F_{p^k} with a fixed deterministic modulus.

Elements are encoded as integers ("codes") in [0, p^k): the code of the
element with coefficients (c_0, ..., c_{k-1}) is sum(c_i * p^i).  The modulus
for F_{p^k} is the first monic irreducible polynomial of degree k when the
non-leading coefficient vectors are enumerated in base-p counting order, so
the same (p, k) always yields the identical field.

Every field answers the same table reads: ``_add[a * q + b]``,
``_mul[a * q + b]``, ``_neg[a]`` and ``_inv[a]``.  For q <= TABLE_CAP (256)
they are stored lists; above it each read computes its value from the
coefficient vectors, so q^2 entries are never stored.  All hot loops in the
rest of the package run on codes through these reads, whichever kind the
field has.
"""

from functools import lru_cache
from itertools import compress

from .errors import NoEmbedding, NotPrime, SizeCapExceeded

SIZE_CAP = 1 << 16
TABLE_CAP = 256


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod(a, b, modulus, p):
    # a, b, modulus: coefficient lists (low degree first); modulus monic deg k.
    k = len(modulus)
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, k - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(k):
                res[i - k + j] = (res[i - k + j] - c * modulus[j]) % p
    return res[:k] + [0] * (k - len(res))


def _is_irreducible(coeffs, k, p):
    """Trial division of x^k + sum coeffs[i] x^i by all monic polys of degree <= k//2."""
    if k == 1:
        return True
    full = list(coeffs) + [1]

    def divides(div):
        # polynomial remainder of full by monic div
        rem = list(full)
        dd = len(div) - 1
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                for j in range(len(div)):
                    rem[i - dd + j] = (rem[i - dd + j] - c * div[j]) % p
        return all(c == 0 for c in rem[:dd])

    for deg in range(1, k // 2 + 1):
        for n in range(p ** deg):
            div = []
            m = n
            for _ in range(deg):
                div.append(m % p)
                m //= p
            div.append(1)
            if divides(div):
                return False
    return True


def _modulus_for(p, k):
    if k == 1:
        return (0,)
    for n in range(p ** k):
        coeffs = []
        m = n
        for _ in range(k):
            coeffs.append(m % p)
            m //= p
        if _is_irreducible(coeffs, k, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class _ComputedTable:
    """A table whose item i is fn(i), computed when read."""

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, i):
        return self.fn(i)


class FieldDesc:
    """The finite field F_{p^k}.  Immutable; canonical per (p, k)."""

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.q = q = p ** k
        self.modulus = _modulus_for(p, k)
        self._coeffs = [self._decode(c) for c in range(q)]
        if q <= TABLE_CAP:
            self._build_tables()
        else:
            self._add = _ComputedTable(lambda i: self._sum(*divmod(i, q)))
            self._mul = _ComputedTable(lambda i: self._product(*divmod(i, q)))
            self._neg = _ComputedTable(lambda a: self._product(p - 1, a))
            self._inv = _ComputedTable(lambda a: self.pow(a, q - 2))

    def _decode(self, code):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def _encode(self, coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (c % self.p)
        return code

    def _build_tables(self):
        """Addition digit by digit, multiplication and inverses from the
        discrete logarithms to the least primitive element."""
        q, p = self.q, self.p
        add, m = [0], 1  # the table on the codes below m = p^j
        while m < q:
            wide = []
            for ah in range(p):  # codes a = al + m ah below m p, in order
                highs = [m * ((ah + bh) % p) for bh in range(p)]
                for al in range(m):
                    low = add[al * m:(al + 1) * m]
                    wide += [s + high for high in highs for s in low]
            add, m = wide, m * p
        powers = self._primitive_powers()
        log = [0] * q
        for i, c in enumerate(powers):
            log[c] = i
        logs = log[1:]
        twice = powers + powers
        mul = [0] * q
        for la in logs:
            mul.append(0)
            mul += [twice[la + lb] for lb in logs]
        self._add = add
        self._mul = mul
        self._neg = mul[(p - 1) * q:p * q]  # -a = (p - 1) a
        self._inv = [0] + [powers[-la] for la in logs]

    def _primitive_powers(self):
        """[1, g, g^2, ..., g^(q-2)] for the least code g of multiplicative
        order q - 1, by polynomial multiplication modulo the modulus."""
        p, modulus = self.p, list(self.modulus)
        for g in range(1, self.q):
            factor, powers, x = list(self._coeffs[g]), [1], g
            while x != 1:
                powers.append(x)
                x = self._encode(_poly_mul_mod(list(self._coeffs[x]), factor, modulus, p))
            if len(powers) == self.q - 1:
                return powers
        raise AssertionError("no primitive element")  # unreachable: F* is cyclic

    # --- code-level arithmetic ---

    def _sum(self, a, b):
        p = self.p
        return self._encode([(x + y) % p for x, y in zip(self._coeffs[a], self._coeffs[b])])

    def _product(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._encode(
            _poly_mul_mod(list(self._coeffs[a]), list(self._coeffs[b]), list(self.modulus), self.p)
        )

    def add(self, a, b):
        return self._add[a * self.q + b]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a * self.q + b]

    def sub_mul_row(self, row, f, b):
        """The row of codes ``row - f * b``, as a list."""
        # only the entries where b is nonzero change; rows here are mostly sparse
        q, add, mul = self.q, self._add, self._mul
        start = self._neg[f] * q
        out = list(row)
        for i in compress(range(len(b)), b):
            out[i] = add[out[i] * q + mul[start + b[i]]]
        return out

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def pow(self, a, e):
        if a == 0:
            return 0 if e else 1
        e %= self.q - 1
        r = 1
        b = a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def coeffs(self, code):
        return self._coeffs[code]

    def format_code(self, code):
        """A code as printed: the integer over a prime field, else the
        coefficient list, e.g. ``[1,0]``."""
        if self.k == 1:
            return str(code)
        return f"[{','.join(map(str, self._coeffs[code]))}]"

    def coerce(self, value):
        """Turn an int into a code.  In-range ints are codes; out-of-range
        ints are taken mod p (the image of Z -> F)."""
        v = int(value)
        return v if 0 <= v < self.q else v % self.p

    def __eq__(self, other):
        return isinstance(other, FieldDesc) and self.p == other.p and self.k == other.k

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"F_{self.p}^{self.k}" if self.k > 1 else f"F_{self.p}"


@lru_cache(maxsize=None)
def make_field(p, k=1):
    """Return the canonical FieldDesc for F_{p^k}."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise SizeCapExceeded(f"extension degree must be >= 1, got {k}")
    if p ** k > SIZE_CAP:
        raise SizeCapExceeded(f"p^k = {p ** k} exceeds cap {SIZE_CAP}")
    return FieldDesc(p, k)


@lru_cache(maxsize=None)
def embedding_table(p, k, k2):
    """Code table for the canonical embedding F_{p^k} -> F_{p^k2} (k | k2).

    The generator of F_{p^k} is sent to the smallest root (by code) of its
    modulus in the target field.
    """
    if k2 % k != 0:
        raise NoEmbedding(f"no embedding F_{p}^{k} -> F_{p}^{k2}")
    src = make_field(p, k)
    dst = make_field(p, k2)
    if k == 1:
        return tuple(c for c in range(p))
    mod = src.modulus  # x^k + sum mod[i] x^i
    root = None
    for cand in range(dst.q):
        acc = dst.pow(cand, k)
        po = 1
        for c in mod:
            if c:
                acc = dst.add(acc, dst.mul(c % p, po))
            po = dst.mul(po, cand)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise NoEmbedding(f"modulus of F_{p}^{k} has no root in F_{p}^{k2}")
    table = []
    for code in range(src.q):
        acc = 0
        po = 1
        for c in src.coeffs(code):
            if c:
                acc = dst.add(acc, dst.mul(c, po))
            po = dst.mul(po, root)
        table.append(acc)
    return tuple(table)


def embed_code(field, target, code):
    if field == target:
        return code
    if field.p != target.p or target.k % field.k != 0:
        raise NoEmbedding(f"cannot embed {field} into {target}")
    return embedding_table(field.p, field.k, target.k)[code]
