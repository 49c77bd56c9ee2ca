"""Finite groups given by multiplication tables, plus standard constructors."""

from itertools import permutations

from .errors import BadGroupTable, SchemaError, SizeCapExceeded

ORDER_CAP = 1000  # largest order the constructors build (C_1000: about 0.5 s)


class FiniteGroup:
    """A finite group: element indices 0..n-1, full multiplication table.

    ``generators`` is a distinguished generating list of indices;
    ``inertia`` an optional distinguished subgroup (element index set).
    """

    def __init__(self, table, generators=None, inertia=None, name=None):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name or f"G{self.order}"
        self._validate()
        self.identity = self._find_identity()
        if generators is None:
            generators = self._default_generators()
        self.generators = tuple(generators)
        if not self._generates(self.generators):
            raise BadGroupTable("given generators do not generate the group")
        self._check_associative()
        self.inertia = frozenset(inertia) if inertia is not None else None
        if self.inertia is not None and not self._is_subgroup(self.inertia):
            raise BadGroupTable("inertia set is not a subgroup")

    def _validate(self):
        n = self.order
        for row in self.table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise BadGroupTable("table rows must be permutations of 0..n-1")
        for col in range(n):
            if sorted(self.table[r][col] for r in range(n)) != list(range(n)):
                raise BadGroupTable("table columns must be permutations of 0..n-1")

    def _check_associative(self):
        """Light's test: (a g) c = a (g c) for every generator g and all a, c.
        The elements g that pass hold the identity and are closed under
        products, so once the generators pass, every element does."""
        t = self.table
        for g in self.generators:
            tg = t[g]
            for a, row in enumerate(t):
                ag = t[row[g]]
                if ag != tuple(map(row.__getitem__, tg)):
                    c = next(c for c in range(self.order) if ag[c] != row[tg[c]])
                    raise BadGroupTable(f"associativity fails at ({a},{g},{c})")

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise BadGroupTable("no identity element")

    def _default_generators(self):
        gens = []
        reached = {self.identity}
        for x in range(self.order):
            if x not in reached:
                gens.append(x)
                reached = self._closure(gens)
                if len(reached) == self.order:
                    break
        return gens

    def _closure(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.table[a][g]
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return seen

    def _generates(self, gens):
        return len(self._closure(gens)) == self.order

    def _is_subgroup(self, elems):
        return self.identity in elems and all(
            self.table[a][b] in elems for a in elems for b in elems
        )

    def inverse(self, a):
        return self.table[a].index(self.identity)

    def element_order(self, a):
        x = a
        n = 1
        while x != self.identity:
            x = self.table[x][a]
            n += 1
        return n

    def __repr__(self):
        return f"{self.name}(order={self.order})"


def _check_order(name, order, *params):
    """SchemaError for a parameter below 1, SizeCapExceeded past ORDER_CAP."""
    if min(params, default=1) < 1:
        raise SchemaError(f"{name} needs parameters of at least 1, got "
                          + ", ".join(map(str, params)))
    if order > ORDER_CAP:
        raise SizeCapExceeded(f"{name} has order {order}, past the cap {ORDER_CAP}")


def cyclic(n):
    _check_order("C_n", n, n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, generators=[1 % n], name=f"C{n}")


def _from_elements(elems, op, generators, name):
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[op(a, b)] for b in elems] for a in elems]
    gens = [index[g] for g in generators]
    return FiniteGroup(table, generators=gens, name=name)


def dihedral(n):
    """D_n of order 2n: pairs (rotation, flip)."""
    _check_order("D_n", 2 * n, n)
    elems = [(r, f) for f in (0, 1) for r in range(n)]

    def op(a, b):
        r1, f1 = a
        r2, f2 = b
        if f1 == 0:
            return ((r1 + r2) % n, f2)
        return ((r1 - r2) % n, 1 - f2)

    return _from_elements(elems, op, [(1 % n, 0), (0, 1)], f"D{n}")


def symmetric(n):
    if n > 4:
        raise SizeCapExceeded(f"symmetric groups are built up to S4, got S{n}")
    elems = sorted(permutations(range(n)))

    def op(a, b):
        return tuple(a[b[i]] for i in range(n))

    gens = []
    if n >= 2:
        swap = tuple([1, 0] + list(range(2, n)))
        cyc = tuple(list(range(1, n)) + [0])
        gens = [swap, cyc] if n >= 3 else [swap]
    return _from_elements(elems, op, gens, f"S{n}")


def direct_product(g1, g2, name=None):
    _check_order("a direct product", g1.order * g2.order)
    elems = [(a, b) for a in range(g1.order) for b in range(g2.order)]

    def op(x, y):
        return (g1.table[x[0]][y[0]], g2.table[x[1]][y[1]])

    gens = [(g, g2.identity) for g in g1.generators] + [(g1.identity, g) for g in g2.generators]
    return _from_elements(elems, op, gens, name or f"{g1.name}x{g2.name}")


def semidirect_cyclic_squared(p, m, alpha):
    """(C_p x C_p) semidirect C_m, the C_m generator acting by x -> x^alpha.

    Elements are (a, b, s) with s in C_m acting diagonally by alpha^s.
    """
    _check_order("(C_p x C_p):C_m", p * p * m, p, m)
    elems = [(a, b, s) for s in range(m) for a in range(p) for b in range(p)]

    def op(x, y):
        a1, b1, s1 = x
        a2, b2, s2 = y
        t = pow(alpha, s1, p)
        return ((a1 + t * a2) % p, (b1 + t * b2) % p, (s1 + s2) % m)

    gens = [(1 % p, 0, 0), (0, 1 % p, 0), (0, 0, 1 % m)]
    return _from_elements(elems, op, gens, f"(C{p}xC{p}):C{m}")


def with_inertia(group, inertia):
    """Copy of the group with a distinguished inertia subgroup."""
    return FiniteGroup(group.table, generators=group.generators,
                       inertia=inertia, name=group.name)
