import pytest

from detlaw.errors import NoEmbedding, NotPrime
from detlaw.fields import TABLE_CAP, embed_code, embedding_table, is_prime, make_field
from oracles import field_sum_and_product, field_tables_by_pairs


def test_prime_field_arithmetic():
    F = make_field(7)
    assert F.q == 7
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1


def test_extension_field_axioms():
    for p, k in [(2, 2), (3, 2), (5, 2), (2, 3)]:
        F = make_field(p, k)
        q = F.q
        # field axioms by exhaustion
        for a in range(q):
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert F.mul(a, b) == F.mul(b, a)
                for c in range(q):
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def _tabled_fields():
    """(p, k) for every field with tables: all q = p^k <= TABLE_CAP."""
    out = []
    for p in filter(is_prime, range(2, TABLE_CAP + 1)):
        k = 1
        while p ** k <= TABLE_CAP:
            out.append((p, k))
            k += 1
    return out


@pytest.mark.parametrize("p, k", _tabled_fields(), ids=lambda v: str(v))
def test_tables_match_the_pairwise_construction(p, k):
    # the log-table products and digitwise sums equal polynomial arithmetic
    # modulo the modulus on every pair; inverses and negatives agree with them
    F = make_field(p, k)
    assert (F._add, F._mul) == field_tables_by_pairs(F)
    q = F.q
    assert all(F._mul[a * q + F._inv[a]] == 1 for a in range(1, q))
    assert all(F._add[a * q + F._neg[a]] == 0 for a in range(q))


@pytest.mark.parametrize("p, k", [(257, 1), (17, 2), (5, 4)], ids=str)
def test_computed_tables_match_the_pairwise_construction(p, k):
    # above the table cap every read computes its item: sums and products
    # of sampled codes agree with polynomial arithmetic, and negatives and
    # inverses with them
    F = make_field(p, k)
    q = F.q
    assert q > TABLE_CAP
    codes = sorted({0, 1, q - 1, *range(2, q, q // 40)})
    for a in codes:
        for b in codes:
            assert (F._add[a * q + b], F._mul[a * q + b]) == field_sum_and_product(F, a, b)
        assert F._add[a * q + F._neg[a]] == 0
        assert a == 0 or F._mul[a * q + F._inv[a]] == 1


def test_multiplicative_group_order():
    F = make_field(5, 2)
    for a in range(1, F.q):
        assert F.pow(a, F.q - 1) == 1
    # some element generates the full group
    orders = set()
    for a in range(1, F.q):
        n = 1
        x = a
        while x != 1:
            x = F.mul(x, a)
            n += 1
        orders.add(n)
    assert max(orders) == F.q - 1


def test_pow_zero_cases():
    F = make_field(3, 2)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    assert F.pow(4, 0) == 1


def test_coerce():
    F = make_field(5, 2)
    assert F.coerce(7) == 7          # in-range values are codes
    assert F.coerce(-1) == 4         # out of range reduces mod p
    assert F.coerce(25) == 0


def test_format_code():
    # prime fields print the integer, extensions the coefficient list
    assert make_field(7).format_code(5) == "5"
    F = make_field(5, 2)
    assert F.format_code(0) == "[0,0]"
    assert F.format_code(7) == "[2,1]"
    assert F.format_code(F.coerce(-1)) == "[4,0]"


def test_embedding_is_ring_homomorphism():
    F, E = make_field(3), make_field(3, 2)
    t = embedding_table(3, 1, 2)
    for a in range(3):
        for b in range(3):
            assert t[F.add(a, b)] == E.add(t[a], t[b])
            assert t[F.mul(a, b)] == E.mul(t[a], t[b])


def test_embedding_tower_f5_to_f25():
    F, E = make_field(5), make_field(5, 2)
    for a in range(5):
        c = embed_code(F, E, a)
        # images of prime-field elements satisfy x^5 = x
        assert E.pow(c, 5) == c


def test_embedding_composes():
    # F_2 -> F_4 -> F_16 agrees with F_2 -> F_16
    t12 = embedding_table(2, 1, 2)
    t24 = embedding_table(2, 2, 4)
    t14 = embedding_table(2, 1, 4)
    for a in range(2):
        assert t24[t12[a]] == t14[a]


def test_no_embedding_between_incomparable_degrees():
    with pytest.raises(NoEmbedding):
        embedding_table(2, 2, 3)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        make_field(6)


def test_make_field_cached():
    assert make_field(5, 2) is make_field(5, 2)


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (257, 1)])
def test_sub_mul_row_matches_entrywise(p, k):
    import random

    F = make_field(p, k)
    rng = random.Random(p + k)
    for density in (0.0, 0.2, 1.0):
        row = [rng.randrange(F.q) for _ in range(30)]
        b = [rng.randrange(1, F.q) if rng.random() < density else 0 for _ in range(30)]
        for f in (0, 1, F.q - 1, rng.randrange(F.q)):
            want = [F.sub(x, F.mul(f, y)) for x, y in zip(row, b)]
            assert F.sub_mul_row(row, f, b) == want
