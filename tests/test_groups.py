import pytest

from detlaw.errors import BadGroupTable
from detlaw.groups import (FiniteGroup, cyclic, dihedral, direct_product,
                           semidirect_cyclic_squared, symmetric, with_inertia)


def test_cyclic_structure():
    C6 = cyclic(6)
    assert C6.order == 6
    assert C6.element_order(1) == 6
    assert C6.element_order(2) == 3
    assert C6.element_order(3) == 2


def test_symmetric_3():
    S3 = symmetric(3)
    assert S3.order == 6
    orders = sorted(S3.element_order(g) for g in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_symmetric_4():
    S4 = symmetric(4)
    assert S4.order == 24
    from collections import Counter
    orders = Counter(S4.element_order(g) for g in range(24))
    assert orders == {1: 1, 2: 9, 3: 8, 4: 6}


def test_dihedral():
    D4 = dihedral(4)
    assert D4.order == 8
    from collections import Counter
    orders = Counter(D4.element_order(g) for g in range(8))
    assert orders == {1: 1, 2: 5, 4: 2}


def test_direct_product():
    G = direct_product(cyclic(2), cyclic(3))
    assert G.order == 6
    assert sorted(G.element_order(g) for g in range(6)) == [1, 2, 3, 3, 6, 6]


def test_semidirect_cyclic_squared():
    G = semidirect_cyclic_squared(5, 4, 2)
    assert G.order == 100
    # the C4 generator acts with order 4
    assert any(G.element_order(g) == 4 for g in range(G.order))


def test_group_axioms_validated():
    with pytest.raises(BadGroupTable):
        FiniteGroup([[0, 1], [1, 1]])  # not a Latin square group table


def test_bad_generators_rejected():
    C4 = cyclic(4)
    with pytest.raises(BadGroupTable):
        FiniteGroup(C4.table, generators=[2])  # generates only {0, 2}


def test_inertia_must_be_subgroup():
    S3 = symmetric(3)
    ok = with_inertia(S3, [0])
    assert ok.inertia == frozenset([0])
    with pytest.raises(BadGroupTable):
        with_inertia(S3, [0, 1, 2])  # three arbitrary elements


def test_inverse():
    S3 = symmetric(3)
    for g in range(6):
        assert S3.table[g][S3.inverse(g)] == S3.identity


# A Latin square with identity 0 that is not associative: a loop of order 5,
# the smallest order at which a loop need not be a group.
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _associative_n3(table):
    """Oracle: associativity on all n^3 triples."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


@pytest.mark.parametrize("generators", [None, [1, 2], [3, 4, 1]])
def test_light_test_rejects_a_loop(generators):
    assert not _associative_n3(LOOP5)
    with pytest.raises(BadGroupTable, match="associativity fails"):
        FiniteGroup(LOOP5, generators=generators)


@pytest.mark.parametrize("build", [
    lambda: cyclic(7), lambda: dihedral(5), lambda: symmetric(3),
    lambda: symmetric(4), lambda: direct_product(cyclic(3), symmetric(3)),
    lambda: semidirect_cyclic_squared(3, 2, 2)])
def test_light_test_agrees_with_the_n3_oracle(build):
    G = build()
    assert _associative_n3(G.table)
    FiniteGroup(G.table)  # Light's test also passes on the default generators
