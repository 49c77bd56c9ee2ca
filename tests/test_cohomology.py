import pytest

from detlaw import cohomology
from detlaw.cohomology import (assemble_extension, ext1, ext_representatives,
                               fiber_stratify)
from detlaw.errors import InvariantViolation, NotMultiplicityFree, ShapeMismatch
from detlaw.fields import make_field
from detlaw.groups import (FiniteGroup, cyclic, dihedral, semidirect_cyclic_squared,
                           symmetric)
from detlaw.linalg import nullspace, proj_point_count, rref
from detlaw.moduli import orbit_partition
from detlaw.reps import (characters, invariant_subspace, irreducible_reps, isomorphic,
                         trivial_rep)

F3 = make_field(3)
F5 = make_field(5)


def test_ext1_cp_trivial_trivial():
    # H^1(C_p, F_p) = Hom(C_p, F_p) is one-dimensional
    C3 = cyclic(3)
    t = trivial_rep(C3, F3)
    space = ext1(C3, t, t)
    assert space.dim == 1


def test_ext1_vanishes_in_coprime_characteristic():
    C3 = cyclic(3)
    t = trivial_rep(C3, F5)
    assert ext1(C3, t, t).dim == 0
    S3 = symmetric(3)
    cs = characters(S3, F5)
    assert ext1(S3, cs[0], cs[1]).dim == 0


def test_ext1_s3_f3_characters():
    S3 = symmetric(3)
    cs = characters(S3, F3)
    triv = next(c for c in cs if all(m[0, 0] == 1 for m in c.images))
    sgn = next(c for c in cs if c is not triv)
    # both directions are one-dimensional: the cocycle lives on the 3-cycles
    assert ext1(S3, triv, sgn).dim == 1
    assert ext1(S3, sgn, triv).dim == 1


def test_cocycles_satisfy_the_relation():
    S3 = symmetric(3)
    cs = characters(S3, F3)
    space = ext1(S3, cs[0], cs[1])
    F = space.field
    for vec in space.z_basis:
        c = space.cocycle_matrices(vec)
        for g in range(6):
            for h in range(6):
                gh = S3.table[g][h]
                want = space.rep1.images[g] * c[h] + c[g] * space.rep2.images[h]
                assert c[gh] == want


def test_assembled_extension_is_a_representation():
    S3 = symmetric(3)
    cs = characters(S3, F3)
    triv = next(c for c in cs if all(m[0, 0] == 1 for m in c.images))
    sgn = next(c for c in cs if c is not triv)
    space = ext1(S3, triv, sgn)
    for vec in ext_representatives(space):
        rep = assemble_extension(space, vec)
        assert rep.check()
        # [[triv, c], [0, sgn]]: the cocycle sits in the top-right block
        for g, c in enumerate(space.cocycle_matrices(vec)):
            assert rep.images[g].data == (1, c[0, 0], 0, sgn.images[g][0, 0])
        # non-split: the only stable line is the sub
        rows = invariant_subspace(rep)
        assert rows is not None


def test_ext_representatives_projective_count():
    C3 = cyclic(3)
    t = trivial_rep(C3, F3)
    space = ext1(C3, t, t)
    reps = ext_representatives(space)
    assert len(reps) == proj_point_count(3, space.dim)


def _s3_f3_triv_sgn():
    S3 = symmetric(3)
    cs = characters(S3, F3)
    triv = next(c for c in cs if all(m[0, 0] == 1 for m in c.images))
    sgn = next(c for c in cs if c is not triv)
    return ext1(S3, triv, sgn)


def _d4_f2_trivial():
    # H^1(D4, F_2) = Hom(D4, F_2) is two-dimensional: three projective classes
    D4 = dihedral(4)
    t = trivial_rep(D4, make_field(2))
    return ext1(D4, t, t)


@pytest.mark.parametrize("build, dim", [(_d4_f2_trivial, 2), (_s3_f3_triv_sgn, 1)],
                         ids=["d4_f2_trivial", "s3_f3_coboundaries"])
def test_ext_representatives_one_per_class(build, dim):
    space = build()
    assert space.dim == dim
    reps = ext_representatives(space)
    assert len(reps) == proj_point_count(space.field.q, dim)
    nb = len(space.b_basis)
    for i, u in enumerate(reps):
        # u is no coboundary: it lies outside the span of B
        assert len(rref(space.field, list(space.b_basis) + [u])[0]) == nb + 1
        for v in reps[:i]:
            # distinct lines modulo B: u, v and B span a space of dim |B| + 2
            assert len(rref(space.field, list(space.b_basis) + [u, v])[0]) == nb + 2


def test_ext1_rejects_characters_over_different_fields():
    S3 = symmetric(3)
    with pytest.raises(ShapeMismatch):
        ext1(S3, characters(S3, F3)[0], characters(S3, F5)[0])


def test_fiber_stratify_s3_f3():
    S3 = symmetric(3)
    cs = characters(S3, F3)
    triv = next(c for c in cs if all(m[0, 0] == 1 for m in c.images))
    sgn = next(c for c in cs if c is not triv)
    report = orbit_partition(S3, 2, F3)
    strat = fiber_stratify(S3, sgn, triv, F3, orbit_report=report)
    assert strat.counts() == (1, 1, 1)
    assert strat.strata is not None
    ups, ss, downs = strat.strata
    assert len(ups) == 1 and len(ss) == 1 and len(downs) == 1


def test_fiber_stratify_count_check_carries_its_witness(monkeypatch):
    S3 = symmetric(3)
    cs = characters(S3, F3)
    report = orbit_partition(S3, 2, F3)
    monkeypatch.setattr(cohomology, "proj_point_count", lambda q, m: 2)
    with pytest.raises(InvariantViolation) as info:
        fiber_stratify(S3, cs[0], cs[1], F3, orbit_report=report)
    assert info.value.witness == ((1, 1, 1), (2, 1, 2))


def test_fiber_stratify_rejects_equal_characters():
    S3 = symmetric(3)
    cs = characters(S3, F3)
    with pytest.raises(NotMultiplicityFree):
        fiber_stratify(S3, cs[0], cs[0], F3)


def test_designated_instance_p_plus_2():
    # (C5 x C5) : C4 over F5 with the action character: Ext dims (2, 0),
    # so the fiber is P^1(F_5) + point: 7 = p + 2 orbits
    G = semidirect_cyclic_squared(5, 4, 2)
    F = F5
    cs = characters(G, F)
    triv = next(c for c in cs if all(m[0, 0] == 1 for m in c.images))
    chi = next(c for c in cs
               if ext1(G, c, triv).dim == 2)
    strat = fiber_stratify(G, chi, triv, F)
    assert strat.m_up == 2 and strat.m_down == 0
    assert strat.counts() == (6, 1, 0)
    assert strat.total() == 5 + 2


# --- the generator equations against the all-pairs system ---

def _z_basis_all_pairs(group, rep1, rep2):
    """The RREF cocycle basis with c(gh) = rho1(g) c(h) + c(g) rho2(h)
    imposed on every pair (g, h) and c(1) = 0."""
    F = rep1.field
    n = group.order
    d1, d2 = rep1.dim, rep2.dim
    block = d1 * d2
    nvars = n * block
    rows = []
    for g in range(n):
        for h in range(n):
            gh = group.table[g][h]
            for i in range(d1):
                for j in range(d2):
                    row = [0] * nvars
                    row[gh * block + i * d2 + j] = 1
                    for k in range(d1):
                        col = h * block + k * d2 + j
                        row[col] = F.sub(row[col], rep1.images[g][i, k])
                    for k in range(d2):
                        col = g * block + i * d2 + k
                        row[col] = F.sub(row[col], rep2.images[h][k, j])
                    rows.append(tuple(row))
    e = group.identity
    for i in range(block):
        row = [0] * nvars
        row[e * block + i] = 1
        rows.append(tuple(row))
    return list(rref(F, nullspace(F, rows, nvars))[0])


def _irreducible_pairs():
    # the trivial group has no generators, so only c(1) = 0 pins its cocycles
    G1 = FiniteGroup([[0]])
    out = [pytest.param(G1, irreducible_reps(G1, F3, 2), id="trivial-F3")]
    for G in (cyclic(3), cyclic(4), symmetric(3), dihedral(4), dihedral(5), symmetric(4)):
        for q in (2, 3, 5, 7):
            irs = irreducible_reps(G, make_field(q), 2)
            out.append(pytest.param(G, irs, id=f"{G.name}-F{q}"))
    return out


@pytest.mark.parametrize("group, irs", _irreducible_pairs())
def test_ext1_generator_equations_match_all_pairs(group, irs):
    for rep1 in irs:
        for rep2 in irs:
            assert ext1(group, rep1, rep2).z_basis == _z_basis_all_pairs(group, rep1, rep2)
