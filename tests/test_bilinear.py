"""Decomposition model: verify, compose, brute force, cost table."""

import random

import pytest

from ccma.errors import FieldMismatch, VerificationError
from ccma.gf import FieldSpec, field_extend
from ccma.bilinear import (
    BilinearAlgorithm,
    CostTable,
    brute_force_min_rank,
    compose_tower,
    compose_truncated,
    extension_target,
    karatsuba,
    schoolbook,
    truncated_order2,
    truncated_order3,
    truncated_target,
    verify,
    verify_or_raise,
)

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)


def test_karatsuba_matches_reference_matrices():
    target = extension_target(F2, 2)  # modulus x^2+x+1
    alg = karatsuba(target)
    assert alg.A == [[1, 0], [0, 1], [1, 1]]
    assert alg.B == alg.A
    assert alg.W == [[1, 1, 0], [1, 0, 1]]
    assert verify(alg)
    assert alg.symmetric


def test_corrupted_karatsuba_fails():
    target = extension_target(F2, 2)
    alg = karatsuba(target)
    alg.W[0][0] ^= 1
    assert not verify(alg)
    assert alg.failing_pair() is not None


def test_schoolbook_ranks():
    assert schoolbook(extension_target(F2, 2)).N == 4
    alg8 = schoolbook(extension_target(F2, 3))
    assert alg8.N == 9 and verify(alg8)
    trunc = schoolbook(truncated_target(F2, 1, 2))
    assert trunc.N == 4 and verify(trunc)
    assert not alg8.symmetric


def test_truncated_formulas_over_several_fields():
    for spec in (F2, F3, F4, FieldSpec.get(5)):
        t2 = truncated_order2(truncated_target(spec, 1, 2))
        assert t2.N == 3 and verify(t2) and t2.symmetric
        t3 = truncated_order3(truncated_target(spec, 1, 3))
        assert t3.N == 5 and verify(t3) and t3.symmetric


def test_compose_tower_karatsuba_squared():
    outer = karatsuba(extension_target(F2, 2))
    inner = karatsuba(extension_target(F4, 2))
    alg = compose_tower(outer, inner)
    assert alg.N == 9
    assert alg.target.kind == "extension" and alg.target.n == 4
    assert verify(alg)
    assert alg.symmetric


def test_compose_tower_base_mismatch():
    outer = karatsuba(extension_target(F2, 2))
    inner = karatsuba(extension_target(F3, 2))
    with pytest.raises(FieldMismatch):
        compose_tower(outer, inner)


def test_compose_rank_multiplicativity_random():
    rng = random.Random(17)
    table2 = CostTable(F2)
    table3 = CostTable(F3)
    cases = []
    for base, table in ((F2, table2), (F3, table3)):
        for m in (2, 3):
            for n in (2, 3):
                if base.q ** (m * n) <= 3 ** 6:
                    cases.append((base, table, m, n))
    for base, table, m, n in cases:
        outer = table.get(m, 1)
        big = field_extend(base, m)
        inner = CostTable(big).get(n, 1)
        alg = compose_tower(outer, inner)
        assert alg.N == outer.N * inner.N
        assert verify(alg)
        if outer.symmetric and inner.symmetric:
            assert alg.symmetric


def test_compose_truncated_examples():
    table = CostTable(F2)
    alg = table.get(2, 2)
    assert alg.N == 9  # karatsuba times order-2 formula
    assert verify(alg)
    assert table.get(1, 3).N == 5
    assert table.get(1, 2).N == 3
    assert table.get(2, 1).N == 3


def test_compose_truncated_direct():
    outer = karatsuba(extension_target(F2, 2))
    big = field_extend(F2, 2)
    inner = truncated_order2(truncated_target(big, 1, 2))
    alg = compose_truncated(outer, inner)
    assert alg.N == 9
    assert alg.target.kind == "truncated"
    assert alg.target.m == 2 and alg.target.ell == 2
    assert verify(alg) and alg.symmetric


def test_brute_force_f4_over_f2():
    target = extension_target(F2, 2)
    out = brute_force_min_rank(target, 3)
    assert out.rank == 3
    assert verify(out.algorithm)
    out2 = brute_force_min_rank(target, 2)
    assert out2.exceeded


def test_brute_force_trivial():
    target = extension_target(F2, 1)
    out = brute_force_min_rank(target, 1)
    assert out.rank == 1


def test_brute_force_symmetric_f8_exceeds_five():
    target = extension_target(F2, 3)
    out = brute_force_min_rank(target, 5, symmetric_only=True)
    assert out.exceeded


def test_brute_force_symmetric_f8_reaches_six():
    target = extension_target(F2, 3)
    out = brute_force_min_rank(target, 6, symmetric_only=True)
    assert out.rank == 6
    assert out.algorithm.symmetric and verify(out.algorithm)


def test_brute_force_asymmetric_f8_is_six():
    # 49 projective pairs: 49^6 combinations, above the default guard limit
    target = extension_target(F2, 3)
    assert brute_force_min_rank(target, 5, limit=49**6).exceeded
    out = brute_force_min_rank(target, 6, limit=49**6)
    assert out.rank == 6
    assert verify(out.algorithm)


def test_brute_force_truncated_order3():
    target = truncated_target(F2, 1, 3)
    out = brute_force_min_rank(target, 5, symmetric_only=True)
    assert out.rank == 5


def test_serialization_roundtrip_bit_exact():
    table = CostTable(F4)
    alg = table.get(2, 1)
    data = alg.to_json()
    back = BilinearAlgorithm.from_json(data)
    assert back.to_json() == data
    assert back.A == alg.A and back.B == alg.B and back.W == alg.W
    assert verify(back)


def test_winograd_floor_gate():
    target = extension_target(F2, 2)
    alg = karatsuba(target)
    # fabricate an impossible rank-2 "algorithm"; the gate must reject it
    fake = BilinearAlgorithm(target, alg.A[:2], alg.B[:2], [r[:2] for r in alg.W])
    with pytest.raises(VerificationError):
        verify_or_raise(fake)


def test_cost_table_load_check_fails_on_corruption():
    table = CostTable(F2)
    table.get(2, 1)
    entry = table._entries[(2, 1)]
    entry.W[0][0] ^= 1
    with pytest.raises(VerificationError):
        table.load_check()
    # a corrupted subtable entry is reached from the root table
    table = CostTable(F2)
    table.get(4, 1)
    assert table.load_check()
    table.subtable(F4)._entries[(2, 1)].W[0][0] ^= 1
    with pytest.raises(VerificationError):
        table.load_check()


def test_cost_table_subtables_share_one_registry():
    table = CostTable(F2)
    F16 = field_extend(F2, 4)
    assert table.subtable(F2) is table
    assert table.subtable(F16) is table.subtable(F4).subtable(F16)
    assert table.subtable(F4).subtable(F2) is table


def test_mutated_algorithms_fail_random_pairs():
    rng = random.Random(23)
    table = CostTable(F2)
    base_alg = table.get(3, 1)
    dim = base_alg.target.dim
    for trial in range(10):
        alg = BilinearAlgorithm(
            base_alg.target,
            [r[:] for r in base_alg.A],
            [r[:] for r in base_alg.B],
            [r[:] for r in base_alg.W],
        )
        which = rng.choice(("A", "B", "W"))
        mat = getattr(alg, which)
        i = rng.randrange(len(mat))
        j = rng.randrange(len(mat[0]))
        mat[i][j] = F2.add(mat[i][j], 1)
        assert not verify(alg)
        found_bad_pair = False
        for _ in range(500):
            x = [rng.randrange(2) for _ in range(dim)]
            y = [rng.randrange(2) for _ in range(dim)]
            if alg.apply(x, y) != alg.target.mul_coords(x, y):
                found_bad_pair = True
                break
        assert found_bad_pair


def test_verified_algorithm_agrees_on_random_pairs():
    rng = random.Random(29)
    table = CostTable(F3)
    alg = table.get(3, 1)
    dim = alg.target.dim
    for _ in range(500):
        x = [rng.randrange(3) for _ in range(dim)]
        y = [rng.randrange(3) for _ in range(dim)]
        assert alg.apply(x, y) == alg.target.mul_coords(x, y)


def test_compose_truncated_identity_outer():
    # trivial one-dimensional outer algorithm, order-3 inner: rank stays 5
    table = CostTable(F2)
    outer = table.get(1, 1)
    big = field_extend(F2, 1)
    inner = truncated_order3(truncated_target(big, 1, 3))
    alg = compose_truncated(outer, inner)
    assert alg.N == 5
    assert alg.target.kind == "truncated" and alg.target.ell == 3
    assert verify(alg) and alg.symmetric


def test_compose_tower_trivial_outer_keeps_rank():
    table = CostTable(F3)
    outer = table.get(1, 1)
    inner = CostTable(field_extend(F3, 1)).get(2, 1)
    alg = compose_tower(outer, inner)
    assert alg.N == inner.N == 3
    assert verify(alg)


def test_every_cost_table_candidate_verifies():
    # only the winning candidate is verified at run time (when it enters
    # the table), so the losers of the small tables are checked here
    for spec in (F2, F3, F4):
        table = CostTable(spec)
        for d in range(1, 7):
            for u in range(1, 6 // d + 1):
                cands = list(table._candidates(d, u))
                assert cands, (spec, d, u)
                for cand in cands:
                    assert verify(cand), (spec, d, u, cand.meta.get("method"))
