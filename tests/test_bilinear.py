"""Decomposition model: verify, compose, brute force, cost table."""

import hashlib
import json
import random

import pytest

from ccma import linalg
from ccma.curves import CurveModel
from ccma.errors import FieldMismatch, MalformedPayload, VerificationError
from ccma.gf import FieldSpec, Poly, field_extend, is_irreducible
from ccma.bilinear import (
    STALE,
    Algebra,
    BilinearAlgorithm,
    CostTable,
    brute_force_min_rank,
    cheapest,
    compose_tower,
    compose_truncated,
    extension_target,
    karatsuba,
    schoolbook,
    truncated_order3,
    truncated_target,
    verify,
    verify_or_raise,
)
from ccma.planner import shipped_instances

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)


def _apply(alg, x, y):
    """Multiply two coordinate vectors with the algorithm: W((A x) .* (B y))."""
    sp = alg.target.base
    ax = linalg.mat_vec(sp, alg.A, x)
    by = linalg.mat_vec(sp, alg.B, y)
    return linalg.mat_vec(sp, alg.W, [sp.mul(a, b) for a, b in zip(ax, by)])


def _load_check(table):
    """Re-verify every cached entry of every table in the registry."""
    for tab in table._registry.values():
        for key, entry in sorted(tab._entries.items()):
            verify_or_raise(entry, f"cost table entry {key} over {tab.base!r}")
    return True


def _reference_failing_pair(alg):
    """The scalar check: N products and a W product per basis pair."""
    dim = alg.target.dim
    sp = alg.target.base
    # A e_i and B e_k are the columns of A and B
    a_cols = [[row[i] for row in alg.A] for i in range(dim)]
    b_cols = [[row[k] for row in alg.B] for k in range(dim)]
    for i in range(dim):
        for k in range(dim):
            prods = [sp.mul(a, b) for a, b in zip(a_cols[i], b_cols[k])]
            got = linalg.mat_vec(sp, alg.W, prods)
            if got != alg.target.basis_product(i, k):
                return (i, k)
    return None


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
        # Karatsuba on F_q[t]/(t^2), where t^2 = 0
        t2 = karatsuba(truncated_target(spec, 1, 2))
        assert t2.N == 3 and verify(t2) and t2.symmetric
        assert t2.A == [[1, 0], [0, 1], [1, 1]]
        assert t2.W == [[1, 0, 0], [spec.neg(1), spec.neg(1), 1]]
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
    inner = karatsuba(truncated_target(big, 1, 2))
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


# a bad field element of F_4 (p = 2, k = 2) and the exact error it must raise
BAD_ELEMENTS = [
    ([2, 0], "{key} holds 2, not an integer in [0, 2)"),
    ([0, -1], "{key} holds -1, not an integer in [0, 2)"),
    ([True, 0], "{key} holds True, not an integer in [0, 2)"),
    ([1.0, 0], "{key} holds 1.0, not an integer in [0, 2)"),
    ([1], "{key} holds a field element of 1 digits, not 2"),
    (5, "{key} holds int where a list belongs"),
]


@pytest.mark.parametrize(
    "bad,message", BAD_ELEMENTS, ids=["high", "negative", "bool", "float", "count", "scalar"]
)
@pytest.mark.parametrize("key", ["A", "B", "W", "Q", "f"])
def test_malformed_payload_elements_keep_their_messages(key, bad, message):
    if key == "f":
        (data,) = [i["curve"] for i in shipped_instances() if i["name"] == "fermat_f4"]
        data["f"][0] = bad
        parse = CurveModel.from_json
    else:
        data = CostTable(F4).get(2, 1).to_json()
        if key == "Q":
            data["target"]["Q"][0] = bad
        else:
            data[key][0][0] = bad
        parse = BilinearAlgorithm.from_json
    with pytest.raises(MalformedPayload) as err:
        parse(data)
    assert str(err.value) == message.format(key=key)


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
        _load_check(table)
    # a corrupted subtable entry is reached from the root table
    table = CostTable(F2)
    table.get(4, 1)
    assert _load_check(table)
    table.subtable(F4)._entries[(2, 1)].W[0][0] ^= 1
    with pytest.raises(VerificationError):
        _load_check(table)


def test_cost_table_subtables_share_one_registry(monkeypatch):
    from ccma import bilinear

    table = CostTable(F2)
    F16 = field_extend(F2, 4)
    assert table.subtable(F2) is table
    assert table.subtable(F16) is table.subtable(F4).subtable(F16)
    assert table.subtable(F4).subtable(F2) is table
    # the process-wide tables: one registry per guard limit, apart from
    # every private one
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    shared = CostTable.shared(F2)
    assert CostTable.shared(F2) is shared and shared is not table
    assert shared.subtable(F4) is CostTable.shared(F4)
    assert table.subtable(F4) is not CostTable.shared(F4)
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "4")
    assert CostTable.shared(F2) is not shared
    monkeypatch.delenv("CCMA_GUARD_LIMIT")
    assert CostTable.shared(F2) is shared


def test_guard_hit_in_genus0_build_drops_only_that_candidate(monkeypatch):
    from ccma import genus0
    from ccma.errors import GuardExceeded

    tower = CostTable(F2).get(4, 1).to_json()
    build = genus0.build
    refused = []

    def guarded_build(plan, cost_table):
        if plan.base == F2 and plan.n in (3, 4) and plan.ell == 1:
            refused.append(plan.n)
            raise GuardExceeded("root search in a test field", 8, 4)
        return build(plan, cost_table)

    monkeypatch.setattr(genus0, "build", guarded_build)
    table = CostTable(F2)
    # genus 0 wins (3,1) at rank 6; without it schoolbook makes the entry
    entry = table.get(3, 1)
    assert refused == [3]
    assert entry.meta["method"] == "schoolbook" and entry.N == 9
    # (4,1) keeps its tower entry, which wins the tie with genus 0 at rank
    # 9; the genus-0 candidate comes later, so it is priced and never built
    assert table.get(4, 1).to_json() == tower
    assert refused == [3]


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
            if _apply(alg, x, y) != alg.target.mul_coords(x, y):
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
        assert _apply(alg, x, y) == alg.target.mul_coords(x, y)


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


def test_cheapest_builds_only_the_first_of_least_rank():
    target = extension_target(F2, 2)
    built = []

    def build(alg):
        built.append(alg.meta["method"])
        return alg

    kara, school = karatsuba(target), schoolbook(target)
    # priced before any build; a dropped candidate gives way to the next,
    # and the winner comes back with its own detail
    cands = [(4, lambda: build(school), "a"), (3, lambda: None, "b"),
             (3, lambda: build(kara), "c"), (3, lambda: build(school), "d")]
    assert cheapest(lambda: cands) == (kara, "c")
    assert built == ["karatsuba"]
    assert cheapest(lambda: [(3, lambda: None, "b")]) is None
    with pytest.raises(VerificationError):
        cheapest(lambda: [(3, lambda: school, "d")])
    # a candidate that finds its nested entries above its price answers
    # STALE, and every candidate is priced again from the fresh prices
    pricings = iter([[(3, lambda: STALE, "e"), (4, lambda: build(school), "f")],
                     [(9, lambda: build(kara), "e"), (4, lambda: build(school), "f")]])
    assert cheapest(lambda: next(pricings)) == (school, "f")
    assert built == ["karatsuba", "schoolbook"]


def test_every_cost_table_candidate_verifies():
    # only the winning candidate is built and verified at run time (when it
    # enters the table), so the losers of the small tables are built and
    # checked here, each at the rank it was priced at; the entry is the
    # first of least rank among them all
    checked = 0
    for spec in (F2, F3, F4):
        table = CostTable(spec)
        for d in range(1, 7):
            for u in range(1, 6 // d + 1):
                cands = list(table._candidates(d, u))
                assert cands, (spec, d, u)
                built = []
                for rank, build, detail in cands:
                    alg = build()
                    assert alg is not None, (spec, d, u, rank)
                    assert alg.N == rank, (spec, d, u, alg.meta.get("method"))
                    assert detail["kind"] == alg.meta["method"], (spec, d, u, detail)
                    assert verify(alg), (spec, d, u, alg.meta.get("method"))
                    built.append(alg)
                checked += len(built)
                best = min(built, key=lambda alg: alg.N)
                assert table.get(d, u).to_json() == best.to_json(), (spec, d, u)
    assert checked == 107


# Exact compose_tower outputs recorded before the generator scan moved into
# the tower ring: (q, d, a) -> (target Q, sha256 of the sorted to_json()).
# Every tower split with q^d <= 4096 over F_2, F_3 and F_4.
TOWER_PINS = {
    (2, 4, 2): ([1, 1, 0, 0, 1], "2e9ec8c6a20c36c3496f4a17e80bca9416189f62438967cfd8277bd378e93c51"),
    (2, 6, 2): ([1, 0, 0, 1, 0, 0, 1], "00781ebbd643d22258852a91a9a0714ea7207499f2d368d7f142d4afac69bd30"),
    (2, 6, 3): ([1, 0, 1, 1, 0, 1, 1], "a9e484f95d58ee59f5b06e7cd7b2ada060f5923aa33a0b047abfbeb7801d1070"),
    (2, 8, 2): ([1, 1, 1, 1, 1, 1, 0, 0, 1], "d1a35d7fac32b667da4b75cf4b9502eca92a6306242690d68c0deeb949f112bf"),
    (2, 8, 4): ([1, 1, 0, 1, 1, 1, 1, 0, 1], "a641a11caa5d82523a92d875263e285f2ce78347c6c9fcaaa165f008f7609696"),
    (2, 9, 3): ([1, 1, 0, 0, 0, 1, 0, 1, 0, 1], "0b9f9c202468440681877ca186ef802a8f641158b062c1ff55236fc88956b6a9"),
    (2, 10, 2): ([1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1], "1f36702315a7a54b910b291954e9b16863038dbe49d1ae13391fa6bac5b22737"),
    (2, 10, 5): ([1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1], "09c8b11c0c14b1c726d5450823d34bbb53e970226b849af06ff0d7cbac37b2b5"),
    (2, 12, 2): ([1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1], "eada3c2f2791c2655b52ae2937b884bd9d1654819d38afa67a77f089ddfd4c87"),
    (2, 12, 3): ([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1], "16e490dc8a75655b9764eb6fb114567e2b143d73eb3550e6be90e6a5000b1413"),
    (2, 12, 4): ([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1], "164bfdb6d897be8a4d4548974972f8777c18daf9758200b48281d0d4dea180d1"),
    (2, 12, 6): ([1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1], "044ebdc548758e4cc8d4a8c22def52d83022a476eb8eed1bbed9c09bd62cff3c"),
    (3, 4, 2): ([2, 0, 2, 0, 1], "bd7b6f84be49cab24eaa0e95715fc7d787c1bef40d7cef4893ab23c5c369d7e3"),
    (3, 6, 2): ([1, 0, 1, 0, 2, 0, 1], "2dad0e7967f8a3f121eeb17c50a881b173d48a8d13d8e57aa5561cd0237851e9"),
    (3, 6, 3): ([2, 1, 1, 2, 1, 0, 1], "f301fd97ab86292612ce5e907bb52d39f47d9ddd848d333ac7aae77a67596bca"),
    (4, 4, 2): ([1, 3, 2, 0, 1], "8e222650c708e7626e01ea19453b60fcb1d623272439d8f42bcd8e958da26f2f"),
    (4, 6, 2): ([2, 0, 0, 1, 0, 0, 1], "521c77089ed84c2492f1c98c388cebc813c26076022164fb07f1c0407b2bf0fe"),
    (4, 6, 3): ([2, 3, 1, 1, 3, 1, 1], "ee5151ec6de08e472a58cf0f75532b2439835f56c4eed7b4d49591f5594ae61f"),
}
# (q, d) -> the same, for the trivial outer F_q/F_q and the table's inner F_{q^d}
TRIVIAL_OUTER_PINS = {
    (2, 2): ([1, 1, 1], "e2aa18650ece967c6644cfdf826e99d016aecf12ce5d1c8679c343c5df93fd92"),
    (2, 3): ([1, 1, 0, 1], "82a2f4116d2e3734895630c124914e0502b081f41bbf13e9f9a53e813c10a8a3"),
    (2, 4): ([1, 1, 0, 0, 1], "2e9ec8c6a20c36c3496f4a17e80bca9416189f62438967cfd8277bd378e93c51"),
    (3, 2): ([1, 0, 1], "1c65e5ac61316d4014ed145d07625a2198ca1efb2729de7108f2c8158c73d74a"),
    (3, 3): ([1, 2, 0, 1], "50e4709f9dc8ac272bb958681ef4dae5c2f3b148c3fc9b993047524f069c6ee6"),
    (3, 4): ([2, 0, 2, 0, 1], "bd7b6f84be49cab24eaa0e95715fc7d787c1bef40d7cef4893ab23c5c369d7e3"),
    (4, 2): ([2, 1, 1], "975caad53eb7d4968b9be26871981a1bfa7f7c2e2b94df8558237baed6e41fde"),
    (4, 3): ([2, 0, 0, 1], "c00b8c759122953504ee023f5c0f56080b8ea707e61861d09cca8d8f137be993"),
    (4, 4): ([1, 2, 1, 0, 1], "ddf059aead2ca6c7a23260e05874feecdbe3b4d95121d7f1e6f3389d5635ab3e"),
}


def _pin(alg):
    text = json.dumps(alg.to_json(), sort_keys=True)
    return list(alg.target.Q.coeffs), hashlib.sha256(text.encode()).hexdigest()


def test_compose_tower_outputs_are_pinned():
    got, trivial = {}, {}
    for spec in (F2, F3, F4):
        table = CostTable(spec)
        d = 2
        while spec.q ** d <= 4096:
            for a in range(2, d):
                if d % a == 0:
                    inner = table.subtable(field_extend(spec, a)).get(d // a, 1)
                    got[(spec.q, d, a)] = _pin(compose_tower(table.get(a, 1), inner))
            d += 1
        for d in (2, 3, 4):
            alg = compose_tower(table.get(1, 1), table.get(d, 1))
            trivial[(spec.q, d)] = _pin(alg)
    assert got == TOWER_PINS
    assert trivial == TRIVIAL_OUTER_PINS


def test_empty_algorithm_fails_verification():
    target = extension_target(FieldSpec.get(2), 2)
    alg = BilinearAlgorithm(target, [], [], [[], []])
    assert alg.failing_pair() == (0, 0)


def _karatsuba_beyond_tables(spec, linear):
    """Karatsuba on the first irreducible x^2 + linear*x + c, c = 1, 2, ..."""
    c = 1
    while not is_irreducible(Poly(spec, (c, linear, 1))):
        c += 1
    return karatsuba(extension_target(spec, 2, Poly(spec, (c, linear, 1))))


def test_packed_check_agrees_with_the_scalar_loop():
    rng = random.Random(31)
    F9, F16 = FieldSpec.get(3, 2), FieldSpec.get(2, 4)
    algs = []
    for spec in (F2, F3, F4, F9, F16):
        table = CostTable(spec)
        algs += [table.get(2, 1), table.get(3, 1), schoolbook(extension_target(spec, 2))]
    # truncated entries with u > 1, one of them a composition
    algs += [CostTable(spec).get(d, u) for spec, d, u in
             ((F2, 2, 2), (F2, 1, 3), (F3, 1, 2), (F3, 2, 2), (F4, 1, 3), (F9, 1, 2))]
    # fields beyond the log tables: q > 2^16, and odd p with k > 1
    algs += [_karatsuba_beyond_tables(FieldSpec.get(2, 17), 1),
             _karatsuba_beyond_tables(FieldSpec.get(3, 11), 0)]
    # odd p whose slot sums pass a byte unless reduced on the way: 150
    # copies of a term with every output 2 add 300 to a slot, 0 mod 3
    kara = karatsuba(extension_target(F3, 2))
    algs.append(BilinearAlgorithm(kara.target, kara.A + [[1, 1]] * 150,
                                  kara.B + [[1, 1]] * 150,
                                  [row + [2] * 150 for row in kara.W]))
    # the byte encodings end at p = 127; wider slots from p = 131 on, and p > 256
    algs += [_karatsuba_beyond_tables(FieldSpec.get(p), 0) for p in (127, 131, 257)]
    assert any(alg.symmetric for alg in algs) and not all(alg.symmetric for alg in algs)
    checked = 0
    for base_alg in algs:
        assert base_alg.failing_pair() is None
        assert _reference_failing_pair(base_alg) is None
        sp = base_alg.target.base
        for trial in range(12):
            alg = BilinearAlgorithm(base_alg.target, base_alg.A, base_alg.B, base_alg.W)
            # half of the mutants of a symmetric algorithm keep A = B
            keep_symmetric = base_alg.symmetric and trial % 2 == 0
            for _ in range(rng.randint(1, 3)):
                which = rng.choice("ABW")
                mat = getattr(alg, which)
                i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
                mat[i][j] = sp.add(mat[i][j], rng.randrange(1, sp.q))
                if keep_symmetric and which != "W":
                    (alg.B if which == "A" else alg.A)[i][j] = mat[i][j]
            assert alg.symmetric or not keep_symmetric
            assert alg.failing_pair() == _reference_failing_pair(alg), (base_alg, trial)
            checked += alg.failing_pair() is not None
    assert checked > 200
    for spec in (F2, F3, F9):
        empty = BilinearAlgorithm(extension_target(spec, 2), [], [], [[], []])
        assert empty.failing_pair() == _reference_failing_pair(empty) == (0, 0)


def test_extension_check_reads_the_power_window(monkeypatch):
    alg = CostTable(F4).get(5, 1)
    assert alg.target.kind == "extension"
    bad = BilinearAlgorithm(alg.target, alg.A, alg.B, alg.W)
    bad.W[3][4] = F4.add(bad.W[3][4], 1)
    product = Algebra.basis_product
    calls = []

    def counted(self, i, k):
        calls.append((i, k))
        return product(self, i, k)

    monkeypatch.setattr(Algebra, "basis_product", counted)
    assert alg.failing_pair() is None
    pair = bad.failing_pair()
    # the expected rows are slices of x^0..x^(2m-2), not products per pair
    assert calls == []
    monkeypatch.undo()
    assert pair is not None and pair == _reference_failing_pair(bad)


def test_extension_basis_product_is_the_ring_product():
    for spec, n in ((F2, 7), (F3, 5), (FieldSpec.get(2, 4), 13)):
        target = extension_target(spec, n)
        unit = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
        for i in range(n):
            for k in range(n):
                assert target.basis_product(i, k) == list(target.ring.mul(unit[i], unit[k]))
    # truncated targets: x^(i1+i2) reduced by the ring's rows, in block j1 + j2
    for spec in (F2, F3, F4):
        for m, ell in ((1, 3), (2, 2), (3, 2), (2, 3)):
            target = truncated_target(spec, m, ell)
            dim = target.dim
            unit = [[1 if t == i else 0 for t in range(dim)] for i in range(dim)]
            for i in range(dim):
                for k in range(dim):
                    assert target.basis_product(i, k) == target.mul_coords(unit[i], unit[k])


def test_generator_scan_guard_counts_candidates_tried(monkeypatch):
    # F_2^8 as F_4 over F_2 under F_{4^4} over F_4: the first candidate is a
    # generator, so a limit of 4 (the root search in F_4) is enough
    table = CostTable(F2)
    outer, inner = table.get(2, 1), table.subtable(F4).get(4, 1)
    expected = compose_tower(outer, inner).to_json()
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "4")
    alg = compose_tower(outer, inner)
    assert verify(alg)
    assert alg.to_json() == expected


def test_generator_scan_guard_refuses_a_longer_scan(monkeypatch):
    from ccma.bilinear import _compose_blocks, _power_basis_form
    from ccma.errors import GuardExceeded

    # F_2^6 as F_8 over F_2 under F_{8^2} over F_8: the third candidate wins
    table = CostTable(F2)
    outer = table.get(3, 1)
    inner = table.subtable(field_extend(F2, 3)).get(2, 1)
    expected = compose_tower(outer, inner).to_json()
    A, B, W, iso = _compose_blocks(outer, inner)
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "2")
    with pytest.raises(GuardExceeded, match="generator scan"):
        _power_basis_form(A, B, W, iso, inner.target.ring)
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "3")
    alg = _power_basis_form(A, B, W, iso, inner.target.ring)
    assert alg.to_json() == expected
