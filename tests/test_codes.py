"""Code extraction, exact distances, and the supercode correspondence."""

import pytest

from ccma import linalg
from ccma.bilinear import (
    BilinearAlgorithm,
    CostTable,
    extension_target,
    karatsuba,
    schoolbook,
    verify,
)
from ccma.codes import (
    LinearCode,
    Supercode,
    code_from_decomposition,
    supercode_from_symmetric,
    symmetric_from_supercode,
)
from ccma.errors import CcmaError, SupercodeConditionError
from ccma.gf import FieldSpec
from ccma.planner import Planner

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)


def _is_exact(S):
    """An exact supercode has dimension n."""
    return S.dim == S.n


def _first_block_rank(S):
    """Condition 1 holds when this is n: the first projection is onto F_{q^n}."""
    return linalg.rank(S.algebra.base, [row[: S.n] for row in S.basis])


def test_karatsuba_code_parameters():
    alg = karatsuba(extension_target(F2, 2))
    code = code_from_decomposition(alg)
    assert (code.N, code.n) == (3, 2)
    assert code.min_distance() == 2  # parity-extended code, 3 nonzero words


def test_repetition_code_distance():
    code = LinearCode(F2, [[1, 1, 1]])
    assert code.min_distance() == 3


def test_rank_one_trivial_code():
    table = CostTable(F2)
    alg = table.get(1, 1)
    code = code_from_decomposition(alg)
    assert (code.N, code.n, code.min_distance()) == (1, 1, 1)


def test_mu24_code_distance_at_least_n():
    table = CostTable(F2)
    alg = table.get(4, 1)
    assert alg.N == 9
    code = code_from_decomposition(alg)
    assert (code.N, code.n) == (9, 4)
    assert code.min_distance() >= 4


def test_distance_lower_bound_across_small_decompositions():
    for q, p, k, nmax in ((2, 2, 1, 5), (3, 3, 1, 4), (4, 2, 2, 4)):
        spec = FieldSpec.get(p, k)
        table = CostTable(spec)
        for n in range(2, nmax + 1):
            alg = table.get(n, 1)
            code = code_from_decomposition(alg)
            assert code.n == n
            assert code.min_distance() >= n, (q, n)


def test_supercode_roundtrip_karatsuba():
    alg = karatsuba(extension_target(F2, 2))
    S = supercode_from_symmetric(alg)
    assert _is_exact(S) and S.dim == 2
    assert _first_block_rank(S) == S.n and S.condition2_holds()
    back = symmetric_from_supercode(S)
    assert back.A == alg.A
    assert back.N == alg.N
    assert verify(back)


def test_supercode_trivial_n1():
    table = CostTable(F3)
    alg = table.get(1, 1)
    S = supercode_from_symmetric(alg)
    assert S.basis == [[1, 1]]
    assert symmetric_from_supercode(S).N == 1


def test_supercode_rejects_asymmetric():
    alg = schoolbook(extension_target(F2, 2))
    with pytest.raises(CcmaError):
        supercode_from_symmetric(alg)


def test_padded_supercode_reduces_to_exact():
    # dimension n+1 supercode in F_4 (+) F_2^4: one fresh ambient coordinate
    # carries an extra generator, and the exact sub-supercode drops it
    alg = karatsuba(extension_target(F2, 2))
    S = supercode_from_symmetric(alg)
    rows = [row + [0] for row in S.basis]
    rows.append([0, 0, 0, 0, 0, 1])
    padded = Supercode(S.algebra, 4, rows)
    assert padded.dim == 3 and not _is_exact(padded)
    assert _first_block_rank(padded) == padded.n and padded.condition2_holds()
    back = symmetric_from_supercode(padded)
    assert back.N == 4 and verify(back)
    assert back.A[:3] == alg.A  # the dropped generator leaves a dead product
    assert back.A[3] == [0, 0]


def test_dependent_row_keeps_exactness():
    alg = karatsuba(extension_target(F2, 2))
    S = supercode_from_symmetric(alg)
    redundant = [[F2.add(a, b) for a, b in zip(S.basis[0], S.basis[1])]]
    padded = Supercode(S.algebra, S.N, S.basis + redundant)
    assert padded.dim == 2  # dependent row: still dimension n
    back = symmetric_from_supercode(padded)
    assert back.N == 3 and verify(back)


def test_condition2_violation_reported():
    alg = karatsuba(extension_target(F2, 2))
    S = supercode_from_symmetric(alg)
    # crushing the ambient space to one informative coordinate kills condition 2
    broken = Supercode(S.algebra, 3, [row[:2] + [row[2], 0, 0] for row in S.basis])
    with pytest.raises(SupercodeConditionError) as err:
        symmetric_from_supercode(broken)
    assert err.value.condition == 2
    assert "second projection not injective on the square span" in str(err.value)


def test_supercode_exactness_is_dimension_n():
    alg = karatsuba(extension_target(F2, 2))
    S = supercode_from_symmetric(alg)
    assert _is_exact(S) and S.dim == S.n == 2


def test_round_trip_builds_one_square_span(monkeypatch):
    cert = Planner(F2).synth(4)
    alg = BilinearAlgorithm.from_json(cert["algorithm"])
    assert alg.symmetric
    product = Supercode.product
    calls = []

    def counted(self, r1, r2):
        calls.append(1)
        return product(self, r1, r2)

    monkeypatch.setattr(Supercode, "product", counted)
    back = symmetric_from_supercode(supercode_from_symmetric(alg))
    assert back.A == alg.A and verify(back)
    # one product per pair of the n basis rows, not one set per condition check
    assert len(calls) == 4 * 5 // 2


def test_round_trip_decides_condition_1_from_its_row_reduction(monkeypatch):
    alg = BilinearAlgorithm.from_json(Planner(F2).synth(8)["algorithm"])
    assert alg.symmetric
    rref = linalg.rref
    calls = []

    def counted(spec, mat):
        calls.append(1)
        return rref(spec, mat)

    monkeypatch.setattr(linalg, "rref", counted)
    back = symmetric_from_supercode(supercode_from_symmetric(alg))
    assert back.A == alg.A and verify(back)
    # verification implies both conditions for the supercode of a symmetric
    # algorithm; the recovery reads condition 1 off the pivots of the
    # reduction it takes of the basis, and condition 2 off the one reduction
    # of the square span, which also solves for W; the third is the inverse
    # of the first block, with no separate rank of either block
    assert len(calls) == 3
    # one row with a zero second block fails both conditions; 1 is reported
    S = supercode_from_symmetric(karatsuba(extension_target(F2, 2)))
    both = Supercode(S.algebra, S.N, [[1, 0] + [0] * S.N])
    assert _first_block_rank(both) != both.n and not both.condition2_holds()
    with pytest.raises(SupercodeConditionError) as err:
        symmetric_from_supercode(both)
    assert err.value.condition == 1


def test_symmetric_rank_never_below_asymmetric():
    # the brute-force oracle witnesses the chain mu <= mu_sym on small cases
    from ccma.bilinear import brute_force_min_rank, truncated_target

    for target in (
        extension_target(F2, 2),
        truncated_target(F2, 1, 2),
        truncated_target(F3, 1, 2),
    ):
        asym = brute_force_min_rank(target, 4)
        sym = brute_force_min_rank(target, 4, symmetric_only=True)
        assert asym.rank is not None and sym.rank is not None
        assert asym.rank <= sym.rank
