"""Differential tests: the span-walk search and the projective codeword walk
against the plain enumerations they replaced."""

import itertools
import random

import pytest

from ccma import linalg
from ccma.bilinear import brute_force_min_rank, extension_target, truncated_target
from ccma.codes import LinearCode
from ccma.errors import DegenerateDecomposition, GuardExceeded
from ccma.gf import FieldSpec

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)


def reference_min_rank(target, max_rank, symmetric_only=False):
    """One RREF of [layers | T] per combination of rank-one terms, in order."""
    sp, dim, q = target.base, target.dim, target.base.q
    vecs = [[(e // q**t) % q for t in range(dim)] for e in range(1, q**dim)]
    phis = [v for v in vecs if next(c for c in v if c) == 1]
    if symmetric_only:
        pairs = [(v, v) for v in phis]
    else:
        pairs = [(a, b) for a in phis for b in phis]
    T = [target.basis_product(i, k) for i in range(dim) for k in range(dim)]
    layers = [[sp.mul(x, y) for x in a for y in b] for a, b in pairs]
    for r in range(1, max_rank + 1):
        for combo in itertools.combinations(range(len(pairs)), r):
            aug = [[layers[s][row] for s in combo] + T[row] for row in range(dim * dim)]
            red, pivots = linalg.rref(sp, aug)
            if any(c >= r for c in pivots):
                continue
            sol = [[0] * dim for _ in range(r)]
            for rr, c in enumerate(pivots):
                for h in range(dim):
                    sol[c][h] = red[rr][r + h]
            A = [pairs[s][0] for s in combo]
            B = [pairs[s][1] for s in combo]
            W = [[sol[s][h] for s in range(r)] for h in range(dim)]
            return r, A, B, W
    return None


SEARCH_CASES = [
    # (target, max_rank, symmetric_only)
    (extension_target(F2, 2), 3, False),
    (extension_target(F2, 2), 2, False),  # below the minimum
    (extension_target(F3, 2), 3, False),
    (extension_target(F4, 2), 3, False),
    (extension_target(F2, 2), 3, True),
    (extension_target(F3, 2), 3, True),
    (extension_target(F4, 2), 3, True),
    (extension_target(F2, 3), 3, False),  # below the minimum
    (extension_target(F2, 3), 6, True),
    (extension_target(F3, 3), 2, False),  # below the minimum
    (extension_target(F3, 3), 6, True),
    (extension_target(F3, 3), 5, True),  # below the minimum
    (extension_target(F4, 3), 5, True),
    (truncated_target(F2, 1, 3), 5, True),
    (truncated_target(F2, 1, 3), 4, True),  # below the minimum
    (truncated_target(F2, 1, 4), 8, True),
]


def _case_id(case):
    target, max_rank, symmetric_only = case
    sym = "sym" if symmetric_only else "asym"
    return f"{target.kind}-q{target.base.q}-dim{target.dim}-{sym}-r{max_rank}"


@pytest.mark.parametrize(
    "target,max_rank,symmetric_only", SEARCH_CASES, ids=map(_case_id, SEARCH_CASES)
)
def test_span_walk_matches_reference_search(target, max_rank, symmetric_only):
    want = reference_min_rank(target, max_rank, symmetric_only)
    out = brute_force_min_rank(
        target, max_rank, symmetric_only=symmetric_only, limit=1 << 40
    )
    if want is None:
        assert out.exceeded and out.algorithm is None
        return
    alg = out.algorithm
    assert (out.rank, alg.A, alg.B, alg.W) == want


def reference_min_distance(code):
    """Minimum weight over every nonzero message, one mat_vec each."""
    q, n = code.spec.q, code.n
    columns = linalg.transpose(code.G)
    best = code.N + 1
    for msg in itertools.product(range(q), repeat=n):
        if any(msg):
            word = linalg.mat_vec(code.spec, columns, list(msg))
            best = min(best, sum(1 for c in word if c))
    return best


def random_code(rng, spec, n, N):
    while True:
        G = [[rng.randrange(spec.q) for _ in range(N)] for _ in range(n)]
        try:
            return LinearCode(spec, G)
        except DegenerateDecomposition:
            continue


def test_projective_walk_matches_full_enumeration():
    rng = random.Random(31)
    for spec in (F2, F3, F4):
        for n in (1, 2, 3, 4):
            for N in (n, n + 2, 7):
                code = random_code(rng, spec, n, N)
                assert code.min_distance() == reference_min_distance(code), (spec, n, N)


def test_min_distance_guard_still_applies():
    code = LinearCode(F3, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(GuardExceeded):
        code.min_distance(limit=8)
    assert code.min_distance(limit=9) == 2
