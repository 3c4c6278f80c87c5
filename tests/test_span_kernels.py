"""Differential tests: the span-walk search and the meet-in-the-middle code
distance against plain enumerations, the packed span walk against the list
walk, and the distance against the depth-first projective walk."""

import hashlib
import itertools
import json
import random

import pytest

from ccma import bilinear, linalg
from ccma.bilinear import CostTable, brute_force_min_rank, extension_target, truncated_target
from ccma.codes import LinearCode, code_from_decomposition
from ccma.errors import DegenerateDecomposition, GuardExceeded
from ccma.gf import FieldSpec

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)
F5 = FieldSpec.get(5)
F9 = FieldSpec.get(3, 2)
F8 = FieldSpec.get(2, 3)
F16 = FieldSpec.get(2, 4)


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


def _reference_pivot_row(spec, v):
    piv = next(i for i, c in enumerate(v) if c)
    return piv, spec.scaled(spec.inv(v[piv]), v)


def _reference_eliminate(spec, v, pivot_row):
    piv, row = pivot_row
    c = v[piv]
    return spec.sub_scaled(v, c, row) if c else v


def _reference_first_spanning_combination(spec, layers, targets, r):
    """The span walk on list rows alone, one `sub_scaled` per eliminated row."""
    t_basis = []
    for t in targets:
        for pivot_row in t_basis:
            t = _reference_eliminate(spec, t, pivot_row)
        if any(t):
            t_basis.append(_reference_pivot_row(spec, t))
    budget = r - len(t_basis)
    if budget < 0:
        return None
    count = len(layers)
    chosen = []

    def walk(start, s_res, ts_res, raises):
        depth = len(chosen)
        for i in range(start, count - (r - depth) + 1):
            v = s_res[i - start]
            if not any(v):
                continue
            w = ts_res[i - start]
            grows = any(w)
            if grows and raises == budget:
                continue
            chosen.append(i)
            if depth + 1 == r:
                return True
            s_row = _reference_pivot_row(spec, v)
            s_next = [_reference_eliminate(spec, x, s_row) for x in s_res[i + 1 - start :]]
            if grows:
                ts_row = _reference_pivot_row(spec, w)
                ts_next = [_reference_eliminate(spec, x, ts_row) for x in ts_res[i + 1 - start :]]
            else:
                ts_next = ts_res[i + 1 - start :]
            if walk(i + 1, s_next, ts_next, raises + grows):
                return True
            chosen.pop()
        return False

    ts_res = []
    for lay in layers:
        for pivot_row in t_basis:
            lay = _reference_eliminate(spec, lay, pivot_row)
        ts_res.append(lay)
    return chosen if walk(0, layers, ts_res, 0) else None


def _random_walk_case(rng, spec, r):
    """Layers of random rows (leading coefficients mostly not 1, some repeated
    or dependent), and targets spanned by a few of them, so that leaves exist."""
    width = rng.choice((4, 6, 9))
    count = rng.randrange(r, r + 9)

    def row():
        return [rng.randrange(spec.q) if rng.random() < 0.6 else 0 for _ in range(width)]

    layers = [row() for _ in range(count)]
    for i in range(count):
        if i and rng.random() < 0.15:  # a layer in the span of the earlier ones
            a, b = rng.sample(layers[:i], 2) if i > 1 else (layers[0], layers[0])
            layers[i] = spec.sub_scaled(a, rng.randrange(1, spec.q), b)
    sources = rng.sample(layers, min(len(layers), rng.randrange(1, r + 1)))
    targets = []
    for _ in range(rng.randrange(1, 4)):
        t = [0] * width
        for src in sources:
            t = spec.sub_scaled(t, rng.randrange(spec.q), src)
        targets.append(t)
    return layers, targets


@pytest.mark.parametrize("spec", [F2, F4, F8, F16, F3, F5, F9], ids=lambda s: f"q{s.q}")
def test_span_walk_matches_list_walk(spec):
    """Packed rows (p = 2) and list rows (odd p) choose the list walk's layers."""
    rng = random.Random(100 + spec.q)
    found = 0
    for _ in range(100):
        r = rng.randrange(1, 7)
        layers, targets = _random_walk_case(rng, spec, r)
        want = _reference_first_spanning_combination(spec, layers, targets, r)
        assert bilinear._first_spanning_combination(spec, layers, targets, r) == want
        found += want is not None
    assert 20 <= found <= 90  # both outcomes are exercised


# (q, n, max_rank, symmetric_only) -> sha256 of json.dumps(to_json(), sort_keys=True)
# of the witness, recorded on the list walk before rows were packed.
SEARCH_WITNESSES = {
    (2, 2, 3, False): "e2aa18650ece967c6644cfdf826e99d016aecf12ce5d1c8679c343c5df93fd92",
    (4, 2, 3, False): "975caad53eb7d4968b9be26871981a1bfa7f7c2e2b94df8558237baed6e41fde",
    (2, 3, 6, False): "6c8a6b07e3a9d410939e7a5f3e52856784392e9b11cacadd054aa4e76c11ecf9",
    (2, 3, 6, True): "6c8a6b07e3a9d410939e7a5f3e52856784392e9b11cacadd054aa4e76c11ecf9",
    (4, 3, 5, True): "a6f5aae68d54cfed683278dadeae54ccb2d94210c897b933db05afa438c09741",
    (2, 4, 9, True): "aba7bea2126b59db99768ca2907829e587728f21d82444df705af4662d499649",
}


@pytest.mark.parametrize("case", list(SEARCH_WITNESSES), ids=lambda c: "q{}-n{}-r{}-{}".format(
    *c[:3], "sym" if c[3] else "asym"))
def test_search_witnesses_are_pinned(case):
    q, n, max_rank, symmetric_only = case
    spec = {2: F2, 4: F4}[q]
    out = brute_force_min_rank(extension_target(spec, n), max_rank,
                               symmetric_only=symmetric_only, limit=1 << 40)
    assert out.rank == max_rank
    text = json.dumps(out.algorithm.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_WITNESSES[case]


def test_packed_walk_makes_no_list_elimination(monkeypatch):
    """Inside the walk, p = 2 rows never reach a list kernel; odd p rows do."""
    calls, inside = [], []
    walk = bilinear._first_spanning_combination
    sub_scaled, eliminate = FieldSpec.sub_scaled, bilinear._eliminate

    def spied_walk(*args):
        inside.append(True)
        try:
            return walk(*args)
        finally:
            inside.pop()

    def counted_sub_scaled(self, *args):
        if inside:
            calls.append("sub_scaled")
        return sub_scaled(self, *args)

    def counted_eliminate(spec, *args):
        if inside:
            calls.append("_eliminate")
        return eliminate(spec, *args)

    monkeypatch.setattr(bilinear, "_first_spanning_combination", spied_walk)
    monkeypatch.setattr(FieldSpec, "sub_scaled", counted_sub_scaled)
    monkeypatch.setattr(bilinear, "_eliminate", counted_eliminate)
    for spec, n, max_rank in ((F2, 4, 9), (F4, 3, 5), (F16, 2, 3)):
        out = brute_force_min_rank(extension_target(spec, n), max_rank,
                                   symmetric_only=True, limit=1 << 40)
        assert out.rank == max_rank
    assert calls == []
    assert brute_force_min_rank(extension_target(F3, 2), 3, symmetric_only=True).rank == 3
    assert set(calls) == {"sub_scaled", "_eliminate"}


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


def reference_projective_walk(code):
    """Depth-first walk over the messages whose first nonzero coordinate is 1.

    Each codeword is its parent plus one precomputed scaled generator row.
    """
    spec = code.spec
    q = spec.q
    minus_one = spec.p - 1  # word - (-1)*row is word + row
    scaled = [[spec.scaled(c, row) for c in range(1, q)] for row in code.G]
    best = code.N + 1

    def walk(word, start):
        nonlocal best
        w = code.N - word.count(0)
        if w < best:
            best = w
        for j in range(start, code.n):
            for row in scaled[j]:
                walk(spec.sub_scaled(word, minus_one, row), j + 1)

    for lead in range(code.n):
        walk(code.G[lead], lead + 1)
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


def test_refused_min_distance_does_no_row_work(monkeypatch):
    code = LinearCode(F16, [[1, 0, 0, 3], [0, 1, 0, 5], [0, 0, 1, 7]])
    calls = []
    for name in ("scaled", "sub_scaled"):
        kernel = getattr(FieldSpec, name)

        def counted(self, *args, _kernel=kernel, _name=name):
            calls.append(_name)
            return _kernel(self, *args)

        monkeypatch.setattr(FieldSpec, name, counted)
    with pytest.raises(GuardExceeded, match=r"codeword enumeration \[4,3\]_16"):
        code.min_distance(limit=16**3 - 1)
    assert calls == []
    assert code.min_distance(limit=16**3) == 2 and "sub_scaled" in calls


@pytest.mark.parametrize("spec", [F2, F3, F4, F5, F9, F16], ids=lambda s: f"q{s.q}")
def test_meet_in_the_middle_matches_both_references(spec):
    """Odd and even n split the rows unevenly and evenly; N = n is the whole
    space (distance 1), and a zero column never counts toward a weight."""
    rng = random.Random(spec.q)
    for n in range(1, 7):
        if spec.q ** n > 1 << 14:
            break
        for N in (n, n + 2, 2 * n + 1):
            code = random_code(rng, spec, n, N)
            padded = LinearCode(spec, [row[:1] + [0] + row[1:] for row in code.G])
            for c in (code, padded):
                want = reference_min_distance(c)
                assert c.min_distance() == reference_projective_walk(c) == want, (spec, n, N)
            assert padded.min_distance() == code.min_distance()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_meet_in_the_middle_on_cost_table_codes(q):
    spec = {2: F2, 3: F3, 4: F4}[q]
    table = CostTable(spec)
    for n in range(1, 7):
        code = code_from_decomposition(table.get(n, 1))
        want = reference_min_distance(code)
        assert code.min_distance() == reference_projective_walk(code) == want >= n, (q, n)
