"""Differential test: `linalg` over F_{2^k}, q <= 256, eliminates rows packed
one byte per coefficient; the list elimination it replaced there, kept here
as the reference, must give the same results on every function."""

import random

import pytest

from ccma import linalg
from ccma.gf import FieldSpec

FIELDS = [FieldSpec.get(2, k) for k in (1, 2, 3, 4, 8)]


def reference_rref(spec, mat):
    """Gauss-Jordan on list rows through the row kernels `scaled` and `sub_scaled`."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot = m[r] = spec.scaled(spec.inv(m[r][c]), m[r])
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = spec.sub_scaled(m[i], m[i][c], pivot)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _random(rng, spec, rows, cols, rank=None, zero_cols=()):
    """A random rows x cols matrix, of at most the given rank, with zero columns."""
    if rank is None:
        mat = [[rng.randrange(spec.q) for _ in range(cols)] for _ in range(rows)]
    else:
        left = _random(rng, spec, rows, rank)
        mat = linalg.mat_mul(spec, left, _random(rng, spec, rank, cols)) if rank else \
            [[0] * cols for _ in range(rows)]
    for c in zero_cols:
        for row in mat:
            row[c] = 0
    return mat


def _shapes(rng, spec):
    yield _random(rng, spec, 6, 6)  # square, singular often over F_2
    yield _random(rng, spec, 9, 4)  # tall
    yield _random(rng, spec, 4, 9)  # wide
    yield _random(rng, spec, 7, 8, rank=3)  # rank-deficient
    yield _random(rng, spec, 5, 5, rank=4)
    yield _random(rng, spec, 1, 7)  # one row
    yield _random(rng, spec, 1, 1)
    yield _random(rng, spec, 6, 9, zero_cols=(0, 4, 8))
    yield _random(rng, spec, 5, 5, rank=0)
    yield [[] for _ in range(3)]  # no columns
    yield []


def _results(spec):
    """rref, rank, solve (random and consistent b), kernel_basis, invert and
    left_inverse on seeded random matrices of every shape."""
    rng = random.Random(spec.q)
    out = []
    for mat in [m for _ in range(6) for m in _shapes(rng, spec)]:
        rows, cols = len(mat), len(mat[0]) if mat else 0
        b = [rng.randrange(spec.q) for _ in range(rows)]
        x = [rng.randrange(spec.q) for _ in range(cols)]
        consistent = linalg.mat_vec(spec, mat, x) if cols else [0] * rows
        out.append((
            mat,
            linalg.rref(spec, mat),
            linalg.rank(spec, mat),
            linalg.solve(spec, mat, b),
            linalg.solve(spec, mat, consistent),
            linalg.kernel_basis(spec, mat),
            linalg.invert(spec, [row[:rows] for row in mat]) if cols >= rows > 0 else None,
            linalg.left_inverse(spec, mat) if rows >= cols > 0 else None,
        ))
    return out


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
def test_packed_elimination_matches_the_list_reference(spec, monkeypatch):
    assert spec.packs_rows
    got = _results(spec)
    monkeypatch.setattr(linalg, "rref", reference_rref)
    monkeypatch.setattr(linalg, "rank", lambda spec, mat: len(reference_rref(spec, mat)[1]))
    expected = _results(spec)
    assert len(got) == len(expected) == 66
    for g, e in zip(got, expected):
        assert g == e, g[0]
    # the cases hold singular and invertible squares, and inconsistent systems
    squares = [r for r in got if r[0] and len(r[0]) == len(r[0][0])]
    assert {r[6] is None for r in squares} == {True, False}
    assert None in [r[3] for r in got] and None not in [r[4] for r in got]


def reference_mat_mul(spec, a, b):
    """The list product: each nonzero entry of a adds its multiple of a row of b."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for x, bk in zip(row, b):
            if x:
                acc = spec.sub_scaled(acc, spec.neg(x), bk)
        out.append(acc)
    return out


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
def test_packed_mat_mul_matches_the_list_reference(spec):
    rng = random.Random(spec.q + 1)
    # (rows of a, rows of b, columns of b): empty, no inner rows, no columns,
    # one row, and sparse and dense products
    shapes = [(0, 0, 0), (0, 4, 3), (3, 0, 0), (3, 4, 0), (1, 1, 1), (1, 6, 5), (5, 1, 4),
              (7, 9, 6), (15, 42, 20), (4, 4, 4)]
    cases = 0
    for rows, inner, cols in shapes:
        for density in (0.0, 0.3, 1.0):
            a = [[rng.randrange(1, spec.q) if rng.random() < density else 0 for _ in range(inner)]
                 for _ in range(rows)]
            b = [[rng.randrange(spec.q) for _ in range(cols)] for _ in range(inner)]
            expected = reference_mat_mul(spec, a, b)
            assert len(expected) == rows and all(len(r) == cols for r in expected)
            assert linalg.mat_mul(spec, a, b) == expected, (rows, inner, cols, density)
            factor = linalg.RightFactor(spec, b)
            assert factor.packed is not None
            # a factor made once gives the same product on every call
            for _ in range(2):
                assert linalg.mat_mul(spec, a, factor) == expected
            cases += 1
    assert cases == 30
