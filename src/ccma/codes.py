"""Decompositions as linear codes, and the exact-supercode correspondence.

A length-N decomposition of multiplication in F_{q^n} induces the code
spanned by the images x -> (a_1(x), ..., a_N(x)); symmetric decompositions
correspond to exact supercodes S in F_{q^n} (+) F_q^N.
"""

import operator

from . import linalg
from .bilinear import BilinearAlgorithm, verify
from .errors import (
    CcmaError,
    DegenerateDecomposition,
    SupercodeConditionError,
)
from .guard import check_guard


class LinearCode:
    """Generator-matrix code over a FieldSpec, with cached exact distance."""

    def __init__(self, spec, generator):
        self.spec = spec
        self.G = [list(r) for r in generator]
        self.n = len(self.G)
        self.N = len(self.G[0]) if self.G else 0
        if linalg.rank(spec, self.G) != self.n:
            raise DegenerateDecomposition("generator rows are dependent")
        self._distance = None

    def min_distance(self, limit=None):
        """Exact minimum Hamming weight over all nonzero codewords (guarded).

        Meet in the middle: a codeword is h - t, h spanned by the first
        ceil(n/2) rows and t by the last floor(n/2).  Every t is stored
        once as its one-hot packing, bit j*q + x for coordinate j holding
        x, so h - t has weight N - popcount(onehot(h) & onehot(t)).
        Scaling keeps weight, so h runs over the words whose first nonzero
        coefficient is 1, and h = 0 over the nonzero t; the max over the
        stored t for one h is a single C-level pass.
        """
        if self._distance is not None:
            return self._distance
        spec = self.spec
        q = spec.q
        check_guard(q ** self.n, f"codeword enumeration [{self.N},{self.n}]_{q}", limit)
        G, split = self.G, self.n - self.n // 2
        offsets = range(0, self.N * q, q)

        def onehot(word):
            return sum(map((1).__lshift__, map(operator.add, offsets, word)))

        zero = [0] * self.N
        tails = list(map(onehot, _span(spec, zero, G[split:])))  # tails[0] is t = 0
        # h = 0 with t != 0; with n = 0 there is no nonzero codeword
        agree = max(map(int.bit_count, map(onehot(zero).__and__, tails[1:])), default=-1)
        for lead in range(split):
            for word in _span(spec, G[lead], G[lead + 1 : split]):
                agree = max(agree, max(map(int.bit_count, map(onehot(word).__and__, tails))))
        self._distance = self.N - agree
        return self._distance

    def to_json(self):
        spec = self.spec
        return {
            "q": spec.q,
            "N": self.N,
            "n": self.n,
            "generator": [[list(spec.decode(v)) for v in row] for row in self.G],
        }

    def __repr__(self):
        return f"LinearCode([{self.N},{self.n}]_{self.spec.q})"


def _span(spec, word, rows):
    """All q^len(rows) words word - c_1*rows[0] - c_2*rows[1] - ..., word first."""
    words = [word]
    for row in rows:
        words = [spec.sub_scaled(w, c, row) for w in words for c in spec.elements()]
    return words


def code_from_decomposition(alg):
    """The [N, n, >= n] code spanned by the x-side linear forms."""
    if alg.target.kind != "extension":
        raise CcmaError("code extraction needs an extension-field target")
    spec = alg.target.base
    G = linalg.transpose(alg.A)
    return LinearCode(spec, G)


class Supercode:
    """Subspace of F_{q^n} (+) F_q^N given by basis rows of length n+N."""

    def __init__(self, algebra, N, basis):
        self.algebra = algebra
        self.n = algebra.dim
        self.N = N
        self.basis = [list(r) for r in basis]
        for row in self.basis:
            if len(row) != self.n + N:
                raise CcmaError("basis row has wrong length")
        self._square_span = None

    @property
    def dim(self):
        return linalg.rank(self.algebra.base, self.basis)

    def product(self, r1, r2):
        n = self.n
        spec = self.algebra.base
        first = self.algebra.mul_coords(r1[:n], r2[:n])
        second = [spec.mul(a, b) for a, b in zip(r1[n:], r2[n:])]
        return first + second

    def square_span(self):
        """The span of all products of two basis rows, reduced once (cached).

        The products are reduced in [v | z] order, the N coordinates of the
        second block first; returns (rows, pivots) of the echelon basis.  A
        pivot at a column >= N is a row with v = 0 and z != 0.
        """
        if self._square_span is None:
            n, rows = self.n, []
            for i in range(len(self.basis)):
                for j in range(i, len(self.basis)):
                    row = self.product(self.basis[i], self.basis[j])
                    rows.append(row[n:] + row[:n])
            red, pivots = linalg.rref(self.algebra.base, rows)
            self._square_span = red[: len(pivots)], pivots
        return self._square_span

    def condition2_holds(self):
        """The second projection is injective on the square span."""
        return all(c < self.N for c in self.square_span()[1])

    def to_json(self):
        spec = self.algebra.base
        tinfo = self.algebra.describe()
        tinfo["Q"] = [list(spec.decode(c)) for c in tinfo["Q"]]
        return {
            "q": spec.q,
            "n": self.n,
            "N": self.N,
            "target": tinfo,
            "basis": [[list(spec.decode(v)) for v in row] for row in self.basis],
        }


def supercode_from_symmetric(alg):
    """Exact supercode of a verified symmetric decomposition.

    Verification implies both conditions: the first block of the rows
    (e_i | A e_i) is the identity, and W sends the second block of every
    square-span row to its first block, so no row has v = 0 and z != 0.
    """
    if not alg.symmetric:
        raise CcmaError("supercode construction needs a symmetric algorithm")
    if alg.target.kind != "extension":
        raise CcmaError("supercode construction needs an extension-field target")
    if not verify(alg):
        raise CcmaError("algorithm does not verify")
    dim = alg.target.dim
    rows = [[int(t == i) for t in range(dim)] + [row[i] for row in alg.A] for i in range(dim)]
    return Supercode(alg.target, alg.N, rows)


def symmetric_from_supercode(S):
    """Symmetric algorithm recovered from a supercode (exact sub-supercode first)."""
    spec = S.algebra.base
    n = S.n
    # exact sub-supercode: the rows with a pivot in the first block; there
    # are n of them exactly when the first projection is surjective, and
    # then their pivots are 0..n-1, so they are the rows (e_i, u(e_i))
    red, pivots = linalg.rref(spec, S.basis)
    canon = [red[r] for r, p in enumerate(pivots) if p < n]
    if len(canon) != n:
        raise SupercodeConditionError(1, "first projection not surjective")
    A = [[canon[i][n + l] for i in range(n)] for l in range(S.N)]
    # the supercode_from_symmetric rows are already canonical: S is exact
    sub = S if canon == S.basis else Supercode(S.algebra, S.N, canon)
    # condition 2 is on S's own square span, which outgrows sub's when S
    # is not exact, so it holds on sub's too
    if not S.condition2_holds():
        raise SupercodeConditionError(2, "second projection not injective on the square span")
    # W solves W v = z for every (z, v) in sub's square span: its reduction
    # in [v | z] order carries all n right-hand sides, free variables 0
    red, pivots = sub.square_span()
    W = [[0] * S.N for _ in range(n)]
    for r, c in enumerate(pivots):
        for h in range(n):
            W[h][c] = red[r][S.N + h]
    alg = BilinearAlgorithm(
        S.algebra, A, [r[:] for r in A], W, meta={"method": "supercode"}
    )
    if not verify(alg):
        raise CcmaError("recovered algorithm failed verification")
    return alg
