"""Dense linear algebra over a FieldSpec; matrices are lists of int rows.

Every reduction (`rref`, and through it `solve`, `kernel_basis`, `invert`
and `left_inverse`; `rank` by forward elimination alone) and every product
(`mat_mul`) runs on one of two paths.  Over F_{2^k} with q <= 256
(`FieldSpec.packs_rows`) a row is packed into one int, one byte per
coefficient: scaling it is one `bytes.translate` and adding two is one XOR,
each in C whatever the row length (the packed elimination of Barbulescu,
Detrey, Estibals and Zimmermann, "Finding optimal formulae for bilinear
maps", WAIFI 2012).  Every other field eliminates and multiplies on lists
through the row kernels `scaled` and `sub_scaled`.
"""


class RightFactor:
    """A right factor b of `mat_mul`, made once to multiply by it again.

    While `spec.packs_rows` each row is packed once: its bytes, to translate,
    and the int they pack, to XOR when the left entry is 1.
    """

    def __init__(self, spec, b):
        self.rows = b
        self.cols = len(b[0]) if b else 0
        self.packed = None
        if spec.packs_rows:
            self.packed = [(raw, int.from_bytes(raw, "little")) for raw in map(bytes, b)]


def mat_mul(spec, a, b):
    """The product a b; b is a list matrix or a `RightFactor`.

    While `spec.packs_rows` each nonzero entry x of a row of a adds x times
    the matching packed row of b: one translate by `spec.byte_scale(x)` and
    one XOR.  Otherwise each adds through the row kernel `sub_scaled`.
    """
    if not isinstance(b, RightFactor):
        b = RightFactor(spec, b)
    cols = b.cols
    out = []
    if b.packed is not None:
        scale = spec.byte_scale
        for row in a:
            acc = 0
            for x, (raw, packed) in zip(row, b.packed):
                if x == 1:
                    acc ^= packed
                elif x:
                    acc ^= int.from_bytes(raw.translate(scale(x)), "little")
            out.append(list(acc.to_bytes(cols, "little")))
        return out
    for row in a:
        acc = [0] * cols
        for x, bk in zip(row, b.rows):
            if x:
                acc = spec.sub_scaled(acc, spec.neg(x), bk)
        out.append(acc)
    return out


def mat_vec(spec, a, v):
    dot = spec.dot
    return [dot(row, v) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(spec, mat):
    """Reduced row echelon form; returns (matrix, pivot column list).

    The pivot of column c is the first nonzero row at or below the rows
    already pivoted; the RREF is unique, so the packed and the list path
    return the same matrix.
    """
    cols = len(mat[0]) if mat else 0
    if spec.packs_rows:
        m = [_pack(row) for row in mat]
        pivots = _reduce_packed(spec, m, cols, True)
        return [list(x.to_bytes(cols, "little")) for x in m], pivots
    m = [row[:] for row in mat]
    return m, _reduce(spec, m, cols, True)


def rank(spec, mat):
    """The rank, by forward elimination only: no back-substitution, no unpacking."""
    cols = len(mat[0]) if mat else 0
    if spec.packs_rows:
        return len(_reduce_packed(spec, [_pack(row) for row in mat], cols, False))
    return len(_reduce(spec, list(mat), cols, False))  # it replaces rows, never edits one


def _reduce(spec, m, cols, back):
    """Eliminate the list rows m in place, above each pivot too when `back`; the pivots."""
    rows = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot = m[r] = spec.scaled(spec.inv(m[r][c]), m[r])
        for i in range(0 if back else r + 1, rows):
            if i != r and m[i][c]:
                m[i] = spec.sub_scaled(m[i], m[i][c], pivot)
        pivots.append(c)
        r += 1
    return pivots


def _pack(row):
    return int.from_bytes(bytes(row), "little")


def _reduce_packed(spec, m, cols, back):
    """`_reduce` on rows packed into ints, one byte per coefficient (p = 2).

    Coefficient c of a row is (row >> 8c) & 255, and subtracting f times
    the pivot is one XOR with the pivot's bytes translated by
    `spec.byte_scale(f)`, made once per f and pivot.
    """
    rows = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        shift = 8 * c
        pr = next((i for i in range(r, rows) if m[i] >> shift & 255), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        raw = m[r].to_bytes(cols, "little")
        raw = raw.translate(spec.byte_scale(spec.inv(raw[c])))
        pivot = m[r] = int.from_bytes(raw, "little")
        multiples = {1: pivot}
        for i in range(0 if back else r + 1, rows):
            f = m[i] >> shift & 255
            if f and i != r:
                row = multiples.get(f)
                if row is None:
                    row = int.from_bytes(raw.translate(spec.byte_scale(f)), "little")
                    multiples[f] = row
                m[i] ^= row
        pivots.append(c)
        r += 1
    return pivots


def solve(spec, a, b):
    """One solution x of A x = b, or None; free variables are set to zero."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    red, pivots = rref(spec, aug)
    x = [0] * cols
    for r, c in enumerate(pivots):
        if c == cols:
            return None  # pivot in the constant column: inconsistent
        x[c] = red[r][cols]
    # rows after the last pivot must be zero
    for r in range(len(pivots), rows):
        if red[r][cols]:
            return None
    return x


def kernel_basis(spec, a):
    """Basis of the right kernel of A (list of column vectors)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    red, pivots = rref(spec, a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = spec.neg(red[r][fc])
        basis.append(v)
    return basis


def invert(spec, a):
    n = len(a)
    aug = [a[i][:] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref(spec, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def left_inverse(spec, a):
    """L with L A = I for a full-column-rank A (rows >= cols), else None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [1 if j == i else 0 for j in range(rows)] for i in range(rows)]
    red, pivots = rref(spec, aug)
    if pivots[:cols] != list(range(cols)):
        return None
    return [red[c][cols:] for c in range(cols)]
