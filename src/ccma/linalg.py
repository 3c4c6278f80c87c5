"""Dense linear algebra over a FieldSpec; matrices are lists of int rows."""


def mat_mul(spec, a, b):
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for x, bk in zip(row, b):
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
    """Reduced row echelon form; returns (matrix, pivot column list)."""
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


def rank(spec, mat):
    return len(rref(spec, mat)[1])


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
