"""Dense linear algebra over a FieldSpec; matrices are lists of int rows."""


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mat_mul(spec, a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    y = bk[j]
                    if y:
                        oi[j] = spec.add(oi[j], spec.mul(x, y))
    return out


def mat_vec(spec, a, v):
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = spec.add(acc, spec.mul(x, y))
        out.append(acc)
    return out


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
        inv = spec.inv(m[r][c])
        m[r] = [spec.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(m[i], m[r])]
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
