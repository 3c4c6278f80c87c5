"""Independent output oracle for ccma certificates.

Reads the certificate JSON directly and re-derives every claim with its own
F_{p^k} arithmetic; nothing here imports ccma.  A certificate passes when

* its fields are well formed: canonical coefficients 0 <= c < p, a monic
  irreducible defining polynomial of degree k, a monic irreducible target
  modulus Q of degree n, and A, B (N x n) and W (n x N) of matching shapes;
* its claims match its matrices: q = p^k, n = deg Q, rank = N,
  symmetric = (A == B) and winograd_lower = 2n - 1;
* it multiplies: W((A e_i) o (B e_j)) = x^(i+j) mod Q for every basis pair.

Multiplication is bilinear, so the basis-pair check is exhaustive.
"""

TABLE_MAX_Q = 256


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class Field:
    """F_{p^k} on integer encodings (base-p digits, lowest degree first)."""

    def __init__(self, p, k, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p, self.k, self.q = p, k, p ** k
        if self.q > TABLE_MAX_Q:
            raise ValueError(f"F_{self.q} is beyond the oracle's table size")
        if k == 1:
            if modulus is not None:
                raise ValueError("a prime field takes no defining polynomial")
            modulus = [0, 1]
        elif modulus is None or len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree k")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("defining polynomial has non-canonical coefficients")
        self.modulus = list(modulus)
        q = self.q
        digits = [self._digits(a) for a in range(q)]
        self.add_t = [[self._undigits([(x + y) % p for x, y in zip(da, db)])
                       for db in digits] for da in digits]
        self.neg_t = [self._undigits([(-x) % p for x in da]) for da in digits]
        self.mul_t = [[self._undigits(self._mulmod_digits(da, db))
                       for db in digits] for da in digits]
        if k > 1 and not is_irreducible(Field(p, 1), self.modulus):
            raise ValueError("defining polynomial is reducible")

    def _digits(self, a):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds):
        val = 0
        for c in reversed(ds):
            val = val * self.p + c
        return val

    def _mulmod_digits(self, da, db):
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                for i in range(k + 1):
                    prod[top - k + i] = (prod[top - k + i] - c * mod[i]) % p
        return prod[:k]

    def element(self, digits):
        """Encoding of a certificate coefficient list; rejects non-canonical."""
        if not isinstance(digits, list) or len(digits) != self.k:
            raise ValueError(f"coefficient {digits!r} is not a list of {self.k} digits")
        if any(not isinstance(c, int) or not 0 <= c < self.p for c in digits):
            raise ValueError(f"coefficient {digits!r} is not canonical mod {self.p}")
        return self._undigits(digits)

    def inv(self, a):
        row = self.mul_t[a]
        return next(b for b in range(1, self.q) if row[b] == 1)


# -- polynomials over a Field: coefficient lists, lowest degree first ---------


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod(F, f, g):
    f = _trim(list(f))
    dg = len(g) - 1
    lead_inv = F.inv(g[-1])
    while len(f) - 1 >= dg:
        c = F.mul_t[f[-1]][lead_inv]
        shift = len(f) - 1 - dg
        for i, gc in enumerate(g):
            f[shift + i] = F.add_t[f[shift + i]][F.neg_t[F.mul_t[c][gc]]]
        _trim(f)
    return f


def _poly_mulmod(F, f, g, m):
    if not f or not g:
        return []
    prod = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            row = F.mul_t[x]
            for j, y in enumerate(g):
                if y:
                    prod[i + j] = F.add_t[prod[i + j]][row[y]]
    return _poly_mod(F, prod, m)


def _poly_gcd_is_one(F, f, g):
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        f, g = g, _poly_mod(F, f, g)
    return len(f) == 1


def is_irreducible(F, f):
    """Ben-Or test: gcd(x^(q^i) - x, f) = 1 for i <= deg f / 2."""
    d = len(f) - 1
    if d < 1 or f[-1] == 0:
        return False
    x = _poly_mod(F, [0, 1], f)
    cur = x
    for _ in range(d // 2):
        # cur <- cur^q mod f
        acc, base, e = [1], cur, F.q
        while e:
            if e & 1:
                acc = _poly_mulmod(F, acc, base, f)
            base = _poly_mulmod(F, base, base, f)
            e >>= 1
        cur = acc
        diff = list(cur) + [0] * (len(x) - len(cur))
        for i, c in enumerate(x):
            diff[i] = F.add_t[diff[i]][F.neg_t[c]]
        if not _poly_gcd_is_one(F, f, diff):
            return False
    return True


# -- certificate checks -------------------------------------------------------


class Rejected(Exception):
    """A certificate claim the oracle could not confirm."""


def _matrix(F, rows, nrows, ncols, name):
    if not isinstance(rows, list) or len(rows) != nrows:
        raise Rejected(f"{name} does not have {nrows} rows")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != ncols:
            raise Rejected(f"{name} row length differs from {ncols}")
        try:
            out.append([F.element(c) for c in row])
        except ValueError as exc:
            raise Rejected(f"{name}: {exc}") from None
    return out


def check_algorithm(alg):
    """Check an algorithm payload; returns (field, n, N, A, B, W) or raises Rejected."""
    try:
        F = Field(alg["p"], alg["k"], alg.get("defining_poly"))
    except (KeyError, TypeError, ValueError) as exc:
        raise Rejected(f"base field: {exc!r}") from None
    if alg.get("q") != F.q:
        raise Rejected(f"q = {alg.get('q')} but p^k = {F.q}")
    target = alg.get("target") or {}
    if target.get("kind") != "extension":
        raise Rejected(f"target kind {target.get('kind')!r} is not an extension")
    Qrows = target.get("Q")
    if not isinstance(Qrows, list) or len(Qrows) < 2:
        raise Rejected("target modulus Q is missing")
    try:
        Q = [F.element(c) for c in Qrows]
    except ValueError as exc:
        raise Rejected(f"Q: {exc}") from None
    n = len(Q) - 1
    if Q[-1] != 1:
        raise Rejected("Q is not monic")
    if target.get("n") != n:
        raise Rejected(f"target n = {target.get('n')} but deg Q = {n}")
    if not is_irreducible(F, Q):
        raise Rejected("Q is reducible")
    N = alg.get("N")
    if not isinstance(N, int) or N < 1:
        raise Rejected(f"N = {N!r} is not a positive rank")
    A = _matrix(F, alg.get("A"), N, n, "A")
    B = _matrix(F, alg.get("B"), N, n, "B")
    W = _matrix(F, alg.get("W"), n, N, "W")
    pair = failing_pair(F, Q, A, B, W)
    if pair is not None:
        raise Rejected(f"wrong product at basis pair {pair}")
    return F, n, N, A, B, W


def failing_pair(F, Q, A, B, W):
    """First basis pair (i, j) with W((A e_i) o (B e_j)) != x^(i+j) mod Q."""
    n = len(Q) - 1
    N = len(A)
    add, mul = F.add_t, F.mul_t
    powers = [_poly_mod(F, [0] * m + [1], Q) for m in range(2 * n - 1)]
    powers = [p + [0] * (n - len(p)) for p in powers]
    cols_a = [[A[l][i] for l in range(N)] for i in range(n)]
    cols_b = [[B[l][j] for l in range(N)] for j in range(n)]
    for i in range(n):
        ai = cols_a[i]
        for j in range(n):
            prods = [mul[x][y] for x, y in zip(ai, cols_b[j])]
            for h in range(n):
                acc = 0
                for w, v in zip(W[h], prods):
                    if w and v:
                        acc = add[acc][mul[w][v]]
                if acc != powers[i + j][h]:
                    return (i, j)
    return None


def check_certificate(cert, golden_rank=None):
    """Check a planner certificate and its claims; returns a list of problems."""
    try:
        F, n, N, A, B, W = check_algorithm(cert["algorithm"])
    except Rejected as exc:
        return [str(exc)]
    except (KeyError, TypeError) as exc:
        return [f"malformed certificate: {exc!r}"]
    problems = []
    claims = {
        "q": F.q,
        "n": n,
        "rank": N,
        "symmetric": A == B,
        "winograd_lower": 2 * n - 1,
    }
    for key, want in claims.items():
        if cert.get(key) != want:
            problems.append(f"claims {key} = {cert.get(key)!r}, matrices give {want!r}")
    if golden_rank is not None and N > golden_rank:
        problems.append(f"rank {N} is above the golden rank {golden_rank}")
    return problems
