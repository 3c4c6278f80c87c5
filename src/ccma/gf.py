"""Exact arithmetic in F_{p^k} and in univariate polynomial rings over it.

Elements of F_{p^k} are encoded as integers in [0, p^k): the coefficient
tuple (c_0, ..., c_{k-1}) in the power basis of the defining polynomial is
packed little-endian in base p.  Polynomials carry their coefficient field
and store trimmed little-endian coefficient tuples of such integers.

Each arithmetic primitive has one implementation here, which the field,
its quotient rings, `bilinear`, `curves` and `series` all call: the digit
codec `digits`/`pack` (integer encodings, monic enumeration, ring
elements) and `flatten`/`unflatten` (vectors over F_{p^k} as digit lists
over F_p), `power` (square and multiply under any product),
`first_generator` (the guarded scan for a generator of a field written in
another basis, for towers and inert curve places), `reduction_rows`
(x^(d+j) mod a monic modulus, for field and quotient-ring products) and
`trunc_mul` (the product in F[t]/(t^l)).

Every field with q <= 2^16 multiplies through log/antilog tables over a
fixed primitive element, built in O(q) on first use; for odd p with k > 1
it also adds through a Zech table.  Only larger fields multiply schoolbook
and add digit by digit.  Row kernels on `FieldSpec` (`scaled`, `sub_scaled`, `dot`) carry
the inner loops of polynomial and quotient-ring products, and of `linalg`
except over F_{2^k} with q <= 256, where rows are packed one byte per
coefficient (`FieldSpec.packs_rows`).

The canonical total order on monic polynomials of one degree is ascending
integer value sum(c_i * q^i); defining irreducibles are always the least
monic irreducible of their degree in this order.  Irreducibles are produced
by one ascending stream per (field, degree), memoized for the process, so
`iter_irreducibles`, `irreducibles` and `lex_least_irreducible` test each
candidate at most once.

A local ring F_q[x]/(P^u) is read as F[t]/(t^u) through its local
parameter: `local_columns` sends x to the unique xi = rho + c_1 t + ...
with P(xi) = t, for a root rho of P in a field F.  Genus-0 places (F the
field of their cost-table entry), genus-0 targets and `local_expansion`
(F = F_q[x]/(P), rho the class of x) all evaluate through it.
"""

import operator

from .errors import (
    CcmaError,
    DegreeOverflow,
    FieldMismatch,
    InvalidRequest,
    NonCoprimeModuli,
    PoleAtPlace,
)
from . import linalg
from .guard import check_guard, guard_limit

_LOG_TABLE_MAX_Q = 1 << 16


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            if not is_prime(p):
                raise InvalidRequest(f"{q} is not a prime power")
            k = 0
            v = q
            while v % p == 0:
                v //= p
                k += 1
            if v != 1:
                raise InvalidRequest(f"{q} is not a prime power")
            return p, k
    raise InvalidRequest(f"{q} is not a prime power")


def place_counts(q, N, top):
    """B_1..B_top: the places of each degree of a curve over F_q of genus len(N).

    N holds N_1..N_g, its rational points over F_{q^r}; genus 0 is the
    empty N (B_d then counts the monic irreducibles, plus infinity at d = 1).
    S_r = q^r + 1 - N_r are the power sums of the inverse roots of the
    L-polynomial sum a_k T^k: Newton's identities with a_{2g-k} = q^(g-k) a_k
    give every a_k and S_r, and N_r = sum_{d | r} d B_d is inverted degree by
    degree (Stichtenoth, *Algebraic Function Fields and Codes*, 5.1).
    """
    g = len(N)
    S = [0] + [q ** r + 1 - n for r, n in enumerate(N, 1)]
    a = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        a[k] = -sum(S[i] * a[k - i] for i in range(1, k + 1)) // k
    for k in range(g):
        a[2 * g - k] = q ** (g - k) * a[k]
    B = []
    for d in range(1, top + 1):
        if d > g:
            S.append(-d * (a[d] if d <= 2 * g else 0)
                     - sum(S[i] * a[d - i] for i in range(max(1, d - 2 * g), d)))
        B.append((q ** d + 1 - S[d] - sum(r * B[r - 1] for r in range(1, d) if d % r == 0)) // d)
    return B


# -- shared arithmetic primitives ---------------------------------------------


def digits(v, base, n):
    """The n little-endian base-`base` digits of v, as a list."""
    out = []
    for _ in range(n):
        out.append(v % base)
        v //= base
    return out


def pack(ds, base):
    """The integer with little-endian base-`base` digits ds (inverse of digits)."""
    v = 0
    for d in reversed(ds):
        v = v * base + d
    return v


def flatten(spec, xs):
    """The k base-p digits of each element of xs over F_{p^k}, in one list."""
    return [c for x in xs for c in digits(x, spec.p, spec.k)]


def unflatten(spec, flat):
    """The elements whose base-p digits are `flat`, k at a time (inverse of flatten)."""
    k, p = spec.k, spec.p
    return [pack(flat[i : i + k], p) for i in range(0, len(flat), k)]


def power(mul, one, a, e):
    """a^e for an integer e >= 0 by square and multiply under `mul`."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def powers(mul, one, g, k):
    """[g^0, g^1, ..., g^(k-1)] under `mul`, each the last times g."""
    out = [one]
    for _ in range(k - 1):
        out.append(mul(out[-1], g))
    return out


def first_generator(spec, dim, candidates, power_coords):
    """The first candidate g whose powers g^0..g^(dim-1) are independent.

    `power_coords(g)` gives the coordinates over `spec` of g^0..g^dim.
    Returns (g, theta, theta^-1, N): theta has the columns g^0..g^(dim-1),
    and N = z^dim - theta^-1 g^dim is g's minimal polynomial.  The guard
    counts the candidates tried; non-generators lie in proper subfields,
    so few are.
    """
    lim = guard_limit()
    for tried, g in enumerate(candidates, 1):
        check_guard(tried, "generator scan", lim)
        cols = power_coords(g)
        theta = linalg.transpose(cols[:dim])
        theta_inv = linalg.invert(spec, theta)
        if theta_inv is not None:
            top = linalg.mat_vec(spec, theta_inv, cols[dim])
            return g, theta, theta_inv, Poly(spec, [spec.neg(c) for c in top] + [1])
    raise CcmaError("no generator found among the candidates")


def reduction_rows(spec, modulus):
    """x^(d+j) mod `modulus` for j = 0..d-2, as tuples of d coefficients.

    `modulus` is monic of degree d over `spec`.  A product of two residues
    reduces by adding c times row j for each coefficient c of x^(d+j).
    """
    m = modulus.coeffs[:-1]
    cur = [spec.neg(c) for c in m]  # x^d
    rows = [tuple(cur)]
    for _ in range(len(m) - 2):
        # x^(d+j+1) = x * x^(d+j), whose top digit wraps around as -top * m
        cur = spec.sub_scaled([0] + cur[:-1], cur[-1], m)
        rows.append(tuple(cur))
    return rows


class FieldSpec:
    """The field F_{p^k} with a fixed monic irreducible defining polynomial.

    Element arithmetic works on the integer encoding.  A field with at most
    2^16 elements keeps log/antilog tables over its least primitive element
    g, built in O(q) when first read (`_PendingTable`): products, inverses
    and quotients are read as exp[log a + log b], and for odd p with k > 1
    sums and negatives go through the Zech table Z(n) = log(1 + g^n) and
    g^((q-1)/2) = -1.
    Larger fields multiply schoolbook with reduction and add digit by digit.
    The row kernels `scaled`, `sub_scaled` and `dot` do whole rows on the
    field's fastest path: XOR for p = 2, plain `% p` for prime fields and
    direct table indexing otherwise.  For p = 2 and q <= 256 (`packs_rows`)
    a row also packs into one int, one byte per coefficient: f times it is
    one `bytes.translate` with `byte_scale(f)`, and a sum is one XOR;
    `linalg` and `is_irreducible` work on such rows.  The translate tables
    and the rows of powers (`power_row`) are built on first use, not with
    the field.
    """

    _cache = {}
    zero = 0
    one = 1

    def __init__(self, p, k=1, poly=None):
        if not is_prime(p):
            raise CcmaError(f"characteristic {p} is not prime")
        if k < 1:
            raise CcmaError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p ** k
        if k == 1:
            if poly is not None:
                raise CcmaError("prime fields take no defining polynomial")
            self.poly = None
        elif poly is None:
            # bootstrap through the prime field, which needs no polynomial
            self.poly = lex_least_irreducible(FieldSpec.get(p), k).coeffs
        else:
            poly = tuple(c % p for c in poly)
            if len(poly) != k + 1 or poly[-1] != 1:
                raise CcmaError("defining polynomial must be monic of degree k")
            if not is_irreducible(Poly(FieldSpec.get(p), poly)):
                raise CcmaError("defining polynomial is reducible")
            self.poly = poly
        if k > 1:
            fp = FieldSpec.get(p)
            self._red = reduction_rows(fp, Poly(fp, self.poly))
        else:
            self._red = None
        # exp[n] = g^n for 0 <= n < 2(q-1), log[a] for a != 0, and for odd
        # p with k > 1 zech[n] = log(1 + g^n) (None where 1 + g^n = 0),
        # built on the first read of an item of one of them
        if self.q > _LOG_TABLE_MAX_Q:
            self._exp = self._log = self._zech = None
        else:
            self._exp = _PendingTable(self, "_exp")
            self._log = _PendingTable(self, "_log")
            self._zech = _PendingTable(self, "_zech") if p > 2 and k > 1 else None
        self.packs_rows = p == 2 and self.q <= 256
        # f -> byte_scale(f), and i -> the q-byte row of a^i over all a in F_q,
        # each built on first use
        self._byte_scales = {}
        self._power_rows = []

    @classmethod
    def get(cls, p, k=1, poly=None):
        """Canonical cached spec; same arguments give the same object."""
        key = (p, k, tuple(poly) if poly is not None else None)
        spec = cls._cache.get(key)
        if spec is None:
            spec = cls(p, k, poly)
            self_key = (p, k, spec.poly)
            spec = cls._cache.setdefault(self_key, spec)
            cls._cache[key] = spec
        return spec

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.p, self.k, self.poly))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    @property
    def _mul(self):
        """The antilog table when products are read from tables, else None."""
        return self._exp

    # -- encoding ----------------------------------------------------------

    def encode(self, coeffs):
        if len(coeffs) != self.k:
            raise CcmaError("coefficient tuple has wrong length")
        p = self.p
        return pack([c % p for c in coeffs], p)

    def decode(self, a):
        return tuple(digits(a, self.p, self.k))

    def elements(self):
        return range(self.q)

    # -- arithmetic on encodings -------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        if self._zech is None:
            return self._add_digits(a, b)
        return self._add_power(a, self._log[b]) if b else a

    def neg(self, a):
        if self.p == 2 or not a:
            return a
        if self.k == 1:
            return self.p - a
        if self._zech is None:
            return self._neg_digits(a)
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        exp = self._exp
        if exp is None:
            return self._mul_generic(a, b)
        if a and b:
            log = self._log
            return exp[log[a] + log[b]]
        return 0

    def _mul_generic(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        cb = digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits(a, p, k)):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        out = prod[:k]
        for j in range(k, 2 * k - 1):
            c = prod[j]
            if c:
                row = self._red[j - k]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return pack(out, p)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self.pow(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        return power(self.mul, 1, a, e)

    def scalar(self, c):
        """Embed an integer (prime subfield element) into the field."""
        return c % self.p

    def embed_base(self, c):
        return c

    # -- row kernels -------------------------------------------------------

    def scaled(self, f, ys):
        """The row f*ys."""
        if not f:
            return [0] * len(ys)
        if self.k == 1:
            p = self.p
            return [f * y % p for y in ys]
        exp = self._exp
        if exp is None:
            mul = self._mul_generic
            return [mul(f, y) if y else 0 for y in ys]
        log = self._log
        lf = log[f]
        return [exp[lf + log[y]] if y else 0 for y in ys]

    def sub_scaled(self, xs, f, ys):
        """The row xs - f*ys."""
        p = self.p
        if p == 2 and f == 1:
            return list(map(operator.xor, xs, ys))
        if not f:
            return list(xs)
        if self.k == 1:
            return [(x - f * y) % p for x, y in zip(xs, ys)]
        exp = self._exp
        if exp is None:
            sub, mul = self.sub, self._mul_generic
            return [sub(x, mul(f, y)) if y else x for x, y in zip(xs, ys)]
        log = self._log
        if p == 2:
            lf = log[f]
            return [x ^ exp[lf + log[y]] if y else x for x, y in zip(xs, ys)]
        # x - f*y = x + g^(log(-f) + log y)
        q1 = self.q - 1
        lf = (log[f] + q1 // 2) % q1
        add_power = self._add_power
        out = []
        for x, y in zip(xs, ys):
            if y:
                m = lf + log[y]
                x = add_power(x, m - q1 if m >= q1 else m)
            out.append(x)
        return out

    def dot(self, xs, ys):
        """The sum of xs[i]*ys[i]."""
        if self.k == 1:
            return sum(map(operator.mul, xs, ys)) % self.p
        exp = self._exp
        acc = 0
        if exp is None:
            add, mul = self.add, self._mul_generic
            for x, y in zip(xs, ys):
                if x and y:
                    acc = add(acc, mul(x, y))
            return acc
        log = self._log
        if self.p == 2:
            for x, y in zip(xs, ys):
                if x and y:
                    acc ^= exp[log[x] + log[y]]
            return acc
        q1 = self.q - 1
        add_power = self._add_power
        for x, y in zip(xs, ys):
            if x and y:
                m = log[x] + log[y]
                acc = add_power(acc, m - q1 if m >= q1 else m)
        return acc

    # -- packed rows (p = 2 and q <= 256; byte_scale also over F_p, p < 256) --

    def byte_scale(self, f):
        """The `bytes.translate` table of y -> f*y, built on the first use of f.

        Only while `packs_rows`, or over F_p with p < 256 (where any byte y
        goes to f*y mod p): a row packed one byte per coefficient is scaled
        by f in one translate of its bytes.
        """
        table = self._byte_scales.get(f)
        if table is None:
            q = self.q
            if self.k == 1 and self.p > 2:
                table = bytes(f * y % q for y in range(256))
            elif f:
                exp, lf = self._exp, self._log[f]
                table = bytes([0] + [exp[lf + n] for n in self._log[1:q]]) + bytes(256 - q)
            else:
                table = bytes(256)
            self._byte_scales[f] = table
        return table

    def power_row(self, i):
        """The q bytes a^i for a = 0, 1, ..., q - 1 (0^0 = 1), while `packs_rows`."""
        rows = self._power_rows
        while len(rows) <= i:
            e, q1 = len(rows), self.q - 1
            exp = self._exp
            rows.append(bytes([0 ** e] + [exp[n * e % q1] for n in self._log[1:]]))
        return rows[i]

    # -- table-free arithmetic and the table build ---------------------------

    def _add_power(self, a, m):
        """a + g^m through the Zech table, for 0 <= m < q - 1."""
        if not a:
            return self._exp[m]
        la = self._log[a]
        z = self._zech[m - la]  # a negative index wraps mod q - 1
        return 0 if z is None else self._exp[la + z]

    def _add_digits(self, a, b):
        p = self.p
        out = 0
        mul = 1
        while a or b:
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def _neg_digits(self, a):
        p = self.p
        out = 0
        mul = 1
        while a:
            out += ((p - a % p) % p) * mul
            a //= p
            mul *= p
        return out

    def _primitive_element(self):
        """The least encoding of multiplicative order q - 1."""
        q1 = self.q - 1
        primes = [r for r in range(2, q1 + 1) if q1 % r == 0 and is_prime(r)]
        # for k > 1 the constants have order dividing p - 1 < q - 1
        for g in range(1 if self.k == 1 else self.p, self.q):
            if all(power(self._mul_generic, 1, g, q1 // r) != 1 for r in primes):
                return g

    def _build_tables(self):
        """exp, log (and zech) over the least primitive element g, in O(q).

        Multiplication by g is F_p-linear: each step reads the images of the
        low and the high half of the digits from two tables of about sqrt(q)
        entries and adds them.
        """
        p, q = self.p, self.q
        q1 = q - 1
        g = self._primitive_element()
        unit = p ** (self.k // 2)
        mul = self._mul_generic  # digit-wise: the tables do not exist yet
        add = operator.xor if p == 2 else self._add_digits
        low = [mul(a, g) for a in range(unit)]
        high = [mul(a * unit, g) for a in range(q // unit)]
        exp = [1] * (2 * q1)
        log = [0] * q
        a = 1
        for n in range(1, q1):
            hi, lo = divmod(a, unit)
            a = add(high[hi], low[lo])
            exp[n] = a
            log[a] = n
        exp[q1:] = exp[:q1]
        if p > 2 and self.k > 1:
            # 1 + g^n differs from g^n in the constant digit only
            zech = [None] * q1
            for n in range(q1):
                e = exp[n]
                s = e + 1 if e % p != p - 1 else e + 1 - p
                if s:
                    zech[n] = log[s]
        else:
            zech = None
        self._exp, self._log, self._zech = exp, log, zech


class _PendingTable:
    """`_exp`, `_log` or `_zech` of a field of at most 2^16 elements, unbuilt.

    Reading an item or the length builds all three in place of the
    stand-ins, so later calls index plain lists.  A field that only names
    its q (a price over F_{q^d}) never builds them.  The attributes stay
    plain instance attributes: a `__getattr__` or a descriptor in their
    place would slow every read of them, and the multiply path reads `_exp`
    and `_log` on every call.
    """

    __slots__ = ("spec", "name")

    def __init__(self, spec, name):
        self.spec = spec
        self.name = name

    def _table(self):
        spec = self.spec
        if getattr(spec, self.name) is self:
            spec._build_tables()
        return getattr(spec, self.name)

    def __getitem__(self, i):
        return self._table()[i]

    def __len__(self):
        return len(self._table())


# -- polynomials over a FieldSpec -------------------------------------------


class Poly:
    """Univariate polynomial over a FieldSpec, coefficients little-endian."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.spec = spec
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls, spec):
        return cls(spec, ())

    @classmethod
    def one(cls, spec):
        return cls(spec, (1,))

    @classmethod
    def x(cls, spec):
        return cls(spec, (0, 1))

    @classmethod
    def constant(cls, spec, c):
        return cls(spec, (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def _check(self, other):
        if self.spec != other.spec:
            raise FieldMismatch("polynomials over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.coeffs))

    def __add__(self, other):
        self._check(other)
        sp = self.spec
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(sp, [sp.add(self[i], other[i]) for i in range(n)])

    def __sub__(self, other):
        self._check(other)
        sp = self.spec
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(sp, [sp.sub(self[i], other[i]) for i in range(n)])

    def __neg__(self):
        sp = self.spec
        return Poly(sp, [sp.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        sp = self.spec
        if self.is_zero() or other.is_zero():
            return Poly.zero(sp)
        ys = other.coeffs
        m = len(ys)
        prod = [0] * (len(self.coeffs) + m - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                prod[i : i + m] = sp.sub_scaled(prod[i : i + m], sp.neg(x), ys)
        return Poly(sp, prod)

    def scale(self, c):
        return Poly(self.spec, self.spec.scaled(c, self.coeffs))

    def shift(self, m):
        """Multiply by x^m."""
        if self.is_zero():
            return self
        return Poly(self.spec, (0,) * m + self.coeffs)

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        sp = self.spec
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(sp), self
        quot = [0] * (dq + 1)
        lead = other.coeffs[-1]
        # a monic divisor needs no inverse, a power beyond the log tables
        inv_lead = 1 if lead == 1 else sp.inv(lead)
        db = other.degree
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] if inv_lead == 1 else sp.mul(rem[i], inv_lead)
            if c:
                lo = i - db
                quot[lo] = c
                rem[lo : i + 1] = sp.sub_scaled(rem[lo : i + 1], c, other.coeffs)
        return Poly(sp, quot), Poly(sp, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.spec.inv(self.coeffs[-1]))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        sp = self.spec
        out = []
        for i in range(1, len(self.coeffs)):
            c = self.coeffs[i]
            s = 0
            for _ in range(i % sp.p):
                s = sp.add(s, c)
            out.append(s)
        return Poly(sp, out)

    def evaluate(self, point):
        """Horner evaluation at a base-field element (encoded int)."""
        sp = self.spec
        acc = 0
        for c in reversed(self.coeffs):
            acc = sp.add(sp.mul(acc, point), c)
        return acc

    def eval_in(self, ring, point):
        """Horner evaluation at an element of an ExtensionRing over spec."""
        acc = ring.zero
        for c in reversed(self.coeffs):
            acc = ring.add(ring.mul(acc, point), ring.embed_base(c))
        return acc

    def pow_mod(self, e, mod):
        return power(lambda a, b: a * b % mod, Poly.one(self.spec), self % mod, e)

    def order_key(self):
        """Canonical total-order key: ascending sum(c_i q^i)."""
        return (self.degree, pack(self.coeffs, self.spec.q))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


# While q is at most this, is_irreducible first scans F_q for a root at every
# degree; above it a gcd root screen does that job, since the scan's up to q
# evaluations outgrow the screen's polynomial products.  Mean us per call,
# scan/screen, on 200 random monic polynomials with a nonzero constant term
# (timeit, best of 5; 2-vCPU VM, Python 3.11), quadratics then cubics, with
# the packed scan of p = 2: q = 16 2/54 2/71; 32 2/54 3/77; 64 2/61 3/84; 128
# 3/67 3/94; 256 3/75 4/109.  Degrees 4, 8 and 14, the whole test as it is /
# with the screen first and rows from products by x^q, best of 11 interleaved
# passes, same set-up: q = 4 15/59 30/111 43/169; 8 17/83 28/155 52/267; 16
# 53/106 34/218 80/607; 32 52/116 123/261 310/522; 64 54/132 138/282 384/744;
# 128 60/143 158/302 432/676.  So for p = 2 the scan wins at every q <= 256,
# and 128 is no longer the crossover there.  The cutoff stands from the
# Horner scan, which odd p still runs and p = 2 ran before rows were packed
# (an older VM about half as fast): quadratics and cubics q = 128 89/141
# 99/200, 256 166/162 209/216; degrees 4, 8 and 14 q = 9 69/127 103/286
# 381/707, 128 225/251 256/354 622/761.
ROOT_SCAN_MAX_Q = 128


def is_irreducible(poly):
    """Butler's irreducibility test over the polynomial's coefficient field.

    Over F_q, a polynomial P of degree d >= 2 is irreducible iff it is
    squarefree (P' != 0 and gcd(P, P') = 1) and rank(Q - I) = d - 1, where
    Q is the matrix of the F_q-linear map f -> f^q on F_q[x]/(P): the kernel
    of Q - I (the Berlekamp subalgebra) has one dimension per distinct
    irreducible factor of a squarefree P.  Row i of Q is x^(iq) mod P.
    P is rejected when it has a root in F_q: while q <= ROOT_SCAN_MAX_Q by
    a scan of F_q before anything else, above that by the screen
    gcd(x^q - x, P) once x^q is known (the distinct-degree step of von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 14).  For d <= 3 a factorization has a
    linear factor, so that alone decides.  The rows come from one
    multiply-by-x chain x^0, x^1, ..., x^((d-1)q) mod P while q <= 2d and
    the scan runs: its (d - 1)q steps of one row operation each then cost
    no more than d - 1 products x^((i-1)q) * x^q mod P of about 2d row
    operations each, plus x^q itself.  Rows alone, us per polynomial,
    chain/products on lists (best of 9 interleaved passes over 30 random
    ones, 2-vCPU VM, Python 3.11), at q = 2d: q = 8 24/64, 16 143/232, 32
    870/1127, 64 5273/6047; at q = 4d the chain loses: q = 32 293/263, 64
    1755/1201.
    For p = 2 (q <= ROOT_SCAN_MAX_Q <= 256, so `packs_rows`) the scan
    evaluates P at all of F_q at once, as the XOR over i of c_i times the
    packed row (a^i) over a in F_q, one translate each, and the chain runs
    on one packed int: shift up a byte, XOR the top byte's multiple of P.
    The rows reach `linalg.rank` as lists, which it packs again.
    """
    d = poly.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    if poly[0] == 0:
        return False
    sp = poly.spec
    q = sp.q
    scan = q <= ROOT_SCAN_MAX_Q
    if scan:
        if sp.packs_rows:
            # P at every a of F_q at once, one byte per a: the XOR of the
            # rows c_i * a^i; the byte at a = 0 is P(0) != 0
            values = 0
            for i, c in enumerate(poly.coeffs):
                if c:
                    term = sp.power_row(i).translate(sp.byte_scale(c))
                    values ^= int.from_bytes(term, "little")
            if 0 in values.to_bytes(q, "little"):
                return False
        elif not all(poly.evaluate(a) for a in range(1, q)):
            return False
        if d <= 3:
            return True
    poly = poly.monic()
    deriv = poly.derivative()
    if deriv.is_zero() or poly.gcd(deriv).degree > 0:
        return False
    if scan and q <= 2 * d and sp.packs_rows:
        # x * cur on one packed int: shift up a byte, and the top byte f
        # wraps around as f * m (p = 2), read from m_scaled[f]
        m = bytes(poly.coeffs[:-1])
        m_scaled = [int.from_bytes(m.translate(sp.byte_scale(f)), "little") for f in range(q)]
        high, mask = 8 * (d - 1), (1 << 8 * d) - 1
        cur = 1
        rows = [[1] + [0] * (d - 1)]
        for _ in range(d - 1):
            for _ in range(q):
                cur = ((cur << 8) & mask) ^ m_scaled[cur >> high]
            rows.append(list(cur.to_bytes(d, "little")))
    elif scan and q <= 2 * d:
        m = poly.coeffs[:-1]
        cur = [1] + [0] * (d - 1)
        rows = [cur]
        for _ in range(d - 1):
            for _ in range(q):
                # x * cur, whose top digit wraps around as -top * m
                cur = sp.sub_scaled([0] + cur[:-1], cur[-1], m)
            rows.append(cur)
    else:
        x = Poly.x(sp)
        xq = x.pow_mod(q, poly)
        if not scan:
            if (xq - x).gcd(poly).degree > 0:
                return False
            if d <= 3:
                return True
        cur = Poly.one(sp)
        rows = []
        for i in range(d):
            if i:
                cur = (cur * xq) % poly
            rows.append([cur[j] for j in range(d)])
    for i, row in enumerate(rows):
        row[i] = sp.sub(row[i], 1)
    return linalg.rank(sp, rows) == d - 1


def iter_monic(spec, d):
    """All monic degree-d polynomials in the canonical ascending order."""
    q = spec.q
    for m in range(q ** d):
        yield Poly(spec, digits(m, q, d) + [1])


_IRREDUCIBLE_STREAMS = {}


def iter_irreducibles(spec, d):
    """Lazy ascending stream of monic irreducibles of degree d, memoized.

    All streams of one (spec, d) share a process-wide prefix of the
    irreducibles found so far and one `iter_monic` cursor: each stream
    replays the prefix, then extends it, so no candidate is tested twice.
    """
    key = (spec, d)
    memo = _IRREDUCIBLE_STREAMS.get(key)
    if memo is None:
        memo = _IRREDUCIBLE_STREAMS[key] = ([], iter_monic(spec, d))
    found, cursor = memo
    i = 0
    while True:
        while i == len(found):
            cand = next(cursor, None)
            if cand is None:
                return
            if is_irreducible(cand):
                found.append(cand)
        yield found[i]
        i += 1


def irreducibles(spec, d):
    """Complete sorted list of monic irreducibles of degree d (guarded)."""
    if d < 1:
        raise CcmaError("degree must be >= 1")
    check_guard(spec.q ** d, f"irreducibles over {spec!r} of degree {d}")
    return list(iter_irreducibles(spec, d))


def lex_least_irreducible(spec, d):
    return next(iter_irreducibles(spec, d))


def least_root(ring, poly):
    """Least root of `poly` in `ring` in ascending encoding, or None.

    `ring` is a FieldSpec or an ExtensionRing over the coefficient field of
    `poly`: both provide `q` (the number of elements), `elements`, `zero`,
    `add`, `mul` and `embed_base`.  The scan of its q elements is guarded.
    """
    check_guard(ring.q, f"root search in {ring!r}")
    for a in ring.elements():
        if poly.eval_in(ring, a) == ring.zero:
            return a
    return None


# -- field extensions --------------------------------------------------------

_EMBED_CACHE = {}


def field_extend(spec, m):
    """The field F_{q^m} realized over the prime field, canonically.

    Returns a FieldSpec of degree k*m over F_p whose defining polynomial is
    the least monic irreducible of that degree.  Nothing is embedded here:
    `embed_map` finds (and caches) the deterministic embedding of `spec`
    when a composition first needs it.
    """
    if m < 1:
        raise CcmaError("extension degree must be >= 1")
    if m == 1:
        return spec
    return FieldSpec.get(spec.p, spec.k * m)


def embed_map(sub, big):
    """Images of 1, g, g^2, ..., g^{k-1} of `sub` inside `big` (encoded).

    g is the power-basis generator of `sub`; its image is the least root of
    sub's defining polynomial in `big`.  Returns a list of length sub.k.
    """
    key = (sub, big)
    cached = _EMBED_CACHE.get(key)
    if cached is not None:
        return cached
    if big.p != sub.p or big.k % sub.k != 0:
        raise FieldMismatch("no embedding: incompatible degrees")
    if sub.k == 1:
        images = [1]
        _EMBED_CACHE[key] = images
        return images
    target = Poly(FieldSpec.get(sub.p), sub.poly)
    root = least_root(big, target)
    if root is None:
        raise CcmaError(f"no root of {target!r} in {big!r}")
    images = powers(big.mul, 1, root, sub.k)
    _EMBED_CACHE[key] = images
    return images


def embed_element(sub, big, a):
    images = embed_map(sub, big)
    coeffs = sub.decode(a)
    out = 0
    for c, img in zip(coeffs, images):
        out = big.add(out, big.mul(c % big.p, img))
    return out


# -- quotient rings F_q[x]/(f) ----------------------------------------------


class ExtensionRing:
    """F_q[x]/(f) for a monic modulus f; elements are coefficient tuples.

    The modulus need not be irreducible (t^l and P^u moduli are used for
    truncated algebras and local rings); `inv` fails on non-units.
    """

    def __init__(self, spec, modulus):
        if not modulus.is_monic() or modulus.degree < 1:
            raise CcmaError("modulus must be monic of degree >= 1")
        self.spec = spec
        self.modulus = modulus
        self.dim = modulus.degree
        self.q = spec.q ** self.dim  # number of elements, as FieldSpec.q
        self.zero = (0,) * self.dim
        self.one = self.embed_base(1)
        self._red = reduction_rows(spec, modulus)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionRing)
            and self.spec == other.spec
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.spec, self.modulus))

    def __repr__(self):
        return f"ExtensionRing({self.spec!r}, {self.modulus!r})"

    def embed_base(self, c):
        out = [0] * self.dim
        out[0] = c
        return tuple(out)

    def gen(self):
        """The class of x."""
        return self.from_poly(Poly.x(self.spec))

    # most rings in use have dimension 1 or 2, where mapping the scalar
    # operation beats a row kernel call
    def add(self, a, b):
        return tuple(map(self.spec.add, a, b))

    def sub(self, a, b):
        return tuple(map(self.spec.sub, a, b))

    def neg(self, a):
        return tuple(map(self.spec.neg, a))

    def scale(self, c, a):
        return tuple(self.spec.scaled(c, a))

    def mul(self, a, b):
        sp = self.spec
        d = self.dim
        if d == 1:
            return (sp.mul(a[0], b[0]),)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                prod[i : i + d] = sp.sub_scaled(prod[i : i + d], sp.neg(x), b)
        out = prod[:d]
        for j in range(d, 2 * d - 1):
            c = prod[j]
            if c:
                out = sp.sub_scaled(out, sp.neg(c), self._red[j - d])
        return tuple(out)

    def times_gen(self, a):
        """a times the class of x: a shift and at most one reduction row, no product."""
        sp = self.spec
        top = a[-1]
        if self.dim == 1:
            return (sp.mul(top, self._red[0][0]),)
        out = (0,) + tuple(a[:-1])
        if top:
            out = sp.sub_scaled(out, sp.neg(top), self._red[0])
        return tuple(out)

    def pow(self, a, e):
        return power(self.mul, self.one, a, e)

    def inv(self, a):
        sp = self.spec
        if self.dim == 1:
            return (sp.inv(a[0]),)
        # extended Euclid against the modulus
        r0, r1 = self.modulus, Poly(sp, a)
        s0, s1 = Poly.zero(sp), Poly.one(sp)
        while not r1.is_zero():
            qpoly, rem = r0.divmod(r1)
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - qpoly * s1
        if r0.degree != 0:
            raise ZeroDivisionError("non-unit in quotient ring")
        inv_c = sp.inv(r0.coeffs[0])
        res = s0.scale(inv_c) % self.modulus
        return self.from_poly(res)

    def from_poly(self, poly):
        poly = poly % self.modulus
        out = [0] * self.dim
        for i, c in enumerate(poly.coeffs):
            out[i] = c
        return tuple(out)

    def to_poly(self, a):
        return Poly(self.spec, a)

    def elements(self):
        """All elements in ascending encoding."""
        q, d = self.spec.q, self.dim
        for m in range(self.q):
            yield tuple(digits(m, q, d))

    def encode(self, a):
        return pack(a, self.spec.q)


# -- local parameters: F_q[x]/(P^u) as F[t]/(t^u) --------------------------


def local_columns(field, P, root, u, bound):
    """Matrix of f -> f(xi) mod t^u on the monomials x^0..x^bound.

    `field` is an ExtensionRing over P's coefficient field holding a root
    `root` (rho) of the irreducible P, and xi = rho + c_1 t + ... +
    c_{u-1} t^{u-1} is the local parameter: the unique element with
    P(xi) = t mod t^u.  x -> xi is the isomorphism F_q[x]/(P^u) ->
    field[t]/(t^u) sending P to t.  Row j * field.dim + i holds coordinate
    i of the t^j digit; column k holds xi^k.
    """
    xi = [root] + [field.zero] * (u - 1)
    if u > 1:
        inv_slope = field.inv(P.derivative().eval_in(field, root))
        for j in range(1, u):
            # P(xi + c_j t^j) = P(xi) + P'(rho) c_j t^j mod t^(j+1)
            acc = [field.zero] * u
            for c in reversed(P.coeffs):
                acc = trunc_mul(field, acc, xi)
                acc[0] = field.add(acc[0], field.embed_base(c))
            want = field.one if j == 1 else field.zero
            xi[j] = field.mul(field.sub(want, acc[j]), inv_slope)
    d = field.dim
    rows = [[0] * (bound + 1) for _ in range(d * u)]
    xi_k = [field.one] + [field.zero] * (u - 1)
    for k in range(bound + 1):
        for j, z in enumerate(xi_k):
            for i, c in enumerate(z):
                rows[j * d + i][k] = c
        xi_k = trunc_mul(field, xi_k, xi)
    return rows


def trunc_mul(field, a, b):
    """Product of two digit lists in field[t]/(t^len(a)); len(b) >= len(a).

    `field` is a FieldSpec (int elements) or an ExtensionRing (tuples); the
    truncated algebras and `series.Laurent.mul` share this one loop.
    """
    u = len(a)
    zero = field.zero
    out = [zero] * u
    for i, x in enumerate(a):
        if x != zero:
            for j in range(u - i):
                if b[j] != zero:
                    out[i + j] = field.add(out[i + j], field.mul(x, b[j]))
    return out


# -- CRT and local expansions (public module operations) --------------------

INFINITY = "infinity"


def crt_reconstruct(pairs):
    """Unique polynomial below the product degree matching all residues.

    `pairs` is a list of (modulus, residue); moduli must be powers of
    pairwise distinct irreducibles and residues must fit below them.
    """
    if not pairs:
        raise CcmaError("need at least one modulus")
    spec = pairs[0][0].spec
    for mod, res in pairs:
        if mod.spec != spec or res.spec != spec:
            raise FieldMismatch("mixed coefficient fields in CRT input")
        if mod.degree < 1:
            raise CcmaError("modulus must have degree >= 1")
        if res.degree >= mod.degree:
            raise DegreeOverflow("residue degree not below modulus degree")
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i][0].gcd(pairs[j][0]).degree > 0:
                raise NonCoprimeModuli("moduli share a factor")
    total = Poly.one(spec)
    for mod, _ in pairs:
        total = total * mod.monic()
    acc = Poly.zero(spec)
    for mod, res in pairs:
        mod = mod.monic()
        rest = total.divmod(mod)[0]
        ring = ExtensionRing(spec, mod)
        inv = ring.inv(ring.from_poly(rest))
        term = rest * (ring.to_poly(inv) * res % mod)
        acc = (acc + term) % total
    return acc


def local_expansion(num, den, place, order, normalize=False):
    """First `order` coefficients of the expansion of num/den at a place.

    Finite place: digits in the residue field F_q[x]/(P) with uniformizer P.
    Infinite place: coefficients in F_q with uniformizer 1/x.  With
    `normalize`, a pole is allowed and (pole_order, coeffs) is returned.
    """
    if order < 1:
        raise CcmaError("order must be >= 1")
    spec = num.spec
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if place == INFINITY:
        if num.is_zero():
            out = (0,) * order
            return (0, out) if normalize else out
        m = num.degree - den.degree  # pole order at infinity (if positive)
        pole = max(m, 0)
        if pole and not normalize:
            raise PoleAtPlace("pole at infinity")
        shift = pole - m  # t-adic valuation of x^{-pole} * num/den
        # with t = 1/x, x^-pole num/den is t^shift rev(num)/rev(den), and
        # rev(den)(0) is den's leading coefficient: expand at the place x
        rn, rd = (Poly(spec, tuple(reversed(f.coeffs))) for f in (num, den))
        series = local_expansion(rn, rd, Poly.x(spec), order)
        out = tuple(([0] * shift + [c for (c,) in series])[:order])
        return (pole, out) if normalize else out
    if not is_irreducible(place):
        raise CcmaError("local ring needs an irreducible place polynomial")
    pole = 0
    if den.gcd(place).degree > 0:
        # valuation bookkeeping: strip common P factors from num and den
        v = 0
        nn, dd = num, den
        while dd.gcd(place).degree > 0:
            q, r = dd.divmod(place)
            if not r.is_zero():
                break
            dd = q
            v += 1
        nv = 0
        while nv < v and not nn.is_zero():
            q, r = nn.divmod(place)
            if not r.is_zero():
                break
            nn = q
            nv += 1
        if nv < v:
            if not normalize:
                raise PoleAtPlace(f"pole of order {v - nv} at {place!r}")
            pole = v - nv
        num, den = nn, dd
    P = place.monic()
    ring = ExtensionRing(spec, power(operator.mul, Poly.one(spec), P, order))
    val = ring.mul(ring.from_poly(num), ring.inv(ring.from_poly(den)))
    residue = ExtensionRing(spec, P)
    mat = local_columns(residue, P, residue.gen(), order, ring.dim - 1)
    flat = linalg.mat_vec(spec, mat, list(val))
    d = P.degree
    coeffs = tuple(tuple(flat[j * d : (j + 1) * d]) for j in range(order))
    return (pole, coeffs) if normalize else coeffs

