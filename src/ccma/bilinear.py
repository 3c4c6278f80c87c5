"""Bilinear decompositions of multiplication tensors and their algebra.

A length-N algorithm for an algebra of dimension D over F_q is a triple
(A, B, W): A and B are N x D matrices of linear forms, W is D x N, and
correctness means W((A x) .* (B y)) equals the coordinates of x*y for all
x, y.  Checking this on all D^2 basis pairs is exact by bilinearity.

Every target is one `Algebra`, F_{q^m}[t]/(t^l) over F_q: the extension
field F_{q^m} is l = 1, and the local algebras of derived evaluation are
l > 1.  Karatsuba serves each two-dimensional one.
"""

import operator
from functools import partial, reduce

from . import linalg
from .bounds import winograd
from .errors import CcmaError, ConditionFailure, FieldMismatch, GuardExceeded
from .errors import MalformedPayload, PlanInfeasible, VerificationError
from .gf import (
    ExtensionRing,
    FieldSpec,
    Poly,
    digits,
    embed_element,
    embed_map,
    field_extend,
    first_generator,
    flatten,
    is_irreducible,
    least_root,
    lex_least_irreducible,
    local_columns,
    pack,
    powers,
    trunc_mul,
    unflatten,
)
from .guard import check_guard, guard_limit


class Algebra:
    """F_{q^m}[t]/(t^l) over F_q, with Q irreducible of degree m.

    The basis is x^i t^j ordered by (j, i): coordinate j*m + i.  The
    extension field F_q[x]/(Q) is l = 1, and its coordinates are the power
    basis.  Q is not re-tested: every modulus comes from the irreducible
    stream or a minimal polynomial, and outside input is tested where it
    is read (`truncated_target`, `BilinearAlgorithm.from_json`).
    """

    def __init__(self, base, Q, ell=1):
        self.base = base
        self.Q = Q.monic()
        self.ell = ell
        self.m = self.Q.degree
        self.dim = self.m * ell
        self.ring = ExtensionRing(base, self.Q)
        self._powers = None  # coordinates of x^0..x^(2m-2), for l = 1

    @property
    def n(self):
        return self.m

    @property
    def kind(self):
        return "extension" if self.ell == 1 else "truncated"

    def basis_product(self, i, k):
        """x^i1 t^j1 * x^i2 t^j2: x^(i1+i2) or its reduction row in block j1 + j2.

        The product is 0 once j1 + j2 >= l.
        """
        m = self.m
        (j1, i1), (j2, i2) = divmod(i, m), divmod(k, m)
        out = [0] * self.dim
        j, s = j1 + j2, i1 + i2
        if j < self.ell:
            out[j * m : (j + 1) * m] = (
                self.ring._red[s - m] if s >= m else [1 if t == s else 0 for t in range(m)]
            )
        return out

    def product_row(self, i):
        """The coordinates of e_i e_0, e_i e_1, ..., e_i e_(dim-1), in one list.

        For the extension field these are x^i..x^(i+m-1), a slice of the
        coordinates of x^0..x^(2m-2) (identity rows, then the ring's
        reduction rows), kept after the first call.
        """
        if self.ell > 1:
            return [c for k in range(self.dim) for c in self.basis_product(i, k)]
        m = self.m
        if self._powers is None:
            unit = [1 if t == s else 0 for s in range(m) for t in range(m)]
            self._powers = unit + [c for row in self.ring._red for c in row]
        return self._powers[i * m : (i + m) * m]

    def mul_coords(self, x, y):
        # one ring product for the field: the supercode round trip calls this
        # per pair of basis rows, and block lists cost it measurable time
        if self.ell == 1:
            return list(self.ring.mul(tuple(x), tuple(y)))
        m = self.m
        a, b = ([tuple(v[j * m : (j + 1) * m]) for j in range(self.ell)] for v in (x, y))
        return [c for block in trunc_mul(self.ring, a, b) for c in block]

    def describe(self):
        Q = list(self.Q.coeffs)
        if self.ell == 1:
            return {"kind": "extension", "n": self.m, "Q": Q}
        return {"kind": "truncated", "m": self.m, "l": self.ell, "Q": Q}

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and (self.base, self.Q, self.ell) == (other.base, other.Q, other.ell)
        )

    def __hash__(self):
        return hash((self.base, self.Q, self.ell))

    def __repr__(self):
        return f"Algebra({self.base!r}, m={self.m}, l={self.ell})"


def extension_target(base, n, Q=None):
    return truncated_target(base, n, 1, Q)


def truncated_target(base, m, ell, Q=None):
    """F_{q^m}[t]/(t^ell) over `base`, with Q the lex-least irreducible by default."""
    if Q is None:
        Q = lex_least_irreducible(base, m)
    elif Q.degree != m or not is_irreducible(Q):
        raise CcmaError("field modulus must be irreducible of degree m")
    return Algebra(base, Q, ell)


class BilinearAlgorithm:
    """A rank-N decomposition of the multiplication tensor of `target`."""

    def __init__(self, target, A, B, W, meta=None):
        self.target = target
        self.A = [list(r) for r in A]
        self.B = [list(r) for r in B]
        self.W = [list(r) for r in W]
        self.N = len(self.A)
        self.meta = dict(meta or {})
        dim = target.dim
        if len(self.B) != self.N or any(len(r) != dim for r in self.A + self.B):
            raise CcmaError("A/B shape mismatch with target dimension")
        if len(self.W) != dim or any(len(r) != self.N for r in self.W):
            raise CcmaError("W shape mismatch")

    @property
    def rank(self):
        return self.N

    @property
    def symmetric(self):
        return self.A == self.B

    def failing_pair(self):
        """The first failing basis pair (i, k) in (i, k) order, or None.

        Row i of the products e_i e_k, all k at once, is the sum over terms
        j of a_j(e_i) T_j, where T_j = b_j (x) w_j holds b_j(e_k) times
        column j of W in the slots of output k.  Each T_j is packed into one
        int, and each multiple a T_j that occurs is packed once, so the
        check costs dim * N packed additions (the packed rows of Barbulescu,
        Detrey, Estibals and Zimmermann, WAIFI 2012).  A slot is one byte per
        element over F_{2^k} with q <= 256 and over F_p with p < 128, where
        a T_j is one `bytes.translate` with `byte_scale(a)`; one byte per
        base-p digit over the other fields with p < 128; and, for larger p,
        wide enough to hold a sum of N digits.  Rows add by XOR for p = 2;
        otherwise as ints, with every byte slot taken mod p by one translate
        before it can pass 255.  The first slot that differs from
        `Algebra.product_row(i)` names k.  When A = B a failure at k < i
        fails at row k first, so the answer is that of the pairs k >= i.
        """
        target = self.target
        sp = target.base
        p, dim = sp.p, target.dim
        if sp.packs_rows or (sp.k == 1 and p < 128):
            width, slot_bits = 1, 8  # slots per element, bits per slot

            def encode(elements):
                return int.from_bytes(bytes(elements), "little")

            def outer(b_row, w_col):
                w = bytes(w_col)
                return b"".join([w.translate(sp.byte_scale(b)) for b in b_row])

            def scale(a, t):
                return int.from_bytes(t.translate(sp.byte_scale(a)), "little")
        else:
            width = sp.k
            slot_bits = 8 if p < 128 else (max(self.N, 1) * (p - 1)).bit_length()

            def encode(elements):
                return pack(flatten(sp, elements), 1 << slot_bits)

            def outer(b_row, w_col):
                return [c for b in b_row for c in sp.scaled(b, w_col)]

            def scale(a, t):
                return encode(sp.scaled(a, t))

        slots = dim * dim * width
        if p == 2:

            def total(terms):
                return reduce(operator.xor, terms, 0)
        elif slot_bits == 8:
            mod_p = FieldSpec.get(p).byte_scale(1)  # b -> b % p
            chunk = 255 // (p - 1) - 1  # terms that fit on top of a reduced row

            def total(terms):
                acc = 0
                for s in range(0, len(terms), chunk):
                    acc += sum(terms[s : s + chunk])
                    acc = int.from_bytes(acc.to_bytes(slots, "little").translate(mod_p), "little")
                return acc
        else:

            def total(terms):
                base = 1 << slot_bits
                return pack([d % p for d in digits(sum(terms), base, slots)], base)

        outers = [outer(b_row, w_col) for b_row, w_col in zip(self.B, zip(*self.W))]
        multiples = [{} for _ in outers]
        for i in range(dim):
            terms = []
            for a_row, t, cache in zip(self.A, outers, multiples):
                a = a_row[i]
                if a:
                    term = cache.get(a)
                    if term is None:
                        term = cache[a] = scale(a, t)
                    terms.append(term)
            diff = total(terms) ^ encode(target.product_row(i))
            if diff:
                element = ((diff & -diff).bit_length() - 1) // (slot_bits * width)
                return (i, element // dim)
        return None

    def to_json(self):
        base = self.target.base
        tinfo = self.target.describe()
        tinfo["Q"] = [list(base.decode(c)) for c in tinfo["Q"]]
        return {
            "q": base.q,
            "p": base.p,
            "k": base.k,
            "defining_poly": list(base.poly) if base.poly else None,
            "target": tinfo,
            "N": self.N,
            "A": [[list(base.decode(v)) for v in row] for row in self.A],
            "B": [[list(base.decode(v)) for v in row] for row in self.B],
            "W": [[list(base.decode(v)) for v in row] for row in self.W],
        }

    @classmethod
    def from_json(cls, data):
        _require_keys(data, "algorithm", ("p", "k", "target", "A", "B", "W"))
        base = _payload_base(data)
        _payload_claim(data, "q", base.q)
        tinfo = data["target"]
        _require_keys(tinfo, "target", ("kind", "Q"))
        Q = _payload_elements(tinfo["Q"], "Q", base, 1)
        if not Q or Q[-1] != base.one:
            raise MalformedPayload("Q is not monic")
        Q = Poly(base, Q)
        if tinfo["kind"] == "extension":
            _payload_claim(tinfo, "n", Q.degree)
            ell = 1
        elif tinfo["kind"] == "truncated":
            _require_keys(tinfo, "target", ("m", "l"))
            _payload_claim(tinfo, "m", Q.degree)
            # l = 1 is the extension field, whose canonical form is "extension"
            ell = _payload_int(tinfo["l"], "l", 2)
        else:
            raise CcmaError(f"unknown target kind {tinfo['kind']!r}")
        if not is_irreducible(Q):
            raise CcmaError("target modulus Q is not irreducible")
        target = Algebra(base, Q, ell)
        A, B, W = (_payload_elements(data[key], key, base, 2) for key in "ABW")
        _payload_claim(data, "N", len(A))
        return cls(target, A, B, W)


def _payload_base(data):
    """The base field of a payload's `p`, `k` and `defining_poly`.

    Algorithms and curve instances both read their field here.  The field
    size is guarded before p**k is computed, and the defining polynomial
    must be canonical as `to_json` writes it: null for a prime field, else
    a monic degree-k list of digits in [0, p).
    """
    p = _payload_int(data["p"], "p", 2)
    k = _payload_int(data["k"], "k", 1)
    limit = guard_limit()
    if k >= limit.bit_length():  # then p**k > limit; never compute it
        raise GuardExceeded(f"field F_{p}^{k}", f"{p}^{k}", limit)
    check_guard(p ** k, f"field F_{p}^{k}")
    raw = poly = data.get("defining_poly")
    if poly is not None:
        _require_list(poly, "defining_poly")
        poly = tuple(_payload_int(c, "defining_poly", 0, p) for c in poly)
    if k == 1 and poly is not None:
        raise MalformedPayload(f"defining_poly holds {raw!r}, not null (k = 1)")
    if k > 1 and (poly is None or len(poly) != k + 1 or poly[-1] != 1):
        raise MalformedPayload(f"defining_poly holds {raw!r}, not a monic degree-{k} list")
    return FieldSpec.get(p, k, poly)


def _require_keys(data, what, keys):
    if not isinstance(data, dict):
        raise MalformedPayload(f"{what} is not a JSON object")
    for key in keys:
        if key not in data:
            raise MalformedPayload(f"{what} lacks required key {key!r}")


def _require_list(value, key):
    if not isinstance(value, list):
        raise MalformedPayload(f"{key} holds {type(value).__name__} where a list belongs")


def _payload_claim(data, key, actual):
    """MalformedPayload unless data[key], when present, is the int `actual`."""
    if key in data and (type(data[key]) is not int or data[key] != actual):
        raise MalformedPayload(f"{key} claims {data[key]!r}, but the payload bears out {actual}")


def _payload_int(value, key, low, high=None):
    """`value` if it is an int in [low, high) (no upper end if None)."""
    if type(value) is not int or value < low or (high is not None and value >= high):
        span = f"in [{low}, {high})" if high is not None else f">= {low}"
        raise MalformedPayload(f"{key} holds {value!r}, not an integer {span}")
    return value


def _payload_elements(value, key, base, depth):
    """Encoded field elements nested `depth` lists deep (1: vector, 2: matrix).

    An element is a list of k digits, each an int in [0, p): digits are
    never reduced mod p, so every accepted payload is canonical.  Each
    digit is tested once; only an element that fails goes through
    `_payload_element`, which names what is wrong with it.
    """
    _require_list(value, key)
    if depth > 1:
        return [_payload_elements(v, key, base, depth - 1) for v in value]
    p, k = base.p, base.k
    out = []
    for element in value:
        if type(element) is list and len(element) == k:
            for c in element:
                if type(c) is not int or not 0 <= c < p:
                    break
            else:
                out.append(pack(element, p))
                continue
        out.append(_payload_element(element, key, base))
    return out


def _payload_element(element, key, base):
    """The encoding of one field element, else MalformedPayload naming its fault."""
    _require_list(element, key)
    if len(element) != base.k:
        raise MalformedPayload(
            f"{key} holds a field element of {len(element)} digits, not {base.k}"
        )
    return pack([_payload_int(c, key, 0, base.p) for c in element], base.p)


def verify(alg):
    """Exhaustive basis-pair check of the correctness invariant."""
    return alg.failing_pair() is None


def verify_or_raise(alg, context=""):
    pair = alg.failing_pair()
    if pair is not None:
        raise VerificationError(f"{context or 'algorithm'} fails at basis pair {pair}")
    winograd_floor(alg)
    return alg


def winograd_floor(alg):
    """Sanity gate: an extension-field decomposition has rank >= 2n-1."""
    target = alg.target
    if target.kind == "extension" and alg.N < winograd(target.base.q, target.n)[0]:
        raise VerificationError(
            f"rank {alg.N} below the 2n-1 lower bound for n={target.n}"
        )


# -- interpolation assembly ----------------------------------------------------


def place_columns(P, entry, u, bound):
    """Local evaluation at the place P on x^0..x^bound, in the entry's basis.

    The cost-table entry multiplies in F_{q^d}[t]/(t^u) over the field of
    its modulus; the place is read there through the least root of P.
    With u = 1 and bound = deg P - 1 this rebases residues mod P.
    """
    field = entry.target.ring
    root = least_root(field, P)
    if root is None:
        raise CcmaError("place modulus has no root in the entry field")
    return local_columns(field, P, root, u, bound)


def interpolation_algorithm(target, blocks, T, meta=None):
    """Assemble an evaluate / multiply locally / invert algorithm; unverified.

    Each block is (entry, X1, X2, E) for one place: a cost-table entry, the
    local evaluations X1 and X2 of the two factor spaces as maps from
    target coordinates into the entry's basis, and the rows E of the local
    evaluation of the product space in that basis.  Products are
    reconstructed by a left inverse R of the stacked E and reduced into the
    target by T: W = T R diag(entry.W).
    """
    base = target.base
    A, B, E, w_blocks = [], [], [], []
    for entry, X1, X2, rows in blocks:
        A.extend(linalg.mat_mul(base, entry.A, X1))
        B.extend(linalg.mat_mul(base, entry.B, X2))
        E.extend(rows)
        w_blocks.append(entry.W)
    R = linalg.left_inverse(base, E)
    if R is None:
        raise ConditionFailure("product-space evaluation is not injective")
    bigW = [[0] * len(A) for _ in range(len(E))]
    roff = coff = 0
    for wb in w_blocks:
        for i, row in enumerate(wb):
            bigW[roff + i][coff : coff + len(row)] = row
        roff += len(wb)
        coff += len(wb[0])
    W = linalg.mat_mul(base, linalg.mat_mul(base, T, R), bigW)
    return BilinearAlgorithm(target, A, B, W, meta=meta)


# -- elementary algorithms ---------------------------------------------------


def schoolbook(target):
    """All pairwise coordinate products; rank dim^2, asymmetric."""
    dim = target.dim
    A = []
    B = []
    for i in range(dim):
        for k in range(dim):
            A.append([1 if t == i else 0 for t in range(dim)])
            B.append([1 if t == k else 0 for t in range(dim)])
    products = [c for i in range(dim) for c in target.product_row(i)]
    W = [products[h::dim] for h in range(dim)]
    return BilinearAlgorithm(target, A, B, W, meta={"method": "schoolbook"})


def karatsuba(target):
    """Rank-3 symmetric algorithm for a two-dimensional algebra with basis 1, z.

    With z^2 = r0 + r1 z (basis_product(1, 1)) and m0 = x0 y0, m1 = x1 y1,
    m2 = (x0+x1)(y0+y1): z0 = m0 + r0 m1, z1 = m2 - m0 + (r1 - 1) m1.
    This is F_{q^2} for l = 1 and F_q[t]/(t^2), where z^2 = 0, for m = 1.
    """
    if target.dim != 2:
        raise CcmaError("karatsuba form is for two-dimensional algebras")
    sp = target.base
    r0, r1 = target.basis_product(1, 1)
    A = [[1, 0], [0, 1], [1, 1]]
    W = [[1, r0, 0], [sp.neg(1), sp.sub(r1, 1), 1]]
    return BilinearAlgorithm(target, A, [r[:] for r in A], W, meta={"method": "karatsuba"})


def truncated_order3(target):
    """Rank-5 symmetric algorithm for F_q[t]/(t^3)."""
    if target.kind != "truncated" or target.m != 1 or target.ell != 3:
        raise CcmaError("order-3 form is for F_q[t]/(t^3)")
    sp = target.base
    neg = sp.neg
    A = [
        [1, 0, 0],  # x0
        [1, 1, 0],  # x0+x1
        [0, 1, 0],  # x1
        [1, 0, 1],  # x0+x2
        [0, 0, 1],  # x2
    ]
    # z0 = m0; z1 = m1 - m0 - m2; z2 = m3 - m0 + m2 - m4
    W = [
        [1, 0, 0, 0, 0],
        [neg(1), 1, neg(1), 0, 0],
        [neg(1), 0, 1, 1, neg(1)],
    ]
    return BilinearAlgorithm(target, A, [r[:] for r in A], W, meta={"method": "trunc3"})


def trivial_rank1(target):
    if target.dim != 1:
        raise CcmaError("rank-1 form needs a one-dimensional algebra")
    return BilinearAlgorithm(target, [[1]], [[1]], [[1]], meta={"method": "trivial"})


# -- field/algebra isomorphism helpers ---------------------------------------


class _ExtFieldIso:
    """Iso between F_q[x]/(Q) (over base K) and the canonical FieldSpec."""

    def __init__(self, algebra):
        K = algebra.base
        m = algebra.n
        self.spec2 = field_extend(K, m)
        big = self.spec2
        Q_big = Poly(big, [embed_element(K, big, c) for c in algebra.Q.coeffs])
        root = least_root(big, Q_big)
        if root is None:
            raise CcmaError("modulus has no root in the canonical field")
        self.K = K
        self.m = m
        self.powers = powers(big.mul, 1, root, m)
        # F_p-matrix sending flattened K-coordinates to spec2 p-coordinates:
        # column i * k + j is the image of the j-th basis element of K times root^i
        images = embed_map(K, big)
        cols = [big.decode(big.mul(g, pw)) for pw in self.powers for g in images]
        self._fp = FieldSpec.get(K.p)
        self._to_p = linalg.transpose(cols)
        self._from_p = linalg.invert(self._fp, self._to_p)
        if self._from_p is None:
            raise CcmaError("power basis does not span the canonical field")

    def to_field(self, coords):
        """Field element with algebra coordinates `coords` (inverse of from_field)."""
        return self.spec2.encode(linalg.mat_vec(self._fp, self._to_p, flatten(self.K, coords)))

    def from_field(self, val):
        return unflatten(self.K, linalg.mat_vec(self._fp, self._from_p, self.spec2.decode(val)))

    def mul_by_matrix(self, c):
        """K-matrix of multiplication by field element c on algebra coords."""
        return linalg.transpose([self.from_field(self.spec2.mul(c, pw)) for pw in self.powers])


def _power_basis_form(A, B, W, iso, ring):
    """Rewrite a composed algorithm on the power basis of its first generator.

    (A, B, W) use tower coordinates: coordinate j*m + t stands for
    iso.powers[t] * y^j in `ring` = F_{q^m}[y]/(Q), the inner target's
    ring.  Candidates g are scanned in ascending encoding of their tower
    coordinates (`first_generator`); with theta = [g^0 ... g^(d-1)], the
    new modulus is g's minimal polynomial.
    """
    K = iso.K
    m = iso.m
    dim = m * ring.dim
    q = K.q

    def candidate(enc):
        coords = digits(enc, q, dim)
        return tuple(iso.to_field(coords[j : j + m]) for j in range(0, dim, m))

    def power_coords(g):
        return [[c for x in pw for c in iso.from_field(x)]
                for pw in powers(ring.mul, ring.one, g, dim + 1)]

    # encodings below q^m have only block-0 digits: they lie in F_{q^m}
    first = q ** m if dim > m else 1
    _, theta, theta_inv, N = first_generator(
        K, dim, map(candidate, range(first, q ** dim)), power_coords)
    return BilinearAlgorithm(
        Algebra(K, N),
        linalg.mat_mul(K, A, theta),
        linalg.mat_mul(K, B, theta),
        linalg.mat_mul(K, theta_inv, W),
    )


# -- composition --------------------------------------------------------------


def compose_tower(outer, inner):
    """Nest an algorithm over F_{q^m} inside one for F_{q^m}/F_q.

    outer multiplies in F_{q^m}/F_q, inner in F_{(q^m)^n}/F_{q^m}; the
    result multiplies in F_{q^{mn}}/F_q with rank(outer)*rank(inner).
    """
    if outer.target.kind != "extension" or inner.target.kind != "extension":
        raise FieldMismatch("tower composition needs extension-field targets")
    A, B, W, iso = _compose_blocks(outer, inner)
    out = _power_basis_form(A, B, W, iso, inner.target.ring)
    out.meta = {"method": "tower", "outer": outer.meta, "inner": inner.meta}
    return out


def compose_truncated(outer, inner):
    """Localize: outer for F_{q^d}/F_q, inner for F_{q^d}[t]/(t^u) over F_{q^d}."""
    if outer.target.kind != "extension":
        raise FieldMismatch("outer algorithm must target an extension field")
    if inner.target.m != 1:
        raise FieldMismatch("inner algorithm must target F[t]/(t^u) over the big field")
    A, B, W, _ = _compose_blocks(outer, inner)
    # the blocks already use the (j, i) basis order of the target
    target = Algebra(outer.target.base, outer.target.Q, inner.target.ell)
    meta = {"method": "localized", "outer": outer.meta, "inner": inner.meta}
    return BilinearAlgorithm(target, A, B, W, meta=meta)


def _compose_blocks(outer, inner):
    """(A, B, W) of a tower/truncated nesting in tower coordinates, and the iso.

    With M(c) the matrix of multiplication by c on outer coordinates and
    M(0) = 0, inner term s gives the rows outer.A [M(a_s0) | ... |
    M(a_s,n-1)] of A (and of B likewise), and the columns
    [M(w_0s); ...; M(w_n-1,s)] outer.W of W.
    """
    iso = _ExtFieldIso(outer.target)
    if inner.target.base != iso.spec2:
        raise FieldMismatch(f"inner base {inner.target.base!r} is not {iso.spec2!r}")
    K = outer.target.base
    mats = {0: [[0] * iso.m for _ in range(iso.m)]}

    def M(c):
        mat = mats.get(c)
        if mat is None:
            mat = mats[c] = iso.mul_by_matrix(c)
        return mat

    def rows(forms, inner_row):
        side = [[x for part in parts for x in part] for parts in zip(*map(M, inner_row))]
        return linalg.mat_mul(K, forms, side)

    A, B, w_blocks = [], [], []
    for s in range(inner.N):
        A.extend(rows(outer.A, inner.A[s]))
        B.extend(rows(outer.B, inner.B[s]))
        stacked = [r for w_row in inner.W for r in M(w_row[s])]
        w_blocks.append(linalg.mat_mul(K, stacked, outer.W))
    W = [[x for part in parts for x in part] for parts in zip(*w_blocks)]
    return A, B, W, iso


# -- brute force minimum rank -------------------------------------------------


class SearchOutcome:
    def __init__(self, rank, algorithm):
        self.rank = rank
        self.algorithm = algorithm

    @property
    def exceeded(self):
        return self.rank is None


def _monic_vectors(spec, dim):
    """Nonzero vectors with first nonzero coordinate 1, ascending."""
    q = spec.q
    vecs = (digits(enc, q, dim) for enc in range(1, q ** dim))
    return [v for v in vecs if next(c for c in v if c) == 1]


def _pivot_row(spec, v):
    """(pivot, row) for a nonzero vector: row is v scaled to a 1 at the pivot."""
    piv = next(i for i, c in enumerate(v) if c)
    return piv, spec.scaled(spec.inv(v[piv]), v)


def _eliminate(spec, v, pivot_row):
    """v minus the multiple of a pivot row that clears v at that pivot."""
    piv, row = pivot_row
    c = v[piv]
    return spec.sub_scaled(v, c, row) if c else v


def _reduce(spec, basis, v):
    """Residue of v modulo a semi-echelon basis (a list of pivot rows)."""
    for pivot_row in basis:
        v = _eliminate(spec, v, pivot_row)
    return v


def _first_spanning_combination(spec, layers, t_basis, r):
    """Lexicographically first r independent layers whose span S contains T.

    Depth-first over `itertools.combinations(range(len(layers)), r)` order.
    Each chosen layer either lies in T+S, or raises dim(T+S) by one; with r
    independent layers dim(T+S) = dim T + (raises) >= r, with equality
    exactly when T lies in S.  So a branch is cut as soon as it has more
    than r - dim T raises, and every leaf reached contains T.  A layer that
    already lies in S is skipped: a minimal decomposition has independent
    terms.  Each level carries the residues of the remaining layers modulo
    S and modulo T+S, updated by one elimination per chosen layer.
    """
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
                continue  # the layer lies in S
            w = ts_res[i - start]
            grows = any(w)
            if grows and raises == budget:
                continue
            chosen.append(i)
            if depth + 1 == r:
                return True
            s_row = _pivot_row(spec, v)
            s_next = [_eliminate(spec, x, s_row) for x in s_res[i + 1 - start :]]
            if grows:
                ts_row = _pivot_row(spec, w)
                ts_next = [_eliminate(spec, x, ts_row) for x in ts_res[i + 1 - start :]]
            else:
                ts_next = ts_res[i + 1 - start :]
            if walk(i + 1, s_next, ts_next, raises + grows):
                return True
            chosen.pop()
        return False

    ts_res = [_reduce(spec, t_basis, lay) for lay in layers]
    return chosen if walk(0, layers, ts_res, 0) else None


def check_search_space(spec, dim, max_rank, symmetric_only=False, limit=None):
    """Guard the supports `brute_force_min_rank` would walk, before any work.

    There are L^max_rank of them, L the number of rank-one layers: the
    P = (q^dim - 1)/(q - 1) projective vectors, or their P^2 pairs.
    """
    q = spec.q
    power = max_rank if symmetric_only else 2 * max_rank
    lim = guard_limit(limit)
    # P >= q^(dim-1): when that bound already exceeds the limit, never compute P
    if (q.bit_length() - 1) * (dim - 1) * power >= lim.bit_length():
        raise GuardExceeded(
            "brute-force search space", f"(({q}^{dim}-1)/{q - 1})^{power}", lim
        )
    check_guard(((q**dim - 1) // (q - 1)) ** power, "brute-force search space", lim)


def brute_force_min_rank(target, max_rank, symmetric_only=False, limit=None):
    """Exact minimum decomposition length within max_rank, with a witness.

    Rank-one terms are enumerated by their projective (phi, psi) pair.  A
    length-r decomposition is a set of r rank-one layers whose span contains
    the target space T spanned by the dim output forms; supports are walked
    in increasing r and lexicographic order, so the first support found is
    minimal, and its w coefficients are then solved linearly.
    """
    sp = target.base
    dim = target.dim
    check_search_space(sp, dim, max_rank, symmetric_only, limit)
    phis = _monic_vectors(sp, dim)
    if symmetric_only:
        pairs = [(v, v) for v in phis]
    else:
        pairs = [(a, b) for a in phis for b in phis]
    # flattened target tensor: row i * dim + k holds the coordinates of e_i e_k
    products = [c for i in range(dim) for c in target.product_row(i)]
    T = [products[s : s + dim] for s in range(0, dim ** 3, dim)]
    layers = []
    for a, b in pairs:
        lay = [0] * (dim * dim)
        for i in range(dim):
            if a[i]:
                for k in range(dim):
                    if b[k]:
                        lay[i * dim + k] = sp.mul(a[i], b[k])
        layers.append(lay)
    t_basis = []
    for h in range(dim):
        res = _reduce(sp, t_basis, [row[h] for row in T])
        if any(res):
            t_basis.append(_pivot_row(sp, res))
    for r in range(1, max_rank + 1):
        combo = _first_spanning_combination(sp, layers, t_basis, r)
        if combo is None:
            continue
        aug = [[layers[s][row] for s in combo] + T[row] for row in range(dim * dim)]
        red, pivots = linalg.rref(sp, aug)
        sol = [[0] * dim for _ in range(r)]
        for rr, c in enumerate(pivots):
            for h in range(dim):
                sol[c][h] = red[rr][r + h]
        A = [pairs[s][0][:] for s in combo]
        B = [pairs[s][1][:] for s in combo]
        W = [[sol[s][h] for s in range(r)] for h in range(dim)]
        alg = BilinearAlgorithm(
            target, A, B, W, meta={"method": "brute_force", "rank": r}
        )
        assert verify(alg)
        return SearchOutcome(r, alg)
    return SearchOutcome(None, None)


# -- candidate selection ------------------------------------------------------


STALE = object()  # a nesting candidate whose entries broke its price


def cheapest(candidates, dropped=None):
    """Build the first candidate of least price from `candidates()`.

    `candidates()` gives (price, build, detail) triples in tie-break order.
    All are priced before any is built: they are sorted stably by price and
    built in that order until one `build()` returns an algorithm rather
    than None or the error that dropped the candidate (`unless_dropped`).
    Returns that algorithm with its detail, the certificate record of its
    strategy; losing candidates are never built.  Returns None when every
    candidate drops out.  `dropped`, when given, is emptied before each
    pricing and receives (detail, error) for each candidate that drops out
    with an error; `candidates()` may add its own.

    A price is a promise, and prices only rise.  A candidate that nests
    entries builds them first, and returns STALE when one came out above
    the price it was priced from; all are then priced again.  Each retry
    follows an entry built since the last pricing, so the loop ends.  Any
    other built rank that differs from its price raises.
    """
    dropped = [] if dropped is None else dropped
    while True:
        dropped.clear()
        for price, build, detail in sorted(candidates(), key=lambda cand: cand[0]):
            alg = build()
            if alg is STALE:
                break
            if isinstance(alg, CcmaError):
                dropped.append((detail, alg))
            elif alg is not None:
                if alg.N != price:
                    raise VerificationError(f"built rank {alg.N} differs from its price {price}")
                return alg, detail
        else:
            return None


def unless_dropped(build, *args):
    """`build(*args)`, or the error when it is infeasible or hits the guard."""
    try:
        return build(*args)
    except (PlanInfeasible, GuardExceeded) as exc:
        return exc


# -- cost table ----------------------------------------------------------------


class _PriceLog:
    """A cost table's prices, logging each (d, u, price) read in order."""

    def __init__(self, table):
        self.table = table
        self.read = []

    def cost(self, d, u=1):
        price = self.table.cost(d, u)
        self.read.append((d, u, price))
        return price


# guard limit -> {field: CostTable}: the tables every planner of this
# process prices from, so an entry is built and verified once per process
_SHARED_TABLES = {}


class CostTable:
    """Certified best-known algorithms for F_{q^d}[t]/(t^u) over one base field.

    Candidates are explicit formulas, tower/truncated composition over
    strictly smaller entries, and rational-interpolation synthesis, each
    priced from the prices of the entries it nests; pricing builds nothing.
    The first candidate of least price is the only one built (`cheapest`),
    modulus search and nested entries included, and it is verified
    exhaustively when it enters the table (the test suite builds and checks
    every candidate of the small tables).

    All tables reached through `subtable` share one registry keyed by
    field: one table per field, and each entry is built once.
    `CostTable(base)` starts a private registry; `CostTable.shared(base)`
    takes its table from the process-wide registry of the active guard
    limit, which every later request of the process reuses.  An entry
    depends on its field and the guard limit alone (a candidate the guard
    drops under one limit may win under another), so no entry built under
    one limit serves a request under another.
    """

    def __init__(self, base, registry=None):
        self.base = base
        self._entries = {}
        self._prices = {}
        self._plans = {}
        self._registry = {} if registry is None else registry
        self._registry[base] = self

    @staticmethod
    def shared(base):
        """The table over `base` in the process-wide registry of the active limit."""
        registry = _SHARED_TABLES.setdefault(guard_limit(), {})
        return registry.get(base) or CostTable(base, registry)

    def subtable(self, spec):
        """The table over `spec` in this table's registry."""
        return self._registry.get(spec) or CostTable(spec, self._registry)

    def cost(self, d, u=1):
        """The entry's rank once built, else its least candidate price or schoolbook's."""
        if (d, u) not in self._prices:
            self._prices[d, u] = min((c[0] for c in self._candidates(d, u)), default=(d * u) ** 2)
        return self._prices[d, u]

    def plan(self, classes, budget):
        """(counts, total) of the least plan over (d, u, avail) `classes`.

        `genus0._lazy_plan_dp` solves a request once: the solve is stored
        with the exact prices it read, in order, and returned again while
        each is still this table's price.  An entry built above its price
        changes that price, and the next request solves again.
        """
        from . import genus0

        key = (tuple(classes), budget)
        stored = self._plans.get(key)
        if stored is not None and all(self.cost(d, u) == price for d, u, price in stored[0]):
            return stored[1]
        log = _PriceLog(self)
        solved = genus0._lazy_plan_dp(classes, budget, log)
        self._plans[key] = log.read, solved
        return solved

    def get(self, d, u=1):
        key = (d, u)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._build(d, u)
            verify_or_raise(entry, f"cost table entry ({d},{u}) over {self.base!r}")
            self._entries[key] = entry
            self._prices[key] = entry.N
        return entry

    def _build(self, d, u):
        best = cheapest(partial(self._candidates, d, u))
        return self._formula(schoolbook, d, u) if best is None else best[0]

    def _formula(self, formula, d, u):
        return formula(truncated_target(self.base, d, u))

    def _candidates(self, d, u):
        """(price, build, detail) of every construction of the (d, u) entry.

        In tie-break order: formulas and compositions, the genus-0 plan,
        then schoolbook.  `detail` is the certificate strategy record of the
        candidate: its `kind` (the `method` its algorithm's meta gets), a
        tower's `split` and the prices of the entries it nests, a genus-0 `plan`.
        """
        yield from self._composition_candidates(d, u)
        if d == u == 1:
            return  # the rank-1 formula cannot be beaten
        yield from self._genus0_candidates(d, u)
        if d * u <= 8:
            # schoolbook is only ever competitive at tiny dimensions, and its
            # quadratic rank makes verification of large entries expensive
            yield (d * u) ** 2, partial(self._formula, schoolbook, d, u), {"kind": "schoolbook"}

    def _composition_candidates(self, d, u):
        """Explicit formulas, towers and localizations for the (d, u) entry.

        For (n, 1) these are the planner's `tower` strategy.
        """
        if d == u == 1:
            yield 1, partial(self._formula, trivial_rank1, 1, 1), {"kind": "trivial"}
        if d * u == 2:
            yield 3, partial(self._formula, karatsuba, d, u), {"kind": "karatsuba"}
        if u == 1:
            for a in (a for a in range(2, d) if d % a == 0):
                sub = self.subtable(field_extend(self.base, a))
                outer, inner = self.cost(a), sub.cost(d // a)
                detail = {"kind": "tower", "split": [a, d // a],
                          "outer": {"kind": "table", "n": a, "q": self.base.q, "rank": outer},
                          "inner": {"kind": "table", "n": d // a, "q": sub.base.q, "rank": inner}}
                price = outer * inner
                yield price, partial(self._nest, compose_tower, price, a, d // a, 1), detail
        else:
            if d == 1 and u == 3:
                yield 5, partial(self._formula, truncated_order3, 1, 3), {"kind": "trunc3"}
            if d > 1:
                price = self.cost(d) * self.subtable(field_extend(self.base, d)).cost(1, u)
                yield (price, partial(self._nest, compose_truncated, price, d, 1, u),
                       {"kind": "localized"})

    def _nest(self, compose, price, a, b, u):
        """compose() of the entries (a, 1) and (b, u) over F_{q^a}, or STALE."""
        outer, inner = self.get(a), self.subtable(field_extend(self.base, a)).get(b, u)
        return STALE if outer.N * inner.N != price else compose(outer, inner)

    def _genus0_candidates(self, d, u):
        """The genus-0 plan for the (d, u) entry, if there is one.

        For (n, 1) this is the planner's `g0` strategy.  Its plan, and its
        detail's `plan`, are made when it is built; one that is infeasible or
        hits the guard then drops out, and the other candidates still answer.
        """
        from . import genus0

        *_, price = genus0.price_plan(self.base, d, u, self)
        if price is not None:
            detail = {"kind": "genus0"}
            yield price, partial(unless_dropped, self._genus0_build, price, detail, d, u), detail

    def _genus0_build(self, price, detail, d, u):
        from . import genus0

        plan = genus0.plan_search(self.base, d, u, self)
        if sum(self.get(p.degree, m).N for p, m in plan.items) != price:
            return STALE
        detail["plan"] = plan.describe()
        return genus0.build(plan, self)
