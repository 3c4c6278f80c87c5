"""Interpolation on plane curves of genus 0-2.

Supported models: the projective line ("rational"), Weierstrass cubics
y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 (genus 1), and the genus-2
curve y^2 + y = x^5 over fields of characteristic 2.

Functions are represented as (a(x) + b(x) y) / den(x); Riemann-Roch spaces
are cut out of the pole-order filtration at the infinite place by local
valuation constraints, computed with truncated series expansions.
"""

from . import linalg
from .bilinear import ExtAlgebra, TruncAlgebra, entry_conversion, interpolation_algorithm
from .errors import CcmaError, ConditionFailure, DivisorSearchFailed
from .gf import ExtensionRing, FieldSpec, Poly, is_irreducible, iter_irreducibles
from .guard import check_guard
from .series import Laurent, eval_poly, newton_root

WEIERSTRASS = "weierstrass"
HYPER5 = "y2+y=x5"
RATIONAL = "rational"

# Degree-d places are enumerated only while q^d is at most this many x-values.
PLACE_SCAN_LIMIT = 4096
# Divisor candidates tried before the search gives up.
DIVISOR_CANDIDATES = 5000


class CurveModel:
    """A fixed plane model with its genus and infinite-place pole weights."""

    def __init__(self, base, shape, coefficients=(), genus=None):
        self.base = base
        self.shape = shape
        self.coefficients = tuple(coefficients)
        if shape == WEIERSTRASS:
            if len(self.coefficients) != 5:
                raise CcmaError("weierstrass model needs [a1, a2, a3, a4, a6]")
            a1, a2, a3, a4, a6 = self.coefficients
            self.h1 = Poly(base, (a3, a1))
            self.f = Poly(base, (a6, a4, a2, 1))
            self.wt_x, self.wt_y = 2, 3
            self.genus = 1
            if self._weierstrass_discriminant() == 0:
                raise CcmaError("singular weierstrass model")
        elif shape == HYPER5:
            if base.p != 2:
                raise CcmaError("y^2+y=x^5 is a characteristic-2 model")
            self.h1 = Poly.one(base)
            self.f = Poly(base, (0, 0, 0, 0, 0, 1))
            self.wt_x, self.wt_y = 2, 5
            self.genus = 2
        elif shape == RATIONAL:
            self.h1 = None
            self.f = None
            self.wt_x, self.wt_y = 1, None
            self.genus = 0
        else:
            raise CcmaError(f"unsupported curve shape {shape!r}")
        if genus is not None and genus != self.genus:
            raise CcmaError("declared genus does not match the shape")
        self.has_y = shape != RATIONAL
        self._fibers = {}
        self.infinity = CurvePlace(self, None, None, None, None)

    def _weierstrass_discriminant(self):
        sp = self.base
        a1, a2, a3, a4, a6 = self.coefficients

        def times(n, v):
            out = 0
            for _ in range(n % sp.p):
                out = sp.add(out, v)
            return out

        m = sp.mul
        b2 = sp.add(m(a1, a1), times(4, a2))
        b4 = sp.add(times(2, a4), m(a1, a3))
        b6 = sp.add(m(a3, a3), times(4, a6))
        b8 = sp.add(
            sp.add(m(m(a1, a1), a6), times(4, m(a2, a6))),
            sp.add(
                sp.neg(m(m(a1, a3), a4)),
                sp.sub(m(a2, m(a3, a3)), m(a4, a4)),
            ),
        )
        term = sp.neg(m(m(b2, b2), b8))
        term = sp.sub(term, times(8, m(b4, m(b4, b4))))
        term = sp.sub(term, times(27, m(b6, b6)))
        term = sp.add(term, times(9, m(b2, m(b4, b6))))
        return term

    def __eq__(self, other):
        return (
            isinstance(other, CurveModel)
            and self.base == other.base
            and self.shape == other.shape
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.base, self.shape, self.coefficients))

    def __repr__(self):
        return f"CurveModel({self.base!r}, {self.shape!r}, g={self.genus})"

    @classmethod
    def from_json(cls, data):
        binfo = data["base"]
        poly = binfo.get("defining_poly")
        base = FieldSpec.get(binfo["p"], binfo["k"], tuple(poly) if poly else None)
        coeffs = [base.encode(tuple(c)) if isinstance(c, list) else c
                  for c in data.get("coefficients", [])]
        return cls(base, data["shape"], coeffs, data.get("genus"))

    def describe(self):
        base = self.base
        return {
            "base": {
                "p": base.p,
                "k": base.k,
                "defining_poly": list(base.poly) if base.poly else None,
            },
            "shape": self.shape,
            "coefficients": [list(base.decode(c)) for c in self.coefficients],
            "genus": self.genus,
        }

    def ambient_monomials(self, M):
        """Monomials x^i y^j with pole order at infinity at most M."""
        out = []
        if M < 0:
            return out
        for i in range(M // self.wt_x + 1):
            out.append((i, 0, i * self.wt_x))
        if self.has_y:
            top = M - self.wt_y
            for i in range(top // self.wt_x + 1) if top >= 0 else []:
                out.append((i, 1, i * self.wt_x + self.wt_y))
        out.sort(key=lambda t: (t[2], t[1]))
        return [(i, j) for i, j, _ in out]

    def monomial_func(self, i, j):
        xs = Poly(self.base, (0,) * i + (1,))
        if j == 0:
            return FuncElem(self, xs, Poly.zero(self.base), Poly.one(self.base))
        return FuncElem(self, Poly.zero(self.base), xs, Poly.one(self.base))


class CurvePlace:
    """A closed point: the infinite place or a Frobenius orbit of a point.

    Affine places carry the monic irreducible x_min, the residue field as
    a quotient ring over the base, and one representative point (xi, beta).
    """

    def __init__(self, curve, x_min, residue, xi, beta, ramified=False):
        self.curve = curve
        self.x_min = x_min
        self.residue = residue
        self.xi = xi
        self.beta = beta
        self.ramified = ramified
        if x_min is None:
            self.degree = 1
            self.x_deg = None
        else:
            self.degree = residue.dim
            self.x_deg = x_min.degree

    @property
    def is_infinity(self):
        return self.x_min is None

    def order_key(self):
        if self.is_infinity:
            return (self.degree, 1, (), ())
        return (self.degree, 0, self.x_min.order_key(), self.beta)

    def __eq__(self, other):
        if not isinstance(other, CurvePlace):
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity and self.curve == other.curve
        return (
            self.curve == other.curve
            and self.x_min == other.x_min
            and self.beta == other.beta
        )

    def __hash__(self):
        if self.is_infinity:
            return hash((self.curve, "inf"))
        return hash((self.curve, self.x_min, self.beta))

    def __repr__(self):
        if self.is_infinity:
            return "CurvePlace(inf)"
        return f"CurvePlace(deg={self.degree}, x_min={self.x_min!r})"

    def describe(self):
        if self.is_infinity:
            return "inf"
        return {
            "x_min": list(self.x_min.coeffs),
            "beta": list(self.beta),
            "deg": self.degree,
        }


class FuncElem:
    """(a(x) + b(x) y) / den(x) reduced modulo the curve equation."""

    def __init__(self, curve, a, b, den=None):
        self.curve = curve
        self.a = a
        self.b = b
        self.den = den if den is not None else Poly.one(curve.base)
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")

    def normalize(self):
        g = self.a.gcd(self.b).gcd(self.den)
        if g.degree > 0:
            a = self.a.divmod(g)[0]
            b = self.b.divmod(g)[0]
            den = self.den.divmod(g)[0]
        else:
            a, b, den = self.a, self.b, self.den
        lead = den.coeffs[-1]
        if lead != 1:
            inv = self.curve.base.inv(lead)
            a = a.scale(inv)
            b = b.scale(inv)
            den = den.scale(inv)
        return FuncElem(self.curve, a, b, den)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def add(self, other):
        a = self.a * other.den + other.a * self.den
        b = self.b * other.den + other.b * self.den
        return FuncElem(self.curve, a, b, self.den * other.den).normalize()

    def mul(self, other):
        curve = self.curve
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        aa = a1 * a2
        cross = a1 * b2 + a2 * b1
        bb = b1 * b2
        if curve.has_y:
            # y^2 = f - h1 y
            a = aa + bb * curve.f
            b = cross - bb * curve.h1
        else:
            a = aa
            b = Poly.zero(curve.base)
        return FuncElem(curve, a, b, self.den * other.den).normalize()

    def scale(self, c):
        return FuncElem(self.curve, self.a.scale(c), self.b.scale(c), self.den)

    def __eq__(self, other):
        if not isinstance(other, FuncElem):
            return False
        lhs = (self.a * other.den, self.b * other.den)
        rhs = (other.a * self.den, other.b * self.den)
        return lhs == rhs

    def __repr__(self):
        return f"FuncElem(({self.a!r}) + ({self.b!r})*y) / ({self.den!r})"


# -- quadratic solving in residue fields -------------------------------------


def _flatten_f2(K, v):
    out = []
    for c in v:
        out.extend(K.spec.decode(c) if K.spec.k > 1 else (c,))
    return out


def _unflatten_f2(K, bits):
    k = K.spec.k
    out = []
    for i in range(K.dim):
        chunk = tuple(bits[i * k : (i + 1) * k])
        out.append(K.spec.encode(chunk) if k > 1 else chunk[0])
    return tuple(out)


def solve_y_quadratic(K, c, v):
    """Solutions y in the field K of y^2 + c y = v, sorted by encoding."""
    sp = K.spec
    if sp.p == 2:
        nbits = sp.k * K.dim
        if c == K.zero:
            # Frobenius is bijective: unique (ramified) square root
            return [K.pow(v, 1 << (nbits - 1))], True
        f2 = FieldSpec.get(2)
        cols = []
        for i in range(nbits):
            bits = [0] * nbits
            bits[i] = 1
            z = _unflatten_f2(K, bits)
            img = K.add(K.mul(z, z), z)
            cols.append(_flatten_f2(K, img))
        mat = [[cols[j][i] for j in range(nbits)] for i in range(nbits)]
        w = K.mul(v, K.inv(K.mul(c, c)))
        sol = linalg.solve(f2, mat, _flatten_f2(K, w))
        if sol is None:
            return [], False
        z0 = _unflatten_f2(K, sol)
        y0 = K.mul(c, z0)
        y1 = K.add(y0, c)
        return sorted({y0, y1}, key=K.encode), False
    # odd characteristic: complete the square
    half = K.embed_base(sp.inv(sp.scalar(2)))
    shift = K.mul(half, c)
    rhs = K.add(v, K.mul(shift, shift))
    roots = sqrt_in_field(K, rhs)
    if not roots:
        return [], False
    sols = sorted({K.sub(r, shift) for r in roots}, key=K.encode)
    return sols, rhs == K.zero


def sqrt_in_field(K, a):
    """Square roots of a in the field K (empty when a is a non-residue)."""
    sp = K.spec
    size = sp.q ** K.dim
    if a == K.zero:
        return [K.zero]
    ls = K.pow(a, (size - 1) // 2)
    if ls != K.one:
        return []
    if size % 4 == 3:
        r = K.pow(a, (size + 1) // 4)
    else:
        r = _tonelli_shanks(K, a, size)
    return sorted({r, K.neg(r)}, key=K.encode)


def _tonelli_shanks(K, a, size):
    q = size - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    nonres = None
    for enc in range(2, size):
        cand = _decode_elem(K, enc)
        if K.pow(cand, (size - 1) // 2) != K.one and cand != K.zero:
            nonres = cand
            break
    z = K.pow(nonres, q)
    m = s
    c = z
    t = K.pow(a, q)
    r = K.pow(a, (q + 1) // 2)
    while t != K.one:
        i = 0
        tt = t
        while tt != K.one:
            tt = K.mul(tt, tt)
            i += 1
        b = c
        for _ in range(m - i - 1):
            b = K.mul(b, b)
        m = i
        c = K.mul(b, b)
        t = K.mul(t, c)
        r = K.mul(r, b)
    return r


def _decode_elem(K, enc):
    q = K.spec.q
    out = []
    for _ in range(K.dim):
        out.append(enc % q)
        enc //= q
    return tuple(out)


# -- place enumeration ---------------------------------------------------------


def fiber_places(curve, x_min):
    """All places of the curve above the x-line place x_min."""
    cached = curve._fibers.get(x_min)
    if cached is not None:
        return cached
    base = curve.base
    K = ExtensionRing(base, x_min)
    xi = K.gen()
    if not curve.has_y:
        places = [CurvePlace(curve, x_min, K, xi, K.zero, ramified=False)]
    else:
        c = curve.h1.eval_in(K, xi)
        v = curve.f.eval_in(K, xi)
        sols, ramified = solve_y_quadratic(K, c, v)
        if sols:
            places = [
                CurvePlace(curve, x_min, K, xi, beta, ramified=(len(sols) == 1))
                for beta in sols
            ]
        else:
            inert = _inert_place(curve, x_min, K, xi, c, v)
            places = [inert] if inert is not None else []
    curve._fibers[x_min] = places
    return places


def _inert_place(curve, x_min, K_e, xi, c, v):
    """The degree-2e place above x_min when the quadratic stays irreducible."""
    base = curve.base
    e = x_min.degree
    # norm of T^2 + cT - v over the conjugates of xi
    conj_c, conj_v = c, v
    prod = [(K_e.neg(v), c, K_e.one)]  # quadratic as (const, lin, quad) over K_e
    for _ in range(e - 1):
        conj_c = K_e.pow(conj_c, base.q)
        conj_v = K_e.pow(conj_v, base.q)
        prod.append((K_e.neg(conj_v), conj_c, K_e.one))
    poly = [K_e.one]
    for quad in prod:
        out = [K_e.zero] * (len(poly) + 2)
        for i, pc in enumerate(poly):
            if pc == K_e.zero:
                continue
            for j, qc in enumerate(quad):
                out[i + j] = K_e.add(out[i + j], K_e.mul(pc, qc))
        poly = out
    coeffs = []
    for pc in poly:
        as_poly = K_e.to_poly(pc)
        if as_poly.degree > 0:
            raise CcmaError("norm polynomial is not rational")
        coeffs.append(as_poly[0])
    N = Poly(base, coeffs)
    if not is_irreducible(N):
        return None
    K_P = ExtensionRing(base, N.monic())
    beta = K_P.gen()
    # express the x-coordinate in the power basis of beta: the compositum
    # K_e[y]/(y^2 + cy - v) has basis x^i y^j, and powers of y span it
    dim = 2 * e

    def flat(pair):
        return list(pair[0]) + list(pair[1])

    def mul_y(pair):
        a, b = pair
        # (a + b y) y = b v + (a - b c) y
        return (K_e.mul(b, v), K_e.sub(a, K_e.mul(b, c)))

    power = (K_e.one, K_e.zero)
    cols = [flat(power)]
    for _ in range(dim - 1):
        power = mul_y(power)
        cols.append(flat(power))
    mat = [[cols[t][i] for t in range(dim)] for i in range(dim)]
    target = flat((K_e.gen(), K_e.zero))
    sol = linalg.solve(base, mat, target)
    if sol is None:
        raise CcmaError("inert place construction failed to locate x")
    xroot = tuple(sol)
    lhs = K_P.add(K_P.mul(beta, beta), K_P.mul(curve.h1.eval_in(K_P, xroot), beta))
    assert lhs == curve.f.eval_in(K_P, xroot)
    return CurvePlace(curve, x_min, K_P, xroot, beta, ramified=False)


def enumerate_curve_places(curve, d, limit=None):
    """Complete sorted list of degree-d places (guarded enumeration)."""
    if d < 1:
        raise CcmaError("degree must be >= 1")
    base = curve.base
    check_guard(base.q ** d, f"place enumeration degree {d} on {curve!r}", limit)
    out = []
    for m in iter_irreducibles(base, d):
        out.extend(p for p in fiber_places(curve, m) if p.degree == d)
    if d % 2 == 0 and curve.has_y:
        for m in iter_irreducibles(base, d // 2):
            out.extend(p for p in fiber_places(curve, m) if p.degree == d)
    out.sort(key=CurvePlace.order_key)
    if d == 1:
        out.append(curve.infinity)
    return out


def find_place_of_degree(curve, n):
    """Deterministic degree-n place: least liftable x_min, least beta."""
    base = curve.base
    tries = 0
    cap = 64 * n * base.q
    for m in iter_irreducibles(base, n):
        tries += 1
        if tries > cap:
            break
        places = fiber_places(curve, m)
        for p in places:
            if p.degree == n and not p.ramified:
                return p
        for p in places:
            if p.degree == n:
                return p
    raise CcmaError(f"no degree-{n} place found within {cap} candidates")


# -- local frames (series expansions) -----------------------------------------


class Frame:
    """Series of x and y in a uniformizer at one place, to a set precision."""

    def __init__(self, place, prec):
        self.place = place
        self.prec = prec
        curve = place.curve
        base = curve.base
        if place.is_infinity:
            self.ring = base
            self.sx, self.sy = _infinity_series(curve, prec)
            return
        K = place.residue
        self.ring = K
        if place.curve.has_y and place.ramified and place.degree == 1:
            # uniformizer y - y0; solve for the x series
            y0 = place.beta
            t = Laurent.uniformizer(K, prec + 1)
            sy = t.add(Laurent.from_constant(K, y0, prec + 1))
            coeffs = []
            top = curve.f.degree
            ysq = sy.mul(sy)
            h = curve.h1
            for i in range(top + 1):
                term = Laurent.from_constant(K, K.embed_base(curve.base.neg(curve.f[i])), prec + 1)
                if i <= h.degree and h[i]:
                    term = term.add(sy.scale(K.embed_base(h[i])))
                if i == 0:
                    term = term.add(ysq)
                coeffs.append(term.truncate(prec + 1))
            self.sx = newton_root(coeffs, place.xi, K, prec)
            self.sy = sy.truncate(prec)
            return
        if place.x_deg != place.degree:
            raise CcmaError("series frames unsupported at inert places")
        if place.ramified:
            raise CcmaError("series frames unsupported at this ramified place")
        # uniformizer x_min(x); x series from x_min(x(t)) = t, then y by Newton
        t = Laurent.uniformizer(K, prec + 1)
        coeffs = []
        for i in range(place.x_min.degree + 1):
            term = Laurent.from_constant(K, K.embed_base(place.x_min[i]), prec + 1)
            if i == 0:
                term = term.sub(t)
            coeffs.append(term)
        sx = newton_root(coeffs, place.xi, K, prec)
        self.sx = sx
        if not curve.has_y:
            self.sy = Laurent.from_constant(K, K.zero, prec)
            return
        fx = eval_poly(curve.f, sx, K, prec)
        hx = eval_poly(curve.h1, sx, K, prec)
        ycoeffs = [fx.neg(), hx, Laurent.from_constant(K, K.one, prec)]
        self.sy = newton_root(ycoeffs, place.beta, K, prec)

    def eval_func(self, fe):
        ring = self.ring
        prec = self.prec
        num = eval_poly(fe.a, self.sx, ring, prec)
        if not fe.b.is_zero():
            num = num.add(eval_poly(fe.b, self.sx, ring, prec).mul(self.sy).truncate(prec))
        den = eval_poly(fe.den, self.sx, ring, prec)
        return num.mul(den.inv()).truncate(prec)


def _infinity_series(curve, prec):
    base = curve.base
    if not curve.has_y:
        sx = Laurent(base, -1, [1] + [0] * prec, prec)  # x = 1/t exactly
        sy = Laurent.from_constant(base, 0, prec)
        return sx, sy
    window = prec + 2 * curve.wt_y
    if curve.shape == WEIERSTRASS:
        a1, a2, a3, a4, a6 = curve.coefficients
        t = Laurent.uniformizer(base, window)

        def mono(c, k):
            out = Laurent.from_constant(base, c, window)
            return out.mul(t.pow(k).truncate(window)) if k else out

        c0 = mono(a6, 6)
        c1 = mono(base.neg(a3), 3).add(mono(a4, 4))
        c2 = Laurent.from_constant(base, base.neg(1), window).add(
            mono(base.neg(a1), 1)
        ).add(mono(a2, 2))
        c3 = Laurent.from_constant(base, 1, window)
        s = newton_root([c0, c1, c2, c3], 1, base, window)
        sx = s.shift(-2)
        sy = s.shift(-3)
    else:  # y^2 + y = x^5
        t = Laurent.uniformizer(base, window)
        c2 = t.pow(5).truncate(window).neg()
        zero = Laurent.from_constant(base, 0, window)
        c4 = Laurent.from_constant(base, base.neg(1), window)
        c5 = Laurent.from_constant(base, 1, window)
        s = newton_root([zero, zero, c2, zero, c4, c5], 1, base, window)
        sx = s.shift(-2)
        sy = s.mul(s).truncate(window).shift(-5)
    return sx, sy


# -- expansions and evaluation matrices ----------------------------------------


def residue_coords(place, value):
    """Coordinates of a residue-field value over the base field."""
    if place.is_infinity:
        return [value]
    return list(value)


def func_values_at(curve, funcs, place, order):
    """Expansion coefficients to the given order for each function.

    Returns a list (per function) of `order` residue-field values; uses
    plain evaluation when possible and series frames otherwise.
    """
    if place.is_infinity:
        return _frame_values(curve, funcs, place, order)
    K = place.residue
    if order == 1:
        # the residue ring is a field: every nonzero denominator is a unit
        dens = [f.den.eval_in(K, place.xi) for f in funcs]
        if K.zero not in dens:
            out = []
            for f, denv in zip(funcs, dens):
                num = f.a.eval_in(K, place.xi)
                if curve.has_y and not f.b.is_zero():
                    num = K.add(num, K.mul(f.b.eval_in(K, place.xi), place.beta))
                out.append([K.mul(num, K.inv(denv))])
            return out
    return _frame_values(curve, funcs, place, order)


def _frame_values(curve, funcs, place, order):
    den_deg = max((f.den.degree for f in funcs), default=0)
    extra = 2 * max(den_deg, 1) + 2
    prec = order + extra
    while True:
        frame = Frame(place, prec)
        try:
            series = [frame.eval_func(f) for f in funcs]
        except CcmaError:
            prec *= 2
            if prec > 16 * (order + extra):
                raise
            continue
        if all(s.prec >= order for s in series):
            out = []
            for s in series:
                if s.normalized_val() < 0:
                    raise CcmaError("function has a pole at an evaluation place")
                out.append([s.coefficient(e) for e in range(order)])
            return out
        prec *= 2


def evaluation_rows(curve, funcs, place, order, conv=None):
    """Stacked base-field rows of the order-u derived evaluation at a place.

    Row layout: u blocks of deg(place) rows; an optional conv matrix
    rebases each residue value (e.g. into a cost-table entry's field).
    """
    base = curve.base
    d = place.degree
    values = func_values_at(curve, funcs, place, order)
    rows = [[0] * len(funcs) for _ in range(order * d)]
    for col, vals in enumerate(values):
        for j in range(order):
            vec = residue_coords(place, vals[j])
            if conv is not None:
                vec = linalg.mat_vec(base, conv, vec)
            for i in range(d):
                rows[j * d + i][col] = vec[i]
    return rows


# -- divisors and Riemann-Roch spaces -------------------------------------------


class CurveDivisor:
    """Finite formal sum of places with integer coefficients."""

    def __init__(self, curve, support=None):
        self.curve = curve
        self.support = {}
        for place, c in (support or {}).items():
            if c:
                self.support[place] = c

    @property
    def degree(self):
        return sum(p.degree * c for p, c in self.support.items())

    def get(self, place):
        return self.support.get(place, 0)

    def add(self, other):
        out = dict(self.support)
        for p, c in other.support.items():
            out[p] = out.get(p, 0) + c
        return CurveDivisor(self.curve, out)

    def scale(self, k):
        return CurveDivisor(self.curve, {p: k * c for p, c in self.support.items()})

    def sub(self, other):
        return self.add(other.scale(-1))

    def items_sorted(self):
        return sorted(self.support.items(), key=lambda pc: pc[0].order_key())

    def __eq__(self, other):
        return isinstance(other, CurveDivisor) and self.support == other.support

    def __repr__(self):
        parts = [f"{c}*{p!r}" for p, c in self.items_sorted()]
        return "CurveDivisor(" + " + ".join(parts) + ")" if parts else "CurveDivisor(0)"

    def describe(self):
        return [[p.describe(), c] for p, c in self.items_sorted()]


def riemann_roch_basis(curve, D, limit=None):
    """Basis of L(D) = {f : div(f) + D >= 0}, as FuncElem values.

    Functions are written h/u with u(x) collecting the positive affine part
    of D; h ranges over the pole filtration at infinity subject to local
    valuation constraints imposed via series expansions.
    """
    base = curve.base
    c_inf = D.get(curve.infinity)
    u_mults = {}
    for place, c in D.support.items():
        if place.is_infinity or c <= 0:
            continue
        e = 2 if place.ramified else 1
        need = -(-c // e)
        prev = u_mults.get(place.x_min, 0)
        u_mults[place.x_min] = max(prev, need)
    u_poly = Poly.one(base)
    for m, k in sorted(u_mults.items(), key=lambda kv: kv[0].order_key()):
        for _ in range(k):
            u_poly = u_poly * m
    M = c_inf + curve.wt_x * u_poly.degree
    monomials = curve.ambient_monomials(M)
    if not monomials:
        return []
    funcs = [curve.monomial_func(i, j) for i, j in monomials]
    # constraint places: zeros of u_poly and negative-coefficient places
    rows = []
    handled = set()
    for m, k in sorted(u_mults.items(), key=lambda kv: kv[0].order_key()):
        for place in fiber_places(curve, m):
            handled.add(place)
            val_u = (2 if place.ramified else 1) * k
            r = val_u - D.get(place)
            if r > 0:
                rows.extend(evaluation_rows(curve, funcs, place, r))
    for place, c in D.items_sorted():
        if place.is_infinity or place in handled:
            continue
        if c < 0:
            rows.extend(evaluation_rows(curve, funcs, place, -c))
    if rows:
        kern = linalg.kernel_basis(base, rows)
    else:
        kern = [[1 if i == j else 0 for i in range(len(funcs))] for j in range(len(funcs))]
    out = []
    for vec in kern:
        a = Poly.zero(base)
        b = Poly.zero(base)
        for coef, (i, j) in zip(vec, monomials):
            if not coef:
                continue
            mono = Poly(base, (0,) * i + (coef,))
            if j == 0:
                a = a + mono
            else:
                b = b + mono
        out.append(FuncElem(curve, a, b, u_poly).normalize())
    return out


def rr_dim(curve, D, limit=None):
    return len(riemann_roch_basis(curve, D, limit))


# -- interpolation conditions ----------------------------------------------------


def check_conditions(curve, Q, D1, D2, items, ell=1, limit=None):
    """Diagnostic report of the paper's rank and numerical criteria."""
    _check_supports(Q, D1, D2, items)
    n = Q.degree
    g = curve.genus
    report = {"n": n, "genus": g, "l": ell, "supports_disjoint": True}
    base = curve.base
    same = D1 == D2
    L1 = riemann_roch_basis(curve, D1, limit)
    L2 = L1 if same else riemann_roch_basis(curve, D2, limit)
    m1 = evaluation_rows(curve, L1, Q, ell)
    m2 = m1 if same else evaluation_rows(curve, L2, Q, ell)
    report["a_onto"] = (
        linalg.rank(base, m1) == n * ell and linalg.rank(base, m2) == n * ell
    )
    D12 = D1.add(D2)
    L12 = riemann_roch_basis(curve, D12, limit)
    rows = []
    for place, u in items:
        rows.extend(evaluation_rows(curve, L12, place, u))
    report["b_injective"] = linalg.rank(base, rows) == len(L12)
    # numerical criteria
    for label, Dk in (("1", D1), ("2", D2)):
        if label == "1" or not same:
            A = Dk.sub(CurveDivisor(curve, {Q: ell}))
            index = rr_dim(curve, A, limit) - (A.degree + 1 - g)
        report[f"i_D{label}_minus_lQ"] = index
        report[f"a_sufficient_D{label}"] = index == 0
    G = CurveDivisor(curve, {p: u for p, u in items})
    report["dim_D1_D2_minus_G"] = rr_dim(curve, D12.sub(G), limit)
    report["b_necessary_sufficient"] = report["dim_D1_D2_minus_G"] == 0
    q = base.q
    report["q_existence_bound"] = (2 * g + 1) <= q ** ((n - 1) / 2) * (q ** 0.5 - 1)
    return report


def _check_supports(Q, D1, D2, items):
    """ConditionFailure unless Q, the places of G and supp D1, D2 are disjoint."""
    supp = set(D1.support) | set(D2.support)
    if Q in supp or any(p in supp or p == Q for p, _ in items):
        raise ConditionFailure("support overlap between divisors, Q, or places")


# -- divisor search ----------------------------------------------------------------


def find_divisor(curve, Q, items, cost_table, limit=None, places=None):
    """(D, algorithm) for the first divisor D of degree n+g-1 that builds.

    The build decides both conditions (evaluation at Q onto L(D), evaluation
    at G injective on L(2D)); a ConditionFailure moves on to the next
    candidate.  For n >= g every candidate is non-special, l(D) = n, and the
    conditions are L(D-Q) = 0 and L(2D-G) = 0.  Deterministic bounded
    search; raises DivisorSearchFailed when the candidate budget is
    exhausted (never silently degrades).  `places` maps a degree to its
    enumerated places; the support pool reads it and adds the degrees it
    enumerates, so a caller that passes one dict enumerates each degree once.
    """
    n = Q.degree
    g = curve.genus
    if sum(p.degree * u for p, u in items) < 2 * n + g - 1:
        raise CcmaError("deg G must be at least 2n+g-1")
    target_deg = n + g - 1
    eval_places = {p for p, _ in items}
    pool = _support_pool(curve, Q, eval_places, target_deg, limit, places)
    tried = 0
    for D in _divisor_candidates(curve, eval_places, target_deg, pool):
        if tried == DIVISOR_CANDIDATES:
            break
        tried += 1
        try:
            return D, ccma_build_curve(curve, Q, D, D, items, 1, cost_table, limit)
        except ConditionFailure:
            continue
    raise DivisorSearchFailed(
        f"no divisor of degree {target_deg} found within {tried} candidates"
    )


def _divisor_candidates(curve, eval_places, target_deg, pool):
    O = curve.infinity
    if O not in eval_places:
        yield CurveDivisor(curve, {O: target_deg})
        top = min(2 * curve.genus + 2, target_deg)
        for k in range(1, top + 1):
            for combo in _multisets(pool, k):
                support = {O: target_deg - k}
                for p in combo:
                    support[p] = support.get(p, 0) + 1
                yield CurveDivisor(curve, support)
    else:
        for combo in _multisets(pool, target_deg):
            support = {}
            for p in combo:
                support[p] = support.get(p, 0) + 1
            yield CurveDivisor(curve, support)


def _support_pool(curve, Q, eval_places, target_deg, limit, places):
    places = {} if places is None else places
    pool = []
    for d in range(1, target_deg + 1):
        if curve.base.q ** d > PLACE_SCAN_LIMIT:
            break
        if d not in places:
            try:
                places[d] = enumerate_curve_places(curve, d, limit)
            except CcmaError:
                break
        for p in places[d]:
            if p.is_infinity or p in eval_places or p == Q:
                continue
            if p.ramified or p.x_deg != p.degree:
                continue  # keep the series machinery on supported ground
            pool.append(p)
        if len(pool) >= 24:
            break
    return pool


def _multisets(pool, total_degree):
    """Multisets over the pool with total degree equal to the target."""

    def rec(idx, remaining):
        if remaining == 0:
            yield []
            return
        if idx >= len(pool):
            return
        p = pool[idx]
        for c in range(remaining // p.degree, -1, -1):
            for rest in rec(idx + 1, remaining - c * p.degree):
                yield [p] * c + rest

    yield from rec(0, total_degree)


# -- algorithm assembly ---------------------------------------------------------


def ccma_build_curve(curve, Q, D1, D2, items, ell, cost_table, limit=None):
    """Assemble the interpolation algorithm; not verified here.

    Its own inverses decide the interpolation conditions (ConditionFailure
    if evaluation at Q is not onto or evaluation at G not injective); the
    caller verifies the algorithm where it enters a certificate.
    """
    _check_supports(Q, D1, D2, items)
    base = curve.base
    n = Q.degree
    if ell == 1:
        target = ExtAlgebra(base, Q.x_min)
    else:
        target = TruncAlgebra(base, n, ell, Q.x_min)
    L1 = riemann_roch_basis(curve, D1, limit)
    same = D1 == D2
    L2 = L1 if same else riemann_roch_basis(curve, D2, limit)
    L12 = riemann_roch_basis(curve, D1.add(D2), limit)

    EvQ1 = evaluation_rows(curve, L1, Q, ell)
    EvQ2 = EvQ1 if same else evaluation_rows(curve, L2, Q, ell)
    S1 = _right_inverse(base, EvQ1)
    S2 = S1 if same else _right_inverse(base, EvQ2)

    blocks = []
    for place, u in items:
        entry = cost_table.get(place.degree, u)
        conv = None
        if not place.is_infinity:
            conv = entry_conversion(base, place.residue.modulus, entry, limit)
        X1 = linalg.mat_mul(base, evaluation_rows(curve, L1, place, u, conv), S1)
        X2 = X1
        if not same:
            X2 = linalg.mat_mul(base, evaluation_rows(curve, L2, place, u, conv), S2)
        blocks.append((entry, X1, X2, evaluation_rows(curve, L12, place, u, conv)))
    T = evaluation_rows(curve, L12, Q, ell)
    return interpolation_algorithm(
        target,
        blocks,
        T,
        meta={
            "method": "curve",
            "curve": curve.describe(),
            "Q": Q.describe(),
            "items": [[p.describe(), u] for p, u in items],
        },
    )


def _right_inverse(spec, mat):
    """S with mat S = I, for an onto evaluation at Q."""
    left = linalg.left_inverse(spec, linalg.transpose(mat))
    if left is None or len(left) != len(mat):  # L(D) = 0 gives no columns
        raise ConditionFailure("evaluation at Q is not onto")
    return linalg.transpose(left)
