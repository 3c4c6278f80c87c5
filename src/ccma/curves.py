"""Interpolation on curves y^2 + h(x) y = f(x) of genus g >= 1.

Every model is read from its h and f: f monic of odd degree 2g + 1 >= 3,
deg h <= g, smooth; this covers Weierstrass cubics (g = 1) and the
imaginary hyperelliptic models of higher genus, in every characteristic.

Functions are represented as (a(x) + b(x) y) / den(x); Riemann-Roch spaces
are cut out of the pole-order filtration at the infinite place by local
valuation constraints, computed with truncated series expansions, with one
expansion at infinity read off h and f.
"""

import itertools
import json
import math

from . import linalg
from .bilinear import Algebra, interpolation_algorithm, place_columns
from .bilinear import _payload_base, _payload_claim, _payload_elements, _require_keys
from .errors import CcmaError, ConditionFailure, DivisorSearchFailed, PlanInfeasible
from .gf import ExtensionRing, Poly, digits, first_generator, iter_irreducibles, pack, powers
from .guard import check_guard, guard_limit
from .series import Laurent, eval_poly, newton_root

# Degree-d places are enumerated only while q^d is at most this many x-values.
PLACE_SCAN_LIMIT = 4096
# Divisor candidates tried before the search gives up.
DIVISOR_CANDIDATES = 5000

# guard limit -> {curve, or its instance data as sorted JSON: the one
# CurveModel equal to it}; see CurveModel.shared
_SHARED_CURVES = {}


class CurveModel:
    """y^2 + h(x) y = f(x), with the genus and infinite-place pole weights f gives."""

    def __init__(self, base, h, f):
        self.base = base
        self.h = Poly(base, h)
        self.f = Poly(base, f)
        if not self.f.is_monic() or self.f.degree < 3 or self.f.degree % 2 == 0:
            raise CcmaError("f is not monic of odd degree 2g + 1 >= 3")
        self.genus = self.f.degree // 2
        if self.h.degree > self.genus:
            raise CcmaError(f"deg h exceeds the genus {self.genus}")
        if not _is_smooth(self.h, self.f):
            raise CcmaError("singular model")
        self.wt_x, self.wt_y = 2, self.f.degree
        # x_min -> the places above it, or (K, c, v) while an inert one is unbuilt
        self._fibers = {}
        # degree -> the complete sorted list of its places, once enumerated
        self.places_of_degree = {}
        self.infinity = CurvePlace(self, None, None, None, None)

    def __eq__(self, other):
        return (
            isinstance(other, CurveModel)
            and self.base == other.base
            and self.h == other.h
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.base, self.h, self.f))

    def __repr__(self):
        return f"CurveModel({self.base!r}, h={self.h!r}, f={self.f!r}, g={self.genus})"

    @classmethod
    def from_json(cls, data):
        """The model `describe` writes; MalformedPayload if it is not one."""
        _require_keys(data, "curve", ("base", "h", "f"))
        _require_keys(data["base"], "base", ("p", "k"))
        base = _payload_base(data["base"])
        curve = cls(base, *(_payload_elements(data[key], key, base, 1) for key in "hf"))
        _payload_claim(data, "genus", curve.genus)
        return curve

    @classmethod
    def shared(cls, data):
        """The curve `data` describes, from the process-wide registry of the active limit.

        Its fibres and place lists then serve every later request of the
        process.  The registry is keyed by the guard limit: a cached place
        list skips the guard of `enumerate_curve_places`.  Within it, each
        distinct `data` is parsed once, and equal curves share one model;
        a malformed `data` is parsed, and refused, on every call.
        """
        registry = _SHARED_CURVES.setdefault(guard_limit(), {})
        key = json.dumps(data, sort_keys=True)
        curve = registry.get(key)
        if curve is None:
            curve = cls.from_json(data)
            curve = registry[key] = registry.setdefault(curve, curve)
        return curve

    def describe(self):
        base = self.base
        return {
            "base": {
                "p": base.p,
                "k": base.k,
                "defining_poly": list(base.poly) if base.poly else None,
            },
            "h": [list(base.decode(c)) for c in self.h.coeffs],
            "f": [list(base.decode(c)) for c in self.f.coeffs],
            "genus": self.genus,
        }

    def places(self, d):
        """The sorted degree-d places: enumerated (guarded) on the first call only.

        Pricing counts the lists of degree <= genus only; building and the
        divisor search read the degrees they use.  Each list is kept in
        `places_of_degree`.
        """
        found = self.places_of_degree.get(d)
        if found is None:
            found = self.places_of_degree[d] = enumerate_curve_places(self, d)
        return found

    def ambient_monomials(self, M):
        """Monomials x^i y^j with pole order at infinity at most M."""
        out = []
        if M < 0:
            return out
        for i in range(M // self.wt_x + 1):
            out.append((i, 0, i * self.wt_x))
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


def _is_smooth(h, f):
    """Whether y^2 + h y = f is smooth; its one point at infinity always is.

    For odd p, (2y + h)^2 = 4f + h^2: smooth iff 4f + h^2 is squarefree.  For
    p = 2 a singular point has h(x) = 0 and h'(x) y = f'(x) with y^2 = f(x),
    so one exists iff h and h'^2 f + f'^2 share a root.
    """
    if f.spec.p == 2:
        dh = h.derivative()
        return h.gcd(dh * dh * f + f.derivative() * f.derivative()).degree == 0
    disc = f.scale(f.spec.scalar(4)) + h * h
    return disc.gcd(disc.derivative()).degree == 0


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
        # top -> the evaluation matrix E_P, built on first use (_evaluation_matrix)
        self._evaluation = {}
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
        # y^2 = f - h y
        a = aa + bb * curve.f
        b = cross - bb * curve.h
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


def solve_y_quadratic(K, c, v):
    """Solutions y in the field K of y^2 + c y = v, sorted by encoding, and
    whether they are one double root.

    In characteristic 2, y -> y^2 + c y is F_2-linear, so one elimination
    over F_2 decides the equation.  An element is one int, its encoding:
    bit i k + b holds bit b of coordinate i, F_q = F_(2^k).  The image of
    the basis element 2^b xi^i is (2^b)^2 xi^(2i) + 2^b (c xi^i), where
    xi^(2i) is a unit or a reduction row and c xi^i a `times_gen` step;
    each image is reduced against the pivots found so far, tracking the
    basis elements it combines.  v reduces to 0 exactly when a root y0
    exists, and the combination tracked is y0.  The kernel is {0, c}, so
    the roots are y0 and y0 + c, one double root exactly when c = 0.  Odd
    characteristic completes the square (`sqrt_in_field`).
    """
    sp = K.spec
    if sp.p == 2:
        k, d = sp.k, K.dim
        # times alpha, the generator of F_q over F_2 (encoded 2; 1 when
        # k = 1), on every coordinate at once: a shift, and alpha^k where a
        # top bit leaves its coordinate
        tops = sum(1 << (i * k + k - 1) for i in range(d))
        wrap = pack(sp.poly[:-1], 2) if k > 1 else 1

        def times_alpha(a):
            top = a & tops
            return ((a ^ top) << 1) ^ ((top >> (k - 1)) * wrap)

        pivots = {}  # leading bit -> (image, the basis elements it combines)

        def reduce(img, comb):
            while img:
                pivot = pivots.get(img.bit_length() - 1)
                if pivot is None:
                    break
                img ^= pivot[0]
                comb ^= pivot[1]
            return img, comb

        for i, cx in enumerate(_multiples(K.times_gen, c, d)):
            sq = 1 << (2 * i * k) if 2 * i < d else K.encode(K._red[2 * i - d])
            cx = K.encode(cx)
            for b in range(k):
                img, comb = reduce(sq ^ cx, 1 << (i * k + b))
                if img:
                    pivots[img.bit_length() - 1] = (img, comb)
                sq, cx = times_alpha(times_alpha(sq)), times_alpha(cx)
        rest, y0 = reduce(K.encode(v), 0)
        if rest:
            return [], False
        roots = sorted({y0, y0 ^ K.encode(c)})
        return [tuple(digits(y, sp.q, d)) for y in roots], len(roots) == 1
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
    """Square roots of a in the field K (empty when a is a non-residue).

    Tonelli-Shanks with K.q - 1 = 2^m * odd: r = a^((odd+1)/2) is a root
    as soon as t = a^odd is 1, always so for K.q = 3 mod 4; otherwise the
    least non-residue from 2 (0 and 1 are squares) corrects r and t.
    """
    if a == K.zero:
        return [K.zero]
    if K.pow(a, (K.q - 1) // 2) != K.one:
        return []
    odd, m = K.q - 1, 0
    while odd % 2 == 0:
        odd //= 2
        m += 1
    r = K.pow(a, (odd + 1) // 2)
    t = K.pow(a, odd)
    if t != K.one:
        nonres = next(
            cand for cand in itertools.islice(K.elements(), 2, None)
            if K.pow(cand, (K.q - 1) // 2) != K.one
        )
        c = K.pow(nonres, odd)
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
    return sorted({r, K.neg(r)}, key=K.encode)


# -- place enumeration ---------------------------------------------------------


def fiber_places(curve, x_min, degree=None):
    """The places of the curve above the x-line place x_min, of `degree` if given.

    The quadratic y^2 + h(x) y = f(x) over the residue field K of x_min
    decides the fibre: two places of degree deg x_min (split), one
    (ramified), or none in K, and then one inert place of degree
    2 deg x_min.  An inert place (generator scan, minimal polynomial,
    residue ring) is built only when asked for, with no `degree` or with
    its own; until then `curve._fibers` keeps the fibre unbuilt.
    """
    fiber = curve._fibers.get(x_min)
    if fiber is None:
        fiber = curve._fibers[x_min] = _fiber(curve, x_min)
    if isinstance(fiber, tuple):  # an inert fibre, not built yet
        if degree not in (None, 2 * x_min.degree):
            return []
        fiber = curve._fibers[x_min] = [_inert_place(curve, x_min, *fiber)]
    if degree is None:
        return fiber
    return [p for p in fiber if p.degree == degree]


def _fiber(curve, x_min):
    """The split or ramified places above x_min, or (K, c, v) for an inert fibre.

    c = h(xi) and v = f(xi) in K = F_q[x]/(x_min) are the coordinates of
    h mod x_min and f mod x_min; `solve_y_quadratic` decides the fibre.
    """
    K = ExtensionRing(curve.base, x_min)
    c, v = K.from_poly(curve.h), K.from_poly(curve.f)
    sols, ramified = solve_y_quadratic(K, c, v)
    if not sols:
        return K, c, v
    xi = K.gen()
    return [CurvePlace(curve, x_min, K, xi, beta, ramified=ramified) for beta in sols]


def _inert_place(curve, x_min, K_e, c, v):
    """The degree-2e place above x_min when the quadratic stays irreducible.

    The compositum K_e[y]/(y^2 + cy - v) = F_{q^2e} is written in the basis
    (1, y) over K_e, flattened over F_q.  Its residue field is F_q[T]/(N),
    N the minimal polynomial of the first generator z = y + a (`first_generator`),
    a = 0 and then the a in K_e outside F_q in ascending encoding: a = 0
    fails only when y lies in a proper subfield, and for a nonzero a in F_q
    F_q(y + a) = F_q(y).  The same inverse gives the coordinates of x in
    powers of z.
    """
    base = curve.base
    dim = 2 * x_min.degree

    def power_coords(a):
        # (p0 + p1 y)(a + y) = (p0 a + p1 v) + (p0 + p1 (a - c)) y
        a_minus_c = K_e.sub(a, c)
        p0, p1 = K_e.one, K_e.zero
        cols = [list(p0) + list(p1)]
        for _ in range(dim):
            p0, p1 = (K_e.add(K_e.mul(p0, a), K_e.mul(p1, v)),
                      K_e.add(p0, K_e.mul(p1, a_minus_c)))
            cols.append(list(p0) + list(p1))
        return cols

    candidates = (a for a in K_e.elements() if a == K_e.zero or any(a[1:]))
    a, _, inv, N = first_generator(base, dim, candidates, power_coords)
    K_P = ExtensionRing(base, N)
    xroot = tuple(linalg.mat_vec(base, inv, list(K_e.gen()) + list(K_e.zero)))
    beta = K_P.sub(K_P.gen(), K_e.to_poly(a).eval_in(K_P, xroot))
    lhs = K_P.add(K_P.mul(beta, beta), K_P.mul(curve.h.eval_in(K_P, xroot), beta))
    assert lhs == curve.f.eval_in(K_P, xroot)
    return CurvePlace(curve, x_min, K_P, xroot, beta, ramified=False)


def enumerate_curve_places(curve, d):
    """Complete sorted list of degree-d places (guarded enumeration)."""
    if d < 1:
        raise CcmaError("degree must be >= 1")
    base = curve.base
    check_guard(base.q ** d, f"place enumeration degree {d} on {curve!r}")
    out = []
    for m in iter_irreducibles(base, d):
        out.extend(fiber_places(curve, m, d))
    if d % 2 == 0:
        for m in iter_irreducibles(base, d // 2):
            out.extend(fiber_places(curve, m, d))
    out.sort(key=CurvePlace.order_key)
    if d == 1:
        out.append(curve.infinity)
    return out


def find_place_of_degree(curve, n):
    """Deterministic degree-n place: least liftable x_min, least beta.

    Raises PlanInfeasible when none lies above the first 64*n*q degree-n
    x-values: the curve instance cannot serve this n.
    """
    base = curve.base
    tries = 0
    cap = 64 * n * base.q
    for m in iter_irreducibles(base, n):
        tries += 1
        if tries > cap:
            break
        places = fiber_places(curve, m, n)
        if places:
            return min(places, key=lambda p: p.ramified)  # unramified first
    raise PlanInfeasible(f"no degree-{n} place found within {cap} candidates")


# -- local frames (series expansions) -----------------------------------------


class Frame:
    """Series of x and y in a uniformizer at one place, to a set precision.

    The frame also holds the powers sx^0..sx^top, taken once on the window
    `eval_poly` would use for a degree-top polynomial.  A base-field
    polynomial of degree at most top is a linear combination of that table:
    one `dot` per (exponent, residue coordinate) and no series product of
    its own, known to the least precision among the powers it uses.
    """

    def __init__(self, place, prec, top):
        self.place = place
        self.prec = prec
        self.ring, self.sx, self.sy = _local_series(place, prec)
        window = prec + max(0, -self.sx.val) * max(top, 1) + 1
        one = Laurent.from_constant(self.ring, self.ring.one, window)
        self._powers = powers(Laurent.mul, one, self.sx, top + 1)
        self._lo = min(s.val for s in self._powers)
        # _columns[e - lo] holds the t^e coefficients of sx^0..sx^top, one
        # tuple per residue coordinate (0 where a power is not known at e;
        # poly_at stops below the precision of every power it uses)
        self._columns = []
        for e in range(self._lo, prec):
            column = [s.coeffs[e - s.val] if s.val <= e < s.prec else self.ring.zero
                      for s in self._powers]
            self._columns.append(column if place.is_infinity else list(zip(*column)))

    def poly_at(self, poly):
        """poly(sx) for a base-field polynomial of degree at most top."""
        if poly.is_zero():
            return Laurent.from_constant(self.ring, self.ring.zero, self.prec)
        used = self._powers[: poly.degree + 1]
        val = min(s.val for s in used)
        prec = min(min(s.prec for s in used), self.prec)
        dot = self.place.curve.base.dot
        columns = self._columns[val - self._lo : prec - self._lo]
        if self.place.is_infinity:
            coeffs = [dot(poly.coeffs, column) for column in columns]
        else:
            coeffs = [tuple(dot(poly.coeffs, c) for c in column) for column in columns]
        return Laurent(self.ring, val, coeffs, prec)

    def eval_funcs(self, funcs):
        """Series of each function, inverting each distinct denominator once."""
        prec = self.prec
        inverses = {}
        out = []
        for fe in funcs:
            num = self.poly_at(fe.a)
            if not fe.b.is_zero():
                num = num.add(self.poly_at(fe.b).mul(self.sy).truncate(prec))
            inv = inverses.get(fe.den)
            if inv is None:
                inv = inverses[fe.den] = self.poly_at(fe.den).inv()
            out.append(num.mul(inv).truncate(prec))
        return out


def _local_series(place, prec):
    """(ring, sx, sy): x and y as series in a uniformizer at the place."""
    curve = place.curve
    if place.is_infinity:
        return (curve.base,) + _infinity_series(curve, prec)
    K = place.residue

    def const(c, window=prec + 1):
        return Laurent.from_constant(K, K.embed_base(c), window)

    if place.ramified and place.degree == 1:
        # uniformizer t = y - y0; solve y^2 + h(x) y - f(x) = 0 for the x series
        sy = Laurent(K, 0, [place.beta, K.one] + [K.zero] * (prec - 1))
        coeffs = [const(curve.h[i]).mul(sy).sub(const(c)) for i, c in enumerate(curve.f.coeffs)]
        coeffs[0] = coeffs[0].add(sy.mul(sy))
        return K, newton_root(coeffs, place.xi, K, prec), sy.truncate(prec)
    if place.x_deg != place.degree:
        raise CcmaError("series frames unsupported at inert places")
    if place.ramified:
        raise CcmaError("series frames unsupported at this ramified place")
    # uniformizer t = x_min(x); x series from x_min(x(t)) - t = 0, then y by Newton
    coeffs = [const(c) for c in place.x_min.coeffs]
    coeffs[0].coeffs[1] = K.neg(K.one)
    sx = newton_root(coeffs, place.xi, K, prec)
    fx = eval_poly(curve.f, sx, K, prec)
    hx = eval_poly(curve.h, sx, K, prec)
    return K, sx, newton_root([fx.neg(), hx, const(1, prec)], place.beta, K, prec)


def _infinity_series(curve, prec):
    """(sx, sy): x and y at the infinite place, in a uniformizer t.

    With f monic of degree 2g + 1 and deg h <= g: x = s/t^2,
    y = s^g/t^(2g+1), and t^(4g+2) times the equation is G(s) = s^2g
    + sum h_j s^(g+j) t^(2g+1-2j) - sum f_i s^i t^(4g+2-2i), with G(1) = 0
    and G'(1) = -1 at t = 0: one Newton root from s(0) = 1.
    """
    base = curve.base
    g = curve.genus
    window = prec + 2 * curve.wt_y
    # rows[k][e]: the coefficient of s^k t^e; h fills odd e, f even e
    rows = [[0] * window for _ in range(2 * g + 2)]
    rows[2 * g][0] = 1
    for j, c in enumerate(curve.h.coeffs):
        rows[g + j][2 * g + 1 - 2 * j] = c
    for i, c in enumerate(curve.f.coeffs):
        rows[i][4 * g + 2 - 2 * i] = base.neg(c)
    s = newton_root([Laurent(base, 0, row) for row in rows], 1, base, window)
    return s.shift(-2), powers(Laurent.mul, s, s, g)[-1].shift(-(2 * g + 1))


# -- expansions and evaluation matrices ----------------------------------------


class Evaluator:
    """The evaluation of one list of functions at places, prepared once for the list.

    At a finite place and order 1 the residue ring is a field, and the
    values of every function are one matrix product E_P C (`linalg.mat_mul`).
    C is built here: its 2(top + 1) rows hold the coefficients of
    x^0..x^top, first of each a and then of each b, one column per
    function, and one more column per distinct denominator other than 1
    holds that denominator's coefficients.  E_P, deg P rows and 2(top + 1)
    columns, holds the coordinates of xi^k and of beta xi^k and is cached
    on the place (`_evaluation_matrix`).  The columns of a function with
    denominator D are then multiplied by the matrix of 1/D(P).  Infinity,
    higher orders and a denominator that vanishes at the place go through
    series frames (`_frame_values`).
    """

    def __init__(self, curve, funcs):
        self.curve = curve
        self.funcs = funcs
        base = curve.base
        self._top = _top_degree(funcs) if funcs else 0
        one = Poly.one(base)
        self._groups = {}  # denominator other than 1 -> the columns it divides
        for j, f in enumerate(funcs):
            if f.den != one:
                self._groups.setdefault(f.den, []).append(j)
        span = range(self._top + 1)
        C = [[f.a[k] for f in funcs] + [den[k] for den in self._groups] for k in span]
        C += [[f.b[k] for f in funcs] + [0] * len(self._groups) for k in span]
        self._factor = linalg.RightFactor(base, C)

    def rows(self, place, order, conv=None):
        """Stacked base-field rows of the order-u derived evaluation at a place.

        Row layout: u blocks of deg(place) rows, one column per function; an
        optional conv matrix rebases each block (e.g. into a cost-table
        entry's field).
        """
        d = place.degree
        rows = self._order_one(place) if order == 1 and not place.is_infinity else None
        if rows is None:
            rows = [[0] * len(self.funcs) for _ in range(order * d)]
            values = _frame_values(self.funcs, place, order) if self.funcs else []
            for col, vals in enumerate(values):
                for j in range(order):
                    vec = [vals[j]] if place.is_infinity else vals[j]
                    for i in range(d):
                        rows[j * d + i][col] = vec[i]
        if conv is not None:
            base = self.curve.base
            rows = [row for j in range(order)
                    for row in linalg.mat_mul(base, conv, rows[j * d : (j + 1) * d])]
        return rows

    def _order_one(self, place):
        """The deg(place) value rows at a finite place, None if a denominator vanishes there."""
        base = self.curve.base
        values = linalg.mat_mul(base, _evaluation_matrix(place, self._top), self._factor)
        if not self._groups:
            return values
        K = place.residue
        width = len(self.funcs)
        out = [row[:width] for row in values]
        for c, cols in enumerate(self._groups.values()):
            den = tuple(row[width + c] for row in values)
            if den == K.zero:
                return None
            inverse = _multiples(K.times_gen, K.inv(den), K.dim)
            scaled = linalg.mat_mul(base, [list(r) for r in zip(*inverse)], values)
            for row, new in zip(out, scaled):
                for j in cols:
                    row[j] = new[j]
        return out


def _evaluation_matrix(place, top):
    """E_P at a finite place: coordinates of xi^0..xi^top, then of beta xi^0..beta xi^top.

    Cached on the place per top.  Each column is the last one times xi:
    where x_deg = deg P, xi is the class of x and that step is
    `ExtensionRing.times_gen` (a shift and one reduction row); at an inert
    place it is a product.
    """
    E = place._evaluation.get(top)
    if E is None:
        K = place.residue
        if place.x_deg == place.degree:
            step = K.times_gen
        else:
            def step(a):
                return K.mul(a, place.xi)
        columns = _multiples(step, K.one, top + 1) + _multiples(step, place.beta, top + 1)
        E = place._evaluation[top] = [list(row) for row in zip(*columns)]
    return E


def _multiples(step, a, k):
    """a, step(a), ..., step^(k-1)(a): with step = times_gen and k = dim K, the columns of a's matrix."""
    out = [a]
    for _ in range(k - 1):
        out.append(step(out[-1]))
    return out


def _top_degree(funcs):
    return max(max(f.a.degree, f.b.degree, f.den.degree) for f in funcs)


def _frame_values(funcs, place, order):
    """Order-`order` values through series frames, at the precision they need.

    The inverse of a denominator of valuation v at the place, and so each
    value, is known to 2v terms fewer than the frame.  The first frame at a
    finite place therefore takes order + 2v terms, v the largest
    multiplicity of x_min in a denominator times the ramification index e
    (e = 2, and one term more, at a ramified place); at infinity it takes
    the terms `_infinity_start` reads off the pole orders.  A frame that
    falls short doubles, up to 16 (order + 2 max(deg den, 1) + 2) terms, the
    last try.
    """
    top = _top_degree(funcs)
    cap = 16 * (order + 2 * max(max(f.den.degree for f in funcs), 1) + 2)
    if place.is_infinity:
        prec = _infinity_start(place.curve, funcs, order)
    else:
        e = 2 if place.ramified else 1
        v = e * max(_multiplicity(den, place.x_min) for den in {f.den for f in funcs})
        prec = order + 2 * v + (e - 1)
    while True:
        frame = Frame(place, prec, top)
        try:
            series = frame.eval_funcs(funcs)
        except CcmaError:
            if prec >= cap:
                raise
            prec = min(2 * prec, cap)
            continue
        if all(s.prec >= order for s in series):
            out = []
            for s in series:
                if s.normalized_val() < 0:
                    raise CcmaError("function has a pole at an evaluation place")
                out.append([s.coefficient(j) for j in range(order)])
            return out
        prec *= 2


def _infinity_start(curve, funcs, order):
    """The least frame precision P that knows each function to `order` terms at infinity.

    x has pole order 2 and y pole order w = 2g + 1, and a frame of P terms
    knows sx^k to P + 2w - 2k and sy to P + w (`_infinity_series` expands
    to P + 2w).  So a numerator a + b y of pole order N is known to P - L,
    L its loss on the powers it reads, and the inverse of a denominator of
    degree D, of pole order 2D, to P - max(0, 2D - 2w) + 4D: a quotient
    is known to P + 2D - L and to P + 4D - N - max(0, 2D - 2w).
    """
    w = curve.wt_y
    need = 0
    for f in funcs:
        D = f.den.degree
        N, L = max(0, 2 * f.a.degree), max(0, 2 * f.a.degree - 2 * w)
        if not f.b.is_zero():
            N = max(N, 2 * f.b.degree + w)
            L = max(L, w, 2 * f.b.degree - w)
        need = max(need, L - 2 * D, N - 4 * D + max(0, 2 * D - 2 * w))
    return order + need


def _multiplicity(poly, m):
    """The largest k with m^k dividing the nonzero poly."""
    k = 0
    while True:
        quot, rem = poly.divmod(m)
        if not rem.is_zero():
            return k
        poly, k = quot, k + 1


def evaluation_rows(curve, funcs, place, order, conv=None):
    """`Evaluator.rows` of the list at one place."""
    return Evaluator(curve, funcs).rows(place, order, conv)


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


def riemann_roch_basis(curve, D):
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
    evaluator = Evaluator(curve, funcs)
    rows = []
    handled = set()
    for m, k in sorted(u_mults.items(), key=lambda kv: kv[0].order_key()):
        for place in fiber_places(curve, m):
            handled.add(place)
            val_u = (2 if place.ramified else 1) * k
            r = val_u - D.get(place)
            if r > 0:
                rows.extend(evaluator.rows(place, r))
    for place, c in D.items_sorted():
        if place.is_infinity or place in handled:
            continue
        if c < 0:
            rows.extend(evaluator.rows(place, -c))
    if rows:
        kern = linalg.kernel_basis(base, rows)
    else:
        kern = [[1 if i == j else 0 for i in range(len(funcs))] for j in range(len(funcs))]
    out = []
    for vec in kern:
        ab = [[0] * (M // curve.wt_x + 1) for _ in range(2)]  # x^i y^j at ab[j][i]
        for coef, (i, j) in zip(vec, monomials):
            ab[j][i] = coef
        out.append(FuncElem(curve, Poly(base, ab[0]), Poly(base, ab[1]), u_poly).normalize())
    return out


def rr_dim(curve, D):
    return len(riemann_roch_basis(curve, D))


# -- interpolation conditions ----------------------------------------------------


def check_conditions(curve, Q, D1, D2, items, ell=1):
    """Diagnostic report of the paper's rank and numerical criteria."""
    _check_supports(Q, D1, D2, items)
    n = Q.degree
    g = curve.genus
    report = {"n": n, "genus": g, "l": ell, "supports_disjoint": True}
    base = curve.base
    same = D1 == D2
    L1 = riemann_roch_basis(curve, D1)
    L2 = L1 if same else riemann_roch_basis(curve, D2)
    m1 = evaluation_rows(curve, L1, Q, ell)
    m2 = m1 if same else evaluation_rows(curve, L2, Q, ell)
    report["a_onto"] = (
        linalg.rank(base, m1) == n * ell and linalg.rank(base, m2) == n * ell
    )
    D12 = D1.add(D2)
    L12 = Evaluator(curve, riemann_roch_basis(curve, D12))
    rows = []
    for place, u in items:
        rows.extend(L12.rows(place, u))
    report["b_injective"] = linalg.rank(base, rows) == len(L12.funcs)
    # numerical criteria
    for label, Dk in (("1", D1), ("2", D2)):
        if label == "1" or not same:
            A = Dk.sub(CurveDivisor(curve, {Q: ell}))
            index = rr_dim(curve, A) - (A.degree + 1 - g)
        report[f"i_D{label}_minus_lQ"] = index
        report[f"a_sufficient_D{label}"] = index == 0
    G = CurveDivisor(curve, {p: u for p, u in items})
    report["dim_D1_D2_minus_G"] = rr_dim(curve, D12.sub(G))
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


def find_divisor(curve, Q, items, cost_table):
    """(D, algorithm) for the first divisor D of degree n+g-1 that builds.

    The build decides both conditions (evaluation at Q onto L(D), evaluation
    at G injective on L(2D)); a ConditionFailure moves on to the next
    candidate.  For n >= g every candidate is non-special, l(D) = n, and the
    conditions are L(D-Q) = 0 and L(2D-G) = 0.  Deterministic bounded
    search; raises DivisorSearchFailed when the candidates run out or the
    budget is exhausted (never silently degrades), and GuardExceeded when
    the walk reads past the guard limit.  The support pool reads each degree
    of the curve's place lists (`CurveModel.places`) only when the walk
    first reads past it; once it has read them all, the walk drops every
    branch whose remaining degree the gcd of the pool's degrees does not
    divide, so a pool that cannot sum to n+g-1 ends the walk at once.
    """
    n = Q.degree
    g = curve.genus
    if sum(p.degree * u for p, u in items) < 2 * n + g - 1:
        raise CcmaError("deg G must be at least 2n+g-1")
    target_deg = n + g - 1
    eval_places = {p for p, _ in items}
    pool = _SupportPool(_support_places(curve, Q, eval_places, target_deg))
    tried = 0
    for D in _divisor_candidates(curve, eval_places, target_deg, pool):
        if tried == DIVISOR_CANDIDATES:
            break
        tried += 1
        try:
            return D, ccma_build_curve(curve, Q, D, D, items, 1, cost_table)
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


def _support_places(curve, Q, eval_places, target_deg):
    """Divisor support places by ascending degree, enumerating each degree lazily.

    Stops after the degree at which 24 places have been given, or at the
    first degree that cannot be enumerated.
    """
    given = 0
    for d in range(1, target_deg + 1):
        if curve.base.q ** d > PLACE_SCAN_LIMIT:
            return
        try:
            places = curve.places(d)
        except CcmaError:
            return
        for p in places:
            if p.is_infinity or p in eval_places or p == Q:
                continue
            if p.ramified or p.x_deg != p.degree:
                continue  # keep the series machinery on supported ground
            given += 1
            yield p
        if given >= 24:
            return


class _SupportPool:
    """The places of an iterator, drawn only as far as read; reads count against the guard.

    Once the iterator is read to the end, `reaches` knows the gcd of the
    degrees of the places from each index on.
    """

    def __init__(self, places):
        self._places = places
        self._listed = []
        self._reads = 0
        self._limit = guard_limit()
        self._suffix_gcds = None  # [gcd of the degrees from idx on], once all are listed

    def get(self, idx):
        """The place at `idx`, or None past the last."""
        self._reads = check_guard(self._reads + 1, "divisor walk", self._limit)
        listed = self._listed
        while idx >= len(listed):
            p = next(self._places, None)
            if p is None:
                self._suffix_gcds = gcds = [0] * (len(listed) + 1)
                for i in range(len(listed) - 1, -1, -1):
                    gcds[i] = math.gcd(gcds[i + 1], listed[i].degree)
                return None
            listed.append(p)
        return listed[idx]

    def reaches(self, idx, degree):
        """Whether the places from idx on may sum to `degree` > 0.

        False once all are listed and the gcd of their degrees does not
        divide it.
        """
        gcds = self._suffix_gcds
        if gcds is None:
            return True
        g = gcds[min(idx, len(gcds) - 1)]
        return g != 0 and degree % g == 0


def _multisets(pool, total_degree):
    """Multisets over the pool with total degree equal to the target.

    A branch whose remaining degree the rest of the pool cannot reach
    (`_SupportPool.reaches`) is dropped unread.
    """

    def rec(idx, remaining):
        if remaining == 0:
            yield []
            return
        if not pool.reaches(idx, remaining):
            return
        p = pool.get(idx)
        if p is None:
            return
        for c in range(remaining // p.degree, -1, -1):
            for rest in rec(idx + 1, remaining - c * p.degree):
                yield [p] * c + rest

    yield from rec(0, total_degree)


# -- algorithm assembly ---------------------------------------------------------


def ccma_build_curve(curve, Q, D1, D2, items, ell, cost_table):
    """Assemble the interpolation algorithm; not verified here.

    Its own inverses decide the interpolation conditions (ConditionFailure
    if evaluation at Q is not onto or evaluation at G not injective); the
    caller verifies the algorithm where it enters a certificate.
    """
    _check_supports(Q, D1, D2, items)
    base = curve.base
    target = Algebra(base, Q.x_min, ell)
    L1 = riemann_roch_basis(curve, D1)
    same = D1 == D2
    L2 = L1 if same else riemann_roch_basis(curve, D2)
    L12 = riemann_roch_basis(curve, D1.add(D2))

    ev1 = Evaluator(curve, L1)
    ev2 = ev1 if same else Evaluator(curve, L2)
    ev12 = Evaluator(curve, L12)
    S1 = linalg.RightFactor(base, _right_inverse(base, ev1.rows(Q, ell)))
    S2 = S1 if same else linalg.RightFactor(base, _right_inverse(base, ev2.rows(Q, ell)))

    blocks = []
    for place, u in items:
        entry = cost_table.get(place.degree, u)
        conv = None
        if place.degree > 1:  # a rational place's residue is F_q itself
            conv = place_columns(place.residue.modulus, entry, 1, place.degree - 1)
        X1 = linalg.mat_mul(base, ev1.rows(place, u, conv), S1)
        X2 = X1 if same else linalg.mat_mul(base, ev2.rows(place, u, conv), S2)
        blocks.append((entry, X1, X2, ev12.rows(place, u, conv)))
    T = ev12.rows(Q, ell)
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
