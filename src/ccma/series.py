"""Truncated Laurent series over a coefficient ring, with precision tracking.

A series knows its valuation `val` and the first unknown exponent `prec`;
coefficients cover exponents val..prec-1.  The coefficient ring is either a
FieldSpec (ints) or an ExtensionRing (tuples); both expose zero/one,
add/sub/neg/mul/inv and embed_base.

The module adds no arithmetic of its own: a product is `gf.trunc_mul` on
the common window, and one Horner loop (`_poly_at`) evaluates a polynomial
with series coefficients, which `eval_poly` (base-field coefficients) and
`newton_root` both use.
"""

from .errors import CcmaError
from .gf import trunc_mul


class Laurent:
    __slots__ = ("ring", "val", "prec", "coeffs")

    def __init__(self, ring, val, coeffs, prec=None):
        self.ring = ring
        self.val = val
        self.coeffs = list(coeffs)
        self.prec = val + len(self.coeffs) if prec is None else prec
        if self.prec - self.val != len(self.coeffs):
            raise CcmaError("coefficient window does not match precision")

    @classmethod
    def from_constant(cls, ring, c, prec):
        if prec <= 0:
            return cls(ring, prec, [], prec)
        return cls(ring, 0, [c] + [ring.zero] * (prec - 1), prec)

    def coefficient(self, exponent):
        """Coefficient of t^exponent; raises past the known precision."""
        if exponent >= self.prec:
            raise CcmaError("coefficient beyond known precision")
        if exponent < self.val:
            return self.ring.zero
        return self.coeffs[exponent - self.val]

    def normalized_val(self):
        """Exact valuation if a nonzero coefficient is known, else prec."""
        for i, c in enumerate(self.coeffs):
            if c != self.ring.zero:
                return self.val + i
        return self.prec

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        keep = max(prec - self.val, 0)
        return Laurent(self.ring, min(self.val, prec), self.coeffs[:keep], prec)

    def shift(self, k):
        return Laurent(self.ring, self.val + k, self.coeffs, self.prec + k)

    def add(self, other):
        ring = self.ring
        val = min(self.val, other.val)
        prec = min(self.prec, other.prec)
        out = []
        for e in range(val, prec):
            a = self.coeffs[e - self.val] if self.val <= e < self.prec else ring.zero
            b = other.coeffs[e - other.val] if other.val <= e < other.prec else ring.zero
            out.append(ring.add(a, b))
        return Laurent(ring, val, out, prec)

    def neg(self):
        return Laurent(self.ring, self.val, [self.ring.neg(c) for c in self.coeffs], self.prec)

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        """`gf.trunc_mul` on the common window (the shorter length), at val + val."""
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        return Laurent(self.ring, self.val + other.val, trunc_mul(self.ring, a, b))

    def inv(self):
        ring = self.ring
        v = self.normalized_val()
        if v >= self.prec:
            raise CcmaError("cannot invert: series is zero to known precision")
        rel = self.prec - v
        u = self.coeffs[v - self.val : ]
        lead_inv = ring.inv(u[0])
        out = [ring.zero] * rel
        out[0] = lead_inv
        for i in range(1, rel):
            acc = ring.zero
            for j in range(1, i + 1):
                if j < len(u) and u[j] != ring.zero:
                    acc = ring.add(acc, ring.mul(u[j], out[i - j]))
            out[i] = ring.neg(ring.mul(lead_inv, acc))
        return Laurent(ring, -v, out, -v + rel)

    def __repr__(self):
        return f"Laurent(val={self.val}, prec={self.prec}, coeffs={self.coeffs})"


def eval_poly(poly, series, ring, prec):
    """Evaluate a base-field polynomial at a Laurent series (Horner).

    `_poly_at` over the constant series of poly's coefficients, on a window
    of prec + max(0, -val) * deg + 1 terms: room for the poles of the powers
    of a series with negative valuation.  The result keeps the precision the
    products track.  Curve frames evaluate function bases through one table
    of powers at the same window (`curves.Frame`).
    """
    window = prec + max(0, -series.val) * max(poly.degree, 1) + 1
    coeffs = [Laurent.from_constant(ring, ring.embed_base(c), window) for c in poly.coeffs]
    return _poly_at(coeffs, series, ring, window).truncate(prec)


def newton_root(coeff_series, y0, ring, prec):
    """Solve G(y) = 0 for a series y with y(0) = y0, G'(y0) a unit.

    `coeff_series` lists the Laurent coefficients of G as a polynomial in y,
    constant term first; all must share the target precision window.
    """
    derived = _derive(coeff_series, ring)
    y = Laurent.from_constant(ring, y0, 1)
    known = 1
    while known < prec:
        known = min(2 * known, prec)
        yw = Laurent(ring, y.val, y.coeffs + [ring.zero] * (known - y.prec), known)
        g = _poly_at(coeff_series, yw, ring, known)
        gp = _poly_at(derived, yw, ring, known)
        y = yw.sub(g.mul(gp.inv()).truncate(known))
    return y


def _poly_at(coeffs, y, ring, prec):
    """Horner's sum of coeffs[i] * y^i, series coefficients, to prec."""
    acc = Laurent.from_constant(ring, ring.zero, prec)
    for c in reversed(coeffs):
        acc = acc.mul(y).truncate(prec)
        acc = acc.add(c.truncate(prec))
    return acc


def _derive(coeffs, ring):
    out = []
    for i in range(1, len(coeffs)):
        c = coeffs[i]
        total = Laurent.from_constant(ring, ring.zero, c.prec)
        for _ in range(i):
            total = total.add(c)
        out.append(total)
    return out
