"""Truncated Laurent series over a coefficient ring, with precision tracking.

A series knows its valuation `val` and the first unknown exponent `prec`;
coefficients cover exponents val..prec-1.  The coefficient ring is either a
FieldSpec (ints) or an ExtensionRing (tuples); both expose zero/one,
add/sub/neg/mul/inv and embed_base.
"""

from .errors import CcmaError
from .gf import power


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

    @classmethod
    def uniformizer(cls, ring, prec):
        coeffs = [ring.zero] * (prec - 1)
        if prec > 1:
            coeffs[0] = ring.one
        return cls(ring, 1, coeffs, prec)

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
        ring = self.ring
        val = self.val + other.val
        prec = min(self.val + other.prec, other.val + self.prec)
        n = prec - val
        out = [ring.zero] * n
        for i, a in enumerate(self.coeffs):
            if a == ring.zero:
                continue
            jmax = min(len(other.coeffs), n - i)
            for j in range(jmax):
                b = other.coeffs[j]
                if b != ring.zero:
                    out[i + j] = ring.add(out[i + j], ring.mul(a, b))
        return Laurent(ring, val, out, prec)

    def scale(self, c):
        ring = self.ring
        return Laurent(
            self.ring, self.val, [ring.mul(c, v) for v in self.coeffs], self.prec
        )

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

    def div(self, other):
        return self.mul(other.inv())

    def pow(self, e):
        if e < 0:
            return self.inv().pow(-e)
        one = Laurent.from_constant(self.ring, self.ring.one, self.prec + abs(self.val) * e + 1)
        return power(Laurent.mul, one, self, e)

    def __repr__(self):
        return f"Laurent(val={self.val}, prec={self.prec}, coeffs={self.coeffs})"


def eval_poly(poly, series, ring, prec):
    """Evaluate a base-field polynomial at a Laurent series (Horner).

    The accumulator starts on a window of prec + max(0, -val) * deg + 1
    terms, which leaves room for the poles of the powers of a series with
    negative valuation; the result keeps the precision the products track.
    Curve frames use it for f(x) and h(x) of the model and evaluate
    function bases through one table of powers at the same window
    (`curves.Frame`).
    """
    window = prec + max(0, -series.val) * max(poly.degree, 1) + 1
    acc = Laurent.from_constant(ring, ring.zero, window)
    for c in reversed(poly.coeffs):
        acc = acc.mul(series)
        acc = acc.add(Laurent.from_constant(ring, ring.embed_base(c), acc.prec))
    return acc.truncate(prec)


def newton_root(coeff_series, y0, ring, prec):
    """Solve G(y) = 0 for a series y with y(0) = y0, G'(y0) a unit.

    `coeff_series` lists the Laurent coefficients of G as a polynomial in y,
    constant term first; all must share the target precision window.
    """
    y = Laurent.from_constant(ring, y0, 1)
    known = 1
    while known < prec:
        known = min(2 * known, prec)
        yw = Laurent(ring, y.val, y.coeffs, y.prec)
        yw = Laurent(ring, yw.val, yw.coeffs + [ring.zero] * (known - yw.prec), known)
        g = _poly_at(coeff_series, yw, ring, known)
        gp = _poly_at(_derive(coeff_series, ring), yw, ring, known)
        y = yw.sub(g.mul(gp.inv()).truncate(known))
        y = y.truncate(known)
    return y


def _poly_at(coeffs, y, ring, prec):
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
