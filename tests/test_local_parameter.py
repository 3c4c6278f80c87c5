"""Differential test: the local-parameter evaluation against the Hensel digit
loop it replaced (subtract a lifted digit, divide by P, rebase the digit into
the cost-table entry's field)."""

from ccma import linalg
from ccma.bilinear import CostTable, place_columns
from ccma.gf import ExtensionRing, FieldSpec, Poly, iter_irreducibles, least_root

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)


class HenselDigits:
    """Digits of F_q[x]/(P^u) in F_q[x]/(P), through a Hensel-lifted root."""

    def __init__(self, P, u):
        self.spec = P.spec
        self.P = P
        self.u = u
        self.modulus = Poly.one(self.spec)
        for _ in range(u):
            self.modulus = self.modulus * P
        self.ring = ExtensionRing(self.spec, self.modulus)
        self.residue = ExtensionRing(self.spec, P)
        # Newton iteration from x doubles the precision of the root each step
        root = self.ring.from_poly(Poly.x(self.spec))
        prec = 1
        while prec < u:
            val = P.eval_in(self.ring, root)
            slope = P.derivative().eval_in(self.ring, root)
            root = self.ring.sub(root, self.ring.mul(val, self.ring.inv(slope)))
            prec *= 2
        assert P.eval_in(self.ring, root) == self.ring.zero
        self.root = root

    def lift(self, z):
        return self.ring.to_poly(Poly(self.spec, z).eval_in(self.ring, self.root))

    def to_coords(self, f):
        f = f % self.modulus
        digits = []
        for _ in range(self.u):
            z = self.residue.from_poly(f % self.P)
            digits.append(z)
            f = (f - self.lift(z)).divmod(self.P)[0]
        return digits


def reference_columns(base, P, entry, u, bound):
    """The digit loop's matrix on x^0..x^bound, rebased into the entry's field."""
    d = P.degree
    field = ExtensionRing(base, entry.target.Q)
    root = least_root(field, P)
    powers = [field.one]
    for _ in range(d - 1):
        powers.append(field.mul(powers[-1], root))
    conv = [[powers[j][i] for j in range(d)] for i in range(d)]
    local = HenselDigits(P, u)
    rows = [[0] * (bound + 1) for _ in range(d * u)]
    xk = Poly.one(base)
    for k in range(bound + 1):
        for j, z in enumerate(local.to_coords(xk)):
            for i, c in enumerate(linalg.mat_vec(base, conv, list(z))):
                rows[j * d + i][k] = c
        xk = xk * Poly.x(base)
    return rows


def test_local_columns_match_hensel_digits():
    checked = 0
    for spec in (F2, F3, F4):
        table = CostTable(spec)
        for d in (1, 2, 3):
            for u in (1, 2, 3):
                if d * u > 6:
                    continue
                # tower winners need not use the lex-least modulus: read each
                # place in the field of the entry that multiplies there
                entry = table.get(d, u)
                bound = 2 * d * u + 2
                for P in iter_irreducibles(spec, d):
                    got = place_columns(P, entry, u, bound)
                    assert got == reference_columns(spec, P, entry, u, bound), (spec, P, u)
                    checked += 1
    assert checked == 13 + 34 + 70  # (place, u) pairs over F_2, F_3, F_4
