"""Truncated series products and the expansion at the infinite place."""

import itertools
import random

import pytest

from ccma.curves import CurveModel, _infinity_series
from ccma.errors import CcmaError
from ccma.gf import ExtensionRing, FieldSpec, Poly, power, trunc_mul
from ccma.planner import shipped_instances
from ccma.series import Laurent, newton_root

F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)
F5 = FieldSpec.get(5)


def _pow(s, e):
    """s^e by repeated products on a window wide enough for its poles."""
    one = Laurent.from_constant(s.ring, s.ring.one, s.prec + abs(s.val) * e + 1)
    return power(Laurent.mul, one, s, e)


def _uniformizer(ring, prec):
    return Laurent(ring, 1, [ring.one] + [ring.zero] * (prec - 2))


def _reference_infinity_series(curve, prec):
    """One hand-written expansion per model, as the curve layer had them."""
    base = curve.base
    window = prec + 2 * curve.wt_y
    if curve.genus == 1:
        a3, a1 = curve.h[0], curve.h[1]
        a6, a4, a2 = curve.f[0], curve.f[1], curve.f[2]
        t = _uniformizer(base, window)

        def mono(c, k):
            out = Laurent.from_constant(base, c, window)
            return out.mul(_pow(t, k).truncate(window)) if k else out

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
        assert (curve.h.coeffs, curve.f.coeffs) == ((1,), (0, 0, 0, 0, 0, 1))
        t = _uniformizer(base, window)
        c2 = _pow(t, 5).truncate(window).neg()
        zero = Laurent.from_constant(base, 0, window)
        c4 = Laurent.from_constant(base, base.neg(1), window)
        c5 = Laurent.from_constant(base, 1, window)
        s = newton_root([zero, zero, c2, zero, c4, c5], 1, base, window)
        sx = s.shift(-2)
        sy = s.mul(s).truncate(window).shift(-5)
    return sx, sy


def _first_smooth_weierstrass_without_zero_coefficient(base):
    for coeffs in itertools.product(range(1, base.q), repeat=5):
        try:
            a1, a2, a3, a4, a6 = coeffs
            return CurveModel(base, (a3, a1), (a6, a4, a2, 1))
        except CcmaError:
            continue
    raise AssertionError(f"no smooth model over F_{base.q}")


def _parts(s):
    return s.val, s.prec, s.coeffs


def test_one_expansion_at_infinity_matches_the_per_model_expansions():
    curves = [CurveModel.from_json(inst["curve"]) for inst in shipped_instances()]
    assert sorted(c.genus for c in curves) == [1, 1, 2]
    for base in (F3, F4, F5):
        curve = _first_smooth_weierstrass_without_zero_coefficient(base)
        assert len(curve.h.coeffs) == 2 and all(curve.h.coeffs + curve.f.coeffs)
        curves.append(curve)
    for curve in curves:
        for prec in (1, 4, 9, 20):
            got = _infinity_series(curve, prec)
            want = _reference_infinity_series(curve, prec)
            assert [_parts(s) for s in got] == [_parts(s) for s in want], (curve, prec)


def _schoolbook(a, b):
    """Every product a_i b_j below the common precision, one term at a time."""
    ring = a.ring
    val = a.val + b.val
    prec = min(a.val + b.prec, b.val + a.prec)
    out = [ring.zero] * (prec - val)
    for (i, x), (j, y) in itertools.product(enumerate(a.coeffs), enumerate(b.coeffs)):
        if a.val + i + b.val + j < prec:
            out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return val, prec, out


@pytest.mark.parametrize("ring", [F5, F4, ExtensionRing(F4, Poly(F4, (2, 1, 1))),
                                  ExtensionRing(F3, Poly(F3, (1, 2, 0, 1)))],
                         ids=["F5", "F4", "F4[x]/(x^2+x+2)", "F3[x]/(x^3+2x+1)"])
def test_laurent_mul_matches_schoolbook(ring):
    rng = random.Random(7)
    elements = list(ring.elements())

    def series(val, length):
        return Laurent(ring, val, [rng.choice(elements) for _ in range(length)])

    for val_a, val_b, len_a, len_b in itertools.product((-3, 0, 2), (-1, 1), (1, 4, 7), (0, 3, 6)):
        a, b = series(val_a, len_a), series(val_b, len_b)
        for x, y in ((a, b), (b, a)):
            assert _parts(x.mul(y)) == _schoolbook(x, y), (val_a, val_b, len_a, len_b)


def test_trunc_mul_takes_field_elements_as_ints():
    # (1 + 2t)(3 + t + 4t^2) in F_5[t]/(t^3) = 3 + 7t + 6t^2 = 3 + 2t + t^2
    assert trunc_mul(F5, [1, 2, 0], [3, 1, 4]) == [3, 2, 1]
    rng = random.Random(5)
    for _ in range(20):
        a = [rng.randrange(F4.q) for _ in range(5)]
        b = [rng.randrange(F4.q) for _ in range(5)]
        want = [0] * 5
        for i, j in itertools.product(range(5), repeat=2):
            if i + j < 5:
                want[i + j] = F4.add(want[i + j], F4.mul(a[i], b[j]))
        assert trunc_mul(F4, a, b) == want
