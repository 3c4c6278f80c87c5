"""Field, polynomial, CRT, and local-expansion behavior."""

import random

import pytest

from ccma.errors import CcmaError, DegreeOverflow, NonCoprimeModuli, PoleAtPlace
from ccma.gf import (
    INFINITY,
    ExtensionRing,
    FieldSpec,
    Poly,
    crt_reconstruct,
    embed_element,
    field_extend,
    irreducibles,
    digits,
    is_irreducible,
    iter_monic,
    lex_least_irreducible,
    local_expansion,
    pack,
    place_counts,
    power,
    reduction_rows,
)

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)
F5 = FieldSpec.get(5)
F8 = FieldSpec.get(2, 3)
F9 = FieldSpec.get(3, 2)
F13 = FieldSpec.get(13)
F16 = FieldSpec.get(2, 4)


def test_spec_rejects_bad_parameters():
    with pytest.raises(CcmaError):
        FieldSpec(4)
    with pytest.raises(CcmaError):
        FieldSpec(2, 2, poly=(1, 0, 1))  # x^2+1 = (x+1)^2
    with pytest.raises(CcmaError):
        FieldSpec(2, 0)


def test_spec_equality_is_structural():
    assert FieldSpec.get(2, 2) == FieldSpec(2, 2, poly=(1, 1, 1))
    assert FieldSpec.get(2, 2) != FieldSpec.get(2, 3)


def test_field_axioms_on_random_pairs():
    rng = random.Random(7)
    for spec in (F2, F3, F4, F5, F8, F9, F13, F16, FieldSpec.get(5, 2)):
        for _ in range(200):
            a = rng.randrange(spec.q)
            b = rng.randrange(spec.q)
            c = rng.randrange(spec.q)
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.mul(a, spec.add(b, c)) == spec.add(
                spec.mul(a, b), spec.mul(a, c)
            )
            if a:
                assert spec.mul(a, spec.inv(a)) == 1


def test_field_extend_identity():
    assert field_extend(F2, 1) is F2


def test_field_extend_degree_two_poly():
    ext = field_extend(F2, 2)
    assert ext.poly == (1, 1, 1)  # x^2+x+1, unique quadratic irreducible


def test_field_extend_embedding_preserves_ops():
    big = field_extend(F4, 2)
    assert big.k == 4
    for a in range(4):
        for b in range(4):
            ea = embed_element(F4, big, a)
            eb = embed_element(F4, big, b)
            assert embed_element(F4, big, F4.add(a, b)) == big.add(ea, eb)
            assert embed_element(F4, big, F4.mul(a, b)) == big.mul(ea, eb)


def test_extend_is_deterministic():
    one = field_extend(F2, 3)
    two = field_extend(F2, 3)
    assert one is two and one.poly == FieldSpec.get(2, 3).poly


def test_irreducibles_degree_three_over_f2():
    polys = irreducibles(F2, 3)
    assert [p.coeffs for p in polys] == [(1, 1, 0, 1), (1, 0, 1, 1)]
    assert len(polys) == 2


def test_irreducibles_degree_one():
    assert [p.coeffs for p in irreducibles(F2, 1)] == [(0, 1), (1, 1)]
    assert len(irreducibles(F3, 1)) == 3


def test_irreducible_counts_match_formula():
    cases = [(F2, 12), (F3, 7), (F4, 5), (F5, 4), (F8, 3), (F9, 3), (F13, 2)]
    for spec, dmax in cases:
        # genus 0: the places of degree d, with infinity at d = 1
        counts = place_counts(spec.q, [], dmax)
        got = [len(irreducibles(spec, d)) + (d == 1) for d in range(1, dmax + 1)]
        assert got == counts, spec


def test_lex_least_irreducible_over_f4():
    p = lex_least_irreducible(F4, 2)
    assert p.coeffs == (2, 1, 1)  # x^2 + x + w


def test_poly_euclidean_division():
    rng = random.Random(3)
    for spec in (F2, F3, F4):
        for _ in range(50):
            f = Poly(spec, [rng.randrange(spec.q) for _ in range(6)])
            g = Poly(spec, [rng.randrange(spec.q) for _ in range(3)])
            if g.is_zero():
                continue
            q, r = f.divmod(g)
            assert q * g + r == f
            assert r.degree < g.degree
            if not f.is_zero() and not g.is_zero():
                assert (f * g).degree == f.degree + g.degree


def test_divmod_by_monic_divisor_takes_no_inverse(monkeypatch):
    # beyond the 2^16 log tables an inverse is a power with schoolbook products
    big = FieldSpec.get(2, 17)
    rng = random.Random(17)
    f = Poly(big, [rng.randrange(big.q) for _ in range(9)])
    g = Poly(big, [rng.randrange(big.q) for _ in range(4)] + [1])
    calls = []
    inv = FieldSpec.inv
    monkeypatch.setattr(FieldSpec, "inv", lambda spec, a: calls.append(a) or inv(spec, a))
    q, r = f.divmod(g)
    assert calls == []
    assert q * g + r == f and r.degree < g.degree
    q, r = f.divmod(g.scale(3))
    assert calls == [3]
    assert q * g.scale(3) + r == f and r.degree < g.degree


def test_crt_linear_interpolation():
    x = Poly(F2, (0, 1))
    x1 = Poly(F2, (1, 1))
    got = crt_reconstruct([(x, Poly(F2, (1,))), (x1, Poly.zero(F2))])
    assert got == x1  # x+1: value 1 at 0, value 0 at 1


def test_crt_prime_power_modulus():
    # solve the 3x3 system by hand: f = a+bx+cx^2, f mod x^2 = x, f(1) = 1
    # gives a=0, b=1, c=0, so the unique interpolant is x itself
    x2 = Poly(F2, (0, 0, 1))
    x1 = Poly(F2, (1, 1))
    got = crt_reconstruct([(x2, Poly(F2, (0, 1))), (x1, Poly(F2, (1,)))])
    assert got == Poly(F2, (0, 1))
    assert got % x2 == Poly(F2, (0, 1))
    assert got.evaluate(1) == 1


def test_crt_single_modulus_identity():
    g = Poly(F3, (1, 2, 1))
    f = Poly(F3, (2, 1))
    assert crt_reconstruct([(g, f)]) == f


def test_crt_errors():
    x = Poly(F2, (0, 1))
    with pytest.raises(NonCoprimeModuli):
        crt_reconstruct([(x, Poly.zero(F2)), (x * x, Poly.zero(F2))])
    with pytest.raises(DegreeOverflow):
        crt_reconstruct([(x, Poly(F2, (1, 1)))])


def test_crt_roundtrip_random():
    rng = random.Random(11)
    for _ in range(100):
        spec = rng.choice((F2, F3, F4))
        mods = []
        pool = irreducibles(spec, 1) + irreducibles(spec, 2)
        rng.shuffle(pool)
        used = pool[: rng.randrange(2, 4)]
        mods = []
        for p in used:
            e = rng.randrange(1, 3)
            m = Poly.one(spec)
            for _ in range(e):
                m = m * p
            mods.append(m)
        total_deg = sum(m.degree for m in mods)
        f = Poly(spec, [rng.randrange(spec.q) for _ in range(total_deg)])
        back = crt_reconstruct([(m, f % m) for m in mods])
        assert back == f


def test_local_expansion_monomial():
    f = Poly(F2, (0, 0, 1))
    coeffs = local_expansion(f, Poly.one(F2), Poly(F2, (0, 1)), 3)
    assert coeffs == ((0,), (0,), (1,))


def test_local_expansion_constant():
    got = local_expansion(Poly.one(F3), Poly.one(F3), Poly(F3, (1, 1)), 2)
    assert got == ((1,), (0,))


def test_local_expansion_infinity():
    num = Poly.one(F2)
    den = Poly(F2, (1, 1))
    assert local_expansion(num, den, INFINITY, 2) == (0, 1)
    with pytest.raises(PoleAtPlace):
        local_expansion(den, num, INFINITY, 2)
    pole, coeffs = local_expansion(den, num, INFINITY, 3, normalize=True)
    assert pole == 1 and coeffs == (1, 1, 0)


def test_local_expansion_first_digit_is_evaluation():
    place = Poly(F3, (1, 1))  # x + 1, i.e. x = -1 = 2
    f = Poly(F3, (1, 2, 1))
    digits = local_expansion(f, Poly.one(F3), place, 2)
    assert digits[0] == (f.evaluate(2),)


def test_local_expansion_rejects_reducible_place():
    square = Poly(F2, (1, 1)) * Poly(F2, (1, 1))  # (x+1)^2
    with pytest.raises(CcmaError, match="irreducible place polynomial"):
        local_expansion(Poly.one(F2), Poly.one(F2), square, 2)


def test_local_expansion_multiplicative():
    rng = random.Random(5)
    place = Poly(F3, (1, 0, 1))  # x^2+1 irreducible over F_3
    assert is_irreducible(place)
    res = ExtensionRing(F3, place)
    cube = place * place * place
    for _ in range(40):
        f = Poly(F3, [rng.randrange(3) for _ in range(6)])
        g = Poly(F3, [rng.randrange(3) for _ in range(6)])
        cf = local_expansion(f, Poly.one(F3), place, 3)
        cg = local_expansion(g, Poly.one(F3), place, 3)
        # truncated product of digit vectors
        prod = [res.zero] * 3
        for i in range(3):
            for j in range(3 - i):
                prod[i + j] = res.add(prod[i + j], res.mul(cf[i], cg[j]))
        assert tuple(prod) == local_expansion(f * g, Poly.one(F3), place, 3)
        # the digits only see f mod P^3
        assert cf == local_expansion(f + cube * g, Poly.one(F3), place, 3)


def test_extension_ring_inverse():
    ring = ExtensionRing(F2, Poly(F2, (1, 1, 0, 1)))
    rng = random.Random(2)
    for _ in range(30):
        a = tuple(rng.randrange(2) for _ in range(3))
        if a == ring.zero:
            continue
        assert ring.mul(a, ring.inv(a)) == ring.one


def test_guard_blocks_huge_enumeration(monkeypatch):
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "100")
    from ccma.errors import GuardExceeded

    with pytest.raises(GuardExceeded):
        irreducibles(F2, 30)


def test_local_expansion_finite_pole_normalized():
    # f = 1/(x (x+1)) at the place x: pole order 1, remaining part 1/(x+1)
    num = Poly.one(F2)
    den = Poly(F2, (0, 1)) * Poly(F2, (1, 1))
    place = Poly(F2, (0, 1))
    with pytest.raises(PoleAtPlace):
        local_expansion(num, den, place, 2)
    pole, digits = local_expansion(num, den, place, 3, normalize=True)
    assert pole == 1
    # 1/(x+1) = 1 + x + x^2 + ... at x = 0
    assert digits == ((1,), (1,), (1,))


def test_poly_derivative_characteristic():
    f = Poly(F3, (1, 2, 0, 1, 0, 0, 2))  # 2x^6 + x^3 + 2x + 1 over F_3
    df = f.derivative()
    assert df == Poly(F3, (2,))  # x^3 and x^6 terms vanish in char 3


def _reference_ops(spec, a, b):
    """mul, add, sub by schoolbook products and the digit loop."""
    return (
        spec._mul_generic(a, b),
        spec._add_digits(a, b),
        spec._add_digits(a, spec._neg_digits(b)),
    )


def _table_ops(spec, a, b):
    return spec.mul(a, b), spec.add(a, b), spec.sub(a, b)


def _check_unary(spec, a):
    assert spec.neg(a) == spec._neg_digits(a)
    if a:
        assert spec._mul_generic(a, spec.inv(a)) == 1


def test_table_arithmetic_matches_generic_on_every_pair():
    for p, k_max in ((2, 8), (3, 5), (5, 3)):  # every field with q <= 256
        for k in range(1, k_max + 1):
            spec = FieldSpec.get(p, k)
            assert len(spec._exp) == 2 * (spec.q - 1) and len(spec._log) == spec.q
            for a in range(spec.q):
                _check_unary(spec, a)
                for b in range(spec.q):
                    assert _table_ops(spec, a, b) == _reference_ops(spec, a, b), (spec, a, b)


def test_table_arithmetic_matches_generic_on_large_fields():
    rng = random.Random(16)
    for p, k in ((2, 16), (3, 10), (5, 6)):
        spec = FieldSpec.get(p, k)
        assert spec._mul is not None  # the table path, up to 2^16 elements
        for _ in range(3000):
            a = rng.randrange(spec.q)
            b = rng.randrange(spec.q)
            _check_unary(spec, a)
            assert _table_ops(spec, a, b) == _reference_ops(spec, a, b), (spec, a, b)
    assert FieldSpec.get(2, 17)._mul is None


def test_row_kernels_match_scalar_loops():
    rng = random.Random(3)
    specs = [F2, F3, F4, F9, F13, F16, FieldSpec.get(3, 3), FieldSpec.get(2, 17),
             FieldSpec.get(3, 11)]  # the last two are above 2^16: no tables
    for spec in specs:
        for length in (0, 1, 2, 5, 9):
            for _ in range(20):
                xs = [rng.choice((0, rng.randrange(spec.q))) for _ in range(length)]
                ys = [rng.choice((0, rng.randrange(spec.q))) for _ in range(length)]
                for f in (0, 1, spec.p - 1, rng.randrange(spec.q)):
                    assert spec.scaled(f, ys) == [spec.mul(f, y) for y in ys]
                    assert spec.sub_scaled(xs, f, ys) == [
                        spec.sub(x, spec.mul(f, y)) for x, y in zip(xs, ys)
                    ]
                acc = 0
                for x, y in zip(xs, ys):
                    acc = spec.add(acc, spec.mul(x, y))
                assert spec.dot(xs, ys) == acc, (spec, xs, ys)


# -- the shared primitives against their definitions ---------------------------


def _rows_by_division(spec, modulus):
    d = modulus.degree
    rows = []
    for j in range(d - 1):
        r = Poly(spec, (0,) * (d + j) + (1,)) % modulus
        rows.append(tuple(r[i] for i in range(d)))
    return rows


def test_reduction_rows_match_polynomial_division():
    rng = random.Random(5)
    for spec in (F2, F3, F4, F16):
        for d in range(1, 7):
            for _ in range(5):
                M = Poly(spec, [rng.randrange(spec.q) for _ in range(d)] + [1])
                assert reduction_rows(spec, M) == (
                    _rows_by_division(spec, M) if d > 1 else [(spec.neg(M[0]),)]
                ), (spec, M)
    for spec in (FieldSpec.get(2, 17), FieldSpec.get(3, 11)):  # beyond the tables
        fp = FieldSpec.get(spec.p)
        assert spec._red == _rows_by_division(fp, Poly(fp, spec.poly))


def _repeated(mul, one, a, e):
    out = one
    for _ in range(e):
        out = mul(out, a)
    return out


def test_power_matches_repeated_multiplication():
    rng = random.Random(9)
    for spec in (F3, F4, F9, F16, FieldSpec.get(3, 11)):
        for _ in range(10):
            a = rng.randrange(1, spec.q)
            e = rng.randrange(20)
            assert power(spec.mul, 1, a, e) == _repeated(spec.mul, 1, a, e)
            assert spec.pow(a, e) == _repeated(spec.mul, 1, a, e)
            assert spec.pow(a, -e) == _repeated(spec.mul, 1, spec.inv(a), e)
    for spec, mod in ((F2, (1, 1, 0, 1)), (F3, (0, 0, 1)), (F4, (2, 1, 1))):
        ring = ExtensionRing(spec, Poly(spec, mod))
        M = ring.modulus
        for _ in range(10):
            a = tuple(rng.randrange(spec.q) for _ in range(ring.dim))
            e = rng.randrange(20)
            assert ring.pow(a, e) == _repeated(ring.mul, ring.one, a, e)
            f = Poly(spec, [rng.randrange(spec.q) for _ in range(5)])
            assert f.pow_mod(e, M) == _repeated(lambda x, y: x * y % M, Poly.one(spec), f, e)


def test_digit_codec_round_trips_in_ascending_order():
    rng = random.Random(2)
    for base in (2, 3, 4, 16, 2 ** 18):
        for n in (1, 2, 5):
            for _ in range(20):
                v = rng.randrange(base ** n)
                ds = digits(v, base, n)
                assert len(ds) == n and all(0 <= c < base for c in ds)
                assert pack(ds, base) == v
    for spec in (F2, F3, F4):
        for d in (1, 2, 3):
            keys = [pack(f.coeffs[:-1], spec.q) for f in iter_monic(spec, d)]
            assert keys == list(range(spec.q ** d))
        ring = ExtensionRing(spec, Poly(spec, (1, 0, 1)))
        assert [ring.encode(a) for a in ring.elements()] == list(range(ring.q))
