"""Differential tests: Butler's irreducibility test against the Rabin test it
replaced and against its own earlier form (root screen first, rows from
products by x^q), and the memoized irreducible stream against a direct
filter."""

import itertools
import random

from ccma import gf, linalg
from ccma.gf import (
    FieldSpec,
    Poly,
    irreducibles,
    is_irreducible,
    iter_irreducibles,
    iter_monic,
    lex_least_irreducible,
    place_counts,
)

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)
F5 = FieldSpec.get(5)
F8 = FieldSpec.get(2, 3)
F16 = FieldSpec.get(2, 4)
F256 = FieldSpec.get(2, 8)


def _prime_divisors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _frob_compose(f, xq, mod):
    """f(x)^q mod `mod`, via composition with x^q (q = field size)."""
    sp = f.spec
    acc = Poly.zero(sp)
    for c in reversed(f.coeffs):
        acc = (acc * xq) % mod
        acc = acc + Poly.constant(sp, sp.pow(c, sp.q))
    return acc


def rabin_is_irreducible(poly):
    """Rabin's test: x^(q^d) = x mod P, and gcd(x^(q^(d/r)) - x, P) = 1."""
    d = poly.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    if poly[0] == 0:
        return False
    sp = poly.spec
    poly = poly.monic()
    x = Poly.x(sp)
    xq = x.pow_mod(sp.q, poly)
    cur = xq
    for _ in range(d - 1):
        cur = _frob_compose(cur, xq, poly)
    if cur != x % poly:
        return False
    for r in _prime_divisors(d):
        cur = x % poly
        for _ in range(d // r):
            cur = _frob_compose(cur, xq, poly)
        diff = cur - (x % poly)
        if diff.is_zero() or diff.gcd(poly).degree > 0:
            return False
    return True


def screen_first_is_irreducible(poly):
    """Butler's test as it ran before the root scan went first at every degree.

    A root scan decides degrees 2 and 3 while q <= gf.ROOT_SCAN_MAX_Q;
    otherwise the gcd root screen runs after the squarefree check, and row i
    is x^((i-1)q) * x^q mod P, x^q by square and multiply.
    """
    d = poly.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    if poly[0] == 0:
        return False
    sp = poly.spec
    if d <= 3 and sp.q <= gf.ROOT_SCAN_MAX_Q:
        return all(poly.evaluate(a) for a in range(1, sp.q))
    poly = poly.monic()
    deriv = poly.derivative()
    if deriv.is_zero() or poly.gcd(deriv).degree > 0:
        return False
    x = Poly.x(sp)
    xq = x.pow_mod(sp.q, poly)
    if (xq - x).gcd(poly).degree > 0:
        return False
    if d <= 3:
        return True
    cur = Poly.one(sp)
    rows = []
    for i in range(d):
        if i:
            cur = (cur * xq) % poly
        row = [cur[j] for j in range(d)]
        row[i] = sp.sub(row[i], 1)
        rows.append(row)
    return linalg.rank(sp, rows) == d - 1


def test_root_scan_first_matches_the_screen_first_test():
    # every monic polynomial of degree <= 6 over F_2, F_3, F_4 and F_5, and
    # of degree <= 5 over F_8 (its 262 144 sextics take a minute): rows from
    # the multiply-by-x chain, since q <= 2d at every degree >= 4 there
    for spec, dmax in ((F2, 6), (F3, 6), (F4, 6), (F5, 6), (F8, 5)):
        for d in range(dmax + 1):
            for poly in iter_monic(spec, d):
                assert is_irreducible(poly) == screen_first_is_irreducible(poly), poly
    # the first 300 candidates of the degree-14 walk over F_16 (chain rows)
    for poly in itertools.islice(iter_monic(F16, 14), 300):
        assert is_irreducible(poly) == screen_first_is_irreducible(poly), poly
    # rows from products by x^q after the scan: q > 2d, q <= ROOT_SCAN_MAX_Q
    rng = random.Random(25)
    for spec, degrees in ((F16, (4, 5, 6, 7)), (FieldSpec.get(2, 6), (4, 8, 12))):
        for d in degrees:
            for _ in range(60):
                poly = _random_monic(rng, spec, d)
                assert is_irreducible(poly) == screen_first_is_irreducible(poly), poly


def test_butler_matches_rabin_on_every_small_polynomial():
    for spec, dmax in ((F2, 8), (F3, 5), (F4, 4), (F5, 3)):
        for d in range(0, dmax + 1):
            for poly in iter_monic(spec, d):
                assert is_irreducible(poly) == rabin_is_irreducible(poly), poly
    # non-monic inputs are judged by their monic associate
    for poly in iter_monic(F5, 3):
        assert is_irreducible(poly.scale(3)) == is_irreducible(poly)


def _random_monic(rng, spec, d):
    return Poly(spec, [rng.randrange(spec.q) for _ in range(d)] + [1])


def _random_irreducible(rng, spec, d):
    while True:
        poly = _random_monic(rng, spec, d)
        if rabin_is_irreducible(poly):
            return poly


def test_butler_matches_rabin_on_random_high_degree():
    rng = random.Random(20190501)
    cases = []
    for d in (13, 14, 15):
        cases += [_random_monic(rng, F16, d) for _ in range(6)]
        # an irreducible, a product without linear factors, a non-squarefree one
        cases.append(lex_least_irreducible(F16, d))
        low = lex_least_irreducible(F16, 5)
        cases.append(low * lex_least_irreducible(F16, d - 5))
        cases.append(low * low * _random_monic(rng, F16, d - 10))
        # a root in F_16 times an irreducible: rejected by the root screen
        cases.append(_linear(rng, F16) * lex_least_irreducible(F16, d - 1))
    cases += [_random_monic(rng, F2, 16) for _ in range(10)]
    # low degrees on either side of gf.ROOT_SCAN_MAX_Q (root scan, then root screen)
    for spec in (F16, F256):
        cases += [_random_monic(rng, spec, d) for d in (2, 3, 4) for _ in range(4)]
    # above ROOT_SCAN_MAX_Q, squarefree products with a root, and irreducibles
    # that the screen alone accepts at d <= 3
    cases.append(Poly(F256, [3, 1]) * Poly(F256, [5, 1]))
    # (over F_256 the lex-least quartic comes after 2^16 reducible x^4 + bx^2 + c,
    # so the irreducible factors are drawn at random, as Rabin's test accepts)
    for d in (3, 4, 5):
        cases.append(_linear(rng, F256) * _random_irreducible(rng, F256, d - 1))
    cases += [lex_least_irreducible(F256, d) for d in (2, 3)]
    verdicts = [is_irreducible(p) for p in cases]
    assert verdicts == [rabin_is_irreducible(p) for p in cases]
    assert True in verdicts and False in verdicts


def _linear(rng, spec):
    """x + a for a random nonzero a."""
    return Poly(spec, [rng.randrange(1, spec.q), 1])


def test_root_screen_rejects_before_any_rank(monkeypatch):
    ranks = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda spec, rows: ranks.append(len(rows))
                        or real(spec, rows))
    rng = random.Random(14)
    irreducible = lex_least_irreducible(F16, 13)
    for _ in range(4):
        assert not is_irreducible(_linear(rng, F16) * irreducible)
    assert ranks == []
    # an irreducible of the same degree still takes Butler's rank
    assert is_irreducible(lex_least_irreducible(F16, 14))
    assert ranks == [14]


def test_interleaved_streams_share_one_ascending_sequence(monkeypatch):
    monkeypatch.setattr(gf, "_IRREDUCIBLE_STREAMS", {})
    tested = []
    real = gf.is_irreducible

    def counting(poly):
        tested.append(poly.coeffs)
        return real(poly)

    monkeypatch.setattr(gf, "is_irreducible", counting)
    expected = [p for p in iter_monic(F4, 3) if real(p)]

    early = iter_irreducibles(F4, 3)
    head = [next(early) for _ in range(3)]
    early.close()
    a = iter_irreducibles(F4, 3)
    b = iter_irreducibles(F4, 3)
    got_a = [next(a), next(a)]
    got_b = [next(b) for _ in range(7)]  # b runs past everything seen so far
    got_a += [next(a) for _ in range(9)]  # a overtakes b
    got_b += list(b)
    got_a += list(a)

    assert head == expected[:3]
    assert got_a == expected and got_b == expected
    assert len(expected) == place_counts(4, [], 3)[2]
    assert irreducibles(F4, 3) == expected
    assert lex_least_irreducible(F4, 3) == expected[0]
    # every monic cubic was tested exactly once across all consumers
    assert len(tested) == 4 ** 3 and len(set(tested)) == 4 ** 3


def _agreeing_irreducible(rng, spec, d):
    """A random monic irreducible of degree d, on which Rabin's test agrees."""
    while True:
        poly = _random_monic(rng, spec, d)
        if is_irreducible(poly):
            assert rabin_is_irreducible(poly), poly
            return poly


def test_packed_rows_match_rabin():
    # over F_{2^k} Butler's test runs on rows packed one byte per coefficient:
    # the root scan decides every monic polynomial of degree <= 3 over F_32
    F32, F64, F128 = FieldSpec.get(2, 5), FieldSpec.get(2, 6), FieldSpec.get(2, 7)
    for d in range(4):
        for poly in iter_monic(F32, d):
            assert is_irreducible(poly) == rabin_is_irreducible(poly), poly
    # the multiply-by-x chain (q <= 2d), and the scan then products by x^q at
    # q = 128 > 2d: random polynomials, a product of two irreducibles (no
    # root, so it reaches the rank) and an irreducible
    rng = random.Random(28)
    for spec, degrees, count in ((F32, (16,), 6), (F64, (32,), 2), (F128, range(4, 9), 4)):
        for d in degrees:
            half = _agreeing_irreducible(rng, spec, d // 2)
            cases = [_random_monic(rng, spec, d) for _ in range(count)]
            cases.append(half * _agreeing_irreducible(rng, spec, d - d // 2))
            verdicts = [is_irreducible(p) for p in cases]
            assert verdicts == [rabin_is_irreducible(p) for p in cases], (spec, d)
            assert not verdicts[-1]
            _agreeing_irreducible(rng, spec, d)
