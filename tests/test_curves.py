"""Curve models, places, Riemann-Roch spaces, conditions, and assembly."""

import itertools
import random

import pytest

from ccma.bilinear import CostTable, verify
from ccma import curves, gf, linalg
from ccma.errors import (
    CcmaError,
    ConditionFailure,
    DivisorSearchFailed,
    GuardExceeded,
    PlanInfeasible,
)
from ccma.gf import ExtensionRing, FieldSpec, Poly, lex_least_irreducible
from ccma.planner import shipped_instances
from ccma.curves import (
    CurveDivisor,
    CurveModel,
    ccma_build_curve,
    check_conditions,
    enumerate_curve_places,
    fiber_places,
    find_divisor,
    find_place_of_degree,
    riemann_roch_basis,
    rr_dim,
    solve_y_quadratic,
    sqrt_in_field,
    _is_smooth,
)

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)
F16 = FieldSpec.get(2, 4)


def fermat():
    return CurveModel(F4, (1,), (1, 0, 0, 1))  # y^2+y = x^3+1


def cenk():
    return CurveModel(F3, (), (2, 1, 0, 1))  # y^2 = x^3+x+2


def hyper():
    return CurveModel(F16, (1,), (0, 0, 0, 0, 0, 1))  # y^2+y = x^5


def xy(base):
    return CurveModel(base, (0, 1), (1, 0, 0, 1))  # y^2+xy = x^3+1


def test_model_validation():
    with pytest.raises(CcmaError, match="singular"):
        CurveModel(F3, (), (0, 0, 0, 1))  # y^2 = x^3
    with pytest.raises(CcmaError, match="singular"):
        CurveModel(F4, (), (1, 0, 0, 1))  # y^2 = x^3 + 1 in characteristic 2
    with pytest.raises(CcmaError, match="odd degree"):
        CurveModel(F3, (), (1, 0, 0, 0, 1))  # even degree
    with pytest.raises(CcmaError, match="odd degree"):
        CurveModel(F3, (), (1, 0, 0, 2))  # not monic
    with pytest.raises(CcmaError, match="odd degree"):
        CurveModel(F3, (), (1, 1))  # genus 0
    with pytest.raises(CcmaError, match="deg h"):
        CurveModel(F4, (1, 0, 1), (1, 0, 0, 1))
    # y^2 + y = x^5 is a smooth genus-2 model in every characteristic
    assert CurveModel(F3, (1,), (0, 0, 0, 0, 0, 1)).genus == 2


def test_json_roundtrip():
    for inst in shipped_instances():
        c = CurveModel.from_json(inst["curve"])
        assert c.describe() == inst["curve"]
        back = CurveModel.from_json(c.describe())
        assert back == c and back.genus == c.genus


def _weierstrass_discriminant(sp, a1, a2, a3, a4, a6):
    """The discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    m = sp.mul

    def times(n, v):
        return m(sp.scalar(n), v)

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


def test_smoothness_agrees_with_the_weierstrass_discriminant():
    models = 0
    for base in (F2, F3, F4, FieldSpec.get(5)):
        for a1, a2, a3, a4, a6 in itertools.product(range(base.q), repeat=5):
            smooth = _is_smooth(Poly(base, (a3, a1)), Poly(base, (a6, a4, a2, 1)))
            assert smooth == (_weierstrass_discriminant(base, a1, a2, a3, a4, a6) != 0)
            models += 1
    assert models == 4424


def test_place_counts_match_known_values():
    assert len(enumerate_curve_places(fermat(), 1)) == 9  # maximal: q+1+2g*sqrt(q)
    assert len(enumerate_curve_places(fermat(), 2)) == 0  # N_2 = N_1 over F_16
    assert gf.place_counts(4, [9], 2) == [9, 0]
    assert len(enumerate_curve_places(cenk(), 1)) == 4
    assert len(enumerate_curve_places(cenk(), 2)) == 6
    assert len(enumerate_curve_places(hyper(), 1)) == 33


def _affine_points(curve, r):
    """#{(x, y) in F_{q^r}^2 on the affine model}, by brute force.

    The shipped models have prime-field coefficients, so they read the same
    in any model of F_{q^r}.
    """
    base = curve.base
    h, f = curve.h.coeffs, curve.f.coeffs
    assert all(c < base.p for c in h + f)
    big = FieldSpec.get(base.p, base.k * r)

    def at(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = big.add(big.mul(acc, x), c)
        return acc

    count = 0
    for x in big.elements():
        hx, fx = at(h, x), at(f, x)
        count += sum(big.add(big.mul(y, y), big.mul(hx, y)) == fx for y in big.elements())
    return count


def test_place_counts_against_zeta_relation():
    # brute-force N_1..N_g determine every B_d; enumeration must find them all
    # (Fermat F_4 has 648 places of degree 6: two lie above x^3 - w, x^3 - w^2
    # with y in F_16, inert fibres whose y generates no F_4096).  On
    # y^2 + xy = x^3 + 1, h = x is not constant and vanishes at x = 0, the
    # one ramified finite place
    counts = []
    for curve, top in ((fermat(), 6), (hyper(), 3), (cenk(), 7), (xy(F2), 6), (xy(F4), 4)):
        # one point at infinity: deg f is odd
        N = [1 + _affine_points(curve, r) for r in range(1, curve.genus + 1)]
        expected = gf.place_counts(curve.base.q, N, top)
        places = [enumerate_curve_places(curve, d) for d in range(1, top + 1)]
        found = [len(ps) for ps in places]
        assert found == expected, (curve, found, expected)
        counts.append(found)
        if curve.h.degree > 0:
            ramified = [p for ps in places for p in ps if p.ramified]
            assert [p.x_min for p in ramified] == [Poly.x(curve.base)]
    assert counts[2:] == [[4, 6, 8, 12, 48, 124, 312], [4, 2, 0, 2, 8, 8], [8, 4, 16, 68]]


def test_riemann_roch_elliptic_standard_basis():
    c = fermat()
    O = c.infinity
    basis = riemann_roch_basis(c, CurveDivisor(c, {O: 3}))
    monos = sorted((b.a.degree, b.b.degree) for b in basis)
    assert len(basis) == 3
    assert rr_dim(c, CurveDivisor(c, {O: 1})) == 1
    assert rr_dim(c, CurveDivisor(c, {O: -1})) == 0


def test_riemann_roch_hyper_dims():
    c = hyper()
    O = c.infinity
    for m in range(3, 12):
        assert rr_dim(c, CurveDivisor(c, {O: m})) == m - 1  # genus 2


def test_riemann_roch_dimension_law_random_divisors():
    rng = random.Random(31)
    for curve in (fermat(), cenk()):
        g = curve.genus
        pool = [p for p in enumerate_curve_places(curve, 1) if not p.is_infinity]
        pool += enumerate_curve_places(curve, 2)
        pool = [p for p in pool if not p.ramified and p.x_deg == p.degree]
        O = curve.infinity
        for _ in range(25):
            support = {O: rng.randrange(2 * g - 1, 6)}
            for p in rng.sample(pool, min(2, len(pool))):
                support[p] = rng.randrange(0, 2)
            D = CurveDivisor(curve, support)
            if D.degree < 2 * g - 1:
                continue
            assert rr_dim(curve, D) == D.degree + 1 - g, (curve, support)


def test_product_closure():
    rng = random.Random(37)
    c = cenk()
    O = c.infinity
    D = CurveDivisor(c, {O: 4})
    basis = riemann_roch_basis(c, D)
    L2 = riemann_roch_basis(c, D.scale(2))
    # products of L(D) elements lie in L(2D): check by membership in the span
    from ccma import linalg
    from ccma.curves import evaluation_rows

    places = [
        p for p in enumerate_curve_places(c, 2)
        if not p.ramified and p.x_deg == p.degree
    ][:3]
    for _ in range(10):
        f = basis[rng.randrange(len(basis))]
        g2 = basis[rng.randrange(len(basis))]
        prod = f.mul(g2)
        rows = []
        for p in places:
            rows.extend(evaluation_rows(c, L2 + [prod], p, 2))
        mat = [r[:-1] for r in rows]
        rhs = [r[-1] for r in rows]
        assert linalg.solve(F3, mat, rhs) is not None


def test_check_conditions_baum_shokrollahi():
    c = fermat()
    Q = find_place_of_degree(c, 4)
    affine = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    items = [(p, 1) for p in affine[:8]]
    D, _ = find_divisor(c, Q, items, CostTable(F4))
    rep = check_conditions(c, Q, D, D, items, 1)
    assert rep["a_onto"] and rep["b_injective"]
    assert rep["b_necessary_sufficient"]
    assert rep["q_existence_bound"]


def test_check_conditions_undersized_g():
    c = fermat()
    Q = find_place_of_degree(c, 4)
    affine = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    items = [(p, 1) for p in affine[:7]]  # 7 < 2n + g - 1 = 8
    O = c.infinity
    D = CurveDivisor(c, {O: 4})
    rep = check_conditions(c, Q, D, D, items, 1)
    assert not rep["b_injective"]
    assert not rep["b_necessary_sufficient"]


def test_find_divisor_reports_failure():
    c = fermat()
    Q = find_place_of_degree(c, 4)
    affine = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    items = [(p, 1) for p in affine[:7]]
    with pytest.raises(CcmaError):
        find_divisor(c, Q, items, CostTable(F4))


def test_divisor_walk_is_guarded(monkeypatch):
    # at n = 16 the 33 rational places all go to G, so only degree-2 support
    # places are left for a divisor of odd degree 17: no multiset of them sums
    # to it, and once the walk has read the pool to its end the gcd of its
    # degrees ends the walk, where it used to read on until the guard
    import ccma.curves as curves_mod
    from ccma.planner import Planner, spec_for_q

    reads = []
    get = curves_mod._SupportPool.get

    def counted(pool, idx):
        reads.append(idx)
        return get(pool, idx)

    monkeypatch.setattr(curves_mod._SupportPool, "get", counted)
    c = hyper()
    Q = find_place_of_degree(c, 16)
    rational = enumerate_curve_places(c, 1)
    items = [(p, 1) for p in rational]
    assert len(items) == 33
    with pytest.raises(DivisorSearchFailed, match="within 0 candidates"):
        find_divisor(c, Q, items, CostTable(F16))
    assert 0 < len(reads) <= 200
    with pytest.raises(PlanInfeasible):
        Planner(spec_for_q(16), strategies=("curve",)).synth(16)
    # a walk the prune cannot end: with one rational place left in the pool
    # degree 17 is reached, and when no candidate builds the guard stops it
    def fail(*args):
        raise ConditionFailure("every candidate fails")

    monkeypatch.setattr(curves_mod, "ccma_build_curve", fail)
    monkeypatch.setenv("CCMA_GUARD_LIMIT", str(2 ** 10))
    reads.clear()
    items = [(p, 1) for p in rational[1:-1]] + [(rational[-1], 2)]  # infinity at u = 2
    with pytest.raises(GuardExceeded, match="divisor walk"):
        find_divisor(c, Q, items, CostTable(F16))
    assert len(reads) == 2 ** 10 + 1


def test_build_baum_shokrollahi_rank8():
    c = fermat()
    Q = find_place_of_degree(c, 4)
    affine = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    items = [(p, 1) for p in affine[:8]]
    D, _ = find_divisor(c, Q, items, CostTable(F4))
    alg = ccma_build_curve(c, Q, D, D, items, 1, CostTable(F4))
    assert alg.N == 8
    assert alg.symmetric
    assert verify(alg)


def test_support_overlap_rejected():
    c = fermat()
    Q = find_place_of_degree(c, 4)
    affine = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    items = [(p, 1) for p in affine[:8]]
    D = CurveDivisor(c, {affine[0]: 4})  # overlaps an evaluation place
    with pytest.raises(ConditionFailure):
        check_conditions(c, Q, D, D, items, 1)


def test_build_decides_conditions_once(monkeypatch):
    # the build's own inverses decide both conditions: L(D) and L(2D) are its
    # only Riemann-Roch spaces (the parent made 7 calls through check_conditions)
    import ccma.curves as curves_mod

    c = fermat()
    Q = find_place_of_degree(c, 4)
    affine = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    items = [(p, 1) for p in affine[:8]]
    table = CostTable(F4)
    D, _ = find_divisor(c, Q, items, table)
    calls = []
    basis = curves_mod.riemann_roch_basis
    monkeypatch.setattr(curves_mod, "riemann_roch_basis",
                        lambda *args: calls.append(args[1]) or basis(*args))
    monkeypatch.setattr(curves_mod, "check_conditions", None)
    alg = ccma_build_curve(c, Q, D, D, items, 1, table)
    assert calls == [D, D.add(D)]
    assert alg.N == 8 and verify(alg)


def test_find_divisor_passes_riemann_roch_predicate():
    # the first candidate that builds is non-special of degree n+g-1 and
    # passes the rr_dim predicate find_divisor once tested itself
    fc = fermat()
    fQ = find_place_of_degree(fc, 4)
    affine = [p for p in enumerate_curve_places(fc, 1) if not p.is_infinity]
    items = [(p, 1) for p in affine[:8]]
    D, alg = find_divisor(fc, fQ, items, CostTable(F4))
    G = CurveDivisor(fc, {p: u for p, u in items})
    assert D.degree == 4 + fc.genus - 1
    assert rr_dim(fc, D) == 4
    assert rr_dim(fc, D.sub(CurveDivisor(fc, {fQ: 1}))) == 0
    assert rr_dim(fc, D.scale(2).sub(G)) == 0
    assert alg.N == 8 and verify(alg)


def test_curve_instance_synth_tests_divisors_by_building(monkeypatch):
    # 4*O fails injectivity at G, O + S builds: two builds of two spaces each
    # (the parent made 8 calls, three rr_dim tests per candidate before the build)
    import ccma.curves as curves_mod
    from ccma.planner import curve_instance_synth

    calls = []
    basis = curves_mod.riemann_roch_basis
    monkeypatch.setattr(curves_mod, "riemann_roch_basis",
                        lambda *args: calls.append(args[1]) or basis(*args))
    monkeypatch.setattr(curves_mod, "rr_dim", None)
    monkeypatch.setattr(curves_mod, "check_conditions", None)
    alg = curve_instance_synth(fermat(), 4, CostTable(F4))
    assert [D.degree for D in calls] == [4, 8, 4, 8]
    assert alg.N == 8 and verify(alg)


def test_lazy_support_pool_walks_like_the_eager_pool(monkeypatch):
    # the reference lists every degree of the pool up front
    import itertools

    import ccma.curves as curves_mod
    from ccma.curves import PLACE_SCAN_LIMIT, _divisor_candidates, _support_places, _SupportPool
    from ccma.planner import Planner, spec_for_q

    def eager_pool(curve, Q, eval_places, target_deg):
        pool = []
        for d in range(1, target_deg + 1):
            if curve.base.q ** d > PLACE_SCAN_LIMIT:
                break
            try:
                found = enumerate_curve_places(curve, d)
            except CcmaError:
                break
            pool += [p for p in found
                     if not (p.is_infinity or p in eval_places or p == Q
                             or p.ramified or p.x_deg != p.degree)]
            if len(pool) >= 24:
                break
        return pool

    searches = []
    search = curves_mod.find_divisor
    monkeypatch.setattr(curves_mod, "find_divisor", lambda curve, Q, items, *rest:
                        searches.append((curve, Q, items)) or search(curve, Q, items, *rest))
    requests = ((4, 4), (3, 9), (16, 13), (16, 14), (16, 15))  # the bench curve requests
    for q, n in requests:
        Planner(spec_for_q(q), strategies=("curve",)).synth(n)
    assert len(searches) >= len(requests)
    lengths = []
    for curve, Q, items in searches:
        eval_places = {p for p, _ in items}
        target_deg = Q.degree + curve.genus - 1
        reference = eager_pool(curve, Q, eval_places, target_deg)
        assert list(_support_places(curve, Q, eval_places, target_deg)) == reference
        eager = _SupportPool(iter(reference))
        lazy = _SupportPool(_support_places(curve, Q, eval_places, target_deg))
        first = [list(itertools.islice(_divisor_candidates(curve, eval_places, target_deg, pool),
                                       50)) for pool in (eager, lazy)]
        assert first[0] == first[1], (curve, Q.degree)
        lengths.append(len(first[0]))
    assert min(lengths) > 0 and max(lengths) == 50, lengths


def test_build_raises_condition_failure():
    c = fermat()
    Q = find_place_of_degree(c, 4)
    affine = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    O = c.infinity
    table = CostTable(F4)
    eight = [(p, 1) for p in affine[:8]]
    probes = [
        (CurveDivisor(c, {affine[0]: 4}), eight, "support overlap"),
        (CurveDivisor(c, {O: 4}), eight[:7], "not injective"),  # deg G = 7 < 8
        (CurveDivisor(c, {O: 2}), eight, "not onto"),  # l(D) = 2 < 4
        (CurveDivisor(c, {O: -1}), eight, "not onto"),  # L(D) = 0
    ]
    for D, items, reason in probes:
        with pytest.raises(ConditionFailure, match=reason):
            ccma_build_curve(c, Q, D, D, items, 1, table)


def test_arnaud_cost_split():
    # degrees <= 2 and multiplicities <= 2: rank = N1 + 2 l1 + 3 N2 + 6 l2
    table = CostTable(F3)
    assert table.cost(1, 1) == 1
    assert table.cost(1, 2) == 3
    assert table.cost(2, 1) == 3
    assert table.cost(2, 2) == 9
    N1, l1, N2, l2 = 4, 2, 6, 0
    total = N1 * table.cost(1, 1) + l1 * (table.cost(1, 2) - table.cost(1, 1))
    total += N2 * table.cost(2, 1) + l2 * (table.cost(2, 2) - table.cost(2, 1))
    assert total == N1 + 2 * l1 + 3 * N2 + 6 * l2 == 26


def test_curve_build_with_multiplicity_at_q():
    # truncated target F_4[t]/(t^2) through the curve machinery (l = 2)
    c = fermat()
    rats = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    Q = rats[0]
    items = [(p, 1) for p in rats[1:5]]
    D = CurveDivisor(c, {c.infinity: 2})
    rep = check_conditions(c, Q, D, D, items, ell=2)
    assert rep["a_onto"] and rep["b_injective"]
    alg = ccma_build_curve(c, Q, D, D, items, 2, CostTable(F4))
    assert alg.N == 4
    assert alg.target.kind == "truncated" and alg.target.ell == 2
    assert verify(alg)


def test_asymmetric_divisor_pair_build():
    # caller-supplied D1 != D2: the assembled algorithm is asymmetric yet exact
    c = fermat()
    Q = find_place_of_degree(c, 4)
    affine = [p for p in enumerate_curve_places(c, 1) if not p.is_infinity]
    items = [(p, 1) for p in affine[:8]]
    D1, _ = find_divisor(c, Q, items, CostTable(F4))
    D2 = None
    for S in enumerate_curve_places(c, 3)[:6]:
        cand = CurveDivisor(c, {c.infinity: 1, S: 1})
        if cand == D1:
            continue
        rep = check_conditions(c, Q, D1, cand, items, 1)
        if rep["a_onto"] and rep["b_injective"]:
            D2 = cand
            break
    assert D2 is not None
    alg = ccma_build_curve(c, Q, D1, D2, items, 1, CostTable(F4))
    assert alg.N == 8
    assert not alg.symmetric
    assert verify(alg)


def test_inert_place_generator_scan_is_guarded(monkeypatch):
    # above x^3 + 2 on the Fermat cubic, x^3 = 2 lies in F_4, so y lies in
    # F_16 and z = y is no generator; the scan skips the nonzero a in F_4,
    # for which F_4(y + a) = F_4(y), so its second candidate, a = x, is the
    # first of the degree-6 residue field
    x_min = Poly(F4, (2, 0, 0, 1))
    monkeypatch.delenv("CCMA_GUARD_LIMIT", raising=False)
    (place,) = fiber_places(fermat(), x_min)
    assert place.degree == 6 and place.residue.modulus.coeffs == (1, 0, 3, 1, 2, 1, 1)
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "1")
    with pytest.raises(GuardExceeded, match="generator scan"):
        fiber_places(fermat(), x_min)
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "2")
    (again,) = fiber_places(fermat(), x_min)
    assert (again.residue, again.xi, again.beta) == (place.residue, place.xi, place.beta)


def _generator_scans(monkeypatch):
    """The candidate count of each generator scan, as the guard sees it."""
    scans = []
    check_guard = gf.check_guard

    def counted(size, what, limit=None):
        if what == "generator scan":
            if size == 1:  # the count starts again at 1 for the next scan
                scans.append(0)
            scans[-1] = size
        return check_guard(size, what, limit)

    monkeypatch.setattr(gf, "check_guard", counted)
    return scans


def test_inert_scans_on_the_shipped_curves_stop_early(monkeypatch):
    # every inert place of the shipped curves above an x_min of degree d
    # while q^d <= 4096, built by asking for each fibre with no degree
    scans = _generator_scans(monkeypatch)
    curves = [CurveModel.from_json(inst["curve"]) for inst in shipped_instances()]
    for curve in curves:
        d = 1
        while curve.base.q ** d <= 4096:
            for x_min in gf.iter_irreducibles(curve.base, d):
                fiber_places(curve, x_min)
            d += 1
    assert len(scans) == 1469
    assert scans.count(1) == 1463 and max(scans) == 2
    # the place lists of those degrees build only the inert places they list
    scans.clear()
    for curve in curves:
        curve = CurveModel(curve.base, curve.h.coeffs, curve.f.coeffs)
        d = 1
        while curve.base.q ** d <= 4096:
            curve.places(d)
            d += 1
    assert len(scans) == 19
    assert scans.count(1) == 17 and max(scans) == 2


def test_inert_fibres_are_built_when_their_degree_is_asked(monkeypatch):
    # Fermat over F_4 has no inert fibre above a rational x, so places(2)
    # leaves every inert fibre above a quadratic x_min (degree 4) unbuilt
    scans = _generator_scans(monkeypatch)
    curve = fermat()
    curve.places(2)
    assert scans == []
    lazy = curve.places(4)
    assert scans and any(p.x_deg == 2 for p in lazy)
    eager = fermat()
    for d in (1, 2, 4):
        for x_min in gf.iter_irreducibles(F4, d):
            fiber_places(eager, x_min)
    built = enumerate_curve_places(eager, 4)
    assert lazy == built
    assert [(p.residue, p.xi, p.beta) for p in lazy] == [(p.residue, p.xi, p.beta) for p in built]


def test_characteristic_2_quadratic_matches_brute_force():
    # every v, and c = 0, 1 and seeded others, in every ring over F_2, F_4,
    # F_8 and F_16 of at most 256 elements
    rng = random.Random(34)
    checks = 0
    for k in (1, 2, 3, 4):
        sp = FieldSpec.get(2, k)
        dim = 1
        while sp.q ** dim <= 256:
            K = ExtensionRing(sp, lex_least_irreducible(sp, dim))
            elements = list(K.elements())
            others = [c for c in elements if c not in (K.zero, K.one)]
            for c in [K.zero, K.one] + rng.sample(others, min(2, len(others))):
                roots = {}
                for y in elements:
                    roots.setdefault(K.add(K.mul(y, y), K.mul(c, y)), []).append(y)
                for v in elements:
                    want = roots.get(v, [])
                    assert solve_y_quadratic(K, c, v) == (want, len(want) == 1), (K, c, v)
                    checks += 1
            dim += 1
    assert checks == 4772
    # the first residue ring of each Q walk on y^2 + y = x^5 over F_16: each
    # v = y^2 + c y gives back y and y + c
    for dim in (13, 14, 15):
        K = ExtensionRing(F16, lex_least_irreducible(F16, dim))
        for _ in range(20):
            y = tuple(rng.randrange(16) for _ in range(dim))
            for c in (K.zero, K.one, tuple(rng.randrange(16) for _ in range(dim))):
                v = K.add(K.mul(y, y), K.mul(c, y))
                roots = sorted({y, K.add(y, c)}, key=K.encode)
                assert solve_y_quadratic(K, c, v) == (roots, c == K.zero), (K, c, y)


def test_characteristic_2_fibres_invert_power_and_solve_nothing(monkeypatch):
    # a fibre reads h(xi) and f(xi) off h and f mod x_min and decides the
    # quadratic by one packed F_2 elimination: no inverse, power, list
    # solve or Horner evaluation runs inside `_fiber`
    depth, calls = [0], {}
    fiber = curves._fiber

    def in_fiber(curve, x_min):
        calls["_fiber"] = calls.get("_fiber", 0) + 1
        depth[0] += 1
        try:
            return fiber(curve, x_min)
        finally:
            depth[0] -= 1

    def counted(name, inner):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            if depth[0]:
                calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(curves, "_fiber", in_fiber)
    for owner, name in ((ExtensionRing, "inv"), (ExtensionRing, "pow"),
                        (linalg, "solve"), (Poly, "eval_in")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    fermat_f4, hyperelliptic_f16 = fermat(), hyper()
    for curve, top in ((fermat_f4, 3), (hyperelliptic_f16, 2)):
        for d in range(1, top + 1):
            enumerate_curve_places(curve, d)
    assert find_place_of_degree(hyperelliptic_f16, 13).degree == 13
    assert calls.pop("_fiber") > 0
    assert calls == {"inv": 0, "pow": 0, "solve": 0, "eval_in": 0}


def test_sqrt_in_field_matches_brute_force():
    # residue rings of size 3 mod 4 (one exponentiation) and 1 mod 4
    # (Tonelli-Shanks corrections), over prime fields and over F_9
    F9 = FieldSpec.get(3, 2)
    rings = [ExtensionRing(FieldSpec.get(p), lex_least_irreducible(FieldSpec.get(p), k))
             for p, k in ((3, 1), (7, 1), (11, 1), (3, 3), (5, 1), (3, 2), (13, 1), (5, 2))]
    rings.append(ExtensionRing(F9, lex_least_irreducible(F9, 2)))
    assert sorted(K.q for K in rings) == [3, 5, 7, 9, 11, 13, 25, 27, 81]
    for K in rings:
        roots = {}
        for r in K.elements():
            roots.setdefault(K.mul(r, r), []).append(r)
        for a in K.elements():
            assert sqrt_in_field(K, a) == sorted(roots.get(a, []), key=K.encode), (K, a)
