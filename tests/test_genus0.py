"""Plan search and algorithm assembly on the projective line."""

import hashlib
import json

import pytest

from ccma import linalg
from ccma.bilinear import CostTable, verify
from ccma.errors import PlanInfeasible
from ccma.gf import FieldSpec, Poly, lex_least_irreducible
from ccma.genus0 import (
    EvalPlan,
    G0Place,
    build,
    _place_rows,
    enumerate_g0_places,
    plan_search,
)

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)
F5 = FieldSpec.get(5)


def table(spec):
    return CostTable(spec)


def interpolation_matrix_rank(plan, cost_table):
    """Column rank of the product-space evaluation matrix (should be 2nl-1)."""
    rows = []
    for _, _, rows2 in _place_rows(plan, cost_table):
        rows.extend(rows2)
    return linalg.rank(plan.base, rows)


def test_enumerate_places_degree_one():
    places = enumerate_g0_places(F2, 1)
    assert len(places) == 3
    assert places[-1].is_infinity
    assert [p.poly.coeffs for p in places[:2]] == [(0, 1), (1, 1)]
    assert len(enumerate_g0_places(F3, 1)) == 4


def test_enumerate_places_degree_two():
    places = enumerate_g0_places(F2, 2)
    assert len(places) == 1
    assert places[0].poly.coeffs == (1, 1, 1)


def test_plan_rational_points_only_for_large_q():
    plan = plan_search(F5, 3, 1, table(F5))
    assert plan.cost == 5
    assert all(u == 1 and p.degree == 1 for p, u in plan.items)
    assert len(plan.items) == 5


def test_plan_f2_n3_uses_degree_two_place():
    plan = plan_search(F2, 3, 1, table(F2))
    assert plan.cost == 6
    kinds = sorted((p.degree, u) for p, u in plan.items)
    assert kinds == [(1, 1), (1, 1), (1, 1), (2, 1)]
    assert plan.degree_sum == 5


def test_plan_f2_n4_cost_ten():
    plan = plan_search(F2, 4, 1, table(F2))
    assert plan.cost == 10
    assert plan.degree_sum >= 7


def test_plan_infeasible_under_caps():
    # every item must be smaller than its target, and nothing is below dimension 1
    with pytest.raises(PlanInfeasible):
        plan_search(F2, 1, 1, table(F2))


def test_build_verifies_small_sweep():
    for spec, n_max in ((F2, 4), (F3, 4), (F4, 4), (F5, 3)):
        tab = table(spec)
        for n in range(2, n_max + 1):
            plan = plan_search(spec, n, 1, tab)
            alg = build(plan, tab)
            assert alg.N == plan.cost
            assert verify(alg)
            assert alg.N >= 2 * n - 1


def test_build_equality_regime_costs():
    for spec in (F3, F4, F5, FieldSpec.get(7)):
        tab = table(spec)
        nmax = spec.q // 2 + 1
        for n in range(2, min(nmax, 4) + 1):
            plan = plan_search(spec, n, 1, tab)
            assert plan.cost == 2 * n - 1
            assert all(p.degree == 1 and u == 1 for p, u in plan.items)


def test_build_karatsuba_equivalent():
    tab = table(F2)
    plan = plan_search(F2, 2, 1, tab)
    alg = build(plan, tab)
    assert alg.N == 3
    assert verify(alg)
    assert alg.symmetric


def test_build_truncated_target():
    # F_3[t]/(t^2) from three rational places; over F_2 only two remain
    # besides Q, and no item may be as large as the target
    with pytest.raises(PlanInfeasible):
        plan_search(F2, 1, 2, table(F2))
    tab = table(F3)
    plan = plan_search(F3, 1, 2, tab)
    alg = build(plan, tab)
    assert alg.target.kind == "truncated"
    assert verify(alg)


def test_explicit_truncated_plan_with_infinity_derived():
    # F_2[t]/(t^2) with Q = (x), items {x+1 at u=1, inf at u=2}: rank 4
    tab = table(F2)
    Q = Poly(F2, (0, 1))
    items = [
        (G0Place(Poly(F2, (1, 1))), 1),
        (G0Place("infinity"), 2),
    ]
    plan = EvalPlan(F2, 1, 2, Q, items, 1 + tab.cost(1, 2))
    alg = build(plan, tab)
    assert alg.N == 4
    assert verify(alg)


def test_interpolation_matrix_full_rank():
    for spec, n in ((F2, 3), (F3, 4), (F4, 3)):
        tab = table(spec)
        plan = plan_search(spec, n, 1, tab)
        assert interpolation_matrix_rank(plan, tab) == 2 * n - 1


def test_cost_monotone_in_n():
    for spec in (F2, F3):
        tab = table(spec)
        costs = [plan_search(spec, n, 1, tab).cost for n in range(2, 6)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_multiplicity_plan_verifies():
    # the least F_2 plan for n = 5 already takes infinity at u = 2
    tab = table(F2)
    plan = plan_search(F2, 5, 1, tab)
    assert any(p.is_infinity and u == 2 for p, u in plan.items)
    alg = build(plan, tab)
    assert verify(alg)


def test_build_verify_wide_sweep():
    specs = [FieldSpec.get(p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
    for spec in specs:
        tab = table(spec)
        for n in range(2, 7):
            plan = plan_search(spec, n, 1, tab)
            alg = build(plan, tab)
            assert verify(alg) and alg.N == plan.cost >= 2 * n - 1, (spec.q, n)


def _pin(alg):
    text = json.dumps(alg.to_json(), sort_keys=True)
    return alg.N, hashlib.sha256(text.encode()).hexdigest()


# Exact genus-0 outputs recorded before places and targets moved to the local
# parameter: (q, n, l, plan) -> (rank, sha256 of the sorted to_json()).  The
# hand-made plans cover l = 1, 2, 3, finite places of degree 1..3 with every
# u = 1..3, and infinity with u = 1..3; the searched ones are default plans.
HAND_PLANS = {
    (2, 2, 1): [((1, 1, 0, 1), 1)],
    (2, 2, 2): [((0, 1), 3), ((1, 1), 2), ("inf", 2)],
    (2, 3, 1): [((1, 1, 1), 2), ("inf", 1)],
    (2, 2, 3): [((0, 1), 3), ((1, 1), 3), ("inf", 3), ((1, 0, 1, 1), 1)],
    (3, 2, 1): [((2, 1, 1), 2)],
    (3, 3, 2): [((1, 0, 1), 3), ((0, 1), 2), ("inf", 3)],
    (3, 2, 3): [((1, 2, 0, 1), 2), ((0, 1), 3), ("inf", 2)],
    (4, 2, 1): [((2, 0, 0, 1), 3)],
    (4, 3, 1): [((0, 1), 1), ((1, 1), 1), ((2, 1, 1), 1), ("inf", 1)],
    (4, 3, 2): [((0, 1), 3), ((1, 1), 2), ("inf", 2), ((2, 1, 1), 2)],
}
GENUS0_PINS = {
    (2, 2, 1, "hand"): (6, "3f347bbdd10059533ade505e55449ba50eeb5730e38d7cba2082aa64a3b2c7f3"),
    (2, 2, 2, "hand"): (11, "abf68a708d16d1f7b0686830e579d4e2f930da118f5d1f848d0b942f5005ea8b"),
    (2, 3, 1, "hand"): (10, "b8acdf30943f708c3bf94d9b579a98ff94b6397cd7228ed4dac5998bfa57357d"),
    (2, 2, 3, "hand"): (21, "b1a87c3299a19ca5d9b40acfa1a9e2ad460e66157234caaad6be1e37f6fd4cd5"),
    (3, 2, 1, "hand"): (9, "207bce8024245fedb9ef490b2cfd0544c2e0f729e34e7ff677443b837b42431d"),
    (3, 3, 2, "hand"): (23, "26cdcad5f37755d67c3fd76aa889a21c661f67492a7adc04fec6a5ef4f417c9f"),
    (3, 2, 3, "hand"): (23, "4d3158fbd7898d2cf57480041c145231e86df9da0934d2bb4d781b294e7f0dd5"),
    (4, 2, 1, "hand"): (23, "68a605fee9d936f02be101aff93b0d638769c21036f97bd5b52c470f1c050be9"),
    (4, 3, 1, "hand"): (6, "4578747d0a5aa61e2ba82dc0738532de0dbab9a598ee5314d0ed3fd2a126af52"),
    (4, 3, 2, "hand"): (19, "aaa94a671af3d2795b2d3e57737421e669352c92439f3abea71264b1b5b01bd2"),
    (2, 4, 1, "search"): (10, "b5f2097bccc7bcaaf1f04ef25dd1a6405f615b6e389592736cb267f908aa5669"),
    (2, 5, 1, "search"): (14, "38f0472597c96a2dc633372396de53c237d29c347cda7ae1986460474465d1d8"),
    (3, 3, 2, "search"): (15, "7fcc939ecccb7589da4a894d45f0d41b1e8f346511bf336c667ffef83c4bcbdf"),
    (4, 4, 1, "search"): (8, "ddf059aead2ca6c7a23260e05874feecdbe3b4d95121d7f1e6f3389d5635ab3e"),
}


def test_genus0_outputs_are_pinned():
    specs = {2: F2, 3: F3, 4: F4}
    tables = {q: table(spec) for q, spec in specs.items()}
    got = {}
    for (q, n, ell), items in HAND_PLANS.items():
        spec, tab = specs[q], tables[q]
        places = [(G0Place("infinity" if c == "inf" else Poly(spec, c)), u) for c, u in items]
        cost = sum(tab.cost(p.degree, u) for p, u in places)
        plan = EvalPlan(spec, n, ell, lex_least_irreducible(spec, n), places, cost)
        alg = build(plan, tab)
        assert verify(alg), (q, n, ell)
        got[(q, n, ell, "hand")] = _pin(alg)
    for q, n, ell in ((2, 4, 1), (2, 5, 1), (3, 3, 2), (4, 4, 1)):
        alg = build(plan_search(specs[q], n, ell, tables[q]), tables[q])
        got[(q, n, ell, "search")] = _pin(alg)
    assert got == GENUS0_PINS
