"""Plan search and algorithm assembly on the projective line."""

import pytest

from ccma.bilinear import CostTable, verify
from ccma.errors import PlanInfeasible
from ccma.gf import FieldSpec, Poly
from ccma.genus0 import (
    EvalPlan,
    G0Place,
    build,
    enumerate_g0_places,
    interpolation_matrix_rank,
    plan_search,
)

F2 = FieldSpec.get(2)
F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)
F5 = FieldSpec.get(5)


def table(spec):
    return CostTable(spec)


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
    with pytest.raises(PlanInfeasible):
        plan_search(F2, 4, 1, table(F2), max_place_degree=1, max_mult=1)


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
    tab = table(F2)
    plan = plan_search(F2, 1, 2, tab)
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
        costs = [plan_search(spec, n, 1, tab).cost for n in range(1, 6)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_multiplicity_plan_verifies():
    # force derived evaluations by capping the place degree at 1
    tab = table(F3)
    plan = plan_search(F3, 3, 1, tab, max_place_degree=1)
    assert any(u >= 2 for _, u in plan.items)
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


def test_place_degree_cap_is_the_budget():
    # at the parent --max-place-degree 100000 counted irreducibles of every
    # degree up to 100000 and did not finish
    from ccma.planner import Planner

    plain = Planner(F2).synth(3)
    capped = Planner(F2, max_place_degree=100000).synth(3)
    assert capped == plain
    assert plan_search(F2, 3, 1, table(F2), max_place_degree=100000).items == (
        plan_search(F2, 3, 1, table(F2)).items
    )
