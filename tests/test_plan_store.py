"""The plan solver on random requests, and the cost table's stored solves."""

import random

from ccma import bilinear, genus0
from ccma.bilinear import CostTable
from ccma.gf import FieldSpec
from ccma.planner import Planner, spec_for_q

from test_plan_solver import _reference_plan_dp, _solve


def _random_request(rng):
    """Classes as `place_classes` makes them, with exact costs >= 2du - 1.

    Costs sit on or just above the bound, so many plans tie; some class
    sets cannot reach the budget.
    """
    classes = []
    for d in sorted(rng.sample(range(1, 8), rng.randint(1, 4))):
        avail = rng.randint(1, 6)
        classes += [(d, u, avail) for u in range(1, 5) if rng.random() < 0.7]
    classes = classes[:13] or [(1, 1, rng.randint(1, 6))]
    costs = [[d, u, 2 * d * u - 1 + rng.choice((0, 0, 0, 1, 1, 2, 3, d * u))]
             for d, u, _ in classes]
    return {"classes": classes, "budget": rng.randint(1, 40), "costs": costs}


def test_plan_solver_matches_reference_on_random_requests():
    # counts, total and the order in which the solver prices its classes
    rng = random.Random(33)
    outcomes = []
    for _ in range(400):
        request = _random_request(rng)
        expect = _solve(_reference_plan_dp, request)
        assert _solve(genus0._lazy_plan_dp, request) == expect, request
        outcomes.append(expect[0] is not None)
    assert 0 < outcomes.count(False) < outcomes.count(True)


def _counted_solves(monkeypatch):
    """Each `_lazy_plan_dp` call, as (classes, budget, the (d, u) it priced)."""
    solves = []
    solve = genus0._lazy_plan_dp

    def spy(classes, budget, prices):
        read = []
        solves.append((classes, budget, read))

        class Reading:
            def cost(self, d, u=1):
                read.append((d, u))
                return prices.cost(d, u)

        return solve(classes, budget, Reading())

    monkeypatch.setattr(genus0, "_lazy_plan_dp", spy)
    return solves


def test_stored_solve_is_solved_again_when_a_price_it_read_rises(monkeypatch):
    table = CostTable(FieldSpec.get(2))
    solves = _counted_solves(monkeypatch)
    classes, *first = genus0.price_plan(table.base, 7, 1, table)
    budget = 2 * 7 - 1

    def reads():  # pricing a class solves its own plans too; count only this one
        return [read for cls, b, read in solves if (cls, b) == (classes, budget)]

    assert list(table.plan(classes, budget)) == first and len(reads()) == 1
    # a price the solve did not read leaves it standing
    unread = next((d, u) for d, u, _ in classes if (d, u) not in reads()[0])
    table._prices[unread] = table.cost(*unread) + 5
    assert list(table.plan(classes, budget)) == first and len(reads()) == 1
    # an entry built above a price the solve read: the next request solves again
    used = next((d, u) for (d, u, _), c in zip(classes, first[0]) if c and d * u > 1)
    table._prices[used] += 5
    again = table.plan(classes, budget)
    assert len(reads()) == 2 and used in reads()[1]
    monkeypatch.undo()
    assert again == genus0._lazy_plan_dp(classes, budget, table)
    assert list(again) != first


def test_table2_grid_solves_each_plan_once(monkeypatch):
    # the 21 cells q in {2, 3, 4}, n = 2..8 on fresh tables made 108 solves
    # of 62 distinct requests before the table stored its solves
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    solves = _counted_solves(monkeypatch)
    for q in (2, 3, 4):
        for n in range(2, 9):
            Planner(spec_for_q(q)).synth(n)
    assert 0 < len(solves) <= 62
