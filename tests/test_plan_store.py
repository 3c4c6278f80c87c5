"""The plan solver on random requests, the cost table's stored solves, and
certificates above Table 2, where the solver decides most of a request."""

import hashlib
import json
import random

from ccma import bilinear, genus0
from ccma.bilinear import CostTable
from ccma.gf import FieldSpec
from ccma.planner import Planner, spec_for_q

from test_plan_solver import _solves


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
    # counts and total; every class has a cost here, so both fills agree
    rng = random.Random(33)
    outcomes = []
    for _ in range(400):
        request = _random_request(rng)
        for expect, got in _solves(request):
            assert got == expect, request
        outcomes.append(expect[0] is not None)
    assert 0 < outcomes.count(False) < outcomes.count(True)


def _counted_solves(monkeypatch):
    """Each `_plan_dp` call, as (classes, budget, prices)."""
    solves = []
    solve = genus0._plan_dp

    def spy(classes, budget, prices):
        solves.append((tuple(classes), budget, prices))
        return solve(classes, budget, prices)

    monkeypatch.setattr(genus0, "_plan_dp", spy)
    return solves


def test_stored_solve_is_solved_again_when_a_price_it_read_rises(monkeypatch):
    table = CostTable(FieldSpec.get(2))
    solves = _counted_solves(monkeypatch)
    classes, *first = genus0.price_plan(table.base, 7, 1, table)
    budget = 2 * 7 - 1

    def mine():  # pricing a class solves its own plans too; count only this one
        return [prices for cls, b, prices in solves if (cls, b) == (tuple(classes), budget)]

    def prices():
        return tuple(table.cost(d, u) for d, u, _ in classes)

    assert mine() == [prices()]
    # while every class price is unchanged, the stored solve answers
    assert list(table.plan(classes, budget)) == first and len(mine()) == 1
    # any class price that rises solves again, one the plan does not use too
    unused = next((d, u) for (d, u, _), c in zip(classes, first[0]) if not c)
    table._prices[unused] += 5
    assert list(table.plan(classes, budget)) == first and mine()[1:] == [prices()]
    # an entry built above a price the plan uses: the next request solves again
    used = next((d, u) for (d, u, _), c in zip(classes, first[0]) if c and d * u > 1)
    table._prices[used] += 5
    again = table.plan(classes, budget)
    assert mine()[2:] == [prices()]
    monkeypatch.undo()
    assert again == genus0._plan_dp(classes, budget, prices())
    assert list(again) != first


def test_table2_grid_solves_each_plan_once(monkeypatch):
    # the 21 cells q in {2, 3, 4}, n = 2..8 on fresh tables: each solve is
    # stored under its own (classes, budget, prices) in its table, so no
    # table solves one twice; pricing every class of a plan makes 70 solves
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    solves = _counted_solves(monkeypatch)
    for q in (2, 3, 4):
        for n in range(2, 9):
            Planner(spec_for_q(q)).synth(n)
    tables = [t for registry in bilinear._SHARED_TABLES.values() for t in registry.values()]
    assert len(solves) == sum(len(t._plans) for t in tables)
    assert 0 < len(solves) <= 70


# sha256 of json.dumps(certificate, sort_keys=True) above Table 2, where the
# plan solver decides most of a request; recorded before classes were all
# priced up front, which builds the same bytes
ABOVE_THE_TABLE = {
    (2, 24): "1451eee66b132672a3c92446ef66cb53e8ec942ea1628fa8f8f52fcad90a1a3a",
    (3, 24): "965c15955e289711118b860f20a2b5fa8e689599ec68d0defcc1535bb5f79dca",
    (2, 32): "0107e13bc78562234f18cfad69a060979e7a1fa23f5bca49352bf0d2e98ee957",
    (4, 40): "a720e16e4f241a227bcfa1d77dbfb786a98b520a51b870ee64886dad05f0988f",
}


def test_certificates_above_the_table_are_pinned():
    for (q, n), digest in ABOVE_THE_TABLE.items():
        cert = Planner(spec_for_q(q)).synth(n)
        text = json.dumps(cert, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (q, n, cert["rank"])
