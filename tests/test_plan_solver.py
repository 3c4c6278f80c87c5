"""Differential test of the genus-0 plan solver against its earlier form.

`plan_requests.json` holds every distinct (classes, budget) that the plan
solver received while synthesizing F_{q^n} for q in {2, 3, 4} and n <= 9
(one planner per q), and for the five shipped curve-instance requests,
with the real cost-table cost of each class it prices.  It was recorded
while the planner's own genus-0 plans still admitted items up to
dimension 2n - 2, so it holds larger class sets than synthesis now asks
for.  `PYTHONPATH=src python tests/test_plan_solver.py` records the
requests of the current planner instead.
"""

import json
import os

from ccma.errors import PlanInfeasible
from ccma.genus0 import _lazy_plan_dp

DATA = os.path.join(os.path.dirname(__file__), "data", "plan_requests.json")
CURVE_REQUESTS = ((4, 4), (3, 9), (16, 13), (16, 14), (16, 15))


def _reference_plan_dp(classes, budget, cost_table):
    """Exact minimum-cost counts with lazily priced entries.

    Entries are priced optimistically at the local lower bound 2du-1 until
    a candidate-optimal plan actually uses them; iterating to a fixpoint
    yields the true optimum while never building irrelevant table entries.
    """
    INF = float("inf")
    estimates = {}
    exact = set()

    def est(d, u):
        v = estimates.get((d, u))
        if v is None:
            v = 2 * d * u - 1
            estimates[(d, u)] = v
        return v

    def next_used(idx, used, c):
        if idx + 1 < len(classes) and classes[idx + 1][0] == classes[idx][0]:
            return used + c
        return 0

    for _ in range(len(classes) * 4 + 4):
        memo = {}

        def best_from(idx, remaining, used):
            if remaining <= 0:
                return 0
            if idx == len(classes):
                return INF
            key = (idx, remaining, used)
            hit = memo.get(key)
            if hit is not None:
                return hit
            d, u, avail = classes[idx]
            best = INF
            top = min(avail - used, -(-remaining // (d * u)))
            for c in range(top + 1):
                rest = best_from(idx + 1, remaining - c * d * u, next_used(idx, used, c))
                if rest < INF:
                    total = c * est(d, u) + rest
                    if total < best:
                        best = total
            memo[key] = best
            return best

        total = best_from(0, budget, 0)
        if total == INF:
            return None, None
        # reconstruct lexicographically least multiset: prefer more copies
        # of earlier (smaller) classes among equal-cost solutions
        counts = []
        remaining = budget
        target_cost = total
        used = 0
        for idx, (d, u, avail) in enumerate(classes):
            top = min(avail - used, max(0, -(-remaining // (d * u))))
            chosen = 0
            for c in range(top, -1, -1):
                rest = best_from(idx + 1, remaining - c * d * u, next_used(idx, used, c))
                if rest < INF and c * est(d, u) + rest == target_cost:
                    chosen = c
                    break
            counts.append(chosen)
            remaining -= chosen * d * u
            target_cost -= chosen * est(d, u)
            used = next_used(idx, used, chosen)
        pending = [
            cls[:2]
            for cls, c in zip(classes, counts)
            if c and cls[:2] not in exact
        ]
        if not pending:
            return counts, int(total)
        for d, u in pending:
            estimates[(d, u)] = cost_table.cost(d, u)
            exact.add((d, u))
    raise PlanInfeasible("plan pricing did not converge")


class _RecordedCosts:
    """Cost table stand-in: the recorded costs, and the order they are asked."""

    def __init__(self, costs):
        self.costs = {(d, u): cost for d, u, cost in costs}
        self.priced = []

    def cost(self, d, u=1):
        self.priced.append((d, u))
        return self.costs[(d, u)]


def _solve(solver, request):
    table = _RecordedCosts(request["costs"])
    classes = [tuple(cls) for cls in request["classes"]]
    counts, total = solver(classes, request["budget"], table)
    return counts, total, table.priced


def test_plan_solver_matches_reference_on_recorded_requests():
    with open(DATA) as fh:
        requests = json.load(fh)
    assert len(requests) > 50
    feasible = 0
    for request in requests:
        expect = _solve(_reference_plan_dp, request)
        assert _solve(_lazy_plan_dp, request) == expect, request
        feasible += expect[0] is not None
    assert 0 < feasible < len(requests)


def _record():
    from ccma import genus0, planner

    seen, out = set(), []
    solve = genus0._lazy_plan_dp

    def spy(classes, budget, cost_table):
        priced = []

        class Recording:
            def cost(self, d, u=1):
                priced.append([d, u, cost_table.cost(d, u)])
                return priced[-1][2]

        result = solve(classes, budget, Recording())
        request = {"classes": [list(c) for c in classes], "budget": budget, "costs": priced}
        key = json.dumps(request, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(request)
        return result

    genus0._lazy_plan_dp = spy
    try:
        for q in (2, 3, 4):
            p = planner.Planner(planner.spec_for_q(q))
            for n in range(1, 10):
                p.synth(n)
        for q, n in CURVE_REQUESTS:
            planner.Planner(planner.spec_for_q(q), strategies=("curve",)).synth(n)
    finally:
        genus0._lazy_plan_dp = solve
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(out)} requests written to {DATA}")


if __name__ == "__main__":
    _record()
