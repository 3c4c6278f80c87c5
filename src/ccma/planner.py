"""Cross-strategy synthesis: towers, rational interpolation, curve instances.

For a requested (q, n) the planner prices every candidate of every enabled
strategy, builds only the first one of least price, and returns it with a
machine-checkable certificate; the winner is verified exhaustively when its
certificate is made.  Ties break by the documented strategy order:
composition, then genus 0, then curves.  All strategies price and compose
from one cost table per field, the planner's root table and its subtables,
shared by every planner of the process under the same guard limit.
"""

import itertools
import json
import os
from functools import partial

from . import curves as curves_mod
from . import genus0
from .bilinear import BilinearAlgorithm, CostTable, cheapest, unless_dropped, verify_or_raise
from .bilinear import _require_keys, winograd
from .errors import CcmaError, GuardExceeded, InvalidRequest, MalformedPayload, PlanInfeasible
from .gf import FieldSpec, factor_prime_power, place_counts
from .guard import check_guard

CERT_FORMAT = "ccma-certificate-v1"

# Place assignments a curve instance tries before it gives up.
ASSIGNMENT_CAP = 40

_INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "instances")


def shipped_instances():
    out = []
    for name in sorted(os.listdir(_INSTANCE_DIR)):
        if name.endswith(".json"):
            with open(os.path.join(_INSTANCE_DIR, name)) as fh:
                out.append(json.load(fh))
    return out


def spec_for_q(q):
    check_guard(q, f"field F_{q}")
    p, k = factor_prime_power(q)
    return FieldSpec.get(p, k)


class Planner:
    """Strategy orchestrator over one root cost table and its subtables.

    The root table is `CostTable.shared(base)`: entries that earlier
    planners of the process built and verified under the active guard
    limit are reused, not rebuilt.  Curve instances come from
    `CurveModel.shared` in the same way, with their fibres and place lists;
    a curve is priced from its place counts, which its places of degree at
    most its genus determine (`_curve_plan`).

    The candidates for F_{q^n} are the root table's own (n, 1) candidates,
    in its order: its formulas and towers for `tower`, its genus-0 plan for
    `g0`, never schoolbook; then the curve instances.  A disabled strategy
    is not priced.  Each candidate is priced from the table's prices, which
    build nothing, before any is built (`bilinear.cheapest`).  Only the
    first candidate of least price is built, so a losing candidate can
    never fail the request.  A genus-0 plan or a curve instance that is
    infeasible or hits the guard, while it is priced or built, drops out of
    the request; the other candidates still answer.
    """

    STRATEGY_ORDER = ("tower", "g0", "curve")

    def __init__(self, base, strategies=("tower", "g0", "curve"), instances=None):
        self.base = base
        for s in strategies:
            if s not in self.STRATEGY_ORDER:
                raise InvalidRequest(f"unknown strategy {s!r}, not one of {self.STRATEGY_ORDER}")
        self.strategies = tuple(s for s in self.STRATEGY_ORDER if s in strategies)
        if not self.strategies:
            raise InvalidRequest("no strategies enabled")
        self.instances = instances if instances is not None else shipped_instances()
        self.table = CostTable.shared(base)

    def synth(self, n):
        """Best verified algorithm across the enabled strategies.

        When none is found, the error names each candidate that dropped
        out, with the error that dropped it.
        """
        dropped = []
        best = cheapest(partial(self._candidates, n, dropped), dropped)
        if best is None:
            why = "".join(f"; {_candidate_name(detail)} dropped: {exc}" for detail, exc in dropped)
            raise PlanInfeasible(f"no strategy produced an algorithm for n={n}{why}")
        return self.certificate(*best)

    def certificate(self, alg, strategy):
        verify_or_raise(alg, "certificate algorithm")
        n = alg.target.m
        return {
            "format": CERT_FORMAT,
            "q": self.base.q,
            "n": n,
            "rank": alg.N,
            "symmetric": alg.symmetric,
            "strategy": strategy,
            "winograd_lower": winograd(self.base.q, n)[0],
            "algorithm": alg.to_json(),
        }

    def _candidates(self, n, dropped):
        """(rank, build, detail) of every enabled candidate, in tie-break order.

        A curve instance that cannot be priced drops out here: it adds
        (detail, error) to `dropped`.
        """
        if "tower" in self.strategies:
            yield from self.table._composition_candidates(n, 1)
        if "g0" in self.strategies:
            yield from self.table._genus0_candidates(n, 1)
        if "curve" not in self.strategies:
            return
        for inst in self.instances:
            name = inst.get("name", "?") if isinstance(inst, dict) else "?"
            detail = {"kind": "curve", "instance": name}
            try:
                curve = _instance_curve(inst, name)  # parsing guards its field
                if curve.base != self.base:
                    continue
                *_, rank = _curve_plan(curve, n, self.table)
            except (PlanInfeasible, GuardExceeded) as exc:
                dropped.append((detail, exc))
                continue
            yield rank, partial(unless_dropped, curve_instance_synth, curve, n, self.table), detail


def _candidate_name(detail):
    """A candidate's strategy kind, and its instance's name for a curve."""
    return f"{detail['kind']} {detail['instance']}" if "instance" in detail else detail["kind"]


def _instance_curve(inst, name):
    """The shared curve of an instance file, outside input: MalformedPayload names a bad one."""
    try:
        _require_keys(inst, "instance", ("curve",))
        return curves_mod.CurveModel.shared(inst["curve"])
    except GuardExceeded:
        raise
    except CcmaError as exc:
        raise MalformedPayload(f"curve instance {name!r}: {exc}") from None


def curve_instance_synth(curve, n, cost_table):
    """Deterministic driver: plan the place multiset, pick the divisor, build.

    The planner prices a curve instance by its plan (`_curve_plan`), from
    counts, and calls this only for the winning candidate, which enumerates
    only the degrees its plan uses (`CurveModel.places`).  The divisor search
    builds the algorithm; an assignment on which it fails is skipped for
    the next one, for at most ASSIGNMENT_CAP assignments, but a guard hit
    ends the instance.  Raises PlanInfeasible when the instance cannot
    reach n.  The built algorithm is verified in its certificate, not here.
    """
    classes, counts, _ = _curve_plan(curve, n, cost_table)
    items_shape = [(d, u, c) for (d, u, _), c in zip(classes, counts) if c]
    # materialize the places and search derived-evaluation assignments
    Q = curves_mod.find_place_of_degree(curve, n)
    base_items = []
    for d in sorted({d for d, _, _ in items_shape}):
        shapes = [(u, c) for dd, u, c in items_shape if dd == d]
        total = sum(c for _, c in shapes)
        pool = [p for p in curve.places(d) if p != Q][:total]
        if len(pool) < total:
            raise PlanInfeasible(f"not enough degree-{d} places on the curve")
        base_items.append((shapes, pool))
    tried = 0
    last_error = None
    for items in itertools.islice(_assignments(base_items), ASSIGNMENT_CAP):
        tried += 1
        try:
            _, alg = curves_mod.find_divisor(curve, Q, items, cost_table)
            return alg
        except GuardExceeded:
            raise
        except CcmaError as exc:
            last_error = exc
    raise PlanInfeasible(f"curve instance failed after {tried} assignments: {last_error}")


def _curve_plan(curve, n, cost_table):
    """(classes, counts, rank): the least-cost place classes for n.

    Place counts come from N_1..N_g (`gf.place_counts`), read off the places
    of degree <= g: pricing enumerates no degree above the genus.  Classes
    take u <= 2 and d <= 3 with q^d <= PLACE_SCAN_LIMIT.  `rank` is the
    total of the least-cost class `counts`, the rank of every algorithm the
    instance builds for n.  Raises PlanInfeasible when the curve has no
    place of degree n or the classes cannot reach the degree target.
    """
    q, g = curve.base.q, curve.genus
    found = [len(curve.places(d)) for d in range(1, g + 1)]
    N = [sum(d * found[d - 1] for d in range(1, r + 1) if r % d == 0) for r in range(1, g + 1)]
    top = sum(q ** d <= curves_mod.PLACE_SCAN_LIMIT for d in (1, 2, 3))
    places = place_counts(q, N, max(n, top))
    if not places[n - 1]:
        raise PlanInfeasible(f"the curve has no place of degree {n}")
    need = 2 * n + g - 1
    classes = genus0.place_classes(places[:top], n, 2, need)
    counts, rank = cost_table.plan(classes, need)
    if counts is None:
        raise PlanInfeasible("curve place classes cannot reach the degree target")
    return classes, counts, rank


def _assignments(base_items):
    """Deterministic stream of concrete (place, u) lists across degrees.

    Each degree's slots with u > 1 range over the index combinations of its
    pool, larger u first; the listed highs come before the u = 1 places.
    The degrees combine in `itertools.product` order, the first degree
    slowest, and each list is made only when it is read.
    """
    if not base_items:
        yield []
        return
    (shapes, pool), rest = base_items[0], base_items[1:]
    ulist = [u for u, c in sorted(shapes, reverse=True) if u > 1 for _ in range(c)]
    for combo in itertools.combinations(range(len(pool)), len(ulist)):
        part = [(pool[pos], u) for pos, u in zip(combo, ulist)]
        part += [(p, 1) for pos, p in enumerate(pool) if pos not in combo]
        for tail in _assignments(rest):
            yield part + tail


def verify_file_payload(data):
    """Re-verify a stored algorithm or certificate; returns a report dict.

    For a certificate, `claims_disagree` names each claim among `q`, `n`,
    `rank`, `symmetric` and `winograd_lower` that the algorithm it carries
    does not bear out, also in type (`1` does not claim `true`); a claim
    the certificate leaves out is not checked.
    """
    cert = data if isinstance(data, dict) and "algorithm" in data else None
    alg = BilinearAlgorithm.from_json(data if cert is None else data["algorithm"])
    pair = alg.failing_pair()
    target = alg.target
    n = target.m
    report = {
        "verified": pair is None,
        "rank": alg.N,
        "symmetric": alg.symmetric,
        "target": target.describe(),
        "q": target.base.q,
        "n": n,
        "winograd_lower": winograd(target.base.q, n)[0] if target.kind == "extension" else None,
        "failing_pair": pair,
    }
    if cert is not None:
        report["claims_disagree"] = [
            key for key in ("q", "n", "rank", "symmetric", "winograd_lower")
            if key in cert and (type(cert[key]), cert[key]) != (type(report[key]), report[key])
        ]
        if "rank" in cert:
            report["claimed_rank"] = cert["rank"]
            report["rank_matches_claim"] = "rank" not in report["claims_disagree"]
    return report
