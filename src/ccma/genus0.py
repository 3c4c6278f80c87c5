"""Interpolation on the projective line: plans, search, and assembly.

A plan for multiplying in F_{q^n} (or F_{q^m}[t]/(t^l)) evaluates products
of polynomials of degree <= nl-1 at a multiset of places with
multiplicities whose degrees sum to at least 2nl-1, multiplies locally
with cost-table algorithms, and reconstructs by linear inversion.
"""

from . import linalg
from .bilinear import ExtAlgebra, TruncAlgebra, interpolation_algorithm, place_columns
from .errors import CcmaError, PlanInfeasible, VerificationError
from .gf import (
    INFINITY,
    ExtensionRing,
    count_irreducibles,
    is_irreducible,
    iter_irreducibles,
    lex_least_irreducible,
    local_columns,
)
from .guard import check_guard


class G0Place:
    """A closed point of the projective line: monic irreducible or infinity."""

    def __init__(self, poly_or_inf):
        if poly_or_inf == INFINITY:
            self.poly = None
        else:
            if not is_irreducible(poly_or_inf):
                raise CcmaError("finite place needs an irreducible polynomial")
            self.poly = poly_or_inf.monic()

    @property
    def is_infinity(self):
        return self.poly is None

    @property
    def degree(self):
        return 1 if self.poly is None else self.poly.degree

    def __eq__(self, other):
        return isinstance(other, G0Place) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return "G0Place(inf)" if self.is_infinity else f"G0Place({self.poly!r})"

    def describe(self):
        return "inf" if self.is_infinity else list(self.poly.coeffs)


def enumerate_g0_places(spec, d, limit=None):
    """Degree-d places: monic irreducibles, plus infinity when d = 1."""
    if d < 1:
        raise CcmaError("degree must be >= 1")
    check_guard(spec.q ** d, f"place enumeration over {spec!r} degree {d}", limit)
    out = [G0Place(p) for p in iter_irreducibles(spec, d)]
    if d == 1:
        out.append(G0Place(INFINITY))
    return out


class EvalPlan:
    """A costed multiset of (place, multiplicity) pairs for one target."""

    def __init__(self, base, n, ell, Q, items, cost):
        self.base = base
        self.n = n
        self.ell = ell
        self.Q = Q
        self.items = list(items)
        self.cost = cost
        degree_sum = sum(p.degree * u for p, u in self.items)
        if degree_sum < 2 * n * ell - 1:
            raise CcmaError("plan violates the degree condition")
        seen = set()
        for p, u in self.items:
            if p in seen:
                raise CcmaError("plan repeats a place")
            seen.add(p)
            if not p.is_infinity and p.poly == Q:
                raise CcmaError("plan evaluates at the interpolation place")

    @property
    def degree_sum(self):
        return sum(p.degree * u for p, u in self.items)

    def describe(self):
        return {
            "n": self.n,
            "l": self.ell,
            "Q": list(self.Q.coeffs),
            "items": [{"place": p.describe(), "u": u} for p, u in self.items],
            "cost": self.cost,
        }


def plan_search(
    base,
    n,
    ell,
    cost_table,
    max_place_degree=None,
    max_mult=4,
    max_item_dim=None,
    limit=None,
):
    """Minimal-cost feasible plan for F_{q^n} (ell = 1) or F_{q^n}[t]/(t^ell).

    Exact optimization over (degree, multiplicity) class counts subject to
    place availability, with the documented lexicographic tie-break.
    """
    q = base.q
    budget = 2 * n * ell - 1
    # no class of degree above the budget fits: every item has d * u <= budget
    d_cap = min(max_place_degree if max_place_degree is not None else 2 * n, budget)
    dim_cap = max_item_dim if max_item_dim is not None else budget
    Q = lex_least_irreducible(base, n)
    classes = []
    for d in range(1, d_cap + 1):
        avail = (q + 1) if d == 1 else count_irreducibles(q, d)
        if d == n:
            avail -= 1  # the interpolation place itself
        if avail <= 0:
            continue
        for u in range(1, max_mult + 1):
            if d * u <= min(dim_cap, budget):
                classes.append((d, u, avail))
    if not classes:
        raise PlanInfeasible(f"no admissible items for n={n}, l={ell} over {base!r}")

    rational_avail = classes[0][2] if classes[0][:2] == (1, 1) else 0
    if rational_avail >= budget:
        # every item costs at least 2 d u - 1, so a plan of budget rational
        # places (cost 1 each) is exactly optimal
        counts = [budget if cls[:2] == (1, 1) else 0 for cls in classes]
        total = budget
    else:
        counts, total = _lazy_plan_dp(classes, budget, cost_table)
    if counts is None:
        raise PlanInfeasible(f"no feasible plan for n={n}, l={ell} within caps")

    # assign concrete places per degree in canonical order, skipping Q
    items = []
    used = {}
    for (d, u, _), c in zip(classes, counts):
        if not c:
            continue
        pool = used.get(d)
        if pool is None:
            pool = _place_stream(base, d, Q)
            used[d] = pool
        for _ in range(c):
            items.append((next(pool), u))
    items.sort(key=_item_key)
    return EvalPlan(base, n, ell, Q, items, int(total))


def _lazy_plan_dp(classes, budget, cost_table):
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


def _item_key(item):
    place, u = item
    if place.is_infinity:
        return (place.degree, u, 1, ())
    return (place.degree, u, 0, place.poly.order_key())


def _place_stream(base, d, Q):
    for p in iter_irreducibles(base, d):
        if p != Q:
            yield G0Place(p)
    if d == 1:
        yield G0Place(INFINITY)


def _infinity_rows(u, bound):
    """Local evaluation at infinity: the top u coefficients below `bound`."""
    rows = [[0] * (bound + 1) for _ in range(u)]
    for j in range(min(u, bound + 1)):
        rows[j][bound - j] = 1
    return rows


def _place_rows(plan, cost_table, limit=None):
    """(entry, factor rows, product rows) per plan item, in the entry's basis.

    Factor rows act on x^0..x^(nl-1), product rows on x^0..x^(2nl-2); a
    finite place's factor rows are the first columns of its product rows.
    """
    m1 = plan.n * plan.ell - 1  # degree bound of the lifted factors
    m2 = 2 * m1  # degree bound of products
    out = []
    for place, u in plan.items:
        entry = cost_table.get(place.degree, u)
        if place.is_infinity:
            out.append((entry, _infinity_rows(u, m1), _infinity_rows(u, m2)))
        else:
            rows = place_columns(plan.base, place.poly, entry, u, m2, limit)
            out.append((entry, [row[: m1 + 1] for row in rows], rows))
    return out


def build(plan, cost_table, limit=None):
    """Assemble the bilinear algorithm of a plan; not verified here.

    The caller verifies it where it enters a cost table or a certificate.
    Raises VerificationError if its rank disagrees with the plan cost.
    """
    base = plan.base
    n, ell, Q = plan.n, plan.ell, plan.Q
    dim = n * ell
    target = ExtAlgebra(base, Q) if ell == 1 else TruncAlgebra(base, n, ell, Q)
    # reduction of the product space into the target: x -> the local
    # parameter at Q in F_q[x]/(Q); its first dim columns invert to the lift
    field = ExtensionRing(base, Q)
    tq = local_columns(field, Q, field.gen(), ell, 2 * dim - 2)
    lift = linalg.invert(base, [row[:dim] for row in tq])
    blocks = []
    for entry, rows1, rows2 in _place_rows(plan, cost_table, limit):
        phi1 = linalg.mat_mul(base, rows1, lift)
        blocks.append((entry, phi1, phi1, rows2))
    alg = interpolation_algorithm(
        target, blocks, tq, meta={"method": "genus0", "plan": plan.describe()}
    )
    if alg.N != plan.cost:
        raise VerificationError("assembled rank disagrees with plan cost")
    return alg


def interpolation_matrix_rank(plan, cost_table, limit=None):
    """Column rank of the product-space evaluation matrix (should be 2nl-1)."""
    rows = []
    for _, _, rows2 in _place_rows(plan, cost_table, limit):
        rows.extend(rows2)
    return linalg.rank(plan.base, rows)
