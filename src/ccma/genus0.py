"""Interpolation on the projective line: plans, search, and assembly.

A plan for multiplying in F_{q^n} (or F_{q^m}[t]/(t^l)) evaluates products
of polynomials of degree <= nl-1 at a multiset of places with
multiplicities whose degrees sum to at least 2nl-1, multiplies locally
with cost-table algorithms, and reconstructs by linear inversion.
"""

from . import linalg
from .bilinear import Algebra, interpolation_algorithm, place_columns
from .errors import CcmaError, PlanInfeasible, VerificationError
from .gf import (
    INFINITY,
    is_irreducible,
    iter_irreducibles,
    lex_least_irreducible,
    local_columns,
    place_counts,
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


def enumerate_g0_places(spec, d):
    """Degree-d places: monic irreducibles, plus infinity when d = 1."""
    if d < 1:
        raise CcmaError("degree must be >= 1")
    check_guard(spec.q ** d, f"place enumeration over {spec!r} degree {d}")
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


def place_classes(places, n, max_u, dim_cap):
    """(d, u, available places) classes from the place counts B_1.. in `places`.

    A class takes u <= max_u and d * u <= dim_cap.  The interpolation place
    Q is the one place of degree n that no plan may use.
    """
    classes = []
    for d, avail in enumerate(places, 1):
        avail -= d == n
        if avail > 0:
            classes += [(d, u, avail) for u in range(1, max_u + 1) if d * u <= dim_cap]
    return classes


def price_plan(base, n, ell, cost_table):
    """(classes, counts, cost) of the least plan, from prices; builds nothing.

    An item's local algebra has dimension d * u below n * ell, so a plan
    only ever prices cost-table entries smaller than its target.  counts
    and cost are None when no plan exists.
    """
    dim_cap = n * ell - 1
    classes = place_classes(place_counts(base.q, (), dim_cap), n, 4, dim_cap)
    return (classes, *cost_table.plan(classes, 2 * n * ell - 1))


def plan_search(base, n, ell, cost_table):
    """Minimal-cost feasible plan for F_{q^n} (ell = 1) or F_{q^n}[t]/(t^ell).

    Exact optimization over (degree, multiplicity) class counts subject to
    place availability, with the documented lexicographic tie-break.
    """
    classes, counts, total = price_plan(base, n, ell, cost_table)
    if counts is None:
        raise PlanInfeasible(f"no feasible plan for n={n}, l={ell} over {base!r}")

    # assign concrete places per degree in canonical order, skipping Q
    Q = lex_least_irreducible(base, n)
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
    return EvalPlan(base, n, ell, Q, items, total)


def _lazy_plan_dp(classes, budget, cost_table):
    """Exact minimum-cost counts with lazily priced entries.

    Entries are priced optimistically at the local lower bound 2du-1 until
    a candidate-optimal plan actually uses them; iterating to a fixpoint
    yields the true optimum while never pricing irrelevant table entries.

    `best(i, remaining, used)` is the least cost of classes i.. that covers
    `remaining` degree when `used` places of class i's degree are taken.
    Its memo keeps that cost and the largest count of class i reaching it,
    so following the stored counts from (0, budget, 0) reads the
    lexicographically greatest least plan.  A count whose price, plus the
    degree it leaves times the least price per unit of degree among the
    later classes, cannot beat the least total found so far is skipped:
    that sum bounds every completion, so the memo stays exact.  A state
    depends only on the prices of its own suffix: a round whose pricing
    changes classes up to index k clears memo[0..k], and a round that
    changes no price ends the search.
    """
    INF = float("inf")
    last = len(classes)
    price = [2 * d * u - 1 for d, u, _ in classes]
    exact = [False] * last
    memo = [{} for _ in classes]
    # class i + 1 draws on the places of class i's degree
    shares = [i + 1 < last and classes[i + 1][0] == d for i, (d, _, _) in enumerate(classes)]
    # rate[i]: (price, degree) of the least price per unit of degree among classes i..
    rate = [None] * (last + 1)

    def rerate(top):
        for i in range(top, -1, -1):
            d, u, _ = classes[i]
            r = rate[i + 1]
            rate[i] = r if r is not None and r[0] * d * u <= price[i] * r[1] else (price[i], d * u)

    def best(i, remaining, used):
        if remaining <= 0:
            return 0
        if i == last:
            return INF
        hit = memo[i].get((remaining, used))
        if hit is not None:
            return hit[0]
        d, u, avail = classes[i]
        du, p = d * u, price[i]
        later = rate[i + 1]
        least, pick = INF, 0
        # from high to low: the strict < keeps the larger count on a tie
        for c in range(min(avail - used, -(-remaining // du)), -1, -1):
            total, rest = c * p, remaining - c * du
            if rest > 0:
                if later is None or total - (-rest * later[0] // later[1]) >= least:
                    continue
                total += best(i + 1, rest, used + c if shares[i] else 0)
            if total < least:
                least, pick = total, c
        memo[i][(remaining, used)] = (least, pick)
        return least

    rerate(last - 1)
    while True:
        total = best(0, budget, 0)
        if total == INF:
            return None, None
        counts = []
        remaining, used = budget, 0
        for i, (d, u, _) in enumerate(classes):
            c = memo[i][(remaining, used)][1] if remaining > 0 else 0
            counts.append(c)
            remaining -= c * d * u
            used = used + c if shares[i] else 0
        changed = -1
        for i, c in enumerate(counts):
            if c and not exact[i]:
                d, u, _ = classes[i]
                exact[i] = True
                cost = cost_table.cost(d, u)
                if cost != price[i]:
                    price[i], changed = cost, i
        if changed < 0:
            return counts, total
        for i in range(changed + 1):
            memo[i].clear()
        rerate(changed)


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


def _place_rows(plan, cost_table):
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
            rows = place_columns(place.poly, entry, u, m2)
            out.append((entry, [row[: m1 + 1] for row in rows], rows))
    return out


def build(plan, cost_table):
    """Assemble the bilinear algorithm of a plan; not verified here.

    The caller verifies it where it enters a cost table or a certificate.
    Raises VerificationError if its rank disagrees with the plan cost.
    """
    base = plan.base
    target = Algebra(base, plan.Q, plan.ell)
    dim = target.dim
    # reduction of the product space into the target: x -> the local
    # parameter at Q in F_q[x]/(Q); its first dim columns invert to the lift
    field = target.ring
    tq = local_columns(field, target.Q, field.gen(), plan.ell, 2 * dim - 2)
    lift = linalg.invert(base, [row[:dim] for row in tq])
    blocks = []
    for entry, rows1, rows2 in _place_rows(plan, cost_table):
        phi1 = linalg.mat_mul(base, rows1, lift)
        blocks.append((entry, phi1, phi1, rows2))
    alg = interpolation_algorithm(
        target, blocks, tq, meta={"method": "genus0", "plan": plan.describe()}
    )
    if alg.N != plan.cost:
        raise VerificationError("assembled rank disagrees with plan cost")
    return alg

