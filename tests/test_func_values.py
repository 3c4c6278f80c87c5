"""Differential test: `Evaluator` against per-function evaluation.

The reference is the evaluation the matrix product E_P C replaced: each of
a, b and den by its own Horner pass (`Poly.eval_in` at order 1,
`series.eval_poly` on the frame's x series otherwise) and one inverse per
function, stacked into rows one column at a time, each rebased by `mat_vec`.
Both must give the same rows on every (basis, place, order, conv) the five
curve benchmark requests build, and on random divisors over F_3 and F_4.
"""

import random

import pytest

import ccma.curves as curves_mod
from ccma import linalg
from ccma.errors import CcmaError
from ccma.gf import FieldSpec, Poly
from ccma.curves import (
    CurveDivisor,
    CurveModel,
    Frame,
    enumerate_curve_places,
    evaluation_rows,
    fiber_places,
    riemann_roch_basis,
)
from ccma.planner import Planner, shipped_instances, spec_for_q
from ccma.series import eval_poly

F3 = FieldSpec.get(3)
F4 = FieldSpec.get(2, 2)


def reference_values(curve, funcs, place, order):
    if not place.is_infinity and order == 1:
        K = place.residue
        dens = [f.den.eval_in(K, place.xi) for f in funcs]
        if K.zero not in dens:
            out = []
            for f, denv in zip(funcs, dens):
                num = f.a.eval_in(K, place.xi)
                if not f.b.is_zero():
                    num = K.add(num, K.mul(f.b.eval_in(K, place.xi), place.beta))
                out.append([K.mul(num, K.inv(denv))])
            return out
    den_deg = max((f.den.degree for f in funcs), default=0)
    extra = 2 * max(den_deg, 1) + 2
    prec = order + extra
    while True:
        frame = Frame(place, prec, 0)
        try:
            series = [_reference_series(frame, f) for f in funcs]
        except CcmaError:
            prec *= 2
            if prec > 16 * (order + extra):
                raise
            continue
        if all(s.prec >= order for s in series):
            out = []
            for s in series:
                if s.normalized_val() < 0:
                    raise CcmaError("function has a pole at an evaluation place")
                out.append([s.coefficient(e) for e in range(order)])
            return out
        prec *= 2


def _reference_series(frame, fe):
    ring, prec = frame.ring, frame.prec
    num = eval_poly(fe.a, frame.sx, ring, prec)
    if not fe.b.is_zero():
        num = num.add(eval_poly(fe.b, frame.sx, ring, prec).mul(frame.sy).truncate(prec))
    den = eval_poly(fe.den, frame.sx, ring, prec)
    return num.mul(den.inv()).truncate(prec)


def _outcome(fn, curve, funcs, place, order):
    try:
        return fn(curve, funcs, place, order)
    except CcmaError as exc:
        return ("error", str(exc))


def reference_rows(curve, funcs, place, order, conv=None):
    """u blocks of deg(place) rows from `reference_values`, one column per function."""
    d = place.degree
    rows = [[0] * len(funcs) for _ in range(order * d)]
    for col, vals in enumerate(reference_values(curve, funcs, place, order) if funcs else []):
        for j in range(order):
            vec = [vals[j]] if place.is_infinity else list(vals[j])
            if conv is not None:
                vec = linalg.mat_vec(curve.base, conv, vec)
            for i in range(d):
                rows[j * d + i][col] = vec[i]
    return rows


def _kind(place, order, funcs):
    if not funcs:
        return "empty"
    if place.is_infinity:
        return "infinity"
    if place.ramified and place.degree == 1:
        return "ramified"
    if place.x_deg != place.degree:
        return "inert"
    K = place.residue
    if order == 1 and any(f.den.eval_in(K, place.xi) == K.zero for f in funcs):
        return "vanishing denominator"
    return f"order {order}"


def test_func_values_match_reference_on_curve_requests(monkeypatch):
    # every evaluation the five requests make goes through Evaluator.rows,
    # conv included: in the Riemann-Roch bases and in the assembly
    calls = []
    rows = curves_mod.Evaluator.rows

    def record(evaluator, place, order, conv=None):
        out = rows(evaluator, place, order, conv)
        calls.append((evaluator.curve, list(evaluator.funcs), place, order, conv,
                      [row[:] for row in out]))
        return out

    monkeypatch.setattr(curves_mod.Evaluator, "rows", record)
    for q, n in ((4, 4), (3, 9), (16, 13), (16, 14), (16, 15)):
        Planner(spec_for_q(q), strategies=("curve",)).synth(n)
    assert len(calls) > 100
    kinds = set()
    for curve, funcs, place, order, conv, got in calls:
        assert got == reference_rows(curve, funcs, place, order, conv)
        kinds.add(_kind(place, order, funcs))
    assert {"infinity", "order 1", "order 2"} <= kinds
    assert any(conv is not None for *_, conv, _ in calls)


def test_finite_place_frames_start_at_the_needed_precision(monkeypatch):
    # order + 2 v_P(den) terms (plus 1 where ramified) are enough at every
    # finite place of the five curve requests: one Frame per call, no retry
    frames = []
    calls = []
    frame_values = curves_mod._frame_values

    class Counted(Frame):
        def __init__(self, place, prec, top):
            frames.append(place)
            super().__init__(place, prec, top)

    def counted(funcs, place, order):
        start = len(frames)
        out = frame_values(funcs, place, order)
        calls.append((place, len(frames) - start))
        return out

    monkeypatch.setattr(curves_mod, "Frame", Counted)
    monkeypatch.setattr(curves_mod, "_frame_values", counted)
    for q, n in ((4, 4), (3, 9), (16, 13), (16, 14), (16, 15)):
        Planner(spec_for_q(q), strategies=("curve",)).synth(n)
    finite = [built for place, built in calls if not place.is_infinity]
    assert finite and finite == [1] * len(finite)
    assert any(place.ramified for place, _ in calls)


def test_infinity_frames_start_at_the_needed_precision(monkeypatch):
    # the pole orders of numerators and denominators give the start at
    # infinity: one Frame per call on random divisors of the shipped curves
    frames = []

    class Counted(Frame):
        def __init__(self, place, prec, top):
            frames.append(prec)
            super().__init__(place, prec, top)

    monkeypatch.setattr(curves_mod, "Frame", Counted)
    rng = random.Random(61)
    calls = 0
    for inst in shipped_instances():
        curve = CurveModel.from_json(inst["curve"])
        O = curve.infinity
        support = [p for d in (1, 2) for p in enumerate_curve_places(curve, d)
                   if p.x_deg == p.degree and not (p.ramified and p.degree > 1)]
        for _ in range(25):
            D = {O: rng.randrange(-1, 10)}
            for p in rng.sample(support, 2):
                D[p] = rng.randrange(-3, 5)
            funcs = riemann_roch_basis(curve, CurveDivisor(curve, D))
            for order in (1, 2, 4) if funcs else ():
                frames.clear()
                got = _outcome(evaluation_rows, curve, funcs, O, order)
                assert len(frames) == 1, (inst["name"], D, order, frames)
                assert got == _outcome(reference_rows, curve, funcs, O, order)
                calls += 1
    assert calls > 100


@pytest.mark.parametrize("curve", [
    CurveModel(F4, (1,), (1, 0, 0, 1)),  # Fermat y^2 + y = x^3 + 1
    CurveModel(F3, (), (2, 1, 0, 1)),  # y^2 = x^3 + x + 2, ramified at x = 2
], ids=["fermat_f4", "cenk_f3"])
def test_func_values_match_reference_on_random_divisors(curve):
    rng = random.Random(53)
    O = curve.infinity
    places = [p for d in (1, 2) for p in enumerate_curve_places(curve, d)]
    if curve.base == F4:
        # the degree-6 places above x^3 + w, x^3 + w^2, where y lies in F_16
        places += [p for c in (2, 3) for p in fiber_places(curve, Poly(F4, (c, 0, 0, 1)))]
    support = [p for p in places if p.x_deg == p.degree and not p.is_infinity]
    kinds = set()
    for trial in range(20):
        D = {O: rng.randrange(-1, 6)}
        for p in rng.sample(support, 2):
            D[p] = rng.randrange(-1, 3)
        if not trial:
            D = {O: -1}  # L(D) = 0
        funcs = riemann_roch_basis(curve, CurveDivisor(curve, D))
        for place in rng.sample(places, 2) + [O] + [p for p in D if not p.is_infinity]:
            for order in (1, 2, 3) if place.degree == 1 else (1, 2):
                if order > 1 and place.x_deg != place.degree:
                    continue  # no series frames at inert places, either way
                got = _outcome(evaluation_rows, curve, funcs, place, order)
                assert got == _outcome(reference_rows, curve, funcs, place, order)
                kinds.add(_kind(place, order, funcs))
    expected = {"empty", "infinity", "order 1", "order 2", "order 3", "inert",
                "vanishing denominator"}
    if curve.base == F3:
        expected.add("ramified")
    assert expected <= kinds


def test_frame_poly_at_claims_only_known_coefficients():
    # every coefficient poly_at reports known matches a frame of three times
    # the precision, and it knows at least as much as Horner on the same frame
    rng = random.Random(59)
    F16 = FieldSpec.get(2, 4)
    fermat = CurveModel(F4, (1,), (1, 0, 0, 1))
    cenk = CurveModel(F3, (), (2, 1, 0, 1))
    hyper = CurveModel(F16, (1,), (0, 0, 0, 0, 0, 1))
    cases = [(fermat, fermat.infinity), (hyper, hyper.infinity), (cenk, cenk.infinity)]
    cases += [(cenk, p) for p in enumerate_curve_places(cenk, 1) if p.ramified]
    cases += [(fermat, enumerate_curve_places(fermat, 3)[0])]
    top = 7
    for curve, place in cases:
        base = curve.base
        for prec in (3, 6):
            frame = Frame(place, prec, top)
            fine = Frame(place, 3 * prec, 0)
            for deg in range(-1, top + 1):
                poly = Poly(base, [rng.randrange(base.q) for _ in range(deg)] + [1] * (deg >= 0))
                got = frame.poly_at(poly)
                horner = eval_poly(poly, frame.sx, frame.ring, prec)
                truth = eval_poly(poly, fine.sx, fine.ring, 3 * prec)
                assert got.prec >= horner.prec
                for e in range(got.val, got.prec):
                    assert got.coefficient(e) == truth.coefficient(e), (place, deg, e)
