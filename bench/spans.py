"""Spans and counts around ccma's public calls, installed from outside.

`Tracer.install()` replaces each listed function or method with a wrapper
on every ccma module that holds it: ccma modules import names such as
`is_irreducible` and `check_guard` directly, so patching the defining
module alone would miss those callers.  Spans stay in memory and are
written by `Tracer.dump()` when the pass ends.

`Counter.install()` is the separate count-only pass: it counts the
per-element operations (`FieldSpec.mul`, `Laurent.mul`) that are too
frequent to span without inflating the traced self times.
"""

import functools
import gzip
import json
import sys
import time

# Spanned functions: (module, attribute) -> span name.
FUNCTIONS = {
    ("gf", "is_irreducible"): "gf.is_irreducible",
    ("gf", "field_extend"): "gf.field_extend",
    ("gf", "embed_map"): "gf.embed_map",
    ("gf", "irreducibles"): "gf.irreducibles",
    ("gf", "lex_least_irreducible"): "gf.lex_least_irreducible",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "mat_vec"): "linalg.mat_vec",
    ("linalg", "mat_mul"): "linalg.mat_mul",
    ("linalg", "left_inverse"): "linalg.left_inverse",
    ("linalg", "solve"): "linalg.solve",
    ("linalg", "invert"): "linalg.invert",
    ("linalg", "kernel_basis"): "linalg.kernel_basis",
    ("bilinear", "compose_tower"): "bilinear.compose_tower",
    ("bilinear", "compose_truncated"): "bilinear.compose_truncated",
    ("bilinear", "brute_force_min_rank"): "bilinear.brute_force_min_rank",
    ("genus0", "plan_search"): "genus0.plan_search",
    ("genus0", "build"): "genus0.build",
    ("genus0", "enumerate_g0_places"): "genus0.enumerate_g0_places",
    ("curves", "enumerate_curve_places"): "curves.enumerate_curve_places",
    ("curves", "find_place_of_degree"): "curves.find_place_of_degree",
    ("curves", "riemann_roch_basis"): "curves.riemann_roch_basis",
    ("curves", "find_divisor"): "curves.find_divisor",
    ("curves", "check_conditions"): "curves.check_conditions",
    ("curves", "ccma_build_curve"): "curves.ccma_build_curve",
    ("series", "eval_poly"): "series.eval_poly",
    ("series", "newton_root"): "series.newton_root",
    ("codes", "code_from_decomposition"): "codes.code_from_decomposition",
    ("codes", "supercode_from_symmetric"): "codes.supercode_from_symmetric",
    ("codes", "symmetric_from_supercode"): "codes.symmetric_from_supercode",
    ("planner", "curve_instance_synth"): "planner.curve_instance_synth",
    ("planner", "verify_file_payload"): "planner.verify_file_payload",
}

# Spanned methods: (module, class, attribute) -> span name.
METHODS = {
    ("gf", "FieldSpec", "__init__"): "gf.FieldSpec.build",
    ("bilinear", "BilinearAlgorithm", "failing_pair"): "bilinear.failing_pair",
    ("bilinear", "BilinearAlgorithm", "from_json"): "bilinear.from_json",
    ("bilinear", "BilinearAlgorithm", "to_json"): "bilinear.to_json",
    ("bilinear", "CostTable", "get"): "bilinear.CostTable.get",
    ("codes", "LinearCode", "min_distance"): "codes.min_distance",
    ("planner", "Planner", "synth"): "planner.synth",
}


def _ccma_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ccma" or name.startswith("ccma."))]


def _rebind(orig, wrapper):
    """Point every ccma module attribute that holds `orig` at `wrapper`."""
    for mod in _ccma_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _patch_method(cls, attr, make):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


class Tracer:
    """In-memory spans (name, start, end, parent, request) plus counters."""

    def __init__(self):
        self.names = []
        # one row per span: [name id, start, end, parent index, request id]
        self.spans = []
        self._stack = []
        self._child = []
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.request = -1
        self._seen_irreducible = set()
        self.guard_max_fill = 0.0

    # -- recording --------------------------------------------------------

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def spanned(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, child = self.spans, self._stack, self._child
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            row = [nid, clock(), 0.0, parent, tracer.request]
            spans.append(row)
            stack.append(idx)
            child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                row[2] = end
                stack.pop()
                covered = child.pop()
                dur = end - row[1]
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - covered
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if child:
                    child[-1] += dur

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        import ccma  # noqa: F401  (loads every submodule)
        from ccma import bilinear, codes, gf, guard

        mods = {m.__name__.split(".")[-1]: m for m in _ccma_modules()}
        for (mod, attr), name in FUNCTIONS.items():
            orig = getattr(mods[mod], attr)
            _rebind(orig, self.spanned(name, orig))
        for (mod, cls, attr), name in METHODS.items():
            _patch_method(getattr(mods[mod], cls), attr,
                          lambda fn, name=name: self.spanned(name, fn))
        self._install_counters(gf, bilinear, codes, guard)

    def _install_counters(self, gf, bilinear, codes, guard):
        tracer = self
        is_irr = gf.is_irreducible  # already the span wrapper

        def is_irreducible(poly):
            key = (poly.spec, tuple(poly.coeffs))
            if key in tracer._seen_irreducible:
                tracer.count("gf.is_irreducible.repeats")
            else:
                tracer._seen_irreducible.add(key)
            return is_irr(poly)

        _rebind(is_irr, is_irreducible)

        orig_monic = gf.iter_monic

        def iter_monic(spec, d):
            for cand in orig_monic(spec, d):
                tracer.count("gf.iter_monic.yields")
                yield cand

        _rebind(orig_monic, iter_monic)

        orig_irr = gf.iter_irreducibles

        def iter_irreducibles(spec, d):
            tracer.count("gf.iter_irreducibles.streams")
            for poly in orig_irr(spec, d):
                tracer.count("gf.iter_irreducibles.yields")
                yield poly

        _rebind(orig_irr, iter_irreducibles)

        orig_guard = guard.check_guard
        guard_limit = guard.guard_limit

        def check_guard(size, what, limit=None):
            fill = size / guard_limit(limit)
            if fill > tracer.guard_max_fill:
                tracer.guard_max_fill = fill
            tracer.count("guard.checks")
            return orig_guard(size, what, limit)

        _rebind(orig_guard, check_guard)

        failing = bilinear.BilinearAlgorithm.failing_pair

        def failing_pair(alg):
            pair = failing(alg)
            dim = alg.target.dim
            tracer.count("bilinear.basis_pairs_checked",
                         dim * dim if pair is None else pair[0] * dim + pair[1] + 1)
            return pair

        bilinear.BilinearAlgorithm.failing_pair = failing_pair

        get = bilinear.CostTable.get

        def cost_get(table, d, u=1):
            if (d, u) in table._entries:
                tracer.count("bilinear.costtable.hits")
            else:
                tracer.count("bilinear.costtable.entries_built")
            return get(table, d, u)

        bilinear.CostTable.get = cost_get

        min_distance = codes.LinearCode.min_distance

        def code_min_distance(code, limit=None):
            fresh = code._distance is None
            out = min_distance(code, limit)
            if fresh:
                tracer.count("codes.codewords_enumerated", code.spec.q ** code.n - 1)
            return out

        codes.LinearCode.min_distance = code_min_distance

    # -- results ----------------------------------------------------------

    def dump(self, path):
        """Write every span (columns, gzip JSON) once the pass is over."""
        payload = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class Counter:
    """Count-only instrumentation of per-element operations."""

    def __init__(self):
        self.counts = {"gf.mul.table_calls": 0, "gf.mul.generic_calls": 0,
                       "series.Laurent.mul.calls": 0}

    def install(self):
        from ccma import gf, series

        counts = self.counts
        mul = gf.FieldSpec.mul

        def field_mul(spec, a, b):
            if spec._mul is not None:
                counts["gf.mul.table_calls"] += 1
            else:
                counts["gf.mul.generic_calls"] += 1
            return mul(spec, a, b)

        gf.FieldSpec.mul = field_mul

        laurent_mul = series.Laurent.mul

        def series_mul(self, other):
            counts["series.Laurent.mul.calls"] += 1
            return laurent_mul(self, other)

        series.Laurent.mul = series_mul
