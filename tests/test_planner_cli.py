"""Planner strategy selection, certificates, and the command-line surface."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import ccma
from ccma import bilinear
from ccma.bilinear import BilinearAlgorithm, CostTable, verify
from ccma.cli import main
from ccma.errors import CcmaError, MalformedPayload, PlanInfeasible
from ccma.planner import Planner, shipped_instances, spec_for_q


def test_synth_2_4_composition_beats_genus0():
    planner = Planner(spec_for_q(2))
    cert = planner.synth(4)
    assert cert["rank"] == 9
    assert cert["strategy"]["kind"] == "tower"
    g0_only = Planner(spec_for_q(2), strategies=("g0",))
    assert g0_only.synth(4)["rank"] == 10


def test_synth_5_3_equality_regime():
    cert = Planner(spec_for_q(5)).synth(3)
    assert cert["rank"] == 5


def test_synth_4_4_curve_instance_reaches_8():
    planner = Planner(spec_for_q(4), strategies=("curve",))
    cert = planner.synth(4)
    assert cert["rank"] == 8
    assert cert["strategy"]["kind"] == "curve"
    alg = BilinearAlgorithm.from_json(cert["algorithm"])
    assert verify(alg) and alg.symmetric


def test_genus2_curve_over_f3_reaches_the_printed_3_11():
    # y^2 = x^5 + 2x^4 + x^3 + 2x^2 + x: no shipped instance, and no model
    # a fixed shape could name; the shipped elliptic curve ties it at 34
    genus2 = {"name": "genus2_f3", "curve": {
        "base": {"p": 3, "k": 1, "defining_poly": None},
        "h": [], "f": [[0], [1], [2], [1], [2], [1]]}}
    cert = Planner(spec_for_q(3), instances=[genus2]).synth(11)
    assert cert["rank"] == 34
    assert cert["strategy"] == {"kind": "curve", "instance": "genus2_f3"}
    assert verify(BilinearAlgorithm.from_json(cert["algorithm"]))
    cert = Planner(spec_for_q(3)).synth(11)
    assert (cert["rank"], cert["strategy"]) == (34, {"kind": "curve", "instance": "cenk_ozbudak_f3"})


def test_curve_instance_that_cannot_reach_its_target_is_skipped():
    from ccma.errors import PlanInfeasible

    fermat = next(i for i in shipped_instances() if i["name"] == "fermat_f4")
    # n = 5: no divisor builds on any assignment; n = 2: no degree-2 place
    for n, rank in ((5, 11), (2, 3)):
        instances = [fermat]
        assert Planner(spec_for_q(4), instances=instances).synth(n)["rank"] == rank
        with pytest.raises(PlanInfeasible):
            Planner(spec_for_q(4), strategies=("curve",), instances=instances).synth(n)


def test_strategy_monotonicity():
    ranks = []
    for strategies in (("g0",), ("g0", "tower"), ("g0", "tower", "curve")):
        cert = Planner(spec_for_q(2), strategies=strategies).synth(4)
        ranks.append(cert["rank"])
    assert ranks[0] >= ranks[1] >= ranks[2]


CORPUS = os.path.join(os.path.dirname(__file__), "..", "bench", "corpus", "certificates.json")


def corpus_certificates():
    with open(CORPUS) as fh:
        return [entry["certificate"] for entry in json.load(fh)]


def test_certificate_roundtrip(tmp_path):
    cert = Planner(spec_for_q(3)).synth(2)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(cert))
    data = json.loads(path.read_text())
    alg = BilinearAlgorithm.from_json(data["algorithm"])
    assert verify(alg)
    assert alg.to_json() == cert["algorithm"]
    stored = corpus_certificates()
    assert len(stored) == 28
    for cert in stored:
        alg = BilinearAlgorithm.from_json(cert["algorithm"])
        assert verify(alg), (cert["q"], cert["n"])
        assert alg.to_json() == cert["algorithm"], (cert["q"], cert["n"])


def test_shipped_instances_present():
    names = {inst["name"] for inst in shipped_instances()}
    assert {"fermat_f4", "hyperelliptic_f16", "cenk_ozbudak_f3"} <= names


def _fermat_without_f(inst):
    del inst["curve"]["f"]


def _fermat_int_coefficient(inst):
    inst["curve"]["f"][2] = 7  # an encoded int, beyond F_4


def _fermat_digit_beyond_p(inst):
    inst["curve"]["f"][2] = [3, 0]  # 3 = 1 mod 2, but not canonical


def _fermat_even_degree(inst):
    inst["curve"]["f"].append([1, 0])  # y^2 + y = x^4 + x^3 + 1


def _fermat_singular(inst):
    inst["curve"]["h"] = []  # y^2 = x^3 + 1 is singular in characteristic 2


def _fermat_wrong_genus(inst):
    inst["curve"]["genus"] = 2


@pytest.mark.parametrize("spoil", [_fermat_without_f, _fermat_int_coefficient,
                                   _fermat_digit_beyond_p, _fermat_even_degree,
                                   _fermat_singular, _fermat_wrong_genus])
def test_malformed_curve_instance_is_refused_by_name(spoil, tmp_path, monkeypatch, capsys):
    from ccma import planner as planner_mod

    inst = json.loads(json.dumps(next(i for i in shipped_instances() if i["name"] == "fermat_f4")))
    spoil(inst)
    with pytest.raises(MalformedPayload, match="curve instance 'fermat_f4'"):
        Planner(spec_for_q(4), instances=[inst]).synth(4)
    (tmp_path / "fermat_f4.json").write_text(json.dumps(inst))
    monkeypatch.setattr(planner_mod, "_INSTANCE_DIR", str(tmp_path))
    assert main(["synth", "--q", "4", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: curve instance 'fermat_f4'")
    assert captured.err.count("\n") == 1


def test_cli_synth_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["synth", "--q", "2", "--n", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    captured = capsys.readouterr()
    assert "VERIFIED rank 6" in captured.out
    assert "lower bound 5" in captured.out


def test_cli_verify_corrupted_exits_2(tmp_path, capsys):
    out = tmp_path / "cert.json"
    main(["synth", "--q", "2", "--n", "2", "--out", str(out)])
    data = json.loads(out.read_text())
    data["algorithm"]["W"][0][0][0] ^= 1
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert "FAILED at basis pair" in capsys.readouterr().out


def test_cli_bounds_tables_exit_zero(capsys):
    for table in ("table1", "table3", "m", "csym"):
        assert main(["bounds", "--table", table]) == 0, table
        capsys.readouterr()
    # the msym q = 7 recipe does not match the printed value
    assert main(["bounds", "--table", "msym", "--csv"]) == 2
    csv_text = capsys.readouterr().out
    assert "matches_paper" in csv_text


def test_cli_codes_and_search(tmp_path, capsys):
    out = tmp_path / "cert.json"
    main(["synth", "--q", "2", "--n", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["codes", "--from", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["N"] == 3 and payload["n"] == 2 and payload["min_distance"] == 2
    assert main(["codes", "--from", str(out), "--supercode"]) == 0
    sc = json.loads(capsys.readouterr().out)
    assert sc["n"] == 2 and sc["N"] == 3
    assert main(["search", "--q", "2", "--n", "2", "--max-rank", "3"]) == 0
    assert "minimum rank 3" in capsys.readouterr().out


def test_cli_guard_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "4")
    assert main(["search", "--q", "2", "--n", "3", "--max-rank", "6"]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_deep_guards_follow_the_environment_alone(monkeypatch, capsys):
    from ccma.errors import GuardExceeded

    monkeypatch.setenv("CCMA_GUARD_LIMIT", "4")
    with pytest.raises(GuardExceeded) as info:
        Planner(spec_for_q(2)).synth(8)
    assert str(info.value).startswith("root search in GF(2^4):")
    assert main(["synth", "--q", "2", "--n", "8"]) == 3
    assert capsys.readouterr().err.startswith("resource guard: root search")


def test_a_losing_candidate_cannot_fail_a_request(monkeypatch):
    # the 3 x 2 tower ties with 2 x 3 at rank 15 and comes later; composing
    # it hits the guard in its F_8 root search, but it is never built
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "4")
    cert = Planner(spec_for_q(2)).synth(6)
    assert cert["rank"] == 15
    assert cert["strategy"]["kind"] == "tower" and cert["strategy"]["split"] == [2, 3]
    assert verify(BilinearAlgorithm.from_json(cert["algorithm"]))


def test_cli_nonpositive_counts_are_usage_errors(capsys):
    for argv, flag in (
        (["search", "--q", "2", "--n", "0", "--max-rank", "3"], "--n"),
        (["synth", "--q", "2", "--n", "0"], "--n"),
        (["search", "--q", "2", "--n", "2", "--max-rank", "-1"], "--max-rank"),
        (["search", "--q", "2", "--n", "2", "--max-rank", "0"], "--max-rank"),
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be at least 1")
        assert captured.err.count("\n") == 1


def test_cli_count_flags_are_checked(capsys):
    # at the parent: exit 2 "no strategy produced an algorithm", and `[]` with exit 0
    for argv, flag in (
        (["bounds", "--table", "table2", "--n-max", "0"], "--n-max"),
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be at least 1")
        assert captured.err.count("\n") == 1


def test_cli_bad_request_is_usage_error(capsys):
    # at the parent: "curv" was dropped (exit 0, rank 27 via genus 0), the
    # rest exited 2, and `bounds --json` was taken and ignored
    for argv, named in (
        (["synth", "--q", "3", "--n", "9", "--strategies", "tower,g0,curv"], "'curv'"),
        (["synth", "--q", "2", "--n", "3", "--strategies", "foo"], "'foo'"),
        (["synth", "--q", "6", "--n", "2"], "6 is not a prime power"),
        (["search", "--q", "6", "--n", "2", "--max-rank", "3"], "6 is not a prime power"),
        (["synth", "--n", "2"], "--q"),
        (["synth", "--q", "x", "--n", "2"], "'x'"),
        (["frobnicate"], "'frobnicate'"),
        (["bounds", "--table", "msym", "--json"], "--json"),
        # the genus-0 plan's own caps are not options of the planner
        (["synth", "--q", "2", "--n", "3", "--max-mult", "4"], "--max-mult"),
        (["synth", "--q", "2", "--n", "3", "--max-place-degree", "2"], "--max-place-degree"),
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err, argv
        assert captured.err.count("\n") == 1, argv
    for argv in (["--help"], ["synth", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_planner_refuses_unknown_strategy():
    with pytest.raises(CcmaError, match="'curv'"):
        Planner(spec_for_q(3), strategies=("tower", "g0", "curv"))
    with pytest.raises(CcmaError, match="no strategies"):
        Planner(spec_for_q(3), strategies=())


def test_a_request_with_no_answer_names_each_dropped_candidate(capsys):
    # hyperelliptic_f16 prices (16,16) at 33, but its divisor walk ends with
    # no candidate: the error names the instance and why it dropped out
    with pytest.raises(PlanInfeasible) as err:
        Planner(spec_for_q(16), strategies=("curve",)).synth(16)
    assert str(err.value).startswith("no strategy produced an algorithm for n=16; ")
    assert ("curve hyperelliptic_f16 dropped: curve instance failed after 1 assignments: "
            "no divisor of degree 17 found") in str(err.value)
    # a curve that cannot be priced drops out too, on the same one error line
    assert main(["synth", "--q", "4", "--n", "2", "--strategies", "curve"]) == 2
    assert capsys.readouterr().err == (
        "error: no strategy produced an algorithm for n=2; "
        "curve fermat_f4 dropped: the curve has no place of degree 2\n")


def test_curve_assignments_order():
    # one u = 2 slot walks the pool; the high slot is listed first
    from ccma.planner import _assignments

    base_items = [([(2, 1), (1, 2)], ["a", "b", "c"]), ([(1, 1)], ["d"])]
    assert list(_assignments(base_items)) == [
        [("a", 2), ("b", 1), ("c", 1), ("d", 1)],
        [("b", 2), ("a", 1), ("c", 1), ("d", 1)],
        [("c", 2), ("a", 1), ("b", 1), ("d", 1)],
    ]


def test_curve_assignments_are_lazy(monkeypatch):
    # 3 u = 2 slots on a pool of 40: C(40, 3) = 9 880 choices at the first
    # degree; the first assignment reads one choice per degree, not the list
    import itertools

    from ccma import planner

    combinations = itertools.combinations
    read = []

    def counted(pool, r):
        for combo in combinations(pool, r):
            read.append(combo)
            yield combo

    monkeypatch.setattr(planner.itertools, "combinations", counted)
    pool = list(range(40))
    base_items = [([(1, 37), (2, 3)], pool), ([(1, 1)], ["d"])]
    stream = planner._assignments(base_items)
    first = next(stream)
    assert len(read) == 2
    assert first == [(0, 2), (1, 2), (2, 2)] + [(p, 1) for p in pool[3:]] + [("d", 1)]
    second, third = itertools.islice(stream, 2)
    assert second[:3] == [(0, 2), (1, 2), (3, 2)] and third[:3] == [(0, 2), (1, 2), (4, 2)]
    assert len(read) == 6


def test_cli_usage_error_missing_file(capsys):
    assert main(["verify", "/nonexistent/path.json"]) == 1


def test_cli_unreadable_file_is_named_error(tmp_path, capsys):
    # at the parent: IsADirectoryError and UnicodeDecodeError tracebacks
    for argv in (["verify", str(tmp_path)], ["codes", "--from", str(tmp_path)]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    for argv in (["verify", str(path)], ["codes", "--from", str(path)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1


def test_cli_bounds_table2_achieved(capsys):
    code = main(["bounds", "--table", "table2", "--achieved", "--n-max", "4"])
    rows = json.loads(capsys.readouterr().out)
    by_cell = {(r["q"], r["n"]): r for r in rows}
    assert by_cell[(2, 4)]["achieved"] == 9
    assert by_cell[(2, 4)]["status"] == "achieved"
    assert all(r["status"] == "achieved" for r in rows)
    assert code == 0


def test_cli_verify_truncated_target(tmp_path, capsys):
    from ccma.bilinear import karatsuba, truncated_target
    from ccma.gf import FieldSpec

    alg = karatsuba(truncated_target(FieldSpec.get(2), 1, 2))
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(alg.to_json()))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED rank 3" in out


def test_cli_bad_guard_env_is_usage_error(monkeypatch, capsys):
    for value in ("abc", "-5"):
        monkeypatch.setenv("CCMA_GUARD_LIMIT", value)
        assert main(["synth", "--q", "2", "--n", "3"]) == 1, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "CCMA_GUARD_LIMIT" in captured.err
        assert captured.err.count("\n") == 1


def _entries_built(planner):
    return sum(len(tab._entries) for tab in planner.table._registry.values())


def _count_builds_and_checks(monkeypatch):
    """Record every cost-table build and every exhaustive check from now on."""
    builds = []
    calls = []
    build = CostTable._build
    failing_pair = BilinearAlgorithm.failing_pair

    def counted_build(table, d, u):
        builds.append((table.base, d, u))
        return build(table, d, u)

    def counted_pair(alg):
        calls.append(alg)
        return failing_pair(alg)

    monkeypatch.setattr(CostTable, "_build", counted_build)
    monkeypatch.setattr(BilinearAlgorithm, "failing_pair", counted_pair)
    return builds, calls


def test_synth_verifies_each_algorithm_once(monkeypatch):
    # one exhaustive check per cost-table entry and one for the certificate
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    _, calls = _count_builds_and_checks(monkeypatch)
    planner = Planner(spec_for_q(2))
    cert = planner.synth(6)
    built = _entries_built(planner)
    assert cert["rank"] == 15
    assert built > 0
    assert len(calls) == built + 1


def test_synth_builds_each_cost_table_entry_once(monkeypatch):
    # tower components and subtables of subtables come from one registry
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    builds, calls = _count_builds_and_checks(monkeypatch)
    planner = Planner(spec_for_q(2))
    assert planner.synth(8)["rank"] == 24
    assert len(builds) == len(set(builds))
    assert len(builds) == _entries_built(planner)
    assert len(calls) == 5


def test_synth_prices_only_entries_below_the_request(monkeypatch):
    # the genus-0 plan of F_2^8 admits items of dimension below 8, as the
    # cost table's own plans do; admitting up to 14 built (8,1) to (12,1),
    # (2,4), (4,2), (3,3), (5,2), (3,4), (4,3) and (6,2) over F_2
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    builds, _ = _count_builds_and_checks(monkeypatch)
    F2 = spec_for_q(2)
    assert Planner(F2).synth(8)["rank"] == 24
    assert [(d, u) for base, d, u in builds if base == F2 and d * u >= 8] == []


def test_only_the_winning_candidates_are_built(monkeypatch):
    # every candidate is priced first; losing constructions are never made
    from ccma import genus0

    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    made = {}

    def counted(name, fn):
        def wrapper(*args):
            made[name] = made.get(name, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(genus0, "build", counted("genus0.build", genus0.build))
    for name in ("compose_tower", "compose_truncated", "schoolbook"):
        monkeypatch.setattr(bilinear, name, counted(name, getattr(bilinear, name)))
    _, calls = _count_builds_and_checks(monkeypatch)
    assert Planner(spec_for_q(2)).synth(8)["rank"] == 24
    assert len(calls) == 5
    assert made == {"genus0.build": 1, "compose_tower": 1}


def test_pricing_builds_nothing(monkeypatch):
    # a price comes from prices: no algorithm, check or modulus search over
    # an extension field is made (field_extend still finds the defining
    # polynomial of F_{q^a} over the prime field)
    from ccma import genus0, gf

    def refused(name, fn=None):
        def wrapper(*args):
            if fn is not None and args[0].k == 1:
                return fn(*args)
            raise AssertionError(f"pricing called {name}")
        return wrapper

    monkeypatch.setattr(BilinearAlgorithm, "failing_pair", refused("failing_pair"))
    monkeypatch.setattr(genus0, "build", refused("genus0.build"))
    for name in ("compose_tower", "compose_truncated", "schoolbook", "karatsuba"):
        monkeypatch.setattr(bilinear, name, refused(name))
    for mod in (gf, bilinear, genus0):
        monkeypatch.setattr(mod, "lex_least_irreducible",
                            refused("lex_least_irreducible", gf.lex_least_irreducible))
    assert CostTable(spec_for_q(2)).cost(18) == 69
    assert CostTable(spec_for_q(16)).cost(14) == 32


def test_a_nested_entry_above_its_price_reprices_the_request(monkeypatch):
    # under a limit of 4 the genus-0 plans of (5,1) over F_4 and over F_2
    # price at 11 and 14 and drop out when built, so both entries come out
    # at schoolbook's 25: the 2 x 5 split priced 33, then the 5 x 2 split
    # priced 42, answers STALE rather than build at a rank that breaks its
    # price; priced again, both come to 75 and 2 x 5 wins the tie
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "4")
    cert = Planner(spec_for_q(2), strategies=("tower",)).synth(10)
    assert (cert["rank"], cert["strategy"]["split"]) == (75, [2, 5])
    assert cert["strategy"]["inner"]["rank"] == 25


def test_losing_splits_cannot_fail_a_request(monkeypatch):
    # under a limit of 16 some losing split's entries would hit the guard
    # when built; only the 2 x 6 winner is built, and the request answers
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "16")
    for q, rank in ((3, 36), (4, 33)):
        cert = Planner(spec_for_q(q), strategies=("tower",)).synth(12)
        assert (cert["rank"], cert["strategy"]["split"]) == (rank, [2, 6]), q
        assert main(["synth", "--q", str(q), "--n", "12"]) == 0


def _built_reference(planner, n):
    """Build every candidate and keep the first of least N: the rule that
    pricing first must reproduce."""
    found = [(build(), detail) for _, build, detail in planner._candidates(n, [])]
    alg, detail = min((f for f in found if isinstance(f[0], BilinearAlgorithm)),
                      key=lambda f: f[0].N)
    return alg.to_json(), detail


def test_pricing_first_picks_the_winner_of_building_all():
    requests = [(Planner(spec_for_q(q)), n) for q in (2, 3, 4) for n in range(2, 9)]
    requests += [(Planner(spec_for_q(q), strategies=("curve",)), n)
                 for q, n in ((4, 4), (3, 9), (16, 13), (16, 14), (16, 15))]
    for planner, n in requests:
        cert = planner.synth(n)
        assert (cert["algorithm"], cert["strategy"]) == _built_reference(planner, n), (
            planner.base, n)


# sha256 over the hex sha256 of each `json.dumps(cert, sort_keys=True)`, for
# Planner(spec_for_q(q)).synth(n), q in (2, 3, 4), n = 2..10, then the curve
# instances with strategies=("curve",), in that order and in one process
CERTIFICATE_GRID_DIGEST = "9bd9364f11ada0ea314f499e1cd4ee788f3f94fe5c209f9a72e5114d982342a7"


def test_certificate_grid_is_pinned(monkeypatch):
    from ccma import curves as curves_mod

    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    monkeypatch.setattr(curves_mod, "_SHARED_CURVES", {})
    certs = [Planner(spec_for_q(q)).synth(n) for q in (2, 3, 4) for n in range(2, 11)]
    certs += [Planner(spec_for_q(q), strategies=("curve",)).synth(n)
              for q, n in ((4, 4), (3, 9), (16, 13), (16, 14), (16, 15))]
    hexes = "".join(hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()
                    for cert in certs)
    assert hashlib.sha256(hexes.encode()).hexdigest() == CERTIFICATE_GRID_DIGEST


# the same digest over the curve-only certificates of y^2 + xy = x^3 + 1
# over F_4 (n = 4..7), then over F_2 (n = 5..7): h = x is not constant, so
# the fibres see c = h(xi) other than 1, and c = 0 above x = 0
XY_CERTIFICATE_DIGEST = "2069178ba7190b133337ea06746fe0740a28794089463d3fd12aa502adafe27a"


def test_certificates_on_a_curve_with_nonconstant_h_are_pinned(monkeypatch):
    from ccma import curves as curves_mod

    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    monkeypatch.setattr(curves_mod, "_SHARED_CURVES", {})
    F2 = {"p": 2, "k": 1, "defining_poly": None}
    F4 = {"p": 2, "k": 2, "defining_poly": [1, 1, 1]}
    certs = []
    for base, ns in ((F4, range(4, 8)), (F2, range(5, 8))):
        q = 2 ** base["k"]
        zero, one = [0] * base["k"], [1] + [0] * (base["k"] - 1)
        curve = {"base": base, "h": [zero, one], "f": [one, zero, zero, one]}
        planner = Planner(spec_for_q(q), strategies=("curve",),
                          instances=[{"name": f"xy_f{q}", "curve": curve}])
        for n in ns:
            cert = planner.synth(n)
            assert verify(BilinearAlgorithm.from_json(cert["algorithm"])), n
            certs.append(cert)
    assert [c["rank"] for c in certs] == [8, 11, 14, 17, 14, 18, 24]
    hexes = "".join(hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()
                    for cert in certs)
    assert hashlib.sha256(hexes.encode()).hexdigest() == XY_CERTIFICATE_DIGEST


def test_genus0_alone_has_no_plan_for_n_1(capsys):
    # a genus-0 item must be smaller than its target, and nothing is below
    # dimension 1
    with pytest.raises(PlanInfeasible):
        Planner(spec_for_q(2), strategies=("g0",)).synth(1)
    assert main(["synth", "--q", "2", "--n", "1", "--strategies", "g0"]) == 2
    assert capsys.readouterr().err.startswith("error: no strategy produced an algorithm")
    assert Planner(spec_for_q(2)).synth(1)["strategy"] == {"kind": "trivial"}


def test_second_planner_reuses_every_shared_entry(monkeypatch):
    # the first request fills the process-wide tables; the second builds
    # nothing and checks only its certificate
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    first = Planner(spec_for_q(2)).synth(6)
    builds, calls = _count_builds_and_checks(monkeypatch)
    assert Planner(spec_for_q(2)).synth(6) == first
    assert builds == []
    assert len(calls) == 1


def test_shared_tables_give_the_certificates_of_fresh_ones(monkeypatch):
    cells = [(q, n) for q in (2, 4) for n in range(2, 9)]
    fresh = {}
    for q, n in cells:
        monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
        fresh[q, n] = Planner(spec_for_q(q)).synth(n)
    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    shared = {(2, n): Planner(spec_for_q(2)).synth(n) for n in range(2, 9)}
    # the F_2 requests filled the F_4 table that the F_4 requests start from
    F4 = spec_for_q(4)
    assert Planner(F4).table is Planner(spec_for_q(2)).table.subtable(F4)
    assert Planner(F4).table._entries
    shared.update({(4, n): Planner(F4).synth(n) for n in range(2, 9)})
    assert shared == fresh


def test_shared_tables_keep_guard_limits_apart(monkeypatch):
    from ccma.errors import GuardExceeded

    monkeypatch.setattr(bilinear, "_SHARED_TABLES", {})
    F2 = spec_for_q(2)
    assert Planner(F2).synth(6)["rank"] == 15
    assert Planner(F2).table.get(5, 1).N == 14
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "4")
    with pytest.raises(GuardExceeded):
        Planner(F2).synth(8)
    # the genus-0 candidate of (5,1) drops out under the small limit, so that
    # entry is schoolbook's there, never the default limit's
    assert Planner(F2).table.get(5, 1).N == 25


def test_cli_malformed_payload_is_named_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    cases = [
        (["verify", str(path)], {"algorithm": {}}, "'p'"),
        (["codes", "--from", str(path)], {"algorithm": {}}, "'p'"),
        (["verify", str(path)], [1, 2], "not a JSON object"),
    ]
    for argv, payload, named in cases:
        path.write_text(json.dumps(payload))
        assert main(argv) == 2, (argv, payload)
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.err.count("\n") == 1


def test_cli_non_canonical_payload_is_named_error(tmp_path, capsys):
    # at the parent: a TypeError traceback, and a digit 3 reduced mod 2 to VERIFIED
    main(["synth", "--q", "2", "--n", "3", "--out", str(tmp_path / "cert.json")])
    cert = json.loads((tmp_path / "cert.json").read_text())
    capsys.readouterr()

    def edited(path, value):
        data = json.loads(json.dumps(cert))
        node = data["algorithm"]
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        return data

    lifted = cert["algorithm"]["A"][0][0][0] + 2
    path = tmp_path / "bad.json"
    cases = [
        ({"p": 2, "k": 1, "target": {"kind": "extension", "Q": 5},
          "A": [], "B": [], "W": []}, "Q holds int"),
        (edited(("A", 0, 0), [lifted]), f"A holds {lifted}"),
        (edited(("B", 1, 0), [0, 1]), "B holds a field element of 2 digits"),
        (edited(("W", 0, 0), [True]), "W holds True"),
        (edited(("W", 0), 7), "W holds int"),
        (edited(("A",), {"0": 1}), "A holds dict"),
        (edited(("p",), "2"), "p holds '2'"),
        (edited(("defining_poly",), [1, 1, 0, 3]), "defining_poly holds 3"),
        # a prime field's polynomial is null; the parent took [] for null
        (edited(("defining_poly",), []), "defining_poly holds [], not null"),
        (edited(("defining_poly",), [1, 1]), "defining_poly holds [1, 1], not null"),
        (edited(("target", "Q", 3), [1.0]), "Q holds 1.0"),
        # claims the algorithm payload makes about itself; the parent printed VERIFIED
        (edited(("N",), 99), "N claims 99, but the payload bears out 6"),
        (edited(("q",), 7), "q claims 7, but the payload bears out 2"),
        (edited(("target", "n"), 9), "n claims 9, but the payload bears out 3"),
        (edited(("N",), "6"), "N claims '6'"),
        (edited(("target", "Q"), [[1], [1], [0], [1], [0]]), "Q is not monic"),
        # F_8 written as a truncated algebra with l = 1, whose canonical kind
        # is "extension", used to print VERIFIED
        (edited(("target",), dict(cert["algorithm"]["target"], kind="truncated", m=3, l=1)),
         "l holds 1"),
        (edited(("target",), dict(cert["algorithm"]["target"], kind="truncated", m=2, l=2)),
         "m claims 2, but the payload bears out 3"),
    ]
    # an F_64/F_4 algorithm needs its polynomial; the parent took null for the default
    main(["synth", "--q", "4", "--n", "3", "--out", str(tmp_path / "cert4.json")])
    alg4 = json.loads((tmp_path / "cert4.json").read_text())["algorithm"]
    capsys.readouterr()
    for poly, named in ((None, "holds None, not a monic degree-2 list"),
                        ([1, 1], "holds [1, 1], not a monic degree-2 list"),
                        ([1, 1, 1, 0], "holds [1, 1, 1, 0], not a monic"),
                        ([1, 1, 2], "defining_poly holds 2")):
        cases.append((dict(alg4, defining_poly=poly), named))
    for payload, named in cases:
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == 2, named
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.err.count("\n") == 1 and "VERIFIED" not in captured.out


def test_cli_verify_checks_certificate_claims(tmp_path, capsys):
    path = tmp_path / "cert.json"
    # an F_8/F_2 algorithm; the parent printed VERIFIED for q=4, n=9
    main(["synth", "--q", "2", "--n", "3", "--out", str(path)])
    cert = json.loads(path.read_text())
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    cert.update(q=4, n=9)
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert "q=4 (algorithm: 2)" in out and "n=9 (algorithm: 3)" in out
    assert "VERIFIED" not in out
    for key, value in (("rank", 2), ("symmetric", not cert["symmetric"]), ("winograd_lower", 1),
                       ("rank", 6.0), ("symmetric", 1), ("winograd_lower", 5.0)):
        path.write_text(json.dumps(dict(cert, q=2, n=3, **{key: value})))
        assert main(["verify", str(path)]) == 2, key
        assert f"{key}={value!r}" in capsys.readouterr().out


def _mutations(node):
    """(label, mutate) pairs: delete each key, or give it a wrong or bad value."""
    for key, value in node.items():
        if type(value) is int:
            bad = [-1, 0, value + 1, 64]
        elif isinstance(value, list):
            bad = [[], value[:-1]]
        elif value is None:
            bad = [[1, 1]]
        else:
            bad = [None]
        yield key, "deleted", lambda d, key=key: d.pop(key)
        wrong = 0 if isinstance(value, str) else "x"
        for new in [wrong] + bad:
            yield key, new, lambda d, key=key, new=new: d.__setitem__(key, new)


def test_certificate_mutations_verify_or_exit_cleanly(tmp_path, capsys):
    # every deleted, mistyped or out-of-range key either leaves the same
    # algorithm or is refused with exit 2 or 3 and a single line
    stored = corpus_certificates()
    picked = [min((c for c in stored if c["q"] == q), key=lambda c: c["n"]) for q in (2, 4, 16)]
    path = tmp_path / "mutant.json"
    seen = set()
    for cert in picked:
        for where in ((), ("algorithm",), ("algorithm", "target")):
            node = cert
            for step in where:
                node = node[step]
            for key, new, mutate in _mutations(node):
                mutant = json.loads(json.dumps(cert))
                target = mutant
                for step in where:
                    target = target[step]
                mutate(target)
                path.write_text(json.dumps(mutant))
                code = main(["verify", str(path)])
                captured = capsys.readouterr()
                label = (cert["q"], cert["n"], where, key, new)
                seen.add(code)
                if code == 0:
                    alg = BilinearAlgorithm.from_json(mutant["algorithm"])
                    assert alg.to_json() == cert["algorithm"], label
                else:
                    assert code in (2, 3), label
                    lines = (captured.out + captured.err).splitlines()
                    assert len(lines) == 1 and "Traceback" not in lines[0], label
    assert seen == {0, 2, 3}


def _cli(*args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ccma.__file__)))
    return subprocess.run([sys.executable, "-m", "ccma.cli", *args], env=env,
                          capture_output=True, text=True, timeout=20)


def test_cli_field_size_guard(tmp_path):
    # at the parent each of these ran for minutes; the guard refuses them at once
    cert = Planner(spec_for_q(2)).synth(3)
    path = tmp_path / "cert.json"
    for key, value in (("k", 100000), ("k", 10**9), ("p", 1000000000000000003)):
        path.write_text(json.dumps(dict(cert, algorithm=dict(cert["algorithm"], **{key: value}))))
        done = _cli("verify", str(path))
        assert done.returncode == 3, (key, done.stderr)
        assert done.stderr.startswith("resource guard:") and done.stderr.count("\n") == 1
    done = _cli("synth", "--q", "1000000007", "--n", "2")
    assert done.returncode == 3 and "field F_1000000007" in done.stderr


def test_cli_bounds_n_max_beyond_table2(capsys):
    # at the parent --n-max 19 ended in an IndexError traceback
    assert main(["bounds", "--table", "table2", "--n-max", "19"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n-max 19: table2 has rows n = 2..18\n"


def test_cli_search_guard_before_enumeration():
    # n = 100: all 2^100 vectors were once listed before the guard, and it never
    # returned; n = 500: finding the degree-500 modulus took longer than the timeout;
    # the last size has more digits than int -> str converts, and is never computed
    for n, rank in (("100", "3"), ("500", "3"), ("5000", "1000000000")):
        done = _cli("search", "--q", "2", "--n", n, "--max-rank", rank)
        assert done.returncode == 3, (n, done.stderr)
        assert done.stderr.startswith("resource guard: brute-force search space")
        assert done.stderr.count("\n") == 1


def test_curve_request_enumerates_each_degree_once(monkeypatch):
    # the divisor search reads the planner's place lists and draws its support
    # pool only as far as its walk reads, so (3,9) stops before degrees 4 and 5
    import ccma.curves as curves_mod

    monkeypatch.setattr(curves_mod, "_SHARED_CURVES", {})
    calls = []
    enumerate_places = curves_mod.enumerate_curve_places
    monkeypatch.setattr(curves_mod, "enumerate_curve_places",
                        lambda curve, d: calls.append(d)
                        or enumerate_places(curve, d))
    for q, n, degrees in ((4, 4, [1, 2, 3]), (3, 9, [1, 2, 3])):
        calls.clear()
        cert = Planner(spec_for_q(q), strategies=("curve",)).synth(n)
        assert calls == degrees, (q, n, calls)
        assert cert["rank"] == {4: 8, 3: 26}[q]
        # a second planner reads the shared curve's place lists
        calls.clear()
        assert Planner(spec_for_q(q), strategies=("curve",)).synth(n) == cert
        assert calls == [], (q, n, calls)


def test_curve_pricing_enumerates_no_degree_above_the_genus(monkeypatch):
    # N_1..N_g fix every place count, so pricing reads the places of degree <= g
    # only; fresh models, since a shared curve's cached lists would hide calls
    import ccma.curves as curves_mod
    from ccma.planner import _curve_plan

    calls = []
    enumerate_places = curves_mod.enumerate_curve_places
    monkeypatch.setattr(curves_mod, "enumerate_curve_places",
                        lambda curve, d: calls.append(d)
                        or enumerate_places(curve, d))
    for inst in shipped_instances():
        calls.clear()
        curve = curves_mod.CurveModel.from_json(inst["curve"])
        table = CostTable.shared(curve.base)
        for n in range(11, 19):
            _curve_plan(curve, n, table)
        assert calls and max(calls) <= curve.genus, (inst["name"], calls)


def test_curve_with_no_place_of_degree_n_is_refused_at_pricing(monkeypatch):
    # the Fermat cubic over F_4 is maximal and keeps N_2 = N_1 = 9: no place of
    # degree 2, so it must not price (4,2), nor scan for a Q it cannot find
    import ccma.curves as curves_mod
    from ccma.planner import _curve_plan

    fermat = next(i for i in shipped_instances() if i["name"] == "fermat_f4")
    curve = curves_mod.CurveModel.from_json(fermat["curve"])
    with pytest.raises(PlanInfeasible, match="no place of degree 2"):
        _curve_plan(curve, 2, CostTable.shared(curve.base))
    scans = []
    monkeypatch.setattr(curves_mod, "find_place_of_degree",
                        lambda *args: scans.append(args))
    with pytest.raises(PlanInfeasible):
        Planner(spec_for_q(4), strategies=("curve",), instances=[fermat]).synth(2)
    assert scans == []


def test_shared_curves_are_kept_per_guard_limit(monkeypatch):
    # a curve shared across limits would answer 27 from its cached place
    # lists; a fresh process under the lower limit finds no curve candidate
    import ccma.curves as curves_mod

    monkeypatch.setattr(curves_mod, "_SHARED_CURVES", {})
    F16 = spec_for_q(16)  # F_16 itself exceeds the limit set below
    assert Planner(F16, strategies=("curve",)).synth(13)["rank"] == 27
    monkeypatch.setenv("CCMA_GUARD_LIMIT", "8")
    with pytest.raises(PlanInfeasible):
        Planner(F16, strategies=("curve",)).synth(13)


def test_each_instance_is_parsed_once_per_process(monkeypatch):
    # the registry is keyed by an instance's curve data, so a second request
    # parses no shipped file again; a malformed one is refused every time
    import ccma.curves as curves_mod

    monkeypatch.setattr(curves_mod, "_SHARED_CURVES", {})
    parsed = []
    is_smooth = curves_mod._is_smooth
    monkeypatch.setattr(curves_mod, "_is_smooth",
                        lambda h, f: parsed.append(f) or is_smooth(h, f))
    for _ in range(2):
        Planner(spec_for_q(2)).synth(3)
    assert len(parsed) == 3
    bad = json.loads(json.dumps(next(i for i in shipped_instances() if i["name"] == "fermat_f4")))
    _fermat_singular(bad)
    for _ in range(2):
        with pytest.raises(MalformedPayload, match="singular"):
            Planner(spec_for_q(4), instances=[bad]).synth(4)
    assert len(parsed) == 5


def test_cli_bounds_table2_achieved_writes_every_row_past_a_failure(monkeypatch, capsys):
    from ccma.bounds import TABLE2
    from ccma.errors import PlanInfeasible

    def synth(self, n):
        if (self.base.q, n) == (3, 2):
            raise PlanInfeasible("no strategy produced an algorithm for n=2")
        return {"rank": TABLE2[self.base.q][n - 2]}

    monkeypatch.setattr(Planner, "synth", synth)
    code = main(["bounds", "--table", "table2", "--achieved", "--n-max", "3"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 2
    assert [(r["q"], r["n"]) for r in rows] == [(q, n) for q in (2, 3, 4) for n in (2, 3)]
    failed = [r for r in rows if r["status"] != "achieved"]
    assert [(r["q"], r["n"], r["status"]) for r in failed] == [(3, 2, "infeasible")]
    assert "n=2" in failed[0]["message"]
