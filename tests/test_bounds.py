"""Closed-form bound evaluators and golden-table regeneration."""

import os
import subprocess
import sys
from fractions import Fraction

import ccma

from ccma.bounds import (
    M_TABLE,
    TABLE2,
    TABLE3,
    ballet_criteria,
    dense_ihara_reference,
    epsilon_shokrollahi,
    lsw_f,
    m2_corollary,
    msym_table,
    m_table,
    render_like,
    rambaud_asym,
    rambaud_sym,
    shokrollahi_range,
    stv_limsup,
    table_report,
    uniform_csym,
    winograd,
)


def test_winograd_predicate_is_the_rational_one():
    for q in range(2, 70):
        for n in range(1, 40):
            assert winograd(q, n) == (2 * n - 1, Fraction(n) <= Fraction(q, 2) + 1), (q, n)


def test_import_ccma_leaves_the_bound_catalog_out():
    """`bounds` (and with it `fractions`) loads only where a table is asked for."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ccma.__file__)))
    probe = ("import sys, ccma, ccma.cli; "
             "print(sorted(m for m in ('ccma.bounds', 'fractions') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_winograd_examples():
    assert winograd(2, 2) == (3, True)
    assert winograd(4, 4) == (7, False)
    assert winograd(7, 1) == (1, True)
    assert winograd(13, 7) == (13, True)


def test_shokrollahi_range_square():
    lower, upper, eps, ns = shokrollahi_range(16)
    assert eps == 8
    assert lower == Fraction(9) and upper == Fraction(25, 2)
    assert ns == [10, 11, 12]


def test_shokrollahi_range_q4():
    lower, upper, eps, ns = shokrollahi_range(4)
    assert eps == 4
    assert ns == [4]


def test_shokrollahi_epsilon_q13():
    assert epsilon_shokrollahi(13) == 7  # greatest integer <= 2 sqrt(13) prime to 13


def test_lsw_base_cases_and_unfolding():
    assert lsw_f(2, 2)[0] == Fraction(3, 2)
    assert lsw_f(4, 3)[0] == Fraction(5, 3)
    assert lsw_f(2, 3)[0] == Fraction(2)
    f, bound = lsw_f(2, 4)
    assert f == Fraction(4) and bound == 16
    # termination on a large argument
    assert lsw_f(2, 10 ** 6)[0] > 0


def test_ballet_criteria_examples():
    rows = ballet_criteria(4, 4, 1, N1=9, a=0)
    assert rows[0].applicable and rows[0].value == 8
    rows = ballet_criteria(16, 13, 2, N1=33, a=0)
    assert rows[0].applicable and rows[0].value == 27
    rows = ballet_criteria(2, 4, 1, N1=3, N2=1)
    assert not rows[2].applicable  # N1 + 2 N2 = 5 <= 2n + 4g - 2 = 10


def test_uniform_constants():
    assert uniform_csym(2).value == Fraction(154575, 10000)
    assert uniform_csym(3).value == Fraction(1933, 250)
    got = uniform_csym(25).value
    assert got == 2 * (1 + Fraction(2) / (5 - Fraction(33, 16))) == 2 * (1 + Fraction(32, 47))
    assert uniform_csym(4).value == Fraction(237, 39)
    assert uniform_csym(7).value == 3 * (1 + Fraction(8, 16))
    assert uniform_csym(64).value == 2 * (1 + Fraction(2, 8 - 3 + Fraction(8, 9)))


def test_stv_limsup_example():
    res = stv_limsup(9)
    assert res.applicable and res.value == 4  # 2 (1 + 1/(3-2))


def test_dense_ihara_reference_values():
    assert dense_ihara_reference(2, 2)[0] == Fraction(1, 2)
    assert dense_ihara_reference(9, 1)[0] == Fraction(2)
    assert dense_ihara_reference(2, 4)[0] == Fraction(3, 4)  # cap at a square order
    assert dense_ihara_reference(2, 3)[0] is None


def test_msym_table_recipes_match_printing_except_q7():
    for res in msym_table():
        q = res.params["q"]
        assert res.applicable, q
        if q == 7:
            assert res.matches_printed() is False
            assert "4.20" in res.note
        else:
            assert res.matches_printed() is True, (q, res.rendered(), res.printed)


def test_msym_q2_value_is_ten():
    a2, _ = dense_ihara_reference(2, 2)
    res = rambaud_sym(2, 2, 5, 30, a2, "b")
    assert res.value == 10


def test_m_table_values():
    for res in m_table():
        assert res.matches_printed() is True, res.params
    assert M_TABLE[4] == Fraction(87, 19)


def test_m2_corollary():
    res = m2_corollary()
    assert res.value == Fraction(27, 4)
    assert res.value <= 7


def test_rambaud_asym_inapplicable_reported():
    res = rambaud_asym(2, 3, 1, 6, None) if False else rambaud_asym(2, 1, 1, 1, Fraction(1, 2))
    assert not res.applicable
    assert res.value is None


def test_golden_tables_report():
    t1 = table_report("table1")
    assert {(r["q"], r["n"]): r["value"] for r in t1} == {
        (2, 4): "9/9",
        (2, 6): "15/15",
    }
    t3 = table_report("table3")
    cells = {(r["r"], r["l"]): r["value"] for r in t3}
    assert cells[(2, 2)] == "9" and cells[(1, 3)] == "5" and cells[(2, 5)] == "30"
    assert len(cells) == len(TABLE3)
    msym = table_report("msym")
    # the q = 7 recipe gives 4.20 against the printed 4.08, and says so
    assert [r["value"] for r in msym] == ["10", "7.5", "5.33", "5.21", "4.20", "3.71", "3.77", "3.56", "3"]
    assert [r["q"] for r in msym if not r["matches_paper"]] == [7]
    assert "4.08" in msym[4]["note"]
    m = table_report("m")
    assert all(r["matches_paper"] for r in m)
    csym = table_report("csym")
    assert all(r["applicable"] for r in csym)


def test_table2_catalog_shape():
    assert len(TABLE2[2]) == 17 and TABLE2[2][0] == 3 and TABLE2[2][-1] == 69
    assert TABLE2[3][4] == 15 and TABLE2[4][2] == 8


def test_render_like():
    assert render_like(Fraction(16, 3), "5.33") == "5.33"
    assert render_like(Fraction(10), "10") == "10"
    assert render_like(Fraction(87, 19), "4.579") == "4.579"


def test_newbound_sym_variants():
    from ccma.bounds import newbound_sym_odd_power, newbound_sym_prime, newbound_sym_square

    assert newbound_sym_square(25).value == 3  # 2 (1 + 1/(5-3))
    assert not newbound_sym_square(8).applicable
    assert newbound_sym_odd_power(5).value == Fraction(6)  # 3 (1 + 2/2) = 6
    assert not newbound_sym_odd_power(9).applicable  # even power
    assert newbound_sym_prime(7).value == Fraction(4)  # 3 (1 + (4/3)/4)
    assert not newbound_sym_prime(9).applicable


def test_uniform_sym_psquared_clauses():
    from ccma.bounds import uniform_sym_psquared

    r2 = uniform_sym_psquared(7, 100, 2)
    assert r2.applicable and r2.value == 2 * (1 + Fraction(2, 5))
    r3 = uniform_sym_psquared(7, 100, 3)
    assert r3.value == 2 * (1 + Fraction(149, 139) / 5)
    r1 = uniform_sym_psquared(7, 100, 1, eps_primes=Fraction(1, 10))
    assert r1.applicable and r1.value == 2 * (1 + Fraction(11, 10) / 5)
    assert not uniform_sym_psquared(7, 100, 4).applicable  # below exp(50) p
    assert not uniform_sym_psquared(7, 10, 5).applicable
    r6 = uniform_sym_psquared(7, 10 ** 6, 6)
    assert r6.applicable and 2.0 < float(r6.value) < 2.5
    assert not uniform_sym_psquared(4, 5, 2).applicable  # p must be prime >= 7


def test_uniform_sym_prime_gap_reports_inapplicable():
    from ccma.bounds import uniform_sym_prime_gap

    res = uniform_sym_prime_gap(7, 10 ** 6)
    assert not res.applicable and "threshold" in res.note
    forced = uniform_sym_prime_gap(7, 10 ** 6, alpha=Fraction(2, 3), x_alpha=10.0)
    assert forced.applicable
    assert float(forced.value) / 10 ** 6 < 3 * (1 + (4 / 3) / 4) * 1.01
    eleven = uniform_sym_prime_gap(11, 10 ** 6, x_alpha=10.0)
    assert eleven.applicable and eleven.value > 0


def test_table2_report_keeps_going_past_a_failing_cell():
    from ccma.errors import GuardExceeded, PlanInfeasible

    def planner(q, n):
        if (q, n) == (3, 3):
            raise PlanInfeasible("no plan here")
        if (q, n) == (4, 2):
            raise GuardExceeded("generator scan", 9, 8)
        return {"rank": TABLE2[q][n - 2]}

    rows = table_report("table2", planner=planner, n_max=3)
    by_cell = {(r["q"], r["n"]): r for r in rows}
    assert sorted(by_cell) == [(q, n) for q in (2, 3, 4) for n in (2, 3)]
    assert by_cell[(3, 3)]["status"] == "infeasible"
    assert by_cell[(3, 3)]["message"] == "no plan here"
    assert "achieved" not in by_cell[(3, 3)]
    assert by_cell[(4, 2)]["status"] == "infeasible"
    assert "generator scan" in by_cell[(4, 2)]["message"]
    assert by_cell[(4, 3)]["status"] == "achieved"
    assert by_cell[(4, 3)]["achieved"] == TABLE2[4][1]
