"""Self-test of the benchmark: the oracle, failure counting and tracing.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    return workloads.load_corpus()


def _flip_w(cert):
    bad = copy.deepcopy(cert)
    digits = bad["algorithm"]["W"][0][0]
    digits[0] = (digits[0] + 1) % bad["algorithm"]["p"]
    return bad


def test_oracle_accepts_every_corpus_certificate(corpus):
    assert len(corpus) == 28
    for entry in corpus:
        assert oracle.check_certificate(entry["certificate"]) == []


def test_oracle_rejects_a_corrupted_w_coefficient(corpus):
    for entry in corpus:
        problems = oracle.check_certificate(_flip_w(entry["certificate"]))
        assert any("wrong product" in p for p in problems), entry["certificate"]["n"]


@pytest.mark.parametrize("field,value", [
    ("q", 8), ("n", 3), ("rank", 1), ("symmetric", False), ("winograd_lower", 0),
])
def test_oracle_rejects_false_claims(corpus, field, value):
    cert = copy.deepcopy(corpus[2]["certificate"])  # (2,4), rank 9
    cert[field] = value
    assert any(f"claims {field}" in p for p in oracle.check_certificate(cert))


def test_oracle_rejects_rank_above_golden(corpus):
    cert = corpus[2]["certificate"]
    assert oracle.check_certificate(cert, golden_rank=cert["rank"] - 1)


def test_oracle_rejects_non_canonical_coefficients(corpus):
    cert = copy.deepcopy(corpus[2]["certificate"])
    cert["algorithm"]["A"][0][0] = [2]  # out of range in F_2
    assert any("canonical" in p for p in oracle.check_certificate(cert))


def test_failed_frac_counts_an_oracle_miss(monkeypatch):
    """A corrupted synthesis result is counted in failed_frac."""
    first_three = workloads.requests("table2_grid", 0)[:3]
    monkeypatch.setattr(workloads, "requests", lambda *a, **k: list(first_three))
    execute = workloads.execute

    def corrupt_first(req):
        out = execute(req)
        return _flip_w(out) if req is first_three[0] else out

    monkeypatch.setattr(workloads, "execute", corrupt_first)
    res = worker.run_pass("table2_grid", 0, "plain")
    values = run.end_to_end([res], [0.1])
    assert run.tally([res]) == (3, 1)
    assert values["failed_frac"] == pytest.approx(1 / 3)
    assert values["ok_frac"] == pytest.approx(2 / 3)
    assert res["requests"][0]["problems"]


def test_traced_and_untraced_passes_return_identical_ranks():
    plain = run.spawn("curve_instances", 0, "plain")
    traced = run.spawn("curve_instances", 0, "trace")
    ranks = [[r["rank"] for r in p["requests"]] for p in (plain, traced)]
    assert ranks[0] == ranks[1]
    assert sum(ranks[0]) == 121
    assert traced["layer"]["calls"]["curves.riemann_roch_basis"] > 0


def test_run_fails_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and the benchmark, a run fails fast."""
    root = os.path.dirname(run.HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    with open(tmp_path / "BENCHMARK.json") as fh:
        cmd = json.load(fh)["command"]
    proc = subprocess.run(cmd + ["--workload", "table2_grid", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
