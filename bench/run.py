"""ccma benchmark: one workload, fresh worker processes, oracle-checked.

    python3 bench/run.py --workload table2_grid --seed 0 --seconds 35 --trace 0

With --trace 0 the run starts fresh untraced worker processes, one pass of
the workload each, for about --seconds (at least one pass), plus
set-up-only workers until set-up was measured SETUP_SAMPLES times.  It
prints the end-to-end metrics by name and unit: times are means over the
passes, set-up time and memory medians.

With --trace 1 it makes one untraced pass, one traced pass (spans around
ccma's public calls) and one count-only pass, and prints the per-layer
metrics, including the tracing overhead.

Every output is checked by the independent oracle in `oracle.py`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full run record (machine, seed,
per-request latencies) goes to `bench/out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 11
PASS_TIMEOUT_S = 170

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("slowest_request_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "frac"), ("rank_sum", "count")]
COMMANDS = ("verify", "codes", "supercode", "search")

# Per-layer metrics: name -> unit.  Self times are span durations minus the
# time their child spans cover.
PER_LAYER = {
    "gf.is_irreducible.calls": "count",
    "gf.is_irreducible.self_s": "s",
    "gf.is_irreducible.repeat_frac": "frac",
    "gf.iter_irreducibles.yield_frac": "frac",
    "gf.FieldSpec.builds": "count",
    "gf.FieldSpec.build_s": "s",
    "gf.field_extend.self_s": "s",
    "gf.embed_map.self_s": "s",
    "gf.mul.table_calls": "count",
    "gf.mul.generic_calls": "count",
    "gf.mul.generic_frac": "frac",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.mat_vec.calls": "count",
    "linalg.mat_vec.self_s": "s",
    "linalg.mat_mul.self_s": "s",
    "linalg.left_inverse.self_s": "s",
    "linalg.solve.calls": "count",
    "bilinear.failing_pair.calls": "count",
    "bilinear.failing_pair.self_s": "s",
    "bilinear.basis_pairs_checked": "count",
    "bilinear.verifications_per_request": "count",
    "bilinear.CostTable.get.calls": "count",
    "bilinear.costtable.entries_built": "count",
    "bilinear.costtable.hit_frac": "frac",
    "bilinear.compose_tower.calls": "count",
    "bilinear.compose_tower.self_s": "s",
    "bilinear.compose_truncated.self_s": "s",
    "bilinear.brute_force_min_rank.self_s": "s",
    "bilinear.from_json.self_s": "s",
    "bilinear.to_json.self_s": "s",
    "genus0.plan_search.calls": "count",
    "genus0.plan_search.self_s": "s",
    "genus0.build.calls": "count",
    "genus0.build.self_s": "s",
    "genus0.enumerate_g0_places.self_s": "s",
    "curves.enumerate_curve_places.self_s": "s",
    "curves.find_place_of_degree.self_s": "s",
    "curves.riemann_roch_basis.calls": "count",
    "curves.riemann_roch_basis.self_s": "s",
    "curves.find_divisor.self_s": "s",
    "curves.check_conditions.self_s": "s",
    "curves.ccma_build_curve.self_s": "s",
    "series.eval_poly.self_s": "s",
    "series.newton_root.self_s": "s",
    "series.Laurent.mul.calls": "count",
    "codes.min_distance.self_s": "s",
    "codes.codewords_enumerated": "count",
    "codes.supercode.self_s": "s",
    "planner.synth.self_s": "s",
    "planner.curve_instance_synth.self_s": "s",
    "planner.verify_file_payload.self_s": "s",
    "guard.max_fill": "frac",
    "verify_s": "s",
    "codes_s": "s",
    "supercode_s": "s",
    "search_s": "s",
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload, seed, mode, spans_path=None):
    """Run one worker to completion; returns its result with `setup_s`."""
    env = dict(os.environ)
    env.pop("CCMA_GUARD_LIMIT", None)  # the default guard applies, except in the search
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if spans_path:
        cmd += ["--spans", spans_path]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} took over {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_at"] - spawned
    return out


# -- aggregation ---------------------------------------------------------------


def pass_summary(res):
    """Per-pass figures: failures, rank sum and per-command totals."""
    reqs = res["requests"]
    failed = sum(1 for r in reqs if r["problems"])
    totals = {c: sum(r["latency_s"] for r in reqs if r["command"] == c) for c in COMMANDS}
    return {
        "attempted": len(reqs),
        "failed": failed,
        "rank_sum": sum(r["rank"] for r in reqs if r["rank"] is not None),
        "slowest_request_s": max(r["latency_s"] for r in reqs),
        "commands": totals,
    }


def tally(passes):
    """Requests attempted and failed over all passes."""
    sums = [pass_summary(p) for p in passes]
    return sum(s["attempted"] for s in sums), sum(s["failed"] for s in sums)


def end_to_end(passes, setups):
    sums = [pass_summary(p) for p in passes]
    attempted, failed = tally(passes)
    med, mean = statistics.median, statistics.fmean
    # Pass times are averaged, not their median taken: the host's speed
    # moves in phases of seconds, and the mean over every pass of the run
    # tracks the run's average speed, where the median of a few passes
    # jumps with whichever phase the middle pass hit.
    values = {
        "wall_s": mean(p["wall_s"] for p in passes),
        "setup_s": med(setups),
        "slowest_request_s": mean(s["slowest_request_s"] for s in sums),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
        # deterministic; the worst pass counts if passes ever disagree
        "rank_sum": max(s["rank_sum"] for s in sums),
        "failed_frac": failed / attempted,
    }
    for c in COMMANDS:
        values[f"{c}_s"] = mean(s["commands"][c] for s in sums)
    return values


def layer_metrics(plain, traced, counted):
    """Per-layer metrics from one traced and one count-only pass."""
    lay = traced["layer"]
    self_s, calls, counts = lay["self_s"], lay["calls"], lay["counts"]
    ops = counted["layer"]["counts"]
    n_req = len(traced["requests"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field == "calls" and head:
            m[name] = calls.get(head, 0)
        elif field == "self_s" and head:
            m[name] = self_s.get(head, 0.0)
    irr_calls = calls.get("gf.is_irreducible", 0)
    table, generic = ops["gf.mul.table_calls"], ops["gf.mul.generic_calls"]
    cost_gets = calls.get("bilinear.CostTable.get", 0)
    m.update({
        "gf.is_irreducible.repeat_frac": ratio(counts.get("gf.is_irreducible.repeats", 0), irr_calls),
        "gf.iter_irreducibles.yield_frac": ratio(counts.get("gf.iter_irreducibles.yields", 0),
                                                 counts.get("gf.iter_monic.yields", 0)),
        "gf.FieldSpec.builds": calls.get("gf.FieldSpec.build", 0),
        "gf.FieldSpec.build_s": self_s.get("gf.FieldSpec.build", 0.0),
        "gf.mul.table_calls": table,
        "gf.mul.generic_calls": generic,
        "gf.mul.generic_frac": ratio(generic, table + generic),
        "series.Laurent.mul.calls": ops["series.Laurent.mul.calls"],
        "bilinear.basis_pairs_checked": counts.get("bilinear.basis_pairs_checked", 0),
        "bilinear.verifications_per_request": ratio(calls.get("bilinear.failing_pair", 0), n_req),
        "bilinear.costtable.entries_built": counts.get("bilinear.costtable.entries_built", 0),
        "bilinear.costtable.hit_frac": ratio(counts.get("bilinear.costtable.hits", 0), cost_gets),
        "codes.codewords_enumerated": counts.get("codes.codewords_enumerated", 0),
        "codes.supercode.self_s": self_s.get("codes.supercode_from_symmetric", 0.0)
        + self_s.get("codes.symmetric_from_supercode", 0.0),
        "guard.max_fill": lay["guard_max_fill"],
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
    })
    totals = pass_summary(plain)["commands"]
    for c in COMMANDS:
        m[f"{c}_s"] = totals[c]
    return m


# -- run record ----------------------------------------------------------------


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(workloads.SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "source_sha256": digest.hexdigest()}


def request_latencies(passes):
    """Per-request latencies across passes, with their sample counts."""
    by_label = {}
    for p in passes:
        for r in p["requests"]:
            by_label.setdefault(r["label"], []).append(r["latency_s"])
    return {label: {"samples": len(v), "median_s": statistics.median(v), "latencies_s": v}
            for label, v in sorted(by_label.items())}


def problems_of(passes):
    return [f"{r['label']}: {'; '.join(r['problems'])}"
            for p in passes for r in p["requests"] if r["problems"]]


# -- main ----------------------------------------------------------------------


def check_checkout():
    if not os.path.isfile(os.path.join(workloads.SRC, "ccma", "__init__.py")):
        raise BenchError(f"no ccma sources under {workloads.SRC}")
    if not os.path.isfile(workloads.CORPUS_PATH):
        raise BenchError(f"no certificate corpus at {workloads.CORPUS_PATH}")


def run(workload, seed, seconds, trace):
    check_checkout()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "search_guard_limit": workloads.SEARCH_GUARD_LIMIT,
              "closed_loop_clients": 1}
    if trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
        plain = spawn(workload, seed, "plain")
        traced = spawn(workload, seed, "trace", spans_path)
        counted = spawn(workload, seed, "count")
        passes = [plain, traced, counted]
        values = layer_metrics(plain, traced, counted)
        units = PER_LAYER
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        started = time.monotonic()
        passes = [spawn(workload, seed, "plain")]
        # start another pass while it would end nearer to `seconds` than not
        while time.monotonic() - started + passes[-1]["wall_s"] / 2 < seconds:
            passes.append(spawn(workload, seed, "plain"))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, "setup")["setup_s"])
        values = end_to_end(passes, setups)
        units = dict(END_TO_END)
        record["setup_samples_s"] = setups
    attempted, failed = tally(passes)
    problems = problems_of(passes)
    # traced, count-only and untraced passes must certify identical ranks
    if len({tuple(r["rank"] for r in p["requests"]) for p in passes}) != 1:
        problems.append("passes disagree on the certified ranks")
    record.update({
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "requests": request_latencies(passes),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": values,
    })
    record_path = os.path.join(OUT_DIR, stem + ".json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    shown = dict(units)
    if not trace:
        shown["failed_frac"] = "frac"
        if workload == "certificate_check":
            shown.update({f"{c}_s": "s" for c in COMMANDS})
    print(f"# {workload} seed={seed} trace={trace} passes={len(passes)} "
          f"record={os.path.relpath(record_path, ROOT)}")
    for name, unit in shown.items():
        print(f"{name:40s} {values[name]:.6g} {unit}")
    for line in problems:
        print(f"FAILED {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description="ccma benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="request order; 0 is canonical")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="how long the untraced passes of one run take, about")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
