"""One pass of one workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload table2_grid --seed 0 --mode plain

Modes:
  setup  import ccma and load the inputs, then stop (set-up time only);
  plain  the timed pass, with no instrumentation;
  trace  the same pass with spans around ccma's public calls;
  count  the same pass counting per-element operations only.

The worker reports its monotonic clock reading when it was ready; the
parent subtracts its own reading at spawn, so set-up time covers
interpreter start, `import ccma` and loading and checking the inputs.
"""

import argparse
import json
import resource
import time

import workloads


def run_pass(workload, seed, mode, spans_path=None):
    workloads.import_ccma()
    tracer = None
    if mode in ("trace", "count"):
        import spans

        tracer = spans.Tracer() if mode == "trace" else spans.Counter()
        tracer.install()
    corpus = workloads.load_corpus() if workload == "certificate_check" else None
    reqs = workloads.requests(workload, seed, corpus)
    ready = time.monotonic()
    if mode == "setup":
        return {"ready_at": ready}

    results = []
    latencies = []
    errors = []
    clock = time.perf_counter
    start = clock()
    for idx, req in enumerate(reqs):
        if mode == "trace":
            tracer.request = idx
        t0 = clock()
        try:
            out = workloads.execute(req)
            err = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        results.append(out)
        errors.append(err)
    wall = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = None
    if mode == "trace":
        tracer.request = -1
        layer = {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
                 "counts": dict(tracer.counts), "guard_max_fill": tracer.guard_max_fill}
    elif mode == "count":
        layer = {"counts": dict(tracer.counts)}

    # the oracle runs after the timed region
    records = []
    for req, out, err, lat in zip(reqs, results, errors, latencies):
        rank, problems = (None, [err]) if err else workloads.check(req, out)
        records.append({"label": req.label, "command": req.command,
                        "latency_s": lat, "rank": rank, "problems": problems})
    if mode == "trace" and spans_path:
        tracer.dump(spans_path)
    return {"ready_at": ready, "wall_s": wall, "peak_rss_mb": rss_mb,
            "requests": records, "layer": layer}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", default="plain", choices=("setup", "plain", "trace", "count"))
    ap.add_argument("--spans", help="where a trace pass writes its spans (gzip JSON)")
    args = ap.parse_args()
    out = run_pass(args.workload, args.seed, args.mode, args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
