"""The four benchmark workloads: requests, golden values and output checks.

Every request is a call into ccma's public library API, made in a closed
loop (the next request starts when the previous one has returned).  The
seed only permutes the order of requests; seed 0 keeps the canonical
order, q ascending and then n.

Golden values were recorded at the commit that introduced this benchmark.
"""

import json
import os
import random
import sys

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CORPUS_PATH = os.path.join(HERE, "corpus", "certificates.json")

# Explicit guard limit for the minimum-rank search: (2,4) symmetric up to
# rank 9 is 15^9 ~ 3.8e10 rank-one combinations, above ccma's 2^20 default.
SEARCH_GUARD_LIMIT = 1 << 40

# Codes are enumerated only where q^n <= 2^16, as `ccma codes` would.
CODES_MAX_WORDS = 1 << 16

GRID_RANKS = {
    (2, 2): 3, (2, 3): 6, (2, 4): 9, (2, 5): 14, (2, 6): 15, (2, 7): 22, (2, 8): 24,
    (3, 2): 3, (3, 3): 6, (3, 4): 9, (3, 5): 12, (3, 6): 15, (3, 7): 19, (3, 8): 21,
    (4, 2): 3, (4, 3): 5, (4, 4): 8, (4, 5): 11, (4, 6): 14, (4, 7): 17, (4, 8): 20,
}
LARGE_RANKS = {(2, 10): 33, (4, 10): 27}
CURVE_RANKS = {(4, 4): 8, (3, 9): 26, (16, 13): 27, (16, 14): 29, (16, 15): 31}
# (q, n) -> (max_rank passed to the search, golden minimum), symmetric search
SEARCH_MINIMA = {(2, 4): (9, 9), (3, 3): (6, 6), (4, 3): (5, 5)}
GOLDEN_RANKS = {"grid": GRID_RANKS, "large": LARGE_RANKS, "curve": CURVE_RANKS}

WORKLOADS = ("table2_grid", "large_extension", "curve_instances", "certificate_check")


def import_ccma():
    """Import ccma from this checkout's `src/`, never from anywhere else."""
    sys.path.insert(0, SRC)
    import ccma

    where = os.path.dirname(os.path.abspath(ccma.__file__))
    if where != os.path.join(SRC, "ccma"):
        raise ImportError(f"ccma was imported from {where}, not from {SRC}")
    return ccma


class Request:
    """One call of the closed loop; `command` groups per-command totals."""

    def __init__(self, label, command, key, payload=None):
        self.label = label
        self.command = command
        self.key = key
        self.payload = payload


def requests(workload, seed, corpus=None):
    """The workload's request list in the order the seed gives."""
    if workload == "table2_grid":
        reqs = [Request(f"synth q={q} n={n}", "synth", ("grid", q, n))
                for q, n in sorted(GRID_RANKS)]
    elif workload == "large_extension":
        reqs = [Request(f"synth q={q} n={n}", "synth", ("large", q, n))
                for q, n in sorted(LARGE_RANKS)]
    elif workload == "curve_instances":
        reqs = [Request(f"synth curve q={q} n={n}", "synth", ("curve", q, n))
                for q, n in sorted(CURVE_RANKS)]
    elif workload == "certificate_check":
        reqs = []
        for entry in corpus:
            cert = entry["certificate"]
            q, n, src = cert["q"], cert["n"], entry["source"]
            tag = f"{src} q={q} n={n}"
            reqs.append(Request(f"verify {tag}", "verify", (src, q, n), cert))
            if q ** n <= CODES_MAX_WORDS:
                reqs.append(Request(f"codes {tag}", "codes", (src, q, n), cert))
            if cert["symmetric"]:
                reqs.append(Request(f"supercode {tag}", "supercode", (src, q, n), cert))
        for q, n in sorted(SEARCH_MINIMA):
            reqs.append(Request(f"search q={q} n={n}", "search", ("search", q, n)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed:
        random.Random(seed).shuffle(reqs)
    return reqs


def load_corpus():
    """Load the stored certificates and check each with the oracle."""
    with open(CORPUS_PATH) as fh:
        corpus = json.load(fh)
    for entry in corpus:
        cert = entry["certificate"]
        golden = GOLDEN_RANKS[entry["source"]][(cert["q"], cert["n"])]
        problems = oracle.check_certificate(cert, golden)
        if problems:
            raise ValueError(f"corpus certificate {entry['source']} q={cert['q']} "
                             f"n={cert['n']} rejected: {problems}")
    return corpus


def execute(req):
    """Run one request through ccma; returns the raw result to be checked."""
    from ccma import bilinear, codes, planner

    if req.command == "synth":
        src, q, n = req.key
        spec = planner.spec_for_q(q)
        if src == "curve":
            return planner.Planner(spec, strategies=("curve",)).synth(n)
        return planner.Planner(spec).synth(n)
    if req.command == "verify":
        return planner.verify_file_payload(req.payload)
    if req.command == "codes":
        alg = bilinear.BilinearAlgorithm.from_json(req.payload["algorithm"])
        return codes.code_from_decomposition(alg).min_distance()
    if req.command == "supercode":
        alg = bilinear.BilinearAlgorithm.from_json(req.payload["algorithm"])
        return codes.symmetric_from_supercode(codes.supercode_from_symmetric(alg))
    if req.command == "search":
        _, q, n = req.key
        target = bilinear.extension_target(planner.spec_for_q(q), n)
        return bilinear.brute_force_min_rank(
            target, SEARCH_MINIMA[(q, n)][0], symmetric_only=True,
            limit=SEARCH_GUARD_LIMIT)
    raise ValueError(f"unknown command {req.command!r}")


def check(req, result):
    """Oracle verdict on one result: (rank or None, list of problems).

    Runs outside the timed region.  The rank is the certified rank the
    request contributes to `rank_sum`.
    """
    src, q, n = req.key
    if req.command == "synth":
        golden = GOLDEN_RANKS[src][(q, n)]
        problems = oracle.check_certificate(result, golden)
        if result.get("q") != q or result.get("n") != n:
            problems.append(f"asked for q={q} n={n}, got q={result.get('q')} n={result.get('n')}")
        return result.get("rank"), problems
    if req.command == "verify":
        cert = req.payload
        problems = []
        if result.get("verified") is not True or result.get("failing_pair") is not None:
            problems.append("ccma verify rejected a certificate the oracle accepts")
        if result.get("rank") != cert["rank"] or result.get("rank_matches_claim") is not True:
            problems.append(f"verify reports rank {result.get('rank')}, certificate has {cert['rank']}")
        if result.get("symmetric") != cert["symmetric"] or result.get("q") != q:
            problems.append("verify report disagrees with the certificate")
        return cert["rank"], problems
    if req.command == "codes":
        # the code of a length-N decomposition of F_{q^n} has distance >= n;
        # at this commit every corpus code has distance exactly n
        problems = [] if result == n else [f"min distance {result}, golden {n}"]
        return None, problems
    if req.command == "supercode":
        # the round trip must give back a symmetric algorithm of the same rank;
        # its rank is already counted by the verify request
        _, problems = _check_witness(result.to_json(), req.payload["rank"])
        return None, problems
    if req.command == "search":
        golden = SEARCH_MINIMA[(q, n)][1]
        if result.rank is None:
            return None, [f"search found nothing up to rank {SEARCH_MINIMA[(q, n)][0]}"]
        rank, problems = _check_witness(result.algorithm.to_json(), golden)
        if result.rank != rank:
            problems.append(f"search reports rank {result.rank}, witness has {rank}")
        return rank, problems
    raise ValueError(f"unknown command {req.command!r}")


def _check_witness(payload, golden):
    """Oracle check of a bare algorithm that must be symmetric of rank `golden`."""
    try:
        _, _, N, A, B, _ = oracle.check_algorithm(payload)
    except oracle.Rejected as exc:
        return None, [str(exc)]
    problems = []
    if N != golden:
        problems.append(f"rank {N}, golden {golden}")
    if A != B:
        problems.append("expected a symmetric algorithm")
    return N, problems
