"""Regenerate the certificate corpus of the `certificate_check` workload.

Synthesises every request of `table2_grid`, `large_extension` and
`curve_instances` in canonical order and stores the certificates, each
checked by the oracle, in `corpus/certificates.json`.  The stored corpus
was produced by this script at the commit that introduced the benchmark;
rerunning it on a later commit may give different (better) algorithms.

    python3 bench/make_corpus.py
"""

import json
import os

import workloads

SOURCES = {"table2_grid": "grid", "large_extension": "large",
           "curve_instances": "curve"}


def main():
    workloads.import_ccma()
    corpus = []
    for workload, source in SOURCES.items():
        for req in workloads.requests(workload, seed=0):
            cert = workloads.execute(req)
            rank, problems = workloads.check(req, cert)
            if problems:
                raise SystemExit(f"{req.label}: {problems}")
            corpus.append({"source": source, "certificate": cert})
            print(f"{req.label}: rank {rank}")
    os.makedirs(os.path.dirname(workloads.CORPUS_PATH), exist_ok=True)
    with open(workloads.CORPUS_PATH, "w") as fh:
        json.dump(corpus, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
