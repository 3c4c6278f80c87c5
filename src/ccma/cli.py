"""Command-line front end.

Exit codes: 0 success/match, 1 usage error, 2 verification or table
mismatch, 3 resource guard exceeded.
"""

import argparse
import csv
import io
import json
import sys

from .bilinear import (
    BilinearAlgorithm,
    brute_force_min_rank,
    check_search_space,
    extension_target,
)
from .bounds import table_report
from .codes import code_from_decomposition, supercode_from_symmetric
from .errors import CcmaError, GuardExceeded, InvalidRequest
from .guard import guard_limit
from .planner import Planner, spec_for_q, verify_file_payload

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_GUARD = 3


class _Parser(argparse.ArgumentParser):
    """Raises InvalidRequest where argparse would print usage and exit 2."""

    def error(self, message):
        raise InvalidRequest(message)


def build_parser():
    parser = _Parser(
        prog="ccma",
        description="Synthesize and verify bilinear multiplication algorithms "
        "for finite-field extensions.",
    )
    sub = parser.add_subparsers(dest="command")

    p_synth = sub.add_parser("synth", help="synthesize an algorithm for F_{q^n}/F_q")
    p_synth.add_argument("--q", type=int, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument(
        "--strategies",
        default="tower,g0,curve",
        help="comma list among tower,g0,curve",
    )
    p_synth.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="re-verify a stored algorithm file")
    p_verify.add_argument("file")

    p_bounds = sub.add_parser("bounds", help="emit a golden table report")
    p_bounds.add_argument(
        "--table",
        required=True,
        choices=("table1", "table2", "table3", "csym", "msym", "m"),
    )
    p_bounds.add_argument("--csv", action="store_true")
    p_bounds.add_argument("--achieved", action="store_true",
                          help="table2: compare against synthesized ranks")
    p_bounds.add_argument("--n-max", type=int, default=6)
    p_bounds.add_argument("--out", default=None)

    p_codes = sub.add_parser("codes", help="extract the code of a decomposition")
    p_codes.add_argument("--from", dest="source", required=True)
    p_codes.add_argument("--supercode", action="store_true")
    p_codes.add_argument("--out", default=None)

    p_search = sub.add_parser("search", help="brute-force minimum rank")
    p_search.add_argument("--q", type=int, required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--max-rank", type=int, required=True)
    p_search.add_argument("--symmetric", action="store_true")
    return parser


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_synth(args):
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    spec = spec_for_q(args.q)
    cert = Planner(spec, strategies=strategies).synth(args.n)
    text = json.dumps(cert, indent=2) + "\n"
    _emit(text, args.out)
    if args.out:
        print(
            f"synthesized rank {cert['rank']} for F_{args.q}^{args.n}"
            f" via {cert['strategy']['kind']}"
        )
    return EXIT_OK


def cmd_verify(args):
    with open(args.file) as fh:
        data = json.load(fh)
    report = verify_file_payload(data)
    if not report["verified"]:
        print(f"FAILED at basis pair {report['failing_pair']}")
        return EXIT_MISMATCH
    if report.get("claims_disagree"):
        print("MISMATCH: the algorithm verifies, but the certificate claims " + ", ".join(
            f"{key}={data[key]!r} (algorithm: {report[key]!r})"
            for key in report["claims_disagree"]))
        return EXIT_MISMATCH
    sym = "symmetric" if report["symmetric"] else "asymmetric"
    lower = report["winograd_lower"]
    extra = f", lower bound {lower}" if lower else ""
    print(f"VERIFIED rank {report['rank']}, {sym}{extra}")
    return EXIT_OK


def cmd_bounds(args):
    planner_fn = None
    if args.achieved and args.table == "table2":
        def planner_fn(q, n):
            return Planner(spec_for_q(q)).synth(n)

    rows = table_report(args.table, planner=planner_fn, n_max=args.n_max)
    if args.csv:
        buf = io.StringIO()
        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in keys})
        _emit(buf.getvalue(), args.out)
    else:
        _emit(json.dumps(rows, indent=2, default=str) + "\n", args.out)
    bad = [
        r for r in rows
        if r.get("matches_paper") is False or r.get("status") in ("not reproduced", "infeasible")
    ]
    return EXIT_MISMATCH if bad else EXIT_OK


def cmd_codes(args):
    with open(args.source) as fh:
        data = json.load(fh)
    payload = data.get("algorithm", data) if isinstance(data, dict) else data
    alg = BilinearAlgorithm.from_json(payload)
    if args.supercode:
        sc = supercode_from_symmetric(alg)
        _emit(json.dumps(sc.to_json(), indent=2) + "\n", args.out)
        return EXIT_OK
    code = code_from_decomposition(alg)
    out = code.to_json()
    if code.spec.q ** code.n <= guard_limit():
        out["min_distance"] = code.min_distance()
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_search(args):
    spec = spec_for_q(args.q)
    # before the target: finding its modulus alone takes long for a large n
    check_search_space(spec, args.n, args.max_rank, args.symmetric)
    target = extension_target(spec, args.n)
    outcome = brute_force_min_rank(target, args.max_rank, symmetric_only=args.symmetric)
    if outcome.exceeded:
        print(f"exceeds max rank {args.max_rank}")
        return EXIT_OK
    print(f"minimum rank {outcome.rank}")
    print(json.dumps(outcome.algorithm.to_json(), indent=2))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        for name in ("n", "max_rank", "n_max"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                flag = "--" + name.replace("_", "-")
                raise InvalidRequest(f"{flag} must be at least 1, got {value}")
        guard_limit()
        handler = {
            "synth": cmd_synth,
            "verify": cmd_verify,
            "bounds": cmd_bounds,
            "codes": cmd_codes,
            "search": cmd_search,
        }[args.command]
        return handler(args)
    except (InvalidRequest, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except CcmaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
