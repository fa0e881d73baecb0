"""Command-line interface.

Data records go to stdout (or --out); diagnostics and timing go to stderr,
so record streams pipe cleanly.  Identical invocations produce identical
output bytes.

Exit codes: 0 success, 1 a mathematical expectation was violated,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

from .arith import is_prime
from .congruence import factor_band_classify
from .errors import CheckpointError
from .search import _SCANS, max_ratio_report, run_scan, scan_names
from .verify import _ALIASES, default_bound, run_suite, suite_names
from .wpoly import construct_W, verify_W


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolstenholme",
        description="Exact verification and search for Wilson/Wolstenholme-type congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named identity/property suite")
    p_verify.add_argument("suite", choices=sorted([*suite_names(), *_ALIASES]))
    p_verify.add_argument("--bound", type=int, default=None, help="suite-specific upper bound")

    p_scan = sub.add_parser("scan", help="run a search scan emitting records")
    p_scan.add_argument("scan", choices=scan_names())
    p_scan.add_argument("--limit", type=int)
    p_scan.add_argument("--p-max", type=int, dest="p_max")
    p_scan.add_argument("--q-max", type=int, dest="q_max")
    p_scan.add_argument("--known", action="store_true", help="pairs: check the published pairs")
    p_scan.add_argument("--stretch", action="store_true", help="include long-running stretch subjects")
    p_scan.add_argument("--out", help="write records to this file instead of stdout")
    p_scan.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_scan.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p_scan.add_argument("--checkpoint-interval", type=int, default=1000)

    p_wpoly = sub.add_parser("wpoly", help="construct and export W for a prime")
    p_wpoly.add_argument("p", type=int)
    p_wpoly.add_argument("--out", help="write the JSON document to this file")

    p_classify = sub.add_parser("classify", help="factor-band classification for a prime")
    p_classify.add_argument("p", type=int)
    p_classify.add_argument("--out")

    p_report = sub.add_parser("report", help="summarize a record stream")
    p_report.add_argument("file", nargs="?", help="records file (stdin when omitted)")
    p_report.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    return parser


def _open_out(path: str | None, append: bool = False):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "a" if append else "w")


def _cmd_verify(args) -> int:
    bound = args.bound if args.bound is not None else default_bound(args.suite)
    t0 = time.perf_counter()
    checked = violations = 0
    for res in run_suite(args.suite, bound):
        checked += 1
        if not res.ok:
            violations += 1
            line = {"suite": res.suite, "subject": res.subject, "detail": res.detail}
            print(json.dumps(line, separators=(",", ":")))
    dt = time.perf_counter() - t0
    print(
        f"verify {args.suite} --bound {bound}: {checked} subjects, "
        f"{violations} violations in {dt:.1f}s",
        file=sys.stderr,
    )
    return 1 if violations else 0


class _Usage(Exception):
    pass


def _scan_params(args) -> dict:
    sd = _SCANS[args.scan]
    if sd.known and args.known:
        return {"known": True, "stretch": args.stretch}
    params = {k: getattr(args, k) for k in sd.required}
    if sd.missing(params):
        flags = " and ".join("--" + k.replace("_", "-") for k in sd.required)
        either = "--known or " if sd.known else ""
        raise _Usage(f"scan {args.scan} requires {either}{flags}")
    return params


def _cmd_scan(args) -> int:
    import os

    try:
        params = _scan_params(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    resuming = bool(args.checkpoint and os.path.exists(args.checkpoint))
    hits: list = []
    observer = hits.append if args.scan == "new-conjecture" else None
    t0 = time.perf_counter()
    try:
        with _open_out(args.out, append=resuming) as sink:
            summary = run_scan(
                args.scan,
                params,
                sink,
                fmt=args.format,
                checkpoint_path=args.checkpoint,
                checkpoint_interval=args.checkpoint_interval,
                observer=observer,
            )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    dt = time.perf_counter() - t0
    print(
        f"scan {summary.scan}: {summary.subjects} subjects, {summary.records} records, "
        f"{summary.hits} hits, {summary.fails} fails in {dt:.1f}s",
        file=sys.stderr,
    )
    if args.scan == "new-conjecture":
        print(f"ratio report: {max_ratio_report(hits)}", file=sys.stderr)
    return 1 if summary.fails else 0


def _cmd_wpoly(args) -> int:
    if args.p < 5 or not is_prime(args.p):
        print(f"wpoly requires a prime p >= 5, got {args.p}", file=sys.stderr)
        return 2
    w_poly = construct_W(args.p)
    report = verify_W(args.p, w_poly)
    doc = {
        "p": args.p,
        "coeffs_ascending": [str(c) for c in w_poly.coeffs],
    }
    with _open_out(args.out) as sink:
        sink.write(json.dumps(doc, separators=(",", ":")) + "\n")
    print(
        f"verify_W({args.p}): degree={report.degree} leading={report.leading} "
        f"a0={report.a0} W({args.p})={report.w_at_p}",
        file=sys.stderr,
    )
    return 0


def _cmd_classify(args) -> int:
    if args.p < 5 or not is_prime(args.p):
        print(f"classify requires a prime p >= 5, got {args.p}", file=sys.stderr)
        return 2
    bands = factor_band_classify(args.p)
    mismatches = 0
    with _open_out(args.out) as sink:
        for b in bands:
            mismatches += b.predicted_divides != b.actual_divides
            line = {
                "p": b.p,
                "band": b.band,
                "q": b.q,
                "interval": [str(b.interval[0]), str(b.interval[1])],
                "predicted_divides": b.predicted_divides,
                "actual_divides": b.actual_divides,
            }
            sink.write(json.dumps(line, separators=(",", ":")) + "\n")
    print(
        f"classify {args.p}: {len(bands)} bands, {mismatches} mismatches",
        file=sys.stderr,
    )
    return 1 if mismatches else 0


def _iter_report_rows(fh, fmt: str):
    if fmt == "jsonl":
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
    else:
        import csv

        for row in csv.DictReader(fh):
            row["witness"] = json.loads(row["witness"])
            yield row


def _cmd_report(args) -> int:
    fh = open(args.file) if args.file else sys.stdin
    try:
        by_scan: dict[str, dict[str, int]] = {}
        nc_hits = []
        total = fails = 0
        for row in _iter_report_rows(fh, args.format):
            total += 1
            scan = row["scan"]
            verdict = row["verdict"]
            by_scan.setdefault(scan, {})[verdict] = (
                by_scan.setdefault(scan, {}).get(verdict, 0) + 1
            )
            fails += verdict == "fail"
            if scan == "new-conjecture" and "q" in row.get("witness", {}):
                nc_hits.append((int(row["subject"]), int(row["witness"]["q"])))
    finally:
        if args.file:
            fh.close()
    summary: dict = {"records": total, "by_scan": by_scan}
    if nc_hits:
        from fractions import Fraction

        best = max(Fraction(q, p) for p, q in nc_hits)
        summary["new_conjecture"] = {
            "hits": len(nc_hits),
            "max_q_over_p": str(best),
        }
    print(json.dumps(summary, sort_keys=True))
    return 1 if fails else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "wpoly":
        return _cmd_wpoly(args)
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "report":
        return _cmd_report(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
