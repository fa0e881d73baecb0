"""Command-line interface.

Data records go to stdout (or --out); diagnostics and timing go to stderr,
so record streams pipe cleanly.  Identical invocations produce identical
output bytes.

Exit codes: 0 success, 1 a mathematical expectation was violated (or
`report` found a damaged stream), 2 usage or configuration error.
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
from .search import _FORMATS, _SCANS, max_ratio_report, run_scan, scan_names
from .verify import _ALIASES, default_bound, run_suite, suite_names
from .wpoly import construct_W, verify_W

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    p_scan.add_argument("--format", choices=_FORMATS, default="jsonl")
    p_scan.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p_scan.add_argument("--checkpoint-interval", type=_positive_int, default=1000)

    p_wpoly = sub.add_parser("wpoly", help="construct and export W for a prime")
    p_wpoly.add_argument("p", type=int)
    p_wpoly.add_argument("--out", help="write the JSON document to this file")

    p_classify = sub.add_parser("classify", help="factor-band classification for a prime")
    p_classify.add_argument("p", type=int)
    p_classify.add_argument("--out")

    p_report = sub.add_parser("report", help="summarize a record stream")
    p_report.add_argument("file", nargs="?", help="records file (stdin when omitted)")
    p_report.add_argument("--format", choices=_FORMATS, default="jsonl")
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
    if resuming and args.out is None:
        # a resume reads back and truncates its output, which stdout cannot do
        print(
            f"usage error: checkpoint {args.checkpoint} exists; resuming needs "
            "--out (the file the first run wrote)",
            file=sys.stderr,
        )
        return 2
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
    # exact values computed here, not parsed input, may pass CPython's digit cap
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
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
    finally:
        sys.set_int_max_str_digits(old_limit)
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


def _parse_row(row: dict) -> dict:
    """Check one record's fields; raise ValueError when it is malformed."""
    subject = row["subject"]
    parts = subject if isinstance(subject, list) else [subject]
    if not (
        isinstance(row["scan"], str)
        and isinstance(row["verdict"], str)
        and isinstance(row["params_hash"], str)
        and isinstance(row["witness"], dict)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in parts)
    ):
        raise ValueError("malformed record")
    row["subject_key"] = tuple(parts)
    return row


def _parse_line(line: str) -> dict | None:
    if not line.isascii():
        return None
    try:
        return _parse_row(json.loads(line))
    except (ValueError, KeyError, TypeError):
        return None


def _parse_csv_row(row: dict) -> dict | None:
    # extra fields (a list under key None), a missing one (None), non-ASCII
    if not all(isinstance(v, str) and v.isascii() for v in row.values()):
        return None
    try:
        row["witness"] = json.loads(row["witness"])
        row["subject"] = json.loads(row["subject"])
        return _parse_row(row)
    except (ValueError, KeyError, TypeError):
        return None


def _iter_report_rows(fh, fmt: str):
    """Yield each record as a dict, or None for a line that does not parse."""
    if fmt == "jsonl":
        for line in fh:
            if line.strip():
                yield _parse_line(line)
    else:
        import csv

        try:
            for row in csv.DictReader(fh):
                yield _parse_csv_row(row)
        except csv.Error:  # a torn quote makes the rest of the file one huge field
            yield None


class _Damage:
    """Counts what an intact stream never holds: unparseable lines, a record
    at or before one already seen in its scan, and mixed params hashes."""

    def __init__(self):
        self.unparseable = self.out_of_order = 0
        self.hashes: dict[str, set[str]] = {}
        self.front: dict[str, tuple] = {}  # scan -> (max subject, records seen there)

    def add(self, row: dict | None) -> None:
        if row is None:
            self.unparseable += 1
            return
        scan, subject = row["scan"], row["subject_key"]
        self.hashes.setdefault(scan, set()).add(row["params_hash"])
        # several records may share a subject (one per q in new-conjecture),
        # so a repeat is the same subject with the same witness
        key = json.dumps(row["witness"], sort_keys=True)
        top, keys = self.front.get(scan, (None, set()))
        if top is None or subject > top:
            self.front[scan] = (subject, {key})
        elif subject < top or key in keys:
            self.out_of_order += 1
        else:
            keys.add(key)

    def summary(self) -> dict:
        mixed = sorted(s for s, hs in self.hashes.items() if len(hs) > 1)
        return {
            "unparseable_lines": self.unparseable,
            "repeated_or_backwards_subjects": self.out_of_order,
            "scans_with_mixed_params_hash": mixed,
        }


def _cmd_report(args) -> int:
    # records are ASCII: decode any other byte to a lone surrogate rather than
    # raise, so the line holding it counts as unparseable
    text = {"encoding": "ascii", "errors": "surrogateescape"}
    try:
        if args.file:
            fh = open(args.file, **text)
        else:
            fh = sys.stdin
            if hasattr(fh, "reconfigure"):
                fh.reconfigure(**text)
    except OSError as exc:
        print(f"usage error: cannot read {args.file}: {exc.strerror}", file=sys.stderr)
        return 2
    damage = _Damage()
    try:
        by_scan: dict[str, dict[str, int]] = {}
        nc_hits = []
        total = fails = 0
        for row in _iter_report_rows(fh, args.format):
            damage.add(row)
            if row is None:
                continue
            total += 1
            scan = row["scan"]
            verdict = row["verdict"]
            by_scan.setdefault(scan, {})[verdict] = (
                by_scan.setdefault(scan, {}).get(verdict, 0) + 1
            )
            fails += verdict == "fail"
            if scan == "new-conjecture" and verdict == "hit" and "q" in row["witness"]:
                nc_hits.append((row["subject_key"][0], int(row["witness"]["q"])))
    finally:
        if args.file:
            fh.close()
    damaged = damage.summary()
    summary: dict = {"records": total, "by_scan": by_scan, "damage": damaged}
    if nc_hits:
        from fractions import Fraction

        best = max(Fraction(q, p) for p, q in nc_hits)
        summary["new_conjecture"] = {
            "hits": len(nc_hits),
            "max_q_over_p": str(best),
        }
    print(json.dumps(summary, sort_keys=True))
    for kind, found in damaged.items():
        if found:
            print(f"damaged stream: {kind}: {found}", file=sys.stderr)
    return 1 if fails or any(damaged.values()) else 0


_COMMANDS = {
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "wpoly": _cmd_wpoly,
    "classify": _cmd_classify,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        # the files a command writes: --out, and --checkpoint at each save
        if exc.filename is None:
            raise
        print(f"usage error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
