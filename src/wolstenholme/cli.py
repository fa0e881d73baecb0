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
import os
import sys
import time
from contextlib import nullcontext

from .arith import is_prime
from .congruence import factor_band_classify
from .errors import AssertionFailure, CheckpointError
from .search import _FORMATS, _SCANS, check_stream, run_scan, scan_names
from .verify import _ALIASES, default_bound, run_suite, suite_names
from .wpoly import construct_W, poly_eval, verify_W

__all__ = ["main"]


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
    for flag in ("--limit", "--p-max", "--q-max"):  # dest limit, p_max, q_max
        p_scan.add_argument(flag, type=int)
    p_scan.add_argument("--known", action="store_true", help="pairs: check the published pairs")
    p_scan.add_argument(
        "--stretch", action="store_true", help="pairs --known: add the third published pair"
    )
    p_scan.add_argument("--out", help="write records to this file instead of stdout")
    p_scan.add_argument("--format", choices=_FORMATS, default="jsonl")
    p_scan.add_argument("--checkpoint", help="checkpoint file for resumable runs")

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


class _Usage(Exception):
    pass


def _open_out(path: str | None, append: bool = False):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "a" if append else "w")


def _open_in(path: str | None):
    # records are ASCII: decode any other byte to a lone surrogate rather than
    # raise, so the line holding it counts as unparseable
    text = {"encoding": "ascii", "errors": "surrogateescape"}
    if not path:
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(**text)
        return nullcontext(sys.stdin)
    try:
        return open(path, **text)
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}") from exc


def _cmd_verify(args) -> int:
    bound = args.bound if args.bound is not None else default_bound(args.suite)
    t0 = time.perf_counter()
    checked = violations = 0
    try:
        results = run_suite(args.suite, bound)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc
    for res in results:
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


def _flags(names) -> str:
    return " and ".join("--" + k.replace("_", "-") for k in names)


def _scan_params(args) -> dict:
    sd = _SCANS[args.scan]
    # a flag not given reads None (a number) or False (a switch)
    params = {
        k: v for k in ("limit", "p_max", "q_max", "known", "stretch")
        if (v := getattr(args, k)) is not None and v is not False
    }
    if sd.known and args.known:
        params["stretch"] = args.stretch  # the published form names it, given or not
    try:
        missing, unread = sd.check(params)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc
    if unread:
        raise _Usage(f"scan {args.scan} does not take {_flags(unread)}")
    if missing:
        either = "--known or " if sd.known else ""
        raise _Usage(f"scan {args.scan} requires {either}{_flags(sd.required)}")
    return params


def _cmd_scan(args) -> int:
    params = _scan_params(args)
    resuming = bool(args.checkpoint and os.path.exists(args.checkpoint))
    if resuming and args.out is None:
        # a resume reads back and truncates its output, which stdout cannot do
        raise _Usage(
            f"checkpoint {args.checkpoint} exists; resuming needs "
            "--out (the file the first run wrote)"
        )
    t0 = time.perf_counter()
    with _open_out(args.out, append=resuming) as sink:
        summary = run_scan(
            args.scan,
            params,
            sink,
            fmt=args.format,
            checkpoint_path=args.checkpoint,
        )
    dt = time.perf_counter() - t0
    print(
        f"scan {summary.scan}: {summary.subjects} subjects, {summary.records} records, "
        f"{summary.hits} hits, {summary.fails} fails in {dt:.1f}s",
        file=sys.stderr,
    )
    if args.scan == "new-conjecture":
        print(f"ratio report: {summary.ratio_report}", file=sys.stderr)
    return 1 if summary.fails else 0


def _require_prime(args) -> None:
    if args.p < 5 or not is_prime(args.p):
        raise _Usage(f"{args.command} requires a prime p >= 5, got {args.p}")


def _cmd_wpoly(args) -> int:
    _require_prime(args)
    w_poly = construct_W(args.p)
    verify_W(args.p, w_poly)
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
            f"verify_W({args.p}): degree={w_poly.degree} leading={w_poly.coeffs[-1]} "
            f"a0={w_poly.coeff(0)} W({args.p})={poly_eval(w_poly, args.p)}",
            file=sys.stderr,
        )
    finally:
        sys.set_int_max_str_digits(old_limit)
    return 0


def _cmd_classify(args) -> int:
    _require_prime(args)
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


def _cmd_report(args) -> int:
    with _open_in(args.file) as fh:
        summary = check_stream(fh, args.format)
    print(json.dumps(summary, sort_keys=True))
    damage = summary["damage"]
    for kind, found in damage.items():
        if found:
            print(f"damaged stream: {kind}: {found}", file=sys.stderr)
    fails = any(counts.get("fail") for counts in summary["by_scan"].values())
    return 1 if fails or any(damage.values()) else 0


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
    except _Usage as exc:
        message = f"usage error: {exc}"
    except CheckpointError as exc:
        message = f"checkpoint error: {exc}"
    except OSError as exc:
        # the files a command writes: --out, and --checkpoint at each save
        if exc.filename is None:
            raise
        message = f"usage error: cannot write {exc.filename}: {exc.strerror}"
    except AssertionFailure as exc:  # a false claim, as wpoly's verify_W finds
        print(f"claim failed: {exc}", file=sys.stderr)
        return 1
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
