"""Benchmark for the wolstenholme package: fixed-size workloads, fresh processes.

    python3 perfbench/run.py --workload scans --seed 1 --seconds 60 --trace 0

Each repetition runs the workload's operations back to back in a fresh
Python child (``child.py``), so every lru_cache starts cold as it does for a
CLI invocation.  One caller, one thread, a closed loop: the next operation
starts when the previous one returns.  A new repetition starts only while
it is expected to end within ``--seconds`` (at least one runs); the run
reports medians over them and checks every output against
``reference.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced repetitions and prints the per-layer metrics of the
traced ones plus the tracing overhead.  The last stdout line is one JSON
object; a summary and the run metadata go to stderr and to
``.perfbench/<workload>.json`` under the checkout.  Only the resume cut
points of the resumed scans depend on the seed; all sizes are fixed.
See NOTES.md for why each workload exists and what it leaves out.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150
# import-only children before each repetition, so the setup_s samples are
# spread over the whole run like the repetitions they sit between
SETUP_PER_REP = 2


def _scan(name: str, cut: bool = False, **params) -> dict:
    return {"id": name, "kind": "scan", "scan": name, "params": params, "cut": cut}


def _suite(name: str) -> dict:
    return {"id": f"verify-{name}", "kind": "suite", "suite": name, "bound": None}


SUITES = ("equ", "rel", "form", "int", "fra", "form2", "form3", "form4", "ident",
          "bands", "wpoly")

WORKLOADS = {
    # the per-prime modular products (first four), then search's own
    # recurrence and checkpoint resume (last three, each stopped and resumed)
    "scans": [
        _scan("wilson", limit=20000),
        _scan("wilson-cube", limit=10000),
        _scan("wolstenholme-primes", limit=12000),
        _scan("pairs", p_max=100, q_max=3000),
        _scan("jones", cut=True, limit=10000),
        _scan("mod5", cut=True, limit=20000),
        _scan("new-conjecture", cut=True, p_max=2000, q_max=100000),
    ],
    "algebra-suites": [_suite(s) for s in SUITES] + [
        {"id": "cli-wpoly-151", "kind": "cli", "argv": ["wpoly", "151", "--out", "{out}"]},
    ],
}

# subjects each resumed scan walks: n = 2..limit, or the primes 5 <= p <= p_max
SUBJECTS = {"jones": 9999, "mod5": 19999, "new-conjecture": 301}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))


def _fn_metrics() -> list[tuple[str, str]]:
    calls_self = ("arith.factor_completely", "arith.primes_in", "arith.is_prime",
                  "arith.factorial_unit", "congruence.w_mod", "congruence.wilson_residue",
                  "congruence.wprime_exact", "symmetric.stirling_tables", "wpoly.construct_W")
    calls_total = ("arith.binomial_mod", "congruence.pair_criterion",
                   "search.checkpoint_save", "search.checkpoint_load")
    out = []
    for fn in calls_self:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    for fn in calls_total:
        out += [(f"{fn}.calls", "count"), (f"{fn}.total_s", "s")]
    out += [(f"{fn}.total_s", "s") for fn in (
        "congruence.divisor_product_check", "wpoly.verify_W",
        "wpoly.large_prime_divisor_check", "cli.main.wpoly")]
    out += [(f"{fn}.self_s", "s") for fn in (
        "symmetric.elem_sym_rows", "wpoly.trend_scan", "search.run_scan")]
    out += [("wpoly.poly_eval_mod.calls", "count"),
            ("congruence.w_exact.hits", "count"), ("congruence.w_exact.misses", "count")]
    scans = [op["scan"] for w in WORKLOADS.values() for op in w if op["kind"] == "scan"]
    out += [(f"search.run_scan.{s}.total_s", "s") for s in scans]
    out += [("search.run_scan.first_leg_s", "s"), ("search.run_scan.resume_leg_s", "s"),
            ("search.records", "count"), ("search.bytes_written", "bytes")]
    out += [(f"verify.run_suite.{s}.total_s", "s") for s in SUITES]
    out += [("verify.subjects", "count"), ("trace.overhead_s", "s")]
    return out


PER_LAYER = _fn_metrics()


def layer_values(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (trace.overhead_s excluded)."""
    totals, ops = rep["totals"], rep["ops"]
    scans = [o for o in ops if "leg_s" in o]
    hits, misses = rep["cache"]["w_exact"]
    values = {
        "search.run_scan.self_s": sum(
            v[2] for k, v in totals.items() if k.startswith("search.run_scan.")),
        "search.run_scan.first_leg_s": sum(o["leg_s"][0] for o in scans if len(o["leg_s"]) == 2),
        "search.run_scan.resume_leg_s": sum(o["leg_s"][1] for o in scans if len(o["leg_s"]) == 2),
        "search.records": sum(o["records"] for o in scans),
        "search.bytes_written": sum(o["bytes"] for o in scans),
        "verify.subjects": sum(o.get("subjects", 0) for o in ops if o["id"].startswith("verify-")),
        "congruence.w_exact.hits": hits,
        "congruence.w_exact.misses": misses,
    }
    field = {"calls": 0, "total_s": 1, "self_s": 2}
    for name, _ in PER_LAYER:
        if name not in values and name != "trace.overhead_s":
            fn, kind = name.rsplit(".", 1)
            values[name] = totals.get(fn, [0, 0.0, 0.0])[field[kind]]
    return values


def workload_ops(name: str, seed: int) -> list[dict]:
    """The workload's operations; the seed picks each resume cut at 85-95%."""
    rng = random.Random(seed)
    ops = []
    for op in WORKLOADS[name]:
        op = dict(op)
        if op.get("cut"):
            op["cut"] = int(SUBJECTS[op["scan"]] * rng.uniform(0.85, 0.95))
        ops.append(op)
    return ops


def run_child(ops: list[dict], trace: bool = False, spans_path: str | None = None) -> dict:
    """One repetition in a fresh interpreter; raises RuntimeError if it dies."""
    workdir = OUT_DIR / "work" / f"{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    spec = {"root": str(ROOT), "workdir": str(workdir), "ops": ops, "trace": trace,
            "spans_path": spans_path}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")], input=json.dumps(spec),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def check_ops(rep: dict, reference: dict, ops: list[dict]) -> list[str]:
    """Failure messages for one repetition: exceptions and outputs that differ
    from the uninterrupted reference."""
    problems = []
    for op, rec in zip(ops, rep["ops"]):
        ref = reference.get(op["id"])
        if "error" in rec:
            problems.append(f"{op['id']}: {rec['error']}")
        elif ref is None:
            problems.append(f"{op['id']}: no reference output")
        elif (rec["sha256"], rec["bytes"]) != (ref["sha256"], ref["bytes"]):
            problems.append(f"{op['id']}: output differs from reference")
        elif op.get("cut") and rec["subjects"] != SUBJECTS[op["scan"]]:
            problems.append(f"{op['id']}: {rec['subjects']} subjects after resume")
    if len(rep["ops"]) != len(ops):
        problems.append(f"{len(rep['ops'])} of {len(ops)} operations reported")
    return problems


def run_meta() -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "git_rev": rev, "loadavg_start": os.getloadavg()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wolstenholme" / "__init__.py").is_file():
        print(f"no wolstenholme sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return _measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1


def _measure(args) -> int:
    ops = workload_ops(args.workload, args.seed)
    meta = run_meta()
    reference = json.loads((HERE / "reference.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = str(OUT_DIR / f"{args.workload}.spans.jsonl")
    setup, plain, traced, problems = [], [], [], []
    start = time.perf_counter()
    longest = 0.0
    # start a repetition only if the longest one so far would still end
    # within --seconds, so a run lasts about --seconds whatever the workload
    while (not plain or (args.trace and not traced)
           or time.perf_counter() - start + longest <= args.seconds):
        trace = bool(args.trace) and len(traced) <= len(plain)
        t = time.perf_counter()
        setup += [run_child([])["setup_s"] for _ in range(SETUP_PER_REP)]
        rep = run_child(ops, trace=trace, spans_path=spans_path if trace else None)
        longest = max(longest, time.perf_counter() - t)
        (traced if trace else plain).append(rep)
        setup.append(rep["setup_s"])
        problems += check_ops(rep, reference, ops)
    meta["loadavg_end"] = os.getloadavg()

    reps = plain + traced
    attempted = len(ops) * len(reps)
    failed = len(problems)

    def med(key: str, group: list[dict]) -> float:
        return statistics.median(r[key] for r in group)

    if args.trace:
        per_rep = [layer_values(r) for r in traced]
        values = {name: statistics.median(v[name] for v in per_rep)
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", plain)
        units = dict(PER_LAYER)
    else:
        values = {key: med(key, plain) for key, _ in END_TO_END if key != "setup_s"}
        values["setup_s"] = statistics.median(setup)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": meta,
        "cuts": {op["id"]: op["cut"] for op in ops if op.get("cut")},
        "samples": {"reps": len(plain), "traced_reps": len(traced), "setup": len(setup)},
        "wall_s": [r["wall_s"] for r in plain], "traced_wall_s": [r["wall_s"] for r in traced],
        "cpu_s": [r["cpu_s"] for r in plain], "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": setup, "op_wall_s": {o["id"]: [r["ops"][i]["wall_s"] for r in reps]
                                         for i, o in enumerate(ops)},
        "ops_failed_frac": failed / attempted, "problems": problems,
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed} reps={len(plain)} traced={len(traced)} "
          f"setup_samples={len(setup)} ops_failed_frac={failed / attempted:.3f} "
          f"python={meta['python']} nproc={meta['nproc']} rev={meta['git_rev'][:12]} "
          f"load={meta['loadavg_start'][0]:.2f}->{meta['loadavg_end'][0]:.2f}",
          file=sys.stderr)
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
