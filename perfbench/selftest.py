"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that tracing does not change any output byte, that a resumed scan
reproduces the uninterrupted stream, that every wolstenholme binding is the
original object again after a traced run, that a wrong reference digest is
counted as a failure, that the seed moves the cut points only within
85-95%, and that BENCHMARK.json names exactly the metrics run.py prints.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import io
import json
import sys

import run
from tracer import Tracer

TINY = [
    run._scan("wilson", limit=300),
    run._scan("wilson-cube", limit=100),
    run._scan("wolstenholme-primes", limit=200),
    run._scan("pairs", p_max=30, q_max=300),
    run._scan("jones", limit=300),
    run._scan("mod5", limit=300),
    run._scan("new-conjecture", p_max=60, q_max=1000),
] + [
    {**run._suite(s), "bound": b}
    for s, b in (("equ", 50), ("rel", 50), ("form", 30), ("int", 30), ("fra", 30),
                 ("form2", 20), ("form3", 10), ("form4", 13), ("ident", 20),
                 ("bands", 50), ("wpoly", 13))
] + [{"id": "cli-wpoly-13", "kind": "cli", "argv": ["wpoly", "13", "--out", "{out}"]}]

# cut points of the resumed copies: jones and mod5 walk the 299 subjects
# n = 2..300, new-conjecture the 15 primes 5..59
TINY_CUTS = {"jones": 297, "mod5": 200, "new-conjecture": 13}


def check(cond: bool, msg: str) -> None:
    if not cond:
        print(f"selftest FAILED: {msg}", file=sys.stderr)
        raise SystemExit(1)


def outputs(rep: dict) -> dict:
    check(all("error" not in r for r in rep["ops"]), f"operation raised: {rep['ops']}")
    return {r["id"]: (r["sha256"], r["bytes"]) for r in rep["ops"]}


def test_trace_and_resume_keep_bytes() -> None:
    plain = outputs(run.run_child(TINY))
    check(len(plain) == len(TINY), "not every operation reported")
    traced_rep = run.run_child(TINY, trace=True)
    check(outputs(traced_rep) == plain, "tracing changed an output")
    check(traced_rep["totals"]["arith.is_prime"][0] > 0, "tracer counted no is_prime calls")
    cut = [dict(op, cut=TINY_CUTS[op["id"]]) for op in TINY if op["id"] in TINY_CUTS]
    for trace in (False, True):
        resumed = outputs(run.run_child(cut, trace=trace))
        for op_id, out in resumed.items():
            check(out == plain[op_id], f"resumed {op_id} differs (trace={trace})")


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "wolstenholme" or name.startswith("wolstenholme.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_bindings_restored() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import wolstenholme.cli
    from wolstenholme import congruence, search

    before = _bindings()
    original = congruence.factor_completely
    tracer = Tracer()
    tracer.install()
    try:
        check(congruence.factor_completely is not original, "install replaced nothing")
        check(wolstenholme.cli.run_scan is search.run_scan, "cli binding not replaced")
        search.run_scan("jones", {"limit": 200}, io.StringIO())
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not changed, f"bindings not restored: {changed}")
    check(tracer.totals["search.run_scan.jones"][0] == 1, "run_scan call not traced")


def test_wrong_reference_counts_as_failure() -> None:
    ops = [run._scan("wilson", limit=300)]
    rep = run.run_child(ops)
    good = {"wilson": {"sha256": rep["ops"][0]["sha256"], "bytes": rep["ops"][0]["bytes"]}}
    check(run.check_ops(rep, good, ops) == [], "correct output counted as failure")
    bad = {"wilson": dict(good["wilson"], sha256="0" * 64)}
    check(len(run.check_ops(rep, bad, ops)) == 1, "wrong digest not counted")


def test_seed_picks_cuts() -> None:
    cuts = {}
    for seed in (1, 2):
        for op in run.workload_ops("scans", seed):
            if not op["cut"]:
                continue
            n = run.SUBJECTS[op["scan"]]
            check(0.85 * n <= op["cut"] <= 0.95 * n, f"cut {op['cut']} out of range")
            cuts.setdefault(seed, []).append(op["cut"])
    check(cuts[1] != cuts[2], "seed does not move the cut points")
    check(run.workload_ops("scans", 1) == run.workload_ops("scans", 1),
          "same seed gave different inputs")


def test_benchmark_json_matches() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
          "end_to_end names differ from run.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
          "per_layer names or units differ from run.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "workload names differ from run.py")


def main() -> int:
    for test in (test_trace_and_resume_keep_bytes, test_bindings_restored,
                 test_wrong_reference_counts_as_failure, test_seed_picks_cuts,
                 test_benchmark_json_matches):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
