"""Scale checks: inputs far above the reference sizes stay within a memory
bound, and long scans resume byte-identically.  Each memory check runs in
a fresh interpreter and reads its peak RSS from VmHWM, the high-water mark
of its own address space: Linux carries ru_maxrss across fork and exec, so
that would count the test runner too."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import wolstenholme
from wolstenholme import search, verify
from wolstenholme.search import checkpoint_load, run_scan
from wolstenholme.wpoly import construct_W

SRC = Path(wolstenholme.__file__).resolve().parents[1]

_PEAK_RSS = """
import json, os
from wolstenholme.arith import binomial_mod, primes_in
from wolstenholme.cli import main

ps = list(primes_in(2**17 - 4096, 2**17))[-64:]
assert len(ps) == 64 and ps[-1] < 2**17
# C(4p+1, 2p) mod p, at 64 distinct prime moduli near 2^17
residues = [binomial_mod(4 * p + 1, 2 * p, p).value for p in ps]
code = main(["classify", "65537", "--out", os.devnull])
result = {"residues": residues, "code": code}
"""

_WILSON_100000 = """
import sys
from wolstenholme.cli import main

result = {"code": main(["scan", "wilson", "--limit", "100000", "--out", sys.argv[1]])}
"""

_SIEVE_CACHE = """
import math
from wolstenholme.arith import _PRIMES, factor_completely, primes_in

# each p^2 for a prime p takes the primes up to p as its trial divisors: the
# ten largest p below 10^6, all read from the one prime table
ns = list(primes_in(10**6 - 200, 10**6))[-10:]
factored = [math.prod(q**a for q, a in factor_completely(n * n).items()) for n in ns]
result = {
    "factored": factored == [n * n for n in ns],
    "table": len(_PRIMES) == len(set(_PRIMES)) == 78498 and _PRIMES[-1] < 10**6,
    "primes": sum(1 for _ in primes_in(10**12, 10**12 + 3 * 2**16)),
}
"""

_VERIFY_IDENT = """
from wolstenholme.cli import main

result = {"code": main(["verify", "ident"])}  # a violation would print to stdout
"""

_REPORT_NEW_CONJECTURE = """
from wolstenholme.search import check_stream

# 100000 new-conjecture hits, made as they are read, so that only what
# check_stream keeps of them counts
lines = (
    '{"scan":"new-conjecture","subject":%d,"witness":{"q":"%d"},'
    '"verdict":"hit","params_hash":"0123456789abcdef"}\\n' % (p, (p - 1) // 3)
    for p in range(5, 100005)
)
result = check_stream(lines, "jsonl")
"""

# appended to each script: print its result with its own peak RSS
_REPORT = """
import json
with open("/proc/self/status") as fh:
    peak_kib = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
print(json.dumps({**result, "peak_kib": peak_kib}))
"""

needs_vmhwm = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM (Linux)"
)


def _fresh(script: str, *argv: str) -> dict:
    """Run script in a fresh interpreter; its result and peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r = subprocess.run(
        [sys.executable, "-c", script + _REPORT, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


@needs_vmhwm
def test_many_large_moduli_then_classify_65537_under_64_mib():
    out = _fresh(_PEAK_RSS)
    # Lucas: C(4p+1, 2p) = C(4, 2) * C(1, 0) = 6 (mod p)
    assert out["residues"] == [6] * 64
    assert out["code"] == 0
    assert out["peak_kib"] < 64 * 1024, out["peak_kib"]


@needs_vmhwm
def test_wilson_100000_under_64_mib(tmp_path):
    # (p-1)! mod p^2 at all 9592 primes from one remainder tree
    path = tmp_path / "wilson.jsonl"
    out = _fresh(_WILSON_100000, str(path))
    assert out["code"] == 0
    assert [json.loads(l)["subject"] for l in path.read_text().splitlines()] == [5, 13, 563]
    assert out["peak_kib"] < 64 * 1024, out["peak_kib"]


@needs_vmhwm
def test_full_sieve_cache_then_far_window_under_64_mib():
    out = _fresh(_SIEVE_CACHE)
    assert out["factored"] and out["table"]  # the 78498 primes < 10^6, once each
    assert out["primes"] == 7108
    assert out["peak_kib"] < 32 * 1024, out["peak_kib"]


@needs_vmhwm
def test_report_new_conjecture_100000_under_32_mib():
    # check_stream keeps the best q/p as the hits pass, not the hits
    out = _fresh(_REPORT_NEW_CONJECTURE)
    assert out["new_conjecture"] == {"hits": 100000, "max_q_over_p": "33334/100003"}
    assert out["damage"]["unparseable_lines"] == 0
    assert out["peak_kib"] < 32 * 1024, out["peak_kib"]


@needs_vmhwm
def test_verify_ident_under_40_mib():
    # ident streams the second-kind diagonals, one working row of 201 entries
    out = _fresh(_VERIFY_IDENT)
    assert out["code"] == 0
    assert out["peak_kib"] < 40 * 1024, out["peak_kib"]


def _traced_peak_mib(fn):
    """Peak of the memory Python allocates while fn runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_ident_suite_traced_peak_under_1_mib():
    # one working row of 201 diagonal entries; the triangle to row 400 that
    # ident read before peaked at 12.2 MiB
    results = []
    peak = _traced_peak_mib(lambda: results.extend(verify.run_suite("ident")))
    assert len(results) == 200 and all(r.ok for r in results)
    assert peak < 1, peak


def test_construct_W_151_traced_peak_under_2_mib():
    # the diagonals up to k = 149; the triangle to row 298 peaked at 5.6 MiB
    w_poly = []
    peak = _traced_peak_mib(lambda: w_poly.append(construct_W(151)))
    assert w_poly[0].degree == 2 * 151 - 7
    assert peak < 2, peak


@pytest.mark.parametrize("name, limit", [("jones", 10000), ("wilson-cube", 20000)])
def test_resume_from_90_percent(tmp_path, name, limit):
    # a resume enters the remainder trees at the checkpoint, far above 2
    params = {"limit": limit}
    full = io.StringIO()
    run_scan(name, params, full)
    out, cpath = tmp_path / "out.jsonl", str(tmp_path / "cp.json")
    with open(out, "w") as sink:
        run_scan(name, params, sink, checkpoint_path=cpath,
                 limit_subjects=(limit - 1) * 9 // 10)
    assert checkpoint_load(cpath).last_subject == 1 + (limit - 1) * 9 // 10
    with open(out, "a") as sink:
        run_scan(name, params, sink, checkpoint_path=cpath)
    assert out.read_text() == full.getvalue()
    assert checkpoint_load(cpath).last_subject == limit


# sha256 of scan pairs --p-max 500 --q-max 100000 in each format: 887499
# pairs (p, q) under 93 subjects p, with the one hit (29, 937)
_PAIRS_500_DIGESTS = {
    "jsonl": "d4ccad41a11e62b400002af8524293e944142141802856d689f38bb9943a4947",
    "csv": "b9195ab07c780acd97cae401195bf06cafa584bf293fd4f38f39d0d171c23874",
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_pairs_500_by_100000(tmp_path, monkeypatch, fmt):
    # each subject is a prime p; how many checkpoints the 93 subjects take
    # depends on the elapsed time, but each p is saved at most once, and the
    # last save is at the last subject
    saves = []
    real = search.checkpoint_save

    def spy(cp, path):
        saves.append(cp.last_subject)
        real(cp, path)

    monkeypatch.setattr(search, "checkpoint_save", spy)
    out, cpath = tmp_path / f"out.{fmt}", str(tmp_path / "cp.json")
    with open(out, "w") as sink:
        summary = run_scan("pairs", {"p_max": 500, "q_max": 100000}, sink, fmt=fmt,
                           checkpoint_path=cpath)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PAIRS_500_DIGESTS[fmt]
    assert (summary.subjects, summary.hits, summary.fails) == (93, 1, 0)
    assert saves == sorted(set(saves)) and saves[-1] == 499
    assert checkpoint_load(cpath).last_subject == 499
