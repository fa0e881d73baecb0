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
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

import wolstenholme
from wolstenholme import arith, search, verify
from wolstenholme.arith import binomial_exact, factor_completely
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
residues = [binomial_mod(4 * p + 1, 2 * p, p) for p in ps]
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

_NEW_CONJECTURE_10_8 = """
import sys
from wolstenholme.cli import main

argv = ["scan", "new-conjecture", "--p-max", "200", "--q-max", "100000000", "--out", sys.argv[1]]
result = {"code": main(argv)}
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


def _fresh(script: str, *argv: str, timeout: int = 300) -> dict:
    """Run script in a fresh interpreter; its result and peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r = subprocess.run(
        [sys.executable, "-c", script + _REPORT, *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
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


def test_construct_W_151_traced_peak_under_half_mib():
    # one diagonal and one M_k at a time, read downward (0.20 MiB); holding
    # every M_k peaked at 0.91 MiB, and the triangle to row 298 at 5.6 MiB
    w_poly = []
    peak = _traced_peak_mib(lambda: w_poly.append(construct_W(151)))
    assert w_poly[0].degree == 2 * 151 - 7
    assert peak < 0.5, peak


def test_binomial_exact_399999_traced_peak_under_half_mib():
    # runs of 64 prime powers, multiplied as they stream (0.37 MiB);
    # math.comb peaked at 0.47 MiB, one run of all of them at 1.20 MiB
    c = []
    peak = _traced_peak_mib(lambda: c.append(binomial_exact(399999, 199999)))
    assert c[0] % 399989 == 0 and c[0].bit_length() == 399990
    assert peak < 0.5, peak


def test_trial_runs_traced_peak_under_1_mib(monkeypatch):
    # from a cold table, 2^61 - 1 takes every run: the primes to 10^6
    # (0.31 MiB) and the 614 run products (0.20 MiB) come to 0.81 MiB, the
    # table grown one sieve segment at a time; grown by one sieve of 10^6
    # flags it peaked at 1.91 MiB, and the doubling before the runs at 1.24
    monkeypatch.setattr(arith, "_PRIMES", array("I", [2]))
    arith._trial_runs.cache_clear()
    got = []
    peak = _traced_peak_mib(lambda: got.append(factor_completely(2**61 - 1)))
    assert got == [{2**61 - 1: 1}]
    assert len(arith._trial_runs(10**6)) == 614 and len(arith._PRIMES) == 78498
    assert peak < 1, peak


def test_small_modulus_builds_no_runs(monkeypatch):
    # 997^4 is split by the primes below 2^10, which the table already holds
    monkeypatch.setattr(arith, "_PRIMES", array("I", arith.primes_upto(1 << 10)))
    arith._trial_runs.cache_clear()
    assert factor_completely(997**4) == {997: 4}
    assert arith._trial_runs.cache_info().misses == 0
    assert len(arith._PRIMES) == 172


def test_warm_factor_completely_sieves_nothing_and_copies_no_table(monkeypatch):
    # once the runs and the table to 10^6 exist, a call reads the table in
    # place: it copied the 78498 primes (a 308 KiB peak) and sieved
    # [999984, 10^6], past the top prime 999983, at every call
    m = 1031 * 1033 * 7
    assert factor_completely(m) == {7: 1, 1031: 1, 1033: 1}
    sieves = []
    real = arith._sieve
    monkeypatch.setattr(arith, "_sieve", lambda *args: sieves.append(args[:2]) or real(*args))
    got = []
    peak = _traced_peak_mib(lambda: got.append(factor_completely(m)))
    assert got == [{7: 1, 1031: 1, 1033: 1}]
    assert sieves == []
    assert peak < 100 / 1024, peak


def test_new_conjecture_q_list_traced_peak_under_2_5_mib(monkeypatch):
    # the q are the 78498 primes below 10^6, a copy of the 4-byte prime
    # table, grown here from cold: the scan peaked at 1.73 MiB in all, and
    # at 4.12 MiB with the q as a list of ints
    monkeypatch.setattr(arith, "_PRIMES", array("I", [2]))
    params = {"p_max": 50, "q_max": 10**6}
    recs = []
    peak = _traced_peak_mib(lambda: recs.extend(search.scan_records("new-conjecture", params)))
    assert [(r.subject, r.witness["q"], r.verdict) for r in recs] == [(13, "3", "hit")]
    assert peak < 2.5, peak
    assert len(arith._PRIMES) == 78498  # the q list read the table


def test_form2_suite_traced_peak_under_2_mib():
    # one first-kind row at a time beside the two symmetric-function rows;
    # the first-kind triangle to row 401 that form2 read before peaked at
    # 15.0 MiB
    results = []
    peak = _traced_peak_mib(lambda: results.extend(verify.run_suite("form2", 400)))
    assert len(results) == 400 and all(r.ok for r in results)
    assert peak < 2, peak


def test_form2_suite_passes_at_500():
    # 2.5 times the default bound, where n! reaches 3768 bits
    results = list(verify.run_suite("form2", 500))
    assert [r.subject for r in results] == list(range(1, 501))
    assert all(r.ok for r in results)


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


# sha256 of scan pairs --p-max 69239 --q-max 231433 (jsonl): 6874 subjects p,
# whose only records are the three published pairs
_PAIRS_TO_69239_SHA256 = "fd1841e39532e7e0f21f8cf437eeef6005915466a92f8e7e59b9c8cffd651f14"


@pytest.mark.stretch
def test_pairs_range_finds_third_published_pair(tmp_path):
    # about three minutes, nearly all in the gcd of each w(p) - 1 with the
    # product of the primes up to 231433; the range records are those of
    # --known --stretch but for their params hash
    out = tmp_path / "out.jsonl"
    with open(out, "w") as sink:
        summary = run_scan("pairs", {"p_max": 69239, "q_max": 231433}, sink)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PAIRS_TO_69239_SHA256
    assert (summary.subjects, summary.hits, summary.fails) == (6874, 3, 0)
    known = search.scan_records("pairs", {"known": True, "stretch": True})
    with open(out) as fh:
        ranged = list(search.read_records(fh, "jsonl"))
    assert [r.subject for r in known] == list(search.KNOWN_PAIRS)
    assert [replace(r, params_hash="") for r in ranged] == [
        replace(r, params_hash="") for r in known
    ]


# sha256 of scan new-conjecture --p-max 200 --q-max 100000000: four hits,
# at p = 13, 107, 113 and 137
_NEW_CONJECTURE_10_8_SHA256 = "3f3a6bf9522e644a47b35ea0ae1de766727487ae5a65393657bcb675ed4604df"


@pytest.mark.stretch
@needs_vmhwm
def test_new_conjecture_to_q_10_8_under_200_mib(tmp_path):
    # about four minutes; the q are the 5761455 primes up to 10^8, whose
    # product P has 144 Mbit.  Held as a copy of the 4-byte prime table they
    # left the scan at 175.6 MiB VmHWM, and as a list of ints at 352.0 MiB
    path = tmp_path / "new-conjecture.jsonl"
    out = _fresh(_NEW_CONJECTURE_10_8, str(path), timeout=900)
    assert out["code"] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _NEW_CONJECTURE_10_8_SHA256
    assert out["peak_kib"] < 200 * 1024, out["peak_kib"]


# sha256 of scan new-conjecture --p-max 100000 --q-max 100000: 117 hits, no
# fail, so no prime q > p up to 10^5 has q^2 | w(p) - 1, the first half of
# w(pq) = 1 (mod (pq)^2) at level 2 of the pair criterion
_NEW_CONJECTURE_SQUARE_10_5_SHA256 = (
    "328e5d9ca3b3af2c6cc22182a2d84511698230da9f03d56477b2708681185266"
)


@pytest.mark.stretch
def test_new_conjecture_square_to_10_5_has_no_fail(tmp_path):
    # 148 to 220 s, nearly all in the gcd of each w(p) - 1 with the product
    # of the 9592 primes up to 10^5
    out = tmp_path / "out.jsonl"
    with open(out, "w") as sink:
        summary = run_scan("new-conjecture", {"p_max": 100000, "q_max": 100000}, sink)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _NEW_CONJECTURE_SQUARE_10_5_SHA256
    assert (summary.subjects, summary.hits, summary.fails) == (9590, 117, 0)
