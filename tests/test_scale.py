"""Scale checks: inputs far above the reference sizes stay within a memory
bound, and long scans resume byte-identically.  Each memory check runs in
a fresh interpreter and reads its peak RSS from VmHWM, the high-water mark
of its own address space: Linux carries ru_maxrss across fork and exec, so
that would count the test runner too."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wolstenholme
from wolstenholme.search import checkpoint_load, run_scan

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

# each n^2 takes the primes up to isqrt(n^2) = n as its trial divisors: ten
# bounds just below 10^6, all read from the one prime table
ns = range(10**6 - 10, 10**6)
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
def test_verify_ident_under_40_mib():
    # ident reads only the second-kind Stirling triangle, to row 400
    out = _fresh(_VERIFY_IDENT)
    assert out["code"] == 0
    assert out["peak_kib"] < 40 * 1024, out["peak_kib"]


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
