"""Scale checks: inputs far above the reference sizes stay within a memory
bound.  Each runs in a fresh interpreter and reads its peak RSS from
VmHWM, the high-water mark of its own address space: Linux carries
ru_maxrss across fork and exec, so that would count the test runner too."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wolstenholme

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
with open("/proc/self/status") as fh:
    peak_kib = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
print(json.dumps({"residues": residues, "code": code, "peak_kib": peak_kib}))
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM (Linux)"
)
def test_many_large_moduli_then_classify_65537_under_64_mib():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    # Lucas: C(4p+1, 2p) = C(4, 2) * C(1, 0) = 6 (mod p)
    assert out["residues"] == [6] * 64
    assert out["code"] == 0
    assert out["peak_kib"] < 64 * 1024, out["peak_kib"]
