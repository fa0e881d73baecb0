"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with -s (or look at captured output) for the per-criterion lines.
The one stretch-sized check, w'(16843^2), is marked `stretch` and enabled
with --stretch.
"""

import io
import math
import random

import pytest

from wolstenholme.arith import (
    carry_count,
    factorial_unit,
    is_prime,
    legendre_valuation,
    primes_upto,
    valuation,
)
from wolstenholme.congruence import (
    mcintosh_check,
    pair_criterion,
    pair_direct_check,
    w_mod,
    wilson_residue,
    wprime_mod,
)
from wolstenholme.search import (
    max_ratio_report,
    run_scan,
    scan_records,
)
from wolstenholme.verify import run_suite
from wolstenholme.wpoly import construct_W, trend_scan, verify_W
from w_oracle import w_iter


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {status}{suffix}")


def test_criterion_01_wolstenholme_babbage():
    exact = dict(w_iter(2000))
    bad = []
    for p in primes_upto(2000):
        if p >= 3 and (w_mod(p, p * p) != 1 or exact[p] % (p * p) != 1):
            bad.append((p, 2))
        if p >= 5 and (w_mod(p, p**3) != 1 or exact[p] % p**3 != 1):
            bad.append((p, 3))
    report(1, "Wolstenholme/Babbage to 2000", not bad, f"violations={bad}")
    assert not bad


def test_criterion_01_mcintosh_converse():
    # w(n) = 1 (mod n^2) exactly at the primes n >= 3: McIntosh's converse
    # of Wolstenholme's theorem at the square of n, to 2000
    holds = [n for n in range(2, 2001) if mcintosh_check(n)]
    expected = [p for p in primes_upto(2000) if p >= 3]
    ok = holds == expected
    composites = sorted(set(holds) - set(expected))
    report(1, "McIntosh converse mod n^2 to 2000", ok, f"composite hits={composites}")
    assert ok


def test_criterion_02_wilson():
    wilson = [r.subject for r in scan_records("wilson", {"limit": 1000})]
    ok_scan = wilson == [5, 13, 563]
    mismatch = [
        n for n in range(2, 2001) if (wilson_residue(n, 1) == n - 1) != is_prime(n)
    ]
    cube = scan_records("wilson-cube", {"limit": 5000})
    ok = ok_scan and not mismatch and cube == []
    report(
        2,
        "Wilson primes / converse / cube scan",
        ok,
        f"wilson={wilson}, converse_mismatches={len(mismatch)}, cube_hits={len(cube)}",
    )
    assert ok


def test_criterion_03_jones_desk_scale():
    recs = scan_records("jones", {"limit": 5000})
    expected = [p for p in primes_upto(5000) if p >= 5]
    ok = [r.subject for r in recs] == expected and all(
        r.verdict == "hit" for r in recs
    )
    report(3, "Jones scan to 5000", ok, f"hits={len(recs)}, expected={len(expected)}")
    assert ok


def test_criterion_04_known_pairs():
    r1 = pair_criterion(29, 937, 1)
    r2 = pair_criterion(787, 2543, 1)
    direct = pair_direct_check(29, 937, 1)
    ok = all(r1) and all(r2) and direct is True
    report(4, "known pairs (29,937), (787,2543)", ok)
    assert ok


def test_criterion_04_stretch_third_pair():
    # the third pair rides on params {"stretch": True}, kept so that the
    # stream of the first two keeps its params hash
    res = pair_criterion(69239, 231433, 1)
    recs = scan_records("pairs", {"known": True, "stretch": True})
    ok = all(res) and [r.subject for r in recs] == [
        (29, 937),
        (787, 2543),
        (69239, 231433),
    ] and all(r.verdict == "hit" for r in recs)
    report(4, "stretch pair (69239,231433)", ok)
    assert ok


def test_criterion_05_wolstenholme_primes_scan():
    recs = scan_records("wolstenholme-primes", {"limit": 1000})
    report(5, "no Wolstenholme primes below 1000", recs == [])
    assert recs == []


def test_criterion_05_scan_to_16843():
    recs = scan_records("wolstenholme-primes", {"limit": 16843})
    ok = [(r.subject, r.verdict, r.witness["reverified"]) for r in recs] == [
        (16843, "hit", True)
    ]
    report(5, "scan to 16843 finds exactly 16843", ok)
    assert ok


@pytest.mark.stretch
def test_stretch_wprime_at_wolstenholme_square():
    # w'(n) = 1 (mod n^2) at n = 16843^2; a few minutes of modular products
    n = 16843 * 16843
    ok = wprime_mod(n, n * n) == 1
    report(5, "stretch w'(16843^2) = 1 (mod 16843^4)", ok)
    assert ok


@pytest.mark.parametrize(
    "suite,bound",
    [
        ("equ", 2000),
        ("rel", 2000),
        ("form", 199),
        ("int", 199),
        ("fra", 199),
        ("form2", 200),
        ("form3", 60),
        ("form4", 61),
        ("ident", 200),
    ],
)
def test_criterion_06_identity_suites(suite, bound):
    results = list(run_suite(suite, bound))
    violations = [r for r in results if not r.ok]
    report(
        6,
        f"identity suite {suite} to {bound}",
        not violations,
        f"{len(results)} subjects",
    )
    assert not violations


def test_criterion_07_wolstenholme_polynomial():
    w5 = construct_W(5)
    ok = w5.coeffs == (30, 345, -30, 15)
    for p in primes_upto(61):
        if p < 5:
            continue
        w_poly = construct_W(p)
        verify_W(p, w_poly)  # raises on any failed clause
        ok = ok and w_poly.degree == 2 * p - 7
    report(7, "W(p) structure for primes 5..61", ok)
    assert ok


def test_criterion_08_trend_scan():
    # Every prime in (p, 2p-5] divides the coefficient content of W, hence
    # divides W(n) and W'(n) at every n; such primes also divide w(p)
    # itself, so they can never divide w(p)-1.  The trend claim is
    # therefore meaningful exactly for r > 2p: assert zero double-divisor
    # records there, and account for every sub-2p double-divisor record as
    # a content artifact.
    trend_violations = []
    unexplained = []
    records = 0
    for p in primes_upto(61):
        if p < 5:
            continue
        w_poly = construct_W(p)
        content = 0
        for c in w_poly.coeffs:
            content = math.gcd(content, c)
        for rec in trend_scan(p, w_poly, -10 * p * p, -1):
            records += 1
            r, divides_w1 = rec
            if not divides_w1:
                continue
            if r > 2 * p:
                trend_violations.append((p, rec))
            elif content % r != 0:
                unexplained.append((p, rec))
    ok = not trend_violations and not unexplained
    report(
        8,
        "trend: r | W(n) never with r | W'(n) for r > 2p",
        ok,
        f"{records} records, 0 violations above 2p" if ok else f"{trend_violations}",
    )
    assert ok


def test_criterion_09_new_conjecture_scan():
    recs = scan_records("new-conjecture", {"p_max": 2000, "q_max": 10**5})
    hits = [(r.subject, int(r.witness["q"])) for r in recs]
    all_hits_small_q = all(q < p for p, q in hits)
    has_13_3 = (13, 3) in hits
    verdicts_ok = all(r.verdict == "hit" for r in recs)
    ratio = max_ratio_report(recs)
    ok = all_hits_small_q and has_13_3 and verdicts_ok
    report(9, "new conjecture scan (2000, 1e5)", ok, f"hits={hits}, ratio={ratio}")
    assert ok


def test_criterion_10_oracle_binomial_mod():
    from wolstenholme.arith import binomial_mod

    rng = random.Random(2026)
    checked = 0
    for n in range(0, 301):
        for _ in range(4):
            k = rng.randrange(0, n + 1) if n else 0
            m = rng.randrange(2, 10**4)
            assert binomial_mod(n, k, m) == math.comb(n, k) % m, (n, k, m)
            checked += 1
    report(10, "binomial_mod vs exact reduction", True, f"{checked} samples")


def test_criterion_10_oracle_factorial_unit():
    fact = 1
    checked = 0
    primes = list(primes_upto(50))
    for n in range(0, 2001):
        if n:
            fact *= n
        for q in primes:
            for e in (1, 2, 3):
                val, unit = factorial_unit(n, q, e)
                assert val == legendre_valuation(n, q)
                assert fact % q ** (val + e) == q**val * unit % q ** (val + e)
                checked += 1
    report(10, "factorial_unit reconstructs n!", True, f"{checked} triples")


def test_criterion_10_oracle_kummer():
    checked = 0
    for n in range(0, 121):
        for k in range(0, n + 1):
            c = math.comb(n, k)
            for q in (2, 3, 5, 7, 11, 13):
                assert carry_count(k, n - k, q) == valuation(c, q)
                checked += 1
    rng = random.Random(5)
    primes = primes_upto(50)
    for _ in range(2000):
        n = rng.randrange(121, 501)
        k = rng.randrange(0, n + 1)
        q = rng.choice(primes)
        assert carry_count(k, n - k, q) == valuation(math.comb(n, k), q)
        checked += 1
    report(10, "Kummer carries = exact valuations (n<=500)", True, f"{checked} checks")


def test_criterion_10_oracle_pair_equivalence():
    primes = [p for p in primes_upto(150) if p >= 5]
    checked = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if p * q > 10**4:
                continue
            for e in (1, 2, 3):
                assert pair_direct_check(p, q, e) == all(pair_criterion(p, q, e))
                checked += 1
    report(10, "pair criterion = direct check (pq<=1e4)", True, f"{checked} cases")


def test_criterion_11_factor_bands():
    results = list(run_suite("bands", 500))
    violations = [r for r in results if not r.ok]
    report(11, "factor-band parity to 500", not violations, f"{len(results)} primes")
    assert not violations


@pytest.mark.parametrize("cut", [1, 29, 167])
def test_criterion_12_determinism_resume(tmp_path, cut):
    params = {"limit": 1000}
    full = io.StringIO()
    run_scan("jones", params, full)
    resumed = io.StringIO()
    cpath = str(tmp_path / "cp.json")
    run_scan("jones", params, resumed, checkpoint_path=cpath, limit_subjects=cut)
    run_scan("jones", params, resumed, checkpoint_path=cpath)
    ok = resumed.getvalue() == full.getvalue()
    report(12, f"resume at {cut} is byte-identical", ok)
    assert ok
