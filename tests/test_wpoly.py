import functools
import json
import math
from collections import deque
from itertools import islice

import pytest

from stirling_oracle import s2_diagonal_by_loop
from weight_oracle import newton_M_by_factorials
from wolstenholme.arith import double_factorial, is_prime, primes_upto
from wolstenholme.congruence import w_exact
from wolstenholme import wpoly
from wolstenholme.errors import AssertionFailure
from wolstenholme.symmetric import S2Diagonal, s2_diagonals
from wolstenholme.wpoly import (
    IntPoly,
    _inner,
    construct_W,
    large_prime_divisor_check,
    poly_derivative,
    poly_eval,
    poly_eval_mod,
    trend_scan,
    verify_W,
    w_polys,
)

W5_COEFFS = (30, 345, -30, 15)  # 15x^3 - 30x^2 + 345x + 30, W(5) = 2880


def _div_linear(coeffs, c):
    """coeffs / (x + c), exact: synthetic division at the root -c."""
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry
        out[i - 1] = carry
        carry = -c * carry
    if coeffs[0] + carry != 0:
        raise ArithmeticError(f"(x + {c}) does not divide polynomial")
    return out


@functools.cache
def _base(k):
    """D(x+1, k)/(x(x+1)): the product of x+v over v = 1-k .. 1+k but 0, 1,
    where D(n, k) = (n-k)(n-k+1)...(n+k)."""
    coeffs = [1]
    for v in range(1 - k, k + 2):
        if v not in (0, 1):  # multiply by (x + v)
            coeffs = [v * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def term_basis(k, j):
    """The (k, j) basis polynomial D(x+1, k)/((x+1+j) x (x+1)), of degree
    2k-2: x+1+j is a factor of D(x+1, k) other than x and x+1 for 1 <= j <= k."""
    if not 1 <= j <= k:
        raise ValueError(f"need 1 <= j <= k, got (k={k}, j={j})")
    return IntPoly(tuple(_div_linear(_base(k), 1 + j)))


# the oracle triangle's rows: S(j+k, j) for every odd k <= 99 the tests read
_ORACLE_ROWS = 2 * 99


@functools.cache
def _inner_by_terms(k):
    """I_k as the per-j sum of (-1)^(j+k) C(2k, k+j) S(j+k, j) basis(k, j).

    The reference that the Newton-form I_k of w_polys is checked against;
    S(j+k, j) comes from the double-loop triangle of the test oracle.
    """
    s2 = s2_diagonal_by_loop(k, _ORACLE_ROWS)
    inner = [0] * (2 * k - 1)
    for j in range(1, k + 1):
        c = (-1) ** (j + k) * math.comb(2 * k, k + j) * s2[j]
        for i, b in enumerate(term_basis(k, j).coeffs):
            inner[i] += c * b
    return tuple(inner)


def _w_by_scaled_sum(p):
    """W(p) as the per-p sum over odd k <= p-2 of
    x^(p-k-3) * (2p-4)!/(2k)! * I_k, the k = p-2 term divided by x.

    The reference that the one-pass recurrence of w_polys is checked against.
    """
    f_top = math.factorial(2 * p - 4)
    acc = [0] * (2 * p - 6)
    for k in range(1, p - 1, 2):
        inner = _inner_by_terms(k)
        scale = f_top // math.factorial(2 * k)
        if k == p - 2:
            assert inner[0] == 0
            inner, offset = inner[1:], 0
        else:
            offset = p - k - 3
        for i, ci in enumerate(inner):
            acc[offset + i] += ci * scale
    return IntPoly(tuple(acc))


def _trend_by_is_prime(p, w_poly, n_lo, n_hi):
    """trend_scan's records by testing each r = p - n with is_prime."""
    w1 = poly_derivative(w_poly)
    records = []
    for n in range(n_lo, n_hi + 1):
        r = p - n
        if is_prime(r) and poly_eval_mod(w_poly, n, r) == 0:
            divides_w1 = poly_eval_mod(w1, n, r) == 0
            records.append((r, divides_w1))
    return records


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestPolyOps:
    def test_canonicalization(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0, 0)).coeffs == ()
        assert IntPoly(()).degree == -1

    def test_eval_examples(self):
        assert poly_eval(IntPoly(W5_COEFFS), 5) == 2880
        assert poly_eval(IntPoly(()), 3) == 0

    def test_eval_mod_matches_eval(self):
        f = IntPoly((7, -3, 0, 11, 5))
        for x in range(-20, 21):
            for m in (2, 7, 97):
                assert poly_eval_mod(f, x, m) == poly_eval(f, x) % m

    def test_derivative(self):
        assert poly_derivative(IntPoly((0, 0, 0, 1))).coeffs == (0, 0, 3)
        assert poly_derivative(IntPoly((5,))).coeffs == ()
        assert poly_derivative(IntPoly(W5_COEFFS)).coeffs == (345, -60, 45)


class TestTermBasis:
    def test_degree_invariant(self):
        for k in range(1, 12, 2):
            for j in range(1, k + 1):
                assert term_basis(k, j).degree == 2 * k - 2

    def test_divides_full_product(self):
        # basis * (x+1+j) * x * (x+1) = D(x+1, k) pointwise
        for k, j in ((3, 1), (3, 2), (5, 4)):
            basis = term_basis(k, j)
            for x in range(2, 10):
                d = math.prod(range(x + 1 - k, x + 2 + k))
                assert poly_eval(basis, x) * (x + 1 + j) * x * (x + 1) == d

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            term_basis(3, 0)
        with pytest.raises(ValueError):
            term_basis(3, 4)


class TestConstructW:
    def test_w5_frozen_coefficients(self):
        assert construct_W(5).coeffs == W5_COEFFS

    def test_w7_degree_and_leading(self):
        w7 = construct_W(7)
        assert w7.degree == 7
        assert w7.coeffs[-1] == 945  # 9!!

    def test_verify_examples(self):
        w5, w7 = construct_W(5), construct_W(7)
        assert verify_W(5, w5) is None and verify_W(7, w7) is None
        assert w5.coeffs[-1] == 15 and w5.coeff(0) == 30 and poly_eval(w5, 5) == 2880
        assert w7.coeffs[-1] == 945

    def test_verify_sweep_to_31(self):
        for p in primes_upto(31):
            if p < 5:
                continue
            w_poly = construct_W(p)
            verify_W(p, w_poly)
            assert w_poly.degree == 2 * p - 7
            assert w_poly.coeffs[-1] == double_factorial(2 * p - 5)
            assert w_poly.coeff(0) % math.factorial(p - 3) == 0

    def test_evaluation_identity_exact(self):
        for p in (5, 7, 11, 13):
            w_poly = construct_W(p)
            lhs = poly_eval(w_poly, p) * (p + 1) * p**3
            rhs = (w_exact(p) - 1) * math.factorial(2 * p - 4) * math.factorial(p - 1)
            assert lhs == rhs

    def test_verify_rejects_tampered_poly(self):
        w_poly = construct_W(5)
        bad = IntPoly(w_poly.coeffs[:-1] + (w_poly.coeffs[-1] + 1,))
        with pytest.raises(AssertionFailure):
            verify_W(5, bad)

    def test_rejects_nonprime(self):
        for p in (-7, 0, 4, 9):
            with pytest.raises(ValueError):
                construct_W(p)

    @pytest.mark.parametrize("build", [construct_W, lambda p: dict(w_polys(p))[p]])
    def test_perturbed_M_k_is_caught(self, monkeypatch, build):
        # M_7 enters W(p) for every p >= 9; the builders only build, and
        # verify_W finds the false W that either one returns
        _perturb_M_7(monkeypatch)
        w_poly = build(13)
        with pytest.raises(AssertionFailure, match=r"^evaluation identity failed \[p=13\]$"):
            verify_W(13, w_poly)

    def test_perturbed_M_k_is_a_violation_row(self, monkeypatch):
        from wolstenholme.verify import run_suite

        _perturb_M_7(monkeypatch)
        rows = list(run_suite("wpoly", 13))
        assert [(r.subject, r.ok) for r in rows] == [(5, True), (7, True), (11, False), (13, False)]
        assert rows[2].detail.startswith("evaluation identity failed [p=11]")

    def test_forged_divisor_claim_is_a_violation_row(self, monkeypatch):
        # with q | W(p) forged false, the prime q = 53 > 22 dividing
        # (w(11)-1)/11^3 makes the large-prime equivalence fail at p = 11
        from wolstenholme.verify import run_suite

        monkeypatch.setattr(wpoly, "poly_eval_mod", lambda f, x, m: 1)
        rows = list(run_suite("wpoly", 11))
        assert [(r.subject, r.ok) for r in rows] == [(5, True), (7, True), (11, False)]
        assert "q=53" in rows[2].detail

    def test_cli_verify_reports_the_perturbation(self, monkeypatch, capsys):
        from wolstenholme.cli import main

        _perturb_M_7(monkeypatch)
        assert main(["verify", "wpoly", "--bound", "13"]) == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(v["suite"], v["subject"]) for v in lines] == [("wpoly", 11), ("wpoly", 13)]
        assert lines[0]["detail"].startswith("evaluation identity failed [p=11]")

    def test_cli_wpoly_reports_a_false_claim_in_one_line(self, monkeypatch, capsys, tmp_path):
        from wolstenholme.cli import main

        _perturb_M_7(monkeypatch)
        out = tmp_path / "w13.json"
        assert main(["wpoly", "13", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "claim failed: evaluation identity failed [p=13]\n",
        )
        assert not out.exists()

    def test_wrong_degree_is_a_violation_row(self, monkeypatch):
        # the trend scan, which reads W as W(p), does not run on a W that
        # failed its claims: W(11) of degree 16 is row 11, not a ValueError
        from wolstenholme import verify

        built = verify.w_polys

        def forged(bound):
            for p, w_poly in built(bound):
                yield p, IntPoly(w_poly.coeffs + (1,)) if p == 11 else w_poly

        monkeypatch.setattr(verify, "w_polys", forged)
        rows = list(verify.run_suite("wpoly", 13))
        assert [(r.subject, r.ok) for r in rows] == [(5, True), (7, True), (11, False), (13, True)]
        assert rows[2].detail == "degree != 2p-7 [p=11, degree=16]"


def _perturb_M_7(monkeypatch):
    newton_M = wpoly._newton_M

    def perturbed(k, row):
        m = newton_M(k, row)
        if k == 7:
            m[2] += 1
        return m

    monkeypatch.setattr(wpoly, "_newton_M", perturbed)


class TestWPolys:
    def test_newton_inner_matches_per_term_sum_to_99(self):
        for k in range(1, 100, 2):
            row = S2Diagonal(k, s2_diagonal_by_loop(k, _ORACLE_ROWS))
            assert tuple(_inner(k, row)) == _inner_by_terms(k), k

    def test_newton_M_matches_factorial_oracle_to_149(self):
        # the weights stepped by j/(k+j+1) against each built by factorials
        for row in islice(s2_diagonals(149), 1, None, 2):
            assert wpoly._newton_M(row.n, row) == newton_M_by_factorials(row.n, row), row.n

    def test_pass_matches_scaled_sum_to_61(self):
        got = list(w_polys(61))
        assert [p for p, _ in got] == [p for p in primes_upto(61) if p >= 5]
        for p, w_poly in got:
            assert w_poly == _w_by_scaled_sum(p), p
        assert got[0][1].coeffs == W5_COEFFS

    def test_construct_W_matches_the_pass_to_200(self):
        by_p = dict(w_polys(200))
        assert list(by_p) == [p for p in primes_upto(200) if p >= 5]
        for p, w_poly in by_p.items():
            assert construct_W(p) == w_poly, p
        assert by_p[5].coeffs == W5_COEFFS

    @pytest.mark.stretch
    def test_construct_W_matches_the_pass_at_601(self):
        (p, w_poly), = deque(w_polys(601), maxlen=1)
        assert p == 601 and construct_W(601) == w_poly

    def test_no_primes_below_5(self):
        for bound in range(-1, 5):
            assert list(w_polys(bound)) == []

    def test_suite_empty_below_5(self):
        from wolstenholme.verify import run_suite

        for bound in range(-1, 5):
            assert list(run_suite("wpoly", bound)) == []


class TestLargePrimeDivisors:
    def test_examples(self):
        w13 = construct_W(13)
        assert large_prime_divisor_check(13, 263, w13) is True  # 2367 = 9 * 263
        assert large_prime_divisor_check(13, 17, w13) is False
        assert large_prime_divisor_check(7, 11, construct_W(7)) is False  # 1715/343 = 5

    def test_rejects_q_not_above_p(self):
        with pytest.raises(ValueError):
            large_prime_divisor_check(13, 11, construct_W(13))

    def test_rejects_W_of_another_prime(self):
        # with W(11) the q | W(p) clause disagrees at 263, which would
        # otherwise be reported as a mathematical AssertionFailure
        with pytest.raises(ValueError):
            large_prime_divisor_check(13, 263, construct_W(11))
        with pytest.raises(ValueError):
            large_prime_divisor_check(13, 17, construct_W(17))


class TestTrendScan:
    def test_p5_empty_window(self):
        w5 = IntPoly(W5_COEFFS)
        assert trend_scan(5, w5, -30, -1) == []
        assert trend_scan(5, w5, -2, -2) == []

    def test_known_r_above_2p_record(self):
        # 263 = 13 - (-250) divides (w(13)-1)/13^3, and the trend holds there
        assert trend_scan(13, construct_W(13), -250, -250) == [(263, False)]

    @pytest.mark.parametrize(
        "p, n_lo, n_hi",
        [
            (13, -250, -4),  # r = 17 .. 263, both ends prime
            (13, -251, -3),  # r = 16 .. 264, neither end prime
            (13, -250, -3),  # r = 16 .. 263
            (13, -251, -4),  # r = 17 .. 264
            (13, -250, -250),  # the single prime r = 263
            (13, -251, -251),  # the single composite r = 264
            (17, -10 * 17 * 17, -1),
            (61, 61 - 37217, 61 - 67),  # r = 67 .. 37217, both ends prime
            (61, 61 - 113, 61 - 67),  # records at both ends, r = 67 and 113
            (31, 31 - 53, 31 - 37),  # records at both ends, r = 37 and 53
        ],
    )
    def test_sieve_matches_is_prime_loop(self, p, n_lo, n_hi):
        w_poly = construct_W(p)
        assert trend_scan(p, w_poly, n_lo, n_hi) == _trend_by_is_prime(
            p, w_poly, n_lo, n_hi
        )

    def test_matches_is_prime_loop_at_suite_window_to_61(self):
        for p, w_poly in w_polys(61):
            window = (-10 * p * p, -1)
            assert trend_scan(p, w_poly, *window) == _trend_by_is_prime(
                p, w_poly, *window
            ), p

    def test_matches_is_prime_loop_on_double_roots(self):
        # W(p)'s own r > 2p records never divide W', so a polynomial with
        # double roots at n = p - r exercises the divides_w1 branch; the
        # factor x^(2p-11) gives it W(p)'s degree 2p-7 and no record, as no
        # r = p - n divides n (so p = 5, degree 3, cannot hold the 4 roots)
        for p in (7, 11, 13):
            coeffs = [0] * (2 * p - 11) + [1]
            for n in (p - 101, p - 101, p - 103, p - 211):
                coeffs = _poly_mul(coeffs, (-n, 1))
            f = IntPoly(tuple(coeffs))
            recs = trend_scan(p, f, -10 * p * p, -1)
            assert recs == _trend_by_is_prime(p, f, -10 * p * p, -1)
            assert [rec for rec in recs if rec[0] in (101, 103, 211)] == [
                (211, False), (103, False), (101, True)
            ]

    def test_small_r_records_are_content_artifacts(self):
        # primes p < r < 2p divide every coefficient of W, hence W and W'
        # both; such records carry no trend information
        p = 17
        w_poly = construct_W(p)
        content = 0
        for c in w_poly.coeffs:
            content = math.gcd(content, c)
        recs = trend_scan(p, w_poly, -10 * p * p, -1)
        doubles = [r for r, divides_w1 in recs if divides_w1]
        assert doubles, "expected content-driven records at p=17"
        for r in doubles:
            assert r <= 2 * p
            assert content % r == 0

    def test_no_trend_violations_above_2p_small(self):
        for p, w_poly in w_polys(23):
            for r, divides_w1 in trend_scan(p, w_poly, -10 * p * p, -1):
                if r > 2 * p:
                    assert not divides_w1, (p, r)

    def test_range_validation(self):
        w5 = IntPoly(W5_COEFFS)
        with pytest.raises(ValueError):
            trend_scan(5, w5, -10, 0)
        with pytest.raises(ValueError):
            trend_scan(5, w5, -1, -5)

    def test_rejects_W_of_another_prime(self):
        # W(5) read as W(7) gave a record at r = 17 instead of an error
        with pytest.raises(ValueError, match="degree 7, got degree 3"):
            trend_scan(7, construct_W(5), -100, -1)


def test_wpoly_verify_suite_clean():
    # bundles verify_W, the large-prime divisor equivalence, and the trend
    # regime accounting for each prime
    from wolstenholme.verify import run_suite

    results = list(run_suite("wpoly", 37))
    assert [r.subject for r in results] == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    bad = [r for r in results if not r.ok]
    assert not bad, bad


@pytest.mark.stretch
def test_wpoly_verify_suite_clean_to_307():
    # past the acceptance bound of 61: verify_W, the large-prime divisor
    # equivalence and the trend rule at each of the 61 primes up to 307
    from wolstenholme.verify import run_suite

    results = list(run_suite("wpoly", 307))
    assert [r.subject for r in results] == [p for p in primes_upto(307) if p >= 5]
    assert [r for r in results if not r.ok] == []
