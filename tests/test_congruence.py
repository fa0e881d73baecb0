import math
from fractions import Fraction

import pytest

from wolstenholme import congruence
from wolstenholme.arith import is_prime, primes_upto
from wolstenholme.congruence import (
    _divisors,
    _prod_tree,
    _wprime_parts,
    divisor_product_check,
    divisor_product_checks,
    factor_band_classify,
    is_wolstenholme_prime,
    jones_check,
    mcintosh_check,
    pair_criterion,
    pair_direct_check,
    w_exact,
    w_iter,
    w_mod,
    wilson_residue,
    wilson_restatement_check,
    wilson_restatement_checks,
    wprime_exact,
    wprime_mod,
)
from wolstenholme.errors import BudgetExceeded, PreconditionViolated


class TestWExact:
    def test_examples(self):
        assert w_exact(1) == 1
        assert w_exact(5) == 126
        assert w_exact(13) == 5200300

    def test_equals_half_central_binomial(self):
        for n in range(1, 60):
            assert 2 * w_exact(n) == math.comb(2 * n, n)

    def test_iter_matches_exact(self):
        full = list(w_iter(200))
        for n, w in full:
            assert w == w_exact(n)
        # entered mid-range, the recurrence continues the run from 1
        for start in (2, 5, 137, 200, 201):
            assert list(w_iter(200, start)) == full[start - 1:]


def _next_prime(x: int) -> int:
    x += 1
    while not is_prime(x):
        x += 1
    return x


def _gate_moduli(n: int) -> tuple[int, ...]:
    """Moduli around the product route's gate m > 2n-1: 2n-1 and 2n, q^2 for
    a prime n < q <= 2n-1, n*r for a prime r > 2n, r*s for primes r < n < s."""
    moduli = [m for m in (2 * n - 1, 2 * n) if m >= 2]
    q = _next_prime(n)
    if q <= 2 * n - 1:
        moduli.append(q * q)
    moduli.append(n * _next_prime(2 * n))
    below = primes_upto(n - 1)
    if below:
        moduli.append(below[-1] * q)
    return tuple(moduli)


class TestWMod:
    def test_examples(self):
        assert w_mod(5, 125).value == 1
        assert w_mod(7, 5).value == 1
        assert w_mod(5, 7).value == 0

    def test_both_strategies_match_exact(self):
        # moduli sharing small factors with the range take the CRT route,
        # large-prime moduli take the product route
        for n in range(1, 80):
            w = w_exact(n)
            moduli = (4, 9, 30, 64, n * n + 1, 101, 997, n**3 if n > 1 else 8)
            for m in moduli + _gate_moduli(n):
                assert w_mod(n, m).value == w % m, (n, m)

    def test_prime_power_of_subject(self):
        # modulus p^e with n = p: (p-1)! is a unit, so the product route runs
        for p in (5, 7, 11, 13, 101):
            assert w_mod(p, p**3).value == w_exact(p) % p**3

    def test_unfactorable_modulus(self):
        # two large primes: trial division cannot split m, and n is past the
        # exact fallback of binomial_mod, but (n-1)! is a unit mod m
        n, m = 200_001, (2**61 - 1) * (2**89 - 1)
        assert w_mod(n, m).value == math.comb(2 * n - 1, n - 1) % m


class TestWPrime:
    def test_examples(self):
        assert wprime_exact(1) == 1
        assert wprime_exact(3) == 10
        assert wprime_exact(4) == Fraction(35, 3)

    def test_prime_agrees_with_w(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert wprime_exact(p) == w_exact(p)

    def test_mod_examples(self):
        assert wprime_mod(3, 9).value == 1
        assert wprime_mod(35, 35**3).value == 1  # pair generalization at pq = 35
        assert wprime_mod(25, 5**4).value == 1  # prime-square case

    def test_mod_matches_exact_fraction(self):
        for n in (4, 6, 9, 10, 12, 25):
            m = n * n
            r = wprime_exact(n)
            expected = r.numerator * pow(r.denominator, -1, m) % m
            assert wprime_mod(n, m).value == expected

    def test_mod_precondition(self):
        with pytest.raises(PreconditionViolated):
            wprime_mod(6, 35)  # 5 and 7 do not divide 6
        with pytest.raises(PreconditionViolated):
            wprime_mod(6, (2**61 - 1) * (2**89 - 1))  # too large to factor
        with pytest.raises(PreconditionViolated):
            wprime_mod(12, 2**20 * 5)  # 2 divides 12, 5 does not


class TestDivisorProduct:
    def test_examples(self):
        assert divisor_product_check(6)  # 462 = 1 * 3 * 10 * (77/5)
        assert divisor_product_check(12)

    def test_primes_trivially(self):
        for p in (2, 3, 5, 7, 31):
            assert divisor_product_check(p)

    def test_range(self):
        for n in range(1, 400):
            assert divisor_product_check(n), n


class TestDivisorProductChecks:
    """The one-pass relation check against the per-n divisor_product_check."""

    def test_pass_matches_per_n_to_600(self):
        assert list(divisor_product_checks(600)) == [
            (n, divisor_product_check(n)) for n in range(1, 601)
        ]

    def test_single_n_to_2000(self):
        got = dict(divisor_product_checks(2000))
        assert sorted(got) == list(range(1, 2001))
        for n in (720, 1024, 1680, 1999, 2000):
            assert got[n] == divisor_product_check(n), n

    def test_wprime_parts_match_definition_to_600(self):
        for d, divisors, num, den in _wprime_parts(600):
            wd = wprime_exact(d)
            assert (num, den) == (wd.numerator, wd.denominator), d
            assert divisors == _divisors(d), d

    def test_reads_w_from_the_recurrence(self, monkeypatch):
        # a w(n) off by one at a single n must fail there and nowhere else
        real = congruence.w_iter

        def skewed(limit, start=1):
            for n, w in real(limit, start):
                yield n, w + (n == 360)

        monkeypatch.setattr(congruence, "w_iter", skewed)
        assert [n for n, ok in divisor_product_checks(400) if not ok] == [360]

    def test_small_bounds(self):
        from wolstenholme.verify import SuiteResult, run_suite

        for n_max in (-2, 0):
            assert list(divisor_product_checks(n_max)) == []
            assert list(run_suite("rel", n_max)) == []
        assert list(divisor_product_checks(1)) == [(1, True)]
        assert list(run_suite("rel", 1)) == [SuiteResult("rel", 1, True)]

    def test_prod_tree(self):
        xs = list(range(1, 300))
        for n in range(len(xs) + 1):
            assert _prod_tree(xs[:n]) == math.prod(xs[:n]), n


class TestWilson:
    def test_wilson_primes(self):
        assert wilson_residue(5, 2).holds
        assert wilson_residue(13, 2).holds
        assert wilson_residue(563, 2).holds

    def test_composite_residue_zero(self):
        v = wilson_residue(8, 1)
        assert not v.holds and v.residue.value == 0

    def test_prime_iff_for_small_n(self):
        for n in range(2, 500):
            assert wilson_residue(n, 1).holds == is_prime(n)

    def test_restatement_examples(self):
        assert wilson_restatement_check(5)
        assert wilson_restatement_check(6)
        assert wilson_restatement_check(2)

    def test_restatement_is_identity(self):
        for n in range(2, 500):
            assert wilson_restatement_check(n)

    def test_carried_restatement_matches_per_n_to_2000(self):
        expected = [(n, wilson_restatement_check(n)) for n in range(2, 2001)]
        assert list(wilson_restatement_checks(2000)) == expected
        for n_max in (-1, 0, 1):
            assert list(wilson_restatement_checks(n_max)) == []


class TestJonesAndMcIntosh:
    def test_jones_examples(self):
        assert jones_check(5).holds
        assert not jones_check(4).holds  # 35 mod 64
        assert not jones_check(25).holds

    def test_jones_small_sweep(self):
        for n in range(2, 300):
            expected = n >= 5 and is_prime(n)
            assert jones_check(n).holds == expected, n

    def test_wolstenholme_prime_examples(self):
        assert is_wolstenholme_prime(16843)
        assert not is_wolstenholme_prime(5)
        assert not is_wolstenholme_prime(11)

    def test_mcintosh_examples(self):
        assert mcintosh_check(7).holds
        v = mcintosh_check(25)
        assert not v.holds and v.residue.value == 126  # w(25) = w(5) (mod 625)
        v = mcintosh_check(4)
        assert not v.holds and v.residue.value == 3

    def test_mcintosh_prime_square_derivation(self):
        # the w(p^2) = w(p) (mod p^4) step is asserted inside the check
        for p in (3, 5, 7, 11):
            v = mcintosh_check(p * p)
            assert v.residue.value == w_exact(p) % p**4

    def test_squares_and_cubes_mod_n(self):
        # w(n) = 1 (mod n) for n = p^2 (odd p <= 97) and n = p^3 (5 <= p <= 31)
        for p in primes_upto(97):
            if p == 2:
                continue
            n = p * p
            assert w_mod(n, n).value == 1, p
        for p in primes_upto(31):
            if p < 5:
                continue
            n = p**3
            assert w_mod(n, n).value == 1, p

    def test_wolstenholme_prime_not_mod_fifth_power(self):
        # 16843 passes at p^4 but not at p^5
        assert w_mod(16843, 16843**4).value == 1
        assert w_mod(16843, 16843**5).value != 1


class TestPairs:
    def test_known_pairs_level_one(self):
        assert pair_criterion(29, 937, 1).combined
        assert pair_criterion(787, 2543, 1).combined

    def test_failing_pair(self):
        r = pair_criterion(5, 7, 1)
        assert not r.left and not r.combined

    def test_direct_examples(self):
        assert pair_direct_check(29, 937, 1) is True
        assert pair_direct_check(5, 7, 1) is False
        assert pair_direct_check(5, 7, 3) is False

    def test_direct_matches_criterion_small(self):
        primes = [p for p in primes_upto(60) if p >= 5]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                for e in (1, 2, 3):
                    assert pair_direct_check(p, q, e) == pair_criterion(p, q, e).combined

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            pair_direct_check(69239, 231433, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            pair_criterion(5, 5, 1)
        with pytest.raises(ValueError):
            pair_criterion(3, 7, 3)  # level 3 needs both >= 5
        assert pair_criterion(3, 7, 1) is not None


class TestFactorBands:
    def test_p5(self):
        bands = {b.q: b for b in factor_band_classify(5)}
        assert bands[7].band == 1 and bands[7].actual_divides
        assert bands[3].band == 3 and bands[3].actual_divides

    def test_p7(self):
        bands = {b.q: b for b in factor_band_classify(7)}
        assert bands[11].actual_divides and bands[13].actual_divides
        assert not bands[5].actual_divides and bands[5].band == 2

    def test_p11(self):
        got = {b.q: (b.band, b.actual_divides) for b in factor_band_classify(11)}
        assert got == {
            5: (4, False),
            7: (3, True),
            13: (1, True),
            17: (1, True),
            19: (1, True),
        }

    def test_parity_rule_small(self):
        for p in primes_upto(100):
            if p < 5:
                continue
            for b in factor_band_classify(p):
                assert b.predicted_divides == b.actual_divides, (p, b.q)

    def test_actual_divides_matches_w_mod(self):
        # the exact w(p) reduced mod q against the per-q modular route
        for p in [*primes_upto(500)[2:], 2003]:
            for b in factor_band_classify(p):
                assert b.actual_divides == (w_mod(p, b.q).value == 0), (p, b.q)

    def test_band_geometry(self):
        for b in factor_band_classify(37):
            assert b.q >= math.isqrt(2 * 37 - 1)
            assert b.interval[0] < b.q <= b.interval[1]
            assert b.band == (2 * 37 - 1) // b.q
