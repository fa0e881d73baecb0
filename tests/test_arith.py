import hashlib
import json
import math
import random
from array import array
from fractions import Fraction

import pytest

from elem_sym_oracle import num_valuation
from factor_oracle import factor_by_each_prime, prime_power_root
from wolstenholme import arith
from wolstenholme.arith import (
    binomial_exact,
    binomial_mod,
    binomial_mod_prime_power,
    carry_count,
    double_factorial,
    factor_completely,
    factorial_unit,
    is_prime,
    legendre_valuation,
    prime_check,
    primes_in,
    primes_upto,
    valuation,
)
from wolstenholme.errors import FactoringBudgetExceeded


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def trial_division_window(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi] by trial division by every integer d up to
    isqrt(hi), applied to the whole window at once: d strikes its multiples
    above d.  Far from 0 this costs one pass over the divisors rather than
    one per candidate."""
    composite = [n < 2 for n in range(lo, hi + 1)]
    for d in range(2, math.isqrt(hi) + 1):
        for multiple in range(max(2 * d, -(-lo // d) * d), hi + 1, d):
            composite[multiple - lo] = True
    return [n for n, c in zip(range(lo, hi + 1), composite) if not c]


class TestPrimality:
    def test_unit_is_not_prime(self):
        assert not is_prime(1)

    def test_wilson_prime_563(self):
        assert is_prime(563)

    def test_pair_product_is_composite(self):
        assert not is_prime(27173)  # 29 * 937

    def test_matches_trial_division_small(self):
        for n in range(0, 3000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_deterministic_below_proven_bound(self):
        check = prime_check(2**61 - 1)  # a Mersenne prime
        assert check.is_prime and not check.probabilistic

    def test_probabilistic_flag_beyond_bound(self):
        # 10^30 + 57 is prime; far beyond the proven 12-base bound
        check = prime_check(10**30 + 57)
        assert check.is_prime and check.probabilistic
        composite = prime_check(10**30 + 59)
        assert not composite.is_prime

    def test_large_semiprime(self):
        p, q = 10**9 + 7, 10**9 + 9
        assert not is_prime(p * q)
        assert is_prime(p) and is_prime(q)


class TestPrimeStream:
    def test_small_window(self):
        assert list(primes_in(1, 10)) == [2, 3, 5, 7]

    def test_wolstenholme_prime_window(self):
        assert list(primes_in(16840, 16850)) == [16843]

    def test_empty_window(self):
        assert list(primes_in(24, 28)) == []

    def test_matches_trial_division(self):
        expected = [n for n in range(2, 5000) if trial_division_is_prime(n)]
        assert list(primes_upto(4999)) == expected

    def test_segment_boundaries(self):
        # windows straddling the segment size must not lose primes
        base = 1 << 16
        got = list(primes_in(base - 50, base + 50))
        expected = [n for n in range(base - 50, base + 51) if trial_division_is_prime(n)]
        assert got == expected

    def test_reversed_range(self):
        assert list(primes_in(10, 1)) == []

    def test_small_primes_upto(self):
        primes = [n for n in range(401) if trial_division_is_prime(n)]
        for n in range(401):
            assert list(primes_upto(n)) == [p for p in primes if p <= n], n

    def test_upto_grows_one_table_from_cold(self, monkeypatch):
        # each bound past the top extends the table through primes_in's
        # sieve, the base primes first, so no prime is added twice; each call
        # returns a copy, so one held across the next growth blocks nothing
        monkeypatch.setattr(arith, "_PRIMES", array("I", [2]))
        primes = trial_division_window(2, 70000)
        held = []
        for n in (1, 3, 10, 11, 12, 1000, 1021, 1 << 16, 70000, 9):
            held.append(primes_upto(n))
            assert isinstance(held[-1], array), n
            assert list(held[-1]) == [p for p in primes if p <= n], n
        assert list(arith._PRIMES) == primes

    def test_upto_refuses_a_bound_past_4_byte_entries(self):
        top = len(arith._PRIMES)
        with pytest.raises(ValueError, match=r"n < 2\*\*32, got 4294967296"):
            primes_upto(2**32)
        assert len(arith._PRIMES) == top

    @pytest.mark.parametrize("lo", [0, 1, 2, 3])
    def test_low_starts(self, lo):
        for hi in range(-2, 300):
            expected = [n for n in range(lo, hi + 1) if trial_division_is_prime(n)]
            assert list(primes_in(lo, hi)) == expected, hi

    # primes, composites, and squares of the primes that sieve them
    @pytest.mark.parametrize("n", [2, 3, 4, 9, 25, 91, 97, 961, 65521, 65536, 1009**2])
    def test_single_point(self, n):
        expected = [n] if trial_division_is_prime(n) else []
        assert list(primes_in(n, n)) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_windows_straddle_segments(self, k):
        edge = k << 16
        expected = [n for n in range(edge + 51) if trial_division_is_prime(n)]
        # segments start at max(lo, 2) + j * 2^16, a prime (65539) for lo = 3;
        # the window from edge - 50 straddles edge itself
        for lo in (0, 3, edge - 50):
            assert list(primes_in(lo, edge + 50)) == [p for p in expected if p >= lo], lo

    def test_far_window(self):
        lo, hi = 10**12, 10**12 + 3000
        small = [n for n in range(3001) if trial_division_is_prime(n)]
        assert trial_division_window(0, 3000) == small
        assert list(primes_in(lo, hi)) == trial_division_window(lo, hi)


class TestFactorials:
    def test_factorial_examples(self):
        assert math.factorial(0) == 1
        assert math.factorial(6) == 720

    def test_double_factorial_examples(self):
        assert double_factorial(5) == 15
        assert double_factorial(9) == 945
        assert double_factorial(0) == 1

    def test_double_factorial_brute(self):
        for n in range(0, 40):
            expected = math.prod(range(n, 0, -2))
            assert double_factorial(n) == expected

    def test_legendre_examples(self):
        assert legendre_valuation(10, 3) == 4
        assert legendre_valuation(4, 5) == 0
        assert legendre_valuation(25, 5) == 6

    def test_legendre_vs_exact_factorial(self):
        for n in range(0, 200):
            f = math.factorial(n)
            for q in (2, 3, 5, 7, 11):
                v = 0
                m = f
                while m and m % q == 0:
                    v += 1
                    m //= q
                assert legendre_valuation(n, q) == v


class TestFactorialUnit:
    def test_spec_values(self):
        # 10!/3^4 = 44800 = 7 (mod 9)
        assert factorial_unit(10, 3, 2) == (4, 7)
        assert factorial_unit(0, 7, 2) == (0, 1)
        assert factorial_unit(4, 5, 2) == (0, 24)

    def test_reconstruction_small_grid(self):
        # q^val * unit = n! (mod q^(val+e)), i.e. unit = (n!/q^val) mod q^e
        for q in (2, 3, 5, 7):
            for e in (1, 2, 3, 4, 5):
                f = 1
                for n in range(0, 300):
                    if n:
                        f *= n
                    val, unit = factorial_unit(n, q, e)
                    assert val == legendre_valuation(n, q)
                    exact_unit = f // q**val
                    assert exact_unit % q != 0
                    assert unit == exact_unit % q**e, (n, q, e)

    def test_large_modulus_no_table(self):
        # q^e far above n: no level has a full block to sign, and each
        # partial block loops over up to n units
        q = 1009
        val, unit = factorial_unit(2500, q, 3)
        f = math.factorial(2500)
        assert val == legendre_valuation(2500, q) == 2
        assert unit == (f // q**val) % q**3

    def test_one_primality_test_per_call(self, monkeypatch):
        # the exponent comes from the unchecked Legendre loop, as q is known
        # to be prime by then
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
        assert factorial_unit(2500, 1009, 3)[0] == 2
        assert calls == [1009]


class TestBinomials:
    def test_exact_examples(self):
        assert binomial_exact(9, 4) == 126
        assert binomial_exact(12, 0) == 1
        assert binomial_exact(21, 10) == 352716
        assert binomial_exact(5, 9) == 0

    @staticmethod
    def _comb(n, k):
        return math.comb(n, k) if 0 <= k <= n else 0

    def test_exact_vs_comb_to_300(self):
        for n in range(0, 301):
            for k in (-1, 0, 1, n // 2, n - 1, n, n + 1):
                assert binomial_exact(n, k) == self._comb(n, k), (n, k)

    def test_route_by_primes_vs_comb_to_120(self, monkeypatch):
        # with the crossover at 0 every binomial, k = 0 and n = 0 too, is
        # built from its prime exponents
        monkeypatch.setattr(arith, "_COMB_CROSSOVER", 0)
        for n in range(0, 121):
            for k in range(-1, n + 2):
                assert binomial_exact(n, k) == self._comb(n, k), (n, k)

    def test_route_by_primes_tests_no_primality(self, monkeypatch):
        # w(18000), the mod5 resume entry, takes three Legendre exponents per
        # prime r <= sqrt(n); the primes come from the sieve, so none is tested
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
        assert binomial_exact(35999, 17999) == math.comb(35999, 17999)
        assert calls == []

    def test_exact_vs_comb_random(self):
        rng = random.Random(20261020)
        for i in range(40):
            n = rng.randrange(2, 50_001)
            k = rng.randrange(0, n // 2) if i % 2 else rng.randrange(n // 2, n + 1)
            assert binomial_exact(n, k) == math.comb(n, k), (n, k)

    @pytest.mark.parametrize("n", [2003, 5000, 20011, 99991, 400000])
    def test_exact_at_crossover(self, monkeypatch, n):
        # the smallest min(k, n-k) that leaves math.comb, and one either side
        k0 = math.isqrt(arith._COMB_CROSSOVER * n - 1) + 1
        assert (k0 - 1) ** 2 < arith._COMB_CROSSOVER * n <= k0**2 and 2 * k0 + 2 <= n
        real, calls = math.comb, []

        def spy(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(math, "comb", spy)
        for k in (k0 - 1, k0, k0 + 1):
            for kk in (k, n - k):
                assert binomial_exact(n, kk) == real(n, kk), (n, kk)
        assert calls == [(n, k0 - 1)] * 2

    @pytest.mark.parametrize("n, k", [(1999, 999), (5003, 2500), (12000, 3000), (30001, 15000)])
    def test_exponents_are_carry_counts(self, n, k):
        rest = binomial_exact(n, k)
        for r in primes_in(2, n):
            e = carry_count(k, n - k, r)
            assert rest % r**e == 0 and (rest // r**e) % r, (n, k, r)
            rest //= r**e
        assert rest == 1

    def test_carry_count_is_kummer_valuation(self):
        for n in range(0, 120):
            for k in range(0, n + 1):
                c = math.comb(n, k)
                for q in (2, 3, 5, 7, 11):
                    assert carry_count(k, n - k, q) == valuation(c, q), (n, k, q)

    def test_prime_power_examples(self):
        assert binomial_mod_prime_power(9, 4, 5, 3) == 1  # Wolstenholme at p=5
        assert binomial_mod_prime_power(40, 0, 3, 2) == 1
        assert binomial_mod_prime_power(25, 12, 3, 2) == 1  # 5200300 mod 9

    def test_prime_power_vs_exact_grid(self):
        rng = random.Random(20260810)
        for _ in range(400):
            n = rng.randrange(0, 400)
            k = rng.randrange(0, n + 1) if n else 0
            q = rng.choice((2, 3, 5, 7, 11, 13))
            e = rng.randrange(1, 4)
            got = binomial_mod_prime_power(n, k, q, e)
            assert got == math.comb(n, k) % q**e, (n, k, q, e)

    def test_binomial_mod_examples(self):
        assert binomial_mod(17, 8, 9) == 1  # 24310 mod 9
        assert binomial_mod(7, 3, 64) == 35
        assert binomial_mod(9, 4, 6) == 0  # 126 = 6 * 21

    def test_binomial_mod_vs_exact_sampled(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randrange(0, 300)
            k = rng.randrange(0, n + 1) if n else 0
            m = rng.randrange(2, 10**4)
            assert binomial_mod(n, k, m) == math.comb(n, k) % m, (n, k, m)

    def test_prime_power_modulus_above_trial_limit(self):
        # n = 300000 is past the exact fallback's 200000, so these raised
        m = 1000003**2
        assert binomial_mod(300000, 5, m) == math.comb(300000, 5) % m
        assert binomial_mod(300000, 299990, 6 * m) == math.comb(300000, 10) % (6 * m)

    def test_unfactorable_modulus_falls_back_to_exact(self):
        m = 1000003 * 1000033  # both primes above the trial budget
        with pytest.raises(FactoringBudgetExceeded) as exc:
            factor_completely(m)
        assert exc.value.cofactor == m
        assert binomial_mod(50, 20, m) == math.comb(50, 20) % m


class TestBaseBelowTwo:
    # at q = 1 or -1 the digit loops would never end, and q = 0 divides by
    # zero; num_valuation would blame the denominator
    @pytest.mark.parametrize(
        "call",
        [
            lambda: valuation(5, 1),
            lambda: valuation(5, -1),
            lambda: valuation(5, 0),
            lambda: legendre_valuation(5, 1),
            lambda: legendre_valuation(5, -1),
            lambda: legendre_valuation(5, 0),
            lambda: carry_count(3, 4, 1),
            lambda: carry_count(3, 4, -1),
            lambda: factorial_unit(5, 1),
            lambda: binomial_mod_prime_power(9, 4, 1, 2),
            lambda: num_valuation(Fraction(5), 1),
            lambda: num_valuation(Fraction(5), 0),
        ],
        ids=[
            "valuation-1",
            "valuation-minus-1",
            "valuation-0",
            "legendre-1",
            "legendre-minus-1",
            "legendre-0",
            "carry-1",
            "carry-minus-1",
            "factorial_unit-1",
            "binomial_prime_power-1",
            "num_valuation-1",
            "num_valuation-0",
        ],
    )
    def test_raises_value_error(self, call):
        with pytest.raises(ValueError, match="base must be >= 2"):
            call()


class TestCompositeBase:
    # the Wilson-block signs hold for prime q only: at q = 4, 6! = 4 * 180
    # with 180 = 0 (mod 4), yet the recursion gave the unit 2; binomials at
    # q = 4, 6, 9 came out wrong or failed to invert a non-unit; Legendre's
    # floor sum gave 2 for the exponent of 4 in 10!, which is 4
    @pytest.mark.parametrize("q", [4, 6, 9, 15, 25])
    def test_raises_value_error_naming_q(self, q):
        with pytest.raises(ValueError, match=f"requires a prime q, got {q}$"):
            legendre_valuation(10, q)
        with pytest.raises(ValueError, match=f"requires a prime q, got {q}$"):
            factorial_unit(6, q, 1)
        with pytest.raises(ValueError, match=f"requires a prime q, got {q}$"):
            binomial_mod_prime_power(10, 3, q, 2)
        with pytest.raises(ValueError, match=f"requires a prime q, got {q}$"):
            binomial_mod_prime_power(10, 11, q, 2)  # before the k > n shortcut


class TestExponentBelowOne:
    # q^0 = 1 has no residues to hold; e = 0 failed only in the result
    # type, after the work, and e = -1 raised a bare TypeError; True == 1
    # passed as e = 1, so factorial_unit(5, 2, True) gave (3, 1)
    @pytest.mark.parametrize(
        "call",
        [
            lambda e: factorial_unit(5, 3, e),
            lambda e: binomial_mod_prime_power(9, 4, 5, e),
            lambda e: binomial_mod_prime_power(9, 10, 5, e),  # before the k > n shortcut
        ],
        ids=["factorial_unit", "binomial_prime_power", "binomial_prime_power-k-past-n"],
    )
    @pytest.mark.parametrize("e", [0, -1, True])
    def test_raises_value_error_naming_e(self, call, e):
        with pytest.raises(ValueError, match=f"exponent e must be >= 1, got {e}$"):
            call(e)


class TestNegativeArgument:
    # floor division of a negative number never reaches 0, so the digit
    # loops would never end
    @pytest.mark.parametrize(
        "call",
        [
            lambda: legendre_valuation(-1, 2),
            lambda: carry_count(-1, 1, 2),
            lambda: carry_count(1, -1, 2),
            lambda: factorial_unit(-3, 5),
        ],
        ids=["legendre", "carry-a", "carry-b", "factorial_unit"],
    )
    def test_raises_value_error(self, call):
        with pytest.raises(ValueError, match="numbers >= 0"):
            call()


class TestFactorization:
    def test_complete(self):
        assert factor_completely(1) == {}
        assert factor_completely(360) == {2: 3, 3: 2, 5: 1}
        assert factor_completely(937**3) == {937: 3}

    def test_prime_cofactor_accepted(self):
        p = 2124679  # second Wolstenholme prime, above nothing special: just prime
        assert factor_completely(4 * p) == {2: 2, p: 1}

    def test_prime_power_cofactor_above_trial_limit(self):
        # trial division leaves r^k whole when r > 10^6; it raised
        # FactoringBudgetExceeded before a cofactor could be a prime power
        r, s = 1000003, 1000033
        for m, factors in [
            (r**2, {r: 2}),
            (r**3, {r: 3}),
            (12 * r**5, {2: 2, 3: 1, r: 5}),
            (997 * (2**61 - 1) ** 2, {997: 1, 2**61 - 1: 2}),
            (s**16, {s: 16}),  # 319 bits: a bound k <= bits // 20 stops at 15
        ]:
            assert factor_completely(m) == factors == factor_by_each_prime(m), m
        # a cofactor with two distinct primes, their product squared too, still raises
        for m, cofactor in [(r * s, r * s), (r**2 * s, r**2 * s), (8 * (r * s) ** 2, (r * s) ** 2)]:
            with pytest.raises(FactoringBudgetExceeded) as exc:
                factor_completely(m)
            assert exc.value.cofactor == cofactor, m

    def test_iroot_is_the_floor_root(self):
        rng = random.Random(40)
        for _ in range(300):
            n, k = rng.getrandbits(rng.randrange(1, 400)) + 1, rng.randrange(2, 12)
            x = arith._iroot(n, k)
            assert x**k <= n < (x + 1) ** k, (n, k)
        for x in (2, 3, 1000003, 2**61 - 1):
            for k in (2, 3, 7):
                assert arith._iroot(x**k, k) == x
                assert arith._iroot(x**k - 1, k) == x - 1

    @staticmethod
    def _plain(m, trial_limit):
        """Trial division by every integer 2..trial_limit, as factor_completely
        did before it divided by primes only, with a cofactor that is a prime
        power accepted as it is now."""
        factors, rest = {}, m
        for p in range(2, trial_limit + 1):
            if p * p > rest:
                break
            while rest % p == 0:
                factors[p] = factors.get(p, 0) + 1
                rest //= p
        if rest > 1:
            if rest <= trial_limit * trial_limit or is_prime(rest):
                factors[rest] = factors.get(rest, 0) + 1
            elif root := prime_power_root(rest, trial_limit):
                factors[root[0]] = root[1]
            else:
                return "budget", m, factors, rest
        return factors

    @pytest.mark.parametrize("trial_limit", [1, 2, 4, 5, 6, 7, 30, 961, 967, 1000])
    def test_wheel_matches_plain_loop(self, trial_limit, monkeypatch):
        # the sieved trial divisors against every integer up to the limit
        monkeypatch.setattr(arith, "_TRIAL_LIMIT", trial_limit)
        rng = random.Random(trial_limit)
        ms = [
            *range(1, 3000),
            *range(967**2 - 400, 967**2 + 400),  # where a mod-30 wheel's tuple ended
            *(rng.getrandbits(bits) for bits in (24, 40, 64) for _ in range(40)),
            31 * 37, 8 * 31 * 37, 1009 * 1013, 2 * 3 * 5 * 1009 * 1013,
        ]
        budget = 0
        for m in ms:
            try:
                got = factor_completely(m)
            except FactoringBudgetExceeded as exc:
                got = "budget", exc.n, exc.partial, exc.cofactor
                budget += 1
            assert got == self._plain(m, trial_limit), m
        assert budget  # every limit meets some cofactor it cannot split

    def test_table_grows_only_as_the_cofactor_needs(self, monkeypatch):
        # 997^4 is split by the first primes; sizing the table by isqrt(997^4)
        # once built every prime below 10^6 for it
        monkeypatch.setattr(arith, "_PRIMES", array("I", [2]))
        assert factor_completely(997**4) == {997: 4}
        assert arith._PRIMES[-1] < 2 * 997
        # factors on both sides of 2^10, where the run gcds take over, and of
        # the doublings by which the table once grew, from a fresh one
        for m in (1021 * 1031, 2039**2 * 2053, 4093 * 4099 * 8191, 65521 * 65537, 999983**2):
            monkeypatch.setattr(arith, "_PRIMES", array("I", [2]))
            assert factor_completely(m) == self._plain(m, 10**6), m
        assert len(arith._PRIMES) == 78498  # all of them, for 999983^2

    def test_wpoly_moduli_pinned(self):
        # (w(p) - 1)/p^3 for 5 <= p <= 61, the moduli the wpoly suite factors;
        # the digest was taken with trial division by a mod-30 wheel
        rows = []
        for p in primes_in(5, 61):
            m = (math.comb(2 * p - 1, p - 1) - 1) // p**3
            try:
                rows.append([p, sorted(factor_completely(m).items())])
            except FactoringBudgetExceeded as exc:
                rows.append([p, "budget", exc.n, sorted(exc.partial.items()), exc.cofactor])
        assert [len(rows), sum(row[1] == "budget" for row in rows)] == [16, 4]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "db01d9b09f8f72f1485bfa2243a6989d6013123fc17a7b4dda26ce7f2fa7080c"

    def test_runs_match_each_prime_oracle(self):
        # the gcds with the runs of 128 table primes against dividing by each
        # prime: the same factors in the same order, and the same partial
        # factorization and cofactor where the budget runs out
        rng = random.Random(33)
        ms = [
            *((math.comb(2 * p - 1, p - 1) - 1) // p**3 for p in primes_in(5, 61)),
            *(rng.randrange(2**120) for _ in range(12)),
            997**4, 2**40, 999983 * 1000003, 1,
        ]

        def outcome(factor, m):
            try:
                return list(factor(m).items())
            except FactoringBudgetExceeded as exc:
                return "budget", exc.n, list(exc.partial.items()), exc.cofactor

        got = [outcome(factor_completely, m) for m in ms]
        assert got == [outcome(factor_by_each_prime, m) for m in ms]
        assert sum(isinstance(g, tuple) for g in got) >= 4  # the budget outcomes


class TestNumValuation:
    # the valuation oracle of symmetric's expansion checks, kept in tests/
    def test_spec_examples(self):
        assert num_valuation(Fraction(25, 12), 5) == 2
        assert num_valuation(Fraction(35, 24), 5) == 1
        assert num_valuation(Fraction(1, 24), 5) == 0

    def test_denominator_not_coprime(self):
        with pytest.raises(ValueError, match="5 divides denominator of 3/10"):
            num_valuation(Fraction(3, 10), 5)

    def test_zero_numerator(self):
        with pytest.raises(ValueError, match="valuation of zero is undefined"):
            num_valuation(Fraction(0), 5)

    def test_sign_lives_in_numerator(self):
        assert num_valuation(Fraction(-50, 3), 5) == 2
