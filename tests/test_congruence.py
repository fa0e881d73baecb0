import math
import random
from fractions import Fraction

import pytest

from wolstenholme import congruence
from wolstenholme.arith import is_prime, primes_in, primes_upto
from wolstenholme.congruence import (
    _divisors,
    _factorial_residues,
    _prod_tree,
    _w_from_factorials,
    _wprime_parts,
    divisor_product_check,
    divisor_product_checks,
    factor_band_classify,
    is_wolstenholme_prime,
    jones_check,
    mcintosh_check,
    pair_criterion,
    pair_direct_check,
    w_at,
    w_exact,
    w_mod,
    wilson_residue,
    wilson_restatement_checks,
    wprime_exact,
    wprime_mod,
)
from wolstenholme.errors import BudgetExceeded, PreconditionViolated
from w_oracle import w_iter
from wprime_oracle import wprime_parts_by_masks


class _CarriedFactorial:
    """n! exactly for non-decreasing n: the first call computes it, each later
    call extends the previous value by one math.prod over the gap.  The
    wilson, wilson-cube and jones scans once carried their factorials so;
    it is the oracle for _factorial_residues."""

    def __init__(self):
        self.n: int | None = None
        self.value = 1

    def at(self, n: int) -> int:
        if self.n is None:
            self.value = math.factorial(n)
        else:
            self.value *= math.prod(range(self.n + 1, n + 1))
        self.n = n
        return self.value


def wilson_restatement_check(n: int) -> bool:
    """Check (2n-1)!/n! = (n-1)! (mod n) by two modular products; the
    per-n oracle of wilson_restatement_checks."""
    if n < 2:
        raise ValueError("requires n >= 2")
    lhs = rhs = 1
    for k in range(1, n):
        lhs = lhs * (n + k) % n
        rhs = rhs * k % n
    return lhs == rhs


def _w_mod_cube(p: int, low: _CarriedFactorial, high: _CarriedFactorial) -> int:
    """w(p) mod p^3 for a prime p by w(p) = ((2p-1)!/p) / ((p-1)!)^2, from
    exact factorials."""
    m = p**3
    top = high.at(2 * p - 1) % (m * p) // p  # p divides (2p-1)! exactly once
    bottom = low.at(p - 1) % m
    return top * pow(bottom * bottom, -1, m) % m


class TestWExact:
    def test_examples(self):
        assert w_exact(1) == 1
        assert w_exact(5) == 126
        assert w_exact(13) == 5200300

    def test_equals_half_central_binomial(self):
        for n in range(1, 60):
            assert 2 * w_exact(n) == math.comb(2 * n, n)

    @pytest.mark.stretch
    def test_w_exact_at_a_million(self):
        # about 40 s in math.comb, the oracle, and 0.4 s from the primes
        m = 10**6
        assert w_exact(m) == math.comb(2 * m - 1, m - 1)

    def test_iter_matches_exact(self):
        full = list(w_iter(200))
        for n, w in full:
            assert w == w_exact(n)
        # entered mid-range, the recurrence continues the run from 1
        for start in (2, 5, 137, 200, 201):
            assert list(w_iter(200, start)) == full[start - 1:]


# w(n) for n = 1..240 from the one-step recurrence, the oracle of the two
# kernels that advance it by gaps and blocks
_W = dict(w_iter(240))


class TestWAt:
    @pytest.mark.parametrize("gaps", [[1], [2, 1, 3], [16, 17, 15], [1, 39]])
    def test_every_start(self, gaps):
        for start in range(1, 201):
            points = [start]
            while points[-1] + gaps[len(points) % len(gaps)] <= 240:
                points.append(points[-1] + gaps[len(points) % len(gaps)])
            assert list(w_at(points)) == [(n, _W[n]) for n in points], start

    def test_primes(self):
        ps = list(primes_in(2, 240))
        assert list(w_at(ps)) == [(p, _W[p]) for p in ps]
        assert list(w_at(iter(ps[5:]))) == [(p, _W[p]) for p in ps[5:]]

    def test_no_points(self):
        assert list(w_at([])) == []

    @pytest.mark.parametrize("start", [902, 2601, 17001])
    def test_entered_above_crossover(self, start):
        # the first point's w is built from its prime exponents
        points = [start, start + 1, start + 4]
        assert list(w_at(points)) == [(m, math.comb(2 * m - 1, m - 1)) for m in points]

    @pytest.mark.parametrize("points", [[0, 3], [-2], [5, 5], [7, 4]])
    def test_bad_points_raise(self, points):
        with pytest.raises(ValueError):
            list(w_at(points))


class TestWPowerResidues:
    @pytest.mark.parametrize("e", [3, 5])
    def test_filter_against_oracle(self, e):
        # n is struck exactly when a prime q <= isqrt(5000) dividing it has
        # w(n) != 1 (mod q), which no prime n has; every other n gets
        # w(n) mod n^e
        qs = primes_upto(math.isqrt(5000))
        got = list(congruence._w_power_residues(2, 5000, e))
        struck = []
        for (n, residue), (_, w) in zip(got, w_iter(5000, 2), strict=True):
            if any(n % q == 0 and w % q != 1 for q in qs):
                assert not is_prime(n) and residue is None, n
                struck.append(n)
            else:
                assert residue == w % n**e, n
        assert 6 in struck and 333 not in struck  # 333 = 3^2 * 37 is kept

    @pytest.mark.parametrize("lo", [1, 2, 3, 4, 48, 49, 50, 120, 121, 122, 200, 201])
    def test_entered_anywhere(self, lo):
        full = list(congruence._w_power_residues(1, 200, 3))
        assert list(congruence._w_power_residues(lo, 200, 3)) == full[lo - 1 :]

    @pytest.mark.parametrize("lo", [0, -5])
    def test_start_below_one_raises(self, lo):
        with pytest.raises(ValueError):
            list(congruence._w_power_residues(lo, 20, 3))


class TestWMinusOneGcds:
    """The kernel both pairs and new-conjecture read, against pair_criterion,
    the oracle of the left half w(p) = 1 (mod q)."""

    PS = list(primes_in(3, 60))
    QS = primes_upto(600)

    def _gcds(self, primorial):
        return list(congruence._w_minus_one_gcds(self.PS, primorial))

    def test_m_has_no_power_of_p(self):
        primorial = math.prod(self.QS)
        for p, m, g in self._gcds(primorial):
            power, rest = divmod(w_exact(p) - 1, m)
            assert rest == 0 and m % p and power in {p**v for v in range(8)}, p
            assert g == math.gcd(m, primorial), p

    def test_left_halves_against_criterion(self):
        lefts = 0
        for p, _, g in self._gcds(math.prod(self.QS)):
            for q in self.QS[1:]:  # pair_criterion takes primes >= 3
                if q != p:
                    left = pair_criterion(p, q, 1).left
                    assert (g % q == 0) == left, (p, q)
                    lefts += left
        assert lefts == 18

    def test_dropped_prime_changes_its_halves(self):
        # with q left out of P the kernel misses exactly q: every left half
        # that held at q now reads false, and g loses q and nothing else
        full = self._gcds(math.prod(self.QS))
        dropped_qs = sorted({q for p, _, g in full for q in self.QS if q != p and g % q == 0})
        assert len(dropped_qs) == 13  # 3, 5, 13, ..., 433
        for q in dropped_qs:
            for (p, _, g), (_, _, g_dropped) in zip(full, self._gcds(math.prod(self.QS) // q)):
                assert g_dropped == g // math.gcd(g, q), (p, q)
                if g % q == 0:
                    assert (g_dropped % q == 0) != pair_criterion(p, q, 1).left, (p, q)

    def test_squares_against_plain(self):
        # new-conjecture's squares gcd(m // g, g) are the q != p with q^2 | w(p) - 1
        squares = {}
        for p, m, g in self._gcds(math.prod(self.QS)):
            plain = math.prod(q for q in self.QS if q != p and (w_exact(p) - 1) % (q * q) == 0)
            assert math.gcd(m // g, g) == plain, p
            squares[p] = plain
        assert squares[13] == 3 and squares[5] == 1


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
        assert w_mod(5, 125) == 1
        assert w_mod(7, 5) == 1
        assert w_mod(5, 7) == 0

    def test_both_strategies_match_exact(self):
        # moduli sharing small factors with the range take the CRT route,
        # large-prime moduli take the product route
        for n in range(1, 80):
            w = w_exact(n)
            moduli = (4, 9, 30, 64, n * n + 1, 101, 997, n**3 if n > 1 else 8)
            for m in moduli + _gate_moduli(n):
                assert w_mod(n, m) == w % m, (n, m)

    def test_prime_power_of_subject(self):
        # modulus p^e with n = p: (p-1)! is a unit, so the product route runs
        for p in (5, 7, 11, 13, 101):
            assert w_mod(p, p**3) == w_exact(p) % p**3

    def test_unfactorable_modulus(self):
        # two large primes: trial division cannot split m, and n is past the
        # exact fallback of binomial_mod, but (n-1)! is a unit mod m
        n, m = 200_001, (2**61 - 1) * (2**89 - 1)
        assert w_mod(n, m) == math.comb(2 * n - 1, n - 1) % m


class TestWPrime:
    def test_examples(self):
        assert wprime_exact(1) == 1
        assert wprime_exact(3) == 10
        assert wprime_exact(4) == Fraction(35, 3)

    def test_prime_agrees_with_w(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert wprime_exact(p) == w_exact(p)

    def test_mod_examples(self):
        assert wprime_mod(3, 9) == 1
        assert wprime_mod(35, 35**3) == 1  # pair generalization at pq = 35
        assert wprime_mod(25, 5**4) == 1  # prime-square case

    def test_mod_matches_exact_fraction(self):
        for n in (4, 6, 9, 10, 12, 25):
            m = n * n
            r = wprime_exact(n)
            expected = r.numerator * pow(r.denominator, -1, m) % m
            assert wprime_mod(n, m) == expected

    def test_mod_precondition(self):
        with pytest.raises(PreconditionViolated):
            wprime_mod(6, 35)  # 5 and 7 do not divide 6
        with pytest.raises(PreconditionViolated):
            wprime_mod(6, (2**61 - 1) * (2**89 - 1))  # too large to factor
        with pytest.raises(PreconditionViolated):
            wprime_mod(12, 2**20 * 5)  # 2 divides 12, 5 does not

    @pytest.mark.parametrize("m", [1, 0, -7])
    def test_mod_rejects_modulus_below_two(self, m):
        # raised by wprime_mod itself, before the O(n) product; without it
        # m = 1 gives 0 after that product, m = 0 fails in pow and m < 0 in
        # the precondition
        with pytest.raises(ValueError, match=f"^modulus must be >= 2, got {m}$") as exc:
            wprime_mod(10**6, m)
        assert exc.traceback[-1].name == "wprime_mod"


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

    def test_wprime_parts_match_mask_oracle_to_2000(self):
        assert list(_wprime_parts(2000)) == list(wprime_parts_by_masks(2000))

    def test_wprime_parts_read_neither_w_nor_factorials(self, monkeypatch):
        # rel checks w(n) = prod of w'(d); a w'(d) built from w(n), a
        # binomial or a factorial would make that check a tautology
        def refuse(*args):
            raise AssertionError("_wprime_parts must not read w(n) or factorials")

        oracle = list(wprime_parts_by_masks(600))
        monkeypatch.setattr(congruence, "w_at", refuse)
        monkeypatch.setattr(congruence, "w_exact", refuse)
        monkeypatch.setattr(math, "comb", refuse)
        monkeypatch.setattr(math, "factorial", refuse)
        assert list(_wprime_parts(600)) == oracle

    @pytest.mark.stretch
    def test_wprime_parts_and_relation_to_6000(self):
        assert list(_wprime_parts(6000)) == list(wprime_parts_by_masks(6000))
        assert [n for n, ok in divisor_product_checks(6000) if not ok] == []

    def test_reads_w_from_the_recurrence(self, monkeypatch):
        # a w(n) off by one at a single n must fail there and nowhere else
        real = congruence.w_at

        def skewed(points):
            for n, w in real(points):
                yield n, w + (n == 360)

        monkeypatch.setattr(congruence, "w_at", skewed)
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
            assert _prod_tree(xs[:n], 2) == math.prod(xs[:n]), n


def _factorials_mod(points, moduli):
    """x! mod m for each (x, m), directly and from the carried oracle; the
    two must agree."""
    direct = [math.factorial(x) % m for x, m in zip(points, moduli)]
    fact = _CarriedFactorial()
    assert [fact.at(x) % m for x, m in zip(points, moduli)] == direct
    return direct


class TestFactorialResidues:
    """The remainder-tree kernel against math.factorial and the carried
    factorial it replaced in the scans."""

    @staticmethod
    def _check(points, moduli):
        assert list(_factorial_residues(points, moduli)) == _factorials_mod(points, moduli)

    def test_no_points(self):
        assert list(_factorial_residues([], [])) == []

    @pytest.mark.parametrize("x", [0, 1, 2, 5, 97, 1000])
    def test_single_point(self, x):
        self._check([x], [10**9 + 7])

    def test_zero_and_one(self):
        self._check([0, 0, 1, 1, 2], [2, 1, 3, 5, 7])

    def test_repeated_points(self):
        self._check([3, 3, 3, 10, 10, 50, 50, 50], [7, 8, 9, 11**3, 13**2, 2**64, 3**40, 5])

    @pytest.mark.parametrize("count", range(1, 101))
    def test_event_counts(self, count):
        # counts off a multiple of the leaf block, with gaps, repeats and
        # moduli from 1 to 60 digits
        rng = random.Random(count)
        points = sorted(rng.randrange(0, 4 * count) for _ in range(count))
        moduli = [rng.randrange(1, 10 ** rng.randrange(1, 61)) for _ in range(count)]
        self._check(points, moduli)

    def test_entered_high(self):
        # as a resume enters: the first point far above 2
        ps = list(primes_in(5003, 7000))
        self._check([p - 1 for p in ps], [p**3 for p in ps])

    def test_nothing_before_first_next(self):
        class Unread(list):
            def __len__(self):
                raise AssertionError("read before the first next()")

        residues = _factorial_residues(Unread([4]), Unread([7]))
        with pytest.raises(AssertionError):
            next(residues)

    @pytest.mark.parametrize("lo", [2, 1500])
    def test_scan_residues_against_carried(self, lo):
        # the residues wilson, wilson-cube and jones read, against the
        # carried verdicts and w(p) mod p^3 they replaced
        ps = list(primes_in(lo, 3000))
        for e in (2, 3):
            fact = _CarriedFactorial()
            residues = _factorial_residues([p - 1 for p in ps], [p**e for p in ps])
            for p, r in zip(ps, residues):
                assert r == fact.at(p - 1) % p**e, (p, e)
        lows = _factorial_residues([p - 1 for p in ps], [p**3 for p in ps])
        highs = _factorial_residues([2 * p - 1 for p in ps], [p**4 for p in ps])
        low_c, high_c = _CarriedFactorial(), _CarriedFactorial()
        for p, low, high in zip(ps, lows, highs):
            assert _w_from_factorials(p, low, high) == _w_mod_cube(p, low_c, high_c)


class TestWilson:
    def test_wilson_primes(self):
        assert wilson_residue(5, 2) == 5**2 - 1
        assert wilson_residue(13, 2) == 13**2 - 1
        assert wilson_residue(563, 2) == 563**2 - 1

    def test_composite_residue_zero(self):
        assert wilson_residue(8, 1) == 0

    def test_prime_iff_for_small_n(self):
        for n in range(2, 500):
            assert (wilson_residue(n, 1) == n - 1) == is_prime(n)

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
        assert jones_check(5)
        assert not jones_check(4)  # 35 mod 64
        assert not jones_check(25)

    def test_jones_small_sweep(self):
        for n in range(2, 300):
            expected = n >= 5 and is_prime(n)
            assert jones_check(n) == expected, n

    def test_wolstenholme_prime_examples(self):
        assert is_wolstenholme_prime(16843)
        assert not is_wolstenholme_prime(5)
        assert not is_wolstenholme_prime(11)

    def test_mcintosh_examples(self):
        assert mcintosh_check(7)
        assert not mcintosh_check(25) and w_mod(25, 625) == 126  # w(25) = w(5) (mod 625)
        assert not mcintosh_check(4) and w_mod(4, 16) == 3

    def test_mcintosh_prime_square_derivation(self):
        # the w(p^2) = w(p) (mod p^4) step is asserted inside the check
        for p in (3, 5, 7, 11):
            assert mcintosh_check(p * p) == (w_exact(p) % p**4 == 1)
            assert w_mod(p * p, p**4) == w_exact(p) % p**4

    def test_squares_and_cubes_mod_n(self):
        # w(n) = 1 (mod n) for n = p^2 (odd p <= 97) and n = p^3 (5 <= p <= 31)
        for p in primes_upto(97):
            if p == 2:
                continue
            n = p * p
            assert w_mod(n, n) == 1, p
        for p in primes_upto(31):
            if p < 5:
                continue
            n = p**3
            assert w_mod(n, n) == 1, p

    def test_wolstenholme_prime_not_mod_fifth_power(self):
        # 16843 passes at p^4 but not at p^5
        assert w_mod(16843, 16843**4) == 1
        assert w_mod(16843, 16843**5) != 1


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
                assert b.actual_divides == (w_mod(p, b.q) == 0), (p, b.q)

    def test_band_geometry(self):
        for b in factor_band_classify(37):
            assert b.q >= math.isqrt(2 * 37 - 1)
            assert b.interval[0] < b.q <= b.interval[1]
            assert b.band == (2 * 37 - 1) // b.q
