import hashlib
import math
from collections import deque
from fractions import Fraction
from itertools import combinations, islice

import pytest

from elem_sym_oracle import elem_sym_rows_by_fractions
from stirling_oracle import s2_diagonal_by_loop, stirling_rows_by_loop
from weight_oracle import form4_by_comb, ident_sum_by_comb, stirling1_by_comb
from wolstenholme import symmetric, verify, wpoly
from wolstenholme.arith import double_factorial, num_valuation, primes_upto
from wolstenholme.congruence import w_exact
from wolstenholme.errors import AssertionFailure, DenominatorNotCoprime, ZeroNumerator
from wolstenholme.symmetric import (
    BayatReport,
    IntSymTable,
    S1Row,
    S2Diagonal,
    SymRationalTable,
    bayat_valuations,
    check_form,
    check_form2,
    check_int_expansion,
    check_sP_relation,
    elem_sym_rows,
    elem_sym_table,
    form4_eval,
    ident_doublefact,
    perm_sym_rows,
    perm_sym_table,
    s2_diagonals,
    s_pm_mod_p,
    stirling1_via_form3,
    stirling_tables,
)


def s1_row(n):
    """The first-kind row s(n, 0..n), the last that stirling_tables(n) yields."""
    return deque(stirling_tables(n), maxlen=1)[0]


def brute_elem_sym(values, k):
    if k == 0:
        return Fraction(1)
    return sum(
        (math.prod(c, start=Fraction(1)) for c in combinations(values, k)),
        start=Fraction(0),
    )


def _sym_row(n, entries):
    """The SymRationalTable of row n with the given Fraction entries, each
    held over its reduced denominator."""
    nums, dens = zip(*((e.numerator, e.denominator) for e in entries))
    return SymRationalTable(n, nums, dens)


def brute_partitions(n, k):
    # count set partitions of {1..n} into exactly k nonempty blocks
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    # grow element by element: new block or one of the existing k blocks
    table = {(0, 0): 1}
    for i in range(1, n + 1):
        new = {}
        for (m, j), cnt in table.items():
            if m != i - 1:
                continue
            new[(i, j + 1)] = new.get((i, j + 1), 0) + cnt
            if j:
                new[(i, j)] = new.get((i, j), 0) + cnt * j
        table.update(new)
    return table.get((n, k), 0)


def _perm_row_by_loop(n):
    """Row P(n, 0..n) rebuilt from scratch, as perm_sym_table once did per n."""
    row = [1]
    for i in range(1, n + 1):
        row.append(row[-1] * i)
        for k in range(len(row) - 2, 0, -1):
            row[k] += row[k - 1] * i
    return IntSymTable(n, tuple(row))


# The four S-expansion checks as they read the Fraction rows S(n, .) before
# they read the integer rows P(n, .); the oracles of the integer forms.


def _check_form_by_fractions(p, sym):
    total = sum((Fraction(p) ** k) * sym[k] for k in range(p))
    return total == w_exact(p)


def _check_int_expansion_by_fractions(p, sym):
    total = Fraction(0)
    for m in range(2, p, 2):
        total += Fraction(p) ** (m - 3) * sym[m]
    lhs = Fraction(w_exact(p) - 1, p**3)
    assert lhs.denominator == 1
    return total == lhs


def _bayat_valuations_by_fractions(p, sym):
    return BayatReport(p, tuple(num_valuation(sym[k], p) for k in range(1, p)))


def _s_pm_mod_p_by_fractions(p, sym):
    return all(num_valuation(sym[m], p) >= 1 for m in range(2, p - 2, 2))


class TestElementarySymmetric:
    def test_examples(self):
        assert elem_sym_table(4)[1] == Fraction(25, 12)
        assert elem_sym_table(5)[4] == Fraction(1, 8)
        assert elem_sym_table(9)[0] == 1
        assert elem_sym_table(3)[7] == 0

    def test_row_invariants(self):
        for n in (1, 5, 12):
            tab = elem_sym_table(n)
            assert tab[0] == 1
            assert tab[n] == Fraction(1, math.factorial(n))

    def test_brute_force_reciprocals(self):
        for n in range(1, 13):
            values = [Fraction(1, i) for i in range(1, n + 1)]
            tab = elem_sym_table(n)
            for k in range(n + 1):
                assert tab[k] == brute_elem_sym(values, k), (n, k)

    def test_brute_force_integers(self):
        for n in range(1, 13):
            values = list(range(1, n + 1))
            tab = perm_sym_table(n)
            for k in range(n + 1):
                assert tab[k] == brute_elem_sym(values, k), (n, k)

    def test_perm_examples(self):
        assert perm_sym_table(4)[2] == 35
        assert perm_sym_table(3)[3] == 6
        assert perm_sym_table(4)[1] == 10

    def test_perm_rows_match_per_n_loop_to_120(self):
        rows = list(perm_sym_rows(120))
        assert [tab.n for tab in rows] == list(range(121))
        for tab in rows:
            assert tab == _perm_row_by_loop(tab.n), tab.n
        assert perm_sym_table(120) == rows[-1]

    def test_negative_rows_rejected(self):
        for n in (-1, -5):
            with pytest.raises(ValueError):
                perm_sym_table(n)
            with pytest.raises(ValueError):
                elem_sym_table(n)
            with pytest.raises(ValueError):
                elem_sym_table(n)[0]
        with pytest.raises(ValueError):
            elem_sym_table(-3)[2]

    def test_row_passes_empty_below_zero(self):
        for n_max in (-1, -5):
            assert list(elem_sym_rows(n_max)) == []
            assert list(perm_sym_rows(n_max)) == []

    def test_form2_suite_small_bounds(self):
        from wolstenholme.verify import SuiteResult, run_suite

        for bound in (-1, 0):
            assert list(run_suite("form2", bound)) == []
        assert list(run_suite("form2", 1)) == [SuiteResult("form2", 1, True)]


def _oracle_rows(n_max):
    """The Fraction oracle's rows, each entry over its reduced denominator."""
    for n, row in enumerate(elem_sym_rows_by_fractions(n_max)):
        yield _sym_row(n, row)


def _lcms(m_max):
    """lcm(1, ..., m) for m = 0..m_max, as the product over the primes r <= m
    of the largest power of r at most m."""
    out = []
    for m in range(m_max + 1):
        total = 1
        for r in primes_upto(m):
            q = r
            while q * r <= m:
                q *= r
            total *= q
        out.append(total)
    return out


class TestElemSymPairs:
    """elem_sym_rows carries S(n, k) as N(n, k) over D(n, k), the product of
    L(n // j) over j <= k, with L(m) = lcm(1, ..., m)."""

    N_MAX = 200

    @pytest.fixture(scope="class")
    def lcm(self):
        return _lcms(self.N_MAX)

    @pytest.fixture(scope="class")
    def dens(self, lcm):
        """D(n, k) for 0 <= k <= n + 1 and n <= N_MAX."""
        out = []
        for n in range(self.N_MAX + 1):
            d = [1]
            for j in range(1, n + 2):
                d.append(d[-1] * lcm[n // j])
            out.append(d)
        return out

    def test_rows_match_fraction_oracle(self):
        rows = list(zip(elem_sym_rows(self.N_MAX), elem_sym_rows_by_fractions(self.N_MAX)))
        assert len(rows) == self.N_MAX + 1
        for n, (row, ref) in enumerate(rows):
            assert row.n == n and len(row) == len(ref) == n + 1
            assert tuple(row) == ref, n

    def test_row_denominators(self, dens):
        for row in elem_sym_rows(self.N_MAX):
            n, nfact = row.n, math.factorial(row.n)
            assert row.dens == tuple(dens[n][: n + 1])
            assert row.dens[n] == nfact
            # n! from k = n // 2 up, and below it another denominator, so
            # the numerators there are not P's
            assert all((d == nfact) == (k >= n // 2) for k, d in enumerate(row.dens))

    def test_multipliers_are_exact(self, lcm, dens):
        for n in range(1, self.N_MAX + 1):
            alpha = 1  # alpha(n, k-1)
            for k in range(1, n + 1):
                d, above, diag = dens[n][k], dens[n - 1][k], n * dens[n - 1][k - 1]
                beta, rest = divmod(lcm[n // k] * alpha, n)
                if n % k == 0:
                    alpha *= lcm[n // k] // lcm[n // k - 1]
                assert d % above == 0 and d // above == alpha, (n, k)
                assert rest == 0 and d % diag == 0 and d // diag == beta, (n, k)

    def test_bumped_numerator_fails_form2(self):
        for sym, perm in zip(elem_sym_rows(self.N_MAX), perm_sym_rows(self.N_MAX)):
            n = sym.n
            assert check_form2(n, sym, perm)
            for k in ((n - 1) // 2, (n + 1) // 2):  # below n/2, then from n/2
                nums = list(sym.nums)
                nums[k] += 1
                assert not check_form2(n, SymRationalTable(n, tuple(nums), sym.dens), perm)

    @pytest.mark.parametrize("m, r", [(4, 2), (7, 7), (9, 3), (25, 5), (32, 2)])
    def test_lcm_missing_a_prime_fails_form2(self, monkeypatch, m, r):
        # L(m) without one factor r, at a power m of r: every b = L(n // k)/g(k)
        # with n // k = m loses that r, and row m is the first to read L(m)
        real = symmetric._lcm_table

        def patched(n_max):
            table = real(n_max)
            table[m] //= r
            return table

        monkeypatch.setattr(symmetric, "_lcm_table", patched)
        results = list(verify.run_suite("form2", 60))
        assert [res.subject for res in results if not res.ok][0] == m

    @pytest.mark.parametrize("bound", [1, 5, 50, 300])
    def test_form2_suite_matches_oracle_route(self, monkeypatch, bound):
        got = [(res.subject, res.ok) for res in verify.run_suite("form2", bound)]
        monkeypatch.setattr(verify, "elem_sym_rows", _oracle_rows)
        want = [(res.subject, res.ok) for res in verify.run_suite("form2", bound)]
        assert got == want and len(got) == bound


class TestStirling:
    def test_examples(self):
        assert s1_row(4)[2] == 11
        # S(6, 3) = 90 is entry 3 of diagonal 3
        assert stirling_rows_by_loop(6)[1][6][3] == 90 == list(s2_diagonals(3))[3][3]
        assert s1_row(7)[7] == 1
        assert s1_row(6)[3] == -225

    def test_first_kind_vs_falling_factorial(self):
        # sum_k s(n,k) x^k = x(x-1)...(x-n+1)
        for n, row in enumerate(stirling_tables(14)):
            coeffs = [1]
            for i in range(n):
                coeffs = [0] + coeffs
                coeffs = [coeffs[j] - i * (coeffs[j + 1] if j + 1 < len(coeffs) else 0)
                          for j in range(len(coeffs))]
            assert row.n == n
            for k in range(n + 1):
                assert row[k] == coeffs[k], (n, k)

    def test_second_kind_vs_partition_count(self):
        s2_rows = stirling_rows_by_loop(9)[1]
        for n in range(0, 10):
            for k in range(0, n + 1):
                assert s2_rows[n][k] == brute_partitions(n, k), (n, k)

    def test_rows_match_double_loop(self):
        for n_max in (0, 1, 2, 7, 120):
            rows = list(stirling_tables(n_max))
            assert [row.n for row in rows] == list(range(n_max + 1))
            assert all(type(row) is S1Row for row in rows)
            assert tuple(row.entries for row in rows) == stirling_rows_by_loop(n_max)[0]
            assert rows[-1][n_max + 1] == 0  # past the row, as every _SymRow

    @pytest.mark.parametrize(
        "rows",
        [
            lambda: elem_sym_rows(6),
            lambda: perm_sym_rows(6),
            lambda: stirling_tables(6),
            lambda: s2_diagonals(6),
        ],
        ids=["SymRationalTable", "IntSymTable", "S1Row", "S2Diagonal"],
    )
    def test_rows_iterate_their_entries(self, rows):
        # row[k] is 0 past n and never raises, so iteration and len() must
        # come from the entries or list(row) would never end
        for row in rows():
            assert list(islice(row, row.n + 2)) == list(row.entries)  # ends
            assert list(row) == list(row.entries) and tuple(row) == row.entries
            assert len(row) == row.n + 1
            assert row[row.n + 5] == 0

    def test_rows_empty_below_zero(self):
        for n_max in (-1, -5):
            assert list(stirling_tables(n_max)) == []

    @pytest.mark.parametrize("k_max", [0, 1, 2, 7, 60])
    def test_diagonals_match_double_loop(self, k_max):
        rows = list(s2_diagonals(k_max))
        assert [row.n for row in rows] == list(range(k_max + 1))
        assert all(type(row) is S2Diagonal for row in rows)
        for row in rows:
            assert row.entries == s2_diagonal_by_loop(row.n, 2 * k_max), row.n

    def test_diagonals_vs_partition_count(self):
        for row in s2_diagonals(5):
            k = row.n
            for j in range(k + 1):
                assert row[j] == brute_partitions(j + k, j), (k, j)
            assert row[k + 1] == 0  # past the diagonal, as every _SymRow

    def test_diagonals_empty_below_zero(self):
        for k_max in (-1, -5):
            assert list(s2_diagonals(k_max)) == []

    @pytest.mark.parametrize("k_max", [-1, 0, 1, 2, 7, 60])
    def test_diagonals_down_are_the_stream_reversed(self, k_max):
        rows = list(symmetric._s2_diagonals_down(k_max))
        assert all(type(row) is S2Diagonal for row in rows)
        assert rows == list(s2_diagonals(k_max))[::-1]
        for row in rows:
            assert row.entries == s2_diagonal_by_loop(row.n, 2 * k_max), row.n

    def test_characterizations_at_integer_points(self):
        # n! C(x, n) = sum s(n,k) x^k and x^n = sum k! C(x,k) S(n,k)
        s1_rows, s2_rows = list(stirling_tables(20)), stirling_rows_by_loop(20)[1]
        for n in range(0, 21):
            for x in range(0, n + 1):
                falling = math.factorial(n) * math.comb(x, n)
                assert falling == sum(s1_rows[n][k] * x**k for k in range(n + 1))
                assert x**n == sum(
                    math.factorial(k) * math.comb(x, k) * s2_rows[n][k]
                    for k in range(n + 1)
                )


class TestIdentities:
    def test_form2_examples(self):
        for n in (4, 1, 10):
            assert check_form2(n, elem_sym_table(n), perm_sym_table(n))

    def test_form2_and_sP_sweep(self):
        s1_rows = list(stirling_tables(61))
        for n in range(1, 61):
            perm = perm_sym_table(n)
            assert check_form2(n, elem_sym_table(n), perm)
            assert check_sP_relation(n, perm=perm, s1=s1_rows[n + 1])

    def test_sP_examples(self):
        assert perm_sym_table(3)[2] == 11 == s1_row(4)[2]
        assert perm_sym_table(3)[3] == 6 == -s1_row(4)[1]

    def test_form3_examples(self):
        rows = list(s2_diagonals(3))
        assert stirling1_via_form3(4, 2, rows[2]) == 11
        assert stirling1_via_form3(9, 0, rows[0]) == 1
        assert stirling1_via_form3(6, 3, rows[3]) == -225

    def test_form3_cross_check(self):
        s1_rows, rows = list(stirling_tables(40)), list(s2_diagonals(39))
        for n in range(1, 41):
            for k in range(0, n):
                assert stirling1_via_form3(n, k, rows[k]) == s1_rows[n][n - k], (n, k)

    def test_ident_examples(self):
        # k=2: -4*S(3,1) + S(4,2) = -4 + 7 = 3 = 3!!
        # k=3: 15*S(4,1) - 6*S(5,2) + S(6,3) = 15 - 90 + 90 = 15 = 5!!
        rows = list(s2_diagonals(3))
        assert ident_doublefact(1, rows[1])
        assert ident_doublefact(2, rows[2])
        assert ident_doublefact(3, rows[3])

    def test_ident_sweep(self):
        for row in islice(s2_diagonals(60), 1, None):
            assert ident_doublefact(row.n, row)

    def test_form_examples(self):
        # p=3: 1 + 3*(3/2) + 9*(1/2) = 10 = w(3)
        for p in (3, 5, 7):
            assert check_form(p, perm_sym_table(p - 1))
        assert w_exact(7) == 1716

    def test_int_expansion_examples(self):
        # p=5: (15/8)/5 + 5*(1/8) = 1 = (126-1)/125
        for p in (5, 7, 11):
            assert check_int_expansion(p, perm_sym_table(p))
        assert (w_exact(11) - 1) % 11**3 == 0

    def test_int_expansion_needs_p_cubed(self):
        # 3^3 does not divide w(3) - 1 = 9: a claim, not a bare assert
        with pytest.raises(AssertionFailure, match="p\\^3 does not divide"):
            check_int_expansion(3, perm_sym_table(3))


def _bumped(row, j):
    """row with entry j raised by 1."""
    entries = list(row.entries)
    entries[j] += 1
    return type(row)(row.n, tuple(entries))


class TestSteppedWeights:
    """The weights stepped by exact ratios against the same sums with each
    weight built by math.comb and math.factorial, and forged rows that the
    checks must see."""

    def test_ident_matches_comb_oracle_to_200(self):
        for row in islice(s2_diagonals(200), 1, None):
            k = row.n
            for r in (row, _bumped(row, k // 2)):
                want = ident_sum_by_comb(k, r) == double_factorial(2 * k - 1)
                assert ident_doublefact(k, r) == want, (k, r is row)

    def test_form3_matches_comb_oracle_to_60(self):
        rows = list(s2_diagonals(59))
        for n in range(1, 61):
            for k in range(n):
                assert stirling1_via_form3(n, k, rows[k]) == stirling1_by_comb(n, k, rows[k]), (n, k)

    def test_form4_matches_comb_oracle_to_61(self):
        rows = list(s2_diagonals(59))
        for p in primes_upto(61):
            for k in range(1, p - 1, 2):
                assert form4_eval(p, k, rows[k]) == form4_by_comb(p, k, rows[k]), (p, k)

    @pytest.mark.parametrize("k, j", [(1, 1), (2, 1), (5, 1), (5, 3), (5, 5), (12, 7)])
    def test_bumped_entry_breaks_ident(self, k, j):
        row = list(s2_diagonals(k))[k]
        assert ident_doublefact(k, row)
        assert not ident_doublefact(k, _bumped(row, j))

    @pytest.mark.parametrize("k, j", [(1, 1), (2, 1), (5, 1), (5, 3), (5, 5), (12, 7)])
    def test_bumped_entry_moves_form3(self, k, j):
        row = list(s2_diagonals(k))[k]
        n = k + 4
        # the term moves by (-1)^j C(n+j-1, k+j) C(n+k, k-j)
        moved = (-1) ** j * math.comb(n + j - 1, k + j) * math.comb(n + k, k - j)
        got = stirling1_via_form3(n, k, _bumped(row, j))
        assert got - stirling1_via_form3(n, k, row) == moved != 0

    @pytest.mark.parametrize("k, j", [(1, 1), (5, 1), (5, 4), (5, 5), (11, 6)])
    def test_bumped_entry_moves_form4(self, k, j):
        row, p = list(s2_diagonals(k))[k], 13
        assert form4_eval(p, k, _bumped(row, j)) != form4_eval(p, k, row)
        assert form4_eval(p, k, _bumped(row, j)) == form4_by_comb(p, k, _bumped(row, j))

    def test_bumped_zero_entry_is_caught(self):
        row = list(s2_diagonals(5))[5]
        assert not ident_doublefact(5, _bumped(row, 0))
        with pytest.raises(AssertionFailure, match="j = 0 term"):
            stirling1_via_form3(9, 5, _bumped(row, 0))
        with pytest.raises(AssertionFailure, match="S2\\(k, 0\\)"):
            form4_eval(13, 5, _bumped(row, 0))

    @pytest.mark.parametrize("n, k, q", [(6, 2, 7), (6, 0, 7), (10, 5, 11), (10, 10, 2**11)])
    def test_form2_rejects_a_denominator_not_dividing_n_factorial(self, n, k, q):
        # S(n, n-k) + 1/q has a denominator that does not divide n!, so
        # n! * S is no integer, whatever P(n, k) is
        sym, perm = elem_sym_table(n), perm_sym_table(n)
        entries = list(sym.entries)
        entries[n - k] += Fraction(1, q)
        forged = _sym_row(n, entries)
        assert math.factorial(n) % forged[n - k].denominator
        assert check_form2(n, sym, perm)
        assert not check_form2(n, forged, perm)


class TestValuationPatterns:
    def test_bayat_p5(self):
        rep = bayat_valuations(5, perm_sym_table(4))
        assert rep.valuations == (2, 1, 1, 0)

    def test_bayat_sweep(self):
        primes = set(primes_upto(60))
        for tab in perm_sym_rows(59):
            p = tab.n + 1
            if p >= 5 and p in primes:
                rep = bayat_valuations(p, perm=tab)
                # Wolstenholme itself: v_p(S(p-1, 1)) >= 2
                assert rep.val(1) >= 2

    def test_bayat_rejects_wrong_row(self):
        # feeding the wrong row must fail loudly, not silently pass
        with pytest.raises(AssertionFailure):
            bayat_valuations(7, perm=_shifted_row())

    def test_shifted_row_is_a_fraction_shift(self):
        # P(6, 5) + 1 is 6!*(S(6, 1) + 1/6!), and the Fraction oracle reads
        # the valuation 0 at k = 1 that the integer check rejects
        sym = elem_sym_table(6)
        entries = list(sym.entries)
        entries[1] += Fraction(1, math.factorial(6))
        shifted = _sym_row(6, entries)
        assert check_form2(6, shifted, _shifted_row())
        assert _bayat_valuations_by_fractions(7, shifted).val(1) == 0

    def test_zero_entry_has_no_valuation(self):
        entries = list(perm_sym_table(6).entries)
        entries[5] = 0
        with pytest.raises(ZeroNumerator):
            bayat_valuations(7, IntSymTable(6, tuple(entries)))
        entries = list(perm_sym_table(7).entries)
        entries[5] = 0  # P(7, 7-2) = 7!*S(7, 2)
        with pytest.raises(ZeroNumerator):
            s_pm_mod_p(7, IntSymTable(7, tuple(entries)))

    def test_s_pm_denominator_divisible(self):
        # v_7(P(7, 5)) = 0 would put 7 in the reduced denominator of S(7, 2)
        entries = list(perm_sym_table(7).entries)
        entries[5] += 1
        assert entries[5] % 7
        with pytest.raises(DenominatorNotCoprime):
            s_pm_mod_p(7, IntSymTable(7, tuple(entries)))

    def test_s_pm_examples(self):
        for p in (5, 7, 11):
            assert s_pm_mod_p(p, perm_sym_table(p))

    def test_form4_examples(self):
        rows = list(s2_diagonals(5))
        assert form4_eval(5, 3, rows[3]) == Fraction(15, 8)
        assert form4_eval(5, 1, rows[1]) == elem_sym_table(5)[4] == Fraction(1, 8)
        assert form4_eval(7, 5, rows[5]) == elem_sym_table(7)[2]

    def test_form4_cross_check(self):
        rows = list(s2_diagonals(21))
        for p in (5, 7, 11, 13, 17, 19, 23):
            tab = elem_sym_table(p)
            for k in range(1, p - 1, 2):
                assert form4_eval(p, k, rows[k]) == tab[p - k], (p, k)

    def test_form4_times_factorial_is_perm_row(self):
        # the form4 suite's comparison: p!*S(p, p-k) = P(p, k)
        rows = list(s2_diagonals(29))
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            perm = perm_sym_table(p)
            for k in range(1, p - 1, 2):
                assert form4_eval(p, k, rows[k]) * math.factorial(p) == perm[k], (p, k)

    def test_form4_rejects_even_k(self):
        with pytest.raises(ValueError):
            form4_eval(7, 2, list(s2_diagonals(2))[2])


class TestTablesAreRequired:
    """A check handed a table that does not fit its subject raises; it
    never builds the table it should have been given."""

    def test_row_checks_reject_wrong_n(self):
        sym6, sym7 = elem_sym_table(6), elem_sym_table(7)
        perm6, perm7 = perm_sym_table(6), perm_sym_table(7)
        s1_7 = s1_row(7)
        calls = [
            lambda: check_form2(6, sym7, perm6),
            lambda: check_form2(6, sym6, perm7),
            lambda: check_sP_relation(6, perm7, s1_7),
            lambda: check_form(7, perm7),
            lambda: check_int_expansion(7, perm6),
            lambda: bayat_valuations(7, perm7),
            lambda: s_pm_mod_p(7, perm6),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_row_checks_reject_wrong_kind(self):
        # a Fraction row where an integer row is read, or the reverse; any
        # row but a first-kind one where s(n+1, .) is read
        sym6, sym7, perm6 = elem_sym_table(6), elem_sym_table(7), perm_sym_table(6)
        s1_7 = s1_row(7)
        calls = [
            lambda: check_form2(6, perm6, perm6),
            lambda: check_sP_relation(6, sym6, s1_7),
            lambda: check_sP_relation(6, perm6, IntSymTable(7, s1_7.entries)),
            lambda: check_sP_relation(6, perm6, list(s2_diagonals(7))[7]),
            lambda: check_sP_relation(6, perm6, stirling_tables(7)),
            lambda: check_form(7, sym6),
            lambda: check_int_expansion(7, sym7),
            lambda: bayat_valuations(7, sym6),
            lambda: s_pm_mod_p(7, sym7),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_stirling_checks_reject_small_tables(self):
        # a first-kind row one short of the subject's s(n+1, .); a diagonal
        # of the second kind for another k
        with pytest.raises(ValueError, match="need row 7, got row 6"):
            check_sP_relation(6, perm_sym_table(6), s1_row(6))
        rows = list(s2_diagonals(5))
        with pytest.raises(ValueError):
            stirling1_via_form3(9, 4, rows[3])
        with pytest.raises(ValueError):
            ident_doublefact(4, rows[3])
        with pytest.raises(ValueError):
            form4_eval(11, 5, rows[4])

    # each reader of a second-kind diagonal, called at k = 5
    _DIAGONAL_READERS = {
        "form3": lambda row: stirling1_via_form3(9, 5, row),
        "ident": lambda row: ident_doublefact(5, row),
        "form4": lambda row: form4_eval(11, 5, row),
        "wpoly": lambda row: wpoly._inner(5, row),
    }

    @pytest.mark.parametrize("reader", sorted(_DIAGONAL_READERS))
    def test_diagonal_readers_reject_wrong_k(self, reader):
        call = self._DIAGONAL_READERS[reader]
        rows = list(s2_diagonals(6))
        call(rows[5])  # the right row is read
        for k in (4, 6):
            with pytest.raises(ValueError, match=f"need row 5, got row {k}"):
                call(rows[k])

    @pytest.mark.parametrize("reader", sorted(_DIAGONAL_READERS))
    def test_diagonal_readers_reject_wrong_kind(self, reader):
        call = self._DIAGONAL_READERS[reader]
        row = list(s2_diagonals(5))[5]
        for wrong in (IntSymTable(5, row.entries), row.entries, S1Row(5, row.entries)):
            with pytest.raises(TypeError):
                call(wrong)


class TestIntegerRowsMatchFractionRows:
    """The integer-row checks agree with their Fraction-row oracles at
    every prime 5 <= p <= 200."""

    @pytest.fixture(scope="class")
    def rows(self):
        return list(zip(elem_sym_rows(200), perm_sym_rows(200)))

    @staticmethod
    def _primes():
        return [p for p in primes_upto(200) if p >= 5]

    def test_rows_are_scaled_fractions(self, rows):
        # n!*S(n, k) = P(n, n-k): the relation every conversion rests on
        for sym, perm in rows:
            nfact = math.factorial(sym.n)
            assert all(sym[k] * nfact == perm[sym.n - k] for k in range(sym.n + 1))

    def test_form(self, rows):
        for p in self._primes():
            sym, perm = rows[p - 1]
            assert check_form(p, perm) is _check_form_by_fractions(p, sym) is True

    def test_int_expansion(self, rows):
        for p in self._primes():
            sym, perm = rows[p]
            got = check_int_expansion(p, perm)
            assert got is _check_int_expansion_by_fractions(p, sym) is True

    def test_bayat_valuations(self, rows):
        for p in self._primes():
            sym, perm = rows[p - 1]
            rep = bayat_valuations(p, perm)
            assert rep == _bayat_valuations_by_fractions(p, sym), p

    def test_s_pm_mod_p(self, rows):
        for p in self._primes():
            sym, perm = rows[p]
            assert s_pm_mod_p(p, perm) is _s_pm_mod_p_by_fractions(p, sym) is True


def _shifted_row():
    # a wrong row of the right size (n = 6 for p = 7), made by perturbing
    # one entry, so only the valuation checks can reject it
    tab = perm_sym_table(6)
    entries = list(tab.entries)
    entries[5] += 1  # P(6, 5) = 6!*S(6, 1)
    return type(tab)(6, tuple(entries))


class TestStirlingKindsBuilt:
    """Only form2 and form3 read the first kind, each as one stream of rows
    read once and in order; the second kind is streamed by diagonal."""

    @pytest.fixture
    def built(self, monkeypatch):
        """(n_max, the n of each row yielded) of every first-kind stream read
        meanwhile."""
        streams = []
        real = symmetric.stirling_tables

        def spy(n_max):
            read = []
            streams.append((n_max, read))
            for row in real(n_max):
                read.append(row.n)
                yield row

        for module in (symmetric, verify):
            monkeypatch.setattr(module, "stirling_tables", spy)
        return streams

    @pytest.mark.parametrize(
        "suite, bound, kinds",
        [
            ("ident", 40, []),
            ("form4", 31, []),
            ("wpoly", 23, []),
            ("form2", 40, [(41, list(range(42)))]),
            ("form3", 12, [(12, list(range(13)))]),
        ],
    )
    def test_suites(self, built, suite, bound, kinds):
        assert all(r.ok for r in verify.run_suite(suite, bound))
        assert built == kinds

    def test_construct_W(self, built):
        wpoly.construct_W(13)
        assert built == []


# sha256 of repr([(subject, ok, detail), ...]) of each suite that reads
# Stirling numbers, at its default bound, taken before the triangles were
# built on first read and before either kind was streamed
SUITE_DIGESTS = {
    "form2": "d2898b4f9d77380f3f8a5eb534bb1e62c28a94ce6096f8b6c1b1dfa3439a21f5",
    "form3": "82e9a13b2d138111c77c7a8109736ab4e6b93c487d51e647f4fc68bc6bca49a6",
    "form4": "b7f4d6e4d0a1e95ca7de8d6fea26916e22898c4b8ae96dbc6a7334e220436707",
    "ident": "d2898b4f9d77380f3f8a5eb534bb1e62c28a94ce6096f8b6c1b1dfa3439a21f5",
    "wpoly": "b7f4d6e4d0a1e95ca7de8d6fea26916e22898c4b8ae96dbc6a7334e220436707",
}


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_suite_results_pinned(suite):
    rows = [(r.subject, r.ok, r.detail) for r in verify.run_suite(suite)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SUITE_DIGESTS[suite]
