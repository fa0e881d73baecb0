import math
from fractions import Fraction
from itertools import combinations

import pytest

from wolstenholme.arith import primes_upto
from wolstenholme.congruence import w_exact
from wolstenholme.errors import AssertionFailure
from wolstenholme.symmetric import (
    IntSymTable,
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
    s_pm_mod_p,
    stirling1_via_form3,
    stirling_tables,
)


def brute_elem_sym(values, k):
    if k == 0:
        return Fraction(1)
    return sum(
        (math.prod(c, start=Fraction(1)) for c in combinations(values, k)),
        start=Fraction(0),
    )


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


class TestStirling:
    def test_examples(self):
        assert stirling_tables(4).s1(4, 2) == 11
        assert stirling_tables(6).s2(6, 3) == 90
        assert stirling_tables(7).s1(7, 7) == 1
        assert stirling_tables(6).s1(6, 3) == -225

    def test_first_kind_vs_falling_factorial(self):
        # sum_k s(n,k) x^k = x(x-1)...(x-n+1)
        for n in range(0, 15):
            coeffs = [1]
            for i in range(n):
                coeffs = [0] + coeffs
                coeffs = [coeffs[j] - i * (coeffs[j + 1] if j + 1 < len(coeffs) else 0)
                          for j in range(len(coeffs))]
            st = stirling_tables(n)
            for k in range(n + 1):
                assert st.s1(n, k) == coeffs[k], (n, k)

    def test_second_kind_vs_partition_count(self):
        for n in range(0, 10):
            for k in range(0, n + 1):
                assert stirling_tables(n).s2(n, k) == brute_partitions(n, k), (n, k)

    def test_characterizations_at_integer_points(self):
        # n! C(x, n) = sum s(n,k) x^k and x^n = sum k! C(x,k) S(n,k)
        st = stirling_tables(20)
        for n in range(0, 21):
            for x in range(0, n + 1):
                falling = math.factorial(n) * math.comb(x, n)
                assert falling == sum(st.s1(n, k) * x**k for k in range(n + 1))
                assert x**n == sum(
                    math.factorial(k) * math.comb(x, k) * st.s2(n, k)
                    for k in range(n + 1)
                )


class TestIdentities:
    def test_form2_examples(self):
        for n in (4, 1, 10):
            assert check_form2(n, elem_sym_table(n), perm_sym_table(n))

    def test_form2_and_sP_sweep(self):
        st = stirling_tables(61)
        for n in range(1, 61):
            perm = perm_sym_table(n)
            assert check_form2(n, elem_sym_table(n), perm)
            assert check_sP_relation(n, perm=perm, st=st)

    def test_sP_examples(self):
        assert perm_sym_table(3)[2] == 11 == stirling_tables(4).s1(4, 2)
        assert perm_sym_table(3)[3] == 6 == -stirling_tables(4).s1(4, 1)

    def test_form3_examples(self):
        st = stirling_tables(6)
        assert stirling1_via_form3(4, 2, st) == 11
        assert stirling1_via_form3(9, 0, st) == 1
        assert stirling1_via_form3(6, 3, st) == -225

    def test_form3_cross_check(self):
        st = stirling_tables(80)
        for n in range(1, 41):
            for k in range(0, n):
                assert stirling1_via_form3(n, k, st=st) == st.s1(n, n - k), (n, k)

    def test_ident_examples(self):
        # k=2: -4*S(3,1) + S(4,2) = -4 + 7 = 3 = 3!!
        # k=3: 15*S(4,1) - 6*S(5,2) + S(6,3) = 15 - 90 + 90 = 15 = 5!!
        st = stirling_tables(6)
        assert ident_doublefact(1, st)
        assert ident_doublefact(2, st)
        assert ident_doublefact(3, st)

    def test_ident_sweep(self):
        st = stirling_tables(120)
        for k in range(1, 61):
            assert ident_doublefact(k, st=st)

    def test_form_examples(self):
        # p=3: 1 + 3*(3/2) + 9*(1/2) = 10 = w(3)
        for p in (3, 5, 7):
            assert check_form(p, elem_sym_table(p - 1))
        assert w_exact(7) == 1716

    def test_int_expansion_examples(self):
        # p=5: (15/8)/5 + 5*(1/8) = 1 = (126-1)/125
        for p in (5, 7, 11):
            assert check_int_expansion(p, elem_sym_table(p))
        assert (w_exact(11) - 1) % 11**3 == 0


class TestValuationPatterns:
    def test_bayat_p5(self):
        rep = bayat_valuations(5, elem_sym_table(4))
        assert rep.valuations == (2, 1, 1, 0)

    def test_bayat_sweep(self):
        primes = set(primes_upto(60))
        for tab in elem_sym_rows(59):
            p = tab.n + 1
            if p >= 5 and p in primes:
                rep = bayat_valuations(p, sym=tab)
                # Wolstenholme itself: v_p(S(p-1, 1)) >= 2
                assert rep.val(1) >= 2

    def test_bayat_rejects_wrong_row(self):
        # feeding the wrong row must fail loudly, not silently pass
        with pytest.raises(AssertionFailure):
            bayat_valuations(7, sym=_shifted_row())

    def test_s_pm_examples(self):
        for p in (5, 7, 11):
            assert s_pm_mod_p(p, elem_sym_table(p))

    def test_form4_examples(self):
        st = stirling_tables(10)
        assert form4_eval(5, 3, st) == Fraction(15, 8)
        assert form4_eval(5, 1, st) == elem_sym_table(5)[4] == Fraction(1, 8)
        assert form4_eval(7, 5, st) == elem_sym_table(7)[2]

    def test_form4_cross_check(self):
        st = stirling_tables(60)
        for p in (5, 7, 11, 13, 17, 19, 23):
            tab = elem_sym_table(p)
            for k in range(1, p - 1, 2):
                assert form4_eval(p, k, st=st) == tab[p - k], (p, k)

    def test_form4_rejects_even_k(self):
        with pytest.raises(ValueError):
            form4_eval(7, 2, stirling_tables(4))


class TestTablesAreRequired:
    """A check handed a table that does not fit its subject raises; it
    never builds the table it should have been given."""

    def test_row_checks_reject_wrong_n(self):
        sym6, sym7 = elem_sym_table(6), elem_sym_table(7)
        perm6, perm7 = perm_sym_table(6), perm_sym_table(7)
        st = stirling_tables(20)
        calls = [
            lambda: check_form2(6, sym7, perm6),
            lambda: check_form2(6, sym6, perm7),
            lambda: check_sP_relation(6, perm7, st),
            lambda: check_form(7, sym7),
            lambda: check_int_expansion(7, sym6),
            lambda: bayat_valuations(7, sym7),
            lambda: s_pm_mod_p(7, sym6),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_stirling_checks_reject_small_tables(self):
        with pytest.raises(IndexError):
            check_sP_relation(6, perm_sym_table(6), stirling_tables(6))
        with pytest.raises(IndexError):
            stirling1_via_form3(9, 4, stirling_tables(7))
        with pytest.raises(IndexError):
            ident_doublefact(4, stirling_tables(7))
        with pytest.raises(IndexError):
            form4_eval(11, 5, stirling_tables(9))


def _shifted_row():
    # a wrong row of the right size (n = 6 for p = 7), made by perturbing
    # one entry, so only the valuation checks can reject it
    tab = elem_sym_table(6)
    entries = list(tab.entries)
    entries[1] += 1
    return type(tab)(6, tuple(entries))
