"""Elementary symmetric functions and Stirling numbers, with the identity
battery connecting them to w(p).

S(n, k) here (lowercase s reserved for Stirling numbers of the first kind)
denotes the k-th elementary symmetric function of {1, 1/2, ..., 1/n}, and
P(n, k) the same over {1, ..., n}.  All arithmetic is exact; there is no
floating point anywhere in this module.  Table builders return immutable
values and keep no module-level caches; the first-kind Stirling numbers
are streamed one row s(n, .) at a time, and the second kind along its
diagonals S(j+k, j), one k at a time.  Every identity check takes the row
it reads as a required argument and never builds one: a row of the wrong n
or k raises ValueError, and a row of the wrong kind TypeError.

The expansions of w(p) in S(n, k) (check_form, check_int_expansion,
bayat_valuations, s_pm_mod_p) read integer rows: n!*S(n, k) = P(n, n-k),
so each claim is checked, multiplied through by a factorial, on an
IntSymTable.  Only check_form2, which checks that very relation, reads
the rows of elem_sym_rows, which hold each S(n, k) as an integer
numerator over a denominator D(n, k) known in advance; below k = n/2,
D(n, k) is not n!, so those rows are not P's rows rescaled.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .arith import double_factorial, valuation
from .congruence import w_exact
from .errors import AssertionFailure, DenominatorNotCoprime, ZeroNumerator

__all__ = [
    "SymRationalTable",
    "IntSymTable",
    "S1Row",
    "S2Diagonal",
    "elem_sym_table",
    "elem_sym_rows",
    "perm_sym_rows",
    "perm_sym_table",
    "stirling_tables",
    "s2_diagonals",
    "check_form2",
    "check_sP_relation",
    "stirling1_via_form3",
    "ident_doublefact",
    "check_form",
    "check_int_expansion",
    "BayatReport",
    "bayat_valuations",
    "s_pm_mod_p",
    "form4_eval",
]


@dataclass(frozen=True)
class _SymRow:
    """Row n of a table's values; 0 of the entries' type past n.  Iteration
    and len() cover the entries only, as row[k] never raises past n."""

    n: int
    entries: tuple  # entries[k] for 0 <= k <= n

    def __getitem__(self, k: int):
        if k < 0:
            raise IndexError(k)
        return self.entries[k] if k <= self.n else self.entries[0] * 0

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SymRationalTable:
    """Row n of S(n, k), over {1, 1/2, ..., 1/n}, held as integer pairs:
    S(n, k) = nums[k]/dens[k] for 0 <= k <= n, not reduced.  row[k],
    iteration and entries give each entry as a Fraction in lowest terms,
    built when it is read; row[k] is 0 past n, as in the other row types."""

    n: int
    nums: tuple
    dens: tuple

    @property
    def entries(self) -> tuple:
        return tuple(self)

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError(k)
        return Fraction(self.nums[k], self.dens[k]) if k <= self.n else Fraction(0)

    def __iter__(self):
        return map(Fraction, self.nums, self.dens)

    def __len__(self) -> int:
        return len(self.nums)


class IntSymTable(_SymRow):
    """Row n of P(n, k), over {1, ..., n}; int entries."""


class S2Diagonal(_SymRow):
    """Diagonal k of the second-kind Stirling numbers: entries[j] = S(j+k, j)
    for 0 <= j <= k; int entries."""


class S1Row(_SymRow):
    """Row n of the signed first-kind Stirling numbers, the coefficients of
    the falling factorial: entries[k] = s(n, k); int entries."""


def stirling_tables(n_max: int):
    """Yield S1Row(n, (s(n, 0), ..., s(n, n))) for n = 0..n_max, nothing
    for n_max < 0.

    One working row is updated in place from k = n down by
    s(n, k) = s(n-1, k-1) - (n-1)*s(n-1, k), from s(0, 0) = 1; s(n, 0) = 0
    for n >= 1.
    """
    row = [1]
    for n in range(n_max + 1):
        if n:
            row.append(0)
            for k in range(n, 0, -1):
                row[k] = row[k - 1] - (n - 1) * row[k]
            row[0] = 0
        yield S1Row(n, tuple(row))


def s2_diagonals(k_max: int):
    """Yield S2Diagonal(k, (S(k, 0), S(k+1, 1), ..., S(2k, k))) for
    k = 0..k_max, nothing for k_max < 0.

    With T(k)[j] = S(j+k, j), S(n, j) = j*S(n-1, j) + S(n-1, j-1) reads
    T(k)[j] = j*T(k-1)[j] + T(k)[j-1], from T(0)[j] = 1 and T(k)[0] = 0
    for k >= 1.  Row k reads row k-1 up to j = k, so one working row holds
    all k_max + 1 entries and diagonal k is its first k + 1.
    """
    row = [1] * (k_max + 1)
    for k in range(k_max + 1):
        if k:
            row[0] = 0
            for j in range(1, k_max + 1):
                row[j] = j * row[j] + row[j - 1]
        yield S2Diagonal(k, tuple(row[: k + 1]))


def _s2_diagonals_down(k_max: int):
    """Yield the diagonals of s2_diagonals(k_max) in reverse, k = k_max down
    to 0, from one working row.

    The recurrence read backwards, T(k-1)[j] = (T(k)[j] - T(k)[j-1])/j,
    divides exactly, so a reader that walks k downward holds one diagonal
    rather than all k_max + 1 of them.
    """
    top = None
    for top in s2_diagonals(k_max):
        pass
    if top is None:
        return
    row = list(top.entries)
    for k in range(k_max, -1, -1):
        if k < k_max:
            row.pop()
            for j in range(k, 0, -1):
                row[j] = (row[j] - row[j - 1]) // j
            row[0] = int(k == 0)
        yield S2Diagonal(k, tuple(row))


def _lcm_table(n_max: int) -> list[int]:
    """L(m) = lcm(1, ..., m) for m = 0..n_max, with L(0) = 1."""
    return list(accumulate(range(1, n_max + 1), math.lcm, initial=1))


def elem_sym_rows(n_max: int):
    """Yield SymRationalTable for n = 0..n_max, nothing for n_max < 0.

    Row n holds N(n, k) = S(n, k)*D(n, k) over D(n, k), the product of
    L(n // j) over j <= k, with L(m) = lcm(1, ..., m): among k distinct
    i <= n, the j-th largest power of a prime dividing one of them has j
    multiples at most n, so it divides L(n // j).  D(n, n) = n! (Legendre).
    S(n, k) = S(n-1, k) + S(n-1, k-1)/n reads
    N(n, k) = a*N(n-1, k) + b*N(n-1, k-1) with a = D(n, k)/D(n-1, k) =
    n/g(k+1) and b = D(n, k)/(n*D(n-1, k-1)) = L(n // k)/g(k), where g(k)
    is the product of L(d)/L(d-1) over the divisors d <= n/k of n.  That
    ratio is r for d a power of the prime r, else 1, so g(k) divides both
    n (the product over all d) and L(n // k): no entry takes a gcd or
    builds a Fraction.

    For k >= n // 2, D(n, k) = n!, and for k > n/2 a = n and b = 1: there
    the route takes the steps of perm_sym_rows.  Below n // 2, D(n, k) is
    not n!, so the values those steps start from are reached its own way.
    """
    lcm = _lcm_table(n_max)
    row = [1]
    for n in range(n_max + 1):
        h = n // 2
        if n:
            row.append(0)
            for k in range(n, h, -1):
                row[k] = n * row[k] + row[k - 1]
            g = 1  # g(h+1): the one divisor d < 2 of n is 1, with L(1)/L(0) = 1
            for k in range(h, 0, -1):
                q = n // k
                gk = g * (lcm[q] // lcm[q - 1]) if q * k == n else g
                row[k] = n // g * row[k] + lcm[q] // gk * row[k - 1]
                g = gk
        quotients = map(n.__floordiv__, range(1, h + 1))
        dens = list(accumulate(map(lcm.__getitem__, quotients), mul, initial=1))
        dens += [dens[h]] * (n - h)  # D(n, k) = n! for k >= h
        yield SymRationalTable(n, tuple(row), tuple(dens))


def elem_sym_table(n: int) -> SymRationalTable:
    """The full row S(n, 0..n)."""
    if n < 0:
        raise ValueError(n)
    return deque(elem_sym_rows(n), maxlen=1)[0]


def perm_sym_rows(n_max: int):
    """Yield IntSymTable for n = 0..n_max, built by the row recurrence
    P(n, k) = P(n-1, k) + n*P(n-1, k-1); nothing for n_max < 0."""
    row = [1]
    for n in range(n_max + 1):
        if n:
            row.append(row[-1] * n)
            for k in range(n - 1, 0, -1):
                row[k] += row[k - 1] * n
        yield IntSymTable(n, tuple(row))


def perm_sym_table(n: int) -> IntSymTable:
    """The full row P(n, 0..n)."""
    if n < 0:
        raise ValueError(n)
    return deque(perm_sym_rows(n), maxlen=1)[0]


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------


def _row(table, n: int, kind: type = IntSymTable):
    """table, after checking that it is row n of the given kind."""
    if not isinstance(table, kind):
        raise TypeError(f"need a {kind.__name__}, got {type(table).__name__}")
    if table.n != n:
        raise ValueError(f"need row {n}, got row {table.n}")
    return table


def check_form2(n: int, sym: SymRationalTable, perm: IntSymTable) -> bool:
    """S(n, n-k) = P(n, k)/n! for all 0 <= k <= n, each as numerator * n! =
    P(n, k) * denominator on the row's integer pairs, whether reduced or
    not, so no Fraction is built and no gcd taken."""
    sym, perm = _row(sym, n, SymRationalTable), _row(perm, n)
    nfact = math.factorial(n)
    for num, den, p in zip(reversed(sym.nums), reversed(sym.dens), perm.entries):
        if num * nfact != p * den:
            return False
    return True


def check_sP_relation(n: int, perm: IntSymTable, s1: S1Row) -> bool:
    """P(n, k) = (-1)^k s(n+1, n+1-k) for all 0 <= k <= n, read from the
    first-kind row s1 = s(n+1, .)."""
    perm, s1 = _row(perm, n), _row(s1, n + 1, S1Row)
    return all(perm[k] == (-1) ** k * s1[n + 1 - k] for k in range(n + 1))


def stirling1_via_form3(n: int, k: int, row: S2Diagonal) -> int:
    """s(n, n-k) through the explicit double-binomial sum over the second
    kind, read from the diagonal row[j] = S(j+k, j).

    The weight C(n+j-1, k+j) C(n+k, k-j) is stepped from j to j+1 by one
    exact multiply by (n+j)(k-j) and divide by (k+j+1)(n+j+1).  The j = 0
    term vanishes for k >= 1 since S(k, 0) = 0; it is kept and
    asserted zero rather than skipped.
    """
    if not (n >= 1 and 0 <= k <= n - 1):
        raise ValueError(f"need n >= 1 and 0 <= k <= n-1, got ({n}, {k})")
    row = _row(row, k, S2Diagonal)
    total = 0
    c = math.comb(n - 1, k) * math.comb(n + k, k)
    for j in range(0, k + 1):
        term = c * row[j]
        if j == 0 and k >= 1 and term != 0:
            raise AssertionFailure("j = 0 term is nonzero", n=n, k=k, observed=term)
        total = total - term if j % 2 else total + term
        c = c * (n + j) * (k - j) // ((k + j + 1) * (n + j + 1))
    return total


def ident_doublefact(k: int, row: S2Diagonal) -> bool:
    """(2k-1)!! equals the alternating binomial sum of row[j] = S(j+k, j)
    over j <= k, with C(2k, k+j) stepped exactly by (k-j)/(k+j+1)."""
    if k < 1:
        raise ValueError("requires k >= 1")
    row = _row(row, k, S2Diagonal)
    total = 0
    c = math.comb(2 * k, k)
    for j in range(0, k + 1):
        total = total - c * row[j] if (j + k) % 2 else total + c * row[j]
        c = c * (k - j) // (k + j + 1)
    return total == double_factorial(2 * k - 1)


def check_form(p: int, perm: IntSymTable) -> bool:
    """w(p) = sum of p^k * S(p-1, k) over 0 <= k <= p-1, exactly.

    Multiplied by (p-1)!, with (p-1)!*S(p-1, k) = P(p-1, p-1-k):
    sum of p^k * P(p-1, p-1-k) = w(p)*(p-1)!.
    """
    perm = _row(perm, p - 1)
    total = sum(p**k * perm[p - 1 - k] for k in range(p))
    return total == w_exact(p) * math.factorial(p - 1)


def check_int_expansion(p: int, perm: IntSymTable) -> bool:
    """(w(p)-1)/p^3 = S(p,2)/p + p*S(p,4) + p^3*S(p,6) + ... + p^(p-4)*S(p,p-1).

    The left side is integral (Wolstenholme), which is checked first and
    raises AssertionFailure if it fails.  The right side, multiplied by
    p*p!, is the integer sum of p^(m-2) * P(p, p-m) over even m.
    """
    perm = _row(perm, p)
    w1 = w_exact(p) - 1
    if w1 % p**3:
        raise AssertionFailure("p^3 does not divide w(p)-1", p=p)
    total = sum(p ** (m - 2) * perm[p - m] for m in range(2, p, 2))
    return total == w1 // p**2 * math.factorial(p)


def _valuation(x: int, p: int) -> int:
    """v_p of the nonzero table entry x; ZeroNumerator for 0."""
    if x == 0:
        raise ZeroNumerator("numerator valuation of 0 is undefined")
    return valuation(x, p)


@dataclass(frozen=True)
class BayatReport:
    """Numerator valuations at p of the row S(p-1, 1..p-1)."""

    p: int
    valuations: tuple[int, ...]  # valuations[k-1] = v_p(num S(p-1, k))

    def val(self, k: int) -> int:
        return self.valuations[k - 1]


def bayat_valuations(p: int, perm: IntSymTable) -> BayatReport:
    """Verify the valuation pattern of the row S(p-1, *) at the prime p.

    p does not divide (p-1)!, so v_p(num S(p-1, k)) = v_p(P(p-1, p-1-k)).
    Asserts: v >= 1 for even k <= p-3, v >= 2 for odd k <= p-4, the ladder
    v(k) = 1 + v(k+1) for odd k <= p-2, and S(p-1, p-2) = 0 (mod p).
    Raises AssertionFailure carrying (p, k, observed) on any violation.
    """
    perm = _row(perm, p - 1)
    vals = tuple(_valuation(perm[p - 1 - k], p) for k in range(1, p))
    report = BayatReport(p, vals)
    for k in range(1, p):
        v = report.val(k)
        if k % 2 == 0 and k <= p - 3 and v < 1:
            raise AssertionFailure("even-index valuation below 1", p=p, k=k, observed=v)
        if k % 2 == 1 and k <= p - 4 and v < 2:
            raise AssertionFailure("odd-index valuation below 2", p=p, k=k, observed=v)
        if k % 2 == 1 and k <= p - 2 and v != 1 + report.val(k + 1):
            raise AssertionFailure(
                "valuation ladder broken", p=p, k=k, observed=(v, report.val(k + 1))
            )
    if report.val(p - 2) < 1:
        raise AssertionFailure(
            "S(p-1, p-2) not divisible by p", p=p, k=p - 2, observed=report.val(p - 2)
        )
    return report


def s_pm_mod_p(p: int, perm: IntSymTable) -> bool:
    """S(p, m) = 0 (mod p) in numerator for all even m = 2, 4, ..., p-3.

    p!*S(p, m) = P(p, p-m) and v_p(p!) = 1, so p divides the reduced
    numerator iff v_p(P(p, p-m)) >= 2; v_p = 0 puts p in the reduced
    denominator and raises DenominatorNotCoprime.
    """
    perm = _row(perm, p)
    for m in range(2, p - 2, 2):
        v = _valuation(perm[p - m], p)
        if v == 0:
            raise DenominatorNotCoprime(f"{p} divides the denominator of S({p}, {m})")
        if v < 2:
            return False
    return True


def form4_eval(p: int, k: int, row: S2Diagonal) -> Fraction:
    """S(p, p-k) for odd k via the explicit formula, read from the diagonal
    row[j] = S(j+k, j) of the second kind.

    S(p, p-k) = (p+1)/((2k)!(p-k)!) * sum over j of
    (-1)^(j+1) * C(2k, k+j) * prod(p+2..p+1+k omitting p+1+j) * S(j+k, j).

    The j = 0 term vanishes (S(k, 0) = 0 for k >= 1) and is skipped after
    asserting so; this also avoids the p+1+j factor missing from the
    product at j = 0.  The weight C(2k, k+j) times the product is stepped
    from j to j+1 by one exact multiply by (k-j)(p+1+j) and divide by
    (k+j+1)(p+2+j).
    """
    if k % 2 == 0 or not 1 <= k <= p - 2:
        raise ValueError(f"need odd 1 <= k <= p-2, got ({p}, {k})")
    row = _row(row, k, S2Diagonal)
    if row[0] != 0:
        raise AssertionFailure("S2(k, 0) is nonzero", k=k, observed=row[0])
    c = math.comb(2 * k, k + 1) * math.prod(range(p + 3, p + k + 2))
    total = 0
    for j in range(1, k + 1):
        total = total - c * row[j] if j % 2 == 0 else total + c * row[j]
        c = c * (k - j) * (p + 1 + j) // ((k + j + 1) * (p + 2 + j))
    return Fraction(
        (p + 1) * total, math.factorial(2 * k) * math.factorial(p - k)
    )
