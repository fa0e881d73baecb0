"""Elementary symmetric functions and Stirling numbers, with the identity
battery connecting them to w(p).

S(n, k) here (lowercase s reserved for Stirling numbers of the first kind)
denotes the k-th elementary symmetric function of {1, 1/2, ..., 1/n}, and
P(n, k) the same over {1, ..., n}.  All arithmetic is exact; there is no
floating point anywhere in this module.  Table builders return immutable
values and keep no hidden caches - callers that need many rows should hold
on to the tables themselves.  Every identity check takes the table it reads
as a required argument and never builds one: a row of the wrong n raises
ValueError, a Stirling table too small for the subject raises IndexError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import double_factorial, num_valuation
from .congruence import w_exact
from .errors import AssertionFailure

__all__ = [
    "SymRationalTable",
    "IntSymTable",
    "StirlingTables",
    "elem_sym_table",
    "elem_sym_rows",
    "perm_sym_rows",
    "perm_sym_table",
    "stirling_tables",
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
class SymRationalTable:
    """Row n of elementary symmetric values over {1, 1/2, ..., 1/n}."""

    n: int
    entries: tuple[Fraction, ...]  # entries[k] = S(n, k), 0 <= k <= n

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError(k)
        return self.entries[k] if k <= self.n else Fraction(0)


@dataclass(frozen=True)
class IntSymTable:
    """Row n of elementary symmetric values over {1, ..., n}."""

    n: int
    entries: tuple[int, ...]  # entries[k] = P(n, k)

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError(k)
        return self.entries[k] if k <= self.n else 0


@dataclass(frozen=True)
class StirlingTables:
    """Triangles of both Stirling kinds up to row n_max.

    s1 is the signed first kind (coefficients of the falling factorial),
    s2 the second kind (set-partition counts).
    """

    n_max: int
    s1_rows: tuple[tuple[int, ...], ...]
    s2_rows: tuple[tuple[int, ...], ...]

    def s1(self, n: int, k: int) -> int:
        if not 0 <= k <= n <= self.n_max:
            raise IndexError((n, k))
        return self.s1_rows[n][k]

    def s2(self, n: int, k: int) -> int:
        if not 0 <= k <= n <= self.n_max:
            raise IndexError((n, k))
        return self.s2_rows[n][k]


def elem_sym_rows(n_max: int):
    """Yield SymRationalTable for n = 0..n_max, built by the row recurrence
    S(n, k) = S(n-1, k) + S(n-1, k-1)/n; nothing for n_max < 0."""
    if n_max < 0:
        return
    row = [Fraction(1)]
    yield SymRationalTable(0, tuple(row))
    for n in range(1, n_max + 1):
        inv = Fraction(1, n)
        row.append(row[-1] * inv)
        for k in range(len(row) - 2, 0, -1):
            row[k] += row[k - 1] * inv
        yield SymRationalTable(n, tuple(row))


def elem_sym_table(n: int) -> SymRationalTable:
    """The full row S(n, 0..n)."""
    for table in elem_sym_rows(n):
        if table.n == n:
            return table
    raise ValueError(n)


def perm_sym_rows(n_max: int):
    """Yield IntSymTable for n = 0..n_max, built by the row recurrence
    P(n, k) = P(n-1, k) + n*P(n-1, k-1); nothing for n_max < 0."""
    if n_max < 0:
        return
    row = [1]
    yield IntSymTable(0, tuple(row))
    for n in range(1, n_max + 1):
        row.append(row[-1] * n)
        for k in range(len(row) - 2, 0, -1):
            row[k] += row[k - 1] * n
        yield IntSymTable(n, tuple(row))


def perm_sym_table(n: int) -> IntSymTable:
    """The full row P(n, 0..n)."""
    for table in perm_sym_rows(n):
        if table.n == n:
            return table
    raise ValueError(n)


def stirling_tables(n_max: int) -> StirlingTables:
    """Both Stirling triangles through row n_max, by the standard recurrences."""
    s1_rows = [(1,)]
    s2_rows = [(1,)]
    for n in range(1, n_max + 1):
        prev1 = s1_rows[-1]
        prev2 = s2_rows[-1]
        row1 = [0] * (n + 1)
        row2 = [0] * (n + 1)
        for k in range(1, n + 1):
            above1 = prev1[k] if k < n else 0
            above2 = prev2[k] if k < n else 0
            row1[k] = prev1[k - 1] - (n - 1) * above1
            row2[k] = prev2[k - 1] + k * above2
        s1_rows.append(tuple(row1))
        s2_rows.append(tuple(row2))
    return StirlingTables(n_max, tuple(s1_rows), tuple(s2_rows))


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------


def _row(table, n: int):
    """table, after checking that it is row n."""
    if table.n != n:
        raise ValueError(f"need row {n}, got row {table.n}")
    return table


def check_form2(n: int, sym: SymRationalTable, perm: IntSymTable) -> bool:
    """S(n, n-k) = P(n, k)/n! for all 0 <= k <= n."""
    sym, perm = _row(sym, n), _row(perm, n)
    nfact = math.factorial(n)
    return all(sym[n - k] * nfact == perm[k] for k in range(n + 1))


def check_sP_relation(n: int, perm: IntSymTable, st: StirlingTables) -> bool:
    """P(n, k) = (-1)^k s(n+1, n+1-k) for all 0 <= k <= n."""
    perm = _row(perm, n)
    return all(
        perm[k] == (-1) ** k * st.s1(n + 1, n + 1 - k) for k in range(n + 1)
    )


def stirling1_via_form3(n: int, k: int, st: StirlingTables) -> int:
    """s(n, n-k) through the explicit double-binomial sum over the second kind.

    The j = 0 term vanishes for k >= 1 since S(k, 0) = 0; it is kept and
    asserted zero rather than skipped.
    """
    if not (n >= 1 and 0 <= k <= n - 1):
        raise ValueError(f"need n >= 1 and 0 <= k <= n-1, got ({n}, {k})")
    total = 0
    for j in range(0, k + 1):
        term = (
            (-1) ** j
            * math.comb(n + j - 1, k + j)
            * math.comb(n + k, k - j)
            * st.s2(j + k, j)
        )
        if j == 0 and k >= 1:
            assert term == 0
        total += term
    return total


def ident_doublefact(k: int, st: StirlingTables) -> bool:
    """(2k-1)!! equals the alternating binomial sum of S(j+k, j) over j <= k."""
    if k < 1:
        raise ValueError("requires k >= 1")
    total = 0
    for j in range(0, k + 1):
        total += (-1) ** (j + k) * math.comb(2 * k, k + j) * st.s2(j + k, j)
    return total == double_factorial(2 * k - 1)


def check_form(p: int, sym: SymRationalTable) -> bool:
    """w(p) = sum of p^k * S(p-1, k) over 0 <= k <= p-1, exactly."""
    sym = _row(sym, p - 1)
    total = sum((Fraction(p) ** k) * sym[k] for k in range(p))
    return total == w_exact(p)


def check_int_expansion(p: int, sym: SymRationalTable) -> bool:
    """(w(p)-1)/p^3 = S(p,2)/p + p*S(p,4) + p^3*S(p,6) + ... + p^(p-4)*S(p,p-1).

    The left side is integral (Wolstenholme); the right side is an exact
    rational sum over even indices with p-powers stepping by two.
    """
    sym = _row(sym, p)
    total = Fraction(0)
    for m in range(2, p, 2):
        total += Fraction(p) ** (m - 3) * sym[m]
    lhs = Fraction(w_exact(p) - 1, p**3)
    assert lhs.denominator == 1
    return total == lhs


@dataclass(frozen=True)
class BayatReport:
    """Numerator valuations at p of the row S(p-1, 1..p-1)."""

    p: int
    valuations: tuple[int, ...]  # valuations[k-1] = v_p(num S(p-1, k))

    def val(self, k: int) -> int:
        return self.valuations[k - 1]


def bayat_valuations(p: int, sym: SymRationalTable) -> BayatReport:
    """Verify the valuation pattern of the row S(p-1, *) at the prime p.

    Asserts: v >= 1 for even k <= p-3, v >= 2 for odd k <= p-4, the ladder
    v(k) = 1 + v(k+1) for odd k <= p-2, and S(p-1, p-2) = 0 (mod p).
    Raises AssertionFailure carrying (p, k, observed) on any violation.
    """
    sym = _row(sym, p - 1)
    vals = tuple(num_valuation(sym[k], p) for k in range(1, p))
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


def s_pm_mod_p(p: int, sym: SymRationalTable) -> bool:
    """S(p, m) = 0 (mod p) in numerator for all even m = 2, 4, ..., p-3."""
    sym = _row(sym, p)
    return all(num_valuation(sym[m], p) >= 1 for m in range(2, p - 2, 2))


def form4_eval(p: int, k: int, st: StirlingTables) -> Fraction:
    """S(p, p-k) for odd k via the explicit formula.

    S(p, p-k) = (p+1)/((2k)!(p-k)!) * sum over j of
    (-1)^(j+1) * C(2k, k+j) * prod(p+2..p+1+k omitting p+1+j) * S(j+k, j).

    The j = 0 term vanishes (S(k, 0) = 0 for k >= 1) and is skipped after
    asserting so; this also avoids the p+1+j factor missing from the
    product at j = 0.
    """
    if k % 2 == 0 or not 1 <= k <= p - 2:
        raise ValueError(f"need odd 1 <= k <= p-2, got ({p}, {k})")
    assert st.s2(k, 0) == 0
    cpk = math.prod(range(p + 2, p + k + 2))
    total = 0
    for j in range(1, k + 1):
        total += (
            (-1) ** (j + 1)
            * math.comb(2 * k, k + j)
            * (cpk // (p + 1 + j))
            * st.s2(j + k, j)
        )
    return Fraction(
        (p + 1) * total, math.factorial(2 * k) * math.factorial(p - k)
    )
