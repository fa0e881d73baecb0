"""Named verification suites: each runs one identity or property battery
up to a bound and yields a result per subject.

Suites are consumed by the CLI (violations printed as JSON lines, exit 1
on any) and by the acceptance tests (which pin the bounds from the
acceptance criteria).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

from .arith import _BOUND_LIMIT, factor_completely, primes_upto
from .congruence import (
    divisor_product_checks,
    factor_band_classify,
    w_exact,
    wilson_restatement_checks,
)
from .errors import AssertionFailure, FactoringBudgetExceeded
from .symmetric import (
    IntSymTable,
    bayat_valuations,
    check_form,
    check_form2,
    check_int_expansion,
    check_sP_relation,
    elem_sym_rows,
    form4_eval,
    ident_doublefact,
    perm_sym_rows,
    s2_diagonals,
    s_pm_mod_p,
    stirling1_via_form3,
    stirling_tables,
)
from .wpoly import large_prime_divisor_check, trend_scan, verify_W, w_polys

__all__ = ["SuiteResult", "suite_names", "default_bound", "run_suite"]


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    subject: int | tuple
    ok: bool
    detail: str = ""


def _suite_equ(bound: int) -> Iterator[SuiteResult]:
    for n, ok in wilson_restatement_checks(bound):
        yield SuiteResult("equ", n, ok)


def _suite_rel(bound: int) -> Iterator[SuiteResult]:
    for n, ok in divisor_product_checks(bound):
        yield SuiteResult("rel", n, ok)


def _prime_rows(bound: int, lag: int) -> Iterator[tuple[int, IntSymTable]]:
    """(p, P(p - lag, .)) for each prime 5 <= p <= bound, ascending; the
    integer rows n!*S(n, k) = P(n, n-k) of the S expansions."""
    primes = set(primes_upto(bound))
    for tab in perm_sym_rows(bound - lag):
        p = tab.n + lag
        if p >= 5 and p in primes:
            yield p, tab


def _suite_form(bound: int) -> Iterator[SuiteResult]:
    for p, tab in _prime_rows(bound, 1):
        yield SuiteResult("form", p, check_form(p, perm=tab))


def _suite_int(bound: int) -> Iterator[SuiteResult]:
    for p, tab in _prime_rows(bound, 0):
        ok = check_int_expansion(p, perm=tab) and s_pm_mod_p(p, perm=tab)
        yield SuiteResult("int", p, ok)


def _suite_fra(bound: int) -> Iterator[SuiteResult]:
    for p, tab in _prime_rows(bound, 1):
        try:
            bayat_valuations(p, perm=tab)
            yield SuiteResult("fra", p, True)
        except AssertionFailure as exc:
            yield SuiteResult("fra", p, False, str(exc))


def _suite_form2(bound: int) -> Iterator[SuiteResult]:
    s1_rows = islice(stirling_tables(bound + 1), 1, None)  # s(n+1, .) beside row n
    for tab, perm, s1 in zip(elem_sym_rows(bound), perm_sym_rows(bound), s1_rows):
        n = tab.n
        if n >= 1:
            ok = check_form2(n, sym=tab, perm=perm) and check_sP_relation(n, perm=perm, s1=s1)
            yield SuiteResult("form2", n, ok)


def _suite_form3(bound: int) -> Iterator[SuiteResult]:
    rows = list(s2_diagonals(bound - 1))
    for s1 in islice(stirling_tables(bound), 1, None):
        n = s1.n
        ok = all(stirling1_via_form3(n, k, rows[k]) == s1[n - k] for k in range(n))
        yield SuiteResult("form3", n, ok)


def _suite_form4(bound: int) -> Iterator[SuiteResult]:
    rows = list(s2_diagonals(bound - 2))
    for p, tab in _prime_rows(bound, 0):
        # form4_eval gives S(p, p-k), and p!*S(p, p-k) = P(p, k)
        pfact = math.factorial(p)
        ok = all(
            form4_eval(p, k, rows[k]) * pfact == tab[k] for k in range(1, p - 1, 2)
        )
        yield SuiteResult("form4", p, ok)


def _suite_ident(bound: int) -> Iterator[SuiteResult]:
    for row in islice(s2_diagonals(bound), 1, None):
        yield SuiteResult("ident", row.n, ident_doublefact(row.n, row))


def _suite_bands(bound: int) -> Iterator[SuiteResult]:
    for p in primes_upto(bound):
        if p < 5:
            continue
        bands = factor_band_classify(p)
        bad = [b.q for b in bands if b.predicted_divides != b.actual_divides]
        yield SuiteResult("bands", p, not bad, f"mismatched q={bad}" if bad else "")


def _suite_wpoly(bound: int) -> Iterator[SuiteResult]:
    for p, w_poly in w_polys(bound):
        # prime divisors by trial division to 10^6; a surviving composite
        # cofactor is left out
        try:
            factors = factor_completely((w_exact(p) - 1) // p**3)
        except FactoringBudgetExceeded as exc:
            factors = exc.partial
        # a false claim about W, or about a divisor q, is this prime's row;
        # the trend scan reads only a W that passed, as it takes W for W(p)
        try:
            verify_W(p, w_poly)
            for q in factors:
                if q > 2 * p:
                    large_prime_divisor_check(p, q, w_poly)  # each q divides: True or raises
        except AssertionFailure as exc:
            yield SuiteResult("wpoly", p, False, str(exc))
            continue
        problems = []
        content = math.gcd(*w_poly.coeffs)
        for r, divides_w1 in trend_scan(p, w_poly, -10 * p * p, -1):
            if divides_w1:
                if r > 2 * p:
                    problems.append(f"trend violated at n={p - r}, r={r}")
                elif content % r != 0:
                    problems.append(f"unexplained double divisor at n={p - r}, r={r}")
                # r < 2p dividing the coefficient content divides W and W'
                # identically; not a trend statement
        yield SuiteResult("wpoly", p, not problems, "; ".join(problems))


_SUITES: dict[str, tuple[Callable[[int], Iterator[SuiteResult]], int]] = {
    "equ": (_suite_equ, 2000),
    "rel": (_suite_rel, 2000),
    "form": (_suite_form, 199),
    "int": (_suite_int, 199),
    "fra": (_suite_fra, 199),
    "form2": (_suite_form2, 200),
    "form3": (_suite_form3, 60),
    "form4": (_suite_form4, 61),
    "ident": (_suite_ident, 200),
    "bands": (_suite_bands, 500),
    "wpoly": (_suite_wpoly, 61),
}

_ALIASES = {"form3-cross": "form3", "form4-cross": "form4", "w-properties": "wpoly"}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def _resolve(name: str) -> str:
    key = _ALIASES.get(name.lower(), name.lower())
    if key not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted([*_SUITES, *_ALIASES])}")
    return key


def default_bound(name: str) -> int:
    return _SUITES[_resolve(name)][1]


def run_suite(name: str, bound: int | None = None) -> Iterator[SuiteResult]:
    """Run the named suite up to bound (suite default if omitted).  A bound
    that is not an int, is a bool, or is 2^32 or more (past the prime
    table's) is a ValueError before anything runs."""
    key = _resolve(name)
    fn, default = _SUITES[key]
    if bound is None:
        bound = default
    elif isinstance(bound, bool) or not isinstance(bound, int):
        raise ValueError(f"suite {key} bound {bound!r} is not an int")
    if bound >= _BOUND_LIMIT:
        raise ValueError(f"suite {key} bound {bound} is not below 2**32")
    return fn(bound)
