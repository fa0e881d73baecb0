"""Integer polynomials and the Wolstenholme polynomial W(p).

W(p) is the degree 2p-7 integer polynomial with
(w(p) - 1)/p^3 = (p+1) * W(p) / ((2p-4)! (p-1)!).  It is assembled from
basis polynomials D(x+1, k)/((x+1+j) * x * (x+1)) where D(n, k) is the
product (n-k)(n-k+1)...(n+k); one term per odd k <= p-2, weighted by
alternating binomial sums of second-kind Stirling numbers.  The weighted
sum over j is built in Newton form: it factors as R_k M_k with
R_k = (x-1)...(x-(k-1)), and M_k, of degree k-1, is interpolated from its
values at the consecutive nodes -2, ..., -(k+1), so every product is a big
integer times a machine-size one.  The module also carries the
Taylor-shift/Hensel divisibility toolkit built on top of W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .arith import _check_prime_ge5, double_factorial, is_prime, primes_in
from .congruence import w_exact
from .errors import (
    AssertionFailure,
    ConstructionAssertFailure,
    InexactDivision,
    NotApplicable,
)
from .symmetric import S2Diagonal, _row, s2_diagonals

__all__ = [
    "IntPoly",
    "TrendRecord",
    "WReport",
    "CoeffProfile",
    "poly_eval",
    "poly_eval_mod",
    "poly_derivative",
    "poly_shift",
    "w_polys",
    "construct_W",
    "verify_W",
    "coeff_profile",
    "large_prime_divisor_check",
    "hensel_lift",
    "shift_divisibility_check",
    "trend_scan",
]


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients ascending, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if c and c[-1] == 0:
            while c and c[-1] == 0:
                c = c[:-1]
            object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0


def poly_eval(f: IntPoly, x: int) -> int:
    """f(x) by Horner's rule, exact."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def poly_eval_mod(f: IntPoly, x: int, m: int) -> int:
    """f(x) mod m by Horner's rule; avoids huge intermediates."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * x + c) % m
    return acc


def poly_derivative(f: IntPoly) -> IntPoly:
    return IntPoly(tuple(i * c for i, c in enumerate(f.coeffs) if i > 0))


def poly_shift(f: IntPoly, n: int) -> IntPoly:
    """Coefficients of f(x + n): eval(shift(f, n), t) = eval(f, t + n)."""
    a = list(f.coeffs)
    d = len(a)
    for i in range(d - 1):
        for j in range(d - 2, i - 1, -1):
            a[j] += n * a[j + 1]
    return IntPoly(tuple(a))


def _check_W(p: int, w_poly: IntPoly) -> None:
    """A caller handing W for another prime is an error, not a finding."""
    _check_prime_ge5(p)
    if w_poly.degree != 2 * p - 7:
        raise ValueError(
            f"W(p) for p={p} has degree {2 * p - 7}, got degree {w_poly.degree}"
        )


def _inner(k: int, row: S2Diagonal) -> list[int]:
    """I_k = sum_j c_j basis(k, j), c_j = (-1)^(j+k) C(2k, k+j) S(j+k, j),
    with S(j+k, j) = row[j] read from the k-th second-kind diagonal.

    basis(k, j) = R_k prod_(i != j) (x + 1 + i) with R_k = prod_(u<k) (x - u),
    so I_k = R_k M_k, where M_k = sum_j c_j prod_(i != j) (x + 1 + i) has
    degree k-1 and y_j = M_k(-1-j) = c_j (-1)^(j-1) (j-1)! (k-j)!.  At the
    consecutive nodes -2, -3, ..., -(k+1) the Newton coefficients of M_k are
    d_m = (-1)^m (Delta^m y)_1 / m!, exact because M_k has integer
    coefficients.  Horner on the basis prod_(i<=m) (x + 1 + i), then the k-1
    factors of R_k, multiply big integers by machine-size ones only.
    """
    row = _row(row, k, S2Diagonal)
    y = [
        (-1) ** (k - 1)  # (-1)^(j+k) (-1)^(j-1)
        * math.comb(2 * k, k + j)
        * row[j]
        * math.factorial(j - 1)
        * math.factorial(k - j)
        for j in range(1, k + 1)
    ]
    d = []
    m_fact = 1
    for m in range(k):
        if m:
            m_fact *= m
            y = [b - a for a, b in zip(y, y[1:])]
        q, r = divmod(y[0], m_fact)
        if r:
            raise InexactDivision(f"Newton coefficient {m} of M_{k} is not integral")
        d.append(-q if m % 2 else q)
    acc = [d[-1]]
    for m in range(k - 2, -1, -1):  # acc * (x + m + 2) + d_m
        acc = [(m + 2) * a + b for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += d[m]
    for u in range(1, k):  # acc * (x - u)
        acc = [b - u * a for a, b in zip(acc + [0], [0] + acc)]
    return acc


def w_polys(p_max: int) -> Iterator[tuple[int, IntPoly]]:
    """Yield (p, W(p)) for each prime 5 <= p <= p_max, ascending, in one pass.

    V_1 = I_1 and V_k = x^2 (2k-3)(2k-2)(2k-1)(2k) V_(k-2) + I_k for odd k,
    where I_k = sum_j (-1)^(j+k) C(2k, k+j) S(j+k, j) basis(k, j), built in
    Newton form by _inner from the odd diagonals of s2_diagonals, does not
    depend on p; W(p) = V_(p-2)/x, checked against the exact w(p).
    """
    v: list[int] = []
    for row in islice(s2_diagonals(p_max - 2), 1, None, 2):
        k = row.n
        inner = _inner(k, row)
        ratio = (2 * k - 3) * (2 * k - 2) * (2 * k - 1) * (2 * k)
        for i, a in enumerate(v):
            inner[i + 2] += ratio * a
        v = inner
        p = k + 2
        if p < 5 or not is_prime(p):
            continue
        if v[0] != 0:
            raise ConstructionAssertFailure(f"nonzero constant term at p={p}")
        w_poly = IntPoly(tuple(v[1:]))
        if w_poly.degree != 2 * p - 7:
            raise ConstructionAssertFailure(
                f"degree {w_poly.degree} != 2p-7 = {2 * p - 7} at p={p}"
            )
        lhs = poly_eval(w_poly, p) * (p + 1) * p**3
        rhs = (w_exact(p) - 1) * math.factorial(2 * p - 4) * math.factorial(p - 1)
        if lhs != rhs:
            raise ConstructionAssertFailure(f"evaluation identity failed at p={p}")
        yield p, w_poly


def construct_W(p: int) -> IntPoly:
    """W for the prime p >= 5: the element of w_polys(p) at p."""
    _check_prime_ge5(p)
    for _, w_poly in w_polys(p):
        pass
    return w_poly


@dataclass(frozen=True)
class WReport:
    p: int
    degree: int
    leading: int
    a0: int
    w_at_p: int


def verify_W(p: int, w_poly: IntPoly) -> WReport:
    """Check all structural claims about w_poly = W(p): degree 2p-7, leading
    coefficient (2p-5)!!, (p-3)! divides a0, and the evaluation identity.

    Raises AssertionFailure naming the failing clause.
    """
    _check_prime_ge5(p)
    if w_poly.degree != 2 * p - 7:
        raise AssertionFailure("degree != 2p-7", p=p, degree=w_poly.degree)
    leading = w_poly.coeffs[-1]
    if leading != double_factorial(2 * p - 5):
        raise AssertionFailure("leading coefficient != (2p-5)!!", p=p, leading=leading)
    a0 = w_poly.coeff(0)
    if a0 % math.factorial(p - 3) != 0:
        raise AssertionFailure("(p-3)! does not divide a0", p=p, a0=a0)
    value = poly_eval(w_poly, p)
    rhs = (w_exact(p) - 1) * math.factorial(2 * p - 4) * math.factorial(p - 1)
    if value * (p + 1) * p**3 != rhs:
        raise AssertionFailure("evaluation identity failed", p=p)
    return WReport(p=p, degree=w_poly.degree, leading=leading, a0=a0, w_at_p=value)


@dataclass(frozen=True)
class CoeffProfile:
    """Observed (not asserted) coefficient trends: where the largest
    coefficient sits and whether signs alternate above index p-4."""

    p: int
    argmax_index: int
    argmax_is_p_minus_4: bool
    high_signs: tuple[int, ...]  # signs of a_i for i = p-4 .. 2p-7
    signs_alternate: bool


def coeff_profile(p: int, w_poly: IntPoly) -> CoeffProfile:
    """Report which |a_i| of W(p) is largest and the sign pattern of the top half.

    These are empirical observations, not theorems, so deviations are
    flagged in the returned profile rather than raised.  A w_poly whose
    degree is not 2p-7 raises ValueError.
    """
    _check_W(p, w_poly)
    argmax = max(range(len(w_poly.coeffs)), key=lambda i: abs(w_poly.coeffs[i]))
    signs = tuple(
        1 if w_poly.coeff(i) > 0 else (-1 if w_poly.coeff(i) < 0 else 0)
        for i in range(p - 4, 2 * p - 6)
    )
    alternate = all(
        signs[i] != 0 and signs[i] == -signs[i + 1] for i in range(len(signs) - 1)
    )
    return CoeffProfile(
        p=p,
        argmax_index=argmax,
        argmax_is_p_minus_4=argmax == p - 4,
        high_signs=signs,
        signs_alternate=alternate,
    )


def large_prime_divisor_check(p: int, q: int, w_poly: IntPoly) -> bool:
    """Does the prime q > p divide (w(p)-1)/p^3?

    Asserts the two structural facts: a prime q > p dividing w(p)-1 must
    exceed 2p (every prime in (p, 2p-1] divides w(p) itself), and for
    q > 2p divisibility of (w(p)-1)/p^3 is equivalent to q | W(p) = w_poly(p).
    A w_poly whose degree is not 2p-7 raises ValueError.
    """
    _check_W(p, w_poly)
    if q <= p or not is_prime(q):
        raise ValueError(f"requires a prime q > p, got q={q}")
    wp1 = w_exact(p) - 1
    divides = wp1 % q == 0
    if divides and q <= 2 * p:
        raise AssertionFailure("prime q in (p, 2p] divides w(p)-1", p=p, q=q)
    result = (wp1 // p**3) % q == 0
    if result != divides:  # q != p, so q | w(p)-1 iff q | (w(p)-1)/p^3
        raise AssertionFailure("q | w(p)-1 disagrees with q | (w(p)-1)/p^3", p=p, q=q)
    if q > 2 * p:
        via_poly = poly_eval_mod(w_poly, p, q) == 0
        if via_poly != result:
            raise AssertionFailure(
                "q | (w(p)-1)/p^3 disagrees with q | W(p)", p=p, q=q
            )
    return result


def hensel_lift(f: IntPoly, r: int, n: int) -> int:
    """Lift a simple root of f mod r to the unique root s mod r^2.

    Requires r | f(n) and r not dividing f'(n); returns s in [0, r^2) with
    s = n (mod r) and r^2 | f(s), via one Newton step
    s = n - f(n) * f'(n)^-1 mod r^2.
    """
    fn = poly_eval(f, n)
    if fn % r != 0:
        raise NotApplicable(f"r={r} does not divide f({n})={fn}")
    d = poly_eval(poly_derivative(f), n)
    if d % r == 0:
        raise NotApplicable(f"r={r} divides f'({n})={d}: root is not simple")
    r2 = r * r
    s = (n - fn * pow(d, -1, r2)) % r2
    if poly_eval(f, s) % r2 != 0 or (s - n) % r != 0:
        raise AssertionFailure(
            "Newton step missed a root mod r^2", r=r, n=n, observed=s
        )
    return s


def shift_divisibility_check(f: IntPoly, p: int, n: int) -> bool:
    """Check the Taylor-shift divisibility biconditionals at d = p - n.

    d | f(p) iff d | f(n) always (integer polynomial); when d | f'(n),
    additionally d^2 | f(p) iff d^2 | f(n).
    """
    if p == n:
        raise ValueError("requires p != n")
    d = abs(p - n)
    fp = poly_eval(f, p)
    fn = poly_eval(f, n)
    ok = (fp % d == 0) == (fn % d == 0)
    if poly_eval(poly_derivative(f), n) % d == 0:
        d2 = d * d
        ok = ok and (fp % d2 == 0) == (fn % d2 == 0)
    return ok


@dataclass(frozen=True)
class TrendRecord:
    """A prime r = p - n > p dividing W(n), and whether it divides W'(n) too.

    r_exceeds_2p marks the regime where r can actually divide (w(p)-1)/p^3:
    a prime in (p, 2p] always divides w(p) itself, and every prime in
    (p, 2p-5] divides the coefficient content of W outright, so only
    r > 2p records bear on the observed trend.
    """

    p: int
    n: int
    r: int
    divides_w: bool
    divides_w1: bool
    r_exceeds_2p: bool


def trend_scan(p: int, w_poly: IntPoly, n_lo: int, n_hi: int) -> list[TrendRecord]:
    """Scan n in [n_lo, n_hi] (all negative, so r = p - n > p is prime-sized).

    Given w_poly = W(p), emits a record for each prime r = p - n dividing
    W(n), in ascending n.  W(p) and W'(p) are evaluated once, exactly, and
    each r is one remainder of each.  The observed trend is that r never also divides
    W'(n); that holds in the r > 2p regime, while r < 2p records hit the
    coefficient content of W (primes up to 2p-5 divide every coefficient)
    and divide both polynomials trivially.  Callers flag divides_w1 records
    with r_exceeds_2p set.
    """
    _check_prime_ge5(p)
    if n_hi >= 0:
        raise ValueError("requires n_hi < 0 so that r = p - n > p")
    if n_lo > n_hi:
        raise ValueError("empty range")
    # n = p - r is congruent to p mod r, so W(n) = W(p) and W'(n) = W'(p) mod r
    w_p = poly_eval(w_poly, p)
    w1_p = poly_eval(poly_derivative(w_poly), p)
    records = []
    for r in primes_in(p - n_hi, p - n_lo):
        if w_p % r == 0:
            records.append(
                TrendRecord(
                    p=p,
                    n=p - r,
                    r=r,
                    divides_w=True,
                    divides_w1=w1_p % r == 0,
                    r_exceeds_2p=r > 2 * p,
                )
            )
    return records[::-1]
