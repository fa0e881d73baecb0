"""Integer polynomials and the Wolstenholme polynomial W(p).

W(p) is the degree 2p-7 integer polynomial with
(w(p) - 1)/p^3 = (p+1) * W(p) / ((2p-4)! (p-1)!).  It is assembled from
basis polynomials D(x+1, k)/((x+1+j) * x * (x+1)) where D(n, k) is the
product (n-k)(n-k+1)...(n+k); one term per odd k <= p-2, weighted by
alternating binomial sums of second-kind Stirling numbers.  The weighted
sum over j factors as R_k M_k with R_k = (x-1)...(x-(k-1)), and M_k, of
degree k-1, is interpolated in Newton form from its values at the
consecutive nodes -2, ..., -(k+1), so building M_k multiplies big integers
by machine-size ones only.  Two routes read M_k: w_polys, one upward pass that
yields W at every prime (the wpoly suite reads it), and construct_W, which
nests the same recurrence from the top for one prime, so each R_k costs one
multiply by a quadratic.  On top of W sit its structural checks
(verify_W), the test of a prime q > 2p dividing (w(p) - 1)/p^3 through W(p)
(large_prime_divisor_check), and the scan of primes r = p - n dividing W(n)
(trend_scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .arith import _check_prime_ge5, double_factorial, is_prime, primes_in
from .congruence import w_exact
from .errors import AssertionFailure, ConstructionAssertFailure, InexactDivision
from .symmetric import S2Diagonal, _row, _s2_diagonals_down, s2_diagonals

__all__ = [
    "IntPoly",
    "TrendRecord",
    "WReport",
    "poly_eval",
    "poly_eval_mod",
    "poly_derivative",
    "w_polys",
    "construct_W",
    "verify_W",
    "large_prime_divisor_check",
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


def _check_W(p: int, w_poly: IntPoly) -> None:
    """A caller handing W for another prime is an error, not a finding."""
    _check_prime_ge5(p)
    if w_poly.degree != 2 * p - 7:
        raise ValueError(
            f"W(p) for p={p} has degree {2 * p - 7}, got degree {w_poly.degree}"
        )


def _newton_M(k: int, row: S2Diagonal) -> list[int]:
    """M_k = sum_j c_j prod_(i != j) (x + 1 + i), c_j = (-1)^(j+k) C(2k, k+j)
    S(j+k, j), with S(j+k, j) = row[j] read from the k-th second-kind diagonal.

    M_k has degree k-1 and y_j = M_k(-1-j) = c_j (-1)^(j-1) (j-1)! (k-j)!,
    whose weight (2k)! (j-1)!/(k+j)! is stepped exactly by j/(k+j+1).  At
    the consecutive nodes -2, -3, ..., -(k+1) its Newton coefficients are
    d_m = (-1)^m (Delta^m y)_1 / m!, exact because M_k has integer
    coefficients; Horner on the basis prod_(i<=m) (x + 1 + i) then gives the
    coefficients, multiplying big integers by machine-size ones only.
    """
    row = _row(row, k, S2Diagonal)
    # (-1)^(k-1) = (-1)^(j+k) (-1)^(j-1); (2k)!/(k+1)! at j = 1
    weight = (-1) ** (k - 1) * math.prod(range(k + 2, 2 * k + 1))
    y = []
    for j in range(1, k + 1):
        y.append(weight * row[j])
        weight = weight * j // (k + j + 1)
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
    return acc


def _inner(k: int, row: S2Diagonal) -> list[int]:
    """I_k = sum_j c_j basis(k, j) = R_k M_k, with R_k = prod_(u<k) (x - u):
    basis(k, j) = R_k prod_(i != j) (x + 1 + i), so the sum over j is the
    M_k of _newton_M, times the k-1 linear factors of R_k one at a time.
    """
    acc = _newton_M(k, row)
    for u in range(1, k):  # acc * (x - u)
        acc = [b - u * a for a, b in zip(acc + [0], [0] + acc)]
    return acc


def _checked_W(p: int, v: list[int]) -> IntPoly:
    """W(p) = V_(p-2)/x, after checking the constant term, the degree and
    the evaluation identity against the exact w(p)."""
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
    return w_poly


def w_polys(p_max: int) -> Iterator[tuple[int, IntPoly]]:
    """Yield (p, W(p)) for each prime 5 <= p <= p_max, ascending, in one pass.

    V_1 = I_1 and V_k = x^2 (2k-3)(2k-2)(2k-1)(2k) V_(k-2) + I_k for odd k,
    where I_k = sum_j (-1)^(j+k) C(2k, k+j) S(j+k, j) basis(k, j), built in
    Newton form by _inner from the odd diagonals of s2_diagonals, does not
    depend on p; W(p) = V_(p-2)/x, checked against the exact w(p).  The pass
    serves the wpoly suite, which reads W at every prime; for one prime,
    construct_W is faster.
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
        if p >= 5 and is_prime(p):
            yield p, _checked_W(p, v)


def construct_W(p: int) -> IntPoly:
    """W for the prime p >= 5, by the recurrence of w_polys nested from the top.

    With K = p-2, unrolled V_K = sum_k alpha_k x^(K-k) R_k M_k over odd k,
    alpha_k = prod rho_j over odd j, k < j <= K, rho_j = (2j-3)(2j-2)(2j-1)(2j).
    R_(k+2) = R_k (x-k)(x-k-1), so S_K = M_K and
    S_k = alpha_k x^(K-k) M_k + (x-k)(x-k-1) S_(k+2) give V_K = S_1: each R_k
    costs one multiply by a monic quadratic, not k-1 linear factors.  The
    diagonals are read downward, so one M_k is held at a time.  Checked
    against the exact w(p) as w_polys is.
    """
    _check_prime_ge5(p)
    top = p - 2
    rows = islice(_s2_diagonals_down(top), 0, None, 2)  # odd k, from the top
    s = _newton_M(top, next(rows))
    alpha = 1
    for row in rows:
        k = row.n
        alpha *= (2 * k + 1) * (2 * k + 2) * (2 * k + 3) * (2 * k + 4)
        b, c = 2 * k + 1, k * (k + 1)  # (x-k)(x-k-1) = x^2 - b x + c
        s = [
            c * a0 - b * a1 + a2
            for a0, a1, a2 in zip(s + [0, 0], [0] + s + [0], [0, 0] + s)
        ]
        for i, m in enumerate(_newton_M(k, row), top - k):
            s[i] += alpha * m
    return _checked_W(p, s)


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
    with r_exceeds_2p set.  A w_poly whose degree is not 2p-7 raises ValueError.
    """
    _check_W(p, w_poly)
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
