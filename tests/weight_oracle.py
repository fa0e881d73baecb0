"""The identity sums with each term's weight built from scratch by
math.comb and math.factorial, kept as the test oracle of the weights that
symmetric (ident_doublefact, stirling1_via_form3, form4_eval) and
wpoly._newton_M step from one term to the next by exact ratios."""

import math
from fractions import Fraction


def ident_sum_by_comb(k, row):
    """The alternating sum of (-1)^(j+k) C(2k, k+j) S(j+k, j) over j <= k,
    which ident_doublefact compares with (2k-1)!!."""
    return sum((-1) ** (j + k) * math.comb(2 * k, k + j) * row[j] for j in range(k + 1))


def stirling1_by_comb(n, k, row):
    """s(n, n-k) as the sum of (-1)^j C(n+j-1, k+j) C(n+k, k-j) S(j+k, j)."""
    return sum(
        (-1) ** j * math.comb(n + j - 1, k + j) * math.comb(n + k, k - j) * row[j]
        for j in range(k + 1)
    )


def form4_by_comb(p, k, row):
    """S(p, p-k) = (p+1)/((2k)!(p-k)!) times the sum over 1 <= j <= k of
    (-1)^(j+1) C(2k, k+j) prod(p+2..p+1+k omitting p+1+j) S(j+k, j)."""
    cpk = math.prod(range(p + 2, p + k + 2))
    total = sum(
        (-1) ** (j + 1) * math.comb(2 * k, k + j) * (cpk // (p + 1 + j)) * row[j]
        for j in range(1, k + 1)
    )
    return Fraction((p + 1) * total, math.factorial(2 * k) * math.factorial(p - k))


def newton_M_by_factorials(k, row):
    """The coefficients of M_k, ascending, from the values
    y_j = (-1)^(k-1) C(2k, k+j) S(j+k, j) (j-1)! (k-j)! at the nodes -1-j,
    by Newton's divided differences and Horner's rule, as _newton_M built
    them before its weights were stepped."""
    y = [
        (-1) ** (k - 1)
        * math.comb(2 * k, k + j)
        * row[j]
        * math.factorial(j - 1)
        * math.factorial(k - j)
        for j in range(1, k + 1)
    ]
    d = []
    for m in range(k):
        if m:
            y = [b - a for a, b in zip(y, y[1:])]
        q, r = divmod(y[0], math.factorial(m))
        assert r == 0, (k, m)
        d.append(-q if m % 2 else q)
    acc = [d[-1]]
    for m in range(k - 2, -1, -1):
        acc = [(m + 2) * a + b for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += d[m]
    return acc
