"""Trial division by each prime in turn, kept as the test oracle of
arith.factor_completely, which divides only by the primes of the runs of
table primes whose product shares a factor with the cofactor."""

from bisect import bisect_right
from itertools import islice
from math import isqrt

from wolstenholme.arith import _TRIAL_LIMIT, is_prime, primes_upto
from wolstenholme.errors import FactoringBudgetExceeded


def factor_by_each_prime(m):
    """Factor m >= 1 by dividing out every prime up to 10^6 while p^2 <= m
    may still hold, the prime table grown by doubling; the cofactor is
    prime below 10^12 or by is_prime, and FactoringBudgetExceeded otherwise."""
    factors = {}
    rest = m
    tried = 1  # every prime <= tried is divided out of rest
    while tried < min(_TRIAL_LIMIT, isqrt(rest)):
        top = min(_TRIAL_LIMIT, isqrt(rest), max(2 * tried, 1 << 10))
        table = primes_upto(top)
        for p in islice(table, bisect_right(table, tried), None):
            if p * p > rest:
                break
            while rest % p == 0:
                factors[p] = factors.get(p, 0) + 1
                rest //= p
        tried = top
    if rest > 1:
        if rest <= _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(rest):
            factors[rest] = factors.get(rest, 0) + 1
        else:
            raise FactoringBudgetExceeded(m, factors, rest)
    return factors
