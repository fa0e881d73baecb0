"""Exact integer and rational primitives.

Primality testing, prime streams, and factorial/binomial arithmetic modulo
prime powers.  Everything here is pure and deterministic;
big integers are plain ``int``, exact rationals are ``fractions.Fraction``
(already normalized: positive denominator, sign in the numerator, gcd 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt

from .errors import (
    AssertionFailure,
    DenominatorNotCoprime,
    FactoringBudgetExceeded,
    ZeroNumerator,
)

__all__ = [
    "ResidueClass",
    "PrimalityCheck",
    "prime_check",
    "is_prime",
    "primes_in",
    "primes_upto",
    "double_factorial",
    "legendre_valuation",
    "carry_count",
    "factorial_unit",
    "binomial_exact",
    "binomial_mod_prime_power",
    "binomial_mod",
    "valuation",
    "num_valuation",
    "factor_completely",
]


@dataclass(frozen=True)
class ResidueClass:
    """A value together with its modulus; result type of modular computations."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} not reduced mod {self.modulus}")


# --------------------------------------------------------------------------
# Primality
# --------------------------------------------------------------------------

# Strong-probable-prime bases.  Testing against the first 12 primes is a
# proven deterministic criterion for n < 3317044064679887385961981 (> 2^64);
# above that bound the same fixed base set is used but the verdict is only
# probabilistic, and the result says so.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3317044064679887385961981


@dataclass(frozen=True)
class PrimalityCheck:
    n: int
    is_prime: bool
    probabilistic: bool


def _strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def prime_check(n: int) -> PrimalityCheck:
    """Primality of n with metadata; deterministic and exact below 2^64."""
    if n < 2:
        return PrimalityCheck(n, False, False)
    for p in _MR_BASES:
        if n == p:
            return PrimalityCheck(n, True, False)
        if n % p == 0:
            return PrimalityCheck(n, False, False)
    probabilistic = n >= _MR_PROVEN_BOUND
    for base in _MR_BASES:
        if not _strong_probable_prime(n, base):
            return PrimalityCheck(n, False, False)
    return PrimalityCheck(n, True, probabilistic)


def is_prime(n: int) -> bool:
    """True iff n is prime (probable prime beyond the proven MR bound)."""
    return prime_check(n).is_prime


def _check_prime_ge5(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise ValueError(f"requires a prime p >= 5, got {p}")


def _sieve(left: int, right: int, base):
    """Primes in [left, right], left >= 2; base: all primes <= isqrt(right)."""
    flags = bytearray([1]) * (right - left + 1)
    for p in base:
        start = max(p * p, -(-left // p) * p) - left  # first multiple to strike
        if start < len(flags):
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    return compress(range(left, right + 1), flags)


_PRIMES = [2]  # every prime up to the largest bound asked for yet


def _small_primes_upto(n: int) -> list[int]:
    """The primes <= n, read from one table that grows as bounds rise."""
    if n > _PRIMES[-1]:
        base = _small_primes_upto(isqrt(n))  # may itself extend the table
        _PRIMES.extend(_sieve(_PRIMES[-1] + 1, n, base))
    return _PRIMES[: bisect_right(_PRIMES, n)]


_SEGMENT = 1 << 16


def primes_in(lo: int, hi: int):
    """Yield exactly the primes in [lo, hi], ascending.

    Segmented sieve: memory stays bounded by the segment size plus the base
    primes up to sqrt(hi), so large ranges stream.
    """
    if hi < lo or hi < 2:
        return
    base = _small_primes_upto(isqrt(hi))
    for left in range(max(lo, 2), hi + 1, _SEGMENT):
        yield from _sieve(left, min(left + _SEGMENT - 1, hi), base)


def primes_upto(n: int) -> list[int]:
    """All primes <= n as a list."""
    return list(primes_in(2, n))


# --------------------------------------------------------------------------
# Modular and factorial arithmetic
# --------------------------------------------------------------------------


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)... down to 1 or 2; 0!! = 1."""
    if n < 0:
        raise ValueError("double factorial requires n >= 0")
    return math.prod(range(n, 0, -2))


def binomial_exact(n: int, k: int) -> int:
    """C(n, k) exactly; 0 when k > n or k < 0."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_base(q: int, *numbers: int) -> None:
    # no base below 2 has digits, nor has a negative number: the loops never end
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")
    if min(numbers, default=0) < 0:
        raise ValueError(f"digits need numbers >= 0, got {min(numbers)}")


def legendre_valuation(n: int, q: int) -> int:
    """Exponent of the prime q in n!, via the floor-sum formula."""
    _check_base(q, n)
    total = 0
    while n:
        n //= q
        total += n
    return total


def carry_count(a: int, b: int, q: int) -> int:
    """Number of carries when adding a and b in base q.

    By Kummer's theorem this is the exponent of q in C(a+b, a).
    """
    _check_base(q, a, b)
    carries = carry = 0
    while a or b or carry:
        carry = 1 if a % q + b % q + carry >= q else 0
        carries += carry
        a //= q
        b //= q
    return carries


def valuation(n: int, q: int) -> int:
    """Exponent of q in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    _check_base(q)
    n = abs(n)
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def factorial_unit(n: int, q: int, e: int = 1) -> tuple[int, ResidueClass]:
    """Split n! as q^val * unit with q not dividing unit.

    Returns (val, unit mod q^e) where val is the Legendre valuation and
    unit = n!/q^val, i.e. q^val * unit reconstructs n! mod q^(val+e).
    Uses the Wilson-block recursion n! = (n!)_q * q^(n//q) * (n//q)!, where
    (m!)_q, the product of 1..m with multiples of q skipped, is a full-block
    unit product raised to m // q^e times a partial block.  By Gauss's
    generalisation of Wilson's theorem the full block, the product of the
    units below q^e, is -1 mod q^e, except +1 for q = 2 and e >= 3; so each
    level costs a sign and a loop over its partial block of m % q^e.
    """
    Q = q**e
    val = legendre_valuation(n, q)
    full = 1 if q == 2 and e >= 3 else Q - 1
    unit = 1
    m = n
    while m > 0:
        blocks, rem = divmod(m, Q)
        if blocks % 2:
            unit = unit * full % Q
        for a in range(1, rem + 1):
            if a % q:
                unit = unit * a % Q
        m //= q
    return val, ResidueClass(unit, Q)


def binomial_mod_prime_power(n: int, k: int, q: int, e: int) -> ResidueClass:
    """C(n, k) mod q^e for prime q, via generalized factorials.

    The valuation of C(n, k) at q is the base-q carry count of k + (n-k);
    when it reaches e the residue is 0 and no unit work is needed.
    """
    Q = q**e
    if k < 0 or k > n:
        return ResidueClass(0, Q)
    c = carry_count(k, n - k, q)
    if c >= e:
        return ResidueClass(0, Q)
    _, un = factorial_unit(n, q, e)
    _, uk = factorial_unit(k, q, e)
    _, unk = factorial_unit(n - k, q, e)
    u = un.value * pow(uk.value * unk.value % Q, -1, Q) % Q
    return ResidueClass(q**c * u % Q, Q)


_TRIAL_LIMIT = 10**6
_EXACT_FALLBACK_LIMIT = 200_000


def factor_completely(m: int) -> dict[int, int]:
    """Factor m by trial division up to 10^6 plus one primality check.

    Moduli in this package are built from known primes, so this nearly always
    completes; raises FactoringBudgetExceeded (with the partial factorization)
    when a composite cofactor survives.
    """
    if m < 1:
        raise ValueError("factorization requires m >= 1")
    factors: dict[int, int] = {}
    rest = m
    for p in _small_primes_upto(min(_TRIAL_LIMIT, isqrt(m))):
        if p * p > rest:
            break
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
    if rest > 1:
        if rest <= _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(rest):
            factors[rest] = factors.get(rest, 0) + 1
        else:
            raise FactoringBudgetExceeded(m, factors, rest)
    return factors


def _crt(residues: list[tuple[int, int]]) -> tuple[int, int]:
    x, m = residues[0]
    for r, n in residues[1:]:
        h = (r - x) * pow(m % n, -1, n) % n
        x += m * h
        m *= n
    return x % m, m


def binomial_mod(n: int, k: int, m: int) -> ResidueClass:
    """C(n, k) mod m for any modulus m >= 2.

    Factors m, reduces per prime power, and recombines by CRT.  When m
    resists factoring within the budget, falls back to exact-then-reduce
    (bounded by n <= 200000); beyond that the factoring error propagates.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if k < 0 or k > n:
        return ResidueClass(0, m)
    try:
        factors = factor_completely(m)
    except FactoringBudgetExceeded:
        if n <= _EXACT_FALLBACK_LIMIT:
            exact = math.factorial(n) // (math.factorial(k) * math.factorial(n - k))
            return ResidueClass(exact % m, m)
        raise
    parts = [
        (binomial_mod_prime_power(n, k, q, a).value, q**a)
        for q, a in sorted(factors.items())
    ]
    value, modulus = _crt(parts)
    if modulus != m:
        raise AssertionFailure("CRT modulus differs from m", m=m, observed=modulus)
    return ResidueClass(value, m)


def num_valuation(r: Fraction, q: int) -> int:
    """Exponent of the prime q in the numerator of r.

    This is the fractional-congruence valuation: it requires gcd(den, q) = 1
    and a nonzero numerator.
    """
    _check_base(q)
    if r.denominator % q == 0:
        raise DenominatorNotCoprime(f"{q} divides denominator of {r}")
    if r.numerator == 0:
        raise ZeroNumerator("numerator valuation of 0 is undefined")
    return valuation(r.numerator, q)
