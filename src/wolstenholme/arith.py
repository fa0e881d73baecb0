"""Exact integer primitives.

Primality testing, prime streams, and factorial/binomial arithmetic modulo
prime powers.  Everything here is pure and deterministic; big integers are
plain ``int``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, islice
from math import isqrt

from .errors import AssertionFailure, FactoringBudgetExceeded

__all__ = [
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
    "factor_completely",
]


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


_PRIMES = array("I", [2])  # every prime up to the largest bound asked for yet
_BOUND_LIMIT = 1 << 32  # the table's entries are 4 bytes
# (t, n): no prime lies in (t, n], for the last bound n sieved past a top t
_BARE = (2, 2)
_SEGMENT = 1 << 16


def primes_in(lo: int, hi: int):
    """Yield exactly the primes in [lo, hi], ascending.

    Segmented sieve: memory stays bounded by the segment size plus the base
    primes up to sqrt(hi), so large ranges stream.
    """
    if hi < lo or hi < 2:
        return
    base = primes_upto(isqrt(hi))
    for left in range(max(lo, 2), hi + 1, _SEGMENT):
        yield from _sieve(left, min(left + _SEGMENT - 1, hi), base)


def _grow(n: int) -> None:
    """Grow _PRIMES to every prime <= n, n < 2^32, by primes_in's sieve,
    unless it already holds them or the last sieve found none past its top."""
    global _BARE
    if n >= _BOUND_LIMIT:
        raise ValueError(f"primes_upto needs n < 2**32, got {n}")
    if n > _PRIMES[-1] and not (_BARE[0] == _PRIMES[-1] and n <= _BARE[1]):
        _grow(isqrt(n))  # the base primes first, so the start below is final
        _PRIMES.extend(primes_in(_PRIMES[-1] + 1, n))
        _BARE = (_PRIMES[-1], n)


def primes_upto(n: int) -> array:
    """The primes <= n as an array("I"), copied from one table that grows
    by primes_in's sieve as bounds rise; its 4-byte entries hold n < 2^32."""
    _grow(n)
    return _PRIMES[: bisect_right(_PRIMES, n)]


# --------------------------------------------------------------------------
# Modular and factorial arithmetic
# --------------------------------------------------------------------------


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)... down to 1 or 2; 0!! = 1."""
    if n < 0:
        raise ValueError("double factorial requires n >= 0")
    return math.prod(range(n, 0, -2))


def _prod_tree(xs: list[int], leaf: int = 64) -> int:
    """Product of xs by a balanced tree; math.prod multiplies a long run of
    factors into one growing value, which is quadratic.  Runs of up to leaf
    factors go to math.prod, which is cheap while they are small; factors
    as large as each other take leaf=2."""
    if len(xs) <= leaf:
        return math.prod(xs)
    mid = len(xs) // 2
    return _prod_tree(xs[:mid], leaf) * _prod_tree(xs[mid:], leaf)


# binomial_exact keeps math.comb while min(k, n-k)^2 < _COMB_CROSSOVER * n.
# CPython 3.11's math.comb costs about the square of the result's length,
# some k log(n/k) bits (C(399999, 199999): 2.1 s, against 0.05 s by
# primes); the route by primes costs about one step per prime <= n.
# Best of 5-30 calls, Python 3.11.7 on a 2-core x86-64 box: for
# C(2m-1, m-1) the routes broke even at m = 900, k^2/n = 450 (m = 2000:
# 545 us against 281 us); with k far below n/2 they broke even at k^2/n =
# 150-250 for n = 5000..400000, where a bound on k alone would lose:
# C(10^6, 1000) takes 0.4 ms by math.comb and 28 ms by primes.
_COMB_CROSSOVER = 450
# prime powers per run of binomial_exact, short enough for one math.prod.
# Longer runs were no faster and raised the transient peak at w(18000)
# from 42 KiB (as math.comb's) to 101 KiB at 1024 (tracemalloc).
_PRIME_CHUNK = 64


def binomial_exact(n: int, k: int) -> int:
    """C(n, k) exactly; 0 when k > n or k < 0.

    With k = min(k, n-k), math.comb below the crossover k^2 <
    _COMB_CROSSOVER * n.  Above it, the product of r^e over the primes
    r <= n, where e = sum over i of n // r^i - k // r^i - (n-k) // r^i by
    Legendre's formula, the base-r carry count of k + (n-k) by Kummer's
    theorem: so e is 0 or 1 for r > sqrt(n), 0 for n/2 < r <= n-k and 1
    for r > n-k.  The primes stream from primes_in; each run of
    _PRIME_CHUNK powers is multiplied out as it comes, and the run
    products by a balanced tree, so no list of the primes to n is held.
    """
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    if k * k < _COMB_CROSSOVER * n:
        return math.comb(n, k)
    j, root = n - k, isqrt(n)
    powers = chain(
        (
            r ** (_legendre(n, r) - _legendre(k, r) - _legendre(j, r))
            for r in primes_in(2, root)
        ),
        (r for r in primes_in(root + 1, n // 2) if n // r - k // r - j // r),
        primes_in(j + 1, n),
    )
    runs = []
    while run := list(islice(powers, _PRIME_CHUNK)):
        runs.append(math.prod(run))
    return _prod_tree(runs, 2)


def _check_base(q: int, *numbers: int, prime: bool = False) -> None:
    # no base below 2 has digits, nor has a negative number: the loops never
    # end; for a composite q Legendre's formula fails, and there is no
    # Wilson block sign and no group of units mod q^e
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")
    if min(numbers, default=0) < 0:
        raise ValueError(f"digits need numbers >= 0, got {min(numbers)}")
    if prime and not is_prime(q):
        raise ValueError(f"requires a prime q, got {q}")


def _check_exponent(e: int) -> None:
    if isinstance(e, bool) or not isinstance(e, int) or e < 1:
        raise ValueError(f"exponent e must be >= 1, got {e}")


def _check_prime_power(q: int, e: int, *numbers: int) -> None:
    _check_base(q, *numbers, prime=True)
    _check_exponent(e)


def legendre_valuation(n: int, q: int) -> int:
    """Exponent of the prime q in n!, via the floor-sum formula."""
    _check_base(q, n, prime=True)
    return _legendre(n, q)


def _legendre(n: int, q: int) -> int:
    """legendre_valuation without its checks, for callers that hold a prime."""
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


def factorial_unit(n: int, q: int, e: int = 1) -> tuple[int, int]:
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
    _check_prime_power(q, e, n)
    Q = q**e
    val = _legendre(n, q)
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
    return val, unit


def binomial_mod_prime_power(n: int, k: int, q: int, e: int) -> int:
    """C(n, k) mod q^e for prime q, via generalized factorials.

    The valuation of C(n, k) at q is the base-q carry count of k + (n-k);
    when it reaches e the residue is 0 and no unit work is needed.
    """
    _check_prime_power(q, e)
    Q = q**e
    if k < 0 or k > n:
        return 0
    c = carry_count(k, n - k, q)
    if c >= e:
        return 0
    _, un = factorial_unit(n, q, e)
    _, uk = factorial_unit(k, q, e)
    _, unk = factorial_unit(n - k, q, e)
    return q**c * un * pow(uk * unk, -1, Q) % Q


_TRIAL_LIMIT = 10**6
_EXACT_FALLBACK_LIMIT = 200_000
_TRIAL_FIRST = 1 << 10  # factor_completely tries the primes below it one by one
_TRIAL_RUN = 128  # table primes per run product


@lru_cache(maxsize=1)
def _trial_runs(limit: int) -> tuple[int, ...]:
    """The product of each run of _TRIAL_RUN consecutive primes <= limit."""
    table = primes_upto(limit)
    return tuple(math.prod(table[i : i + _TRIAL_RUN]) for i in range(0, len(table), _TRIAL_RUN))


def _divide_out(rest: int, primes, factors: dict[int, int]) -> int:
    """rest with the ascending primes divided out while p^2 <= rest, each
    counted in factors."""
    for p in primes:
        if p * p > rest:
            break
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
    return rest


def factor_completely(m: int) -> dict[int, int]:
    """Factor m by trial division up to 10^6 plus one primality check.

    The primes below 2^10 are tried one by one.  Past them, while p^2 <= rest
    may still hold, rest takes one gcd with each product of 128 consecutive
    primes up to 10^6 (built once) and is divided only by the primes of the
    runs whose gcd exceeds 1.  Moduli in this package are built from known
    primes, so this nearly always completes.  A composite cofactor left
    over is accepted when it is a power of one prime; raises
    FactoringBudgetExceeded (with the partial factorization) when any other
    composite cofactor survives.
    """
    if m < 1:
        raise ValueError("factorization requires m >= 1")
    factors: dict[int, int] = {}
    first = min(_TRIAL_FIRST, _TRIAL_LIMIT)
    rest = _divide_out(m, primes_upto(min(isqrt(m), first)), factors)
    if isqrt(rest) > first:
        runs = _trial_runs(_TRIAL_LIMIT)
        _grow(_TRIAL_LIMIT)  # the runs' primes, read in place
        for i, run in enumerate(runs):
            lo = i * _TRIAL_RUN
            if _PRIMES[lo] ** 2 > rest:
                break
            g = math.gcd(rest, run)
            if g > 1:
                primes = (p for p in _PRIMES[lo : lo + _TRIAL_RUN] if g % p == 0)
                rest = _divide_out(rest, primes, factors)
    if rest > 1:
        if rest <= _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(rest):
            factors[rest] = factors.get(rest, 0) + 1
        else:
            # every prime factor of rest exceeds _TRIAL_LIMIT, which bounds
            # the k of a prime power rest = r^k
            k = 2
            while (_TRIAL_LIMIT + 1) ** k <= rest:
                r = _iroot(rest, k)
                if r**k == rest and is_prime(r):
                    factors[r] = k
                    return factors
                k += 1
            raise FactoringBudgetExceeded(m, factors, rest)
    return factors


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, k >= 2, by Newton's method in integers,
    from 2^ceil(bits/k), which is at least the root."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _crt(residues: list[tuple[int, int]]) -> tuple[int, int]:
    x, m = residues[0]
    for r, n in residues[1:]:
        h = (r - x) * pow(m % n, -1, n) % n
        x += m * h
        m *= n
    return x % m, m


def binomial_mod(n: int, k: int, m: int) -> int:
    """C(n, k) mod m for any modulus m >= 2.

    Factors m, reduces per prime power, and recombines by CRT.  When m
    resists factoring within the budget, falls back to exact-then-reduce
    (bounded by n <= 200000); beyond that the factoring error propagates.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if k < 0 or k > n:
        return 0
    try:
        factors = factor_completely(m)
    except FactoringBudgetExceeded:
        if n <= _EXACT_FALLBACK_LIMIT:
            return binomial_exact(n, k) % m
        raise
    parts = [(binomial_mod_prime_power(n, k, q, a), q**a) for q, a in sorted(factors.items())]
    value, modulus = _crt(parts)
    if modulus != m:
        raise AssertionFailure("CRT modulus differs from m", m=m, observed=modulus)
    return value

