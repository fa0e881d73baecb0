"""Congruence checks around the central binomial value w(n) = C(2n-1, n-1).

The one module that computes w(n), with one kernel per job: exactly
(w_exact), by the recurrence over gaps (w_at), modulo m (w_mod), modulo a
prime by Lucas' theorem (_w_mod_prime), modulo n^e at the n no small
prime rules out (_w_power_residues), modulo p^3 from factorial residues
(_w_from_factorials), and the primes q | w(p) - 1 of a primorial
(_w_minus_one_gcds).  Also Wilson-type factorial residues and the
restatement (2n-1)!/n! = (n-1)! (mod n); the per-n verdicts w(n) = 1 mod
n^3 (Jones), mod p^4 (Wolstenholme primes), with which the scans reverify
their hits, and mod n^2 (McIntosh); the modified binomial w'(n) and its
divisor-product relation, the two-prime pair criterion, and the parity
classification of large prime factors.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from typing import Callable

from .arith import (
    _check_prime_ge5,
    _prod_tree,
    binomial_exact,
    binomial_mod,
    factor_completely,
    is_prime,
    primes_in,
    primes_upto,
    valuation,
)
from .errors import BudgetExceeded, AssertionFailure, PreconditionViolated

__all__ = [
    "PairCriterionResult",
    "FactorBand",
    "w_exact",
    "w_at",
    "w_mod",
    "wprime_exact",
    "wprime_mod",
    "divisor_product_check",
    "divisor_product_checks",
    "wilson_residue",
    "wilson_restatement_checks",
    "jones_check",
    "is_wolstenholme_prime",
    "mcintosh_check",
    "pair_criterion",
    "pair_direct_check",
    "factor_band_classify",
]

PAIR_DIRECT_BUDGET = 10**5


@dataclass(frozen=True)
class PairCriterionResult:
    """Both halves of the pair criterion at a given power level."""

    p: int
    q: int
    level: int
    left: bool  # w(p) = 1 mod q^level
    right: bool  # w(q) = 1 mod p^level
    combined: bool


@dataclass(frozen=True)
class FactorBand:
    """A prime q >= sqrt(2p-1) placed in its band (2p-1)/(band+1) < q <= (2p-1)/band.

    Odd bands are predicted to divide w(p), even bands not to.
    """

    p: int
    band: int
    interval: tuple[Fraction, Fraction]
    q: int
    predicted_divides: bool
    actual_divides: bool


@lru_cache(maxsize=512)
def w_exact(n: int) -> int:
    """w(n) = C(2n-1, n-1), exactly; equals half of C(2n, n).

    Read from binomial_exact: by math.comb below n = 902, from the prime
    exponents of w(n) above.  Cached for the 512 most recent n."""
    if n < 1:
        raise ValueError("w(n) requires n >= 1")
    return binomial_exact(2 * n - 1, n - 1)


def w_at(points):
    """Yield (n, w(n)) for each n of points, strictly increasing, n >= 1.

    Enters at the first point by binomial_exact, which builds a large w
    from its prime exponents, and not by w_exact, whose cache would keep
    it; then crosses each gap n < m in one step: w(m) = w(n) *
    prod 2(2j-1) // prod j over n < j <= m, an exact division.  Nothing
    is computed before the first next().
    """
    n = w = None
    for m in points:
        if n is None:
            if m < 1:
                raise ValueError("w(n) requires n >= 1")
            w = binomial_exact(2 * m - 1, m - 1)
        else:
            if m <= n:
                raise ValueError(f"points must increase, got {m} after {n}")
            js = range(n + 1, m + 1)
            w = w * _prod_tree([2 * (2 * j - 1) for j in js]) // _prod_tree(list(js))
        n = m
        yield n, w


def w_mod(n: int, m: int) -> int:
    """w(n) mod m, in [0, m).

    w(n) * (n-1)! = (n+1)(n+2)...(2n-1), so whenever (n-1)! is a unit mod m
    the residue is the O(n) modular product of (n+k) times the inverse of
    (n-1)!.  That route is tried only for m > 2n-1.  The smaller moduli
    include every m < n, which always shares a prime with (n-1)!, and for
    all of them binomial_mod is cheap: each prime power q^e of m costs it
    a sign and at most q^e multiplications per base-q digit of 2n-1.
    Every other modulus goes through binomial_mod.
    """
    if n < 1:
        raise ValueError("w(n) requires n >= 1")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if m > 2 * n - 1:
        den = 1
        for k in range(1, n):
            den = den * k % m
        if math.gcd(den, m) == 1:
            num = 1
            for k in range(n + 1, 2 * n):
                num = num * k % m
            return num * pow(den, -1, m) % m
    return binomial_mod(2 * n - 1, n - 1, m)


def _w_mod_prime(p: int) -> Callable[[int], int]:
    """n -> w(n) mod the prime p, by Lucas' theorem: C(2n-1, n-1) is the
    product of C(a, b) mod p over the base-p digits a of 2n-1 and b of n-1.
    One table of k! mod p for k < p serves every n; the inverse factorials
    run down from (p-1)! = -1 (mod p), Wilson's theorem."""
    fact = [1] * p
    for k in range(1, p):
        fact[k] = fact[k - 1] * k % p
    inv = [1] * p
    inv[p - 1] = p - 1  # -1 is its own inverse
    for k in range(p - 1, 1, -1):
        inv[k - 1] = inv[k] * k % p

    def w_mod_p(n: int) -> int:
        top, bottom, r = 2 * n - 1, n - 1, 1
        while bottom:  # a digit of 2n-1 past the last of n-1 gives C(a, 0) = 1
            a, b = top % p, bottom % p
            if b > a:
                return 0
            r = r * fact[a] * inv[b] * inv[a - b] % p
            top //= p
            bottom //= p
        return r

    return w_mod_p


def _w_power_residues(lo: int, hi: int, e: int):
    """Yield (n, w(n) mod n^e) for n = lo..hi, or (n, None) where a small
    prime q | n rules w(n) = 1 (mod n^e) out by w(n) mod q != 1.

    Each prime q <= isqrt(hi) in turn strikes such multiples of q, from one
    _w_mod_prime(q) table; no prime is struck, as w(p) = 1 (mod p).  w_at
    then crosses the gaps between the n left: every prime, few composites.
    """
    if lo < 1:
        raise ValueError("w(n) requires n >= 1")
    left = bytearray(b"\x01") * (hi - lo + 1)  # left[n - lo]: n not struck
    for q in primes_upto(math.isqrt(max(hi, 0))):
        w_mod_q = _w_mod_prime(q)
        for n in range(-(-lo // q) * q, hi + 1, q):
            if left[n - lo] and w_mod_q(n) != 1:
                left[n - lo] = 0
    ws = w_at(compress(range(lo, hi + 1), left))
    for n, kept in zip(range(lo, hi + 1), left):
        yield n, next(ws)[1] % n**e if kept else None


def _w_minus_one_gcds(points, primorial: int):
    """Yield (p, m, gcd(m, primorial)) for each p of w_at(points), with
    m = (w(p) - 1) / p^v; a prime q != p of the primorial divides the gcd
    exactly when w(p) = 1 (mod q)."""
    for p, w in w_at(points):
        m = (w - 1) // p ** valuation(w - 1, p)
        yield p, m, math.gcd(m, primorial)


def wprime_exact(n: int) -> Fraction:
    """Modified binomial w'(n): product of (2n-k)/k over k <= n coprime to n.

    Integral for prime n (where it equals w(n)) but not in general,
    e.g. w'(4) = 35/3.
    """
    if n < 1:
        raise ValueError("w'(n) requires n >= 1")
    num = den = 1
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            num *= 2 * n - k
            den *= k
    return Fraction(num, den)


def wprime_mod(n: int, m: int) -> int:
    """w'(n) mod m, in [0, m), for moduli whose prime factors all divide n.

    Under that precondition every k coprime to n is invertible mod m, so the
    defining product can be evaluated as (prod of 2n-k) * (prod of k)^-1.
    The precondition holds iff m divides n^e for e >= every exponent in m,
    and m.bit_length() bounds those exponents.
    """
    if n < 1:
        raise ValueError("w'(n) requires n >= 1")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if pow(n, m.bit_length(), m):
        raise PreconditionViolated(
            f"modulus {m} has a prime factor that does not divide n={n}"
        )
    num = den = 1
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            num = num * (2 * n - k) % m
            den = den * k % m
    return num * pow(den, -1, m) % m


def _divisors(n: int) -> list[int]:
    divs = [1]
    for q, a in sorted(factor_completely(n).items()):
        divs = [d * q**i for d in divs for i in range(a + 1)]
    return sorted(divs)


def divisor_product_check(n: int) -> bool:
    """True iff w(n) equals the product of w'(d) over all divisors d of n.

    Exact rational arithmetic, compared via cross-multiplication.
    """
    num = den = 1
    for d in _divisors(n):
        wd = wprime_exact(d)
        num *= wd.numerator
        den *= wd.denominator
    return num == w_exact(n) * den


_LEAF_EVENTS = 32  # events per leaf block of _factorial_residues


def _factorial_residues(points: list[int], moduli: list[int]):
    """Yield x! mod m for each x of points, non-decreasing, with the m of
    moduli at the same index, in order.

    An accumulating remainder tree (Costa, Gerbicz and Harvey, "A search
    for Wilson primes", 2014).  The moduli are multiplied up a tree over
    leaf blocks of events.  Its descent hands each node V, the product of
    the runs (x_{i-1}, x_i] before the node, mod the node's modulus: the
    left child gets V mod M_left, the right child V * A_left mod M_right,
    where A_left, the product of the runs under the left child, is what
    the left descent returns.  Within a block V is carried mod the block's
    modulus.  The root's V is points[0]!, so a range entered high costs one
    factorial, and nothing is computed before the first next().
    """
    if not points:
        return
    leaves = range(0, len(points), _LEAF_EVENTS)
    tree = [[math.prod(moduli[a : a + _LEAF_EVENTS]) for a in leaves]]
    while len(tree[-1]) > 1:
        below = tree[-1]
        tree.append([math.prod(below[i : i + 2]) for i in range(0, len(below), 2)])

    def descend(level: int, j: int, v: int):
        """Yield the residues under node j of level, given its V; return
        the product of its runs."""
        if level == 0:
            block, runs = tree[0][j], 1
            for i in range(j * _LEAF_EVENTS, min((j + 1) * _LEAF_EVENTS, len(points))):
                run = math.prod(range(points[max(i - 1, 0)] + 1, points[i] + 1))
                runs *= run
                v = v * run % block
                yield v % moduli[i]
            return runs
        below = tree[level - 1]
        if 2 * j + 1 == len(below):  # a lone child spans the same events
            return (yield from descend(level - 1, 2 * j, v))
        left = yield from descend(level - 1, 2 * j, v % below[2 * j])
        right_m = below[2 * j + 1]
        right = yield from descend(level - 1, 2 * j + 1, v % right_m * (left % right_m) % right_m)
        return left * right

    yield from descend(len(tree) - 1, 0, math.factorial(points[0]) % tree[-1][0])


def _w_from_factorials(p: int, low: int, high: int) -> int:
    """w(p) mod p^3 for a prime p, from low = (p-1)! mod p^3 and high =
    (2p-1)! mod p^4 by the factorial formula w(p) = ((2p-1)!/p) / ((p-1)!)^2;
    p divides (2p-1)! exactly once."""
    m = p**3
    return high // p * pow(low * low, -1, m) % m


def _wprime_parts(n_max: int):
    """Yield (d, divisors of d, num, den) for d = 1..n_max, where
    w'(d) = num/den in lowest terms: the product of the j in [d, 2d) over
    the k in [1, d], both coprime to d, read off its prime exponents.

    With C(x) the count of t in [1, x] coprime to d, a prime r not dividing
    d has the exponent e_r = sum over r^i <= 2d-1 of C((2d-1) // r^i) -
    C((d-1) // r^i) - C(d // r^i), by Legendre's formula, as r^i t is
    coprime to d exactly when t is; e_r = 1 for r in (d, 2d).  num
    multiplies r^e over e > 0 and den r^-e over e < 0, so no gcd is needed.
    C is the prefix count of a bytearray mask cleared at the multiples of
    d's prime divisors.  Nothing here reads w(n), a binomial or a
    factorial, so rel's w(n) = prod of w'(d) stays a check.
    """
    divs: list[list[int]] = [[] for _ in range(n_max + 1)]
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            divs[m].append(d)
    primes = primes_upto(2 * n_max - 1)
    for d in range(1, n_max + 1):
        mask = bytearray(b"\x01") * (d + 1)  # mask[t] for t = 0..d
        mask[0] = 0
        for q in divs[d][1:]:
            if mask[q]:  # no smaller divisor struck q, so q is prime
                mask[::q] = bytes(d // q + 1)
        count = list(accumulate(mask))  # count[x] = C(x)
        top, below = 2 * d - 1, bisect_right(primes, d)
        nums, dens = list(primes[below : bisect_right(primes, top)]), []
        for r in primes[:below]:
            if not mask[r]:
                continue
            e, q = 0, r
            while q <= top:
                e += count[top // q] - count[(d - 1) // q] - count[d // q]
                q *= r
            if e > 0:
                nums.append(r**e)
            elif e < 0:
                dens.append(r**-e)
        yield d, divs[d], _prod_tree(nums), _prod_tree(dens)


def divisor_product_checks(n_max: int):
    """Yield (n, divisor_product_check(n)) for n = 1..n_max in one pass.

    Each w'(d) is built once and kept for the n it divides; w(n) comes
    from w_at.  The comparison cross-multiplies as divisor_product_check
    does.
    """
    nums, dens = [0], [0]  # w'(d) = nums[d] / dens[d]
    ws = w_at(range(1, n_max + 1))
    for (n, w), (_, divisors, num, den) in zip(ws, _wprime_parts(n_max)):
        nums.append(num)
        dens.append(den)
        yield n, math.prod(nums[d] for d in divisors) == w * math.prod(
            dens[d] for d in divisors
        )


def wilson_residue(n: int, e: int) -> int:
    """(n-1)! mod n^e, by modular product.

    It is n^e - 1, that is (n-1)! = -1 (mod n^e), for e = 1 exactly at the
    primes, for e = 2 at the Wilson primes; e = 3 is conjectured never to
    give it.
    """
    if n < 2:
        raise ValueError("Wilson residue requires n >= 2")
    m = n**e
    acc = 1
    for k in range(2, n):
        acc = acc * k % m
    return acc


def wilson_restatement_checks(n_max: int):
    """Yield (n, (2n-1)!/n! = (n-1)! (mod n)) for n = 2..n_max in one pass;
    an identity, true for every n >= 2.

    (n-1)! and (2n-1)!/n! are carried exactly from one n to the next, the
    latter by (2n+1)!/(n+1)! = (2n-1)!/n! * (2n)(2n+1)/(n+1), an exact
    division; each n reduces both mod n.
    """
    fact, ratio = 1, 3  # (n-1)! and (2n-1)!/n! at n = 2
    for n in range(2, n_max + 1):
        yield n, ratio % n == fact % n
        fact *= n
        ratio = ratio * (2 * n) * (2 * n + 1) // (n + 1)


def jones_check(n: int) -> bool:
    """True iff w(n) = 1 (mod n^3)."""
    if n < 2:
        raise ValueError("requires n >= 2")
    return w_mod(n, n**3) == 1


def is_wolstenholme_prime(p: int) -> bool:
    """True iff w(p) = 1 (mod p^4); only 16843 and 2124679 are known."""
    _check_prime_ge5(p)
    return w_mod(p, p**4) == 1


def mcintosh_check(n: int) -> bool:
    """True iff w(n) = 1 (mod n^2).

    For n = p^2 with p an odd prime, additionally asserts the derivation
    step w(n) = w(p) (mod n^2); a failure there signals a defect.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    m = n * n
    residue = w_mod(n, m)
    r = math.isqrt(n)
    if r >= 3 and r * r == n and is_prime(r):
        if residue != w_mod(r, m):
            raise AssertionFailure(
                "w(p^2) = w(p) (mod p^4) derivation step failed", n=n, p=r
            )
    return residue == 1


def _validate_pair(p: int, q: int, e: int) -> None:
    if e not in (1, 2, 3):
        raise ValueError("level must be 1, 2, or 3")
    floor = 5 if e == 3 else 3
    if p == q:
        raise ValueError("primes must be distinct")
    for x in (p, q):
        if x < floor or not is_prime(x):
            raise ValueError(f"{x} is not a prime >= {floor} (level {e})")


def pair_criterion(p: int, q: int, e: int) -> PairCriterionResult:
    """Evaluate both halves of the pair criterion at level e.

    combined is equivalent to w(pq) = 1 (mod (pq)^e); the equivalence is
    exercised against pair_direct_check in the test suite.
    """
    _validate_pair(p, q, e)
    left = w_mod(p, q**e) == 1
    right = w_mod(q, p**e) == 1
    return PairCriterionResult(p, q, e, left, right, left and right)


def pair_direct_check(p: int, q: int, e: int) -> bool:
    """w(pq) = 1 (mod (pq)^e) by direct exact binomial reduction.

    Independent of pair_criterion (no per-prime-power factorial route);
    budgeted at pq <= 100000.
    """
    _validate_pair(p, q, e)
    if p * q > PAIR_DIRECT_BUDGET:
        raise BudgetExceeded(f"pq = {p * q} exceeds direct budget {PAIR_DIRECT_BUDGET}")
    m = (p * q) ** e
    return w_exact(p * q) % m == 1


def factor_band_classify(p: int) -> list[FactorBand]:
    """Classify every prime sqrt(2p-1) <= q <= 2p-1, q != p, by its band.

    Band index n = floor((2p-1)/q); odd n predicts q | w(p), even n predicts
    q does not divide w(p).  actual_divides reduces the exact w(p) mod q.
    """
    _check_prime_ge5(p)
    top = 2 * p - 1
    w = w_exact(p)
    bands = []
    for q in primes_in(math.isqrt(top - 1) + 1, top):
        if q == p:
            continue
        n = top // q
        bands.append(
            FactorBand(
                p=p,
                band=n,
                interval=(Fraction(top, n + 1), Fraction(top, n)),
                q=q,
                predicted_divides=bool(n % 2),
                actual_divides=w % q == 0,
            )
        )
    return bands
