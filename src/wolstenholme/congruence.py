"""Congruence checks around the central binomial value w(n) = C(2n-1, n-1).

Wilson-type factorial residues, Wolstenholme/Babbage/Jones checks, the
modified binomial w'(n) and its divisor-product relation, the two-prime
pair criterion, and the parity classification of large prime factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from .arith import (
    ResidueClass,
    _check_prime_ge5,
    binomial_exact,
    binomial_mod,
    factor_completely,
    is_prime,
    primes_in,
    primes_upto,
)
from .errors import BudgetExceeded, AssertionFailure, PreconditionViolated

__all__ = [
    "CongruenceVerdict",
    "PairCriterionResult",
    "FactorBand",
    "w_exact",
    "w_iter",
    "w_mod",
    "wprime_exact",
    "wprime_mod",
    "divisor_product_check",
    "divisor_product_checks",
    "wilson_residue",
    "wilson_restatement_check",
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
class CongruenceVerdict:
    """Outcome of one residue test: does the subject hit its target mod m?"""

    subject: int
    modulus: int
    residue: ResidueClass
    target: int
    holds: bool

    @classmethod
    def check(cls, subject: int, residue: ResidueClass, target: int) -> "CongruenceVerdict":
        return cls(
            subject=subject,
            modulus=residue.modulus,
            residue=residue,
            target=target,
            holds=residue.value == target,
        )


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
    """w(n) = C(2n-1, n-1), exactly; equals half of C(2n, n)."""
    if n < 1:
        raise ValueError("w(n) requires n >= 1")
    return binomial_exact(2 * n - 1, n - 1)


def w_iter(limit: int, start: int = 1):
    """Yield (n, w(n)) for n = start..limit with O(1) big-integer ops per step.

    Enters at w(start), then steps w(n) = w(n-1) * 2(2n-1) / n, an exact
    integer recurrence.
    """
    if start < 1:
        raise ValueError("w(n) requires n >= 1")
    n, w = start, math.comb(2 * start - 1, start - 1)
    while n <= limit:
        yield n, w
        n += 1
        w = w * (2 * (2 * n - 1)) // n


def w_mod(n: int, m: int) -> ResidueClass:
    """w(n) mod m.

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
            return ResidueClass(num * pow(den, -1, m) % m, m)
    return binomial_mod(2 * n - 1, n - 1, m)


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


def wprime_mod(n: int, m: int) -> ResidueClass:
    """w'(n) mod m, for moduli whose prime factors all divide n.

    Under that precondition every k coprime to n is invertible mod m, so the
    defining product can be evaluated as (prod of 2n-k) * (prod of k)^-1.
    The precondition holds iff m divides n^e for e >= every exponent in m,
    and m.bit_length() bounds those exponents.
    """
    if n < 1:
        raise ValueError("w'(n) requires n >= 1")
    if pow(n, m.bit_length(), m):
        raise PreconditionViolated(
            f"modulus {m} has a prime factor that does not divide n={n}"
        )
    num = den = 1
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            num = num * (2 * n - k) % m
            den = den * k % m
    return ResidueClass(num * pow(den, -1, m) % m, m)


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


def _prod_tree(xs: list[int]) -> int:
    """Product of xs by a balanced tree; math.prod multiplies a long run of
    small factors into one growing value, which is quadratic."""
    if len(xs) <= 64:
        return math.prod(xs)
    mid = len(xs) // 2
    return _prod_tree(xs[:mid]) * _prod_tree(xs[mid:])


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


def _wprime_parts(n_max: int):
    """Yield (d, divisors of d, num, den) for d = 1..n_max, where
    w'(d) = num/den in lowest terms, from its definition: before reduction
    num is the product of the j in [d, 2d) and den of the k in [1, d] that
    are coprime to d.

    Those integers are read off a bytearray mask with every multiple of
    each prime divisor of d cleared; the divisor lists come from one sieve.
    """
    divs: list[list[int]] = [[] for _ in range(n_max + 1)]
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            divs[m].append(d)
    primes = set(primes_upto(n_max))
    for d in range(1, n_max + 1):
        mask = bytearray(b"\x01") * (d + 1)  # mask[k] for k = 0..d
        mask[0] = 0
        for q in divs[d]:
            if q in primes:
                mask[::q] = bytes(d // q + 1)
        den = _prod_tree(list(compress(range(d + 1), mask)))
        num = _prod_tree(list(compress(range(2 * d, d - 1, -1), mask)))  # 2d - k
        g = math.gcd(num, den)
        yield d, divs[d], num // g, den // g


def divisor_product_checks(n_max: int):
    """Yield (n, divisor_product_check(n)) for n = 1..n_max in one pass.

    Each w'(d) is built once and kept for the n it divides; w(n) comes
    from w_iter.  The comparison cross-multiplies as divisor_product_check
    does.
    """
    nums, dens = [0], [0]  # w'(d) = nums[d] / dens[d]
    for (n, w), (_, divisors, num, den) in zip(w_iter(n_max), _wprime_parts(n_max)):
        nums.append(num)
        dens.append(den)
        yield n, math.prod(nums[d] for d in divisors) == w * math.prod(
            dens[d] for d in divisors
        )


def wilson_residue(n: int, e: int) -> CongruenceVerdict:
    """Verdict on (n-1)! = -1 (mod n^e), by modular product.

    e = 1 characterizes primes, e = 2 Wilson primes; e = 3 is conjectured
    to never hold.
    """
    if n < 2:
        raise ValueError("Wilson residue requires n >= 2")
    m = n**e
    acc = 1
    for k in range(2, n):
        acc = acc * k % m
    return CongruenceVerdict.check(n, ResidueClass(acc, m), m - 1)


def wilson_restatement_check(n: int) -> bool:
    """Check (2n-1)!/n! = (n-1)! (mod n); an identity, true for every n >= 2."""
    if n < 2:
        raise ValueError("requires n >= 2")
    lhs = rhs = 1
    for k in range(1, n):
        lhs = lhs * (n + k) % n
        rhs = rhs * k % n
    return lhs == rhs


def wilson_restatement_checks(n_max: int):
    """Yield (n, wilson_restatement_check(n)) for n = 2..n_max in one pass.

    (n-1)! and (2n-1)!/n! are carried exactly from one n to the next, the
    latter by (2n+1)!/(n+1)! = (2n-1)!/n! * (2n)(2n+1)/(n+1), an exact
    division; each n reduces both mod n.
    """
    fact, ratio = 1, 3  # (n-1)! and (2n-1)!/n! at n = 2
    for n in range(2, n_max + 1):
        yield n, ratio % n == fact % n
        fact *= n
        ratio = ratio * (2 * n) * (2 * n + 1) // (n + 1)


def jones_check(n: int) -> CongruenceVerdict:
    """Verdict on w(n) = 1 (mod n^3)."""
    if n < 2:
        raise ValueError("requires n >= 2")
    return CongruenceVerdict.check(n, w_mod(n, n**3), 1)


def is_wolstenholme_prime(p: int) -> bool:
    """True iff w(p) = 1 (mod p^4); only 16843 and 2124679 are known."""
    _check_prime_ge5(p)
    return w_mod(p, p**4).value == 1


def mcintosh_check(n: int) -> CongruenceVerdict:
    """Verdict on w(n) = 1 (mod n^2).

    For n = p^2 with p an odd prime, additionally asserts the derivation
    step w(n) = w(p) (mod n^2); a failure there signals a defect.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    m = n * n
    verdict = CongruenceVerdict.check(n, w_mod(n, m), 1)
    r = math.isqrt(n)
    if r >= 3 and r * r == n and is_prime(r):
        if verdict.residue.value != w_mod(r, m).value:
            raise AssertionFailure(
                "w(p^2) = w(p) (mod p^4) derivation step failed", n=n, p=r
            )
    return verdict


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
    left = w_mod(p, q**e).value == 1
    right = w_mod(q, p**e).value == 1
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
