"""The coprime-mask products for w'(d), kept as the test oracle of
congruence._wprime_parts, which reads w'(d) off prime exponents."""

import math
from itertools import compress

from wolstenholme.arith import primes_upto
from wolstenholme.congruence import _prod_tree


def wprime_parts_by_masks(n_max: int):
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
