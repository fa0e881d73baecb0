"""The one-step recurrence for w(n) = C(2n-1, n-1), kept as the test oracle
of congruence.w_at, which advances it by gaps, and of the small-prime
filter of congruence._w_power_residues."""

import math


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
