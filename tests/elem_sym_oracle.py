"""The Fraction recurrence of the elementary symmetric functions S(n, k) of
{1, 1/2, ..., 1/n}, kept as the test oracle of symmetric.elem_sym_rows,
which carries each row as integers over denominators known in advance;
and num_valuation, the valuation the expansion checks read on those
Fraction rows before they read integer rows."""

from fractions import Fraction

from wolstenholme.arith import _check_base, valuation


def elem_sym_rows_by_fractions(n_max):
    """Yield (S(n, 0), ..., S(n, n)) as Fractions for n = 0..n_max, by
    S(n, k) = S(n-1, k) + S(n-1, k-1)/n, one gcd-reduced Fraction per step,
    as elem_sym_rows once built them."""
    row = [Fraction(1)]
    for n in range(n_max + 1):
        if n:
            w = Fraction(1, n)
            row.append(row[-1] * w)
            for k in range(n - 1, 0, -1):
                row[k] += row[k - 1] * w
        yield tuple(row)


def num_valuation(r: Fraction, q: int) -> int:
    """Exponent of the prime q in the numerator of r.

    This is the fractional-congruence valuation: it requires gcd(den, q) = 1
    and a nonzero numerator, and raises ValueError otherwise; valuation
    raises it for 0.
    """
    _check_base(q)
    if r.denominator % q == 0:
        raise ValueError(f"{q} divides denominator of {r}")
    return valuation(r.numerator, q)
