"""The Fraction recurrence of the elementary symmetric functions S(n, k) of
{1, 1/2, ..., 1/n}, kept as the test oracle of symmetric.elem_sym_rows,
which carries each row as integers over denominators known in advance."""

from fractions import Fraction


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
