"""Both Stirling triangles by one double loop, kept as the test oracle of
symmetric.StirlingTables (the first kind) and of symmetric.s2_diagonals
(the second kind, read along its diagonals S(j+k, j))."""

import functools


@functools.cache
def stirling_rows_by_loop(n_max):
    """Both triangles through row n_max by one double loop, as
    stirling_tables once built them together."""
    s1_rows, s2_rows = [(1,)], [(1,)]
    for n in range(1, n_max + 1):
        prev1, prev2 = s1_rows[-1], s2_rows[-1]
        row1, row2 = [0] * (n + 1), [0] * (n + 1)
        for k in range(1, n + 1):
            above1 = prev1[k] if k < n else 0
            above2 = prev2[k] if k < n else 0
            row1[k] = prev1[k - 1] - (n - 1) * above1
            row2[k] = prev2[k - 1] + k * above2
        s1_rows.append(tuple(row1))
        s2_rows.append(tuple(row2))
    return tuple(s1_rows), tuple(s2_rows)


def s2_diagonal_by_loop(k, n_max):
    """(S(k, 0), S(k+1, 1), ..., S(2k, k)) read off the second-kind triangle
    through row n_max >= 2k."""
    s2_rows = stirling_rows_by_loop(n_max)[1]
    return tuple(s2_rows[j + k][j] for j in range(k + 1))
