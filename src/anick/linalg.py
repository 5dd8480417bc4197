"""Exact linear algebra: sparse rank over Q, small dense solves.

Rows are dicts mapping column keys to ints or Fractions.  Rank runs
incremental row echelon with the smallest column as pivot, so column keys
must be mutually comparable (ints, tuples of ints).  ``sparse_rank`` is exact
over Q without rational arithmetic: each row is scaled to ints by the lcm of
its denominators and eliminated fraction-free.  ``dense_solve`` works in
Fractions; ``hilbert.rational_form`` calls it once per fit, on the system
its integer search has already chosen.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integral_row(raw):
    """The row's nonzero entries times the lcm of their denominators, as
    ints: a nonzero multiple of the row, so spans over Q are unchanged."""
    row = {c: v for c, v in raw.items() if v}
    if all(type(v) is int for v in row.values()):
        return row
    row = {c: Fraction(v) for c, v in row.items()}
    scale = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


def sparse_rank(rows):
    """Rank over Q of the matrix whose rows are given as {column: value}
    dicts, by fraction-free elimination in ints.

    Each row is first scaled to ints.  A row whose smallest column c holds
    a pivot becomes a*row - b*pivot, with a/b = pivot[c]/row[c] in lowest
    terms, and is divided by the gcd of its entries.  Both steps multiply
    by a nonzero rational or add a multiple of a pivot row, so the rank is
    exactly the rank over Q.
    """
    pivots = {}
    rank = 0
    for raw in rows:
        row = _integral_row(raw)
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                rank += 1
                break
            a, b = pivot[c], row[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {k: v * a for k, v in row.items()}
            for pc, pv in pivot.items():
                acc = row.get(pc, 0) - b * pv
                if acc:
                    row[pc] = acc
                else:
                    row.pop(pc, None)
            content = gcd(*row.values())
            if content > 1:
                row = {k: v // content for k, v in row.items()}
    return rank


def dense_solve(matrix, rhs):
    """One exact solution of matrix . x = rhs, or None when inconsistent.

    Free variables are set to zero.  matrix is a list of equal-length rows.
    """
    if not matrix:
        return [] if not any(rhs) else None
    m = [list(map(Fraction, row)) + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    nrows, ncols = len(m), len(matrix[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pick = None
        for k in range(r, nrows):
            if m[k][c]:
                pick = k
                break
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for k in range(nrows):
            if k != r and m[k][c]:
                factor = m[k][c]
                m[k] = [a - factor * b for a, b in zip(m[k], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    for k in range(r, nrows):
        if m[k][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivot_cols):
        x[c] = m[row_idx][ncols]
    return x
