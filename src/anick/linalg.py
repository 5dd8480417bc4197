"""Exact linear algebra: sparse rank over Q by fraction-free elimination.

Rows are dicts mapping column keys to ints or Fractions.  Rank runs
incremental row echelon with the smallest column as pivot, so column keys
must be mutually comparable (ints, tuples of ints).  ``sparse_rank`` is exact
over Q without rational arithmetic: each row is scaled to ints by the lcm of
its denominators and eliminated fraction-free by ``_reduce_row``.
``hilbert.rational_form`` builds its echelons with the same reducer and
back-substitutes on them, so no solve over Fractions is left here.
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


def _reduce_row(row, pivots):
    """Reduce an int row by the pivots {column: row}; returns the column
    where it settles as a new pivot, or None when it vanishes.

    While the row's smallest column c holds a pivot, the row becomes
    a*row - b*pivot, with a/b = pivot[c]/row[c] in lowest terms, divided
    by the gcd of its entries.  Both steps multiply by a nonzero rational
    or add a multiple of a pivot row, so spans over Q are unchanged.
    """
    while row:
        c = min(row)
        pivot = pivots.get(c)
        if pivot is None:
            pivots[c] = row
            return c
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
    return None


def sparse_rank(rows):
    """Rank over Q of the matrix whose rows are given as {column: value}
    dicts: the number of rows that settle, scaled to ints, as pivots."""
    pivots = {}
    return sum(_reduce_row(_integral_row(raw), pivots) is not None
               for raw in rows)

