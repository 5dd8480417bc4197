"""Truncated power series and the Hilbert series pipelines.

A series is a tuple of Fractions, index = degree; the tuple length fixes the
truncation order and binary operations require equal truncation.  Hilbert
series of a presented graded algebra can be computed three independent ways:
counting normal words, inverting the alternating sum of chain counts, and
(for free products) combining factor series.  Their agreement is the main
cross-check of the whole machine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import AlgebraError, BoundError
from .chains import TailGraph, chain_counts
from .commutative import CommGB, comm_normal_monomials
from .linalg import dense_solve
from .noncommutative import NcGB, count_normal_words


def series(coefficients):
    return tuple(Fraction(c) for c in coefficients)


def series_one(truncation):
    return (Fraction(1),) + (Fraction(0),) * truncation


def _check_same(a, b):
    if len(a) != len(b):
        raise AlgebraError("series truncation mismatch")


def series_add(a, b):
    _check_same(a, b)
    return tuple(x + y for x, y in zip(a, b))


def series_sub(a, b):
    _check_same(a, b)
    return tuple(x - y for x, y in zip(a, b))


def series_mul(a, b):
    _check_same(a, b)
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(n - i):
            if b[j]:
                out[i + j] += x * b[j]
    return tuple(out)


def series_inverse(a):
    if not a or not a[0]:
        raise AlgebraError("cannot invert a series with zero constant term")
    n = len(a)
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += a[i] * out[k - i]
        out[k] = -inv0 * acc
    return tuple(out)


def hilbert_from_normal_words(gb, max_degree):
    """Coefficient d = number of normal words of degree d."""
    if isinstance(gb, NcGB):
        if max_degree > gb.certified_degree:
            raise BoundError(
                f"series requested to degree {max_degree} but the basis is "
                f"certified only to degree {gb.certified_degree}")
        counts = count_normal_words(
            gb.presentation, [f.leading[0] for f in gb.basis], max_degree)
        return series(counts)
    if isinstance(gb, CommGB):
        normal = comm_normal_monomials(
            gb.presentation, gb.basis, max_degree)
        return series(len(normal[d]) for d in range(max_degree + 1))
    raise AlgebraError("expected an NcGB or CommGB")


def hilbert_from_chains(pres, obstructions, max_degree):
    """Inverse of the alternating chain sum, truncated at max_degree.

    Weights are at least 1 and tails are nonempty, so a chain of level n
    has degree at least n + 1: the levels up to max_degree hold every chain
    within range, and those are the levels counted.
    """
    q = [Fraction(0)] * (max_degree + 1)
    graph = TailGraph(pres, obstructions, max_degree, max_degree)
    for n, row in chain_counts(graph).items():
        for d, k in row.items():
            q[d] += k if n % 2 else -k
    return series_inverse(tuple(q))


def free_product_series(ha, hb):
    """Series of the free product from the factors:
    1/H = 1/H_A + 1/H_B - 1."""
    _check_same(ha, hb)
    if not ha or ha[0] != 1 or hb[0] != 1:
        raise AlgebraError("factor series must have constant term 1")
    one = series_one(len(ha) - 1)
    q = series_sub(series_add(series_inverse(ha), series_inverse(hb)), one)
    return series_inverse(q)


def _least_numerator_degree(s, dq):
    """The least dp for which some q of degree dq has (q*s)_k = 0 for
    dp < k <= d, by fraction-free elimination in ints, one row at a time.

    s must be integral.  Row k reads s[k-1..k-dq] | -s[k] in the unknowns
    q1..q_dq.  Rows are added for k = d, d - 1, ..., 1; rows k..d are the
    system of (k - 1, dq), so the first row that leaves the system
    inconsistent is k = m(dq).  A reduced row is a*row - b*pivot divided by
    its content, as in linalg.sparse_rank.
    """
    pivots = {}
    for k in range(len(s) - 1, 0, -1):
        row = [s[k - i] if k >= i else 0 for i in range(1, dq + 1)]
        row.append(-s[k])
        while True:
            c = next((j for j in range(dq) if row[j]), None)
            if c is None:
                if row[dq]:
                    return k
                break
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            g = gcd(pivot[c], row[c])
            a, b = pivot[c] // g, row[c] // g
            row = [a * x - b * y for x, y in zip(row, pivot)]
            content = gcd(*row)
            if content > 1:
                row = [x // content for x in row]
    return 0


def rational_form(s, max_den_degree=6):
    """Polynomials p, q with q*s = p to the truncation order.

    Returns (p, q) as coefficient tuples with q[0] = 1, deg q <= max_den_degree
    and dp + dq minimal, ties going to the smaller dq; None only for the
    empty series, since (d, 0) always fits.  A hit certifies nothing beyond
    the truncation; callers must label it as a candidate.

    For each dq the unknowns are q1..q_dq and the equations (q*s)_k = 0 for
    dp < k <= d.  Two facts make one elimination per dq enough:
      - Consistency is monotone in dp: the equations of (dp + 1, dq) are a
        subset of those of (dp, dq), so (dp, dq) fits exactly when
        dp >= m(dq), the least fitting dp.  The minimal pair is the least
        (m(dq) + dq, dq) with m(dq) + dq <= d, and m(dq) is the first row k
        that makes the system inconsistent when rows are added from k = d
        down (_least_numerator_degree).
      - Scaling is invariant: each equation is linear and homogeneous in s,
        so c*s for c != 0 has the same solutions q.  Scaling s by the lcm
        of its denominators makes the elimination integral.
    The winning system is then solved once by dense_solve, whose solution
    (reduced row echelon form, free variables zero) is canonical, and p is
    the first dp + 1 coefficients of q*s.

    Top coefficients are nonzero, of p when dp >= 1 and of q when dq >= 1.
    Were p's zero, q would solve the equations (q*s)_k = 0, dp <= k <= d,
    of (dp - 1, dq), a pair lower in total degree that would have won.  So
    would (dp, dq - 1) were q's zero.
    """
    d = len(s) - 1
    if d < 0:
        return None
    scale = lcm(*(x.denominator for x in s))
    ints = [x.numerator * (scale // x.denominator) for x in s]
    best = None
    for n in range(min(max_den_degree, d) + 1):
        if best and n >= sum(best):
            break  # m(n) >= 0, so no larger dq can win
        m = _least_numerator_degree(ints, n)
        if best is None or m + n < sum(best):
            best = m, n
    dp, dq = best
    eqs = [[s[k - i] if k >= i else Fraction(0) for i in range(1, dq + 1)]
           for k in range(dp + 1, d + 1)]
    sol = dense_solve(eqs, [-s[k] for k in range(dp + 1, d + 1)])
    q = (Fraction(1),) + tuple(sol)
    p = tuple(sum((q[i] * s[k - i] for i in range(min(k, dq) + 1)),
                  Fraction(0)) for k in range(dp + 1))
    return p, q
