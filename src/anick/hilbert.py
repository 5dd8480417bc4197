"""Truncated power series and the Hilbert series pipelines.

A series is a tuple of Fractions, index = degree; the tuple length fixes the
truncation order.  The Hilbert series of a presented graded algebra is
computed by two independent pipelines: counting normal words, and inverting
the alternating sum of chain counts.  Their agreement is the main
cross-check of the whole machine.  The free-product identity
1/H = 1/H_A + 1/H_B - 1 is a third route, kept as a test oracle.

The pipelines compute in ints where the numbers are integral and return
Fractions.  The Hilbert series H of a graded algebra and 1/H are integral
with constant term 1, so ``series_inverse`` runs its recurrence in ints on
such input, and the chain sum is built in ints.  ``rational_form`` scales
the series to ints, eliminates fraction-free, and reads q and p off its own
echelon, with no second solve.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .algebra import AlgebraError, BoundError
from .chains import TailGraph
from .commutative import CommGB, comm_normal_monomials
from .linalg import _reduce_row
from .noncommutative import NcGB, _path_table, count_normal_words


def series(coefficients):
    return tuple(Fraction(c) for c in coefficients)


def series_inverse(a):
    """1/a to the truncation of a, with Fraction coefficients, by the
    recurrence out[k] = -(1/a[0]) * sum(a[i] * out[k - i], 1 <= i <= k).

    When a is integral and a[0] is 1 or -1, so is 1/a: the recurrence runs
    in ints and is converted to Fractions once at the end.  Any other a
    runs it in Fractions.
    """
    if not a or not a[0]:
        raise AlgebraError("cannot invert a series with zero constant term")
    integral = a[0] in (1, -1) and all(x.denominator == 1 for x in a)
    if integral:
        a = [x.numerator for x in a]
    inv0 = a[0] if integral else Fraction(1) / a[0]
    out = [inv0]
    for k in range(1, len(a)):
        out.append(-inv0 * sum(map(mul, a[1:k + 1], reversed(out))))
    return series(out)


def hilbert_from_normal_words(gb, max_degree):
    """Coefficient d = number of normal words of degree d."""
    if isinstance(gb, NcGB):
        if max_degree > gb.certified_degree:
            raise BoundError(
                f"series requested to degree {max_degree} but the basis is "
                f"certified only to degree {gb.certified_degree}")
        return series(count_normal_words(gb.presentation, gb.tips, max_degree))
    if isinstance(gb, CommGB):
        normal = comm_normal_monomials(
            gb.presentation, gb.basis, max_degree)
        return series(len(normal[d]) for d in range(max_degree + 1))
    raise AlgebraError("expected an NcGB or CommGB")


def hilbert_from_chains(pres, tips, max_degree):
    """Inverse of the alternating chain sum on the tips, to max_degree.

    An n-chain is a path of n + 1 edges from () in the tail graph, so the
    graph's path table with sign -1 counts it with the sign (-1)^(n+1) of
    the chain sum, the (-1)-chain as the empty path.  Every edge has degree
    at least 1, so the degree bound alone reaches every chain of degree
    <= max_degree, at any level: the root row is the chain sum.
    """
    graph = TailGraph(pres, tips)
    return series_inverse(_path_table(graph.follow, max_degree, -1)[()])


def _least_numerator_degree(s, dq):
    """(m, echelon): the least dp for which some q of degree dq has
    (q*s)_k = 0 for dp < k <= d, and the echelon of those equations, by
    fraction-free elimination in ints, one row at a time.

    s must be integral.  Row k reads s[k-1..k-dq] | -s[k]: columns
    0..dq-1 are the unknowns q1..q_dq and column dq is the right-hand
    side.  Rows are added for k = d, d - 1, ..., 1; rows k..d are the
    system of (k - 1, dq), so the first row that leaves the system
    inconsistent is k = m(dq).  Each row is reduced by linalg's
    ``_reduce_row``, and it is inconsistent when it settles in column dq.
    The echelon is the pivots {column: row} of rows m+1..d, the
    inconsistent row taken out again.
    """
    pivots = {}
    for k in range(len(s) - 1, 0, -1):
        row = {i: s[k - 1 - i] for i in range(min(k, dq)) if s[k - 1 - i]}
        if s[k]:
            row[dq] = -s[k]
        if _reduce_row(row, pivots) == dq:
            del pivots[dq]
            return k, pivots
    return 0, pivots


def rational_form(s, max_den_degree=6):
    """Polynomials p, q with q*s = p to the truncation order.

    Returns (p, q) as tuples of Fractions with q[0] = 1, deg q <=
    max_den_degree and dp + dq minimal, ties going to the smaller dq; None
    only for the empty series, since (d, 0) always fits.  A hit certifies
    nothing beyond the truncation; callers must label it as a candidate.

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
    q is back-substituted in ints over a common denominator on the echelon
    that the search built for the winning pair, so nothing is solved twice,
    and p is the first dp + 1 coefficients of q*s.

    The winning system has a pivot in every unknown's column, so its
    solution is unique: it is the q any exact solver returns, free
    variables or not.  Suppose instead that a nonzero v = v1 t + ... +
    v_dq t^dq has (v*s)_k = 0 for dp < k <= d.  Write v = t^r w with
    r >= 1 and w(0) != 0; then w*s = p' modulo t^(d+1-r) with deg p' <=
    dp - r, and p*w = q*s*w = q*p' to the same order.  Both sides have
    degree at most dp + dq - r <= d - r, so p*w = q*p' exactly.  p != 0,
    as s = 0 would make (0, 0) win with no unknowns.  Let g = gcd(p, q)
    with g(0) = 1, p = g*p1 and q = g*q1: q1 divides p1*w, so q1 divides
    w, deg q1 <= dq - r < dq and deg g >= 1.  As g is invertible modulo
    t^(d+1), q1*s = p1 to the truncation order, and (dp - deg g,
    dq - deg g) fits, lower in total degree than the winner.

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
        if best and n >= best[0] + best[1]:
            break  # m(n) >= 0, so no larger dq can win
        m, pivots = _least_numerator_degree(ints, n)
        if best is None or m + n < best[0] + best[1]:
            best = m, n, pivots
    dp, dq, pivots = best
    # q = y / y[0]; the pivot row of column c reads
    # sum(row[j] * q[j + 1] for j < dq) = row[dq]
    y = [1] + [0] * dq
    for c in range(dq - 1, -1, -1):
        row = pivots[c]
        rest = row.get(dq, 0) * y[0] - sum(
            v * y[j + 1] for j, v in row.items() if c < j < dq)
        y = [v * row[c] for v in y]
        y[c + 1] = rest
    q = tuple(Fraction(v, y[0]) for v in y)
    p = tuple(Fraction(sum(y[i] * ints[k - i] for i in range(min(k, dq) + 1)),
                       y[0] * scale) for k in range(dp + 1))
    return p, q
