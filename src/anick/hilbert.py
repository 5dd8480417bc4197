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


def rational_form(s, max_den_degree=6):
    """Search for polynomials p, q with q*s = p to the truncation order.

    Returns (p, q) as coefficient tuples with q[0] = 1 and the combined
    degree minimal, or None.  A hit certifies nothing beyond the truncation;
    callers must label it as a candidate.

    Top coefficients are nonzero, of p when dp >= 1 and of q when dq >= 1.
    Were p's zero, q would solve the equations (q*s)_k = 0, dp <= k <= d,
    of (dp - 1, dq); dense_solve finds a solution whenever one exists, so
    that pair, one lower in total degree, would have returned first.  So
    would (dp, dq - 1) were q's zero.
    """
    d = len(s) - 1
    for total in range(0, d + 1):
        for dq in range(0, min(total, max_den_degree) + 1):
            dp = total - dq
            # unknowns q1..q_dq; equations: (q*s)_k = 0 for k > dp
            eqs = [[s[k - i] if k - i >= 0 else Fraction(0)
                    for i in range(1, dq + 1)] for k in range(dp + 1, d + 1)]
            rhs = [-s[k] for k in range(dp + 1, d + 1)]
            if not eqs:
                sol = [Fraction(0)] * dq
            else:
                sol = dense_solve(eqs, rhs)
            if sol is None:
                continue
            q = (Fraction(1),) + tuple(sol)
            full_q = q + (Fraction(0),) * (d - dq)
            p_full = series_mul(full_q, s)
            p = p_full[:dp + 1]
            if any(p_full[dp + 1:]):
                continue
            return tuple(p), tuple(q)
    return None
