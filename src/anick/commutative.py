"""Buchberger's algorithm for commutative polynomial ideals.

Everything here works on exponent-vector monomials of a commutative
:class:`~anick.algebra.Presentation`.  The completion is classical: process
S-polynomial pairs in ascending (lcm degree, i, j) order, append nonzero
normal forms, stop when every pair reduces to zero.  Termination is Dickson's
lemma.  :func:`comm_reduce_basis` turns the result into the reduced basis
(monic, autoreduced), which is unique for a given ideal and order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .algebra import COMMUTATIVE, AlgebraError, Presentation


@dataclass
class CommGB:
    """A commutative basis together with its presentation."""

    presentation: Presentation
    basis: tuple


def divides(a, b):
    """Whether exponent vector a divides b."""
    return all(x <= y for x, y in zip(a, b))


def quotient(b, a):
    return tuple(y - x for x, y in zip(a, b))


def exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _require_commutative(pres):
    if pres.kind != COMMUTATIVE:
        raise AlgebraError("commutative routine called on a noncommutative presentation")


def comm_normal_form(pres, f, basis):
    """Total normal form of f modulo the basis.

    Repeatedly cancels the largest reducible monomial using the first basis
    element whose leading term divides it; surviving monomials are already
    normal and collect into the result.
    """
    _require_commutative(pres)
    work = dict(f.terms)
    out = {}
    while work:
        m = max(work, key=pres.term_key)
        c = work.pop(m)
        if not c:
            continue
        for g in basis:
            lm, lc = g.leading
            if divides(lm, m):
                q = quotient(m, lm)
                scale = c / lc
                for gm, gc in g.terms[1:]:
                    mm = pres.monomial_mul(q, gm)
                    work[mm] = work.get(mm, Fraction(0)) - scale * gc
                break
        else:
            out[m] = out.get(m, Fraction(0)) + c
    return pres.poly(out)


def comm_s_polynomial(pres, f, g):
    """S(f, g) = lcm/lt(f) * f / lc(f) - lcm/lt(g) * g / lc(g)."""
    fm, fc = f.leading
    gm, gc = g.leading
    l = exp_lcm(fm, gm)
    sf = pres.scale(1 / fc, pres.mul(pres.monomial_poly(quotient(l, fm)), f))
    sg = pres.scale(1 / gc, pres.mul(pres.monomial_poly(quotient(l, gm)), g))
    return pres.sub(sf, sg)


def comm_buchberger(pres):
    """Complete the relations to a Groebner basis.  Each pair is queued
    once, when its later element is appended."""
    _require_commutative(pres)
    basis, queue = [], []

    def append(g):
        for t, f in enumerate(basis):
            lcm = exp_lcm(f.leading[0], g.leading[0])
            heapq.heappush(queue, (pres.monomial_degree(lcm), t, len(basis)))
        basis.append(g)

    for g in pres.relations:
        append(g)
    while queue:
        _, i, j = heapq.heappop(queue)
        s = comm_s_polynomial(pres, basis[i], basis[j])
        h = comm_normal_form(pres, s, basis)
        if h:
            append(h)
    return CommGB(pres, tuple(basis))


def comm_reduce_basis(gb):
    """The reduced basis: monic, minimal leading terms, reduced tails.

    Dropping each element whose leading monomial another divides (the later
    of two equal ones) leaves an antichain of leading monomials.  One pass
    then reduces each element once by the others, as ``nc_reduce_basis``
    argues: no lead changes, nothing vanishes, a second pass changes
    nothing, and each tail gets its unique normal form modulo the basis.
    """
    pres = gb.presentation
    leads = [g.leading[0] for g in gb.basis]
    kept = [g for k, g in enumerate(gb.basis) if not any(
        divides(hm, leads[k]) and (hm != leads[k] or t < k)
        for t, hm in enumerate(leads) if t != k)]
    reduced = [comm_normal_form(pres, g, kept[:k] + kept[k + 1:])
               for k, g in enumerate(kept)]
    monic = [pres.scale(1 / g.leading[1], g) for g in reduced]
    monic.sort(key=lambda g: pres.term_key(g.leading[0]), reverse=True)
    return CommGB(pres, tuple(monic))


def comm_normal_monomials(pres, basis, max_degree):
    """All normal monomials of degree <= max_degree, grouped by degree;
    walked from an explicit stack, not by recursion."""
    _require_commutative(pres)
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    lead = [g.leading[0] for g in basis]
    out = {d: [] for d in range(max_degree + 1)}
    stack = [(pres.one(), 0)]
    while stack:
        m, pos = stack.pop()
        d = pres.monomial_degree(m)
        if d > max_degree or any(divides(l, m) for l in lead):
            continue
        out[d].append(m)
        stack.extend((m[:i] + (m[i] + 1,) + m[i + 1:], i)
                     for i in range(pos, pres.ngens))
    for d in out:
        out[d].sort(key=pres.term_key, reverse=True)
    return out
