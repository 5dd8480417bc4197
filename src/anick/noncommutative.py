"""Two-sided Groebner machinery for free associative algebras.

Leading words of an ideal's basis act as rewriting rules: any monomial
containing such a word as a subword gets rewritten by the rule's tail.
Completion adjoins normal forms of S-polynomials until every ambiguity whose
word has degree at most the requested bound resolves; the bound is recorded
on the result as ``complete_to_degree`` since free-algebra bases may well be
infinite.  Pending ambiguities wait in a queue, each element's overlaps
pushed once when it is inserted.  Inclusions are never queued: inserting an
element drops and re-reduces every element whose leading word contains the
new one, so the leading-word set stays an antichain under the subword
relation.  That antichain is exactly the obstruction set the chain machinery
consumes.  Every question of which leading words occur in a word, and where,
goes through ``WordMatcher``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count

from .algebra import NONCOMMUTATIVE, AlgebraError, BoundError, Presentation


@dataclass
class NcGB:
    """A truncated-complete basis with its certificate degree."""

    presentation: Presentation
    basis: tuple
    complete_to_degree: int

    @cached_property
    def certified_degree(self):
        """The basis is certified complete in every degree up to this one:
        complete_to_degree for graded input.  Inhomogeneous input is complete
        outright (``inf``) when no overlap of two tips exceeds that bound,
        since every ambiguity then resolved (diamond lemma), else nothing is
        certified (-1)."""
        pres = self.presentation
        if all(pres.is_homogeneous(f) for f in pres.relations):
            return self.complete_to_degree
        if all(ob.degree <= self.complete_to_degree
               for ob in find_obstructions(pres, self.basis)):
            return math.inf
        return -1


@dataclass(frozen=True)
class Obstruction:
    """One overlap ambiguity between basis[i] and basis[j] (indices, or
    serials): lt(basis[i])·right == left·lt(basis[j]) == ambiguity, and the
    shared part is a proper suffix of the first word and a proper prefix of
    the second (self-overlaps allowed, i == j).
    """

    i: int
    j: int
    left: tuple
    right: tuple
    ambiguity: tuple
    degree: int


def _require_noncommutative(pres):
    if pres.kind != NONCOMMUTATIVE:
        raise AlgebraError("free-algebra routine called on a commutative presentation")


class WordMatcher:
    """Where a fixed list of words ("tips") occurs inside other words.

    ``hits(word)`` lists every occurrence as (k, start) with
    word[start:start + len(words[k])] == words[k], in no particular order.
    At each end position it looks up the suffix of each length that some
    tip ending in that letter has, so its cost does not grow with the
    number of tips.

    ``step(state, letter)`` runs the automaton that recognizes words
    avoiding every tip.  A state is the longest suffix read so far that is
    a proper prefix of a tip, ``()`` at the start; ``None`` means a tip has
    occurred.  Transitions are computed on first use and remembered, and
    the prefix set is built on the first step, so construction costs only
    the total tip length: completion needs a new matcher after every insert.
    """

    def __init__(self, words):
        self.words = tuple(words)
        self._index = {}
        ends = {}
        for k, w in enumerate(self.words):
            if not w:
                raise AlgebraError("tips must be nonempty words")
            self._index.setdefault(w, []).append(k)
            ends.setdefault(w[-1], set()).add(len(w))
        self._ends = {letter: sorted(ns) for letter, ns in ends.items()}
        self._prefixes = None
        self._delta = {}

    def hits(self, word):
        get = self._index.get
        out = []
        for end, letter in enumerate(word, 1):
            for n in self._ends.get(letter, ()):
                if n > end:
                    break
                ks = get(word[end - n:end])
                if ks is not None:
                    out.extend((k, end - n) for k in ks)
        return out

    def step(self, state, letter):
        key = (state, letter)
        t = self._delta.get(key, key)
        if t is not key:
            return t
        if self._prefixes is None:
            self._prefixes = {w[:p] for w in self._index for p in range(1, len(w))}
        # state holds no tip, so a tip in s must be a suffix of s
        s = state + (letter,)
        t = ()
        for p in range(len(s) - 1, -1, -1):
            if s[p:] in self._index:
                t = None
                break
            if s[p:] in self._prefixes:
                t = s[p:]
        self._delta[key] = t
        return t


# Consecutive normal forms mostly reduce by the same basis: the resolution
# always does, and completion does until an S-polynomial survives.  A matcher
# depends on its words alone, so sharing one between callers is safe.
_basis_matcher = lru_cache(maxsize=1)(WordMatcher)


def antichain_matcher(pres, words):
    """A matcher on the words, after checking that they are pairwise
    distinct and that none occurs inside another."""
    matcher = WordMatcher(words)
    for k, w in enumerate(matcher.words):
        for j, _ in matcher.hits(w):
            if j != k:
                v = matcher.words[j]
                raise AlgebraError(
                    f"duplicate word {pres.format_monomial(w)}" if v == w else
                    f"words are not an antichain: {pres.format_monomial(v)} "
                    f"occurs in {pres.format_monomial(w)}")
    return matcher


def nc_normal_form(pres, f, basis):
    """Total normal form: no monomial of the result contains any leading word.

    Monomials are processed largest first; each reducible one is rewritten by
    the lowest-index basis element at its leftmost occurrence, the least
    (k, start) hit.  A basis that is not yet confluent, as during completion,
    gives different results under other rules.  Rewriting only creates
    strictly smaller monomials, so already-emitted normal monomials are
    never revisited.
    """
    _require_noncommutative(pres)
    basis = list(basis)
    matcher = _basis_matcher(tuple(g.leading[0] for g in basis))
    work = dict(f.terms)
    out = {}
    while work:
        m = min(work, key=pres.heap_key)
        c = work.pop(m)
        if not c:
            continue
        hit = min(matcher.hits(m), default=None)
        if hit is None:
            out[m] = out.get(m, Fraction(0)) + c
            continue
        k, p = hit
        g = basis[k]
        pre, suf = m[:p], m[p + len(g.leading[0]):]
        scale = c / g.leading[1]
        for wm, wc in g.terms[1:]:
            mm = pre + wm + suf
            work[mm] = work.get(mm, Fraction(0)) - scale * wc
    return pres.poly(out)


def _overlaps(u, v):
    """Each way a nonempty proper suffix of u is a proper prefix of v, as
    (left, right, ambiguity) with u·right == left·v == ambiguity."""
    for s in range(1, min(len(u), len(v))):
        if u[len(u) - s:] == v[:s]:
            yield u[:len(u) - s], v[s:], u + v[s:]


def find_obstructions(pres, basis):
    """All overlap ambiguities among the basis leading words, which must be
    an antichain (completion keeps them one).

    Ordered by ambiguity degree, then the index pair, then the offset of the
    second word inside the ambiguity.
    """
    _require_noncommutative(pres)
    words = antichain_matcher(pres, [g.leading[0] for g in basis]).words
    out = []
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            for left, right, amb in _overlaps(u, v):
                out.append(Obstruction(
                    i, j, left, right, amb, pres.monomial_degree(amb)))
    out.sort(key=lambda ob: (ob.degree, ob.i, ob.j, len(ob.left)))
    return out


def nc_s_polynomial(pres, ob, basis):
    """The cancellation of an ambiguity's two reductions."""
    f = basis[ob.i]
    g = basis[ob.j]
    fm, fc = f.leading
    gm, gc = g.leading
    if fm + ob.right != ob.ambiguity or ob.left + gm != ob.ambiguity:
        raise AlgebraError("stale obstruction: basis changed")
    sf = pres.mul(f, pres.monomial_poly(ob.right))
    sg = pres.mul(pres.monomial_poly(ob.left), g)
    return pres.sub(pres.scale(1 / fc, sf), pres.scale(1 / gc, sg))


def nc_buchberger(pres, max_degree=8):
    """Complete the relations up to ambiguity degree max_degree.

    ``live`` maps insertion serials to the elements still in the basis; drops
    keep the rest in order, so serial order is index order.  ``queue`` holds
    the unprocessed overlaps of degree <= max_degree keyed by (degree, i, j,
    len(left)) on serials, the order ``find_obstructions`` lists them in;
    entries of dropped elements are skipped when popped.
    """
    _require_noncommutative(pres)
    for g in pres.relations:
        if pres.poly_degree(g) > max_degree:
            raise BoundError(
                f"max_degree {max_degree} is below a relation of degree "
                f"{pres.poly_degree(g)}")
    live = {}
    queue = []
    serials = count()

    def push(i, j):
        for left, right, amb in _overlaps(live[i].leading[0], live[j].leading[0]):
            degree = pres.monomial_degree(amb)
            if degree <= max_degree:
                heapq.heappush(queue, (degree, i, j, len(left), left, right, amb))

    def add(f):
        h = nc_normal_form(pres, f, live.values())
        if not h:
            return
        tip = WordMatcher([h.leading[0]])
        dropped = [k for k, e in live.items() if tip.hits(e.leading[0])]
        displaced = [live.pop(k) for k in dropped]
        n = next(serials)
        live[n] = h
        for k in live:
            push(k, n)
            if k != n:
                push(n, k)
        for e in displaced:
            add(e)

    for g in pres.relations:
        add(g)
    while queue:
        degree, i, j, _, left, right, amb = heapq.heappop(queue)
        if i in live and j in live:
            ob = Obstruction(i, j, left, right, amb, degree)
            add(nc_s_polynomial(pres, ob, live))
    return NcGB(pres, tuple(live.values()), max_degree)


def nc_reduce_basis(gb):
    """Monic interreduced form of the basis; certificate carries over.

    One pass reduces each element once by the others.  The leading words
    are an antichain, so no lead changes and no element vanishes; normality
    depends on the leading words alone, so a second pass changes nothing.
    A tail word lies below its own leading word and cannot contain it, so
    the others reduce a tail to its normal form modulo the whole basis,
    unique in every degree the basis is complete to.
    """
    pres = gb.presentation
    elems = gb.basis
    reduced = [nc_normal_form(pres, e, elems[:k] + elems[k + 1:])
               for k, e in enumerate(elems)]
    monic = [pres.scale(1 / e.leading[1], e) for e in reduced]
    return NcGB(pres, tuple(monic), gb.complete_to_degree)


def count_normal_words(pres, words, max_degree):
    """Number of words of each degree <= max_degree avoiding the given
    subwords; exact integers by dynamic programming over matcher states."""
    _require_noncommutative(pres)
    matcher = WordMatcher(words)
    degrees = [pres.generator_degree(i) for i in range(pres.ngens)]
    dp = [{} for _ in range(max_degree + 1)]
    dp[0][()] = 1
    for d, row in enumerate(dp):
        for state, c in row.items():
            for letter, deg in enumerate(degrees):
                t = matcher.step(state, letter) if d + deg <= max_degree else None
                if t is not None:
                    dp[d + deg][t] = dp[d + deg].get(t, 0) + c
    return [sum(row.values()) for row in dp]


def normal_words(gb, max_degree):
    """The normal words themselves, grouped by degree, each group sorted
    descending under the order.  Requires the certificate to cover
    max_degree."""
    if max_degree > gb.certified_degree:
        raise BoundError(
            f"normal words requested to degree {max_degree} but the basis is "
            f"only certified to degree {gb.certified_degree}")
    pres = gb.presentation
    matcher = WordMatcher(g.leading[0] for g in gb.basis)
    out = {d: [] for d in range(max_degree + 1)}

    def rec(word, state, deg):
        out[deg].append(word)
        for letter in range(pres.ngens):
            nd = deg + pres.generator_degree(letter)
            if nd > max_degree:
                continue
            ns = matcher.step(state, letter)
            if ns is not None:
                rec(word + (letter,), ns, nd)

    rec((), (), 0)
    for words in out.values():
        words.sort()
    return out
