"""Two-sided Groebner machinery for free associative algebras.

Leading words of an ideal's basis act as rewriting rules: any monomial
containing such a word as a subword gets rewritten by the rule's tail.
Completion adjoins normal forms of S-polynomials until every ambiguity whose
word has degree at most the requested bound resolves; the bound is recorded
on the result as ``complete_to_degree`` since free-algebra bases may well be
infinite.  Pending ambiguities wait in a queue, each element's overlaps
pushed once when it is inserted.  Overlaps are found by lookup, not by
comparing pairs of words: completion indexes the proper prefixes and
suffixes of the live leading words, and a new word's suffixes are looked up
among the prefixes and its prefixes among the suffixes; ``find_obstructions``
indexes the prefixes once.  Inclusions are never queued: inserting an
element drops and re-reduces every element whose leading word contains the
new one, so the leading-word set stays an antichain under the subword
relation.  That antichain is exactly the obstruction set the chain machinery
consumes.  Every question of which leading words occur in a word, and where,
goes through ``WordMatcher``; completion keeps one over the live leading
words, adding and discarding words as the basis changes.

Completion builds no intermediate polynomial: an S-polynomial is one
coefficient dict over the two elements' non-leading terms, and it is reduced
by the same heap-ordered loop as ``nc_normal_form``, against the live basis
and its matcher directly.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .algebra import (
    NONCOMMUTATIVE,
    AlgebraError,
    BoundError,
    Polynomial,
    Presentation,
)


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
    """Where a set of words ("tips") occurs inside other words.

    Each tip has a key, its position in ``words``: ``add`` appends a tip and
    returns its key, and ``discard`` takes a key's tip out of every later
    query while ``words`` keeps its entry, so keys stay stable.  Completion
    keeps one matcher this way over its live leading words, so a key is an
    insertion serial.

    ``hits(word)`` lists every occurrence as (k, start) with
    word[start:start + len(words[k])] == words[k], in no particular order.
    At each end position it looks up the suffix of each length that some
    tip ending in that letter has, so its cost does not grow with the
    number of tips.

    ``step(state, letter)`` runs the automaton that recognizes words
    avoiding every tip.  A state is the longest suffix read so far that is
    a proper prefix of a tip, ``()`` at the start; ``None`` means a tip has
    occurred.  Transitions are computed on first use and remembered until
    the tips change, and the prefix set is built on the first step, so
    adding a tip costs only its length.
    """

    def __init__(self, words=()):
        self.words = []
        self._index = {}
        self._ends = {}
        self._tally = {}
        self._prefixes, self._delta = None, {}
        for w in words:
            self.add(w)

    def add(self, word):
        """Add a tip; returns its key."""
        if not word:
            raise AlgebraError("tips must be nonempty words")
        k = len(self.words)
        self.words.append(word)
        self._index.setdefault(word, []).append(k)
        end = (word[-1], len(word))
        self._tally[end] = self._tally.get(end, 0) + 1
        if self._tally[end] == 1:
            bisect.insort(self._ends.setdefault(word[-1], []), len(word))
        self._prefixes, self._delta = None, {}
        return k

    def discard(self, k):
        """Remove the tip with key k, which must not be discarded yet."""
        word = self.words[k]
        ks = self._index[word]
        ks.remove(k)
        if not ks:
            del self._index[word]
        end = (word[-1], len(word))
        self._tally[end] -= 1
        if not self._tally[end]:
            del self._tally[end]
            self._ends[word[-1]].remove(len(word))
        self._prefixes, self._delta = None, {}

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
# and nc_reduce_basis always do.  A matcher built here depends on its words
# alone, and no caller adds or discards through it, so sharing one between
# callers is safe.  Completion keeps its own matcher (see nc_buchberger).
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

    Each reducible monomial is rewritten by the lowest-index basis element
    at its leftmost occurrence, the least (k, start) hit.  A basis that is
    not yet confluent, as during completion, gives different results under
    other rules.
    """
    _require_noncommutative(pres)
    basis = tuple(basis)
    return _reduce(pres, f, _basis_matcher(tuple(g.leading[0] for g in basis)),
                   basis)


def _reduce(pres, f, matcher, rules):
    """Normal form of f, rewriting by rules[k] where the matcher finds
    key k; the one reduction loop of nc_normal_form and completion.

    Monomials are processed largest first, from a heap in which each is
    keyed once when it enters the work dict.  Rewriting only creates
    strictly smaller monomials, so a popped monomial never comes back and
    normal monomials are emitted in descending order, each once.
    """
    heap_key = pres.heap_key
    work = dict(f.terms)
    heap = [heap_key(m) for m in work]
    heapq.heapify(heap)
    out = []
    while heap:
        m = heapq.heappop(heap)[1]  # a heap key is (-degree, word)
        c = work.pop(m)
        if not c:
            continue
        hit = min(matcher.hits(m), default=None)
        if hit is None:
            out.append((m, c))
            continue
        k, p = hit
        (lead, lc), *tail = rules[k].terms
        pre, suf = m[:p], m[p + len(lead):]
        scale = c / lc
        for wm, wc in tail:
            mm = pre + wm + suf
            old = work.get(mm)
            if old is None:
                heapq.heappush(heap, heap_key(mm))
                work[mm] = -scale * wc
            else:
                work[mm] = old - scale * wc
    return Polynomial(tuple(out))


def find_obstructions(pres, basis):
    """All overlap ambiguities among the basis leading words, which must be
    an antichain (completion keeps them one).

    Each proper nonempty prefix of a word is indexed once, with the indices
    of the words that start with it; looking up each proper suffix of u
    there gives every j whose word v overlaps u, as ``nc_buchberger`` finds
    them.  Ordered by ambiguity degree, then the index pair, then the offset
    of the second word inside the ambiguity.
    """
    _require_noncommutative(pres)
    words = antichain_matcher(pres, [g.leading[0] for g in basis]).words
    starts = {}
    for j, v in enumerate(words):
        for s in range(1, len(v)):
            starts.setdefault(v[:s], []).append(j)
    out = []
    for i, u in enumerate(words):
        for s in range(1, len(u)):
            for j in starts.get(u[-s:], ()):
                right = words[j][s:]
                amb = u + right
                out.append(Obstruction(
                    i, j, u[:-s], right, amb, pres.monomial_degree(amb)))
    out.sort(key=lambda ob: (ob.degree, ob.i, ob.j, len(ob.left)))
    return out


def nc_s_polynomial(pres, ob, basis):
    """The cancellation of an ambiguity's two reductions,
    f·right/lc(f) - left·g/lc(g), built from the non-leading terms: the
    leading terms are both the ambiguity and cancel."""
    f = basis[ob.i]
    g = basis[ob.j]
    fm, fc = f.leading
    gm, gc = g.leading
    if fm + ob.right != ob.ambiguity or ob.left + gm != ob.ambiguity:
        raise AlgebraError("stale obstruction: basis changed")
    right, left = ob.right, ob.left
    acc = {m + right: c / fc for m, c in f.terms[1:]}
    for m, c in g.terms[1:]:
        w = left + m
        acc[w] = acc.get(w, 0) - c / gc
    return pres.poly(acc)


def nc_buchberger(pres, max_degree=8):
    """Complete the relations up to ambiguity degree max_degree.

    ``live`` maps insertion serials to the elements still in the basis, and
    ``matcher`` holds their leading words under the same serials: an insert
    adds its word and a drop discards the dropped words.  Drops keep the
    rest in order, so serial order is index order, and reducing by the least
    (serial, start) hit is ``nc_normal_form``'s rule on the live basis.

    Overlaps are found by lookup, not by comparing pairs of words.
    ``starts`` maps each proper nonempty prefix of a live leading word to
    the serials of the live words that start with it, and ``ends`` each
    proper suffix to those that end with it.  Inserting w as serial n looks
    up each proper suffix of w in ``starts``, for the overlaps (n, k), and
    each proper prefix in ``ends``, for (k, n); a self-overlap is found by
    the first lookup only.  ``queue`` holds the unprocessed overlaps of
    degree <= max_degree keyed by (degree, i, j, len(left)) on serials, the
    order ``find_obstructions`` lists them in; no two entries tie, so the
    pop order does not depend on the push order.  Entries of dropped
    elements are skipped when popped.

    A new leading word is normal modulo the live ones, so none of them
    occurs in it, and a live word that contains it is strictly longer; the
    drop step searches only those.
    """
    _require_noncommutative(pres)
    for g in pres.relations:
        if pres.poly_degree(g) > max_degree:
            raise BoundError(
                f"max_degree {max_degree} is below a relation of degree "
                f"{pres.poly_degree(g)}")
    live = {}
    matcher = WordMatcher()
    words = matcher.words
    starts, ends = {}, {}
    queue = []

    def push(i, j, s):
        # the last s letters of words[i] are the first s of words[j]
        u = words[i]
        right = words[j][s:]
        amb = u + right
        degree = pres.monomial_degree(amb)
        if degree <= max_degree:
            heapq.heappush(queue, (degree, i, j, len(u) - s, u[:-s], right, amb))

    def add(f):
        h = _reduce(pres, f, matcher, live)
        if not h:
            return
        w = h.leading[0]
        tip = WordMatcher([w])
        dropped = [k for k in live if len(words[k]) > len(w) and tip.hits(words[k])]
        displaced = [live.pop(k) for k in dropped]
        for k in dropped:
            matcher.discard(k)
            v = words[k]
            for s in range(1, len(v)):
                starts[v[:s]].discard(k)
                ends[v[-s:]].discard(k)
        n = matcher.add(w)
        live[n] = h
        for s in range(1, len(w)):
            starts.setdefault(w[:s], set()).add(n)
            ends.setdefault(w[-s:], set()).add(n)
        for s in range(1, len(w)):
            for k in starts.get(w[-s:], ()):
                push(n, k, s)
            for k in ends.get(w[:s], ()):
                if k != n:
                    push(k, n, s)
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

    One pass reduces each element's tail once.  The leading words are an
    antichain, so no lead changes and no element vanishes; normality
    depends on the leading words alone, so a second pass changes nothing.
    A word below an element's leading word cannot contain it, and rewriting
    only creates smaller words, so reducing the tail by the whole basis
    never uses the element itself and applies the rules that reducing by
    the others would, with one matcher for every element.  That gives the
    tail's normal form modulo the whole basis, unique in every degree the
    basis is complete to.
    """
    pres = gb.presentation
    monic = []
    for e in gb.basis:
        tail = nc_normal_form(pres, Polynomial(e.terms[1:]), gb.basis)
        monic.append(pres.scale(1 / e.leading[1],
                                Polynomial(e.terms[:1] + tail.terms)))
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
