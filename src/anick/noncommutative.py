"""Two-sided Groebner machinery for free associative algebras.

Leading words of an ideal's basis act as rewriting rules: any monomial
containing such a word as a subword gets rewritten by the rule's tail.
Completion adjoins normal forms of S-polynomials until every ambiguity whose
word has degree at most the requested bound resolves; the bound is recorded
on the result as ``complete_to_degree`` since free-algebra bases may well be
infinite.  Pending ambiguities wait in a queue, each element's overlaps
pushed once when it is inserted.  Overlaps are found by lookup, not by
comparing pairs of words: completion indexes the proper prefixes and
suffixes of the live leading words and looks up a new word's suffixes among
the prefixes and its prefixes among the suffixes; ``find_obstructions``
reads ``WordMatcher.overlaps``.  Inclusions are never queued: inserting an
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

Completion runs on ints wherever the coefficients are integral: relations
and new elements enter with integral coefficients as ``int``, every division
goes through ``_divide``, which stays in ints when the division is exact,
and the finished basis keeps them as its ``rules``.  This is a per-term fast
path, not a second mode: a coefficient that is not an integer stays a
Fraction, and no division of two ints ever gives a float.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    NONCOMMUTATIVE,
    AlgebraError,
    BoundError,
    Polynomial,
    Presentation,
)


@dataclass
class NcGB:
    """A truncated-complete basis with its certificate degree: ``rules``,
    integral coefficients as ints, their Fraction view ``basis`` and the
    ``tips`` matcher on their leading words, both built on first use."""

    presentation: Presentation
    rules: tuple
    complete_to_degree: int

    @cached_property
    def basis(self):
        return tuple(Polynomial(tuple((m, Fraction(c)) for m, c in g.terms))
                     for g in self.rules)

    @cached_property
    def tips(self):
        return WordMatcher(g.leading[0] for g in self.rules)

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
               for ob in find_obstructions(pres, self.tips)):
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


class UnitIdealError(AlgebraError):
    """Completion reduced an element to a nonzero constant."""


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

    ``starts`` maps each proper nonempty prefix of a tip to the keys of the
    tips that start with it.  ``overlaps(word)`` reads it: (k, s) for each
    tip k whose first s letters are the last s letters of the word, as in
    the obstructions of a tip set and the edges of the tail graph.

    ``step(state, letter)`` runs the automaton that recognizes words
    avoiding every tip, for the normal-word table and for the edges of the
    tail graph.  A state is the longest suffix read so far that is a proper
    prefix of a tip, ``()`` at the start; ``None`` means a tip has
    occurred.  Transitions and ``starts`` are computed on first use and
    dropped when the tips change, so adding a tip costs only its length.
    """

    def __init__(self, words=()):
        self.words = []
        self._index = {}
        self._ends = {}
        self._starts, self._delta = None, {}
        for w in words:
            self.add(w)

    def add(self, word):
        """Add a tip; returns its key."""
        if not word:
            raise AlgebraError("tips must be nonempty words")
        k = len(self.words)
        self.words.append(word)
        self._index.setdefault(word, []).append(k)
        ends = self._ends.setdefault(word[-1], {})
        ends[len(word)] = ends.get(len(word), 0) + 1
        self._starts, self._delta = None, {}
        return k

    def discard(self, k):
        """Remove the tip with key k, which must not be discarded yet."""
        word = self.words[k]
        ks = self._index[word]
        ks.remove(k)
        if not ks:
            del self._index[word]
        ends = self._ends[word[-1]]
        ends[len(word)] -= 1
        if not ends[len(word)]:
            del ends[len(word)]
        self._starts, self._delta = None, {}

    @property
    def starts(self):
        if self._starts is None:
            self._starts = starts = {}
            for w, ks in self._index.items():
                for p in range(1, len(w)):
                    starts.setdefault(w[:p], []).extend(ks)
        return self._starts

    def hits(self, word):
        get = self._index.get
        out = []
        for end, letter in enumerate(word, 1):
            for n in self._ends.get(letter, ()):
                if n > end:
                    continue
                ks = get(word[end - n:end])
                if ks is not None:
                    out.extend((k, end - n) for k in ks)
        return out

    def overlaps(self, word):
        starts = self.starts
        return [(k, s) for s in range(1, len(word) + 1)
                for k in starts.get(word[len(word) - s:], ())]

    def step(self, state, letter):
        key = (state, letter)
        t = self._delta.get(key, key)
        if t is not key:
            return t
        starts = self.starts
        # state holds no tip, so a tip in s must be a suffix of s
        s = state + (letter,)
        t = ()
        for p in range(len(s) - 1, -1, -1):
            if s[p:] in self._index:
                t = None
                break
            if s[p:] in starts:
                t = s[p:]
        self._delta[key] = t
        return t


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
    return _reduce(pres, f, WordMatcher(g.leading[0] for g in basis), basis)


def _divide(c, lc):
    """c / lc exactly: ``c // lc`` when both are ints and lc divides c,
    ``Fraction(c, lc)`` for two ints otherwise, and the Fraction quotient
    when either is a Fraction."""
    if c.__class__ is int and lc.__class__ is int:
        return c // lc if not c % lc else Fraction(c, lc)
    return c / lc


def _reduce(pres, f, matcher, rules):
    """Normal form of f, rewriting by rules[k] where the matcher finds
    key k; the one reduction loop of nc_normal_form, nc_reduce_basis and
    completion.  Coefficients keep their type where the arithmetic allows:
    ints stay ints while every division by a leading coefficient is exact.

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
        scale = _divide(c, lc)
        for wm, wc in tail:
            mm = pre + wm + suf
            old = work.get(mm)
            if old is None:
                heapq.heappush(heap, heap_key(mm))
                work[mm] = -scale * wc
            else:
                work[mm] = old - scale * wc
    return Polynomial(tuple(out))


def find_obstructions(pres, tips):
    """All overlap ambiguities among the words of a tip matcher on an
    antichain: a basis's ``tips``, or ``antichain_matcher`` on a word list.

    The matcher's ``overlaps`` of each word u give every j whose word v
    overlaps u, as ``nc_buchberger`` finds them; i and j are the tips' keys,
    indices into the basis.  Ordered by ambiguity degree, then the index
    pair, then the offset of the second word inside the ambiguity.
    """
    _require_noncommutative(pres)
    words = tips.words
    out = []
    for i, u in enumerate(words):
        for j, s in tips.overlaps(u):
            right = words[j][s:]
            amb = u + right
            out.append(Obstruction(
                i, j, u[:-s], right, amb, pres.monomial_degree(amb)))
    out.sort(key=lambda ob: (ob.degree, ob.i, ob.j, len(ob.left)))
    return out


def nc_s_polynomial(pres, ob, basis):
    """The cancellation of an ambiguity's two reductions,
    f·right/lc(f) - left·g/lc(g), built from the non-leading terms: the
    leading terms are both the ambiguity and cancel.  Divisions go through
    ``_divide`` and the terms are sorted here, not by ``pres.poly``, so
    integral coefficients stay ints."""
    f = basis[ob.i]
    g = basis[ob.j]
    fm, fc = f.leading
    gm, gc = g.leading
    if fm + ob.right != ob.ambiguity or ob.left + gm != ob.ambiguity:
        raise AlgebraError("stale obstruction: basis changed")
    right, left = ob.right, ob.left
    acc = {m + right: _divide(c, fc) for m, c in f.terms[1:]}
    for m, c in g.terms[1:]:
        w = left + m
        acc[w] = acc.get(w, 0) - _divide(c, gc)
    heap_key = pres.heap_key
    return Polynomial(tuple(sorted(
        ((m, c) for m, c in acc.items() if c), key=lambda mc: heap_key(mc[0]))))


def nc_buchberger(pres, max_degree):
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
    occurs in it, and a live word that contains it is strictly longer.  The
    drop step tests each live word for the new one as a contiguous subword,
    as a substring of ``texts``, the leading words spelled one character
    per letter and kept under the same serials as ``words``.

    Coefficients are ints wherever they are integral, in ``live`` and in
    the basis's ``rules``, which are ``live``'s elements as they are.  An
    element that reduces to a nonzero constant raises ``UnitIdealError``:
    the ideal is the whole algebra, and the empty word is no tip.
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
    texts = []
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
        h = _integral(_reduce(pres, f, matcher, live).terms)
        if not h:
            return
        w = h.leading[0]
        if not w:
            raise UnitIdealError(f"the relations of {pres.name!r} generate "
                                 "the whole algebra: their ideal contains 1")
        text = _text(w)
        dropped = [k for k in live if text in texts[k]]
        displaced = [live.pop(k) for k in dropped]
        for k in dropped:
            matcher.discard(k)
            v = words[k]
            for s in range(1, len(v)):
                starts[v[:s]].discard(k)
                ends[v[-s:]].discard(k)
        n = matcher.add(w)
        texts.append(text)
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
        add(_integral(g.terms))
    while queue:
        degree, i, j, _, left, right, amb = heapq.heappop(queue)
        if i in live and j in live:
            ob = Obstruction(i, j, left, right, amb, degree)
            add(nc_s_polynomial(pres, ob, live))
    return NcGB(pres, tuple(live.values()), max_degree)


def _integral(terms):
    """The polynomial on the terms, each integral coefficient as an int."""
    return Polynomial(tuple((m, c.numerator if c.denominator == 1 else c)
                            for m, c in terms))


def _text(word):
    """The word as a string, one character per letter, so that a subword
    is a substring."""
    return "".join(map(chr, word))


def nc_reduce_basis(gb):
    """Monic interreduced form of the basis; certificate carries over.

    One pass reduces each element's tail once.  The leading words are an
    antichain, so no lead changes and no element vanishes; normality
    depends on the leading words alone, so a second pass changes nothing.
    A word below an element's leading word cannot contain it, and rewriting
    only creates smaller words, so reducing the tail by the whole basis
    never uses the element itself and applies the rules that reducing by
    the others would.  Every tail goes to ``_reduce`` directly, by the
    basis's ``rules`` and ``tips``.  That gives the tail's normal form
    modulo the whole basis, unique in every degree the basis is complete
    to; dividing by the leading coefficient keeps integral ones as ints.
    """
    pres = gb.presentation
    _require_noncommutative(pres)
    monic = []
    for e in gb.rules:
        lc = e.leading[1]
        tail = _reduce(pres, Polynomial(e.terms[1:]), gb.tips, gb.rules)
        monic.append(_integral((m, _divide(c, lc))
                               for m, c in e.terms[:1] + tail.terms))
    return NcGB(pres, tuple(monic), gb.complete_to_degree)


def _path_table(follow, max_degree, sign=1):
    """Signed path counts of a graph whose edges have degree >= 1, for the
    states the root () reaches, listed breadth first: table[state][e] is
    the sum over the paths of degree e from state of sign**(their number
    of edges), so table[state][0] = 1; ``follow(state)`` lists the edges
    out of state as (target, degree) pairs."""
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    edges, queue = {}, [()]
    for state in queue:
        if state not in edges:
            edges[state] = out = follow(state)
            queue.extend(t for t, _ in out)
    table = {state: [1] + [0] * max_degree for state in edges}
    for e in range(1, max_degree + 1):
        for state, out in edges.items():
            table[state][e] = sign * sum(table[t][e - dt]
                                         for t, dt in out if dt <= e)
    return table


def _normal_word_table(pres, matcher, max_degree):
    """The words of each degree <= max_degree that the matcher reads from
    each state without completing a tip: the path table of its automaton.
    The row of () is the Hilbert count; a chain's bound reads the row of
    its tail."""
    letters = [(x, pres.generator_degree(x)) for x in range(pres.ngens)]
    return _path_table(
        lambda state: [(t, dx) for x, dx in letters
                       if (t := matcher.step(state, x)) is not None],
        max_degree)


def count_normal_words(pres, matcher, max_degree):
    """Number of words of each degree <= max_degree in which the matcher
    finds no tip; exact integers from the normal-word table."""
    _require_noncommutative(pres)
    return _normal_word_table(pres, matcher, max_degree)[()]
