"""Chains on an obstruction set, as paths in a graph of tails.

Fix the antichain F of leading words.  The (-1)-chain is the empty word and
the 0-chains are the generators, each its own tail.  An n-chain extends an
(n-1)-chain g with tail r by a nonempty tail t such that r.t contains exactly
one occurrence of a word of F, that occurrence ends at the last letter of
r.t, and it starts strictly inside r (the tails must interlock; a tail
starting cleanly after r would let unrelated words slip in).  A tail t is
therefore the rest of an F-word whose proper prefix is a suffix of r.

Whether t may follow r depends on r and t alone, so the chains are the paths
from a generator in the tail graph: its nodes are tails, and an edge r -> t
joins each tail to each rest that may follow it (Anick 1986; Ufnarovski's
graph of chains).  The graph indexes every F-word's rests by their prefix
once, and lists the edges out of r on the first visit to r, so r.t is
matched against F once per (tail, rest) pair, not once per chain.
``enumerate_chains`` walks the paths and builds each chain word;
``chain_counts`` counts them per (level, degree) by summing over
(tail, degree) states, and builds no word.  Each chain word's decomposition
into tails is unique, so paths and chains correspond one to one; the
enumeration asserts this.  A one-letter F-word is a generator that is not a
normal word, yet every generator is a 0-chain, so no chain set on F is right
for the algebra; both refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraError
from .noncommutative import antichain_matcher


class OneLetterTipError(AlgebraError):
    """An obstruction set holds a single generator, so it has no chains."""


@dataclass(frozen=True, eq=False, slots=True)
class Chain:
    word: tuple
    degree: int
    tail: tuple = ()
    parent: object = None


@dataclass
class ChainSet:
    levels: dict
    max_level: int
    max_degree: int

    def words(self, level):
        return [c.word for c in self.levels.get(level, ())]


def _tail_graph(pres, obstructions, max_level, max_degree):
    """The generators within the degree bound as (tail, degree) pairs, and
    the edge function of the tail graph: tail r -> [(t, degree of t)]."""
    if max_level < -1:
        raise AlgebraError("max_level must be at least -1")
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    matcher = antichain_matcher(pres, obstructions)
    # each proper nonempty prefix v[:s] of an F-word -> the rests v[s:]
    rests = {}
    for v in matcher.words:
        if len(v) == 1:
            g = pres.format_monomial(v)
            raise OneLetterTipError(
                f"presentation {pres.name!r} has the one-letter leading word "
                f"{g}; chains need the redundant generator {g} removed")
        for s in range(1, len(v)):
            rests.setdefault(v[:s], []).append((v[s:], pres.monomial_degree(v[s:])))
    edges = {}

    def follow(r):
        out = edges.get(r)
        if out is None:
            out = edges[r] = [
                (t, dt) for s in range(1, len(r) + 1)
                for t, dt in rests.get(r[len(r) - s:], ())
                if len(matcher.hits(r + t)) == 1]
        return out

    gens = [((i,), pres.generator_degree(i)) for i in range(pres.ngens)
            if pres.generator_degree(i) <= max_degree]
    return gens, follow


def enumerate_chains(pres, obstructions, max_level, max_degree):
    """All chains of level <= max_level and degree <= max_degree."""
    gens, follow = _tail_graph(pres, obstructions, max_level, max_degree)
    root = Chain(word=(), degree=0, tail=(), parent=None)
    levels = {-1: (root,)}
    if max_level >= 0:
        levels[0] = tuple(sorted(
            (Chain(word=g, degree=d, tail=g, parent=root) for g, d in gens),
            key=lambda c: (-c.degree, c.word)))
    for n in range(1, max_level + 1):
        produced = {}
        for parent in levels[n - 1]:
            for t, dt in follow(parent.tail):
                degree = parent.degree + dt
                if degree > max_degree:
                    continue
                word = parent.word + t
                if word in produced:
                    raise AlgebraError(
                        f"chain word {pres.format_monomial(word)} admits two "
                        f"decompositions at level {n}")
                produced[word] = Chain(word=word, degree=degree, tail=t,
                                       parent=parent)
        # each level lists its chains largest first
        levels[n] = tuple(sorted(produced.values(),
                                 key=lambda c: (-c.degree, c.word)))
    return ChainSet(levels, max_level, max_degree)


def chain_counts(pres, obstructions, max_level, max_degree):
    """Number of chains per (level, degree): {level: {degree: count}} for
    -1 <= level <= max_level, the same table as a tally of
    ``enumerate_chains`` with these arguments, counted without words."""
    gens, follow = _tail_graph(pres, obstructions, max_level, max_degree)
    out = {-1: {0: 1}}
    # chains of the current level per (tail, degree)
    states = dict.fromkeys(gens, 1)
    for n in range(max_level + 1):
        if n:
            nxt = {}
            for (r, d), k in states.items():
                for t, dt in follow(r):
                    if d + dt <= max_degree:
                        nxt[t, d + dt] = nxt.get((t, d + dt), 0) + k
            states = nxt
        row = out[n] = {}
        for (_, d), k in states.items():
            row[d] = row.get(d, 0) + k
    return out


def chain_decompositions(pres, word, obstructions, level):
    """All tail sequences decomposing the word as a chain of the level.

    There is at most one (asserted by enumeration); this independent
    recursive search exists to cross-check the constructive enumeration.
    """
    matcher = antichain_matcher(pres, obstructions)
    memo = {}

    def decompose(word, level):
        key = (word, level)
        if key in memo:
            return memo[key]
        if level == -1:
            result = [()] if word == () else []
        elif level == 0:
            result = [(word,)] if len(word) == 1 else []
        else:
            result = []
            for cut in range(1, len(word)):
                head, t = word[:cut], word[cut:]
                for tails in decompose(head, level - 1):
                    r = tails[-1]
                    hits = matcher.hits(r + t)
                    if len(hits) == 1:
                        (k, start), = hits
                        end = start + len(matcher.words[k])
                        if start < len(r) and end == len(r + t):
                            result.append(tails + (t,))
        memo[key] = result
        return result

    return decompose(word, level)


def is_chain(pres, word, obstructions, level):
    """Whether the word is a chain of the level; returns (flag, tails)."""
    decomps = chain_decompositions(pres, word, obstructions, level)
    if not decomps:
        return False, None
    if len(decomps) > 1:
        raise AlgebraError(
            f"chain word {pres.format_monomial(word)} admits two decompositions")
    return True, decomps[0]
