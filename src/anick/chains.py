"""Chains on an obstruction set, as paths in a graph of tails.

Fix the antichain F of leading words, given as its tips: a ``WordMatcher``
on F, a basis's ``tips`` or ``antichain_matcher`` on a checked word list.
The (-1)-chain is the empty word and the 0-chains are the generators, each
its own tail.  An n-chain extends an (n-1)-chain g with tail r by a
nonempty tail t such that r.t contains exactly one occurrence of a word of
F, that occurrence ends at the last letter of r.t, and it starts strictly
inside r (the tails must interlock; a tail starting cleanly after r would
let unrelated words slip in), so t is the rest of an F-word whose proper
prefix is a suffix of r.

Whether t may follow r depends on r and t alone, so the chains are the paths
from the empty tail () in the tail graph: its nodes are tails, an edge
r -> t joins each tail to each rest that may follow it, and the rests after
() are the generators, so an n-chain is a path of n + 1 edges (Anick 1986;
Ufnarovski's graph of chains).  The rests that may follow r are read off
the overlaps of r with the F-words, which the matcher looks up by prefix,
and each is tested on the matcher's tip automaton.  An overlap makes an
F-word end r.t, and no other F-word of the antichain ends there too (one
would be a suffix of the other), so r.t holds one F-word iff the automaton,
from the state r leads to, reads t[:-1] without meeting one; r, a generator
or a proper suffix of an F-word, holds none.  The edges out of r are listed
on the first visit to r: |t| - 1 cached steps per rest, not per chain.
A ``TailGraph`` depends on F alone and holds no bounds; a bound only says
where a walk stops.  ``enumerate_chains`` builds each chain word to a level
and degree bound, level by level, and ``ChainSet.counts`` tallies the
words it built; ``hilbert_from_chains`` counts the same paths, signed and
by degree alone, and builds no word.  A chain keeps its parent and tail, and
the CLI renders its word from theirs: the parent's text, "*", the tail's.
Each chain word's decomposition into tails is unique, so paths and chains
correspond one to one; the enumeration asserts this.  A one-letter F-word
is a generator that is not a normal word, yet every generator is a 0-chain,
so no chain set on F is right for the algebra; the tail graph refuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import AlgebraError


class OneLetterTipError(AlgebraError):
    """An obstruction set holds a single generator, so it has no chains."""


@dataclass(eq=False, slots=True)
class Chain:
    """An n-chain: its word and degree, the tail that extends its parent,
    the (n-1)-chain.  Equal and hashed by identity; nothing assigns to a
    chain once ``enumerate_chains`` has built it."""

    word: tuple
    degree: int
    tail: tuple = ()
    parent: object = None


@dataclass
class ChainSet:
    levels: dict

    def counts(self):
        """Number of chains per (level, degree): {level: {degree: count}}
        for each enumerated level."""
        out = {}
        for n, chains in self.levels.items():
            row = out[n] = {}
            for c in chains:
                row[c.degree] = row.get(c.degree, 0) + 1
        return out


class TailGraph:
    """Tail graph of the chains on the tips: ``follow(r)`` lists the edges
    out of the tail r as (t, degree of t) pairs, sorted by t; those out of
    the empty tail () lead to the generators."""

    def __init__(self, pres, tips):
        self.pres, self._matcher = pres, tips
        for v in tips.words:
            if len(v) == 1:
                g = pres.format_monomial(v)
                raise OneLetterTipError(
                    f"presentation {pres.name!r} has the one-letter leading word "
                    f"{g}; chains need the redundant generator {g} removed")
        self._edges = {(): [((i,), pres.generator_degree(i))
                            for i in range(pres.ngens)]}

    def follow(self, r):
        out = self._edges.get(r)
        if out is None:
            # the rests t = v[s:] of the F-words v whose first s letters end
            # r, kept if the tip automaton reads t[:-1] from r's state
            step, words = self._matcher.step, self._matcher.words
            here, out = reduce(step, r, ()), []
            for k, s in self._matcher.overlaps(r):
                state, t = here, words[k][s:]
                for a in t[:-1]:
                    if (state := step(state, a)) is None:
                        break
                else:
                    out.append((t, self.pres.monomial_degree(t)))
            # sorted by rest, for the splitting's bisection; the root's
            # generator edges are in this order already
            out.sort()
            self._edges[r] = out
        return out


def enumerate_chains(graph, max_level, max_degree):
    """All chains on a ``TailGraph`` to max_level and max_degree."""
    if max_level < -1:
        raise AlgebraError("max_level must be at least -1")
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    root = Chain((), 0, (), None)
    levels = {-1: (root,)}
    for n in range(max_level + 1):
        produced = {}
        for parent in levels[n - 1]:
            for t, dt in graph.follow(parent.tail):
                degree = parent.degree + dt
                if degree > max_degree:
                    continue
                word = parent.word + t
                if word in produced:
                    raise AlgebraError(
                        f"chain word {graph.pres.format_monomial(word)} admits two "
                        f"decompositions at level {n}")
                produced[word] = Chain(word, degree, t, parent)
        # each level lists its chains largest first
        levels[n] = tuple(sorted(produced.values(),
                                 key=lambda c: (-c.degree, c.word)))
    return ChainSet(levels)
