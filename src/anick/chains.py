"""Chain enumeration on an obstruction set.

Fix the antichain F of leading words.  The (-1)-chain is the empty word and
the 0-chains are the generators, each its own tail.  An n-chain extends an
(n-1)-chain g with tail r by a nonempty tail t such that r.t contains exactly
one occurrence of a word of F, that occurrence ends at the last letter of
r.t, and it starts strictly inside r (the tails must interlock; a tail
starting cleanly after r would let unrelated words slip in).  A tail t is
therefore the rest of an F-word whose proper prefix is a suffix of r.  The
enumeration indexes every F-word's rests by that prefix once, and for each
parent looks up the suffixes of its tail.  Each chain carries its degree, so
the degree bound is applied before any chain word is built.  Each chain
word's decomposition into tails is unique; the enumeration asserts this.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraError
from .noncommutative import antichain_matcher


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


def enumerate_chains(pres, obstructions, max_level, max_degree):
    """All chains of level <= max_level and degree <= max_degree."""
    if max_level < -1:
        raise AlgebraError("max_level must be at least -1")
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    matcher = antichain_matcher(pres, obstructions)
    words = matcher.words
    levels = {-1: (Chain(word=(), degree=0, tail=(), parent=None),)}
    if max_level >= 0:
        root = levels[-1][0]
        gens = [Chain(word=(i,), degree=pres.generator_degree(i), tail=(i,),
                      parent=root)
                for i in range(pres.ngens)
                if pres.generator_degree(i) <= max_degree]
        levels[0] = tuple(sorted(gens, key=lambda c: (-c.degree, c.word)))
    # each proper nonempty prefix v[:s] of an F-word -> the rests v[s:]
    rests = {}
    for v in words:
        for s in range(1, len(v)):
            rests.setdefault(v[:s], []).append((v[s:], pres.monomial_degree(v[s:])))
    for n in range(1, max_level + 1):
        produced = {}
        for parent in levels.get(n - 1, ()):
            r = parent.tail
            for s in range(1, len(r) + 1):
                for t, dt in rests.get(r[len(r) - s:], ()):
                    degree = parent.degree + dt
                    if degree > max_degree or len(matcher.hits(r + t)) != 1:
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


def chain_counts(cs):
    """Number of chains per (level, degree)."""
    out = {}
    for n, chains in sorted(cs.levels.items()):
        row = {}
        for c in chains:
            row[c.degree] = row.get(c.degree, 0) + 1
        out[n] = row
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
