"""Chain enumeration on an obstruction set.

Fix the antichain F of leading words.  The (-1)-chain is the empty word and
the 0-chains are the generators, each its own tail.  An n-chain extends an
(n-1)-chain g with tail r by a nonempty tail t such that r.t contains exactly
one occurrence of a word of F, that occurrence ends at the last letter of
r.t, and it starts strictly inside r (the tails must interlock; a tail
starting cleanly after r would let unrelated words slip in).  Tails are
forced by where an F-word can straddle the boundary, so enumeration walks
parents and F-words directly.  Each chain word's decomposition into tails is
unique; the enumeration asserts this.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraError, Presentation
from .noncommutative import find_subword


@dataclass(frozen=True, eq=False)
class Chain:
    word: tuple
    tail: tuple = ()
    level: int = -1
    parent: object = None


@dataclass
class ChainSet:
    presentation: Presentation
    obstructions: tuple
    levels: dict
    max_level: int
    max_degree: int

    def words(self, level):
        return [c.word for c in self.levels.get(level, ())]


def _validate_obstructions(pres, obstructions):
    words = tuple(obstructions)
    seen = set()
    for w in words:
        if not w:
            raise AlgebraError("obstruction words must be nonempty")
        if w in seen:
            raise AlgebraError("duplicate obstruction word")
        seen.add(w)
    for u in words:
        for v in words:
            if u != v and find_subword(u, v):
                raise AlgebraError(
                    f"obstruction set is not an antichain: "
                    f"{pres.format_monomial(v)} occurs in {pres.format_monomial(u)}")
    return words


def _occurrence_count(word, obstructions):
    return sum(len(find_subword(word, u)) for u in obstructions)


def enumerate_chains(pres, obstructions, max_level, max_degree):
    """All chains of level <= max_level and degree <= max_degree."""
    if max_level < -1:
        raise AlgebraError("max_level must be at least -1")
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    words = _validate_obstructions(pres, obstructions)
    levels = {-1: (Chain(word=(), tail=(), level=-1, parent=None),)}
    if max_level >= 0:
        root = levels[-1][0]
        gens = [Chain(word=(i,), tail=(i,), level=0, parent=root)
                for i in range(pres.ngens)
                if pres.generator_degree(i) <= max_degree]
        gens.sort(key=lambda c: pres.term_key(c.word), reverse=True)
        levels[0] = tuple(gens)
    for n in range(1, max_level + 1):
        produced = {}
        for parent in levels.get(n - 1, ()):
            r = parent.tail
            for v in words:
                for s in range(1, min(len(r), len(v) - 1) + 1):
                    if r[len(r) - s:] != v[:s]:
                        continue
                    t = v[s:]
                    word = parent.word + t
                    if pres.monomial_degree(word) > max_degree:
                        continue
                    if _occurrence_count(r + t, words) != 1:
                        continue
                    if word in produced:
                        raise AlgebraError(
                            f"chain word {pres.format_monomial(word)} admits two "
                            f"decompositions at level {n}")
                    produced[word] = Chain(word=word, tail=t, level=n, parent=parent)
        chains = sorted(produced.values(),
                        key=lambda c: pres.term_key(c.word), reverse=True)
        levels[n] = tuple(chains)
    return ChainSet(pres, words, levels, max_level, max_degree)


def chain_counts(cs):
    """Number of chains per (level, degree)."""
    pres = cs.presentation
    out = {}
    for n, chains in sorted(cs.levels.items()):
        row = {}
        for c in chains:
            d = pres.monomial_degree(c.word)
            row[d] = row.get(d, 0) + 1
        out[n] = row
    return out


def chain_decompositions(pres, word, obstructions, level, _memo=None):
    """All tail sequences decomposing the word as a chain of the level.

    There is at most one (asserted by enumeration); this independent
    recursive search exists to cross-check the constructive enumeration.
    """
    if _memo is None:
        _validate_obstructions(pres, obstructions)
        _memo = {}
    key = (word, level)
    if key in _memo:
        return _memo[key]
    if level == -1:
        result = [()] if word == () else []
    elif level == 0:
        result = [(word,)] if len(word) == 1 else []
    else:
        result = []
        for cut in range(1, len(word)):
            head, t = word[:cut], word[cut:]
            for tails in chain_decompositions(pres, head, obstructions,
                                              level - 1, _memo):
                r = tails[-1]
                rt = r + t
                if _occurrence_count(rt, obstructions) != 1:
                    continue
                u, = [w for w in obstructions if find_subword(rt, w)]
                pre, suf = find_subword(rt, u)[0]
                if suf:
                    continue
                if len(pre) >= len(r):
                    continue
                result.append(tails + (t,))
    _memo[key] = result
    return result


def is_chain(pres, word, obstructions, level):
    """Whether the word is a chain of the level; returns (flag, tails)."""
    decomps = chain_decompositions(pres, word, obstructions, level)
    if not decomps:
        return False, None
    if len(decomps) > 1:
        raise AlgebraError(
            f"chain word {pres.format_monomial(word)} admits two decompositions")
    return True, decomps[0]
