"""Independent oracles that the tests check the library against.

Each recomputes something the library computes, by a slower route that
shares none of its code: chain decompositions by recursive search, the
completion certificate by re-resolving every ambiguity, reduced bases by
reducing until nothing changes, and the Hilbert series of a free (or
exterior) algebra on given generator degrees.
"""

from fractions import Fraction

from anick.algebra import AlgebraError
from anick.commutative import CommGB, comm_normal_form, divides
from anick.hilbert import series_inverse, series_mul, series_one
from anick.noncommutative import (
    NcGB,
    antichain_matcher,
    find_obstructions,
    nc_normal_form,
    nc_s_polynomial,
)


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


def verify_diamond(gb):
    """Re-check the certificate: every ambiguity of degree <= the bound
    resolves to zero.  Returns the number of ambiguities checked."""
    pres = gb.presentation
    basis = list(gb.basis)
    checked = 0
    for ob in find_obstructions(pres, basis):
        if ob.degree > gb.complete_to_degree:
            continue
        s = nc_s_polynomial(pres, ob, basis)
        if nc_normal_form(pres, s, basis):
            raise AlgebraError(
                f"ambiguity {pres.format_monomial(ob.ambiguity)} does not resolve")
        checked += 1
    return checked


def restart_nc_reduce_basis(gb):
    """Monic interreduced basis by restarting: reduce one element by the
    others, and start over after every change until a whole pass changes
    nothing; an element that reduces to zero is dropped."""
    pres = gb.presentation
    elems = list(gb.basis)
    changed = True
    while changed:
        changed = False
        for k in range(len(elems)):
            h = nc_normal_form(pres, elems[k], elems[:k] + elems[k + 1:])
            if not h:
                elems.pop(k)
                changed = True
                break
            if h != elems[k]:
                elems[k] = h
                changed = True
                break
    monic = [pres.scale(1 / e.leading[1], e) for e in elems]
    return NcGB(pres, tuple(monic), gb.complete_to_degree)


def restart_comm_reduce_basis(gb):
    """The reduced commutative basis by repeated passes: after dropping
    each element whose leading monomial another divides (the later of two
    equal ones), reduce each element in turn by the others until a whole
    pass changes nothing, starting over when one vanishes; sorted by
    leading monomial, largest first."""
    pres = gb.presentation
    kept = []
    for k, g in enumerate(gb.basis):
        lm = g.leading[0]
        if not any(divides(h.leading[0], lm) and (h.leading[0] != lm or t < k)
                   for t, h in enumerate(gb.basis) if t != k):
            kept.append(g)
    changed = True
    while changed:
        changed = False
        for k in range(len(kept)):
            h = comm_normal_form(pres, kept[k], kept[:k] + kept[k + 1:])
            if not h:
                kept.pop(k)
                changed = True
                break
            if h != kept[k]:
                kept[k] = h
                changed = True
    monic = [pres.scale(1 / g.leading[1], g) for g in kept]
    monic.sort(key=lambda g: pres.term_key(g.leading[0]), reverse=True)
    return CommGB(pres, tuple(monic), reduced=True)


def generator_product_series(degrees, max_degree, exterior=False):
    """Product over generators of (1 - t^deg)^-1, or (1 + t^deg) for the
    exterior variant."""
    out = series_one(max_degree)
    for w in degrees:
        if w < 1:
            raise AlgebraError("generator degrees must be >= 1")
        factor = [Fraction(0)] * (max_degree + 1)
        factor[0] = Fraction(1)
        if w <= max_degree:
            factor[w] = Fraction(1) if exterior else Fraction(-1)
        factor = tuple(factor)
        if not exterior:
            factor = series_inverse(factor)
        out = series_mul(out, factor)
    return out
