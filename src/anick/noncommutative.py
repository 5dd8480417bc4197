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
consumes.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .algebra import NONCOMMUTATIVE, AlgebraError, BoundError, Presentation


@dataclass
class NcGB:
    """A truncated-complete basis with its certificate degree."""

    presentation: Presentation
    basis: tuple
    complete_to_degree: int


@dataclass(frozen=True)
class Obstruction:
    """One ambiguity between basis[i] and basis[j] (indices, or serials).

    For ``kind == "overlap"``: lt(basis[i])·right == left·lt(basis[j]), both
    equal to ``ambiguity``, and the shared part is a proper suffix of the
    first word and proper prefix of the second (self-overlaps allowed, i==j).
    For ``kind == "inclusion"``: lt(basis[i]) == left·lt(basis[j])·right with
    i != j, ``ambiguity`` the containing word.
    """

    kind: str
    i: int
    j: int
    left: tuple
    right: tuple
    ambiguity: tuple
    degree: int


def _require_noncommutative(pres):
    if pres.kind != NONCOMMUTATIVE:
        raise AlgebraError("free-algebra routine called on a commutative presentation")


def find_subword(haystack, needle):
    """All factorizations haystack = prefix . needle . suffix, leftmost first."""
    if not needle:
        raise AlgebraError("empty needle")
    n, k = len(haystack), len(needle)
    out = []
    for p in range(n - k + 1):
        if haystack[p:p + k] == needle:
            out.append((haystack[:p], haystack[p + k:]))
    return out


def nc_normal_form(pres, f, basis):
    """Total normal form: no monomial of the result contains any leading word.

    Monomials are processed largest first; each reducible one is rewritten by
    the lowest-index basis element at its leftmost occurrence.  Rewriting only
    creates strictly smaller monomials, so already-emitted normal monomials
    are never revisited.
    """
    _require_noncommutative(pres)
    work = dict(f.terms)
    out = {}
    while work:
        m = max(work, key=pres.term_key)
        c = work.pop(m)
        if not c:
            continue
        for g in basis:
            gm, gc = g.leading
            hits = find_subword(m, gm)
            if hits:
                pre, suf = hits[0]
                scale = c / gc
                for wm, wc in g.terms[1:]:
                    mm = pre + wm + suf
                    work[mm] = work.get(mm, Fraction(0)) - scale * wc
                break
        else:
            out[m] = out.get(m, Fraction(0)) + c
    return pres.poly(out)


def _overlaps(u, v):
    """Each way a nonempty proper suffix of u is a proper prefix of v, as
    (left, right, ambiguity) with u·right == left·v == ambiguity."""
    for s in range(1, min(len(u), len(v))):
        if u[len(u) - s:] == v[:s]:
            yield u[:len(u) - s], v[s:], u + v[s:]


def find_obstructions(pres, basis):
    """All overlap and inclusion ambiguities among the basis leading words.

    Ordered by ambiguity degree, then the index pair, then the offset of the
    second word inside the ambiguity.
    """
    _require_noncommutative(pres)
    words = [g.leading[0] for g in basis]
    if len(set(words)) != len(words):
        raise AlgebraError("basis leading words must be pairwise distinct")
    out = []
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            for left, right, amb in _overlaps(u, v):
                out.append(Obstruction(
                    "overlap", i, j, left, right, amb, pres.monomial_degree(amb)))
            if i != j and len(v) < len(u):
                for pre, suf in find_subword(u, v):
                    out.append(Obstruction(
                        "inclusion", i, j, pre, suf, u,
                        pres.monomial_degree(u)))
    out.sort(key=lambda ob: (ob.degree, ob.i, ob.j, len(ob.left)))
    return out


def nc_s_polynomial(pres, ob, basis):
    """The cancellation of an ambiguity's two reductions."""
    f = basis[ob.i]
    g = basis[ob.j]
    fm, fc = f.leading
    gm, gc = g.leading
    if ob.kind == "overlap":
        if fm + ob.right != ob.ambiguity or ob.left + gm != ob.ambiguity:
            raise AlgebraError("stale obstruction: basis changed")
        sf = pres.mul(f, pres.monomial_poly(ob.right))
        sg = pres.mul(pres.monomial_poly(ob.left), g)
        return pres.sub(pres.scale(1 / fc, sf), pres.scale(1 / gc, sg))
    if ob.kind == "inclusion":
        if ob.left + gm + ob.right != fm or fm != ob.ambiguity:
            raise AlgebraError("stale obstruction: basis changed")
        inner = pres.mul(pres.monomial_poly(ob.left),
                         pres.mul(g, pres.monomial_poly(ob.right)))
        return pres.sub(pres.scale(1 / fc, f), pres.scale(1 / gc, inner))
    raise AlgebraError(f"unknown obstruction kind {ob.kind!r}")


def nc_buchberger(pres, gens=None, max_degree=8):
    """Complete the relations (or gens) up to ambiguity degree max_degree.

    ``live`` maps insertion serials to the elements still in the basis; drops
    keep the rest in order, so serial order is index order.  ``queue`` holds
    the unprocessed overlaps of degree <= max_degree keyed by (degree, i, j,
    len(left)) on serials, the order ``find_obstructions`` lists them in;
    entries of dropped elements are skipped when popped.
    """
    _require_noncommutative(pres)
    if gens is None:
        gens = pres.relations
    for g in gens:
        if not g:
            raise AlgebraError("zero polynomial among the generators")
        if pres.poly_degree(g) > max_degree:
            raise BoundError(
                f"max_degree {max_degree} is below a generator of degree "
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
        dropped = [k for k, e in live.items() if find_subword(e.leading[0], h.leading[0])]
        displaced = [live.pop(k) for k in dropped]
        n = next(serials)
        live[n] = h
        for k in live:
            push(k, n)
            if k != n:
                push(n, k)
        for e in displaced:
            add(e)

    for g in gens:
        add(g)
    while queue:
        degree, i, j, _, left, right, amb = heapq.heappop(queue)
        if i in live and j in live:
            ob = Obstruction("overlap", i, j, left, right, amb, degree)
            add(nc_s_polynomial(pres, ob, live))
    return NcGB(pres, tuple(live.values()), max_degree)


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


def nc_reduce_basis(gb):
    """Monic interreduced form of the basis; certificate carries over."""
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


class WordAutomaton:
    """Recognizer for words avoiding a fixed set of forbidden subwords.

    Aho-Corasick trie over the forbidden words with a full transition table;
    stepping into any state whose suffix chain hits a forbidden word returns
    the dead state -1.  State 0 is the start.
    """

    def __init__(self, ngens, words):
        for w in words:
            if not w:
                raise AlgebraError("empty forbidden word")
        self.ngens = ngens
        edges = [{}]
        terminal = [False]
        for w in words:
            s = 0
            for letter in w:
                if letter not in edges[s]:
                    edges.append({})
                    terminal.append(False)
                    edges[s][letter] = len(edges) - 1
                s = edges[s][letter]
            terminal[s] = True
        fail = [0] * len(edges)
        order = deque(edges[0].values())
        while order:
            s = order.popleft()
            terminal[s] = terminal[s] or terminal[fail[s]]
            for letter, t in edges[s].items():
                f = fail[s]
                while f and letter not in edges[f]:
                    f = fail[f]
                fail[t] = edges[f][letter] if letter in edges[f] and edges[f][letter] != t else 0
                order.append(t)
        delta = [[0] * ngens for _ in edges]
        for s in range(len(edges)):
            for letter in range(ngens):
                t = s
                while t and letter not in edges[t]:
                    t = fail[t]
                t = edges[t].get(letter, 0)
                delta[s][letter] = -1 if terminal[t] else t
        self.delta = delta
        self.nstates = len(edges)

    def step(self, state, letter):
        if state < 0:
            return -1
        return self.delta[state][letter]


def count_normal_words(pres, words, max_degree):
    """Number of words of each degree <= max_degree avoiding the given
    subwords; exact integers via automaton dynamic programming."""
    _require_noncommutative(pres)
    auto = WordAutomaton(pres.ngens, list(words))
    degrees = [pres.generator_degree(i) for i in range(pres.ngens)]
    dp = [[0] * auto.nstates for _ in range(max_degree + 1)]
    dp[0][0] = 1
    counts = [0] * (max_degree + 1)
    for d in range(max_degree + 1):
        counts[d] = sum(dp[d])
        if d == max_degree:
            break
        row = dp[d]
        for s in range(auto.nstates):
            c = row[s]
            if not c:
                continue
            for letter in range(pres.ngens):
                nd = d + degrees[letter]
                if nd > max_degree:
                    continue
                t = auto.delta[s][letter]
                if t >= 0:
                    dp[nd][t] += c
    return counts


def normal_words(gb, max_degree):
    """The normal words themselves, grouped by degree, each group sorted
    descending under the order.  Requires the certificate to cover
    max_degree."""
    if max_degree > gb.complete_to_degree:
        raise BoundError(
            f"normal words requested to degree {max_degree} but the basis is "
            f"only certified to degree {gb.complete_to_degree}")
    pres = gb.presentation
    auto = WordAutomaton(pres.ngens, [g.leading[0] for g in gb.basis])
    out = {d: [] for d in range(max_degree + 1)}

    def rec(word, state, deg):
        out[deg].append(word)
        for letter in range(pres.ngens):
            nd = deg + pres.generator_degree(letter)
            if nd > max_degree:
                continue
            ns = auto.step(state, letter)
            if ns < 0:
                continue
            rec(word + (letter,), ns, nd)

    rec((), 0, 0)
    for d in out:
        out[d].sort(key=pres.term_key, reverse=True)
    return out
