"""Independent oracles that the tests check the library against.

Each recomputes something the library computes, by a slower route that
shares none of its code: overlap ambiguities by comparing every ordered
pair of words, S-polynomials by polynomial multiplication, normal forms by
rescanning the work for its largest monomial and the basis
for the rewriting rule, chain decompositions by recursive search, the
completion certificate by re-resolving every ambiguity, reduced bases by
reducing until nothing changes, the Hilbert series of a free (or
exterior) algebra on given generator degrees, the Hilbert series of a free
product from its factors' by the identity 1/H = 1/H_A + 1/H_B - 1, series
inverses by the recurrence in Fractions, and rational fits by one dense
Gauss-Jordan solve over Fractions per (numerator degree, denominator
degree) pair.

Nothing here comes from ``anick.hilbert``: the series arithmetic is this
module's own, and every series is inverted by ``reference_series_inverse``,
never by the library's ``series_inverse``, which the chain pipeline uses.
The module also builds the free product of two presentations and prints a
presentation back to parseable text, for the tests of the parser and of
the free-product identity.
"""

from fractions import Fraction

from anick.algebra import (
    DEGLEX,
    NONCOMMUTATIVE,
    AlgebraError,
    Generator,
    Presentation,
)
from anick.commutative import CommGB, comm_normal_form, divides
from anick.noncommutative import NcGB, Obstruction, antichain_matcher


def reference_obstructions(pres, basis):
    """Every overlap ambiguity among the basis leading words, found by
    comparing each suffix of u with the prefix of v of the same length for
    every ordered pair (u, v), in find_obstructions's order.  Words that
    repeat or occur inside one another, found by slicing, raise."""
    words = [g.leading[0] for g in basis]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i != j and any(u[p:p + len(v)] == v for p in range(len(u) - len(v) + 1)):
                raise AlgebraError(f"{pres.format_monomial(v)} occurs in "
                                   f"{pres.format_monomial(u)}")
    out = []
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            for s in range(1, min(len(u), len(v))):
                if u[len(u) - s:] == v[:s]:
                    amb = u + v[s:]
                    out.append(Obstruction(i, j, u[:len(u) - s], v[s:], amb,
                                           pres.monomial_degree(amb)))
    out.sort(key=lambda ob: (ob.degree, ob.i, ob.j, len(ob.left)))
    return out


def reference_s_polynomial(pres, ob, basis):
    """f·right/lc(f) - left·g/lc(g) for the ambiguity's pair (f, g), by
    polynomial multiplication, scaling and subtraction; a stale obstruction
    raises."""
    f = basis[ob.i]
    g = basis[ob.j]
    fm, fc = f.leading
    gm, gc = g.leading
    if fm + ob.right != ob.ambiguity or ob.left + gm != ob.ambiguity:
        raise AlgebraError("stale obstruction: basis changed")
    sf = pres.mul(f, pres.monomial_poly(ob.right))
    sg = pres.mul(pres.monomial_poly(ob.left), g)
    return pres.sub(pres.scale(1 / fc, sf), pres.scale(1 / gc, sg))


def reference_normal_form(pres, f, basis):
    """Normal form under nc_normal_form's rule: the largest monomial of the
    work, found by a scan of all of it, is rewritten by the lowest-index
    element at its leftmost occurrence, found by slicing."""
    basis = list(basis)
    work = dict(f.terms)
    out = {}
    while work:
        m = min(work, key=pres.heap_key)
        c = work.pop(m)
        if not c:
            continue
        rule = next(((g, p) for g in basis
                     for p in range(len(m) - len(g.leading[0]) + 1)
                     if m[p:p + len(g.leading[0])] == g.leading[0]), None)
        if rule is None:
            out[m] = out.get(m, Fraction(0)) + c
            continue
        g, p = rule
        pre, suf = m[:p], m[p + len(g.leading[0]):]
        scale = c / g.leading[1]
        for wm, wc in g.terms[1:]:
            mm = pre + wm + suf
            work[mm] = work.get(mm, Fraction(0)) - scale * wc
    return pres.poly(out)


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
    for ob in reference_obstructions(pres, basis):
        if ob.degree > gb.complete_to_degree:
            continue
        s = reference_s_polynomial(pres, ob, basis)
        if reference_normal_form(pres, s, basis):
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
            h = reference_normal_form(pres, elems[k], elems[:k] + elems[k + 1:])
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
    return CommGB(pres, tuple(monic))


def reference_series_inverse(a):
    """1/a to the truncation of a by the recurrence
    out[k] = -(1/a[0]) * sum(a[i] * out[k - i], 1 <= i <= k) in Fractions,
    whatever the coefficients."""
    if not a or not a[0]:
        raise AlgebraError("cannot invert a series with zero constant term")
    n = len(a)
    inv0 = 1 / Fraction(a[0])
    out = [inv0] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += a[i] * out[k - i]
        out[k] = -inv0 * acc
    return tuple(out)


def series_one(truncation):
    return (Fraction(1),) + (Fraction(0),) * truncation


def _check_same(a, b):
    if len(a) != len(b):
        raise AlgebraError("series truncation mismatch")


def series_add(a, b):
    _check_same(a, b)
    return tuple(x + y for x, y in zip(a, b))


def series_sub(a, b):
    _check_same(a, b)
    return tuple(x - y for x, y in zip(a, b))


def series_mul(a, b):
    _check_same(a, b)
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(n - i):
            if b[j]:
                out[i + j] += x * b[j]
    return tuple(out)


def free_product_series(ha, hb):
    """Series of the free product from the factors:
    1/H = 1/H_A + 1/H_B - 1."""
    _check_same(ha, hb)
    if not ha or ha[0] != 1 or hb[0] != 1:
        raise AlgebraError("factor series must have constant term 1")
    one = series_one(len(ha) - 1)
    q = series_sub(series_add(reference_series_inverse(ha),
                              reference_series_inverse(hb)), one)
    return reference_series_inverse(q)


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
            factor = reference_series_inverse(factor)
        out = series_mul(out, factor)
    return out


def dense_solve(matrix, rhs):
    """One exact solution of matrix . x = rhs, or None when inconsistent.

    Free variables are set to zero.  matrix is a list of equal-length rows.
    """
    if not matrix:
        return [] if not any(rhs) else None
    m = [list(map(Fraction, row)) + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    nrows, ncols = len(m), len(matrix[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pick = None
        for k in range(r, nrows):
            if m[k][c]:
                pick = k
                break
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for k in range(nrows):
            if k != r and m[k][c]:
                factor = m[k][c]
                m[k] = [a - factor * b for a, b in zip(m[k], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    for k in range(r, nrows):
        if m[k][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivot_cols):
        x[c] = m[row_idx][ncols]
    return x


def search_rational_form(s, max_den_degree=6):
    """Rational fit (p, q) of s by trying every (dp, dq) pair in order of
    total degree, then of dq, with one dense solve each; the first pair
    whose solution makes q*s vanish past degree dp wins.  None when
    nothing fits."""
    d = len(s) - 1
    for total in range(0, d + 1):
        for dq in range(0, min(total, max_den_degree) + 1):
            dp = total - dq
            # unknowns q1..q_dq; equations: (q*s)_k = 0 for k > dp
            eqs = [[s[k - i] if k - i >= 0 else Fraction(0)
                    for i in range(1, dq + 1)] for k in range(dp + 1, d + 1)]
            rhs = [-s[k] for k in range(dp + 1, d + 1)]
            sol = dense_solve(eqs, rhs) if eqs else [Fraction(0)] * dq
            if sol is None:
                continue
            q = (Fraction(1),) + tuple(sol)
            p_full = series_mul(q + (Fraction(0),) * (d - dq), s)
            if any(p_full[dp + 1:]):
                continue
            return tuple(p_full[:dp + 1]), q
    return None


def free_product(p, q):
    """Free product of two noncommutative presentations.

    Generators of ``q`` keep their names unless they collide with ``p``'s,
    in which case they gain a trailing apostrophe.  The order is deglex with
    all of ``p``'s generators above all of ``q``'s.
    """
    if p.kind != NONCOMMUTATIVE or q.kind != NONCOMMUTATIVE:
        raise AlgebraError("free products are defined for noncommutative presentations")
    taken = {g.name for g in p.generators}
    gens = list(p.generators)
    shift = p.ngens
    for g in q.generators:
        name = g.name
        while name in taken:
            name += "'"
        taken.add(name)
        gens.append(Generator(len(gens), name, g.degree))
    out = Presentation(f"{p.name}_star_{q.name}", NONCOMMUTATIVE, gens, DEGLEX)
    relations = list(p.relations)
    for rel in q.relations:
        relations.append(out.poly({tuple(i + shift for i in m): c for m, c in rel.terms}))
    return out.with_relations(relations)


def serialize_presentation(pres):
    """Render a presentation back to parseable text."""
    lines = [f"algebra {pres.name} ;", f"kind {pres.kind} ;"]
    gparts = []
    for g in pres.generators:
        gparts.append(g.name if g.degree == 1 else f"{g.name}:{g.degree}")
    lines.append(f"generators {' '.join(gparts)} ;")
    chain = " > ".join(g.name for g in pres.generators)
    lines.append(f"order {pres.order} {chain} ;")
    if pres.relations:
        lines.append("relations")
        for rel in pres.relations:
            lines.append(f"    {pres.format_poly(rel)} ;")
    return "\n".join(lines) + "\n"
