"""Independent oracles that the tests check the library against.

Each recomputes something the library computes, by a slower route that
shares none of its code: overlap ambiguities by comparing every ordered
pair of words, S-polynomials by polynomial multiplication, normal forms by
rescanning the work for its largest monomial and the basis for the
rewriting rule, chain decompositions by recursive search, the tail graph's
edges by counting the tips in each r.t with ``hits`` rather than the tip
automaton, the chain a splitting pair's word starts with by scanning every
chain of the level rather than the tail graph, a differential on an
element by normal-forming each product word with the reference normal
form, even where the right factor is empty, the completion certificate
by re-resolving every ambiguity, reduced bases by reducing until nothing
changes, the Hilbert series of a free (or exterior) algebra on given
generator degrees, the Hilbert series of a free product from its factors'
by the identity 1/H = 1/H_A + 1/H_B - 1, series inverses by the
recurrence in Fractions, rational fits by one dense Gauss-Jordan solve over
Fractions per (numerator degree, denominator degree) pair, Tor of a built
resolution by dense ranks in ``sympy``, the text of monomials by run
lengths and of polynomials by a formatter of its own, and the entries ``anick`` prints for a differential
by grouping each column by row and sorting each row's terms by
``heap_key``.

The exact-rank oracle checks the exactness verdicts, which the library
reads off leading terms alone: ``normal_words`` lists the normal words
by slicing, not through the tip automaton, ``block_columns`` builds the
columns of a differential's degree block with ``apply_d``, and
``exact_ranks`` ranks them by the library's exact elimination,
``sparse_rank``, so it shares no code with the leading-term count.

The span oracle, ``span_counts``, checks every count that starts from a
completed basis: dim A_d and the minimal relations of degree d, from the
ranks of the products u*r*v of the relations alone, by an elimination of
its own, with no basis, tips or ``anick.linalg``.  ``span_member`` reads
the same elimination for ideal membership, which ``nf`` decides by
reduction.

Nothing here comes from ``anick.hilbert``: the series arithmetic is this
module's own, and every series is inverted by ``reference_series_inverse``,
never by the library's ``series_inverse``, which the chain pipeline uses.
The module also builds the free product of two presentations and prints a
presentation back to parseable text, for the tests of the parser and of
the free-product identity.
"""

from fractions import Fraction
from itertools import groupby

from anick.algebra import (
    DEGLEX,
    NONCOMMUTATIVE,
    AlgebraError,
    BoundError,
    Generator,
    Polynomial,
    Presentation,
)
from anick.commutative import CommGB, comm_normal_form, divides
from anick.linalg import sparse_rank
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


def reference_follow(pres, tips, r):
    """The edges out of the tail r of the tail graph on the tips, as
    (t, degree of t) pairs, by counting every tip occurrence in r.t with
    ``hits`` in place of walking the tip automaton: each rest t of an
    overlap of r with a tip, kept when r.t holds exactly one tip.  The
    empty tail's edges lead to the generators."""
    if not r:
        return [((i,), pres.generator_degree(i)) for i in range(pres.ngens)]
    return [(t, pres.monomial_degree(t)) for k, s in tips.overlaps(r)
            if len(tips.hits(r + (t := tips.words[k][s:]))) == 1]


def reference_factor(res, m, f, s):
    """(chain index, c) for the m-chain g of ``res`` with g.word . c =
    f.word . s, found by scanning every chain of the level for a prefix of
    that word, or None when no chain is one.  The chain words of a level
    are prefix-free, so at most one fits."""
    w = f.word + s
    found = [(gi, w[len(g.word):]) for gi, g in enumerate(res.levels[m])
             if w[:len(g.word)] == g.word]
    assert len(found) <= 1, found
    return found[0] if found else None


def reference_apply_d(res, n, elem):
    """d_n on an element of C_n (x) A, term by term from the stored columns:
    each product word u.w of a column term (cj, u) and an element term
    (ci, w), the empty w included, normal-formed by
    ``reference_normal_form``; the keys that cancel are dropped."""
    pres, out = res.presentation, {}
    for (ci, w), coeff in elem.items():
        for (cj, u), val in res.diff[n][ci].items():
            nf = reference_normal_form(pres, pres.monomial_poly(u + w),
                                       res.gb.basis)
            for m, beta in nf.terms:
                out[cj, m] = out.get((cj, m), 0) + coeff * val * beta
    return {k: v for k, v in out.items() if v}


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


def reference_format_monomial(pres, m):
    """A monomial as text by run lengths: ``groupby`` over a word's letters,
    or the nonzero entries of an exponent vector, each as name^length."""
    names = [g.name for g in pres.generators]
    if pres.kind == NONCOMMUTATIVE:
        runs = [(names[a], len(list(run))) for a, run in groupby(m)]
    else:
        runs = [(name, e) for name, e in zip(names, m) if e]
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in runs) or "1"


def reference_format_poly(pres, f):
    """A polynomial as text, every term formatted afresh, its monomials by
    ``reference_format_monomial``."""
    if not f:
        return "0"
    unit = pres.one()
    parts = []
    for k, (m, c) in enumerate(f.terms):
        mag = abs(c)
        if m == unit:
            body = str(mag)
        elif mag == 1:
            body = reference_format_monomial(pres, m)
        else:
            body = f"{mag}*{reference_format_monomial(pres, m)}"
        if k == 0:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def reference_entries(res):
    """The entries of each d_n, n >= 1, as ``anick`` prints them, keyed by
    str(n): column by column, each column's rows in index order, each row's
    terms sorted by ``heap_key`` and formatted by ``reference_format_poly``."""
    pres = res.presentation
    matrices = {}
    for n in range(1, res.max_level + 1):
        entries = []
        for ci, column in enumerate(res.diff[n]):
            rows = {}
            for (cj, w), c in column.items():
                rows.setdefault(cj, []).append((w, c))
            for cj in sorted(rows):
                terms = sorted(rows[cj], key=lambda t: pres.heap_key(t[0]))
                entries.append([cj, ci, reference_format_poly(
                    pres, Polynomial(tuple(terms)))])
        matrices[str(n)] = entries
    return matrices


def reference_tor_dimensions(res):
    """Tor of a built resolution by dense ranks in ``sympy``: for each level
    n and degree d, the matrix of the scalar parts of d_n, from the n-chains
    of degree d to the (n-1)-chains of degree d, read off ``res.diff``; then
    Tor_i in degree d is the number of i-chains of degree d less the ranks
    of d_i and d_(i+1) there.  Keyed as ``tor_dimensions`` keys it, with
    only the nonzero entries."""
    import sympy

    def chains(n, d):
        return [k for k, c in enumerate(res.levels[n]) if c.degree == d]

    def rank(n, d):
        if n < 0:
            return 0
        rows, cols = chains(n - 1, d), chains(n, d)
        if not rows or not cols:
            return 0
        return sympy.Matrix([[res.diff[n][ci].get((cj, ()), 0) for ci in cols]
                             for cj in rows]).rank()

    degrees = sorted({c.degree for chains_n in res.levels.values()
                      for c in chains_n})
    table = {}
    for i in range(-1, res.max_level):
        row = {d: len(chains(i, d)) - rank(i, d) - rank(i + 1, d)
               for d in degrees}
        table[i] = {d: v for d, v in row.items() if v}
    return table


def normal_words(gb, max_degree):
    """The normal words of a noncommutative basis, grouped by degree, each
    group sorted descending under the order.  Words grow a letter at a time
    from an explicit stack, and a word is kept when no leading word of
    ``gb.rules`` is a suffix of it, found by slicing.  Requires the
    certificate to cover max_degree."""
    if max_degree > gb.certified_degree:
        raise BoundError(
            f"normal words requested to degree {max_degree} but the basis is "
            f"only certified to degree {gb.certified_degree}")
    pres = gb.presentation
    tips = [g.leading[0] for g in gb.rules]
    letters = [(x, pres.generator_degree(x)) for x in range(pres.ngens)]
    out = {d: [] for d in range(max_degree + 1)}
    stack = [((), 0)]
    while stack:
        word, deg = stack.pop()
        out[deg].append(word)
        for x, dx in letters:
            w = word + (x,)
            if deg + dx <= max_degree and not any(
                    w[len(w) - len(t):] == t for t in tips if len(t) <= len(w)):
                stack.append((w, deg + dx))
    for words in out.values():
        words.sort()
    return out


def block_columns(res, n, degree, words_by_degree):
    """Columns of (d_n)_degree as sparse vectors, one per basis pair (chain
    of level n, normal word of ``words_by_degree``)."""
    cols = []
    for ci, c in enumerate(res.levels[n]):
        if c.degree > degree:
            continue
        for w in words_by_degree[degree - c.degree]:
            cols.append(res.apply_d(n, {(ci, w): 1}))
    return cols


def exact_ranks(res, max_degree, max_columns=None):
    """rank (d_n)_d over Q for -1 <= n <= max_level and d <= max_degree, by
    exact elimination of the built columns (level -1 is the augmentation,
    rank 1 in degree 0): the ranks that leading-term bounds must match.
    With ``max_columns``, only the blocks of at most that many columns,
    and of those only the ones whose normal words all lie below the first
    degree with more than ``max_columns`` normal words (the words are
    enumerated to that degree, not to ``max_degree``)."""
    top = max_degree
    if max_columns is not None:
        top = next((e - 1 for e, h in enumerate(res.hilbert[:max_degree + 1])
                    if h > max_columns), max_degree)
    words = normal_words(res.gb, top)
    ranks = {(-1, d): int(d == 0) for d in range(max_degree + 1)}
    for n in range(res.max_level + 1):
        low = min((c.degree for c in res.levels[n]), default=0)
        for d in range(max_degree + 1):
            if max_columns is None or (res.dims[n][d] <= max_columns
                                       and d - low <= top):
                ranks[n, d] = sparse_rank(block_columns(res, n, d, words))
    return ranks


def _insert_row(pivots, row):
    """Add a sparse row {column: Fraction} to an echelon form, a dict of
    rows keyed by their largest column.  Every subtraction clears the
    row's largest column and adds only smaller ones, so the row ends as a
    new pivot or as zero."""
    while row:
        top = max(row)
        pivot = pivots.get(top)
        if pivot is None:
            pivots[top] = row
            return
        factor = row[top] / pivot[top]
        for k, v in pivot.items():
            x = row.get(k, 0) - factor * v
            if x:
                row[k] = x
            else:
                del row[k]


def _span_echelons(pres, max_degree):
    """For each d <= max_degree, an echelon form of I_d, as ``_insert_row``
    leaves it, and the rank of its part (V*I + I*V)_d; see ``span_counts``."""
    weights = [g.degree for g in pres.generators]
    ideal, decomposable = [{}], [0]
    for d in range(1, max_degree + 1):
        pivots = {}
        for g, w in enumerate(weights):
            if w > d:
                continue
            for row in ideal[d - w].values():
                _insert_row(pivots, {(g,) + m: c for m, c in row.items()})
                _insert_row(pivots, {m + (g,): c for m, c in row.items()})
        decomposable.append(len(pivots))
        for r in pres.relations:
            if pres.poly_degree(r) == d:
                _insert_row(pivots, {m: Fraction(c) for m, c in r.terms})
        ideal.append(pivots)
    return ideal, decomposable


def span_counts(pres, max_degree):
    """dim A_d and the number of minimal relations of degree d, for
    d <= max_degree, from the span of the ideal I of a graded presentation
    alone: no basis, tips, automaton or chains, and an elimination of this
    module's own.

    I_d is spanned by the products u*r*v of degree d, for every relation r
    and all words u and v.  Those with u or v nonempty span V*I + I*V,
    where V is spanned by the generators; in degree d that is
    g*I_(d-w) + I_(d-w)*g over the generators g of weight w, so it is
    built from an echelon form of each I_(d-w).  Then dim A_d is the
    number of words of weighted degree d less rank I_d, and the minimal
    relations of degree d (Tor_2, level 1 of the chains) number
    rank I_d - rank(V*I + I*V)_d.  Returns the two lists, indexed by d."""
    weights = [g.degree for g in pres.generators]
    ideal, decomposable = _span_echelons(pres, max_degree)
    words, dims, minimal = [1], [1], [0]
    for d in range(1, max_degree + 1):
        words.append(sum(words[d - w] for w in weights if w <= d))
        dims.append(words[d] - len(ideal[d]))
        minimal.append(len(ideal[d]) - decomposable[d])
    return dims, minimal


def span_member(pres, f):
    """Whether a nonzero homogeneous f lies in the ideal of a graded
    presentation: adding f to the span oracle's echelon form of I_d, d the
    degree of f, leaves its rank unchanged."""
    d = pres.poly_degree(f)
    pivots = dict(_span_echelons(pres, d)[0][d])
    rank = len(pivots)
    _insert_row(pivots, {m: Fraction(c) for m, c in f.terms})
    return len(pivots) == rank


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
        gens.append(Generator(name, g.degree))
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
