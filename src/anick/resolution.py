"""The resolution of the base field over a presented graded algebra.

``AnickResolution(gb, max_level)`` takes a graded basis completed to
``gb.complete_to_degree``, enumerates the chains on its ``tips`` and builds
the differentials, to max_level and that degree.

Modules are C_n (x) A with C_n the free span of the n-chains; elements are
dicts mapping (chain index, normal word) to a rational coefficient.  The
differential and its splitting are mutually recursive:

    d_0(x (x) 1)  = 1 (x) x
    d_n(gt (x) 1) = g (x) t - i_{n-1}(d_{n-1}(g (x) t))
    i_n(u)        = sum_e u_e s_n(e)
    s_n(f (x) s)  = g (x) c - sum_{k != f (x) s} d_n(g (x) c)_k s_n(k)

where in the last line fs = (word of an n-chain g) . (normal word c), and
s_n is 0 on a pair whose word has no such factorization.  Under the order
"f (x) s < g (x) t iff fs < gt", d_n(g (x) c) leads with f (x) s with
coefficient 1, so the recursion descends; that is checked, not assumed.
i_n is linear, so s_n is memoized on basis pairs while the differentials
are built, and each pair's column d_n(g (x) c) is computed once per level.
One routine computes i_n for every n >= 0: the (-1)-chain is the empty
word and the 0-chains are the generators, so s_0 factors 1 (x) w as
w[0] . w[1:].  g is found by looking up the prefixes of fs in a per-level
index of chain words, one for each chain word length present at level n.
Values of d on free generators are memoized; d on c (x) a follows by right
multiplication and normal-form reduction.

Coefficients are ints wherever they are integral.  A monic basis with
integer coefficients gives integral normal forms, since each reduction step
subtracts an integer multiple of a basis element.  Then every d_n and i_n is
integral too: each s_n(e) is an integral combination of a pair and of
lower s_n(k), and d_n(g (x) 1) is a head with coefficient 1 minus i_{n-1}
of an integral element.  This is a per-term fast path, not a second mode:
a normal-form coefficient that is not an integer stays a Fraction, and the
arithmetic stays exact for any basis.

Everything downstream lives here too: the d.d = 0 and splitting checks,
graded exactness ranks, the Euler identity, tensoring with the base field,
Tor dimensions (exact integer ranks), and the minimality test.  Exactness
ranks take two routes: a lower bound read off the leading terms of d_n,
which builds no column, and exact ranks over Q for the blocks it leaves
open.
"""

from __future__ import annotations

from .algebra import AlgebraError, BoundError, Polynomial
from .chains import TailGraph, enumerate_chains
from .linalg import sparse_rank
from .noncommutative import (_normal_word_table, _reduce, count_normal_words,
                             normal_words)


def _add_scaled(out, vector, scale):
    """out += scale * vector on sparse dicts, dropping the keys that cancel."""
    for k, v in vector.items():
        acc = out.get(k, 0) + scale * v
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)


class AnickResolution:
    """Differentials d_n for 0 <= n <= max_level on the chain generators.

    Every internal splitting is audited for d(i(u)) = u; failures are
    collected, not raised, so a verification report can show them.
    ``counts`` holds the chains per (level, degree) and ``hilbert`` the
    algebra's normal-word counts to ``max_degree``.
    """

    def __init__(self, gb, max_level):
        self.presentation = presentation = gb.presentation
        presentation.require_graded()
        self.gb = gb
        self.max_level = max_level
        self.max_degree = max_degree = gb.complete_to_degree
        cs = enumerate_chains(
            TailGraph(presentation, gb.tips, max_level, max_degree))
        self.levels, self.counts = cs.levels, cs.counts()
        self._word_index = {
            n: {c.word: k for k, c in enumerate(chains)}
            for n, chains in self.levels.items()}
        self._chain_lengths = {
            n: sorted({len(c.word) for c in chains})
            for n, chains in self.levels.items()}
        self.hilbert = count_normal_words(presentation, gb.tips, max_degree)
        self._nf_cache = {}
        self.split_checks = 0
        self.split_failures = []
        self.diff = {0: [{(0, c.word): 1} for c in self.levels[0]]}
        for n in range(1, max_level + 1):
            # i_{n-1} on basis pairs, used only while d_n is built
            self._split_memo = {}
            self.diff[n] = [self._build_d(n, c) for c in self.levels[n]]
        self._split_memo = None

    # -- plumbing ----------------------------------------------------------

    def _nf_word(self, word):
        """Normal form of a single word as a terms tuple, reduced by the
        basis's rules through its tips; integral coefficients stay ints."""
        cached = self._nf_cache.get(word)
        if cached is None:
            pres, gb = self.presentation, self.gb
            if pres.monomial_degree(word) > gb.complete_to_degree:
                raise BoundError(
                    f"reduction of degree {pres.monomial_degree(word)} exceeds "
                    f"the certified degree {gb.complete_to_degree}")
            cached = _reduce(pres, Polynomial(((word, 1),)), gb.tips,
                             gb.rules).terms
            self._nf_cache[word] = cached
        return cached

    def element_degree(self, n, elem):
        pres = self.presentation
        degs = {self.levels[n][ci].degree + pres.monomial_degree(w)
                for ci, w in elem}
        if len(degs) > 1:
            raise AlgebraError("inhomogeneous element")
        return degs.pop() if degs else None

    # -- the maps ----------------------------------------------------------

    def apply_d(self, n, elem):
        """d_n on an arbitrary element of C_n (x) A (n >= 0)."""
        out = {}
        for (ci, w), coeff in elem.items():
            if not coeff:
                continue
            for (cj, u), val in self.diff[n][ci].items():
                for m, beta in self._nf_word(u + w):
                    key = (cj, m)
                    acc = out.get(key, 0) + coeff * val * beta
                    if acc:
                        out[key] = acc
                    else:
                        out.pop(key, None)
        return out

    def _factors(self, m, w):
        """The factorizations of w as (m-chain index, normal word), found by
        looking up the prefixes of w in the level-m word index, one per
        chain word length present at that level."""
        index, hits = self._word_index[m], self.gb.tips.hits
        out = []
        for k in self._chain_lengths[m]:
            if k > len(w):
                break
            gi = index.get(w[:k])
            if gi is not None and not hits(w[k:]):
                out.append((gi, w[k:]))
        return out

    def _isplit(self, m, elem):
        """Splitting i_m for m >= 0: level m-1 kernel elements to level m.

        i_m is the linear map sum u_e e -> sum u_e s(e) over basis pairs
        e = (f, s) of C_{m-1} (x) A.  Let w = f.word . s.  If w factors as
        (word of an m-chain g) . (normal word c), then

            s(e) = g (x) c - sum_{k != e} d_m(g (x) c)_k s(k);

        otherwise s(e) = 0 and the pair is passed over.  The recursion needs
        d_m(g (x) c) to hold e with coefficient 1 and every other term at a
        word below w.  That is checked once per pair: a term k != e at the
        word w raises "ambiguous" (checked first), and a head coefficient
        other than 1 or a term above w raises "failed to descend".  Every
        built differential is homogeneous (the constructor asserts it), so
        a column's words share w's degree and compare as word tuples, in
        Presentation.heap_key's order.  The recursion only goes to pairs
        strictly below e, so no pair is revisited; s is memoized and filled
        from an explicit stack.

        Proof that this is the leading-pair loop.  The loop takes the lead
        e of u, with coefficient a; it returns a g (x) c + i(u - a d_m(g (x)
        c)) when e factors, and i(u - a e) when it does not (the pass-over).
        By induction on the lead, the loop is linear.  Everything left after
        the first step lies below e, so by induction

            i(u) = a g (x) c + sum_k (u - a d_m(g (x) c))_k s(k)
                 = a s(e) + sum_{k != e} u_k s(k),

        and a pass-over gives i(u - a e) = sum_{k != e} u_k s(k) alike.  On
        an input where the loop meets only leads that factor, it is the
        kernel-mode loop, so that loop's element comes out term for term.
        The memo also checks pairs the loop would cancel before reaching
        them.  On a built resolution none of those checks fails: each pair
        met there has a normal word s = t c, t the tail of g, and then
        d_m(g (x) c) = d_m(g) c keeps the shape that ``leading_term_ranks``
        checks on d_m(g).  So every d_n is built as the loop built it.
        ``split``'s audit sees the passed-over pairs.

        The memo lives in ``_split_memo`` while the constructor builds the
        differentials.  Any other call fills a memo of its own, since
        ``diff`` may have changed since.
        """
        pres = self.presentation
        below = self.levels[m - 1]
        memo = {} if self._split_memo is None else \
            self._split_memo.setdefault(m, {})
        stack = [e for e, alpha in elem.items() if alpha]
        opened = {}
        while stack:
            e = stack[-1]
            if e in memo:
                stack.pop()
            elif e in opened:
                # every pair below e in its column has its s by now
                stack.pop()
                gc, col = opened.pop(e)
                s = {gc: 1}
                for k, v in col.items():
                    if k != e:
                        _add_scaled(s, memo[k], -v)
                memo[e] = s
            else:
                w = below[e[0]].word + e[1]
                found = self._factors(m, w)
                if not found:
                    memo[e] = {}
                    continue
                if len(found) > 1:
                    raise AlgebraError(
                        f"kernel leading word {pres.format_monomial(w)} admits "
                        f"{len(found)} chain factorizations at level {m}")
                col = self.apply_d(m, {found[0]: 1})
                descends = col.get(e) == 1
                for ci, t in col:
                    if (ci, t) != e:
                        u = below[ci].word + t
                        if u == w:
                            raise AlgebraError(
                                "leading pair of a kernel element is ambiguous")
                        descends = descends and u > w
                if not descends:
                    raise AlgebraError("splitting recursion failed to descend")
                opened[e] = found[0], col
                stack.extend(k for k in col if k != e and k not in memo)
        out = {}
        for e, alpha in elem.items():
            if alpha:
                _add_scaled(out, memo[e], alpha)
        return out

    def split(self, m, elem):
        """i_m for any m >= 0, by the one routine ``_isplit``, with the
        d(i(u)) = u audit.

        When the audit fails, the residue u - d(i(u)) is the sum of the
        pairs that ``_isplit`` passed over, and its lead is the first lead
        on which the leading-pair loop fails: that lead raises when it ties
        with another pair or admits no factorization.  Any other failure
        is recorded in ``split_failures``.
        """
        result = self._isplit(m, elem)
        back = self.apply_d(m, result)
        self.split_checks += 1
        residue = {k: v for k, v in elem.items() if v}
        if back != residue:
            _add_scaled(residue, back, -1)
            pres, below = self.presentation, self.levels[m - 1]
            keys = sorted(pres.heap_key(below[ci].word + s) for ci, s in residue)
            if len(keys) > 1 and keys[0] == keys[1]:
                raise AlgebraError("leading pair of a kernel element is ambiguous")
            w = keys[0][1]
            if not self._factors(m, w):
                raise AlgebraError(
                    f"kernel leading word {pres.format_monomial(w)} admits no "
                    f"(chain).(normal word) factorization at level {m}")
            self.split_failures.append((m, elem, back))
        return result

    def _build_d(self, n, chain):
        pi = self._word_index[n - 1][chain.parent.word]
        head = {(pi, chain.tail): 1}
        v = self.apply_d(n - 1, head)
        result = dict(head)
        if v:
            _add_scaled(result, self.split(n - 1, v), -1)
        self.element_degree(n - 1, result)
        return result


# -- verification ------------------------------------------------------------


def module_dimension(res, n, degree, h):
    """dim of the degree-d part of C_n (x) A, from the chain counts and the
    algebra's counts h."""
    return sum(k * h[degree - dc] for dc, k in res.counts[n].items()
               if dc <= degree)


def euler_horizon(res):
    """Largest degree where levels beyond max_level provably cannot reach."""
    if all(res.counts[n] for n in range(res.max_level + 1)):
        return min(res.max_degree, min(res.counts[res.max_level]))
    return res.max_degree


def _block_columns(res, n, degree, words_by_degree):
    """Columns of (d_n)_degree as sparse vectors, one per basis pair."""
    cols = []
    for ci, c in enumerate(res.levels[n]):
        if c.degree > degree:
            continue
        for w in words_by_degree[degree - c.degree]:
            cols.append(res.apply_d(n, {(ci, w): 1}))
    return cols


def leading_term_ranks(res, max_degree):
    """Lower bounds L[n][e] <= rank (d_n)_e for -1 <= n <= max_level and
    e <= max_degree, read off leading terms; None when the differentials
    lack the triangular shape that the bound rests on.

    The shape, from Anick's exactness proof (Skoldberg reads it as a Morse
    matching), is checked on each chain g of level n with parent p and
    tail t: (a) t is a normal word and d_n(g) holds p (x) t with
    coefficient 1; (b) every other term f (x) s of d_n(g) has f.s < g.word
    in the term order; (c) no tail of a child of p is a prefix of another.
    If t.w is a normal word, the column of g (x) w then holds p (x) t.w
    with coefficient 1, and every other term f (x) m has f.m < g.word.w,
    since normal forms only lower words and the order respects
    multiplication.  By (c), p and t.w determine g and w, so these columns
    have pairwise distinct leading pairs.  In a vanishing combination of
    them, a pair of the largest leading word occurs in no other column, so
    its coefficient vanishes: the columns are independent.  L[n][e] counts
    them, the pairs (g, w) with g of level n, deg g + deg w = e and no tip
    in t.w: entry e - deg g in the normal-word table's row of the state
    after t.  L[-1][e] = [e = 0] is the rank of the augmentation.  L[n] +
    L[n+1] counts each basis pair f (x) m of C_n (x) A once: with
    tail(f).m normal, or as the chain of f and the shortest prefix of m
    that completes a tip, with the rest of m.
    """
    pres, tips = res.presentation, res.gb.tips
    for n in range(res.max_level + 1):
        below, index = res.levels[n - 1], res._word_index[n - 1]
        siblings = {}
        for g, column in zip(res.levels[n], res.diff[n]):
            head = (index[g.parent.word], g.tail)
            key = pres.heap_key(g.word)
            if column.get(head) != 1 or tips.hits(g.tail) or any(
                    pres.heap_key(below[cj].word + u) <= key
                    for cj, u in column if (cj, u) != head):
                return None
            siblings.setdefault(head[0], []).append(g.tail)
        for tails in siblings.values():
            tails.sort()
            if any(b[:len(a)] == a for a, b in zip(tails, tails[1:])):
                return None
    table = _normal_word_table(pres, tips, max_degree)
    bounds = {-1: [1] + [0] * max_degree}
    for n in range(res.max_level + 1):
        row = bounds[n] = [0] * (max_degree + 1)
        for g in res.levels[n]:
            state = ()
            for x in g.tail:
                state = tips.step(state, x)
            counts = table[state]
            for e in range(g.degree, max_degree + 1):
                row[e] += counts[e - g.degree]
    return bounds


def block_rank_degree(res, budget):
    """Largest degree whose cumulative column count stays within budget."""
    h = res.hilbert
    total = 0
    chosen = -1
    for d in range(res.max_degree + 1):
        cost = sum(module_dimension(res, n, d, h)
                   for n in range(0, res.max_level + 1))
        if total + cost > budget and chosen >= 0:
            break
        total += cost
        chosen = d
    return max(chosen, 0)


def verify_resolution(res, rank_budget=4000):
    """Full audit: d.d = 0, splitting, Euler identity, graded exactness.

    Exactness ranks cost memory quadratic in the graded dimensions, so their
    degree is the largest whose cumulative block columns fit in rank_budget.
    The other three checks always run to the full built degree.

    Every reported rank is the rank over Q.  Once d.d = 0 holds on the
    generators, it holds on all of C (x) A by right A-linearity, so
    im d_{n+1} lies in ker d_n and over Q rank_in + rank_out <= dim at
    every block.  Where two lower bounds on the ranks already sum to dim,
    both are therefore the rational ranks and the block is exact.  The
    ranks come by two routes:

    1. the lower bounds of ``leading_term_ranks``, which build no column;
    2. exact ranks by ``sparse_rank``, for each matrix that no block settles
       by route 1; report["exactness"]["ranked_blocks"] counts these.

    When d.d = 0 fails, no block is certified by bounds, and every matrix
    goes to route 2.  Route 1 settles every block where its checks pass,
    so route 2 serves only differentials that fail them.

    Keys are in JSON order; the CLI prints all but ``splitting.failures``
    and ``exactness.ranked_blocks``.
    """
    report = {"ok": True}

    failures = []
    checked = 0
    for n in range(1, res.max_level + 1):
        for ci in range(len(res.levels[n])):
            checked += 1
            if res.apply_d(n - 1, res.diff[n][ci]):
                failures.append((n, ci))
    report["dd_zero"] = {"checked": checked, "failures": failures,
                         "ok": not failures}

    report["splitting"] = {"checked": res.split_checks,
                           "failure_count": len(res.split_failures),
                           "failures": res.split_failures[:4],
                           "ok": not res.split_failures}

    horizon = euler_horizon(res)
    h = res.hilbert
    euler_failures = []
    for d in range(horizon + 1):
        total = 0
        for n in range(-1, res.max_level + 1):
            sign = -1 if n % 2 == 0 else 1
            total += sign * module_dimension(res, n, d, h)
        if total != (1 if d == 0 else 0):
            euler_failures.append(d)
    report["euler"] = {"degree": horizon, "failures": euler_failures,
                       "ok": not euler_failures}

    rank_degree = block_rank_degree(res, rank_budget)
    degrees = range(rank_degree + 1)
    dims = {(n, d): module_dimension(res, n, d, h)
            for n in range(-1, res.max_level) for d in degrees}
    # rational ranks only; level -1 is the augmentation, rank 1 in degree 0
    ranks = {(-1, d): 1 if d == 0 else 0 for d in degrees}
    bounds = (leading_term_ranks(res, rank_degree)
              if report["dd_zero"]["ok"] else None)
    if bounds is not None:
        # bounds[-1] is the augmentation's own rank
        for (n, d), dim in dims.items():
            if bounds[n][d] + bounds[n + 1][d] == dim:
                ranks[n, d], ranks[n + 1, d] = bounds[n][d], bounds[n + 1][d]
    ranked = [(n, d) for n in range(res.max_level + 1) for d in degrees
              if (n, d) not in ranks]
    words = normal_words(res.gb, rank_degree) if ranked else None
    for key in ranked:
        ranks[key] = sparse_rank(_block_columns(res, *key, words))
    blocks = []
    for (n, d), dim in dims.items():
        rank_out, rank_in = ranks[n, d], ranks[n + 1, d]
        blocks.append({"level": n, "degree": d, "dim": dim,
                       "rank_out": rank_out, "rank_in": rank_in,
                       "ok": rank_out + rank_in == dim})
    report["exactness"] = {
        "degree": rank_degree, "ok": all(b["ok"] for b in blocks),
        "blocks": blocks, "ranked_blocks": len(ranked)}
    report["ok"] = all(report[k]["ok"] for k in
                       ("dd_zero", "splitting", "euler", "exactness"))
    return report


# -- Tor, minimality ----------------------------------------------------------


def tensor_with_k(res):
    """Scalar parts of the differentials: matrices C_n -> C_{n-1}.

    Entry keys are (row index at level n-1, column index at level n).
    """
    out = {}
    for n in range(0, res.max_level + 1):
        m = {}
        for ci in range(len(res.levels[n])):
            for (cj, w), coeff in res.diff[n][ci].items():
                if not w:
                    m[(cj, ci)] = coeff
        out[n] = m
    return out


def is_minimal(res):
    """Whether all tensored differentials vanish; witness = (level, row
    chain word, column chain word) of the first nonzero entry."""
    tensored = tensor_with_k(res)
    for n in range(0, res.max_level + 1):
        entries = tensored[n]
        if entries:
            cj, ci = min(entries, key=lambda rc: (rc[1], rc[0]))
            return False, (n, res.levels[n - 1][cj].word, res.levels[n][ci].word)
    return True, None


def tor_dimensions(res):
    """Homology of the tensored complex, keyed by chain level then degree.

    Row i is ker(M_i)/im(M_{i+1}) for the scalar matrices M; when the
    resolution is minimal this is just the chain count table.  Row i needs
    M_{i+1}, so the table stops one level below the built resolution.
    Each level's blocks are ranked once and shared by the two rows that
    need them.
    """
    ranks = {-1: {}}
    for n, entries in tensor_with_k(res).items():
        cols = {}
        for (cj, ci), coeff in entries.items():
            d = res.levels[n][ci].degree
            cols.setdefault(d, {}).setdefault(ci, {})[cj] = coeff
        ranks[n] = {d: sparse_rank(by_col.values()) for d, by_col in cols.items()}
    table = {}
    for i in range(-1, res.max_level):
        counts = res.counts[i]
        rank_i, rank_next = ranks[i], ranks[i + 1]
        row = {}
        for d in sorted(set(counts) | set(rank_next)):
            dim = counts.get(d, 0) - rank_i.get(d, 0) - rank_next.get(d, 0)
            if dim < 0:
                raise AlgebraError("tensored complex ranks exceed dimensions")
            if dim:
                row[d] = dim
        table[i] = row
    return table
