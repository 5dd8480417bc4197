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
w[0] . w[1:].  The chain words of one level are prefix-free, so g is a
child of f, and g is found among the edges out of f's tail in the tail
graph that the chains were enumerated on.
Values of d on free generators are stored as columns; d(g (x) w) is the
column of g times w, each word reduced to its normal form, and with w empty
it is the stored column itself, whose words are normal.  ``apply_d`` and
the splitting share that one step.

Coefficients are ints wherever they are integral.  A monic basis with
integer coefficients gives integral normal forms, since each reduction step
subtracts an integer multiple of a basis element.  Then every d_n and i_n is
integral too: each s_n(e) is an integral combination of a pair and of
lower s_n(k), and d_n(g (x) 1) is a head with coefficient 1 minus i_{n-1}
of an integral element.  This is a per-term fast path, not a second mode:
a normal-form coefficient that is not an integer stays a Fraction, and the
arithmetic stays exact for any basis.

Everything downstream lives here too: ``dd_failures``, the one d.d = 0
check of the built columns, graded exactness ranks, the Euler identity,
tensoring with the base field, Tor dimensions (exact integer ranks, in
the reverse of the order of Anick's leading terms: no fill on every block
measured), and the minimality test.  Exactness takes one route: lower
bounds on the ranks, read off the leading terms of d_n with no column
built, settle a block when they sum to its dimension.  The checks read
``normal_word_table``, ``hilbert`` and ``dims``: one table, built on first
read.  Tor and the minimality test build none; they read ``tensored``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, reduce
from operator import itemgetter

from .algebra import AlgebraError, BoundError, Polynomial
from .chains import TailGraph, enumerate_chains
from .linalg import sparse_rank
from .noncommutative import _normal_word_table, _reduce


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

    ``split_checks`` counts the columns built with a splitting, which
    ``dd_failures`` checks.  ``counts`` holds the chains per (level, degree),
    enumerated on ``graph``, the tail graph on ``gb.tips``.
    Built on first read: ``normal_word_table``, the normal words per degree
    from each state of ``gb.tips``; ``hilbert``, its row of the empty state;
    ``dims``, dims[n][d] = dim of the degree-d part of C_n (x) A; and
    ``tensored``, the nonempty scalar columns {ci: {cj: coeff}} of each d_n.
    """

    def __init__(self, gb, max_level):
        self.presentation = presentation = gb.presentation
        presentation.require_graded()
        self.gb = gb
        self.max_level = max_level
        self.max_degree = max_degree = gb.complete_to_degree
        self.graph = TailGraph(presentation, gb.tips)
        cs = enumerate_chains(self.graph, max_level, max_degree)
        self.levels, self.counts = cs.levels, cs.counts()
        self._word_index = {
            n: {c.word: k for k, c in enumerate(chains)}
            for n, chains in self.levels.items()}
        self._nf_cache = {}
        self.split_checks = 0
        self.diff = {0: [{(0, c.word): 1} for c in self.levels[0]]}
        for n in range(1, max_level + 1):
            memo = {}  # s_{n-1} on basis pairs, shared while d_n is built
            self.diff[n] = [self._build_d(n, c, memo) for c in self.levels[n]]

    # -- plumbing ----------------------------------------------------------

    @cached_property
    def normal_word_table(self):
        return _normal_word_table(self.presentation, self.gb.tips,
                                  self.max_degree)

    @cached_property
    def hilbert(self):
        return self.normal_word_table[()]

    @cached_property
    def dims(self):
        h = self.hilbert
        return {n: [sum(k * h[d - dc] for dc, k in self.counts[n].items()
                        if dc <= d) for d in range(len(h))]
                for n in range(-1, self.max_level + 1)}

    @cached_property
    def tensored(self):
        out = {}
        for n in range(self.max_level + 1):
            scalar = out[n] = {}
            for ci, column in enumerate(self.diff[n]):
                for (cj, w), coeff in column.items():
                    if not w:
                        scalar.setdefault(ci, {})[cj] = coeff
        return out

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

    # -- the maps ----------------------------------------------------------

    def apply_d(self, n, elem):
        """d_n on an arbitrary element of C_n (x) A (n >= 0): each term
        coeff * g (x) w adds coeff * d_n(g) w by ``_add_d_times``, the stored
        column as it stands when w is empty."""
        out, column = {}, self.diff[n]
        for (ci, w), coeff in elem.items():
            if coeff:
                self._add_d_times(out, column[ci], w, coeff)
        return out

    def _add_d_times(self, out, column, w, scale):
        """out += scale * d(g) w in place, for the stored column d(g) and a
        word w, dropping the keys that cancel.  Each word u.w of the column
        is reduced to its normal form, except when w is empty: d(g (x) 1)
        is the stored column, whose words are normal, so its entries are
        added as they stand."""
        if not w:
            _add_scaled(out, column, scale)
            return
        cache = self._nf_cache
        for (cj, u), val in column.items():
            s = scale * val
            terms = cache.get(u + w)
            if terms is None:
                terms = self._nf_word(u + w)
            for m, beta in terms:
                key = (cj, m)
                acc = out.get(key, 0) + s * beta
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)

    def split(self, m, elem, memo):
        """Splitting i_m for m >= 0: level m-1 kernel elements to level m.

        i_m is the linear map sum u_e e -> sum u_e s(e) over basis pairs
        e = (f, s) of C_{m-1} (x) A.  Let w = f.word . s.  If w factors as
        (word of an m-chain g) . (normal word c), then

            s(e) = g (x) c - sum_{k != e} d_m(g (x) c)_k s(k);

        otherwise s(e) = 0 and the pair is passed over.  g's parent is f:
        both f.word and g.parent.word are (m-1)-chain words that are
        prefixes of w, and the chain words of one level are prefix-free.
        So g's tail is an edge out of f's tail in ``self.graph``, which is
        how ``enumerate_chains`` made g, and ``_factor`` finds it as the
        rest out of f.tail that s starts with.  At most one rest does: the
        rests out of one tail r are prefix-free, since were t1 a proper
        prefix of t2, r.t2[:-1] would hold the F-word that ends r.t1, and
        the graph would not have kept t2.  c is a suffix of the normal word
        s, so it is normal with no scan for tips.
        A word s that is not normal makes no basis pair; if it starts with
        a rest, the column d_m(g (x) c) holds normal words only, so it lacks
        e and the descent check below raises.

        The column d_m(g (x) c) is the stored column of g times c, by
        ``_add_d_times``: the stored column itself when c is empty.  The
        recursion needs it to hold e with coefficient 1 and every other term
        at a word below w.  One pass over the column checks that once per
        pair and pushes the lower pairs not yet memoized: a term k != e at
        the word w raises "ambiguous" at once, and a head coefficient other
        than 1 or a term above w raises "failed to descend" after the pass,
        so a column with both raises "ambiguous".  Every built differential
        is homogeneous (the constructor asserts it), so a column's words
        share w's degree and compare as word tuples, in
        Presentation.heap_key's order.  The recursion only goes to pairs
        strictly below e, so no pair is revisited; s is memoized and filled
        from an explicit stack, and a pass-over's empty s adds nothing.

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
        A passed-over pair leaves d(i(u)) != u, which ``dd_failures`` sees
        on the built columns.

        The caller owns ``memo``, s on the pairs met so far at level m,
        filled in place: the constructor shares one while it builds a level.
        A caller that changed ``levels`` or ``diff`` since the build passes
        a fresh memo.
        """
        below = self.levels[m - 1]
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
                    if k != e and (sk := memo[k]):
                        _add_scaled(s, sk, -v)
                memo[e] = s
            else:
                gc = self._factor(m, below[e[0]], e[1])
                if gc is None:
                    memo[e] = {}
                    continue
                w = below[e[0]].word + e[1]
                col = {}
                self._add_d_times(col, self.diff[m][gc[0]], gc[1], 1)
                descends = col.get(e) == 1
                for k in col:
                    if k != e:
                        u = below[k[0]].word + k[1]
                        if u == w:
                            raise AlgebraError(
                                "leading pair of a kernel element is ambiguous")
                        if u < w:
                            descends = False
                        if k not in memo:
                            stack.append(k)
                if not descends:
                    raise AlgebraError("splitting recursion failed to descend")
                opened[e] = gc, col
        out = {}
        for e, alpha in elem.items():
            if alpha:
                _add_scaled(out, memo[e], alpha)
        return out

    def _factor(self, m, f, s):
        """(index of the m-chain g, c) with g.word . c = f.word . s, for the
        rest t out of f's tail that s starts with and g.word = f.word . t;
        None when no rest fits or g lies past the built degree.

        The rests out of a tail are prefix-free (see ``split``) and
        ``follow`` lists them sorted, so only the last rest t <= s can fit:
        a rest that s starts with is <= s, and every word between it and s
        starts with it, which no other rest does."""
        edges = self.graph.follow(f.tail)
        k = bisect_right(edges, s, key=itemgetter(0))
        if k:
            t = edges[k - 1][0]
            if s[:len(t)] == t:
                gi = self._word_index[m].get(f.word + t)
                return None if gi is None else (gi, s[len(t):])
        return None

    def _build_d(self, n, chain, memo):
        pi = self._word_index[n - 1][chain.parent.word]
        head = {(pi, chain.tail): 1}
        v = self.apply_d(n - 1, head)
        result = dict(head)
        if v:
            self.split_checks += 1
            _add_scaled(result, self.split(n - 1, v, memo), -1)
        below, degree = self.levels[n - 1], self.presentation.monomial_degree
        for ci, w in result:
            if below[ci].degree + degree(w) != chain.degree:
                raise AlgebraError("inhomogeneous element")
        return result


# -- verification ------------------------------------------------------------


def euler_horizon(res):
    """Largest degree where levels beyond max_level provably cannot reach."""
    if all(res.counts[n] for n in range(res.max_level + 1)):
        return min(res.max_degree, min(res.counts[res.max_level]))
    return res.max_degree


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
    in t.w: entry e - deg g in ``res.normal_word_table``'s row of the state
    after t.  L[-1][e] = [e = 0] is the rank of the augmentation.  L[n] +
    L[n+1] counts each basis pair f (x) m of C_n (x) A once: with
    tail(f).m normal, or as the chain of f and the shortest prefix of m
    that completes a tip, with the rest of m.
    """
    if max_degree > res.max_degree:
        raise BoundError(f"leading-term ranks asked to degree {max_degree}, "
                         f"past the built degree {res.max_degree}")
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
    bounds = {-1: [1] + [0] * max_degree}
    for n in range(res.max_level + 1):
        row = bounds[n] = [0] * (max_degree + 1)
        for g in res.levels[n]:
            counts = res.normal_word_table[reduce(tips.step, g.tail, ())]
            for e in range(g.degree, max_degree + 1):
                row[e] += counts[e - g.degree]
    return bounds


def block_rank_degree(res, budget):
    """Largest degree whose cumulative column count stays within budget:
    the cap on the exactness degree that ``verify_resolution`` prints."""
    total = 0
    for d in range(res.max_degree + 1):
        total += sum(res.dims[n][d] for n in range(res.max_level + 1))
        if total > budget and d:
            return d - 1
    return max(res.max_degree, 0)


def dd_failures(res):
    """(n, ci) of each stored column with d_{n-1}(d_n(g)) != 0, 1 <= n <=
    max_level: the one d.d computation."""
    return [(n, ci) for n in range(1, res.max_level + 1)
            for ci, column in enumerate(res.diff[n])
            if res.apply_d(n - 1, column)]


def exactness_blocks(res, bounds, degree):
    """One block per level -1 <= n < max_level and degree d <= degree, in
    that order: the dimension of (C_n (x) A)_d, rank_out = bounds[n][d] and
    rank_in = bounds[n + 1][d], and ``ok`` when the two sum to the
    dimension.  ``bounds`` are lower bounds on the rational ranks, as
    ``leading_term_ranks`` gives, valid only where d.d = 0 holds; with
    ``None`` every rank is None and no block is ok.
    """
    blocks = []
    for n in range(-1, res.max_level):
        for d in range(degree + 1):
            dim = res.dims[n][d]
            if bounds is None:
                rank_out = rank_in = None
            else:
                rank_out, rank_in = bounds[n][d], bounds[n + 1][d]
            blocks.append({"level": n, "degree": d, "dim": dim,
                           "rank_out": rank_out, "rank_in": rank_in,
                           "ok": bounds is not None
                           and rank_out + rank_in == dim})
    return blocks


def verify_resolution(res):
    """Full audit: d.d = 0, splitting, Euler identity, graded exactness.

    d.d = 0 and the splitting are one check, ``dd_failures`` on the stored
    columns.  Each is d_n(g) = h - i(v), h = parent (x) tail, v = d(h); d
    is linear over exact arithmetic, so d(d_n(g)) = v - d(i(v)), which
    vanishes iff the splitting of v passes d(i(u)) = u.  "splitting"
    counts the ``split_checks`` columns with v != 0; it fails with d.d.
    The Euler check runs to ``euler_horizon``.  Every dimension is read
    from ``res.dims``, built on the bounds' own table.

    Exactness rests on Anick's triangularity alone.  Once d.d = 0 holds on
    the generators, it holds on all of C (x) A by right A-linearity, so
    im d_{n+1} lies in ker d_n and over Q rank_in + rank_out <= dim at
    every block.  ``leading_term_ranks`` gives lower bounds on both ranks,
    read off the leading terms; where they sum to dim, both are the
    rational ranks and the block is exact (``exactness_blocks``).  Where
    the shape checks pass, the bounds settle every block, and they have
    passed on every built resolution tested.  A block is unsettled when
    d.d = 0 or a shape check fails, and then prints null ranks, or when
    its bounds fall short of dim, and then prints the bounds; either way
    its ``ok`` is false, and so are exactness's and the report's.

    The blocks run to ``block_rank_degree(res, 4000)``, which caps the
    printed exactness degree below the built degree on the larger
    resolutions; lifting the cap changes recorded outputs.

    Keys are in JSON order; the CLI prints the report as built.
    """
    report = {"ok": True}

    failures = dd_failures(res)
    report["dd_zero"] = {
        "checked": sum(len(res.diff[n]) for n in range(1, res.max_level + 1)),
        "failures": failures, "ok": not failures}
    report["splitting"] = {"checked": res.split_checks,
                           "failure_count": len(failures), "ok": not failures}

    horizon = euler_horizon(res)
    euler_failures = [d for d in range(horizon + 1) if sum(
        (-1) ** (n + 1) * row[d] for n, row in res.dims.items()) != (d == 0)]
    report["euler"] = {"degree": horizon, "failures": euler_failures,
                       "ok": not euler_failures}

    degree = block_rank_degree(res, 4000)
    bounds = leading_term_ranks(res, degree) if not failures else None
    blocks = exactness_blocks(res, bounds, degree)
    report["exactness"] = {"degree": degree,
                           "ok": all(b["ok"] for b in blocks),
                           "blocks": blocks}
    report["ok"] = all(report[k]["ok"] for k in
                       ("dd_zero", "splitting", "euler", "exactness"))
    return report


# -- Tor, minimality ----------------------------------------------------------


def is_minimal(res):
    """Whether all tensored differentials vanish; witness = (level, row
    chain word, column chain word) of the least row in the least column."""
    for n, columns in res.tensored.items():
        if columns:
            ci = min(columns)
            cj = min(columns[ci])
            return False, (n, res.levels[n - 1][cj].word, res.levels[n][ci].word)
    return True, None


def tor_dimensions(res):
    """Homology of the tensored complex, keyed by chain level then degree.

    Row i is ker(M_i)/im(M_{i+1}) for the scalar matrices M; when the
    resolution is minimal this is just the chain count table.  Row i needs
    M_{i+1}, so the table stops one level below the built resolution.
    Each level's blocks are ranked once, on their columns in reverse
    order, and shared by the two rows that need them.

    Levels list chains largest word first, and d_n(g)'s scalar terms sit
    at words below g's (Anick's leading terms), so along a block a
    column's smallest key, its pivot in ``_reduce_row``, has never been
    seen to fall.  Reversed, the first column with a key as its smallest
    settles there unreduced; a later one is reduced onto larger keys,
    which earlier columns hold as pivots, and on every block measured it
    vanishes: the pivots are input columns, with no fill.  On the largest
    block of x2xy at level 7 and degree 18 (4,368 rows x 8,008 columns,
    rank 3,003) they hold 18,018 entries, against 65,780 on the forward
    columns and 33,033 on the reversed rows, which also rank slower.
    """
    ranks = {-1: {}}
    for n, columns in res.tensored.items():
        blocks, level = {}, res.levels[n]
        for ci, column in columns.items():
            blocks.setdefault(level[ci].degree, []).append(column)
        ranks[n] = {d: sparse_rank(block[::-1]) for d, block in blocks.items()}
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
