"""The resolution of the base field over a presented graded algebra.

``AnickResolution(presentation, max_level, max_degree)`` completes the
relations, enumerates the chains on the leading words and builds the
differentials, all to its own bounds.

Modules are C_n (x) A with C_n the free span of the n-chains; elements are
dicts mapping (chain index, normal word) to a rational coefficient.  The
differential and its splitting are mutually recursive:

    d_0(x (x) 1)  = 1 (x) x
    d_n(gt (x) 1) = g (x) t - i_{n-1}(d_{n-1}(g (x) t))
    i_0(1 (x) w)  = w[0] (x) w[1:]
    i_n(u)        = alpha g (x) c + i_n(u - alpha d_n(g (x) c))

where in the last line (f, s) is the leading pair of u under the order
"f (x) s < g (x) t iff fs < gt", and fs = (word of an n-chain g) . (normal
word c) -- that factorization exists and is unique for kernel leading words,
and both facts are asserted rather than assumed.  The pending pairs of u sit
in a heap, each keyed once as it enters, and g is found by looking up the
prefixes of fs in a per-level index of chain words, one for each chain word
length present at level n.  Values of d on free generators are memoized; d
on c (x) a follows by right multiplication and normal-form reduction.

Coefficients are ints wherever they are integral.  A monic basis with
integer coefficients gives integral normal forms, since each reduction step
subtracts an integer multiple of a basis element.  Then every d_n and i_n is
integral too: the head coefficient of d_n(g (x) 1) is 1, so each alpha that
i_n takes off a leading pair is an integer.  This is a per-term fast path,
not a second mode: a normal-form coefficient that is not an integer stays a
Fraction, and the arithmetic stays exact for any basis.

Everything downstream lives here too: the d.d = 0 and splitting checks,
graded exactness ranks, the Euler identity, tensoring with the base field,
Tor dimensions (exact integer ranks), and the minimality test.
"""

from __future__ import annotations

import heapq

from .algebra import AlgebraError, BoundError
from .chains import chain_counts, enumerate_chains
from .linalg import PRIME, sparse_rank, sparse_rank_mod_p
from .noncommutative import (
    WordMatcher,
    count_normal_words,
    nc_buchberger,
    nc_normal_form,
    normal_words,
)


class AnickResolution:
    """Differentials d_n for 0 <= n <= max_level on the chain generators.

    Every internal splitting is audited for d(i(u)) = u; failures are
    collected, not raised, so a verification report can show them.
    ``counts`` holds the chains per (level, degree) and ``hilbert`` the
    algebra's normal-word counts to ``max_degree``.
    """

    def __init__(self, presentation, max_level, max_degree):
        presentation.require_graded()
        self.presentation = presentation
        self.gb = gb = nc_buchberger(presentation, max_degree=max_degree)
        tips = [g.leading[0] for g in gb.basis]
        self.max_level = max_level
        self.max_degree = max_degree
        self.levels = enumerate_chains(presentation, tips, max_level, max_degree).levels
        self.counts = chain_counts(presentation, tips, max_level, max_degree)
        self._word_index = {
            n: {c.word: k for k, c in enumerate(chains)}
            for n, chains in self.levels.items()}
        self._chain_lengths = {
            n: sorted({len(c.word) for c in chains})
            for n, chains in self.levels.items()}
        self._tips = WordMatcher(tips)
        self.hilbert = count_normal_words(presentation, self._tips.words, max_degree)
        self._nf_cache = {}
        self.split_checks = 0
        self.split_failures = []
        self.diff = {0: [{(0, c.word): 1} for c in self.levels[0]]}
        for n in range(1, max_level + 1):
            self.diff[n] = [self._build_d(n, c) for c in self.levels[n]]

    # -- plumbing ----------------------------------------------------------

    def _nf_word(self, word):
        """Normal form of a single word as a terms tuple, integral
        coefficients as ints."""
        cached = self._nf_cache.get(word)
        if cached is None:
            pres = self.presentation
            if pres.monomial_degree(word) > self.gb.complete_to_degree:
                raise BoundError(
                    f"reduction of degree {pres.monomial_degree(word)} exceeds "
                    f"the certified degree {self.gb.complete_to_degree}")
            if not self._tips.hits(word):
                cached = ((word, 1),)
            else:
                cached = tuple(
                    (m, int(c) if c.denominator == 1 else c)
                    for m, c in nc_normal_form(
                        pres, pres.monomial_poly(word), self.gb.basis).terms)
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

    def _i0(self, elem):
        """Splitting at the bottom: 1 (x) w -> w[0] (x) w[1:]."""
        out = {}
        for (_, w), coeff in elem.items():
            if not coeff:
                continue
            if not w:
                raise AlgebraError(
                    "splitting a level -1 element with a constant term: "
                    "not in the augmentation kernel")
            key = (self._word_index[0][w[:1]], w[1:])
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return out

    def _isplit(self, m, elem):
        """Splitting i_m for m >= 1: level m-1 kernel elements to level m.

        Pending pairs sit in a heap under Presentation.heap_key of their
        word, keyed once when they enter; a pair that has left the work
        dict is skipped when it surfaces.  The lead's word is factored by
        looking up its prefixes in the level-m word index, one per chain
        word length present at that level.
        """
        pres = self.presentation
        below = self.levels[m - 1]
        index = self._word_index[m]
        lengths = self._chain_lengths[m]
        work = {k: v for k, v in elem.items() if v}
        heap = [(pres.heap_key(below[ci].word + s), (ci, s)) for ci, s in work]
        heapq.heapify(heap)
        out = {}
        last_key = None
        while work:
            lead_key, lead = heapq.heappop(heap)
            if lead not in work:
                continue
            while heap and (heap[0][1] == lead or heap[0][1] not in work):
                heapq.heappop(heap)
            if heap and heap[0][0] == lead_key:
                raise AlgebraError("leading pair of a kernel element is ambiguous")
            if last_key is not None and lead_key <= last_key:
                raise AlgebraError("splitting recursion failed to descend")
            last_key = lead_key
            ci, s = lead
            alpha = work[lead]
            w = below[ci].word + s
            candidates = []
            for k in lengths:
                if k > len(w):
                    break
                gi = index.get(w[:k])
                if gi is not None and not self._tips.hits(w[k:]):
                    candidates.append((gi, w[k:]))
            if not candidates:
                raise AlgebraError(
                    f"kernel leading word {pres.format_monomial(w)} admits no "
                    f"(chain).(normal word) factorization at level {m}")
            if len(candidates) > 1:
                raise AlgebraError(
                    f"kernel leading word {pres.format_monomial(w)} admits "
                    f"{len(candidates)} chain factorizations at level {m}")
            gi, cw = candidates[0]
            if (gi, cw) in out:
                raise AlgebraError("splitting revisited a chain generator")
            out[(gi, cw)] = alpha
            for k, v in self.apply_d(m, {(gi, cw): 1}).items():
                acc = work.get(k, 0) - alpha * v
                if not acc:
                    work.pop(k, None)
                    continue
                if k not in work:
                    heapq.heappush(
                        heap, (pres.heap_key(below[k[0]].word + k[1]), k))
                work[k] = acc
            if lead in work:
                heapq.heappush(heap, (lead_key, lead))
        return out

    def split(self, m, elem):
        """i_m with the d(i(u)) = u audit."""
        result = self._i0(elem) if m == 0 else self._isplit(m, elem)
        back = self.apply_d(m, result)
        self.split_checks += 1
        if back != {k: v for k, v in elem.items() if v}:
            self.split_failures.append((m, elem, back))
        return result

    def _build_d(self, n, chain):
        pi = self._word_index[n - 1][chain.parent.word]
        head = {(pi, chain.tail): 1}
        v = self.apply_d(n - 1, head)
        result = dict(head)
        if v:
            correction = self.split(n - 1, v)
            for k, val in correction.items():
                acc = result.get(k, 0) - val
                if acc:
                    result[k] = acc
                else:
                    result.pop(k, None)
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

    Ranks are taken mod PRIME first, and every reported rank is still the
    rank over Q.  A mod-p rank never exceeds the rational one.  Once
    d.d = 0 holds on the generators, it holds on all of C (x) A by right
    A-linearity, so im d_{n+1} lies in ker d_n and over Q
    rank_in + rank_out <= dim at every block.  Where the mod-p ranks already
    sum to dim, both are therefore the rational ranks and the block is
    exact.  A matrix that no such block certifies, or whose reduction mod p
    is undefined, has its columns built again and ranked exactly; their
    count is report["exactness"]["exact_fallbacks"].  When d.d = 0 fails,
    every rank is exact from the start.
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
    words = normal_words(res.gb, rank_degree)
    degrees = range(rank_degree + 1)
    modular = report["dd_zero"]["ok"]
    # level -1 is the augmentation: rank 1 in degree 0, exact as it stands
    ranks = {(-1, d): 1 if d == 0 else 0 for d in degrees}
    for n in range(0, res.max_level + 1):
        for d in degrees:
            cols = _block_columns(res, n, d, words)
            ranks[n, d] = (sparse_rank_mod_p(cols, PRIME) if modular
                           else sparse_rank(cols))
    exact = {(-1, d) for d in degrees} if modular else set(ranks)
    if modular:
        for n in range(-1, res.max_level):
            for d in degrees:
                rank_out, rank_in = ranks[n, d], ranks[n + 1, d]
                if (rank_out is not None and rank_in is not None and
                        rank_out + rank_in == module_dimension(res, n, d, h)):
                    exact.update(((n, d), (n + 1, d)))
    fallbacks = [key for key in ranks if key not in exact]
    for n, d in fallbacks:
        ranks[n, d] = sparse_rank(_block_columns(res, n, d, words))
    blocks = []
    exact_ok = True
    for n in range(-1, res.max_level):
        for d in degrees:
            dim = module_dimension(res, n, d, h)
            rank_out, rank_in = ranks[n, d], ranks[n + 1, d]
            ok = rank_out + rank_in == dim
            exact_ok = exact_ok and ok
            blocks.append({"level": n, "degree": d, "dim": dim,
                           "rank_out": rank_out, "rank_in": rank_in,
                           "ok": ok})
    report["exactness"] = {
        "degree": rank_degree, "blocks": blocks, "ok": exact_ok,
        "exact_fallbacks": len(fallbacks)}
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
    """
    tensored = tensor_with_k(res)

    def graded_rank(n):
        if n < 0 or n > res.max_level:
            return {}
        cols = {}
        for (cj, ci), coeff in tensored[n].items():
            d = res.levels[n][ci].degree
            cols.setdefault(d, {}).setdefault(ci, {})[cj] = coeff
        return {d: sparse_rank(by_col.values()) for d, by_col in cols.items()}

    table = {}
    for i in range(-1, res.max_level):
        counts = res.counts[i]
        rank_i = graded_rank(i)
        rank_next = graded_rank(i + 1)
        row = {}
        for d in sorted(set(counts) | set(rank_next)):
            dim = counts.get(d, 0) - rank_i.get(d, 0) - rank_next.get(d, 0)
            if dim < 0:
                raise AlgebraError("tensored complex ranks exceed dimensions")
            if dim:
                row[d] = dim
        table[i] = row
    return table
