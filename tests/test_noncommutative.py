import hashlib
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import anick.noncommutative
from anick.algebra import AlgebraError, BoundError, Polynomial
from anick.hilbert import hilbert_from_normal_words
from anick.noncommutative import (
    NcGB,
    _normal_word_table,
    Obstruction,
    WordMatcher,
    antichain_matcher,
    count_normal_words,
    find_obstructions,
    nc_buchberger,
    nc_normal_form,
    nc_reduce_basis,
    nc_s_polynomial,
)
from anick.presentation import make_bn, parse_poly, parse_presentation
from oracles import (
    normal_words,
    reference_normal_form,
    reference_obstructions,
    reference_s_polynomial,
    restart_nc_reduce_basis,
    verify_diamond,
)
from test_commutative import changes_a_tail

FREE_XY = parse_presentation(
    "algebra F ; kind noncommutative ; generators x y ;"
    " order deglex x > y ;")

X2XY = FREE_XY.with_relations([parse_poly(FREE_XY, "x^2 - x*y")])

XYZ = parse_presentation(
    "algebra G ; kind noncommutative ; generators x y z ;"
    " order deglex x > y > z ;")

XYZX = XYZ.with_relations(
    [parse_poly(XYZ, "x^2"), parse_poly(XYZ, "x*y - z*x")])

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def occurrences(word, tip):
    """Every factorization word = pre . tip . suf, by slicing; the oracle
    the matcher is tested against, so it shares no code with it."""
    return [(word[:p], word[p + len(tip):]) for p in range(len(word) - len(tip) + 1)
            if word[p:p + len(tip)] == tip]


def reference_completion(pres, max_degree):
    """Completion by re-listing: list every ambiguity of the basis, process
    the first one not yet done, insert, and list them again, with the
    reference obstructions, S-polynomial and normal form.  The queue in
    nc_buchberger must process the same ambiguities in the same order."""
    def insert(basis, h):
        w = h.leading[0]
        displaced = [e for e in basis if e.leading[0] != w and occurrences(e.leading[0], w)]
        basis[:] = [e for e in basis if not (e.leading[0] != w and occurrences(e.leading[0], w))]
        basis.append(h)
        for e in displaced:
            h2 = reference_normal_form(pres, e, basis)
            if h2:
                insert(basis, h2)

    def key(ob):
        return (basis[ob.i].leading[0], basis[ob.j].leading[0], len(ob.left))

    basis = []
    for g in pres.relations:
        h = reference_normal_form(pres, g, basis)
        if h:
            insert(basis, h)
    done = set()
    while True:
        todo = [ob for ob in reference_obstructions(pres, basis)
                if ob.degree <= max_degree and key(ob) not in done]
        if not todo:
            return tuple(basis)
        done.add(key(todo[0]))
        h = reference_normal_form(
            pres, reference_s_polynomial(pres, todo[0], basis), basis)
        if h:
            insert(basis, h)


@st.composite
def small_presentations(draw, homogeneous=st.booleans(), max_degree=8,
                        coefficients=st.integers(-2, 2).filter(bool),
                        min_terms=2):
    """1-3 relations of degree <= 4 with no constant term and min_terms to
    3 terms, over 2-3 generators if graded and 2 if not, with coefficients
    drawn from ``coefficients``, and a completion degree D <= max_degree no
    lower than the relations.  Over 3 generators about one
    ungraded draw in a few hundred makes completion's rational coefficients
    grow to 10^4 digits and more, and completion then runs for 30 s to over
    a minute."""
    graded = draw(homogeneous)
    pres = draw(st.sampled_from([FREE_XY, XYZ] if graded else [FREE_XY]))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.integers(1, 4))
        length = st.just(top) if graded else st.integers(1, top)
        word = length.flatmap(lambda n: st.tuples(
            *[st.integers(0, pres.ngens - 1)] * n))
        terms = draw(st.dictionaries(
            word, coefficients, min_size=min_terms, max_size=3))
        relations.append(pres.poly(terms))
    top = max(pres.poly_degree(f) for f in relations)
    return pres.with_relations(relations), draw(st.integers(max(top, 2), max_degree))


@st.composite
def bases_and_polys(draw):
    """1-4 polynomials of up to 4 terms on nonempty words of length <= 4,
    graded or not, whose leading words may overlap, repeat or contain one
    another, so the rewriting rule decides the normal form; and a
    polynomial of up to 5 terms on words of length <= 8."""
    pres = draw(st.sampled_from([FREE_XY, XYZ]))
    letter = st.integers(0, pres.ngens - 1)
    coeff = st.integers(-3, 3).filter(bool)
    word = st.lists(letter, min_size=1, max_size=4).map(tuple)
    basis = draw(st.lists(
        st.dictionaries(word, coeff, min_size=1, max_size=4).map(pres.poly),
        min_size=1, max_size=4))
    f = pres.poly(draw(st.dictionaries(
        st.lists(letter, max_size=8).map(tuple), coeff, max_size=5)))
    return pres, basis, f


WEIGHTED = parse_presentation(
    "algebra W ; kind noncommutative ; generators x:1 y:2 z:3 ;"
    " order deglex x > y > z ;")


@st.composite
def antichains(draw):
    """Monomials on an antichain of up to 6 words, over 2 or 3 generators,
    weighted or not: periodic words such as x^k and (x*y)^k, words p.q.p...p
    that overlap themselves at several offsets, 2-letter words and any
    short words, drawn over one alphabet or two disjoint ones.  A drawn
    word is kept unless it occurs in or contains one kept before it."""
    pres = draw(st.sampled_from([FREE_XY, XYZ, WEIGHTED]))
    everything = tuple(range(pres.ngens))
    alphabets = draw(st.sampled_from([[everything], [(0,), everything[1:]]]))
    kept = []
    for _ in range(draw(st.integers(1, 6))):
        letter = st.sampled_from(draw(st.sampled_from(alphabets)))
        short = st.lists(letter, min_size=1, max_size=3).map(tuple)
        word = draw(st.one_of(
            st.tuples(short, st.integers(2, 5)).map(lambda t: t[0] * t[1]),
            st.tuples(short, st.lists(letter, max_size=2).map(tuple),
                      st.integers(1, 3)).map(lambda t: (t[0] + t[1]) * t[2] + t[0]),
            st.tuples(letter, letter),
            st.lists(letter, min_size=1, max_size=6).map(tuple)))
        if not any(occurrences(word, v) or occurrences(v, word) for v in kept):
            kept.append(word)
    return pres, [pres.monomial_poly(w) for w in kept]


def xy_family(pres, top):
    """x*y^i - x*y^(i-1)*x for 2 <= i <= top."""
    out = []
    for i in range(2, top + 1):
        out.append(parse_poly(pres, f"x*y^{i} - x*y^{i - 1}*x"))
    return out


# Up to five tips of length <= 4, duplicates and non-antichains included,
# and a word of length <= 10, over 2-3 letters.
tips_and_word = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(tuple),
             max_size=5),
    st.lists(st.integers(0, n - 1), max_size=10).map(tuple)))


# Up to five tips, duplicates and non-antichains included, then up to 12
# edits over 2-3 letters: add a tip, discard a live key (the n-th, modulo
# how many are live) or ask for the hits in a word of length <= 10.
tips_and_queries = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(tuple),
             max_size=5),
    st.lists(st.one_of(
        st.tuples(st.just("add"), st.lists(st.integers(0, n - 1), min_size=1,
                                           max_size=4).map(tuple)),
        st.tuples(st.just("discard"), st.integers(0, 9)),
        st.tuples(st.just("hits"), st.lists(st.integers(0, n - 1),
                                            max_size=10).map(tuple))),
        max_size=12)))


class TestFindSubword:
    """Finding which tips occur in a word, and where: WordMatcher.hits."""

    def test_overlapping_occurrences(self):
        assert sorted(WordMatcher([(0, 0)]).hits((0, 0, 0))) == [(0, 0), (0, 1)]

    def test_absent(self):
        assert WordMatcher([(1, 1)]).hits((0, 1, 0)) == []

    def test_leftmost_first(self):
        assert min(WordMatcher([(0, 1)]).hits((0, 1, 1, 0, 1))) == (0, 0)

    def test_empty_needle_rejected(self):
        with pytest.raises(AlgebraError):
            WordMatcher([(0, 1), ()])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tips_and_word)
    @example(([(0, 0)], (0, 0, 0)))
    @example(([(1, 1)], (0, 1, 0)))
    @example(([(0, 1)], (0, 1, 1, 0, 1)))
    @example(([(0, 1), (0, 1), (1,), (0, 1, 1)], (0, 1, 1, 0)))
    def test_matches_slicing(self, case):
        tips, word = case
        expected = sorted((k, len(pre)) for k, tip in enumerate(tips)
                          for pre, _ in occurrences(word, tip))
        assert sorted(WordMatcher(tips).hits(word)) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tips_and_queries)
    @example(([(0, 1, 2), (1, 2), (2,)], [("hits", (0, 1, 2))]))
    @example(([(1,), (0, 1)], [("discard", 0), ("hits", (0, 1)),
                               ("add", (1,)), ("discard", 0),
                               ("hits", (1, 0, 1))]))
    def test_matches_slicing_across_edits(self, case):
        # every hit, each as often as it occurs, while tips come and go;
        # each tip is asked for too, so a tip inside another is met
        tips, edits = case
        m = WordMatcher(tips)
        live = dict(enumerate(tips))
        for op, arg in edits + [("hits", w) for w in tips]:
            if op == "add":
                live[m.add(arg)] = arg
            elif op == "discard":
                if live:
                    k = sorted(live)[arg % len(live)]
                    m.discard(k)
                    del live[k]
            else:
                expected = sorted((k, len(pre)) for k, tip in live.items()
                                  for pre, _ in occurrences(arg, tip))
                assert sorted(m.hits(arg)) == expected

    def test_discard_prunes_the_trie(self):
        m = WordMatcher([(0, 1), (1,), (0, 1)])
        m.discard(1)
        assert m._trie == {1: {0: {None: [0, 2]}}}
        m.discard(0)
        m.discard(2)
        assert m._trie == {}

    def test_antichain_names_the_shortest_word_at_an_end(self):
        # the walk back from the last letter of x*y*z meets z before y*z
        words = [XYZ.word("x", "y", "z"), XYZ.word("y", "z"), XYZ.word("z")]
        with pytest.raises(AlgebraError, match=r"^words are not an antichain:"
                           r" z occurs in x\*y\*z$"):
            antichain_matcher(XYZ, words)


# tips_and_word with one more tip to add and a choice of a key to discard
tips_and_edits = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(tuple),
             max_size=5),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(tuple),
    st.integers(0, 5),
    st.lists(st.integers(0, n - 1), max_size=10).map(tuple)))


class TestPrefixIndex:
    """WordMatcher.overlaps and step read one prefix index, which must
    follow every add and discard."""

    @staticmethod
    def check(m, live, word):
        expected = sorted((k, s) for k, tip in live.items()
                          for s in range(1, min(len(tip) - 1, len(word)) + 1)
                          if word[len(word) - s:] == tip[:s])
        assert sorted(m.overlaps(word)) == expected
        state = ()
        for end in range(1, len(word) + 1):
            read = word[:end]
            state = m.step(state, word[end - 1])
            if any(occurrences(read, tip) for tip in live.values()):
                assert state is None
                break
            # the longest suffix read that is a proper prefix of a tip
            assert state == max(
                (tip[:s] for tip in live.values() for s in range(len(tip))
                 if s <= end and read[end - s:] == tip[:s]),
                key=len, default=())

    def test_overlap_lengths(self):
        m = WordMatcher([(0, 1, 0), (1, 0, 0)])
        assert sorted(m.overlaps((1, 0, 1, 0))) == [(0, 1), (1, 2)]
        assert sorted(m.overlaps((0, 1))) == [(0, 2), (1, 1)]
        assert m.overlaps((1, 1)) == [(1, 1)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tips_and_edits)
    @example(([(0, 1)], (1, 0), 0, (0, 1, 1, 0)))
    @example(([(0, 1, 1), (1, 0)], (0, 1, 0), 1, (1, 0, 1)))
    def test_matches_slicing_across_edits(self, case):
        tips, extra, pick, word = case
        m = WordMatcher(tips)
        live = dict(enumerate(tips))
        self.check(m, live, word)
        live[m.add(extra)] = extra
        self.check(m, live, word)
        gone = sorted(live)[pick % len(live)]
        m.discard(gone)
        del live[gone]
        self.check(m, live, word)


class TestRewriteRule:
    """nc_normal_form rewrites with the lowest-index element at its leftmost
    occurrence, not at the leftmost occurrence of any element: before the
    basis is confluent the two give different normal forms."""

    ABCD = parse_presentation(
        "algebra R ; kind noncommutative ; generators a b c d ;"
        " order deglex a > b > c > d ;")

    def test_lowest_index_element_wins(self):
        pres = self.ABCD
        g0, g1 = parse_poly(pres, "b*c - d^2"), parse_poly(pres, "a*b - d*c")
        f = parse_poly(pres, "a*b*c")
        assert nc_normal_form(pres, f, [g0, g1]) == parse_poly(pres, "a*d^2")
        assert nc_normal_form(pres, f, [g1, g0]) == parse_poly(pres, "d*c^2")


class TestNormalForm:
    def test_relation_dies(self):
        b1 = make_bn(1)
        rel = b1.monomial_poly(b1.word("b1", "c1", "a1"))
        assert not nc_normal_form(b1, rel, list(b1.relations))

    def test_rewrites_to_other_block(self):
        b1 = make_bn(1)
        f = b1.monomial_poly(b1.word("c1", "a1", "b1"))
        nf = nc_normal_form(b1, f, list(b1.relations))
        assert nf == b1.scale(-1, b1.monomial_poly(b1.word("a0", "b0", "c0")))

    def test_tail_word_rewrites(self):
        pres = X2XY
        gb = nc_buchberger(pres, max_degree=8)
        for k in range(1, 5):
            w = pres.word("x", *(["y"] * k), "x")
            nf = nc_normal_form(pres, pres.monomial_poly(w), list(gb.basis))
            assert nf == pres.monomial_poly(pres.word("x", *(["y"] * (k + 1))))

    def test_ideal_membership_of_products(self):
        pres = XYZX
        gb = nc_buchberger(pres, max_degree=8)
        rng = random.Random(3)
        basis = list(gb.basis)
        for _ in range(30):
            g = pres.relations[rng.randrange(len(pres.relations))]
            left = tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
            right = tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
            f = pres.mul(pres.monomial_poly(left),
                         pres.mul(g, pres.monomial_poly(right)))
            assert not nc_normal_form(pres, f, basis)

    def test_confluence_against_randomized_reducer(self):
        pres = XYZX
        gb = nc_buchberger(pres, max_degree=8)
        basis = list(gb.basis)
        rng = random.Random(17)

        def random_nf(f):
            while True:
                reducible = []
                for m, c in f.terms:
                    for g in basis:
                        for pre, suf in occurrences(m, g.leading[0]):
                            reducible.append((m, c, g, pre, suf))
                if not reducible:
                    return f
                m, c, g, pre, suf = reducible[rng.randrange(len(reducible))]
                piece = pres.mul(pres.monomial_poly(pre),
                                 pres.mul(g, pres.monomial_poly(suf)))
                f = pres.sub(f, pres.scale(c / g.leading[1], piece))

        words = normal_words(NcGB(pres, (), 6), 3)
        all_words = [w for d in range(4) for w in words[d]]
        for w in all_words:
            f = pres.monomial_poly(w)
            assert nc_normal_form(pres, f, basis) == random_nf(f)


class TestNormalFormReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bases_and_polys())
    @example((TestRewriteRule.ABCD,
              [parse_poly(TestRewriteRule.ABCD, "b*c - d^2"),
               parse_poly(TestRewriteRule.ABCD, "a*b - d*c")],
              parse_poly(TestRewriteRule.ABCD, "a*b*c + 2*b*c*a*b")))
    def test_matches_reference_on_non_confluent_bases(self, case):
        pres, basis, f = case
        assert nc_normal_form(pres, f, basis) == reference_normal_form(pres, f, basis)


def tips_of(pres, basis):
    """The antichain-checked matcher on the basis's leading words."""
    return antichain_matcher(pres, [g.leading[0] for g in basis])


class TestObstructions:
    def test_fields_equality_and_repr(self):
        # a tuple of its six fields, in this order, that prints by name
        ob = Obstruction(0, 1, (0,), (1,), (0, 0, 1), 3)
        assert Obstruction._fields == (
            "i", "j", "left", "right", "ambiguity", "degree")
        assert ob == Obstruction(i=0, j=1, left=(0,), right=(1,),
                                 ambiguity=(0, 0, 1), degree=3)
        assert ob == (0, 1, (0,), (1,), (0, 0, 1), 3)
        assert hash(ob) == hash((0, 1, (0,), (1,), (0, 0, 1), 3))
        assert ob != ob._replace(degree=4)
        assert (ob.i, ob.j, ob.left, ob.right, ob.ambiguity, ob.degree) == ob
        assert repr(ob) == ("Obstruction(i=0, j=1, left=(0,), right=(1,), "
                            "ambiguity=(0, 0, 1), degree=3)")
        with pytest.raises(AttributeError):
            ob.degree = 4

    def test_self_overlap(self):
        basis = [parse_poly(FREE_XY, "x^2 - x*y")]
        obs = find_obstructions(FREE_XY, tips_of(FREE_XY, basis))
        assert len(obs) == 1
        ob = obs[0]
        assert ob.ambiguity == FREE_XY.word("x", "x", "x")
        assert ob.degree == 3

    def test_cross_overlap(self):
        basis = [parse_poly(XYZ, "x^2"), parse_poly(XYZ, "x*y - z*x")]
        obs = find_obstructions(XYZ, tips_of(XYZ, basis))
        ambs = {XYZ.format_monomial(ob.ambiguity) for ob in obs}
        assert "x^2*y" in ambs
        assert "x^3" in ambs

    def test_disjoint_alphabets(self):
        basis = [parse_poly(XYZ, "x^2"), parse_poly(XYZ, "y*z")]
        obs = find_obstructions(XYZ, tips_of(XYZ, basis))
        ambs = {ob.ambiguity for ob in obs}
        assert ambs == {XYZ.word("x", "x", "x")}

    def test_non_antichain_rejected(self):
        basis = [parse_poly(XYZ, "y*x*x*z"), parse_poly(XYZ, "x^2")]
        with pytest.raises(AlgebraError):
            find_obstructions(XYZ, tips_of(XYZ, basis))
        with pytest.raises(AlgebraError):
            verify_diamond(NcGB(XYZ, tuple(basis), 4))

    def test_duplicate_leading_words_rejected(self):
        basis = [parse_poly(XYZ, "x*y"), parse_poly(XYZ, "x*y + z^2")]
        with pytest.raises(AlgebraError):
            find_obstructions(XYZ, tips_of(XYZ, basis))

    def test_sorted_by_degree(self):
        gb = nc_buchberger(X2XY, max_degree=8)
        obs = find_obstructions(X2XY, tips_of(X2XY, list(gb.basis)))
        degs = [ob.degree for ob in obs]
        assert degs == sorted(degs)

    def test_matches_pairwise_scan(self):
        several = []

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(antichains())
        def check(case):
            pres, basis = case
            obs = find_obstructions(pres, tips_of(pres, basis))
            assert obs == reference_obstructions(pres, basis)
            several.append(any(
                sum(ob.i == ob.j == k for ob in obs) >= 2 for k in range(len(basis))))

        check()
        # some words overlapped themselves at two offsets or more
        assert any(several)


class TestSPolynomial:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_presentations())
    def test_matches_reference_on_every_obstruction(self, case):
        pres, degree = case
        basis = nc_buchberger(pres, max_degree=degree).basis
        for ob in find_obstructions(pres, tips_of(pres, basis)):
            assert (nc_s_polynomial(pres, ob, basis)
                    == reference_s_polynomial(pres, ob, basis))

    def test_self_overlap_cancellation(self):
        basis = [parse_poly(FREE_XY, "x^2 - x*y")]
        ob = find_obstructions(FREE_XY, tips_of(FREE_XY, basis))[0]
        s = nc_s_polynomial(FREE_XY, ob, basis)
        assert s == parse_poly(FREE_XY, "x*x*y - x*y*x")

    def test_cross_overlap_value(self):
        basis = [parse_poly(XYZ, "x^2"), parse_poly(XYZ, "x*y - z*x")]
        obs = [ob for ob in find_obstructions(XYZ, tips_of(XYZ, basis))
               if ob.ambiguity == XYZ.word("x", "x", "y")]
        assert len(obs) == 1
        s = nc_s_polynomial(XYZ, obs[0], basis)
        assert s == parse_poly(XYZ, "x*z*x")

    def test_stale_rejected(self):
        basis = [parse_poly(FREE_XY, "x^2 - x*y")]
        ob = find_obstructions(FREE_XY, tips_of(FREE_XY, basis))[0]
        other = [parse_poly(FREE_XY, "x*y*x")]
        with pytest.raises(AlgebraError):
            nc_s_polynomial(FREE_XY, ob, other)


class TestCompletion:
    def test_one_relation_family(self):
        gb = nc_buchberger(X2XY, max_degree=8)
        expected = [parse_poly(X2XY, "x^2 - x*y")] + xy_family(X2XY, 7)
        assert list(gb.basis) == expected
        assert gb.complete_to_degree == 8

    def test_two_relation_family(self):
        gb = nc_buchberger(XYZX, max_degree=8)
        expected = [parse_poly(XYZX, "x^2"), parse_poly(XYZX, "x*y - z*x")]
        expected += [parse_poly(XYZX, f"x*z^{i}*x") for i in range(1, 7)]
        assert list(gb.basis) == expected

    def test_truncation_stability(self):
        low = nc_buchberger(X2XY, max_degree=8)
        high = nc_buchberger(X2XY, max_degree=10)
        pres = X2XY
        low_set = {f for f in low.basis if pres.poly_degree(f) <= 8}
        high_set = {f for f in high.basis if pres.poly_degree(f) <= 8}
        assert low_set == high_set

    def test_bn_self_complete(self):
        for n in (1, 2, 3):
            pres = make_bn(n)
            gb = nc_buchberger(pres, max_degree=12)
            assert list(gb.basis) == list(pres.relations)
            assert verify_diamond(gb) > 0

    def test_degree_below_generator_rejected(self):
        with pytest.raises(BoundError):
            nc_buchberger(make_bn(1), max_degree=2)

    def test_diamond_certificate(self):
        gb = nc_buchberger(XYZX, max_degree=8)
        assert verify_diamond(gb) > 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_presentations())
    @example((XYZ.with_relations([parse_poly(XYZ, "x^2"),
                                  parse_poly(XYZ, "y*x*x*y + z")]), 6))
    def test_antichain_invariant(self, case):
        # the tail graph and find_obstructions take a basis's tips unchecked;
        # antichain_matcher raises on a repeated word or one inside another
        pres, degree = case
        antichain_matcher(pres, nc_buchberger(pres, max_degree=degree).tips.words)


def all_fractions(basis):
    return all(type(c) is Fraction for f in basis for _, c in f.terms)


# monic and not, with leading coefficients that divide no other coefficient
RATIONALS = st.sampled_from(
    [1, -1, 2, -2, 3, 5, Fraction(1, 2), Fraction(-3, 4)])


class TestIntegerCompletion:
    """Completion keeps integral coefficients as ints inside and returns
    Fractions; every division goes through _divide."""

    @pytest.mark.parametrize("c, lc, want", [
        (6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 7, 0), (5, 1, 5),
        (5, 3, Fraction(5, 3)), (-6, 4, Fraction(-3, 2)),
        (5, -3, Fraction(-5, 3)),
        (Fraction(3, 2), 3, Fraction(1, 2)), (4, Fraction(2), Fraction(2)),
    ])
    def test_divide_is_int_exactly_when_exact(self, c, lc, want):
        q = anick.noncommutative._divide(c, lc)
        assert q == want
        both_ints = type(c) is int and type(lc) is int
        assert type(q) is (int if both_ints and c % lc == 0 else Fraction)

    @pytest.mark.parametrize("pres", [X2XY, make_bn(3)] + [
        FREE_XY.with_relations([parse_poly(FREE_XY, r) for r in relations])
        for relations in [("2*x^2 - 3*x*y", "5*y*x*y + 2*x*y*x - y^3"),
                          ("1/2*x*y - y*x", "3*y^2*x - x*y^2 + 2*y^3"),
                          ("x*y*x - y", "y*y - x")]])
    def test_basis_coefficients_are_fractions(self, pres):
        gb = nc_buchberger(pres, max_degree=8)
        assert gb.basis and all_fractions(gb.basis)
        assert all_fractions(nc_reduce_basis(gb).basis)
        # the rules behind the view: an int exactly where a coefficient is
        # integral, the same values as the basis
        for g in (gb, nc_reduce_basis(gb)):
            assert all(type(c) is (int if c.denominator == 1 else Fraction)
                       for f in g.rules for _, c in f.terms)
            assert g.rules == g.basis

    def test_rational_graded_presentations(self):
        fractional = []

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(small_presentations(homogeneous=st.just(True), max_degree=7,
                                   coefficients=RATIONALS))
        def check(case):
            pres, degree = case
            gb = nc_buchberger(pres, max_degree=degree)
            assert gb.basis == reference_completion(pres, degree)
            assert all_fractions(gb.basis)
            assert all_fractions(nc_reduce_basis(gb).basis)
            fractional.append(any(c.denominator != 1
                                  for f in gb.basis for _, c in f.terms))

        check()
        # the draws reach the Fraction path, not only the int one
        assert any(fractional)

    def test_s_polynomial_of_int_elements(self):
        # completion's own elements: int terms where division is exact
        f = Polynomial((((0, 0), 2), ((0, 1), -4)))
        g = Polynomial((((0, 0), 3), ((1, 1), 1)))
        ob = Obstruction(0, 1, (0,), (0,), (0, 0, 0), 3)
        s = nc_s_polynomial(FREE_XY, ob, (f, g))
        assert s.terms == (((0, 1, 0), -2), ((0, 1, 1), Fraction(-1, 3)))
        assert type(s.terms[0][1]) is int
        assert s == FREE_XY.poly(dict(s.terms))

    @given(st.lists(st.integers(0, 300), min_size=1, max_size=4).map(tuple),
           st.lists(st.integers(0, 300), max_size=9).map(tuple))
    @example((1, 0), (0, 1, 0, 0))
    @example((256,), (1, 0))
    def test_drop_step_substring_is_a_subword(self, w, v):
        text = anick.noncommutative._text
        assert (text(w) in text(v)) == bool(occurrences(v, w))


def popped_ambiguities(monkeypatch, pres, max_degree):
    """(i, j, len(left), ambiguity) of each obstruction completion hands to
    nc_s_polynomial, in order."""
    log = []
    real = anick.noncommutative.nc_s_polynomial

    def spy(pres, ob, basis):
        # the S-polynomial of two monomials is 0, so no such pair is queued
        assert len(basis[ob.i].terms) > 1 or len(basis[ob.j].terms) > 1
        log.append((ob.i, ob.j, len(ob.left), ob.ambiguity))
        return real(pres, ob, basis)

    monkeypatch.setattr(anick.noncommutative, "nc_s_polynomial", spy)
    nc_buchberger(pres, max_degree=max_degree)
    monkeypatch.undo()
    return log


class TestOverlapQueue:
    """The order in which completion pops its ambiguities, recorded before
    overlaps were found by prefix and suffix lookup instead of by comparing
    every pair of leading words, less the pairs of two monomials, which
    completion does not queue."""

    XYX = FREE_XY.with_relations([parse_poly(FREE_XY, "x*y*x - y"),
                                  parse_poly(FREE_XY, "y*y - x")])

    @pytest.mark.parametrize("name, degree, count, digest", [
        ("x2xy", 16, 105, "cb426cbbff40876b86b093c4400371ccb0ae337204d57019f10515ed6c520d82"),
        ("xyzx", 14, 12, "30a693818e4a609615254015ee1e087cdd135e0f5cde622e01cd303ef1bbcd17"),
        ("bn4", 8, 18, "a66f723a32fac016039b9a1f5e17b57fd2b764481fa47d2e8e7d33e2bcb8f4c3"),
    ])
    def test_pop_sequence_pinned(self, monkeypatch, name, degree, count, digest):
        pres = (make_bn(4) if name == "bn4" else
                parse_presentation((SAMPLES / f"{name}.alg").read_text()))
        log = popped_ambiguities(monkeypatch, pres, degree)
        assert len(log) == count
        assert hashlib.sha256(repr(log).encode()).hexdigest() == digest

    def test_inhomogeneous_pop_sequence(self, monkeypatch):
        log = popped_ambiguities(monkeypatch, self.XYX, 8)
        assert [(i, j, s, self.XYX.format_monomial(a)) for i, j, s, a in log] == [
            (1, 1, 1, "y^3"), (2, 1, 1, "x*y^2"), (1, 3, 1, "y^2*x^2"),
            (2, 3, 1, "x*y*x^2"), (3, 2, 2, "y*x^2*y"), (3, 4, 1, "y*x^3"),
            (4, 2, 2, "x^3*y"), (4, 4, 1, "x^4"), (3, 4, 2, "y*x^4"),
            (4, 4, 2, "x^5")]

    def test_new_lead_inside_a_live_one_drops_it(self, monkeypatch):
        # y*x*y sits at offset 1 of x*y*x*y*x: neither a prefix nor a suffix
        pres = FREE_XY.with_relations([parse_poly(FREE_XY, "x*y*x*y*x"),
                                       parse_poly(FREE_XY, "y*x*y")])
        long, short = pres.relations
        reduced = []
        real = anick.noncommutative._reduce

        def spy(pres, f, matcher, rules):
            h = real(pres, f, matcher, rules)
            reduced.append((f, h))
            return h

        monkeypatch.setattr(anick.noncommutative, "_reduce", spy)
        gb = nc_buchberger(pres, max_degree=8)
        monkeypatch.undo()
        # inserted, then displaced by y*x*y and re-reduced to zero
        assert [h for f, h in reduced if f == long] == [long, pres.poly({})]
        assert gb.basis == (short,)
        assert gb.basis == reference_completion(pres, 8)


class TestCompletionProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_presentations())
    def test_same_order_as_relisting_loop(self, case):
        pres, degree = case
        gb = nc_buchberger(pres, max_degree=degree)
        assert gb.basis == reference_completion(pres, degree)
        verify_diamond(gb)

    def test_monomial_relations_same_basis_as_relisting_loop(self):
        # the relisting loop processes the overlaps of two monomials too
        skipped = []

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(small_presentations(homogeneous=st.just(True), min_terms=1))
        def check(case):
            pres, degree = case
            gb = nc_buchberger(pres, max_degree=degree)
            assert gb.basis == reference_completion(pres, degree)
            skipped.append(any(
                len(gb.rules[ob.i].terms) == 1 == len(gb.rules[ob.j].terms)
                for ob in find_obstructions(pres, gb.tips)))

        check()
        # the draws reach bases with overlapping monomials
        assert any(skipped)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_presentations(homogeneous=st.just(False), max_degree=6))
    def test_ungraded_same_order_as_relisting_loop(self, case):
        pres, degree = case
        assert (nc_buchberger(pres, max_degree=degree).basis
                == reference_completion(pres, degree))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_presentations(homogeneous=st.just(True)), st.randoms())
    def test_graded_reduced_basis_ignores_relation_order(self, case, rng):
        pres, degree = case
        shuffled = list(pres.relations)
        rng.shuffle(shuffled)
        reduced = [set(nc_reduce_basis(nc_buchberger(p, max_degree=degree)).basis)
                   for p in (pres, pres.with_relations(shuffled))]
        assert reduced[0] == reduced[1]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_presentations(homogeneous=st.just(True), max_degree=6))
    def test_graded_truncation_stability(self, case):
        pres, degree = case
        low, high = (nc_reduce_basis(nc_buchberger(pres, max_degree=d)).basis
                     for d in (degree, degree + 2))
        assert set(low) == {f for f in high if pres.poly_degree(f) <= degree}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_presentations(homogeneous=st.just(False), max_degree=6))
    def test_certified_ungraded_basis_is_final(self, case):
        # an inhomogeneous basis is certified only when completion has
        # nothing left to do, so two more degrees must not change it; an
        # ungraded draw can still come out homogeneous
        pres, degree = case
        low, high = (nc_buchberger(pres, max_degree=d) for d in (degree, degree + 2))
        assume(not all(pres.is_homogeneous(f) for f in pres.relations))
        assume(low.certified_degree > degree)
        assert set(nc_reduce_basis(low).basis) == set(nc_reduce_basis(high).basis)


class TestReduceBasis:
    def test_bn_relations_fixed(self):
        pres = make_bn(1)
        gb = nc_buchberger(pres, max_degree=8)
        red = nc_reduce_basis(gb)
        assert list(red.basis) == list(pres.relations)

    def test_scaling(self):
        pres = X2XY
        gb = NcGB(pres, (parse_poly(pres, "x^2 - x*y"),
                         parse_poly(pres, "2*x*y*y - 2*x*y*x")), 4)
        red = nc_reduce_basis(gb)
        # leading word of the second element is x*y*x with coefficient -2
        assert red.basis[0] == parse_poly(pres, "x^2 - x*y")
        assert red.basis[1] == parse_poly(pres, "x*y*x - x*y*y")

    def test_tail_reduction_collapses(self):
        pres = XYZ.with_relations([
            parse_poly(XYZ, "x^2"),
            parse_poly(XYZ, "y*x*x*y + z"),
        ])
        gb = nc_buchberger(pres, max_degree=6)
        red = nc_reduce_basis(gb)
        assert set(red.basis) == {parse_poly(XYZ, "x^2"), parse_poly(XYZ, "z")}

    @pytest.mark.parametrize("degree", [8, 10, 12])
    @pytest.mark.parametrize("source", [
        "free3", "x2xy", "x2y2", "xyzx", "B1", "B2", "B3", "B4"])
    def test_leading_words_unchanged(self, source, degree):
        # Completion keeps leading words an antichain, so interreduction
        # only rewrites tails: chains can be read off the raw basis.
        if source.startswith("B"):
            pres = make_bn(int(source[1:]))
        else:
            pres = parse_presentation((SAMPLES / f"{source}.alg").read_text())
        gb = nc_buchberger(pres, max_degree=degree)
        raw = [g.leading[0] for g in gb.basis]
        assert raw == [g.leading[0] for g in nc_reduce_basis(gb).basis]


class TestOnePassReduction:
    """nc_reduce_basis against the loop that restarts until nothing
    changes."""

    def test_random_graded_presentations(self):
        changed = []

        @settings(max_examples=80, deadline=None, derandomize=True)
        @given(small_presentations(homogeneous=st.just(True)))
        def check(case):
            pres, degree = case
            gb = nc_buchberger(pres, max_degree=degree)
            red = nc_reduce_basis(gb)
            assert red.basis == restart_nc_reduce_basis(gb).basis
            changed.append(changes_a_tail(gb, red))

        check()
        assert any(changed)

    @pytest.mark.parametrize("relations, reduced", [
        # the first element's tail is the second's leading word
        (("x*y - y*x", "y*x - y*y"), ("x*y - y^2", "y*x - y^2")),
        # inhomogeneous, complete outright
        (("y*x*y - 1",), ("x*y - y*x", "y^2*x - 1")),
    ])
    def test_explicit_cases(self, relations, reduced):
        pres = FREE_XY.with_relations(
            [parse_poly(FREE_XY, r) for r in relations])
        gb = nc_buchberger(pres, max_degree=6)
        assert gb.certified_degree >= 6
        red = nc_reduce_basis(gb)
        assert red.basis == restart_nc_reduce_basis(gb).basis
        assert red.basis == tuple(parse_poly(pres, r) for r in reduced)


class TestNormalWords:
    def test_free_algebra_counts(self):
        gb = NcGB(XYZ, (), 4)
        words = normal_words(gb, 2)
        assert [len(words[d]) for d in range(3)] == [1, 3, 9]

    def test_x2y2_counts(self):
        pres = FREE_XY.with_relations([parse_poly(FREE_XY, "x^2 + y^2")])
        gb = nc_buchberger(pres, max_degree=8)
        words = normal_words(gb, 4)
        assert [len(words[d]) for d in range(5)] == [1, 2, 3, 4, 5]

    def test_single_generator_killed(self):
        pres = parse_presentation(
            "algebra K ; kind noncommutative ; generators x ;"
            " order deglex x ; relations x ;")
        gb = nc_buchberger(pres, max_degree=4)
        words = normal_words(gb, 4)
        assert [len(words[d]) for d in range(5)] == [1, 0, 0, 0, 0]

    def test_certificate_enforced(self):
        gb = nc_buchberger(X2XY, max_degree=6)
        with pytest.raises(BoundError):
            normal_words(gb, 7)

    @pytest.mark.parametrize("generators, relations, degree, words", [
        # one word per degree, x^d
        ("x", "", 1500, lambda d: [(0,) * d]),
        # the two alternating words, starting with x or with y
        ("x y", "relations x*x; y*y;", 1200,
         lambda d: sorted({(0, 1) * (d // 2) + (0,) * (d % 2),
                           (1, 0) * (d // 2) + (1,) * (d % 2)})),
    ])
    def test_long_words(self, generators, relations, degree, words):
        # far past Python's recursion limit, in the same groups as at
        # small degree
        pres = parse_presentation(
            f"algebra L ; kind noncommutative ; generators {generators} ;"
            f" order deglex {' > '.join(generators.split())} ; {relations}")
        gb = nc_buchberger(pres, max_degree=degree)
        out = normal_words(gb, degree)
        assert list(out) == list(range(degree + 1))
        assert all(out[d] == words(d) for d in out)

    def test_counts_match_enumeration(self):
        gb = nc_buchberger(XYZX, max_degree=8)
        words = normal_words(gb, 6)
        counts = count_normal_words(XYZX, gb.tips, 6)
        assert [len(words[d]) for d in range(7)] == counts[:7]

    def test_weighted_generators(self):
        pres = parse_presentation(
            "algebra W ; kind noncommutative ; generators u:2 v:3 ;"
            " order deglex u > v ;")
        counts = count_normal_words(pres, WordMatcher(), 6)
        # degree 6 words: uuu, vv
        assert counts == [1, 0, 1, 1, 1, 2, 2]


class TestUngradedCertificate:
    """y*x*y = 1 over x > y: at degree 4 the self-overlap y*x*y*x*y (degree
    5) is still pending, so nothing is certified; by degree 8 completion has
    finished and the basis is complete in every degree."""

    YXY = FREE_XY.with_relations([parse_poly(FREE_XY, "y*x*y - 1")])

    def test_pending_overlap_certifies_nothing(self):
        gb = nc_buchberger(self.YXY, max_degree=4)
        assert gb.certified_degree == -1
        with pytest.raises(BoundError):
            hilbert_from_normal_words(gb, 4)
        with pytest.raises(BoundError):
            normal_words(gb, 4)

    def test_complete_basis_certifies_every_degree(self):
        gb = nc_buchberger(self.YXY, max_degree=8)
        assert gb.certified_degree == math.inf
        assert list(hilbert_from_normal_words(gb, 12)) == [1, 2] + [3] * 11
        words = normal_words(gb, 10)
        assert [len(words[d]) for d in range(5)] == [1, 2, 3, 3, 3]


class TestAutomaton:
    """The normal-word automaton: WordMatcher.step."""

    def test_overlapping_pattern(self):
        m = WordMatcher([(0, 0)])
        s = m.step((), 0)
        assert s == (0,)
        assert m.step(s, 0) is None
        assert m.step(s, 1) == ()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tips_and_word)
    @example(([(0, 0)], (0, 0)))
    @example(([(0, 0)], (0, 1, 0)))
    @example(([(1,), (0, 1, 1)], (0, 0, 1)))
    @example(([(0, 1, 0), (1, 0, 1)], (0, 1, 1, 0, 1)))
    def test_matches_brute_force(self, case):
        tips, word = case
        m = WordMatcher(tips)
        state = ()
        for letter in word:
            state = m.step(state, letter)
            if state is None:
                break
        has = any(occurrences(word, tip) for tip in tips)
        assert (state is None) == has
        assert (state is None) == bool(m.hits(word))


class TestNormalWordTable:
    """The one count of words over the tip automaton, from every state."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(antichains())
    @example((FREE_XY, [FREE_XY.monomial_poly((0, 1, 0)),
                        FREE_XY.monomial_poly((1, 1))]))
    @example((WEIGHTED, [WEIGHTED.monomial_poly((1, 0, 1)),
                         WEIGHTED.monomial_poly((2, 2))]))
    def test_matches_brute_force(self, case):
        pres, basis = case
        tips = [g.leading[0] for g in basis]
        matcher = WordMatcher(tips)
        degree = 6
        table = _normal_word_table(pres, matcher, degree)
        # the states the empty word reaches: () and, the tips being an
        # antichain, every proper prefix of a tip
        assert next(iter(table)) == ()
        assert set(table) == {()} | {t[:s] for t in tips for s in range(1, len(t))}
        by_degree = {d: [] for d in range(degree + 1)}
        for w in words_up_to(pres, degree):
            by_degree[pres.monomial_degree(w)].append(w)
        for state, counts in table.items():
            assert counts == [sum(not matcher.hits(state + w) for w in words)
                              for words in by_degree.values()]
        assert count_normal_words(pres, matcher, degree) == table[()]


def words_up_to(pres, max_degree):
    """Every word of degree at most max_degree, shortest first."""
    out = [()]
    for w in out:
        out.extend(w + (x,) for x in range(pres.ngens)
                   if pres.monomial_degree(w + (x,)) <= max_degree)
    return out
