import math
import pathlib
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anick.algebra import AlgebraError, BoundError
from anick.hilbert import hilbert_from_normal_words
from anick.noncommutative import (
    NcGB,
    WordMatcher,
    count_normal_words,
    find_obstructions,
    nc_buchberger,
    nc_normal_form,
    nc_reduce_basis,
    nc_s_polynomial,
    normal_words,
)
from anick.presentation import make_bn, parse_poly, parse_presentation
from oracles import restart_nc_reduce_basis, verify_diamond
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
    the first one not yet done, insert, and list them again.  The queue in
    nc_buchberger must process the same ambiguities in the same order."""
    def insert(basis, h):
        w = h.leading[0]
        displaced = [e for e in basis if e.leading[0] != w and occurrences(e.leading[0], w)]
        basis[:] = [e for e in basis if not (e.leading[0] != w and occurrences(e.leading[0], w))]
        basis.append(h)
        for e in displaced:
            h2 = nc_normal_form(pres, e, basis)
            if h2:
                insert(basis, h2)

    def key(ob):
        return (basis[ob.i].leading[0], basis[ob.j].leading[0], len(ob.left))

    basis = []
    for g in pres.relations:
        h = nc_normal_form(pres, g, basis)
        if h:
            insert(basis, h)
    done = set()
    while True:
        todo = [ob for ob in find_obstructions(pres, basis)
                if ob.degree <= max_degree and key(ob) not in done]
        if not todo:
            return tuple(basis)
        done.add(key(todo[0]))
        h = nc_normal_form(pres, nc_s_polynomial(pres, todo[0], basis), basis)
        if h:
            insert(basis, h)


@st.composite
def small_presentations(draw, homogeneous=st.booleans(), max_degree=8):
    """1-3 relations of degree <= 4 with no constant term, over 2-3
    generators if graded and 2 if not, and a completion degree D <=
    max_degree no lower than the relations.  Over 3 generators about one
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
            word, st.integers(-2, 2).filter(bool), min_size=2, max_size=3))
        relations.append(pres.poly(terms))
    top = max(pres.poly_degree(f) for f in relations)
    return pres.with_relations(relations), draw(st.integers(max(top, 2), max_degree))


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


class TestObstructions:
    def test_self_overlap(self):
        basis = [parse_poly(FREE_XY, "x^2 - x*y")]
        obs = find_obstructions(FREE_XY, basis)
        assert len(obs) == 1
        ob = obs[0]
        assert ob.ambiguity == FREE_XY.word("x", "x", "x")
        assert ob.degree == 3

    def test_cross_overlap(self):
        basis = [parse_poly(XYZ, "x^2"), parse_poly(XYZ, "x*y - z*x")]
        obs = find_obstructions(XYZ, basis)
        ambs = {XYZ.format_monomial(ob.ambiguity) for ob in obs}
        assert "x^2*y" in ambs
        assert "x^3" in ambs

    def test_disjoint_alphabets(self):
        basis = [parse_poly(XYZ, "x^2"), parse_poly(XYZ, "y*z")]
        obs = find_obstructions(XYZ, basis)
        ambs = {ob.ambiguity for ob in obs}
        assert ambs == {XYZ.word("x", "x", "x")}

    def test_non_antichain_rejected(self):
        basis = [parse_poly(XYZ, "y*x*x*z"), parse_poly(XYZ, "x^2")]
        with pytest.raises(AlgebraError):
            find_obstructions(XYZ, basis)
        with pytest.raises(AlgebraError):
            verify_diamond(NcGB(XYZ, tuple(basis), 4))

    def test_duplicate_leading_words_rejected(self):
        basis = [parse_poly(XYZ, "x*y"), parse_poly(XYZ, "x*y + z^2")]
        with pytest.raises(AlgebraError):
            find_obstructions(XYZ, basis)

    def test_sorted_by_degree(self):
        gb = nc_buchberger(X2XY, max_degree=8)
        obs = find_obstructions(X2XY, list(gb.basis))
        degs = [ob.degree for ob in obs]
        assert degs == sorted(degs)


class TestSPolynomial:
    def test_self_overlap_cancellation(self):
        basis = [parse_poly(FREE_XY, "x^2 - x*y")]
        ob = find_obstructions(FREE_XY, basis)[0]
        s = nc_s_polynomial(FREE_XY, ob, basis)
        assert s == parse_poly(FREE_XY, "x*x*y - x*y*x")

    def test_cross_overlap_value(self):
        basis = [parse_poly(XYZ, "x^2"), parse_poly(XYZ, "x*y - z*x")]
        obs = [ob for ob in find_obstructions(XYZ, basis)
               if ob.ambiguity == XYZ.word("x", "x", "y")]
        assert len(obs) == 1
        s = nc_s_polynomial(XYZ, obs[0], basis)
        assert s == parse_poly(XYZ, "x*z*x")

    def test_stale_rejected(self):
        basis = [parse_poly(FREE_XY, "x^2 - x*y")]
        ob = find_obstructions(FREE_XY, basis)[0]
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

    def test_antichain_invariant(self):
        pres = XYZ.with_relations([
            parse_poly(XYZ, "x^2"),
            parse_poly(XYZ, "y*x*x*y + z"),
        ])
        gb = nc_buchberger(pres, max_degree=6)
        words = [f.leading[0] for f in gb.basis]
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                if i != j:
                    assert not occurrences(u, v)


class TestCompletionProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_presentations())
    def test_same_order_as_relisting_loop(self, case):
        pres, degree = case
        gb = nc_buchberger(pres, max_degree=degree)
        assert gb.basis == reference_completion(pres, degree)
        verify_diamond(gb)

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

    def test_counts_match_enumeration(self):
        gb = nc_buchberger(XYZX, max_degree=8)
        words = normal_words(gb, 6)
        counts = count_normal_words(XYZX, [f.leading[0] for f in gb.basis], 6)
        assert [len(words[d]) for d in range(7)] == counts[:7]

    def test_weighted_generators(self):
        pres = parse_presentation(
            "algebra W ; kind noncommutative ; generators u:2 v:3 ;"
            " order deglex u > v ;")
        counts = count_normal_words(pres, [], 6)
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
