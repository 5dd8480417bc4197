import itertools
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anick.algebra import AlgebraError
from anick.cli import _chain_texts
from anick.chains import OneLetterTipError, TailGraph, enumerate_chains
from anick.hilbert import hilbert_from_chains
from anick.noncommutative import (
    WordMatcher,
    _path_table,
    antichain_matcher,
    nc_buchberger,
)
from anick.presentation import make_bn, parse_poly, parse_presentation
from oracles import chain_decompositions, is_chain, reference_follow
from test_hilbert import graded_presentations

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

FREE_X = parse_presentation(
    "algebra K ; kind noncommutative ; generators x ; order deglex x ;")

FREE_XY = parse_presentation(
    "algebra F ; kind noncommutative ; generators x y ;"
    " order deglex x > y ;")


def leading_words(pres, max_degree=8):
    gb = nc_buchberger(pres, max_degree=max_degree)
    return [f.leading[0] for f in gb.basis]


def named(pres, *names):
    return pres.word(*names)


def level_words(cs, n):
    return {c.word for c in cs.levels[n]}


class TestCubeChains:
    F = (named(FREE_X, "x", "x", "x"),)

    def test_levels(self):
        cs = enumerate_chains(TailGraph(
            FREE_X, antichain_matcher(FREE_X, self.F)), 3, 8)
        assert level_words(cs, 1) == {("x",) * 0 + (0, 0, 0)}
        assert level_words(cs, 2) == {(0,) * 4}
        assert level_words(cs, 3) == {(0,) * 6}

    def test_x5_not_a_3_chain(self):
        cs = enumerate_chains(TailGraph(
            FREE_X, antichain_matcher(FREE_X, self.F)), 3, 8)
        assert (0,) * 5 not in level_words(cs, 3)
        ok, _ = is_chain(FREE_X, (0,) * 5, self.F, 3)
        assert not ok

    def test_x5_not_a_2_chain_either(self):
        ok, _ = is_chain(FREE_X, (0,) * 5, self.F, 2)
        assert not ok

    def test_deeper_pattern(self):
        # levels alternate: even level 2m gives x^(3m+1), odd 2m+1 gives x^(3m+3)
        cs = enumerate_chains(TailGraph(
            FREE_X, antichain_matcher(FREE_X, self.F)), 7, 16)
        for n in range(1, 8):
            words = level_words(cs, n)
            assert len(words) == 1
            (w,) = words
            m, r = divmod(n, 2)
            assert len(w) == (3 * m + 1 if r == 0 else 3 * m + 3)


class TestSquareSumChains:
    def setup_method(self):
        pres = FREE_XY.with_relations([parse_poly(FREE_XY, "x^2 + y^2")])
        self.pres = pres
        self.F = tuple(leading_words(pres))

    def test_obstruction_set(self):
        assert set(self.F) == {(0, 0), (0, 1, 1)}

    def test_family(self):
        cs = enumerate_chains(TailGraph(
            self.pres, antichain_matcher(self.pres, self.F)), 6, 16)
        x, y = 0, 1
        for n in range(1, 7):
            expected = {(x,) * n + (y, y), (x,) * (n + 1)}
            assert level_words(cs, n) == expected

    def test_xyyxx_rejected(self):
        # single F-occurrence ending at the end is not enough: the tail must
        # interlock with the previous one
        ok, _ = is_chain(self.pres, (0, 1, 1, 0, 0), self.F, 2)
        assert not ok
        cs = enumerate_chains(TailGraph(
            self.pres, antichain_matcher(self.pres, self.F)), 2, 8)
        assert (0, 1, 1, 0, 0) not in level_words(cs, 2)


class TestCompositionChains:
    def setup_method(self):
        pres = FREE_XY.with_relations([parse_poly(FREE_XY, "x^2 - x*y")])
        self.pres = pres
        self.F = tuple(leading_words(pres, 10))

    def test_chain_words_are_tail_products(self):
        # n-chains are exactly x y^(k1) x y^(k2) ... y^(kn) x
        cs = enumerate_chains(TailGraph(
            self.pres, antichain_matcher(self.pres, self.F)), 3, 9)
        x, y = 0, 1
        for n in range(1, 4):
            expected = set()
            for ks in itertools.product(range(8), repeat=n):
                w = (x,)
                for k in ks:
                    w = w + (y,) * k + (x,)
                if len(w) <= 9:
                    expected.add(w)
            assert level_words(cs, n) == expected

    def test_counts_by_degree(self):
        counts = enumerate_chains(TailGraph(
            self.pres, antichain_matcher(self.pres, self.F)), 3, 9).counts()
        # degree d words x y^(k1) x ... y^(kn) x: compositions of d-n-1
        # into n nonnegative parts
        for n in range(1, 4):
            for d in range(9 + 1):
                free = d - n - 1
                expected = 0
                if free >= 0:
                    expected = len([c for c in itertools.product(range(free + 1), repeat=n)
                                    if sum(c) == free])
                assert counts[n].get(d, 0) == expected


class TestB1Chains:
    def setup_method(self):
        self.pres = make_bn(1)
        self.F = tuple(leading_words(self.pres, 12))

    def chains(self, max_level=5, max_degree=12):
        return enumerate_chains(TailGraph(
            self.pres, antichain_matcher(self.pres, self.F)), max_level,
            max_degree)

    def test_level_1_is_obstruction_set(self):
        cs = self.chains()
        assert level_words(cs, 1) == set(self.F)
        assert len(self.F) == 6

    def test_level_2_exact(self):
        cs = self.chains()
        p = self.pres
        expected = {
            named(p, "a1", "b1", "c1", "a1"),
            named(p, "c1", "a1", "b1", "c1"),
            named(p, "c1", "a1", "b1", "a0"),
            named(p, "b1", "c1", "a1", "b1"),
            named(p, "c0", "c1", "a1", "b1"),
        }
        assert level_words(cs, 2) == expected

    def test_level_3_exact(self):
        cs = self.chains()
        p = self.pres
        expected = {
            named(p, "a1", "b1", "c1", "a1", "b1", "c1"),
            named(p, "c1", "a1", "b1", "c1", "a1", "b1"),
            named(p, "b1", "c1", "a1", "b1", "c1", "a1"),
            named(p, "b1", "c1", "a1", "b1", "a0"),
            named(p, "c0", "c1", "a1", "b1", "c1"),
            named(p, "c0", "c1", "a1", "b1", "a0"),
        }
        assert level_words(cs, 3) == expected

    def test_level_4_exact(self):
        cs = self.chains()
        p = self.pres
        expected = {
            named(p, "a1", "b1", "c1", "a1", "b1", "c1", "a1"),
            named(p, "c1", "a1", "b1", "c1", "a1", "b1", "c1"),
            named(p, "c1", "a1", "b1", "c1", "a1", "b1", "a0"),
            named(p, "b1", "c1", "a1", "b1", "c1", "a1", "b1"),
            named(p, "c0", "c1", "a1", "b1", "c1", "a1", "b1"),
        }
        assert level_words(cs, 4) == expected

    def test_level_5_exact(self):
        cs = self.chains()
        p = self.pres
        expected = {
            named(p, "a1", "b1", "c1", "a1", "b1", "c1", "a1", "b1", "c1"),
            named(p, "c1", "a1", "b1", "c1", "a1", "b1", "c1", "a1", "b1"),
            named(p, "b1", "c1", "a1", "b1", "c1", "a1", "b1", "a0"),
            named(p, "b1", "c1", "a1", "b1", "c1", "a1", "b1", "c1", "a1"),
            named(p, "c0", "c1", "a1", "b1", "c1", "a1", "b1", "a0"),
            named(p, "c0", "c1", "a1", "b1", "c1", "a1", "b1", "c1"),
        }
        assert level_words(cs, 5) == expected

    def test_counts(self):
        cs = self.chains()
        totals = [len(cs.levels[n]) for n in range(1, 6)]
        assert totals == [6, 5, 6, 5, 6]

    def test_parents_are_chains(self):
        cs = self.chains()
        for n in range(1, 6):
            prev = level_words(cs, n - 1)
            for c in cs.levels[n]:
                assert c.parent.word in prev
                assert c.word == c.parent.word + c.tail
                assert c.tail


class TestB2Chains:
    """The printed level-2 list omits one word, c0c1c2: the 1-chain c0c1 has
    tail c1, and c1c2 interlocks with it.  Exactness of the resolution at
    degree 3 requires it (d1 kills c0c1 (x) c2, and only d2 of c0c1c2 (x) 1
    can hit that kernel element), so the enumeration keeps it and the counts
    below are 10, 10, 12, 11 rather than the printed 10, 9, 11, 9."""

    def setup_method(self):
        self.pres = make_bn(2)
        self.F = tuple(leading_words(self.pres, 12))

    def chains(self):
        return enumerate_chains(TailGraph(
            self.pres, antichain_matcher(self.pres, self.F)), 4, 12)

    def printed_level_2(self):
        p = self.pres
        return {
            named(p, "a2", "b2", "c2", "a2"),
            named(p, "c1", "a1", "b1", "a0"),
            named(p, "c1", "a1", "b1", "c1", "a1"),
            named(p, "c2", "a2", "b2", "c2"),
            named(p, "c2", "a2", "b2", "a1"),
            named(p, "b1", "c1", "a1", "b1"),
            named(p, "b2", "c2", "a2", "b2"),
            named(p, "c0", "c1", "a1", "b1"),
            named(p, "c1", "c2", "a2", "b2"),
        }

    def printed_level_3(self):
        p = self.pres
        return {
            named(p, "a2", "b2", "c2", "a2", "b2", "c2"),
            named(p, "c1", "a1", "b1", "c1", "a1", "b1"),
            named(p, "c2", "a2", "b2", "c2", "a2", "b2"),
            named(p, "b1", "c1", "a1", "b1", "a0"),
            named(p, "b1", "c1", "a1", "b1", "c1", "a1"),
            named(p, "b2", "c2", "a2", "b2", "c2", "a2"),
            named(p, "b2", "c2", "a2", "b2", "a1"),
            named(p, "c0", "c1", "a1", "b1", "a0"),
            named(p, "c0", "c1", "a1", "b1", "c1", "a1"),
            named(p, "c1", "c2", "a2", "b2", "a1"),
            named(p, "c1", "c2", "a2", "b2", "c2"),
        }

    def printed_level_4(self):
        p = self.pres
        return {
            named(p, "a2", "b2", "c2", "a2", "b2", "c2", "a2"),
            named(p, "c1", "a1", "b1", "c1", "a1", "b1", "a0"),
            named(p, "c1", "a1", "b1", "c1", "a1", "b1", "c1", "a1"),
            named(p, "c2", "a2", "b2", "c2", "a2", "b2", "a1"),
            named(p, "c2", "a2", "b2", "c2", "a2", "b2", "c2"),
            named(p, "b1", "c1", "a1", "b1", "c1", "a1", "b1"),
            named(p, "b2", "c2", "a2", "b2", "c2", "a2", "b2"),
            named(p, "c1", "c2", "a2", "b2", "c2", "a2", "b2"),
            named(p, "c0", "c1", "a1", "b1", "c1", "a1", "b1"),
        }

    def test_level_1(self):
        cs = self.chains()
        assert level_words(cs, 1) == set(self.F)
        assert len(self.F) == 10

    def test_level_2_contains_printed_list(self):
        cs = self.chains()
        words = level_words(cs, 2)
        assert self.printed_level_2() <= words
        extra = words - self.printed_level_2()
        assert extra == {named(self.pres, "c0", "c1", "c2")}

    def test_level_3_contains_printed_list(self):
        cs = self.chains()
        words = level_words(cs, 3)
        assert self.printed_level_3() <= words
        extra = words - self.printed_level_3()
        assert extra == {named(self.pres, "c0", "c1", "c2", "a2", "b2")}

    def test_level_4_contains_printed_list(self):
        cs = self.chains()
        words = level_words(cs, 4)
        assert self.printed_level_4() <= words
        extra = words - self.printed_level_4()
        assert extra == {
            named(self.pres, "c0", "c1", "c2", "a2", "b2", "a1"),
            named(self.pres, "c0", "c1", "c2", "a2", "b2", "c2"),
        }

    def test_counts(self):
        cs = self.chains()
        totals = [len(cs.levels[n]) for n in range(1, 5)]
        assert totals == [10, 10, 12, 11]

    def test_c0c1c2_is_a_chain(self):
        w = named(self.pres, "c0", "c1", "c2")
        ok, tails = is_chain(self.pres, w, self.F, 2)
        assert ok
        assert tails == (named(self.pres, "c0"), named(self.pres, "c1"),
                         named(self.pres, "c2"))


class TestChainSetShape:
    def test_level_minus_one_and_zero(self):
        cs = enumerate_chains(TailGraph(
            FREE_XY, antichain_matcher(FREE_XY, ((0, 0),))), 1, 4)
        assert [c.word for c in cs.levels[-1]] == [()]
        assert level_words(cs, 0) == {(0,), (1,)}
        counts = cs.counts()
        assert counts[-1] == {0: 1}
        assert counts[0] == {1: 2}

    def test_empty_obstructions(self):
        cs = enumerate_chains(TailGraph(FREE_XY, antichain_matcher(FREE_XY, ())), 3, 6)
        for n in range(1, 4):
            assert cs.levels[n] == ()

    def test_one_letter_tip_rejected(self):
        # a tip x has no rest, so it would leave x without chains; neither
        # the enumeration nor the chain-inverse series answers, at any bound
        for F in (((0,),), ((0,), (1, 1))):
            for max_level in (-1, 0, 3):
                with pytest.raises(OneLetterTipError, match="leading word x;"):
                    enumerate_chains(TailGraph(
                        FREE_XY, antichain_matcher(FREE_XY, F)), max_level, 6)
            with pytest.raises(OneLetterTipError, match="leading word x;"):
                hilbert_from_chains(FREE_XY, antichain_matcher(FREE_XY, F), 6)

    def test_enumeration_checks_its_bounds(self):
        graph = TailGraph(FREE_XY, antichain_matcher(FREE_XY, ((0, 0),)))
        with pytest.raises(AlgebraError, match="max_level must be at least -1"):
            enumerate_chains(graph, -2, 4)
        with pytest.raises(AlgebraError, match="max_degree must be nonnegative"):
            enumerate_chains(graph, 1, -1)

    def test_non_antichain_rejected(self):
        with pytest.raises(AlgebraError):
            enumerate_chains(TailGraph(
                FREE_XY, antichain_matcher(FREE_XY, ((0, 0), (0, 0, 1)))), 2, 6)

    def test_degree_bound_prunes(self):
        pres = FREE_XY.with_relations([parse_poly(FREE_XY, "x^2 + y^2")])
        F = tuple(leading_words(pres))
        cs = enumerate_chains(TailGraph(pres, antichain_matcher(pres, F)), 5, 4)
        assert level_words(cs, 3) == {(0, 0, 0, 0)}
        assert cs.levels[4] == ()

    def test_min_degree_strictly_increases(self):
        pres = make_bn(1)
        F = tuple(leading_words(pres, 12))
        cs = enumerate_chains(TailGraph(pres, antichain_matcher(pres, F)), 5, 12)
        mins = [min(pres.monomial_degree(c.word) for c in cs.levels[n])
                for n in range(-1, 6)]
        assert all(a < b for a, b in zip(mins, mins[1:]))


class TestDecompositionOracle:
    def test_enumeration_matches_search(self):
        pres = FREE_XY.with_relations([parse_poly(FREE_XY, "x^2 - x*y")])
        F = tuple(leading_words(pres, 8))
        cs = enumerate_chains(TailGraph(pres, antichain_matcher(pres, F)), 3, 7)
        for n in range(1, 4):
            enumerated = level_words(cs, n)
            for k in range(1, 8):
                for word in itertools.product((0, 1), repeat=k):
                    flag, tails = is_chain(pres, word, F, n)
                    assert flag == (word in enumerated)
                    if flag:
                        assert word == tuple(x for t in tails for x in t)

    def test_unique_decomposition(self):
        pres = make_bn(1)
        F = tuple(leading_words(pres, 12))
        cs = enumerate_chains(TailGraph(pres, antichain_matcher(pres, F)), 4, 12)
        for n in range(1, 5):
            for c in cs.levels[n]:
                decomps = chain_decompositions(pres, c.word, F, n)
                assert len(decomps) == 1


@st.composite
def weighted_antichains(draw):
    """A presentation on 2-3 generators, some of weight 2, with an antichain
    of up to 4 words of length 2-4, plus a level and a degree bound."""
    weights = draw(st.lists(st.sampled_from((1, 2)), min_size=2, max_size=3))
    names = "uvw"[:len(weights)]
    gens = " ".join(n if w == 1 else f"{n}:{w}" for n, w in zip(names, weights))
    pres = parse_presentation(
        f"algebra R ; kind noncommutative ; generators {gens} ;"
        f" order deglex {' > '.join(names)} ;")
    letters = st.integers(0, len(weights) - 1)
    drawn = draw(st.lists(st.lists(letters, min_size=2, max_size=4).map(tuple),
                          min_size=2, max_size=4))
    F = []
    for v in sorted(set(drawn), key=len):
        if not any(v[p:p + len(f)] == f for f in F for p in range(len(v))):
            F.append(v)
    return pres, tuple(F), draw(st.integers(2, 4)), draw(st.integers(4, 8))


def words_up_to_degree(pres, max_degree):
    out = [()]
    for w in out:
        for i in range(pres.ngens):
            if pres.monomial_degree(w) + pres.generator_degree(i) <= max_degree:
                out.append(w + (i,))
    return out


class TestEnumerationProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(weighted_antichains())
    @example((parse_presentation(
        "algebra R ; kind noncommutative ; generators u:2 v ; order deglex u > v ;"),
        ((0, 1, 0), (0, 0), (1, 1)), 4, 9))
    def test_matches_brute_force_search(self, case):
        """Every level equals the words that the recursive decomposition
        search accepts, each chain carries its word's degree, and each level
        is in descending term order."""
        pres, F, max_level, max_degree = case
        cs = enumerate_chains(TailGraph(
            pres, antichain_matcher(pres, F)), max_level, max_degree)
        words = words_up_to_degree(pres, max_degree)
        for n in range(-1, max_level + 1):
            chains = cs.levels[n]
            assert {c.word for c in chains} == {
                w for w in words if is_chain(pres, w, F, n)[0]}
            assert all(c.degree == pres.monomial_degree(c.word) for c in chains)
            keys = [pres.term_key(c.word) for c in chains]
            assert keys == sorted(keys, reverse=True)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(weighted_antichains())
    def test_levels_are_prefix_free(self, case):
        """No chain word is a proper prefix of another of its level, so a
        word has at most one (chain).(rest) factorization per level."""
        pres, F, max_level, max_degree = case
        cs = enumerate_chains(TailGraph(
            pres, antichain_matcher(pres, F)), max_level, max_degree)
        for chains in cs.levels.values():
            level = {c.word for c in chains}
            assert not any(c.word[:k] in level
                           for c in chains for k in range(len(c.word)))


def tally(cs):
    """Number of chains per (level, degree), counted from the words."""
    out = {}
    for n, chains in sorted(cs.levels.items()):
        row = out[n] = {}
        for c in chains:
            row[c.degree] = row.get(c.degree, 0) + 1
    return out


class TestCountProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(weighted_antichains())
    def test_signed_path_count_matches_enumeration(self, case):
        """The root row of the tail graph's path table with sign -1 is the
        alternating sum of the enumerated chains by degree, every level
        taken, the (-1)-chain included; ``ChainSet.counts`` is their tally."""
        pres, F, _, max_degree = case
        graph = TailGraph(pres, antichain_matcher(pres, F))
        cs = enumerate_chains(graph, max_degree, max_degree)
        counts = tally(cs)
        assert cs.counts() == counts
        chain_sum = [0] * (max_degree + 1)
        for n, row in counts.items():
            for d, k in row.items():
                chain_sum[d] += (-1) ** (n + 1) * k
        # one graph shared by both, walked by the enumeration first, and a
        # fresh graph counted before any enumeration
        assert _path_table(graph.follow, max_degree, -1)[()] == chain_sum
        fresh = TailGraph(pres, antichain_matcher(pres, F))
        assert _path_table(fresh.follow, max_degree, -1)[()] == chain_sum


def chain_words(cs):
    return {n: [(c.word, c.degree) for c in chains]
            for n, chains in cs.levels.items()}


class TestUnboundedGraph:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(weighted_antichains())
    def test_one_graph_serves_every_bound(self, case):
        """A tail graph holds no bounds: enumerated at (L, D), then at
        (L + 1, D + 2), then walked by its path table, it gives at each
        level n <= L the chains of degree <= D of the larger enumeration,
        and the levels and the root row of fresh graphs."""
        pres, F, max_level, max_degree = case
        graph = TailGraph(pres, antichain_matcher(pres, F))
        bounds = (max_level, max_degree), (max_level + 1, max_degree + 2)
        small, large = (enumerate_chains(graph, *b) for b in bounds)
        root = _path_table(graph.follow, max_degree + 2, -1)[()]
        for n in range(-1, max_level + 1):
            assert chain_words(small)[n] == [
                (c.word, c.degree) for c in large.levels[n]
                if c.degree <= max_degree]
        for cs, b in zip((small, large), bounds):
            fresh = TailGraph(pres, antichain_matcher(pres, F))
            assert chain_words(cs) == chain_words(enumerate_chains(fresh, *b))
        fresh = TailGraph(pres, antichain_matcher(pres, F))
        assert root == _path_table(fresh.follow, max_degree + 2, -1)[()]


def sample_tips(name, max_degree):
    """A presentation and the tips of its basis to max_degree: a sample file
    by name, or B_n as "B<n>"."""
    pres = (make_bn(int(name[1:])) if name.startswith("B") else
            parse_presentation((SAMPLES / f"{name}.alg").read_text()))
    return pres, nc_buchberger(pres, max_degree=max_degree).tips


class TestEdgeOracle:
    """The tail graph's edges, read off the tip automaton, against
    ``reference_follow``, which counts every tip in each r.t: the same
    edges out of every tail the graph reaches, listed sorted by rest."""

    def assert_edges_match(self, pres, tips, max_degree):
        graph = TailGraph(pres, tips)
        for r in _path_table(graph.follow, max_degree, -1):
            assert graph.follow(r) == sorted(reference_follow(pres, tips, r))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(weighted_antichains())
    def test_random_antichains(self, case):
        pres, F, _, max_degree = case
        self.assert_edges_match(pres, antichain_matcher(pres, F), max_degree)

    @pytest.mark.parametrize("name, max_degree", [
        ("x2xy", 16), ("xyzx", 15), ("B1", 12), ("B2", 12), ("B3", 12),
        ("B4", 12)])
    def test_bases(self, name, max_degree):
        self.assert_edges_match(*sample_tips(name, max_degree), max_degree)

    def test_edges_never_rescan(self, monkeypatch):
        """Neither the enumeration nor the chain-inverse series matches
        r.t against the tips: with ``hits`` refused they still give what
        they give with it."""
        pres, tips = sample_tips("x2xy", 12)
        words = chain_words(enumerate_chains(TailGraph(pres, tips), 12, 12))
        series = hilbert_from_chains(pres, tips, 12)

        def refuse(self, word):
            raise AssertionError("the tail graph rescanned a word")

        monkeypatch.setattr(WordMatcher, "hits", refuse)
        assert chain_words(enumerate_chains(
            TailGraph(pres, tips), 12, 12)) == words
        assert hilbert_from_chains(pres, tips, 12) == series


class TestChainTexts:
    """``cli._chain_texts`` joins a chain's text from its parent's and its
    tail's, or formats the word whole where their runs of one letter
    merge: on every chain of every level it prints ``format_monomial`` of
    the chain's word."""

    def test_matches_format_monomial(self):
        merged = []

        @settings(max_examples=80, deadline=None, derandomize=True)
        @given(st.one_of(graded_presentations(),
                         graded_presentations(names=("a0", "b0", "c0"))))
        @example(make_bn(2))
        def check(pres):
            gb = nc_buchberger(pres, max_degree=9)
            if any(len(w) == 1 for w in gb.tips.words):
                return
            cs = enumerate_chains(TailGraph(pres, gb.tips), 5, 9)
            assert _chain_texts(pres, cs.levels) == {
                n: [pres.format_monomial(c.word) for c in chains]
                for n, chains in cs.levels.items()}
            merged.append(any(c.parent.word[-1:] == c.tail[:1]
                              for n in range(1, 6) for c in cs.levels[n]))

        check()
        # the draws reach the merged runs, not only the joined texts
        assert any(merged)
