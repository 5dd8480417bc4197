from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anick.algebra import (
    COMMUTATIVE,
    NONCOMMUTATIVE,
    DEGLEX,
    LEX,
    AlgebraError,
    Generator,
    Polynomial,
    Presentation,
)
from oracles import reference_format_monomial, reference_format_poly


def free_xy(names=("x", "y")):
    """Free algebra on x and y, generators listed largest first."""
    return Presentation(
        "F", NONCOMMUTATIVE,
        [Generator(nm) for nm in names], DEGLEX)


def comm_xy(kind=DEGLEX, names=("x", "y")):
    return Presentation(
        "P", COMMUTATIVE,
        [Generator(nm) for nm in names], kind)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(AlgebraError):
            Presentation("A", NONCOMMUTATIVE,
                         [Generator("x"), Generator("x")], DEGLEX)

    def test_zero_degree_rejected(self):
        with pytest.raises(AlgebraError):
            Presentation("A", NONCOMMUTATIVE, [Generator("x", 0)], DEGLEX)

    def test_lex_noncommutative_rejected(self):
        with pytest.raises(AlgebraError):
            Presentation("A", NONCOMMUTATIVE,
                         [Generator("x"), Generator("y")], LEX)

    def test_zero_relation_rejected(self):
        p = free_xy()
        with pytest.raises(AlgebraError):
            p.with_relations([p.zero()])


class TestDeglexWords:
    def test_degree_dominates(self):
        p = free_xy()
        x3 = p.word("x", "x", "x")
        y2 = p.word("y", "y")
        assert p.term_key(x3) > p.term_key(y2)

    def test_tie_broken_left_to_right(self):
        # with x > y: x^3 > x*y^2 ; listing y first flips the comparison
        p = free_xy(("x", "y"))
        x3 = p.word("x", "x", "x")
        xy2 = p.word("x", "y", "y")
        assert p.term_key(x3) > p.term_key(xy2)
        q = free_xy(("y", "x"))
        assert [g.name for g in q.generators] == ["y", "x"]
        assert q.term_key(q.word("x", "x", "x")) < q.term_key(q.word("x", "y", "y"))

    def test_prefix_is_smaller(self):
        p = free_xy()
        assert p.term_key(p.word("x")) < p.term_key(p.word("x", "x"))

    def test_weighted_degrees(self):
        p = Presentation(
            "W", NONCOMMUTATIVE,
            [Generator("x", 3), Generator("y", 1)], DEGLEX)
        assert p.monomial_degree(p.word("x", "y")) == 4
        assert p.term_key(p.word("x")) > p.term_key(p.word("y", "y"))

    @pytest.mark.parametrize("weights", [(1, 2, 3), (1, 1, 1)])
    def test_word_degree_is_the_weight_sum(self, weights):
        # unit weights take the length shortcut; others sum the weights
        p = Presentation(
            "W", NONCOMMUTATIVE,
            [Generator(nm, w) for nm, w in zip("xyz", weights)], DEGLEX)
        for word in [(), (0,), (2,), (1, 2), (2, 0, 1, 1), (0, 0, 2, 1, 2)]:
            generic = sum(weights[i] for i in word)
            assert p.monomial_degree(word) == generic
            assert p.heap_key(word) == (-generic, word)


class TestCommutativeOrders:
    def test_deglex_exponents(self):
        p = comm_xy()
        assert p.term_key(p.word("x", "x")) > p.term_key(p.word("x", "y"))
        assert p.term_key(p.word("x", "y")) > p.term_key(p.word("y", "y"))
        assert p.term_key(p.word("x")) < p.term_key(p.word("y", "y"))

    def test_lex_ignores_degree(self):
        p = comm_xy(kind=LEX)
        assert p.term_key(p.word("x")) > p.term_key(p.word("y", "y"))

    def test_monomial_mul_adds_exponents(self):
        p = comm_xy()
        assert p.monomial_mul((2, 1), (0, 3)) == (2, 4)


@pytest.mark.parametrize("pres", [free_xy(), comm_xy()])
def test_gen_monomial_power(pres):
    assert pres.gen_monomial(1) == pres.word("y")
    assert pres.gen_monomial(1, 3) == pres.word("y", "y", "y")
    assert pres.gen_monomial(0, 1) == pres.word("x")


class TestPolynomialArithmetic:
    def test_exact_fractions(self):
        p = free_xy()
        f = p.poly({p.word("x"): Fraction(1, 3)})
        g = p.poly({p.word("x"): Fraction(1, 6)})
        assert p.add(f, g) == p.poly({p.word("x"): Fraction(1, 2)})

    def test_cancellation_gives_zero(self):
        p = free_xy()
        f = p.poly({p.word("x", "y"): 2})
        assert not p.sub(f, f)
        assert p.sub(f, f) == p.zero()

    def test_noncommutative_product_order(self):
        p = free_xy()
        x = p.monomial_poly(p.word("x"))
        y = p.monomial_poly(p.word("y"))
        assert p.mul(x, y) != p.mul(y, x)
        assert p.mul(x, y) == p.monomial_poly(p.word("x", "y"))

    def test_commutative_product(self):
        p = comm_xy()
        x = p.monomial_poly(p.word("x"))
        y = p.monomial_poly(p.word("y"))
        assert p.mul(x, y) == p.mul(y, x)

    def test_product_collects_cross_terms(self):
        # (x + y)^2 over commuting variables has the middle coefficient 2
        p = comm_xy()
        s = p.add(p.monomial_poly(p.word("x")), p.monomial_poly(p.word("y")))
        sq = p.mul(s, s)
        assert dict(sq.terms)[p.word("x", "y")] == 2

    def test_leading_term_tracks_order(self):
        p = free_xy()
        f = p.poly({p.word("x", "x", "x"): 1, p.word("x", "y", "y"): -1})
        assert f.leading == (p.word("x", "x", "x"), Fraction(1))
        q = free_xy(("y", "x"))
        g = q.poly({q.word("x", "x", "x"): 1, q.word("x", "y", "y"): -1})
        assert g.leading == (q.word("x", "y", "y"), Fraction(-1))

    def test_leading_of_zero_raises(self):
        p = free_xy()
        with pytest.raises(AlgebraError):
            p.zero().leading

    def test_poly_degree(self):
        p = free_xy()
        assert p.poly_degree(p.zero()) == -1
        assert p.poly_degree(p.poly({p.one(): 5})) == 0
        assert p.poly_degree(p.monomial_poly(p.word("x", "y"))) == 2

    def test_homogeneity(self):
        p = free_xy()
        hom = p.poly({p.word("x", "x"): 1, p.word("y", "y"): 1})
        mixed = p.add(hom, p.monomial_poly(p.word("x")))
        assert p.is_homogeneous(hom)
        assert not p.is_homogeneous(mixed)
        with pytest.raises(AlgebraError):
            p.with_relations([mixed]).require_graded()


class TestFormatting:
    def test_unit(self):
        p = free_xy()
        assert p.format_monomial(p.one()) == "1"
        assert p.format_poly(p.poly({p.one(): Fraction(-3, 2)})) == "-3/2"

    def test_runs_collapse_to_powers(self):
        p = free_xy()
        assert p.format_monomial(p.word("x", "y", "y", "x")) == "x*y^2*x"

    def test_commutative_follows_precedence(self):
        p = comm_xy(names=("y", "x"))
        assert [g.name for g in p.generators] == ["y", "x"]
        assert p.format_monomial(p.word("x", "x", "y")) == "y*x^2"

    def test_signs_and_coefficients(self):
        p = free_xy()
        f = p.poly({p.word("x", "x"): 1, p.word("x", "y"): Fraction(-1, 2)})
        assert p.format_poly(f) == "x^2 - 1/2*x*y"
        assert p.format_poly(p.scale(-1, f)) == "-x^2 + 1/2*x*y"

    def test_int_and_integral_fraction_print_alike(self):
        # gb prints a basis's int rules, not their Fraction view
        p = free_xy()
        terms = ((p.word("x", "x"), 3), (p.word("x", "y"), -1),
                 (p.word("y"), 1), (p.one(), -2))
        as_fractions = Polynomial(tuple((m, Fraction(c)) for m, c in terms))
        assert (p.format_poly(Polynomial(terms))
                == p.format_poly(as_fractions) == "3*x^2 - x*y + y - 2")


@st.composite
def formatting_cases(draw):
    """A presentation of 1-3 weighted generators, free or commutative, and
    the polynomials to format over it, each listed twice in a shuffled
    order: terms on random words or exponent vectors and on the unit, the
    unit and zero polynomials, and coefficients +-1, other ints and
    Fractions, as ints and as Fractions."""
    names = draw(st.lists(st.sampled_from(["x", "y", "z", "a1", "bb"]),
                          min_size=1, max_size=3, unique=True))
    gens = [Generator(nm, draw(st.integers(1, 3))) for nm in names]
    if draw(st.booleans()):
        pres = Presentation("P", COMMUTATIVE, gens,
                            draw(st.sampled_from([DEGLEX, LEX])))
        monomial = st.tuples(*[st.integers(0, 3)] * len(gens))
    else:
        pres = Presentation("F", NONCOMMUTATIVE, gens, DEGLEX)
        monomial = st.lists(st.integers(0, len(gens) - 1),
                            max_size=7).map(tuple)
    coefficient = st.one_of(
        st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
        st.integers(-30, 30).filter(bool),
        st.fractions(-5, 5, max_denominator=9).filter(bool))
    poly = st.dictionaries(monomial, coefficient, max_size=4).map(
        lambda terms: Polynomial(tuple(sorted(
            terms.items(), key=lambda mc: pres.term_key(mc[0]),
            reverse=True))))
    inputs = draw(st.lists(poly, max_size=8))
    inputs += [Polynomial(((pres.one(), 1),)), Polynomial(())]
    return pres, draw(st.permutations(inputs + inputs))


class TestMemoizedFormatting:
    """``format_poly`` against the reference formatter, on inputs that each
    come twice, interleaved with others.  ``format_poly`` keeps no memo
    (``anick`` memoizes its matrix entries itself), so a repeat prints what
    the first call printed."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(formatting_cases())
    def test_matches_reference(self, case):
        pres, inputs = case
        for f in inputs:
            assert pres.format_poly(f) == reference_format_poly(pres, f)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(formatting_cases())
    def test_monomials_match_run_length_reference(self, case):
        pres, inputs = case
        for f in inputs:
            for m, _ in f.terms:
                assert pres.format_monomial(m) == \
                    reference_format_monomial(pres, m)
