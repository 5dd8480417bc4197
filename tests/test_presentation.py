from fractions import Fraction

import pytest

from anick.algebra import COMMUTATIVE, NONCOMMUTATIVE, DEGLEX, AlgebraError
from anick.presentation import (
    ParseError,
    free_product,
    make_bn,
    parse_poly,
    parse_presentation,
    serialize_presentation,
)

FREE_XY = """
algebra F ;
kind noncommutative ;
generators x y ;
order deglex x > y ;
"""

X2XY = """
algebra A ;
kind noncommutative ;
generators x y ;
order deglex x > y ;
relations x^2 - x*y ;
"""


class TestParsing:
    def test_free_algebra(self):
        p = parse_presentation(FREE_XY)
        assert p.name == "F"
        assert p.kind == NONCOMMUTATIVE
        assert [g.name for g in p.generators] == ["x", "y"]
        assert p.order == DEGLEX
        assert p.relations == ()

    def test_relation_polynomial(self):
        p = parse_presentation(X2XY)
        (rel,) = p.relations
        assert rel == p.poly({p.word("x", "x"): 1, p.word("x", "y"): -1})

    def test_comments_and_whitespace(self):
        p = parse_presentation(
            "algebra A ; # header\nkind commutative ;\n"
            "generators x y ; order deglex x>y ;\n"
            "relations # defining ideal\n x^2 ;")
        assert p.kind == COMMUTATIVE
        assert len(p.relations) == 1

    def test_weighted_generators(self):
        p = parse_presentation(
            "algebra W ; kind noncommutative ; generators u:2 v ;"
            " order deglex u > v ;")
        assert p.generators[0].degree == 2
        assert p.generators[1].degree == 1

    def test_equation_sugar(self):
        p = parse_presentation(FREE_XY)
        assert parse_poly(p, "x*y = y*x") == parse_poly(p, "x*y - y*x")

    def test_rational_coefficients(self):
        p = parse_presentation(FREE_XY)
        f = parse_poly(p, "1/2*x - 3*y + 2/4*x")
        assert f == p.poly({p.word("x"): 1, p.word("y"): -3})
        assert f.coefficient(p.word("x")) == Fraction(1)

    def test_powers_multiply_out(self):
        p = parse_presentation(FREE_XY)
        assert parse_poly(p, "x^3") == p.monomial_poly(p.word("x", "x", "x"))
        assert parse_poly(p, "x*x*x") == parse_poly(p, "x^3")

    def test_leading_minus(self):
        p = parse_presentation(FREE_XY)
        assert parse_poly(p, "-x + y") == p.poly({p.word("x"): -1, p.word("y"): 1})

    def test_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse_presentation("algebra A ;\nkind sideways ;")
        assert info.value.line == 2

    def test_unknown_generator_in_poly(self):
        p = parse_presentation(FREE_XY)
        with pytest.raises(ParseError):
            parse_poly(p, "x*z")

    def test_zero_relation_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation(FREE_XY + "relations x - x ;")

    def test_incomplete_order_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation(
                "algebra A ; kind noncommutative ; generators x y ;"
                " order deglex x ;")
        with pytest.raises(ParseError):
            parse_presentation(
                "algebra A ; kind noncommutative ; generators x ;"
                " order deglex x > x ;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation(FREE_XY + "surprise")


class TestRoundTrip:
    @pytest.mark.parametrize("text", [FREE_XY, X2XY])
    def test_reparse_equals(self, text):
        p = parse_presentation(text)
        assert parse_presentation(serialize_presentation(p)) == p

    def test_bn_round_trip(self):
        p = make_bn(2)
        assert parse_presentation(serialize_presentation(p)) == p

    def test_weighted_round_trip(self):
        p = parse_presentation(
            "algebra W ; kind commutative ; generators u:2 v:3 ;"
            " order lex v > u ; relations u^3 - v^2 ;")
        assert parse_presentation(serialize_presentation(p)) == p


class TestBnFamily:
    def test_b1_shape(self):
        p = make_bn(1)
        assert p.name == "B1"
        # generators are listed largest first: a1 > b1 > c1 > a0 > b0 > c0
        assert [g.name for g in p.generators] == ["a1", "b1", "c1", "a0", "b0", "c0"]
        assert len(p.relations) == 6

    def test_b1_relations(self):
        p = make_bn(1)
        expected = {
            p.format_poly(p.monomial_poly(p.word("a1", "b1", "c1"))),
            p.format_poly(p.monomial_poly(p.word("c0", "a0"))),
            p.format_poly(p.poly({p.word("a0", "b0", "c0"): 1,
                                  p.word("c1", "a1", "b1"): 1})),
            p.format_poly(p.monomial_poly(p.word("b1", "c1", "a1"))),
            p.format_poly(p.monomial_poly(p.word("c0", "c1"))),
            p.format_poly(p.monomial_poly(p.word("b1", "a0"))),
        }
        assert {p.format_poly(r) for r in p.relations} == expected

    def test_b2_counts(self):
        p = make_bn(2)
        assert p.ngens == 9
        assert len(p.relations) == 10
        p.require_graded()

    def test_all_relations_homogeneous(self):
        for n in (1, 2, 3):
            make_bn(n).require_graded()

    def test_bad_n(self):
        with pytest.raises(AlgebraError):
            make_bn(0)


class TestFreeProduct:
    def test_disjoint_names(self):
        a = parse_presentation(X2XY)
        b = parse_presentation(
            "algebra B ; kind noncommutative ; generators u v ;"
            " order deglex u > v ; relations u*v ;")
        c = free_product(a, b)
        assert c.name == "A_star_B"
        assert [g.name for g in c.generators] == ["x", "y", "u", "v"]
        assert len(c.relations) == 2
        # second relation lives on the shifted letters
        rel = c.relations[1]
        assert rel == c.monomial_poly(c.word("u", "v"))

    def test_name_collision_gets_prime(self):
        a = parse_presentation(FREE_XY)
        c = free_product(a, a)
        assert [g.name for g in c.generators] == ["x", "y", "x'", "y'"]

    def test_precedence_blocks(self):
        a = parse_presentation(X2XY)
        c = free_product(a, a)
        assert [g.name for g in c.generators] == ["x", "y", "x'", "y'"]
        assert c.compare(c.word("y"), c.word("x'")) == 1
        # shifted relation keeps its shape: x'^2 - x'*y'
        rel = c.relations[1]
        assert c.format_poly(rel) == "x'^2 - x'*y'"

    def test_commutative_rejected(self):
        a = parse_presentation(FREE_XY)
        b = parse_presentation(
            "algebra P ; kind commutative ; generators x ; order deglex x ;")
        with pytest.raises(AlgebraError):
            free_product(a, b)
