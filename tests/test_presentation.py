from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anick.algebra import (
    COMMUTATIVE,
    NONCOMMUTATIVE,
    DEGLEX,
    AlgebraError,
    Presentation,
)
from anick.presentation import (
    ParseError,
    _tokenize,
    make_bn,
    parse_poly,
    parse_presentation,
)
from oracles import free_product, reference_make_bn, serialize_presentation

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
        assert dict(f.terms)[p.word("x")] == Fraction(1)

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

    @pytest.mark.parametrize("digit", ["\u00b2", "\u00b3", "\u2460"])
    def test_non_decimal_digit_is_unexpected(self, digit):
        # str.isdigit holds for superscripts and circled digits, which
        # int() rejects; only decimal digits make an integer token
        with pytest.raises(ParseError) as info:
            parse_presentation(X2XY.replace("x^2", f"x^{digit}"))
        assert (info.value.line, info.value.col) == (6, 13)
        assert f"unexpected character {digit!r}" in str(info.value)
        with pytest.raises(ParseError) as info:
            parse_poly(parse_presentation(FREE_XY), f"y + x^{digit}")
        assert (info.value.line, info.value.col) == (1, 7)

    def test_decimal_digits_of_other_scripts_parse(self):
        p = parse_presentation(FREE_XY)
        assert parse_poly(p, "\u0663*x^\u0662") == parse_poly(p, "3*x^2")

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

    def test_lex_noncommutative_rejected_at_the_order(self):
        # lex does not well-order the free monoid: a parse error at the
        # lex token, not a bare AlgebraError from the presentation
        with pytest.raises(ParseError) as info:
            parse_presentation("algebra a; kind noncommutative; generators x y;"
                               " order lex x > y;")
        assert str(info.value) == ("line 1, column 55: lex does not "
                                   "well-order the free monoid; use deglex")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation(FREE_XY + "surprise")


@st.composite
def sums(draw, pres):
    """A sum of terms as text, with the polynomial it stands for built
    without the parser: each term is a sign and a product of integers,
    rationals p/q and generator powers, and the first term's sign may be
    written or left out."""
    names = [g.name for g in pres.generators]
    text, expected = [], {}
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(("+", "-", "") if k == 0 else ("+", "-")))
        coefficient, monomial, factors = 1, pres.one(), []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(("int", "rational", "power")))
            if kind == "power":
                x = draw(st.integers(0, len(names) - 1))
                e = draw(st.integers(1, 4))
                factors.append(names[x] if e == 1 and draw(st.booleans())
                               else f"{names[x]}^{e}")
                for _ in range(e):
                    monomial = pres.monomial_mul(monomial, pres.gen_monomial(x))
            else:
                num = draw(st.integers(0, 9))
                den = draw(st.integers(1, 9)) if kind == "rational" else 1
                factors.append(f"{num}/{den}" if kind == "rational" else str(num))
                coefficient *= Fraction(num, den)
        text.append(f"{sign} {'*'.join(factors)}" if sign else "*".join(factors))
        c = -coefficient if sign == "-" else coefficient
        expected[monomial] = expected.get(monomial, 0) + c
    return " ".join(text), pres.poly(expected)


@st.composite
def equations(draw):
    kind = draw(st.sampled_from((NONCOMMUTATIVE, COMMUTATIVE)))
    pres = parse_presentation(f"algebra E ; kind {kind} ; generators x y z ;"
                              " order deglex x > y > z ;")
    return pres, draw(sums(pres)), draw(sums(pres))


class TestEquations:
    """An equation L = R is the polynomial L - R, however many terms R has
    and whatever their signs."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(equations())
    def test_equation_is_difference(self, case):
        pres, (left, f), (right, g) = case
        assert parse_poly(pres, left) == f
        assert parse_poly(pres, right) == g
        assert parse_poly(pres, f"{left} = {right}") == pres.sub(
            parse_poly(pres, left), parse_poly(pres, right))
        assert parse_poly(pres, f"{left} = {right}") == pres.sub(f, g)

    def test_one_polynomial_built(self, monkeypatch):
        p = parse_presentation(FREE_XY)
        x50y = p.monomial_mul(p.gen_monomial(0, 50), p.gen_monomial(1))
        want = p.poly({x50y: 1, p.word("x"): Fraction(-3, 2),
                       p.word("y", "y"): -1})
        built = []
        poly = Presentation.poly
        monkeypatch.setattr(Presentation, "poly", lambda self, mapping: (
            built.append(mapping), poly(self, mapping))[1])
        assert parse_poly(p, "x^50*y - 1/2*x = y^2 + x") == want
        assert len(built) == 1

    def test_long_power(self):
        p = parse_presentation(FREE_XY)
        (term,) = parse_poly(p, "x^100000*y").terms
        assert term == ((0,) * 100000 + (1,), 1)

    def test_word_length_limit(self):
        # a noncommutative word has at most 10^6 letters, counted before a
        # power expands; commutative exponents are not limited
        p = parse_presentation(FREE_XY)
        (term,) = parse_poly(p, "x^999999*y").terms
        assert len(term[0]) == 10 ** 6
        with pytest.raises(ParseError) as info:
            parse_poly(p, "x^999999*y^2")
        assert str(info.value) == ("line 1, column 12: word of 1000001 "
                                   "letters is too long (at most 1000000)")
        with pytest.raises(ParseError, match="line 6, column 15: word of 100000000000 "):
            parse_presentation(FREE_XY + "relations x*y^99999999999 ;")
        comm = parse_presentation(
            "algebra c; kind commutative; generators x y; order deglex x > y;")
        (lead, _) = parse_poly(comm, "x^99999999999999999999 - y").terms
        assert lead == ((99999999999999999999, 0), 1)


# The format's characters and words, plus characters it must reject or
# read in other scripts: a superscript, a vulgar fraction, a circled digit
# (all str.isdigit or numeric, none decimal), an Arabic-Indic three, two
# letters outside ASCII, two line breaks that are not "\n", and an
# undecodable stdin byte as the surrogate escape decodes it.
SCANNER_TEXT = st.lists(st.sampled_from(
    list("xy09 \t\r\n#;:>+-*^/='_")
    + ["algebra", "kind", "noncommutative", "generators", "order", "deglex",
       "relations", "x'", "y_1", "# c\n"]
    + ["\u00b2", "\u00bd", "\u2460", "\u0663", "\u00e9", "\u01c5", "\x0b", "\x0c",
       b"\xff".decode("utf-8", "surrogateescape")]), max_size=30).map("".join)

HEADERS = ("", "algebra a; kind noncommutative; generators x y;",
           "algebra a; kind noncommutative; generators x y; order deglex x > y;"
           " relations ")


def _offset(text, line, col):
    """The index in text of a 1-based (line, column) position."""
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    return starts[line - 1] + col - 1


def _skippable(gap):
    """Whether gap is only blanks, newlines and comments."""
    return all(not part.partition("#")[0].strip(" \t\r")
               for part in gap.split("\n"))


class TestScanner:
    """Every position the scanner reports is the index of what it names."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(SCANNER_TEXT)
    def test_tokens_point_at_their_lexemes(self, text):
        try:
            tokens = _tokenize(text)
        except ParseError as err:
            ch = text[_offset(text, err.line, err.col)]
            assert str(err).endswith(f"unexpected character {ch!r}")
            return
        done = 0
        for tok in tokens[:-1]:
            at = _offset(text, tok.line, tok.col)
            assert at >= done and _skippable(text[done:at])
            if tok.kind == "int":
                done = at
                while done < len(text) and text[done].isdecimal():
                    done += 1
                assert int(text[at:done]) == tok.value
            else:
                done = at + len(tok.value)
                assert text[at:done] == tok.value
        assert _skippable(text[done:])
        # the end token: past the text, or at a last comment with no newline
        at = _offset(text, tokens[-1].line, tokens[-1].col)
        assert at >= done and (at == len(text) or text[at] == "#"
                               and "\n" not in text[at:])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(HEADERS), SCANNER_TEXT)
    def test_error_points_at_what_it_names(self, header, text):
        text = header + text
        try:
            parse_presentation(text)
        except ParseError as err:
            at = _offset(text, err.line, err.col)
            if "unexpected character" in str(err):
                assert str(err).endswith(f"unexpected character {text[at]!r}")
            else:
                assert at in [_offset(text, t.line, t.col)
                              for t in _tokenize(text)]

    def test_end_after_trailing_comment(self):
        # with no newline after the comment, end of input is reported at
        # the "#", not past the comment's last character
        with pytest.raises(ParseError) as info:
            parse_presentation(
                "algebra a; kind noncommutative; generators x y # gens")
        assert str(info.value) == "line 1, column 48: expected a generator name"

    def test_overlong_integer_literal(self):
        # past the interpreter's int-string limit (4300 digits by default)
        # a literal is a ParseError at its position, not a ValueError
        with pytest.raises(ParseError) as info:
            parse_presentation(FREE_XY + "relations x^" + "1" * 5000 + " ;")
        assert str(info.value) == \
            "line 6, column 13: integer literal of 5000 digits is too long"


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

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_generic_constructors(self, n):
        # built directly, term by term, and through word/poly/add: the same
        # presentation, the same terms in the same order, Fraction
        # coefficients included
        p, q = make_bn(n), reference_make_bn(n)
        assert p == q
        assert repr(p.relations) == repr(q.relations)


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
        assert c.term_key(c.word("y")) > c.term_key(c.word("x'"))
        # shifted relation keeps its shape: x'^2 - x'*y'
        rel = c.relations[1]
        assert c.format_poly(rel) == "x'^2 - x'*y'"

    def test_commutative_rejected(self):
        a = parse_presentation(FREE_XY)
        b = parse_presentation(
            "algebra P ; kind commutative ; generators x ; order deglex x ;")
        with pytest.raises(AlgebraError):
            free_product(a, b)
