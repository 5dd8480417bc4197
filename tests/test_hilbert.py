from fractions import Fraction

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anick.algebra import AlgebraError, BoundError
from anick.chains import OneLetterTipError
from anick.commutative import comm_buchberger, comm_reduce_basis
from anick.hilbert import (
    free_product_series,
    hilbert_from_chains,
    hilbert_from_normal_words,
    rational_form,
    series,
    series_add,
    series_inverse,
    series_mul,
    series_one,
    series_sub,
)
from anick.noncommutative import NcGB, nc_buchberger
from anick.presentation import free_product, make_bn, parse_poly, parse_presentation
from oracles import generator_product_series


def geometric(ratio, d):
    return series(ratio ** n for n in range(d + 1))


def pres_nc(body):
    return parse_presentation("algebra T ; kind noncommutative ; " + body)


class TestSeriesArithmetic:
    def test_inverse_of_one_minus_3t(self):
        s = series([1, -3] + [0] * 7)
        assert series_inverse(s) == geometric(3, 8)

    def test_inverse_of_square(self):
        one_minus_t = series([1, -1] + [0] * 6)
        sq = series_mul(one_minus_t, one_minus_t)
        assert series_inverse(sq) == series(range(1, 9))

    def test_mul_inverse_is_one(self):
        s = series([1, 2, Fraction(1, 3), -5, 0, 7])
        assert series_mul(s, series_inverse(s)) == series_one(5)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(AlgebraError):
            series_inverse(series([0, 1, 2]))

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            series_add(series([1, 2]), series([1, 2, 3]))

    def test_ring_laws(self):
        a = series([1, 2, 3, 4])
        b = series([0, 1, 0, -1])
        c = series([2, 0, 1, 5])
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
        assert series_mul(a, series_add(b, c)) == series_add(
            series_mul(a, b), series_mul(a, c))


class TestNormalWordSeries:
    def test_free_on_three(self):
        p = pres_nc("generators x y z ; order deglex x > y > z ;")
        gb = NcGB(p, (), 4)
        assert hilbert_from_normal_words(gb, 4) == geometric(3, 4)

    def test_square_sum_quotient(self):
        p = pres_nc("generators x y ; order deglex x > y ; relations x^2 + y^2 ;")
        gb = nc_buchberger(p, max_degree=8)
        assert hilbert_from_normal_words(gb, 8) == series(range(1, 10))

    def test_commutative_two_variables(self):
        p = parse_presentation(
            "algebra P ; kind commutative ; generators x y ;"
            " order deglex x > y ;")
        gb = comm_reduce_basis(comm_buchberger(p, []))
        assert hilbert_from_normal_words(gb, 5) == series(range(1, 7))

    def test_certificate_enforced(self):
        p = pres_nc("generators x y ; order deglex x > y ; relations x^2 - x*y ;")
        gb = nc_buchberger(p, max_degree=6)
        with pytest.raises(BoundError):
            hilbert_from_normal_words(gb, 7)


class TestChainSeries:
    def test_square_sum_agreement(self):
        p = pres_nc("generators x y ; order deglex x > y ; relations x^2 + y^2 ;")
        gb = nc_buchberger(p, max_degree=8)
        F = [f.leading[0] for f in gb.basis]
        assert hilbert_from_chains(p, F, 8) == hilbert_from_normal_words(gb, 8)

    def test_free_algebra(self):
        p = pres_nc("generators x y ; order deglex x > y ;")
        assert hilbert_from_chains(p, (), 6) == geometric(2, 6)

    def test_truncated_single_generator(self):
        p = pres_nc("generators x ; order deglex x ; relations x^3 ;")
        gb = nc_buchberger(p, max_degree=8)
        got = hilbert_from_chains(p, [f.leading[0] for f in gb.basis], 6)
        assert got == series([1, 1, 1, 0, 0, 0, 0])

    def test_bn_agreement(self):
        p = make_bn(1)
        gb = nc_buchberger(p, max_degree=8)
        F = [f.leading[0] for f in gb.basis]
        assert hilbert_from_chains(p, F, 8) == hilbert_from_normal_words(gb, 8)


class TestFreeProductSeries:
    def test_two_free_lines(self):
        line = series_inverse(series([1, -1] + [0] * 6))
        assert free_product_series(line, line) == geometric(2, 7)

    def test_two_dual_numbers(self):
        dual = series([1, 1] + [0] * 10)
        got = free_product_series(dual, dual)
        assert got == series([1] + [2] * 11)

    def test_unit_factor(self):
        a = geometric(2, 6)
        k = series_one(6)
        assert free_product_series(a, k) == a

    def test_against_normal_words(self):
        left = pres_nc("generators x ; order deglex x ; relations x^2 ;")
        right = parse_presentation(
            "algebra U ; kind noncommutative ; generators y ;"
            " order deglex y ; relations y^2 ;")
        prod = free_product(left, right)
        gb = nc_buchberger(prod, max_degree=12)
        direct = hilbert_from_normal_words(gb, 12)
        ha = hilbert_from_normal_words(nc_buchberger(left, max_degree=12), 12)
        hb = hilbert_from_normal_words(nc_buchberger(right, max_degree=12), 12)
        assert free_product_series(ha, hb) == direct

    def test_bad_constant_term(self):
        with pytest.raises(AlgebraError):
            free_product_series(series([2, 0]), series([1, 0]))


class TestGeneratorProduct:
    def test_polynomial_ring(self):
        got = generator_product_series([1, 1, 1], 5)
        # dims of K[x,y,z]: binomial(n+2, 2)
        assert got == series([1, 3, 6, 10, 15, 21])

    def test_exterior(self):
        got = generator_product_series([1] * 4, 5, exterior=True)
        assert got == series([1, 4, 6, 4, 1, 0])

    def test_single_weighted_generator(self):
        got = generator_product_series([3], 9)
        assert got == series([1, 0, 0, 1, 0, 0, 1, 0, 0, 1])

    def test_matches_commutative_counts(self):
        p = parse_presentation(
            "algebra P ; kind commutative ; generators x y ;"
            " order deglex x > y ;")
        gb = comm_reduce_basis(comm_buchberger(p, []))
        assert generator_product_series([1, 1], 6) == \
            hilbert_from_normal_words(gb, 6)


class TestRationalForm:
    def test_geometric(self):
        got = rational_form(geometric(3, 8))
        assert got == ((Fraction(1),), (Fraction(1), Fraction(-3)))

    def test_polynomial_series(self):
        s = series([1, 1, 1, 0, 0, 0, 0])
        p, q = rational_form(s)
        assert q == (Fraction(1),)
        assert p == (Fraction(1), Fraction(1), Fraction(1))

    def test_square_denominator(self):
        s = series(range(1, 11))
        p, q = rational_form(s)
        assert p == (Fraction(1),)
        assert q == (Fraction(1), Fraction(-2), Fraction(1))

    def test_reconstruction(self):
        s = hilbert_from_normal_words(
            nc_buchberger(make_bn(1), max_degree=8), 8)
        form = rational_form(s)
        assert form is not None
        p, q = form
        full_p = p + (Fraction(0),) * (len(s) - len(p))
        full_q = q + (Fraction(0),) * (len(s) - len(q))
        assert series_mul(full_q, s) == full_p


@st.composite
def constructed_rational_series(draw):
    """The expansion of p/q for random integer p and q with q[0] = 1."""
    n = draw(st.integers(6, 14))
    p = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    q = [1] + draw(st.lists(st.integers(-3, 3), max_size=3))
    pad = [0] * n

    def truncated(c):
        return series((c + pad)[:n])

    return series_mul(truncated(p), series_inverse(truncated(q)))


class TestRationalFormProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(
        st.lists(st.integers(-4, 4), min_size=1, max_size=12).map(series),
        constructed_rational_series()))
    def test_top_coefficients_nonzero(self, s):
        # dp = d, dq = 0 always fits, so a form is always found
        p, q = rational_form(s)
        assert q[0] == 1
        assert len(p) == 1 or p[-1]
        assert len(q) == 1 or q[-1]
        pad = (Fraction(0),) * len(s)
        assert series_mul((q + pad)[:len(s)], s) == (p + pad)[:len(s)]


@st.composite
def graded_presentations(draw, names="uvw"):
    """A graded noncommutative presentation on 2-3 generators of weight 1
    or 2, with 1-2 homogeneous relations of degree 2-3, each a sum of 1-3
    words with small integer coefficients."""
    weights = draw(st.lists(st.sampled_from((1, 2)), min_size=2, max_size=3))
    names = names[:len(weights)]
    gens = " ".join(n if w == 1 else f"{n}:{w}" for n, w in zip(names, weights))
    pres = parse_presentation(
        f"algebra {names} ; kind noncommutative ; generators {gens} ;"
        f" order deglex {' > '.join(names)} ;")
    words = {d: [w for k in range(1, d + 1)
                 for w in itertools.product(range(pres.ngens), repeat=k)
                 if pres.monomial_degree(w) == d] for d in (2, 3)}
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        # degree 2 always has words: two letters of weight 1, or one of 2
        d = draw(st.sampled_from([d for d in (2, 3) if words[d]]))
        terms = draw(st.lists(st.sampled_from(words[d]), min_size=1,
                              max_size=3, unique=True))
        coeffs = draw(st.lists(st.sampled_from((-2, -1, 1, 2)),
                               min_size=len(terms), max_size=len(terms)))
        relations.append(pres.poly(dict(zip(terms, coeffs))))
    return pres.with_relations(relations)


class TestSeriesProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graded_presentations())
    @example(pres_nc("generators x:2 y:2 ; order deglex x > y ;"
                     " relations 2*x - y ;"))
    def test_chain_inverse_matches_normal_words(self, pres):
        """The two routes agree to degree 7 when every tip has length at
        least 2; a one-letter tip makes the chain route refuse."""
        gb = nc_buchberger(pres, max_degree=7)
        tips = [f.leading[0] for f in gb.basis]
        if all(len(t) >= 2 for t in tips):
            assert hilbert_from_chains(pres, tips, 7) == \
                hilbert_from_normal_words(gb, 7)
        else:
            with pytest.raises(OneLetterTipError):
                hilbert_from_chains(pres, tips, 7)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graded_presentations(), graded_presentations(names="xyz"))
    def test_free_product_matches_normal_words(self, p, q):
        """1/H = 1/H_p + 1/H_q - 1 against counting normal words of the
        free product itself."""
        hp, hq = (hilbert_from_normal_words(nc_buchberger(a, max_degree=7), 7)
                  for a in (p, q))
        pq = nc_buchberger(free_product(p, q), max_degree=7)
        assert free_product_series(hp, hq) == hilbert_from_normal_words(pq, 7)
