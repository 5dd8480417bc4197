from fractions import Fraction

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anick.algebra import AlgebraError, BoundError
from anick.chains import OneLetterTipError
from anick.commutative import comm_buchberger, comm_reduce_basis
from anick.hilbert import (
    _least_numerator_degree,
    hilbert_from_chains,
    hilbert_from_normal_words,
    rational_form,
    series,
    series_inverse,
)
from anick.noncommutative import NcGB, antichain_matcher, nc_buchberger
from anick.presentation import make_bn, parse_poly, parse_presentation
from oracles import (
    free_product,
    free_product_series,
    generator_product_series,
    reference_series_inverse,
    search_rational_form,
    series_add,
    series_mul,
    series_one,
)


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


class TestSeriesInverse:
    """series_inverse against the Fraction recurrence: ints on integral
    series with a unit constant term, Fractions on any other."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from((1, -1)),
           st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=20),
           st.booleans())
    def test_integral_unit_constant_term(self, unit, rest, as_fractions):
        a = (unit, *rest)
        if as_fractions:
            a = series(a)
        got = series_inverse(a)
        assert got == reference_series_inverse(a)
        assert all(type(c) is Fraction for c in got)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(
        st.tuples(st.sampled_from((2, -3, Fraction(1, 2))),
                  st.lists(st.integers(-9, 9), max_size=12)),
        st.tuples(st.sampled_from((1, -1)),
                  st.lists(st.fractions(-3, 3, max_denominator=5), min_size=1,
                           max_size=12).filter(
                      lambda xs: any(x.denominator > 1 for x in xs)))))
    def test_other_series_match_the_fraction_recurrence(self, head_rest):
        # read as ints, these would give a wrong inverse
        head, rest = head_rest
        a = series((head, *rest))
        got = series_inverse(a)
        assert got == reference_series_inverse(a)
        assert all(type(c) is Fraction for c in got)

    def test_int_input(self):
        got = series_inverse((2, 1, 0)), series_inverse((-1, 1, 1))
        assert got == (series([Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]),
                       series([-1, -1, -2]))
        assert all(type(c) is Fraction for s in got for c in s)


class TestFractionBoundary:
    """The public series functions return Fractions, whatever arithmetic
    they ran in."""

    def test_pipelines_return_fractions(self):
        p = make_bn(1)
        gb = nc_buchberger(p, max_degree=8)
        h = hilbert_from_normal_words(gb, 8)
        results = [h, hilbert_from_chains(
                       p, antichain_matcher(p, [f.leading[0] for f in gb.basis]),
                       8),
                   series_inverse(h), free_product_series(h, h),
                   *rational_form(h)]
        for s in results:
            assert s and all(type(c) is Fraction for c in s)


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
        gb = comm_reduce_basis(comm_buchberger(p))
        assert hilbert_from_normal_words(gb, 5) == series(range(1, 7))

    def test_certificate_enforced(self):
        p = pres_nc("generators x y ; order deglex x > y ; relations x^2 - x*y ;")
        gb = nc_buchberger(p, max_degree=6)
        with pytest.raises(BoundError):
            hilbert_from_normal_words(gb, 7)


class TestNegativeDegree:
    """Both noncommutative routes read one path table, which refuses a
    negative degree."""

    @pytest.mark.parametrize("degree", [-1, -3])
    def test_both_routes_reject(self, degree):
        p = pres_nc("generators x y ; order deglex x > y ; relations x^2 - x*y ;")
        gb = nc_buchberger(p, max_degree=6)
        with pytest.raises(AlgebraError, match="max_degree must be nonnegative"):
            hilbert_from_normal_words(gb, degree)
        with pytest.raises(AlgebraError, match="max_degree must be nonnegative"):
            hilbert_from_chains(p, gb.tips, degree)

    @pytest.mark.parametrize("degree", [-1, -3])
    def test_commutative_route_rejects(self, degree):
        # the commutative walk refuses it with the path table's message
        p = parse_presentation(
            "algebra comm1 ; kind commutative ; generators x1 x2 ;"
            " order deglex x1 > x2 ; relations x1^2 + x2^2 ; x1^3 + x2^3 ;")
        gb = comm_buchberger(p)
        with pytest.raises(AlgebraError, match="max_degree must be nonnegative"):
            hilbert_from_normal_words(gb, degree)


class TestChainSeries:
    def test_square_sum_agreement(self):
        p = pres_nc("generators x y ; order deglex x > y ; relations x^2 + y^2 ;")
        gb = nc_buchberger(p, max_degree=8)
        F = [f.leading[0] for f in gb.basis]
        assert hilbert_from_chains(
            p, antichain_matcher(p, F), 8) == hilbert_from_normal_words(gb, 8)

    def test_free_algebra(self):
        p = pres_nc("generators x y ; order deglex x > y ;")
        assert hilbert_from_chains(p, antichain_matcher(p, ()), 6) == geometric(2, 6)

    def test_truncated_single_generator(self):
        p = pres_nc("generators x ; order deglex x ; relations x^3 ;")
        gb = nc_buchberger(p, max_degree=8)
        got = hilbert_from_chains(
            p, antichain_matcher(p, [f.leading[0] for f in gb.basis]), 6)
        assert got == series([1, 1, 1, 0, 0, 0, 0])

    def test_bn_agreement(self):
        p = make_bn(1)
        gb = nc_buchberger(p, max_degree=8)
        F = [f.leading[0] for f in gb.basis]
        assert hilbert_from_chains(
            p, antichain_matcher(p, F), 8) == hilbert_from_normal_words(gb, 8)


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
        gb = comm_reduce_basis(comm_buchberger(p))
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
    """The expansion of p/q with q[0] = 1 and deg q up to 7, one past
    rational_form's default max_den_degree; coefficients are all integers
    or all fractions."""
    coefficient = draw(st.sampled_from(
        (st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))))
    p = draw(st.lists(coefficient, min_size=1, max_size=5))
    q = [1] + draw(st.lists(coefficient, max_size=7))
    # long enough to pin p/q down, or up to 8 terms shorter
    n = max(1, len(p) + 2 * len(q) + draw(st.integers(-8, 4)))
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


def assert_full_rank(s, p, q):
    """The winning pair's echelon, as rational_form back-substitutes on it,
    has a pivot in each of the dq unknowns' columns: the free-variable
    case that the rational_form docstring proves cannot occur."""
    dp, dq = len(p) - 1, len(q) - 1
    scale = math.lcm(*(x.denominator for x in s))
    m, pivots = _least_numerator_degree(
        [x.numerator * (scale // x.denominator) for x in s], dq)
    assert m == dp
    assert sorted(pivots) == list(range(dq))


class TestRationalFormOracle:
    """rational_form against the search that solves every (dp, dq) pair."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(
        st.lists(st.integers(-5, 5), max_size=16).map(series),
        # zero-heavy: singular systems and vanishing tails
        st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 2)),
                 max_size=16).map(series),
        st.lists(st.fractions(-3, 3, max_denominator=6),
                 max_size=12).map(series),
        constructed_rational_series(), constructed_rational_series()),
        st.integers(0, 6))
    def test_matches_search(self, s, max_den_degree):
        form = rational_form(s, max_den_degree)
        assert form == search_rational_form(s, max_den_degree)
        if form is not None:
            assert_full_rank(s, *form)

    @pytest.mark.parametrize("s", [
        (), (7,), (0,) * 9, tuple(range(1, 34)), (0, 0, 3, 0, 0, 0, 1),
        (1, 3, 9, 27, 81, 243, 729, 2188),
        tuple(Fraction(1, 2 ** n) for n in range(9)),
        # its numerators alone fit a different pair
        series_mul(series([1, Fraction(1, 3)] + [0] * 10),
                   series_inverse(series([1, Fraction(-1, 2), Fraction(1, 5)]
                                         + [0] * 9)))])
    def test_explicit_cases(self, s):
        s = series(s)
        assert rational_form(s) == search_rational_form(s)

    @pytest.mark.parametrize("s", [
        # a lower pair fits all but the last coefficient
        (1, 2, 4, 8, 16, 33), (1, 1, 2, 3, 5, 8, 13, 21, 35),
        (1, 0, 1, 0, 1, 0, 2), (0, 1, 0, 1, 0, 1, 0, 1, 1),
        (2, 1, 1, 1, 1, 1, 1, 1, Fraction(3, 2))])
    def test_winning_system_has_full_rank(self, s):
        s = series(s)
        form = rational_form(s)
        assert form == search_rational_form(s)
        assert_full_rank(s, *form)

    def test_full_rank_on_every_short_series(self):
        """Every series of up to 6 coefficients in -1..2: the echelon of
        the winning pair has a pivot in every unknown's column."""
        for n in range(1, 7):
            for s in itertools.product((-1, 0, 1, 2), repeat=n):
                s = series(s)
                assert_full_rank(s, *rational_form(s))

    def test_empty_and_short(self):
        assert rational_form(()) is None
        assert rational_form(series([7])) == ((Fraction(7),), (Fraction(1),))
        assert rational_form(series([0] * 9)) == \
            ((Fraction(0),), (Fraction(1),))
        assert rational_form(series(range(1, 34))) == \
            ((Fraction(1),), (Fraction(1), Fraction(-2), Fraction(1)))


@st.composite
def graded_presentations(draw, names="uvw"):
    """A graded noncommutative presentation on 2-3 generators of weight 1
    or 2, named by the first of ``names`` (a str of letters, or a tuple of
    names such as ``--bn``'s "a0"), with 1-2 homogeneous relations of
    degree 2-3, each a sum of 1-3 words with small integer coefficients."""
    weights = draw(st.lists(st.sampled_from((1, 2)), min_size=2, max_size=3))
    names = names[:len(weights)]
    gens = " ".join(n if w == 1 else f"{n}:{w}" for n, w in zip(names, weights))
    pres = parse_presentation(
        f"algebra {''.join(names)} ; kind noncommutative ; generators {gens} ;"
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
            assert hilbert_from_chains(pres, antichain_matcher(pres, tips), 7) == \
                hilbert_from_normal_words(gb, 7)
        else:
            with pytest.raises(OneLetterTipError):
                hilbert_from_chains(pres, antichain_matcher(pres, tips), 7)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graded_presentations(), graded_presentations(names="xyz"))
    def test_free_product_matches_normal_words(self, p, q):
        """1/H = 1/H_p + 1/H_q - 1 against counting normal words of the
        free product itself."""
        hp, hq = (hilbert_from_normal_words(nc_buchberger(a, max_degree=7), 7)
                  for a in (p, q))
        pq = nc_buchberger(free_product(p, q), max_degree=7)
        assert free_product_series(hp, hq) == hilbert_from_normal_words(pq, 7)
