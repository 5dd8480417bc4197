import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anick.algebra import AlgebraError
from anick.commutative import (
    comm_buchberger,
    comm_normal_form,
    comm_normal_monomials,
    comm_reduce_basis,
    comm_s_polynomial,
    divides,
    exp_lcm,
    quotient,
)
from anick.presentation import parse_poly, parse_presentation
from oracles import restart_comm_reduce_basis

X12 = parse_presentation(
    "algebra P ; kind commutative ; generators x1 x2 ;"
    " order deglex x1 > x2 ;")

XY = parse_presentation(
    "algebra Q ; kind commutative ; generators x y ;"
    " order deglex x > y ;")


def polys(pres, *texts):
    return [parse_poly(pres, t) for t in texts]


def with_polys(pres, *texts):
    return pres.with_relations(polys(pres, *texts))


class TestExponentOps:
    def test_divides(self):
        assert divides((1, 2), (1, 3))
        assert not divides((2, 0), (1, 5))

    def test_quotient_lcm(self):
        assert quotient((3, 4), (1, 2)) == (2, 2)
        assert exp_lcm((2, 1), (1, 3)) == (2, 3)


class TestNormalForm:
    def test_member_of_basis(self):
        f = parse_poly(X12, "x1^2 + x2^2")
        assert not comm_normal_form(X12, f, [f])

    def test_single_step(self):
        f, g = polys(X12, "x1^3 + x2^3", "x1^2 + x2^2")
        assert comm_normal_form(X12, f, [g]) == parse_poly(X12, "x2^3 - x1*x2^2")

    def test_x1_fourth_in_ideal(self):
        basis = polys(X12, "x1^2 + x2^2", "x1*x2^2 - x2^3", "x2^4")
        assert not comm_normal_form(X12, parse_poly(X12, "x1^4"), basis)

    def test_idempotent(self):
        basis = polys(X12, "x1^2 + x2^2", "x1*x2^2 - x2^3", "x2^4")
        rng = random.Random(7)
        mons = [(i, j) for i in range(5) for j in range(5)]
        for _ in range(25):
            f = X12.poly({m: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for m in rng.sample(mons, 6)})
            nf = comm_normal_form(X12, f, basis)
            assert comm_normal_form(X12, nf, basis) == nf


class TestSPolynomial:
    def test_identical_pair_cancels(self):
        f = parse_poly(X12, "x1^2 + x2^2")
        assert not comm_s_polynomial(X12, f, f)

    def test_same_leading_monomial(self):
        f, g = polys(XY, "x^3 - y^2", "x^3 - x + 1")
        assert comm_s_polynomial(XY, f, g) == parse_poly(XY, "x - y^2 - 1")

    def test_reduces_to_degree_four_element(self):
        f, g = polys(X12, "x1^2 + x2^2", "x2^3 - x1*x2^2")
        s = comm_s_polynomial(X12, f, g)
        assert X12.term_key(s.leading[0]) < X12.term_key((2, 2))
        h = comm_normal_form(X12, s, [f, g])
        assert [m for m, _ in h.terms] == [(0, 4)]


class TestBuchberger:
    def test_main_example_ideal(self):
        gb = comm_buchberger(with_polys(X12, "x1^2 + x2^2", "x1^3 + x2^3"))
        lead = {f.leading[0] for f in gb.basis}
        assert (2, 0) in lead and (1, 2) in lead and (0, 4) in lead
        # diamond certificate: every pair reduces to zero
        for f, g in itertools.combinations(gb.basis, 2):
            s = comm_s_polynomial(X12, f, g)
            assert not comm_normal_form(X12, s, gb.basis)

    def test_linear_generators_unchanged(self):
        gens = polys(X12, "x1", "x2")
        gb = comm_buchberger(X12.with_relations(gens))
        assert list(gb.basis) == gens

    def test_principal_ideal(self):
        p = parse_presentation(
            "algebra R ; kind commutative ; generators x ; order deglex x ;")
        gb = comm_buchberger(with_polys(p, "x^2"))
        assert list(gb.basis) == [parse_poly(p, "x^2")]

    def test_membership_of_combinations(self):
        gens = polys(X12, "x1^2 + x2^2", "x1^3 + x2^3")
        gb = comm_buchberger(X12.with_relations(gens))
        rng = random.Random(11)
        mons = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
        for _ in range(20):
            h = X12.zero()
            for g in gens:
                q = X12.poly({m: rng.randint(-3, 3) for m in rng.sample(mons, 3)})
                h = X12.add(h, X12.mul(q, g))
            assert not comm_normal_form(X12, h, gb.basis)

    def test_proper_ideal_excludes_one(self):
        gb = comm_buchberger(with_polys(X12, "x1^2 + x2^2", "x1^3 + x2^3"))
        one = X12.poly({X12.one(): 1})
        assert comm_normal_form(X12, one, gb.basis) == one


class TestReducedBasis:
    def test_main_example(self):
        gb = comm_buchberger(with_polys(X12, "x1^2 + x2^2", "x1^3 + x2^3"))
        red = comm_reduce_basis(gb)
        assert set(red.basis) == set(polys(
            X12, "x1^2 + x2^2", "x1*x2^2 - x2^3", "x2^4"))

    def test_sorted_descending(self):
        gb = comm_buchberger(with_polys(X12, "x1^2 + x2^2", "x1^3 + x2^3"))
        red = comm_reduce_basis(gb)
        keys = [X12.term_key(f.leading[0]) for f in red.basis]
        assert keys == sorted(keys, reverse=True)

    def test_idempotent(self):
        gb = comm_buchberger(with_polys(X12, "x1^2 + x2^2", "x1^3 + x2^3"))
        red = comm_reduce_basis(gb)
        again = comm_reduce_basis(red)
        assert list(again.basis) == list(red.basis)

    def test_monic_normalization(self):
        gb = comm_buchberger(with_polys(X12, "2*x1"))
        red = comm_reduce_basis(gb)
        assert list(red.basis) == [parse_poly(X12, "x1")]

    def test_input_order_invariance(self):
        gens = polys(X12, "x1^2 + x2^2", "x1^3 + x2^3")
        results = []
        for perm in itertools.permutations(gens):
            red = comm_reduce_basis(comm_buchberger(X12.with_relations(list(perm))))
            results.append(list(red.basis))
        assert all(r == results[0] for r in results)


class TestNormalMonomials:
    def test_quotient_dimensions(self):
        gb = comm_reduce_basis(
            comm_buchberger(with_polys(X12, "x1^2 + x2^2", "x1^3 + x2^3")))
        normal = comm_normal_monomials(X12, gb.basis, 6)
        counts = {d: len(normal[d]) for d in range(7)}
        # lead terms x1^2, x1*x2^2, x2^4: normal monomials are
        # 1; x1, x2; x1*x2, x2^2; x2^3; then nothing
        assert counts == {0: 1, 1: 2, 2: 2, 3: 1, 4: 0, 5: 0, 6: 0}

    def test_free_polynomial_ring_counts(self):
        normal = comm_normal_monomials(X12, [], 5)
        assert [len(normal[d]) for d in range(6)] == [1, 2, 3, 4, 5, 6]

    def test_matches_brute_force(self):
        gb = comm_reduce_basis(
            comm_buchberger(with_polys(X12, "x1^2 + x2^2", "x1^3 + x2^3")))
        normal = comm_normal_monomials(X12, gb.basis, 6)
        lead = [g.leading[0] for g in gb.basis]
        for d in range(7):
            brute = [(i, d - i) for i in range(d + 1)
                     if not any(divides(l, (i, d - i)) for l in lead)]
            assert sorted(normal[d]) == sorted(brute)


@st.composite
def sympy_cases(draw):
    """Presentation text over 2-3 generators listed in a shuffled order on
    the generators line, with its order kind, the names in order-chain
    order and the relation texts.  Weights are 1-2 under lex, which ignores
    them, and 1 under deglex, since sympy's grlex is unweighted."""
    names = ["x", "y", "z"][:draw(st.integers(2, 3))]
    order = draw(st.sampled_from(["deglex", "lex"]))
    top = 2 if order == "lex" else 1
    weights = [draw(st.integers(1, top)) for _ in names]
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * len(names)),
            st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
        parts = []
        for exps, c in terms.items():
            mono = "*".join(n if e == 1 else f"{n}^{e}"
                            for n, e in zip(names, exps) if e)
            body = f"{abs(c)}*{mono}" if mono else str(abs(c))
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {body}")
        relations.append(" ".join(parts).lstrip("+ "))
    perm = draw(st.permutations(range(len(names))))
    gens = " ".join(names[k] if weights[k] == 1 else f"{names[k]}:{weights[k]}"
                    for k in perm)
    text = (f"algebra S; kind commutative; generators {gens}; "
            f"order {order} {' > '.join(names)}; "
            f"relations {'; '.join(relations)};")
    return text, order, names, relations


class TestSympyOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sympy_cases())
    def test_reduced_basis_matches_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        text, order, names, relations = case
        pres = parse_presentation(text)
        gens = sympy.symbols(names)
        sympy_order = "grlex" if order == "deglex" else "lex"

        def to_sympy(s):
            return sympy.Poly(sympy.sympify(s.replace("^", "**")), *gens,
                              domain="QQ")

        ours = comm_reduce_basis(comm_buchberger(pres)).basis
        theirs = sympy.groebner([to_sympy(r).as_expr() for r in relations],
                                *gens, order=sympy_order, domain="QQ")
        rendered = [to_sympy(pres.format_poly(g)) for g in ours]
        assert ({frozenset(p.terms()) for p in rendered}
                == {frozenset(p.terms()) for p in theirs.polys})
        assert ([p.monoms(order=sympy_order)[0] for p in rendered]
                == [g.leading[0] for g in ours])


def changes_a_tail(gb, red):
    """Whether some reduced element is no monic element of the input."""
    pres = gb.presentation
    return not set(red.basis) <= {pres.scale(1 / g.leading[1], g)
                                  for g in gb.basis}


class TestOnePassReduction:
    """comm_reduce_basis against the loop that restarts until nothing
    changes."""

    def test_random_presentations(self):
        changed = []

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(sympy_cases())
        def check(case):
            gb = comm_buchberger(parse_presentation(case[0]))
            red = comm_reduce_basis(gb)
            assert red.basis == restart_comm_reduce_basis(gb).basis
            changed.append(changes_a_tail(gb, red))

        check()
        assert any(changed)

    @pytest.mark.parametrize("gens, reduced", [
        # comm1: x1^3 + x2^3 is redundant under x1^2 + x2^2
        (("x1^2 + x2^2", "x1^3 + x2^3"),
         ("x1^2 + x2^2", "x1*x2^2 - x2^3", "x2^4")),
        # x1*x2 divides the lead of the first generator, which goes
        (("x1*x2^2 - x1", "x1*x2 + x2^2"),
         ("x1^2 - x2^2", "x1*x2 + x2^2", "x2^3 + x1")),
    ])
    def test_redundant_leads(self, gens, reduced):
        gb = comm_buchberger(with_polys(X12, *gens))
        red = comm_reduce_basis(gb)
        assert len(red.basis) < len(gb.basis)
        assert red.basis == restart_comm_reduce_basis(gb).basis
        assert set(red.basis) == set(polys(X12, *reduced))
