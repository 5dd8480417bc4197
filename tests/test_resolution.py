"""Resolution differentials, splittings, verification, Tor, minimality."""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anick import resolution
from anick.algebra import AlgebraError, BoundError
from anick.chains import enumerate_chains
from anick.linalg import sparse_rank
from anick.noncommutative import nc_buchberger, normal_words
from anick.presentation import make_bn, parse_presentation, parse_poly
from anick.resolution import (
    AnickResolution,
    _block_columns,
    block_rank_degree,
    build_resolution,
    euler_horizon,
    is_minimal,
    module_dimension,
    tensor_with_k,
    tor_dimensions,
    verify_resolution,
)


def presentation_xfam():
    return parse_presentation("""
        algebra xfam;
        kind noncommutative;
        generators x y;
        order deglex x > y;
        relations x^2 - x*y;
    """)


def presentation_free(names="x y z"):
    gens = " ".join(names.split())
    order = " > ".join(names.split())
    return parse_presentation(
        f"algebra free; kind noncommutative; generators {gens}; "
        f"order deglex {order};")


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def presentation_sample(name):
    return parse_presentation((SAMPLES / f"{name}.alg").read_text())


def presentation_non_monic():
    return parse_presentation("""
        algebra nonmonic;
        kind noncommutative;
        generators x y;
        order deglex x > y;
        relations 2*x^2 - 3*x*y;
    """)


_CACHE = {}


def resolution_xfam(max_level=4, max_degree=12):
    key = ("xfam", max_level, max_degree)
    if key not in _CACHE:
        _CACHE[key] = build_resolution(presentation_xfam(), max_level, max_degree)
    return _CACHE[key]


def resolution_bn(n, max_level, max_degree=12):
    key = ("bn", n, max_level, max_degree)
    if key not in _CACHE:
        _CACHE[key] = build_resolution(make_bn(n), max_level, max_degree)
    return _CACHE[key]


def chain_index(res, n, word_text):
    pres = res.presentation
    word = pres.word(*word_text.split())
    return res._word_index[n][word]


def el(res, n, *terms):
    """Element from (chain word text, normal word text, coefficient)."""
    pres = res.presentation
    out = {}
    for cw, w, coeff in terms:
        ci = chain_index(res, n, cw)
        word = pres.word(*w.split()) if w else ()
        out[(ci, word)] = out.get((ci, word), 0) + Fraction(coeff)
    return {k: v for k, v in out.items() if v}


def d_of(res, n, word_text):
    return res.diff[n][chain_index(res, n, word_text)]


class TestXFamilyDifferentials:
    """One infinite-basis algebra where every differential has a closed form."""

    def test_d1(self):
        res = resolution_xfam()
        for n1 in range(8):
            got = d_of(res, 1, "x " + "y " * n1 + "x")
            want = el(res, 0,
                      ("x", "y " * n1 + "x", 1),
                      ("x", "y " * (n1 + 1), -1))
            assert got == want

    def test_d2(self):
        res = resolution_xfam()
        for n1 in range(4):
            for n2 in range(4):
                chain = "x " + "y " * n1 + "x " + "y " * n2 + "x"
                got = d_of(res, 2, chain)
                want = el(res, 1,
                          ("x " + "y " * n1 + "x", "y " * n2 + "x", 1),
                          ("x " + "y " * n1 + "x", "y " * (n2 + 1), -1),
                          ("x " + "y " * (n1 + n2 + 1) + "x", "", 1))
                assert got == want

    def test_d3(self):
        res = resolution_xfam()
        for ns in [(0, 0, 0), (1, 0, 2), (0, 3, 1), (2, 2, 2)]:
            n1, n2, n3 = ns
            c2 = "x " + "y " * n1 + "x " + "y " * n2 + "x"
            got = d_of(res, 3, c2 + " " + "y " * n3 + "x")
            want = el(res, 2,
                      (c2, "y " * n3 + "x", 1),
                      (c2, "y " * (n3 + 1), -1),
                      ("x " + "y " * n1 + "x " + "y " * (n2 + n3 + 1) + "x", "", 1),
                      ("x " + "y " * (n1 + n2 + 1) + "x " + "y " * n3 + "x", "", -1))
            assert got == want

    def test_dk_general(self):
        """Scalar terms merge adjacent exponent pairs with alternating sign."""
        res = resolution_xfam()

        def chain_text(ns):
            return "x " + "".join("y " * n + "x " for n in ns).strip()

        for ns in [(0, 0), (2, 3), (0, 0, 0, 0), (1, 0, 1, 2), (3, 0, 0, 1)]:
            k = len(ns)
            got = d_of(res, k, chain_text(ns))
            parent = chain_text(ns[:-1])
            terms = [(parent, "y " * ns[-1] + "x", 1),
                     (parent, "y " * (ns[-1] + 1), -1)]
            for j in range(k - 1, 0, -1):
                merged = ns[:j - 1] + (ns[j - 1] + ns[j] + 1,) + ns[j + 1:]
                sign = (-1) ** (k - 1 - j)
                terms.append((chain_text(merged), "", sign))
            assert got == el(res, k - 1, *terms)

    def test_i1_worked_value(self):
        res = resolution_xfam()
        for n1, n2 in [(0, 0), (1, 2), (3, 0)]:
            u = el(res, 0,
                   ("x", "y " * n1 + "x " + "y " * (n2 + 1), 1),
                   ("x", "y " * (n1 + n2 + 1) + "x", -1))
            want = el(res, 1,
                      ("x " + "y " * n1 + "x", "y " * (n2 + 1), 1),
                      ("x " + "y " * (n1 + n2 + 1) + "x", "", -1))
            assert res.split(1, u) == want

    def test_non_minimal_witness_level_two(self):
        res = resolution_xfam()
        flag, witness = is_minimal(res)
        assert not flag
        assert witness[0] == 2

    def test_tor_matches_one_relation_algebra(self):
        # the algebra is K<x,y>/(one quadratic relation): Betti numbers
        # 1, 2, 1 even though the resolution itself is infinite
        res = resolution_xfam()
        tor = tor_dimensions(res)
        assert tor[-1] == {0: 1}
        assert tor[0] == {1: 2}
        assert tor[1] == {2: 1}
        assert tor[2] == {}
        assert tor[3] == {}

    def test_verification_report(self):
        res = resolution_xfam()
        report = verify_resolution(res)
        assert report["ok"]
        assert report["dd_zero"]["checked"] > 20
        assert report["splitting"]["checked"] > 0
        assert report["exactness"]["degree"] >= 10


class TestB1Differentials:
    def test_d1_table(self):
        res = resolution_bn(1, 5)
        want = {
            "a1 b1 c1": [("a1", "b1 c1", 1)],
            "c0 a0": [("c0", "a0", 1)],
            "c1 a1 b1": [("c1", "a1 b1", 1), ("a0", "b0 c0", 1)],
            "b1 c1 a1": [("b1", "c1 a1", 1)],
            "c0 c1": [("c0", "c1", 1)],
            "b1 a0": [("b1", "a0", 1)],
        }
        for chain, terms in want.items():
            assert d_of(res, 1, chain) == el(res, 0, *terms)

    def test_d2_table(self):
        res = resolution_bn(1, 5)
        want = {
            "a1 b1 c1 a1": [("a1 b1 c1", "a1", 1)],
            "c1 a1 b1 c1": [("c1 a1 b1", "c1", 1)],
            "c1 a1 b1 a0": [("c1 a1 b1", "a0", 1)],
            "b1 c1 a1 b1": [("b1 c1 a1", "b1", 1), ("b1 a0", "b0 c0", 1)],
            "c0 c1 a1 b1": [("c0 c1", "a1 b1", 1), ("c0 a0", "b0 c0", 1)],
        }
        for chain, terms in want.items():
            assert d_of(res, 2, chain) == el(res, 1, *terms)

    def test_d3_table(self):
        res = resolution_bn(1, 5)
        want = {
            "a1 b1 c1 a1 b1 c1": [("a1 b1 c1 a1", "b1 c1", 1)],
            "c1 a1 b1 c1 a1 b1": [("c1 a1 b1 c1", "a1 b1", 1),
                                  ("c1 a1 b1 a0", "b0 c0", 1)],
            "b1 c1 a1 b1 c1 a1": [("b1 c1 a1 b1", "c1 a1", 1)],
            "b1 c1 a1 b1 a0": [("b1 c1 a1 b1", "a0", 1)],
            "c0 c1 a1 b1 c1": [("c0 c1 a1 b1", "c1", 1)],
            "c0 c1 a1 b1 a0": [("c0 c1 a1 b1", "a0", 1)],
        }
        for chain, terms in want.items():
            assert d_of(res, 3, chain) == el(res, 2, *terms)

    def test_d4_table(self):
        res = resolution_bn(1, 5)
        want = {
            "a1 b1 c1 a1 b1 c1 a1": [("a1 b1 c1 a1 b1 c1", "a1", 1)],
            "c1 a1 b1 c1 a1 b1 c1": [("c1 a1 b1 c1 a1 b1", "c1", 1)],
            "c1 a1 b1 c1 a1 b1 a0": [("c1 a1 b1 c1 a1 b1", "a0", 1)],
            "b1 c1 a1 b1 c1 a1 b1": [("b1 c1 a1 b1 c1 a1", "b1", 1),
                                     ("b1 c1 a1 b1 a0", "b0 c0", 1)],
            "c0 c1 a1 b1 c1 a1 b1": [("c0 c1 a1 b1 c1", "a1 b1", 1),
                                     ("c0 c1 a1 b1 a0", "b0 c0", 1)],
        }
        for chain, terms in want.items():
            assert d_of(res, 4, chain) == el(res, 3, *terms)

    def test_d5_periodic_pattern(self):
        res = resolution_bn(1, 5)
        want = {
            "c1 a1 b1 c1 a1 b1 c1 a1 b1":
                [("c1 a1 b1 c1 a1 b1 c1", "a1 b1", 1),
                 ("c1 a1 b1 c1 a1 b1 a0", "b0 c0", 1)],
            "c0 c1 a1 b1 c1 a1 b1 a0":
                [("c0 c1 a1 b1 c1 a1 b1", "a0", 1)],
            "b1 c1 a1 b1 c1 a1 b1 c1 a1":
                [("b1 c1 a1 b1 c1 a1 b1", "c1 a1", 1)],
        }
        for chain, terms in want.items():
            assert d_of(res, 5, chain) == el(res, 4, *terms)

    def test_i1_worked_value(self):
        res = resolution_bn(1, 5)
        u = el(res, 0, ("b1", "a0 b0 c0", 1))
        assert res.split(1, u) == el(res, 1, ("b1 a0", "b0 c0", 1))

    def test_minimal(self):
        res = resolution_bn(1, 5)
        flag, witness = is_minimal(res)
        assert flag and witness is None

    def test_tor_equals_chain_counts(self):
        res = resolution_bn(1, 5)
        tor = tor_dimensions(res)
        totals = {n: sum(row.values()) for n, row in tor.items()}
        assert totals == {-1: 1, 0: 6, 1: 6, 2: 5, 3: 6, 4: 5}
        for n in range(5):
            by_degree = {}
            for c in res.levels[n]:
                d = res.presentation.monomial_degree(c.word)
                by_degree[d] = by_degree.get(d, 0) + 1
            assert tor[n] == by_degree

    def test_verification_report(self):
        res = resolution_bn(1, 5)
        report = verify_resolution(res)
        assert report["ok"]
        assert report["euler"]["degree"] == 8
        assert report["exactness"]["degree"] >= 4


class TestB2Differentials:
    def test_d1_includes_reduction_term(self):
        res = resolution_bn(2, 4)
        assert d_of(res, 1, "c2 a2 b2") == el(
            res, 0, ("c2", "a2 b2", 1), ("a1", "b1 c1", 1))
        assert d_of(res, 1, "c1 a1 b1") == el(
            res, 0, ("c1", "a1 b1", 1), ("a0", "b0 c0", 1))
        assert d_of(res, 1, "b2 a1") == el(res, 0, ("b2", "a1", 1))

    def test_d2_table(self):
        res = resolution_bn(2, 4)
        want = {
            "a2 b2 c2 a2": [("a2 b2 c2", "a2", 1)],
            "c1 a1 b1 a0": [("c1 a1 b1", "a0", 1)],
            "c1 a1 b1 c1 a1": [("c1 a1 b1", "c1 a1", 1)],
            "c2 a2 b2 c2": [("c2 a2 b2", "c2", 1)],
            "c2 a2 b2 a1": [("c2 a2 b2", "a1", 1)],
            "b1 c1 a1 b1": [("b1 c1 a1", "b1", 1), ("b1 a0", "b0 c0", 1)],
            "b2 c2 a2 b2": [("b2 c2 a2", "b2", 1), ("b2 a1", "b1 c1", 1)],
            "c0 c1 a1 b1": [("c0 c1", "a1 b1", 1), ("c0 a0", "b0 c0", 1)],
            "c1 c2 a2 b2": [("c1 c2", "a2 b2", 1), ("c1 a1 b1", "c1", 1)],
            "c0 c1 c2": [("c0 c1", "c2", 1)],
        }
        for chain, terms in want.items():
            assert d_of(res, 2, chain) == el(res, 1, *terms)

    def test_d3_table(self):
        res = resolution_bn(2, 4)
        want = {
            "a2 b2 c2 a2 b2 c2": [("a2 b2 c2 a2", "b2 c2", 1)],
            "c1 a1 b1 c1 a1 b1": [("c1 a1 b1 c1 a1", "b1", 1),
                                  ("c1 a1 b1 a0", "b0 c0", 1)],
            "c2 a2 b2 c2 a2 b2": [("c2 a2 b2 c2", "a2 b2", 1),
                                  ("c2 a2 b2 a1", "b1 c1", 1)],
            "b1 c1 a1 b1 a0": [("b1 c1 a1 b1", "a0", 1)],
            "b1 c1 a1 b1 c1 a1": [("b1 c1 a1 b1", "c1 a1", 1)],
            "b2 c2 a2 b2 c2 a2": [("b2 c2 a2 b2", "c2 a2", 1)],
            "b2 c2 a2 b2 a1": [("b2 c2 a2 b2", "a1", 1)],
            "c0 c1 a1 b1 a0": [("c0 c1 a1 b1", "a0", 1)],
            "c0 c1 a1 b1 c1 a1": [("c0 c1 a1 b1", "c1 a1", 1)],
            "c1 c2 a2 b2 c2": [("c1 c2 a2 b2", "c2", 1)],
        }
        for chain, terms in want.items():
            assert d_of(res, 3, chain) == el(res, 2, *terms)

    def test_d3_exceptional_scalar_term(self):
        res = resolution_bn(2, 4)
        assert d_of(res, 3, "c1 c2 a2 b2 a1") == el(
            res, 2,
            ("c1 c2 a2 b2", "a1", 1),
            ("c1 a1 b1 c1 a1", "", -1))

    def test_extra_chain_family_differentials(self):
        res = resolution_bn(2, 4)
        assert d_of(res, 2, "c0 c1 c2") == el(res, 1, ("c0 c1", "c2", 1))
        assert d_of(res, 3, "c0 c1 c2 a2 b2") == el(
            res, 2, ("c0 c1 c2", "a2 b2", 1), ("c0 c1 a1 b1", "c1", 1))
        assert d_of(res, 4, "c0 c1 c2 a2 b2 a1") == el(
            res, 3,
            ("c0 c1 c2 a2 b2", "a1", 1),
            ("c0 c1 a1 b1 c1 a1", "", -1))

    def test_non_minimal_witness_level_three(self):
        res = resolution_bn(2, 4)
        flag, witness = is_minimal(res)
        assert not flag
        level, row, col = witness
        assert level == 3
        pres = res.presentation
        assert pres.format_monomial(col) == "c1*c2*a2*b2*a1"
        assert pres.format_monomial(row) == "c1*a1*b1*c1*a1"

    def test_tor_dimensions(self):
        res = resolution_bn(2, 4)
        tor = tor_dimensions(res)
        totals = {n: sum(row.values()) for n, row in tor.items()}
        # levels 2 and 3 drop below the chain counts (10 and 12): one rank
        # each from the two scalar entries of d3 and d4
        assert totals == {-1: 1, 0: 9, 1: 10, 2: 9, 3: 10}

    def test_verification_report(self):
        res = resolution_bn(2, 4)
        report = verify_resolution(res)
        assert report["ok"]
        assert report["euler"]["degree"] == 6


class TestFreeAlgebra:
    def test_tor_stops_after_generators(self):
        pres = presentation_free("x y z")
        res = build_resolution(pres, max_level=3, max_degree=6)
        tor = tor_dimensions(res)
        assert tor[-1] == {0: 1}
        assert tor[0] == {1: 3}
        assert tor[1] == {}
        assert tor[2] == {}
        flag, witness = is_minimal(res)
        assert flag
        assert verify_resolution(res)["ok"]


class TestStructuralInvariants:
    def test_dd_zero_everywhere(self):
        for res in (resolution_xfam(), resolution_bn(1, 5), resolution_bn(2, 4)):
            for n in range(1, res.max_level + 1):
                for row in res.diff[n]:
                    assert res.apply_d(n - 1, row) == {}

    def test_differentials_homogeneous(self):
        for res in (resolution_xfam(), resolution_bn(2, 4)):
            for n in range(1, res.max_level + 1):
                for ci, row in enumerate(res.diff[n]):
                    assert res.element_degree(n - 1, row) == \
                        res.chain_degree(n, ci)

    def test_split_inverts_d_on_kernel(self):
        # d-images lie in the kernel one level down, so they are valid
        # splitting inputs; d(i(u)) = u must hold on all of them
        res = resolution_bn(1, 5)
        for n in range(1, res.max_level + 1):
            for row in res.diff[n]:
                u = dict(row)
                w = res.split(n, u)
                assert res.apply_d(n, w) == u

    def test_apply_d_right_linear(self):
        res = resolution_xfam()
        pres = res.presentation
        ci = chain_index(res, 2, "x x y x")
        base = res.apply_d(2, {(ci, ()): Fraction(1)})
        scaled = res.apply_d(2, {(ci, ()): Fraction(3, 7)})
        assert scaled == {k: Fraction(3, 7) * v for k, v in base.items()}

    def test_i0_rejects_constant_terms(self):
        res = resolution_xfam()
        with pytest.raises(AlgebraError):
            res.split(0, {(0, ()): Fraction(1)})

    def test_splitting_audit_log(self):
        res = resolution_bn(1, 5)
        assert res.split_checks > 10
        assert res.split_failures == []


class TestBounds:
    def test_degree_beyond_certificate(self):
        pres = presentation_xfam()
        gb = nc_buchberger(pres, max_degree=6)
        F = [g.leading[0] for g in gb.basis]
        cs = enumerate_chains(pres, F, 3, 10)
        with pytest.raises(BoundError):
            AnickResolution(pres, gb, cs, 3, 10)

    def test_chain_set_too_shallow(self):
        pres = presentation_xfam()
        gb = nc_buchberger(pres, max_degree=8)
        F = [g.leading[0] for g in gb.basis]
        cs = enumerate_chains(pres, F, 2, 8)
        with pytest.raises(BoundError):
            AnickResolution(pres, gb, cs, 3, 8)

    def test_euler_horizon_tracks_last_level(self):
        res = resolution_bn(1, 5)
        assert euler_horizon(res) == 8  # shallowest level-5 chain

    def test_module_dimension_counts(self):
        res = resolution_xfam()
        h = [1, 2, 3, 4, 5]  # normal words of x^2 -> xy per degree
        assert module_dimension(res, -1, 3, h) == 4
        # level 1 chains x y^k x: degrees 2..: dim_3 = h1 + h0
        assert module_dimension(res, 1, 3, h) == 3

    def test_rank_degree_budget(self):
        res = resolution_bn(1, 5)
        small = block_rank_degree(res, 50)
        big = block_rank_degree(res, 4000)
        assert small < big < res.max_degree  # graded dims explode quickly
        assert block_rank_degree(resolution_xfam(), 10 ** 6) == 12


class TestNegativeControls:
    def test_corrupted_differential_fails_verification(self):
        pres = presentation_xfam()
        res = build_resolution(pres, max_level=3, max_degree=8)
        ci = chain_index(res, 2, "x x x")
        target = chain_index(res, 1, "x x")
        res.diff[2][ci] = dict(res.diff[2][ci])
        res.diff[2][ci][(target, pres.word("y"))] = Fraction(1)
        report = verify_resolution(res)
        assert not report["ok"]
        assert not report["dd_zero"]["ok"]

    def test_dropped_term_breaks_exactness(self):
        pres = presentation_xfam()
        res = build_resolution(pres, max_level=3, max_degree=8)
        ci = chain_index(res, 2, "x x x")
        row = dict(res.diff[2][ci])
        key = (chain_index(res, 1, "x y x"), ())
        assert key in row
        del row[key]
        res.diff[2][ci] = row
        report = verify_resolution(res)
        assert not report["ok"]


class TestTensorMatrices:
    def test_scalar_parts_only(self):
        res = resolution_bn(2, 4)
        tensored = tensor_with_k(res)
        assert tensored[0] == {}
        assert tensored[1] == {}
        assert tensored[2] == {}
        assert len(tensored[3]) == 1
        assert len(tensored[4]) == 1
        ((row, col),) = tensored[3].keys()
        assert res.presentation.format_monomial(res.levels[3][col].word) \
            == "c1*c2*a2*b2*a1"
        assert tensored[3][(row, col)] == Fraction(-1)


def exactness_verdicts(report):
    return (report["dd_zero"]["ok"], report["exactness"]["blocks"],
            report["exactness"]["ok"], report["ok"])


class TestModularExactness:
    @pytest.mark.parametrize("name", ["x2xy", "xyzx"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_small_prime_gives_the_same_report(self, monkeypatch, name, p):
        res = build_resolution(presentation_sample(name), 3, 8)
        want = verify_resolution(res)
        assert want["ok"]
        assert want["exactness"]["exact_fallbacks"] == 0
        monkeypatch.setattr(resolution, "PRIME", p)
        assert exactness_verdicts(verify_resolution(res)) == \
            exactness_verdicts(want)

    @pytest.mark.parametrize("name", ["x2xy", "xyzx"])
    def test_ranks_that_fall_short_mod_p_fall_back(self, monkeypatch, name):
        # doubling the top differential keeps d.d = 0 and every rank over Q,
        # but zeroes its matrices mod 2, so the blocks it enters fall short
        res = build_resolution(presentation_sample(name), 3, 8)
        want = verify_resolution(res)
        res.diff[3] = [{k: 2 * v for k, v in row.items()}
                       for row in res.diff[3]]
        monkeypatch.setattr(resolution, "PRIME", 2)
        got = verify_resolution(res)
        assert got["exactness"]["exact_fallbacks"] > 0
        assert exactness_verdicts(got) == exactness_verdicts(want)

    def test_prime_dividing_a_denominator_falls_back(self, monkeypatch):
        res = build_resolution(presentation_non_monic(), 3, 8)
        want = verify_resolution(res)
        assert want["ok"]
        monkeypatch.setattr(resolution, "PRIME", 2)
        got = verify_resolution(res)
        assert got["exactness"]["exact_fallbacks"] > 0
        assert exactness_verdicts(got) == exactness_verdicts(want)

    @pytest.mark.parametrize("name", ["x2xy", "xyzx"])
    def test_sign_flip_matches_exact_ranks(self, monkeypatch, name):
        # mod 2 the flip is invisible, so only an exact rank can see it
        res = build_resolution(presentation_sample(name), 3, 8)
        row = dict(res.diff[2][0])
        key = next(iter(row))
        row[key] = -row[key]
        res.diff[2][0] = row
        monkeypatch.setattr(resolution, "PRIME", 2)
        got = verify_resolution(res)
        assert not got["dd_zero"]["ok"]
        monkeypatch.setattr(resolution, "sparse_rank_mod_p",
                            lambda rows, p: sparse_rank(rows))
        assert exactness_verdicts(got) == \
            exactness_verdicts(verify_resolution(res))


def diff_coefficients(res):
    return [v for rows in res.diff.values() for row in rows
            for v in row.values()]


class TestIntegrality:
    @pytest.mark.parametrize("name", ["free3", "x2xy", "x2y2", "xyzx",
                                      "B1", "B2", "B3"])
    def test_monic_integral_basis_gives_int_differentials(self, name):
        pres = (make_bn(int(name[1:])) if name.startswith("B")
                else presentation_sample(name))
        coeffs = diff_coefficients(build_resolution(pres, 3, 6))
        assert coeffs
        assert all(type(v) is int for v in coeffs)

    def test_non_monic_presentation_stays_exact(self):
        res = build_resolution(presentation_non_monic(), 3, 8)
        assert Fraction(-3, 2) in diff_coefficients(res)
        report = verify_resolution(res)
        assert report["ok"]
        words = normal_words(res.gb, report["exactness"]["degree"])
        for block in report["exactness"]["blocks"]:
            n, d = block["level"], block["degree"]
            _, cols = _block_columns(res, n + 1, d, words)
            assert block["rank_in"] == sparse_rank(cols)
            if n >= 0:
                _, cols = _block_columns(res, n, d, words)
                assert block["rank_out"] == sparse_rank(cols)


def reference_split(res, m, elem):
    """Splitting i_m for m >= 1 by scanning: key every pending pair on each
    step, take the largest, and try every m-chain of the level as a prefix
    of its word, with normality checked by slicing.  res.split must return
    the same element and raise the same errors."""
    pres = res.presentation

    def pair_key(pair):
        ci, s = pair
        return pres.term_key(res.levels[m - 1][ci].word + s)

    work = {k: v for k, v in elem.items() if v}
    out = {}
    last_key = None
    while work:
        keys = {k: pair_key(k) for k in work}
        lead = max(keys, key=keys.__getitem__)
        lead_key = keys[lead]
        if any(k != lead and key == lead_key for k, key in keys.items()):
            raise AlgebraError("leading pair of a kernel element is ambiguous")
        if last_key is not None and lead_key >= last_key:
            raise AlgebraError("splitting recursion failed to descend")
        last_key = lead_key
        ci, s = lead
        alpha = work[lead]
        w = res.levels[m - 1][ci].word + s
        candidates = [(gi, w[len(g.word):])
                      for gi, g in enumerate(res.levels[m])
                      if w[:len(g.word)] == g.word
                      and is_normal_by_slicing(res, w[len(g.word):])]
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
        for k, v in res.apply_d(m, {(gi, cw): 1}).items():
            acc = work.get(k, 0) - alpha * v
            if acc:
                work[k] = acc
            else:
                work.pop(k, None)
    return out


def outcome(split, *args):
    try:
        return split(*args)
    except AlgebraError as exc:
        return ("error", str(exc))


def is_normal_by_slicing(res, word):
    return not any(word[p:p + len(g.leading[0])] == g.leading[0]
                   for g in res.gb.basis for p in range(len(word)))


def random_normal_word(res, rng, degree):
    """A random normal word of the degree, grown letter by letter, or None
    when a draw gets stuck."""
    pres = res.presentation
    word = ()
    while pres.monomial_degree(word) < degree:
        options = [word + (i,) for i in range(pres.ngens)
                   if pres.monomial_degree(word + (i,)) <= degree
                   and is_normal_by_slicing(res, word + (i,))]
        if not options:
            return None
        word = rng.choice(options)
    return word


def assert_splits_match_reference(res, rng, kernel_samples):
    """Split every row of every d_n, and kernel_samples images d_n(x) of
    random homogeneous x per level, both ways."""
    for n in range(1, res.max_level + 1):
        for row in res.diff[n]:
            assert outcome(res.split, n, row) == \
                outcome(reference_split, res, n, row)
    for n in range(1, res.max_level + 1):
        chains = list(enumerate(res.levels[n]))
        for _ in range(kernel_samples if chains else 0):
            d = rng.randint(min(c.degree for _, c in chains), res.max_degree)
            x = {}
            for ci, c in rng.sample(chains, min(len(chains), 4)):
                w = random_normal_word(res, rng, d - c.degree)
                if c.degree <= d and w is not None:
                    x[(ci, w)] = rng.choice((-2, -1, 1, 3))
            u = res.apply_d(n, x)
            assert outcome(res.split, n, u) == \
                outcome(reference_split, res, n, u)


XY = presentation_free("x y")
XYZ = presentation_free("x y z")


@st.composite
def graded_presentations(draw):
    """2-4 homogeneous relations of degree 2-3 with 1-3 terms over 2-3
    generators, a level 2-4 and a degree 4-7."""
    pres = draw(st.sampled_from([XY, XYZ]))
    relations = []
    for _ in range(draw(st.integers(2, 4))):
        word = st.integers(2, 3).flatmap(lambda n: st.tuples(
            *[st.integers(0, pres.ngens - 1)] * n))
        terms = draw(st.dictionaries(
            word, st.integers(-2, 2).filter(bool), min_size=1, max_size=3))
        top = max(len(w) for w in terms)
        relations.append(pres.poly(
            {w: c for w, c in terms.items() if len(w) == top}))
    return (pres.with_relations(relations), draw(st.integers(2, 4)),
            draw(st.integers(4, 7)))


class TestSplitOracle:
    """The heap and prefix index in _isplit against the chain scan."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graded_presentations(), st.randoms(use_true_random=False))
    def test_random_graded_presentations(self, case, rng):
        pres, level, degree = case
        res = build_resolution(pres, level, degree)
        assert_splits_match_reference(res, rng, kernel_samples=5)

    @pytest.mark.parametrize("name, level, degree", [
        ("x2xy", 4, 10), ("xyzx", 4, 9), ("B1", 4, 10), ("B2", 4, 9)])
    def test_samples_and_bn(self, name, level, degree):
        pres = (make_bn(int(name[1:])) if name.startswith("B")
                else presentation_sample(name))
        res = build_resolution(pres, level, degree)
        assert_splits_match_reference(res, random.Random(name),
                                      kernel_samples=50)


class TestSplitErrors:
    def test_no_factorization(self):
        # a lone generator is no (1-chain).(normal word)
        res = resolution_xfam()
        x = chain_index(res, 0, "x")
        with pytest.raises(AlgebraError, match="no .*factorization"):
            res.split(1, {(x, ()): 1})

    def test_failure_to_descend(self):
        # x (x) xx has the non-normal word xx: d_1(xx (x) x) leads with
        # x (x) nf(xx) = x (x) xy, so the lead x (x) xx is never cancelled
        res = resolution_xfam()
        x = chain_index(res, 0, "x")
        elem = {(x, res.presentation.word("x", "x")): 1}
        with pytest.raises(AlgebraError, match="failed to descend"):
            res.split(1, elem)
        assert outcome(reference_split, res, 1, elem) == \
            outcome(res.split, 1, elem)

    def test_ambiguous_lead_on_a_repeated_chain_word(self):
        # the chain words of one level are prefix-free (a property in
        # test_chains), so two pairs never share a word, a word has at most
        # one chain factorization, and with descent no generator is
        # revisited; a tie needs a level with a copy of a chain
        res = build_resolution(presentation_xfam(), 2, 6)
        res.levels[0] = res.levels[0] + (res.levels[0][0],)
        yx = res.presentation.word("y", "x")
        elem = {(0, yx): 1, (len(res.levels[0]) - 1, yx): 1}
        with pytest.raises(AlgebraError, match="ambiguous"):
            res.split(1, elem)
