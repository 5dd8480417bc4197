"""Resolution differentials, splittings, verification, Tor, minimality."""

import argparse
import functools
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anick import noncommutative, resolution
from anick.algebra import AlgebraError, BoundError
from anick.chains import Chain, OneLetterTipError
from anick.cli import cmd_nf
from anick.cli import main as cli_main
from anick.hilbert import hilbert_from_chains, hilbert_from_normal_words
from anick.linalg import _integral_row, _reduce_row, sparse_rank
from anick.noncommutative import (
    WordMatcher,
    count_normal_words,
    nc_buchberger,
    nc_normal_form,
)
from anick.presentation import make_bn, parse_presentation, parse_poly
from anick.resolution import (
    AnickResolution,
    _add_scaled,
    block_rank_degree,
    euler_horizon,
    is_minimal,
    leading_term_ranks,
    tor_dimensions,
    verify_resolution,
)
from oracles import (
    block_columns,
    exact_ranks,
    normal_words,
    reference_apply_d,
    reference_entries,
    reference_factor,
    reference_tor_dimensions,
    serialize_presentation,
    span_counts,
    span_member,
)
from test_cli import run_on_stdin, stdin_of
from test_noncommutative import small_presentations


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
README = SAMPLES.parent / "README.md"


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
        _CACHE[key] = AnickResolution(
            nc_buchberger(presentation_xfam(), max_degree), max_level)
    return _CACHE[key]


def resolution_bn(n, max_level, max_degree=12):
    key = ("bn", n, max_level, max_degree)
    if key not in _CACHE:
        _CACHE[key] = AnickResolution(nc_buchberger(make_bn(n), max_degree), max_level)
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


def audited_split(res, m, elem):
    """i_m by ``res.split`` with a fresh memo, and the d(i(u)) = u audit.

    When the audit fails, the residue u - d(i(u)) is the sum of the pairs
    that ``split`` passed over, and its lead is the first lead on which the
    leading-pair loop fails: that lead raises when it ties with another
    pair or admits no factorization.  Any other failure raises "failed the
    d(i(u)) = u audit".
    """
    result = res.split(m, elem, {})
    back = res.apply_d(m, result)
    residue = {k: v for k, v in elem.items() if v}
    if back != residue:
        _add_scaled(residue, back, -1)
        pres, below = res.presentation, res.levels[m - 1]
        keys = sorted((pres.heap_key(below[ci].word + s), ci, s)
                      for ci, s in residue)
        if len(keys) > 1 and keys[0][0] == keys[1][0]:
            raise AlgebraError("leading pair of a kernel element is ambiguous")
        _, ci, s = keys[0]
        if res._factor(m, below[ci], s) is None:
            raise AlgebraError(
                f"kernel leading word {pres.format_monomial(below[ci].word + s)} "
                f"admits no (chain).(normal word) factorization at level {m}")
        raise AlgebraError(
            f"a splitting at level {m} failed the d(i(u)) = u audit")
    return result


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
            assert audited_split(res, 1, u) == want

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
        assert audited_split(res, 1, u) == el(res, 1, ("b1 a0", "b0 c0", 1))

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

    def test_tor_ranks_each_block_once(self, monkeypatch):
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 14), 5)
        blocks = {(n, res.levels[n][ci].degree)
                  for n, columns in res.tensored.items()
                  for ci in columns}
        calls = []

        def counting(rows):
            calls.append(1)
            return sparse_rank(rows)

        monkeypatch.setattr(resolution, "sparse_rank", counting)
        tor_dimensions(res)
        assert len(calls) == len(blocks) == 42

    def test_verification_report(self):
        res = resolution_bn(2, 4)
        report = verify_resolution(res)
        assert report["ok"]
        assert report["euler"]["degree"] == 6


class TestFreeAlgebra:
    def test_tor_stops_after_generators(self):
        pres = presentation_free("x y z")
        res = AnickResolution(nc_buchberger(pres, 6), max_level=3)
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
            deg = res.presentation.monomial_degree
            for n in range(1, res.max_level + 1):
                for ci, row in enumerate(res.diff[n]):
                    assert {res.levels[n - 1][cj].degree + deg(w)
                            for cj, w in row} == {res.levels[n][ci].degree}

    def test_inhomogeneous_column_is_refused(self, monkeypatch):
        # a splitting that adds terms at chain 0 of degrees d and d + 1 puts
        # at least one term off the column's degree
        split = AnickResolution.split
        monkeypatch.setattr(
            AnickResolution, "split", lambda self, m, u, memo: {
                **split(self, m, u, memo), (0, ()): 1, (0, (0,)): 1})
        with pytest.raises(AlgebraError, match="inhomogeneous element"):
            AnickResolution(nc_buchberger(presentation_sample("x2xy"), 6), 3)

    def test_split_inverts_d_on_kernel(self):
        # d-images lie in the kernel one level down, so they are valid
        # splitting inputs; d(i(u)) = u must hold on all of them
        res = resolution_bn(1, 5)
        for n in range(1, res.max_level + 1):
            for row in res.diff[n]:
                u = dict(row)
                w = audited_split(res, n, u)
                assert res.apply_d(n, w) == u

    def test_apply_d_right_linear(self):
        res = resolution_xfam()
        pres = res.presentation
        ci = chain_index(res, 2, "x x y x")
        base = res.apply_d(2, {(ci, ()): Fraction(1)})
        scaled = res.apply_d(2, {(ci, ()): Fraction(3, 7)})
        assert scaled == {k: Fraction(3, 7) * v for k, v in base.items()}

    def test_i0_rejects_constant_terms(self):
        # the empty word has no generator to split off
        res = resolution_xfam()
        with pytest.raises(AlgebraError, match="no .*factorization at level 0"):
            audited_split(res, 0, {(0, ()): Fraction(1)})

    def test_splitting_audit_log(self):
        # B1 to level 5 builds only 7 columns with a splitting; the count
        # is of the constructor's splittings, not of split calls since
        res = resolution_bn(2, 4)
        assert res.split_checks > 10
        assert verify_resolution(res)["splitting"]["ok"]


class TestBounds:
    def test_euler_horizon_tracks_last_level(self):
        res = resolution_bn(1, 5)
        assert euler_horizon(res) == 8  # shallowest level-5 chain

    def test_module_dimension_counts(self):
        res = resolution_xfam()
        # normal words of x^2 -> xy per degree
        assert res.hilbert[:5] == [1, 2, 3, 4, 5]
        assert res.dims[-1][3] == 4
        # level 1 chains x y^k x: degrees 2..: dim_3 = h1 + h0
        assert res.dims[1][3] == 3

    def test_rank_degree_budget(self):
        res = resolution_bn(1, 5)
        small = block_rank_degree(res, 50)
        big = block_rank_degree(res, 4000)
        assert small < big < res.max_degree  # graded dims explode quickly
        assert block_rank_degree(resolution_xfam(), 10 ** 6) == 12


class TestNegativeControls:
    def test_corrupted_differential_fails_verification(self):
        pres = presentation_xfam()
        res = AnickResolution(nc_buchberger(pres, 8), max_level=3)
        ci = chain_index(res, 2, "x x x")
        target = chain_index(res, 1, "x x")
        res.diff[2][ci] = dict(res.diff[2][ci])
        res.diff[2][ci][(target, pres.word("y"))] = Fraction(1)
        report = verify_resolution(res)
        assert not report["ok"]
        assert not report["dd_zero"]["ok"]

    def test_dropped_term_breaks_exactness(self):
        pres = presentation_xfam()
        res = AnickResolution(nc_buchberger(pres, 8), max_level=3)
        ci = chain_index(res, 2, "x x x")
        row = dict(res.diff[2][ci])
        key = (chain_index(res, 1, "x y x"), ())
        assert key in row
        del row[key]
        res.diff[2][ci] = row
        report = verify_resolution(res)
        assert not report["ok"]


    def test_every_splitting_failure_is_counted(self, monkeypatch):
        # with d_0 doubled, subtracting d_0(w[0] (x) w[1:]) leaves -1 (x) w,
        # so the level-0 split meets its lead again and raises
        gb = nc_buchberger(presentation_sample("x2xy"), 6)
        res = AnickResolution(gb, 3)
        assert verify_resolution(res)["splitting"]["ok"]
        words = normal_words(res.gb, 3)
        diff0 = res.diff[0]
        res.diff[0] = [{k: 2 * v for k, v in row.items()} for row in diff0]
        with pytest.raises(AlgebraError, match="failed to descend"):
            audited_split(res, 0, {(0, words[2][0]): 1})
        res.diff[0] = diff0
        # a splitting that returns 2 i(u) fails d(i(u)) = u: every column
        # built with one fails d.d = 0, and a direct split raises
        split = AnickResolution.split
        monkeypatch.setattr(
            AnickResolution, "split", lambda self, m, u, memo: {
                k: 2 * v for k, v in split(self, m, u, memo).items()})
        res = AnickResolution(gb, 3)
        report = verify_resolution(res)
        failures = report["dd_zero"]["failures"]
        assert report["splitting"]["failure_count"] == len(failures) == \
            res.split_checks == 25
        assert not report["splitting"]["ok"] and not report["ok"]
        for w in (words[1] + words[2] + words[3])[:6]:
            with pytest.raises(AlgebraError,
                               match=r"failed the d\(i\(u\)\) = u audit"):
                audited_split(res, 0, {(0, w): 1})


def printed_verification(capsys, name, level=3, degree=8):
    """The verification that ``anick --format json`` prints for a sample or
    for B_n."""
    source = (["--bn", name[1:]] if name.startswith("B")
              else [str(SAMPLES / f"{name}.alg")])
    code = cli_main(["anick", *source, "--max-level", str(level),
                     "--max-degree", str(degree), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["verification"]


class TestFlippedCoefficient:
    """A mutation of a built resolution: negating any one coefficient of a
    d_n, n >= 1, fails the verification, through d.d = 0 or, where d_{n-1}
    kills the flipped pair, through the leading-term shape."""

    @pytest.mark.parametrize("name, level, degree", [
        ("x2xy", 3, 6), ("xyzx", 3, 6), ("x2y2", 3, 6), ("B1", 3, 6),
        ("B2", 3, 5)])
    def test_every_flip_fails(self, name, level, degree):
        res = AnickResolution(nc_buchberger(presentation_named(name), degree),
                              level)
        assert verify_resolution(res)["ok"]
        flips = 0
        for n in range(1, level + 1):
            for ci, column in enumerate(res.diff[n]):
                for key, coeff in column.items():
                    res.diff[n][ci] = {**column, key: -coeff}
                    assert not verify_resolution(res)["ok"]
                    flips += 1
                res.diff[n][ci] = column
        assert flips >= 12
        assert verify_resolution(res)["ok"]


class TestReportJson:
    """anick prints verify_resolution's report as built: the printed
    verification against the report of the same resolution, keys in
    order."""

    @pytest.mark.parametrize("name", ["x2xy", "xyzx", "B2"])
    def test_report_as_built(self, capsys, name):
        res = AnickResolution(nc_buchberger(presentation_named(name), 8), 3)
        assert json.dumps(printed_verification(capsys, name)) == \
            json.dumps(verify_resolution(res))

    def test_failed_report_as_built(self, capsys, monkeypatch):
        built = []

        def broken(gb, max_level):
            res = AnickResolution(gb, max_level)
            ci = chain_index(res, 2, "x x x")
            row = dict(res.diff[2][ci])
            del row[chain_index(res, 1, "x y x"), ()]
            res.diff[2][ci] = row
            built.append(res)
            return res

        monkeypatch.setattr("anick.cli.AnickResolution", broken)
        printed = printed_verification(capsys, "x2xy")
        report = verify_resolution(built[0])
        assert report["dd_zero"]["failures"]
        assert not any(b["ok"] for b in report["exactness"]["blocks"])
        assert json.dumps(printed) == json.dumps(report)

    def test_new_entry_passes_through(self, capsys, monkeypatch):
        entry = {"checked": 3, "failures": [], "ok": True}
        reports = []

        def with_entry(res):
            report = verify_resolution(res)
            report["homotopy"] = entry
            reports.append(report)
            return report

        monkeypatch.setattr("anick.cli.verify_resolution", with_entry)
        printed = printed_verification(capsys, "x2xy", degree=6)
        assert printed["homotopy"] == entry
        assert json.dumps(printed) == json.dumps(reports[0])


class TestTensorMatrices:
    def test_scalar_parts_only(self):
        res = resolution_bn(2, 4)
        tensored = res.tensored
        assert tensored[0] == {}
        assert tensored[1] == {}
        assert tensored[2] == {}
        assert [len(column) for column in tensored[4].values()] == [1]
        ((col, column),) = tensored[3].items()
        assert res.presentation.format_monomial(res.levels[3][col].word) \
            == "c1*c2*a2*b2*a1"
        ((_, coeff),) = column.items()
        assert coeff == Fraction(-1)


def assert_verdicts_sound(res, report):
    """The exactness blocks against the oracle's exact ranks: no block is
    ok unless its ranks are the exact ranks and sum to its dimension, and
    every block whose ranks are null or fall short is not ok."""
    exactness = report["exactness"]
    ranks = exact_ranks(res, exactness["degree"])
    for block in exactness["blocks"]:
        n, d, dim = block["level"], block["degree"], block["dim"]
        rank_out, rank_in = block["rank_out"], block["rank_in"]
        assert dim == res.dims[n][d]
        assert block["ok"] == (rank_out is not None
                               and rank_out + rank_in == dim)
        if block["ok"]:
            assert (rank_out, rank_in) == (ranks[n, d], ranks[n + 1, d])
            assert ranks[n, d] + ranks[n + 1, d] == dim
    assert exactness["ok"] == all(b["ok"] for b in exactness["blocks"])
    assert exactness["ok"] or not report["ok"]
    return ranks


def assert_unsettled(report):
    """Every exactness block prints null ranks and is not ok."""
    for block in report["exactness"]["blocks"]:
        assert (block["rank_out"], block["rank_in"], block["ok"]) == \
            (None, None, False)
    assert not report["exactness"]["ok"] and not report["ok"]


class TestModularExactness:
    """A differential broken after the build fails d.d = 0, so no block is
    settled by bounds: each prints null ranks and is not ok, a verdict the
    oracle's exact ranks must allow."""

    @staticmethod
    def assert_unsettled_and_sound(res):
        """Every block in the budget is unsettled; returns the exact ranks."""
        got = verify_resolution(res)
        assert not got["dd_zero"]["ok"]
        degree = got["exactness"]["degree"]
        assert len(got["exactness"]["blocks"]) == \
            (res.max_level + 1) * (degree + 1)
        assert_unsettled(got)
        return assert_verdicts_sound(res, got), degree

    @pytest.mark.parametrize("name", ["x2xy", "xyzx"])
    def test_sign_flip_matches_exact_ranks(self, name):
        res = AnickResolution(nc_buchberger(presentation_sample(name), 8), 3)
        row = dict(res.diff[2][0])
        key = next(iter(row))
        row[key] = -row[key]
        res.diff[2][0] = row
        self.assert_unsettled_and_sound(res)

    def test_lower_term_flip_keeps_the_leading_term_shape(self):
        # the leading terms still pass checks (a)-(c) and their bounds miss
        # the exact ranks, so only the failed d.d = 0 keeps them out
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 8), 3)
        row = dict(res.diff[2][0])
        key = list(row)[-1]
        row[key] = -row[key]
        res.diff[2][0] = row
        ranks, degree = self.assert_unsettled_and_sound(res)
        bounds = leading_term_ranks(res, degree)
        assert bounds is not None
        assert any(bounds[n][d] != rank for (n, d), rank in ranks.items())


def diff_coefficients(res):
    return [v for rows in res.diff.values() for row in rows
            for v in row.values()]


class TestIntegrality:
    @pytest.mark.parametrize("name", ["free3", "x2xy", "x2y2", "xyzx",
                                      "B1", "B2", "B3"])
    def test_monic_integral_basis_gives_int_differentials(self, name):
        pres = (make_bn(int(name[1:])) if name.startswith("B")
                else presentation_sample(name))
        coeffs = diff_coefficients(AnickResolution(nc_buchberger(pres, 6), 3))
        assert coeffs
        assert all(type(v) is int for v in coeffs)

    def test_non_monic_presentation_stays_exact(self):
        res = AnickResolution(nc_buchberger(presentation_non_monic(), 8), 3)
        assert Fraction(-3, 2) in diff_coefficients(res)
        report = verify_resolution(res)
        assert report["ok"]
        words = normal_words(res.gb, report["exactness"]["degree"])
        for block in report["exactness"]["blocks"]:
            n, d = block["level"], block["degree"]
            cols = block_columns(res, n + 1, d, words)
            assert block["rank_in"] == sparse_rank(cols)
            if n >= 0:
                cols = block_columns(res, n, d, words)
                assert block["rank_out"] == sparse_rank(cols)


    @pytest.mark.parametrize("name", ["x2xy", "xyzx", "B2", "nonmonic"])
    def test_cached_normal_forms_match_nc_normal_form(self, name):
        # the resolution reduces through its own tip matcher and int rules;
        # every word it reduced must have the library's normal form
        pres = (make_bn(2) if name == "B2" else presentation_non_monic()
                if name == "nonmonic" else presentation_sample(name))
        res = AnickResolution(nc_buchberger(pres, 8), 3)
        assert len(res._nf_cache) > 10
        for word, terms in res._nf_cache.items():
            want = nc_normal_form(pres, pres.monomial_poly(word), res.gb.basis)
            assert terms == want.terms
            if name != "nonmonic":
                assert all(type(c) is int for _, c in terms)


class TestOneTipMatcher:
    """The basis builds its tip matcher once and every consumer reads it:
    constructions of WordMatcher are counted by wrapping its __init__."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = WordMatcher.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WordMatcher, "__init__", counting)
        return built

    def test_resolution_reads_the_basis_tips(self, built):
        # completion's own matcher and the basis's tips, which the tail
        # graph reads too
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 8), 3)
        report = verify_resolution(res)
        assert report["ok"]
        assert len(built) == 2
        assert any(m is res.gb.tips for m in built)

    @pytest.mark.parametrize("argv, most", [
        (["gb"], 2), (["nf", "x*y*x"], 2), (["chains"], 2), (["hilbert"], 2),
        (["anick"], 2), (["tor"], 2)])
    def test_commands(self, built, capsys, argv, most):
        # completion's matcher, then gb.tips where the command reads it, or
        # nf's own matcher
        code = cli_main([argv[0], str(SAMPLES / "x2xy.alg"), *argv[1:]])
        capsys.readouterr()
        assert code == 0
        assert len(built) <= most

    @pytest.mark.parametrize("argv, most", [
        (["gb"], 2), (["hilbert"], 2), (["chains"], 2),
        (["nf", "x*y*x*y*y"], 3)])
    def test_inhomogeneous_certificate_reads_the_tips(self, built, capsys,
                                                      monkeypatch, argv, most):
        # the certificate finds the overlaps through gb.tips; nf adds its
        # own matcher
        monkeypatch.setattr("sys.stdin", stdin_of(
            "algebra h; kind noncommutative; generators x y; "
            "order deglex x > y; relations x*y*x = y; y*y = x;"))
        code = cli_main([argv[0], "-", *argv[1:]])
        capsys.readouterr()
        assert code == 0
        assert len(built) <= most


class TestOneDdCheck:
    """The constructor builds each column with ``split`` and no audit, and
    ``dd_failures`` checks the stored columns once per command: calls are
    counted by wrapping the methods and functions by name."""

    @staticmethod
    def counting(calls, fn):
        def wrapped(*args):
            calls.append(args)
            return fn(*args)
        return wrapped

    def test_constructor_splits_once_per_column(self, monkeypatch):
        # one split per column with a splitting, each with its level's
        # shared memo
        calls = []
        monkeypatch.setattr(AnickResolution, "split",
                            self.counting(calls, AnickResolution.split))
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 10), 5)
        assert res.split_checks == len(calls) == 381
        shared = {(m, id(memo)) for _, m, _, memo in calls}
        assert sorted(m for m, _ in shared) == [0, 1, 2, 3, 4]

    def test_verification_applies_d_once_per_column(self, monkeypatch):
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 10), 5)
        calls = []
        monkeypatch.setattr(AnickResolution, "apply_d",
                            self.counting(calls, AnickResolution.apply_d))
        report = verify_resolution(res)
        assert report["ok"]
        assert len(calls) == report["dd_zero"]["checked"]

    @pytest.mark.parametrize("command, tensored", [("anick", 0), ("tor", 1)])
    def test_commands(self, monkeypatch, capsys, command, tensored):
        checks, built = [], []
        wrapped = self.counting(checks, resolution.dd_failures)
        monkeypatch.setattr(resolution, "dd_failures", wrapped)
        monkeypatch.setattr("anick.cli.dd_failures", wrapped)
        prop = functools.cached_property(
            self.counting(built, AnickResolution.tensored.func))
        prop.__set_name__(AnickResolution, "tensored")
        monkeypatch.setattr(AnickResolution, "tensored", prop)
        code = cli_main([command, str(SAMPLES / "x2xy.alg")])
        capsys.readouterr()
        assert code == 0
        assert (len(checks), len(built)) == (1, tensored)


class TestOneNormalWordTable:
    """The resolution builds its normal-word table on first read and keeps
    it: builds are counted by wrapping ``_normal_word_table`` in both
    modules that call it."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        table = noncommutative._normal_word_table

        def counting(*args):
            built.append(args)
            return table(*args)

        for module in (noncommutative, resolution):
            monkeypatch.setattr(module, "_normal_word_table", counting)
        return built

    def test_verification_builds_one_table(self, built):
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 8), 3)
        assert built == []
        assert verify_resolution(res)["ok"]
        assert leading_term_ranks(res, 5) is not None
        assert len(built) == 1
        assert res.hilbert is res.normal_word_table[()]

    @pytest.mark.parametrize("command, count", [("anick", 1), ("tor", 0)])
    def test_commands(self, built, capsys, command, count):
        code = cli_main([command, str(SAMPLES / "x2xy.alg")])
        capsys.readouterr()
        assert code == 0
        assert len(built) == count


def reference_split(res, m, elem):
    """Splitting i_m for m >= 0 by scanning: key every pending pair on each
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


def random_element(res, rng, n, degree):
    """A homogeneous element of C_n (x) A: up to four random n-chains, each
    with a random normal word of the degree, with small coefficients."""
    x = {}
    for ci, c in rng.sample(list(enumerate(res.levels[n])),
                            min(len(res.levels[n]), 4)):
        w = random_normal_word(res, rng, degree - c.degree)
        if c.degree <= degree and w is not None:
            x[(ci, w)] = rng.choice((-2, -1, 1, 3))
    return x


def assert_splits_match_reference(res, rng, kernel_samples):
    """Split every row of every d_n, and kernel_samples images d_n(x) of
    random homogeneous x per level, both ways, from level 0 up.  Then split
    kernel_samples random elements of normal-word basis pairs per level,
    which are mostly not images of d, so most splittings raise: both ways
    must return the same element or raise the same message.  The pairs of
    the sample that factor as g.c must include some with c empty, whose
    column ``split`` reads as stored, and some with c nonempty, whose
    products it reduces."""
    met = set()
    for n in range(res.max_level + 1):
        for row in res.diff[n]:
            assert outcome(audited_split, res, n, row) == \
                outcome(reference_split, res, n, row)
            note_factor_kinds(res, n, row, met)
    for n in range(res.max_level + 1):
        chains = list(enumerate(res.levels[n]))
        for _ in range(kernel_samples if chains else 0):
            d = rng.randint(min(c.degree for _, c in chains), res.max_degree)
            x = {}
            for ci, c in rng.sample(chains, min(len(chains), 4)):
                w = random_normal_word(res, rng, d - c.degree)
                if c.degree <= d and w is not None:
                    x[(ci, w)] = rng.choice((-2, -1, 1, 3))
            u = res.apply_d(n, x)
            assert outcome(audited_split, res, n, u) == \
                outcome(reference_split, res, n, u)
            note_factor_kinds(res, n, u, met)
    for n in range(res.max_level + 1):
        below = res.levels[n - 1]
        for _ in range(kernel_samples if below else 0):
            d = rng.randint(min(c.degree for c in below), res.max_degree)
            y = random_element(res, rng, n - 1, d)
            assert outcome(audited_split, res, n, y) == \
                outcome(reference_split, res, n, y)
            note_factor_kinds(res, n, y, met)
    assert met == {True, False}


def note_factor_kinds(res, m, elem, met):
    """Add to met, for each pair of elem that factors as g.c at level m,
    whether c is empty."""
    for ci, s in elem:
        gc = reference_factor(res, m, res.levels[m - 1][ci], s)
        if gc is not None:
            met.add(gc[1] == ())


def random_right_factors(res, rng, n):
    """An element of C_n (x) A on up to four random n-chains: each has the
    empty word or, half the time when the degree bound leaves room, a random
    normal word, and an int or Fraction coefficient, 0 included."""
    x = {}
    for ci, c in rng.sample(list(enumerate(res.levels[n])),
                            min(len(res.levels[n]), 4)):
        w = ()
        if c.degree < res.max_degree and rng.random() < 0.5:
            w = random_normal_word(
                res, rng, rng.randint(c.degree + 1, res.max_degree) - c.degree)
        if w is not None:
            x[ci, w] = rng.choice((-2, 0, 1, 3, Fraction(1, 2),
                                   Fraction(-5, 3)))
    return x


XY = presentation_free("x y")
XYZ = presentation_free("x y z")


@st.composite
def graded_presentations(draw, algebras=(XY, XYZ), relation_counts=(2, 4),
                         degrees=(4, 7)):
    """Homogeneous relations of degree 2-3 with 1-3 terms over one of
    ``algebras`` (2 or 3 generators), as many as ``relation_counts``
    allows (2-4), a level 2-4 and a degree in ``degrees`` (4-7); both
    ranges are inclusive."""
    pres = draw(st.sampled_from(algebras))
    relations = []
    for _ in range(draw(st.integers(*relation_counts))):
        word = st.integers(2, 3).flatmap(lambda n: st.tuples(
            *[st.integers(0, pres.ngens - 1)] * n))
        terms = draw(st.dictionaries(
            word, st.integers(-2, 2).filter(bool), min_size=1, max_size=3))
        top = max(len(w) for w in terms)
        relations.append(pres.poly(
            {w: c for w, c in terms.items() if len(w) == top}))
    return (pres.with_relations(relations), draw(st.integers(2, 4)),
            draw(st.integers(*degrees)))


def wide_presentations():
    """1-3 relations over three generators at degree 8-9: few relations on
    three letters, so the algebra grows fast and most examples pass the
    rank budget that caps the printed exactness degree."""
    return graded_presentations(algebras=(XYZ,), relation_counts=(1, 3),
                                degrees=(8, 9))


@st.composite
def x2xy_like_presentations(draw):
    """x2xy's relation x^2 = x*y, whose resolution is not minimal, over 2-3
    generators of weight 1-2: a^2 = c*a*b for one or two pairs of a larger
    generator a and a smaller b of one weight w, with c in {1, -1, 2}; a
    level 3-5 and a degree 6w-9w, so the family's chains reach level 3."""
    names = ["x", "y", "z"][:draw(st.integers(2, 3))]
    weights = [draw(st.integers(1, 2)) for _ in names]
    a, b = sorted(draw(st.lists(st.integers(0, len(names) - 1), min_size=2,
                                max_size=2, unique=True)))
    weights[b] = weights[a]
    pairs = [(a, b)]
    others = [(i, j) for i in range(len(names))
              for j in range(i + 1, len(names))
              if weights[i] == weights[j] and i != a]
    if others and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(others)))
    relations = "; ".join(
        f"{names[i]}^2 = {draw(st.sampled_from([1, -1, 2]))}*{names[i]}*"
        f"{names[j]}" for i, j in pairs)
    gens = " ".join(f"{nm}:{w}" for nm, w in zip(names, weights))
    pres = parse_presentation(
        f"algebra r; kind noncommutative; generators {gens}; "
        f"order deglex {' > '.join(names)}; relations {relations};")
    return (pres, draw(st.integers(3, 5)),
            weights[a] * draw(st.integers(6, 9)))


class TestResolutionTables:
    """The module dimensions and the Hilbert counts, read off the
    resolution's one normal-word table, against enumerated words."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graded_presentations())
    def test_dims_count_basis_pairs(self, case):
        # dims[n][d] counts the pairs (c, w) of C_n (x) A in degree d, and
        # hilbert is the normal-word count, read off the shared table
        pres, level, degree = case
        res = AnickResolution(nc_buchberger(pres, degree), level)
        words = normal_words(res.gb, res.max_degree)
        assert set(res.dims) == set(range(-1, level + 1))
        for n, row in res.dims.items():
            assert row == [sum(len(words[d - c.degree]) for c in res.levels[n]
                               if c.degree <= d) for d in range(degree + 1)]
        assert res.hilbert == count_normal_words(pres, res.gb.tips, degree)
        assert res.hilbert == [len(words[d]) for d in range(degree + 1)]


class TestSplitOracle:
    """The memoized splitting and child tries in ``split`` against the chain
    scan, at every level including i_0."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graded_presentations(), st.randoms(use_true_random=False))
    def test_random_graded_presentations(self, case, rng):
        pres, level, degree = case
        res = AnickResolution(nc_buchberger(pres, degree), level)
        assert_splits_match_reference(res, rng, kernel_samples=5)

    @pytest.mark.parametrize("name, level, degree", [
        ("x2xy", 4, 10), ("xyzx", 4, 9), ("B1", 4, 10), ("B2", 4, 9)])
    def test_samples_and_bn(self, name, level, degree):
        pres = (make_bn(int(name[1:])) if name.startswith("B")
                else presentation_sample(name))
        res = AnickResolution(nc_buchberger(pres, degree), level)
        assert_splits_match_reference(res, random.Random(name),
                                      kernel_samples=50)


class TestApplyDOracle:
    """``apply_d`` against ``reference_apply_d``, which normal-forms every
    product word, on elements that mix empty and nonempty right factors with
    int and Fraction coefficients."""

    def test_random_graded_presentations(self):
        met = set()

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(graded_presentations(), st.randoms(use_true_random=False))
        def check(case, rng):
            pres, level, degree = case
            res = AnickResolution(nc_buchberger(pres, degree), level)
            for n in range(res.max_level + 1):
                for _ in range(3):
                    x = random_right_factors(res, rng, n)
                    assert res.apply_d(n, x) == reference_apply_d(res, n, x)
                    met.update((bool(w), type(v)) for (_, w), v in x.items()
                               if v)

        check()
        assert met == {(False, int), (True, int), (False, Fraction),
                       (True, Fraction)}


class TestChildLookup:
    """The lemma that lets ``split`` look for a pair's chain among its
    parent's children only: the (m-1)-chain word that is a prefix of an
    m-chain's word is its parent's word, and no other; and ``_factor``
    finds each child from its tail among the edges out of its parent's
    tail, as the scan of every chain of the level does."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graded_presentations())
    def test_parent_is_the_only_prefix_one_level_down(self, case):
        pres, level, degree = case
        res = AnickResolution(nc_buchberger(pres, degree), level)
        for m in range(res.max_level + 1):
            below = {f.word for f in res.levels[m - 1]}
            for g in res.levels[m]:
                assert [g.word[:k] for k in range(len(g.word) + 1)
                        if g.word[:k] in below] == [g.parent.word]
            for gi, g in enumerate(res.levels[m]):
                assert res._factor(m, g.parent, g.tail) == (gi, ())
                assert res._factor(m, g.parent, g.tail + (0, 1)) == \
                    (gi, (0, 1))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graded_presentations(), st.randoms(use_true_random=False))
    def test_factor_against_the_scan(self, case, rng):
        # on normal words, which make basis pairs, and on words that need
        # not be normal, which the splitting may meet in a column
        pres, level, degree = case
        res = AnickResolution(nc_buchberger(pres, degree), level)
        for m in range(res.max_level + 1):
            for f in res.levels[m - 1]:
                for _ in range(4):
                    d = rng.randint(0, res.max_degree - f.degree)
                    for s in (random_normal_word(res, rng, d),
                              tuple(rng.randrange(pres.ngens)
                                    for _ in range(rng.randint(0, 6)))):
                        if s is not None:
                            assert res._factor(m, f, s) == \
                                reference_factor(res, m, f, s)


class TestPrintOrder:
    """The entries of every d_n that ``anick --format json`` prints, against
    the reference that groups each column by row and sorts each row's terms
    by ``heap_key``: the one sort of a column's keys gives the same order."""

    @staticmethod
    def assert_printed_as_reference(case):
        pres, level, degree = case
        code, out, err = run_on_stdin(serialize_presentation(pres), [
            "anick", "-", "--max-level", str(level), "--max-degree",
            str(degree), "--format", "json"])
        assert code == 0, err
        printed = json.loads(out)["differentials"]
        res = AnickResolution(nc_buchberger(pres, degree), level)
        assert {n: d["entries"] for n, d in printed.items()} == \
            reference_entries(res)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graded_presentations())
    def test_graded_presentations(self, case):
        self.assert_printed_as_reference(case)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(x2xy_like_presentations())
    def test_weighted_presentations(self, case):
        self.assert_printed_as_reference(case)


class TestTorOracle:
    """``tor_dimensions``, which ranks each block on its columns by
    fraction-free elimination, in reverse order, against dense ``sympy``
    ranks."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graded_presentations())
    def test_random_graded_presentations(self, case):
        pytest.importorskip("sympy")
        pres, level, degree = case
        res = AnickResolution(nc_buchberger(pres, degree), level)
        assert tor_dimensions(res) == reference_tor_dimensions(res)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(x2xy_like_presentations())
    def test_x2xy_like_presentations(self, case):
        # graded_presentations seldom give a nonzero tensored block
        pytest.importorskip("sympy")
        pres, level, degree = case
        res = AnickResolution(nc_buchberger(pres, degree), level)
        assert tor_dimensions(res) == reference_tor_dimensions(res)

    @staticmethod
    def assert_named_matches(name, level, degree):
        pytest.importorskip("sympy")
        res = AnickResolution(nc_buchberger(presentation_named(name), degree),
                              level)
        assert tor_dimensions(res) == reference_tor_dimensions(res)

    @pytest.mark.parametrize("name, level, degree", [
        ("x2xy", 5, 10), ("B2", 4, 8)])
    def test_x2xy_and_b2(self, name, level, degree):
        self.assert_named_matches(name, level, degree)

    @pytest.mark.parametrize("name, level, degree", [
        ("xyzx", 4, 10), ("B1", 4, 8), ("B3", 4, 8)])
    def test_xyzx_and_bn(self, name, level, degree):
        self.assert_named_matches(name, level, degree)


class TestTorFill:
    """The claim in ``tor_dimensions`` that its pivots do not fill: each
    column it passes to ``sparse_rank`` settles as a pivot unreduced, or
    vanishes."""

    def test_reversed_columns_settle_as_given(self, monkeypatch):
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 14), 6)
        want = tor_dimensions(res)
        settled, vanished = [], []

        def spy(rows):
            pivots = {}
            for raw in rows:
                row = _integral_row(raw)
                c = _reduce_row(dict(row), pivots)
                if c is None:
                    vanished.append(row)
                else:
                    assert pivots[c] == row
                    settled.append(row)
            return len(pivots)

        monkeypatch.setattr(resolution, "sparse_rank", spy)
        assert tor_dimensions(res) == want
        assert (len(settled), len(vanished)) == (1585, 2497)


def random_word(pres, rng, degree):
    """A random word of the weighted degree, or None when the letters drawn
    leave a remainder that no generator fits."""
    word = ()
    while degree:
        fits = [g for g in range(pres.ngens)
                if pres.generator_degree(g) <= degree]
        if not fits:
            return None
        g = rng.choice(fits)
        word, degree = word + (g,), degree - pres.generator_degree(g)
    return word


def random_homogeneous(pres, rng, max_degree):
    """A nonzero homogeneous polynomial of degree <= max_degree: a sum of
    1-3 products c*u*r*v of one degree, r a relation, and half the time a
    word of that degree more; None when no draw gives one."""
    least = min(pres.poly_degree(r) for r in pres.relations)
    if least > max_degree:
        return None
    d = rng.randint(least, max_degree)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        r = rng.choice([r for r in pres.relations if pres.poly_degree(r) <= d])
        w = random_word(pres, rng, d - pres.poly_degree(r))
        if w is None:
            continue
        cut, c = rng.randint(0, len(w)), rng.choice((-2, -1, 1, 3))
        for m, a in r.terms:
            m = w[:cut] + m + w[cut:]
            terms[m] = terms.get(m, 0) + c * a
    w = random_word(pres, rng, d) if rng.random() < 0.5 else None
    if w is not None:
        terms[w] = terms.get(w, 0) + rng.choice((-1, 1, 2))
    f = pres.poly(terms)
    return f if f.terms else None


class TestSpanOracle:
    """Every count that rests on the completed basis's tips, and ``nf``'s
    membership verdict, against the span oracle, which reads the
    relations' span alone: a basis that resolves its own overlaps but spans
    the wrong ideal fails here."""

    def check_counts(self, pres, level, degree):
        dims, minimal = span_counts(pres, degree)
        gb = nc_buchberger(pres, degree)
        res = AnickResolution(gb, level)
        assert list(hilbert_from_normal_words(gb, degree)) == dims
        assert list(hilbert_from_chains(pres, gb.tips, degree)) == dims
        assert res.hilbert == dims
        tor = tor_dimensions(res)
        assert tor[1] == {d: k for d, k in enumerate(minimal) if k}
        weights = [g.degree for g in pres.generators]
        assert tor[0] == {w: weights.count(w) for w in set(weights)}

    def check_membership(self, pres, degree, rng):
        """f is in I_d exactly when adding it to the echelon form of I_d
        leaves the rank unchanged."""
        for _ in range(4):
            f = random_homogeneous(pres, rng, degree)
            if f is not None:
                args = argparse.Namespace(poly=pres.format_poly(f),
                                          max_degree=degree, format="json")
                assert cmd_nf(pres, args)["member"] == span_member(pres, f)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graded_presentations(), st.randoms(use_true_random=False))
    def test_random_graded_presentations(self, case, rng):
        pres, level, degree = case
        self.check_counts(pres, level, degree)
        self.check_membership(pres, degree, rng)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(x2xy_like_presentations(), st.randoms(use_true_random=False))
    def test_weighted_presentations(self, case, rng):
        """Generators of weight 1-2, where the oracle counts words by
        weighted degree."""
        pres, level, degree = case
        self.check_counts(pres, level, degree)
        self.check_membership(pres, degree, rng)


def combine(a, u, b, v):
    """a u + b v, with no zero coefficients."""
    out = {k: a * u.get(k, 0) + b * v.get(k, 0) for k in {**u, **v}}
    return {k: c for k, c in out.items() if c}


class TestSplitLinearity:
    """The memoized splitting is a linear map, and each d_n is its head
    minus the oracle's splitting of d(head)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graded_presentations(), st.randoms(use_true_random=False))
    def test_random_graded_presentations(self, case, rng):
        pres, level, degree = case
        res = AnickResolution(nc_buchberger(pres, degree), level)
        for n in range(res.max_level + 1):
            if not res.levels[n]:
                continue
            d = rng.randint(min(c.degree for c in res.levels[n]), degree)
            u, v = (res.apply_d(n, random_element(res, rng, n, d))
                    for _ in range(2))
            a = rng.choice((-2, 1, 3))
            b = Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
            assert audited_split(res, n, combine(a, u, b, v)) == combine(
                a, audited_split(res, n, u), b, audited_split(res, n, v))
        for n in range(1, res.max_level + 1):
            index = res._word_index[n - 1]
            for chain, row in zip(res.levels[n], res.diff[n]):
                head = {(index[chain.parent.word], chain.tail): 1}
                tail = reference_split(res, n - 1, res.apply_d(n - 1, head))
                assert row == combine(1, head, -1, tail)


class TestSharedSplitMemo:
    """One memo may serve many ``split`` calls at a level: each call
    returns what it returns with a fresh memo, and on kernel elements what
    ``audited_split`` returns, failures included."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graded_presentations(), st.randoms(use_true_random=False))
    def test_random_graded_presentations(self, case, rng):
        pres, level, degree = case
        res = AnickResolution(nc_buchberger(pres, degree), level)
        for m in range(res.max_level + 1):
            shared = {}
            below = list(enumerate(res.levels[m - 1]))
            for _ in range(12 if below else 0):
                ci, c = rng.choice(below)
                d = rng.randint(c.degree, res.max_degree)
                w = random_normal_word(res, rng, d - c.degree)
                if w is None:
                    continue
                e = {(ci, w): 1}
                assert outcome(res.split, m, e, shared) == \
                    outcome(res.split, m, e, {})
            chains = res.levels[m]
            for _ in range(5 if chains else 0):
                d = rng.randint(min(c.degree for c in chains), res.max_degree)
                u = res.apply_d(m, random_element(res, rng, m, d))
                assert outcome(res.split, m, u, shared) == \
                    outcome(audited_split, res, m, u)


class TestPlantedZero:
    """A stored column that holds an explicit 0, at a pair above its head:
    read as it stands, the column would fail the descent check, so
    ``split`` and ``apply_d`` must drop the zero as the references do."""

    @pytest.mark.parametrize("name, level, degree", [
        ("x2xy", 4, 10), ("xyzx", 4, 9), ("x2y2", 4, 10)])
    def test_split_and_apply_d_drop_the_zero(self, name, level, degree):
        res = AnickResolution(nc_buchberger(presentation_named(name), degree),
                              level)
        pres, words = res.presentation, normal_words(res.gb, degree)
        planted = 0
        for m in range(1, level + 1):
            below, chains = res.levels[m - 1], [*enumerate(res.levels[m])]
            # the first and last two chains of the level
            for gi, g in chains[:2] + chains[2:][-2:]:
                above = next(((cj, u) for cj, f in enumerate(below)
                              if f.degree <= g.degree
                              for u in words[g.degree - f.degree]
                              if pres.heap_key(f.word + u)
                              < pres.heap_key(g.word)), None)
                if above is None:
                    continue
                column = res.diff[m][gi]
                res.diff[m][gi] = {**column, above: 0}
                # d_m(g) splits to g (x) 1 through the planted column
                assert outcome(audited_split, res, m, column) == \
                    outcome(reference_split, res, m, column) == {(gi, ()): 1}
                x = {(gi, ()): 3}
                if g.degree < degree:
                    x[gi, words[1][0]] = Fraction(1, 2)
                assert res.apply_d(m, x) == reference_apply_d(res, m, x)
                planted += 1
        assert planted >= 3


class TestSplitErrors:
    def test_no_factorization(self):
        # a lone generator is no (1-chain).(normal word)
        res = resolution_xfam()
        x = chain_index(res, 0, "x")
        with pytest.raises(AlgebraError, match="no .*factorization"):
            audited_split(res, 1, {(x, ()): 1})

    def test_failure_to_descend(self):
        # x (x) xx has the non-normal word xx: d_1(xx (x) x) leads with
        # x (x) nf(xx) = x (x) xy, so the lead x (x) xx is never cancelled
        res = resolution_xfam()
        x = chain_index(res, 0, "x")
        elem = {(x, res.presentation.word("x", "x")): 1}
        with pytest.raises(AlgebraError, match="failed to descend"):
            audited_split(res, 1, elem)
        assert outcome(reference_split, res, 1, elem) == \
            outcome(audited_split, res, 1, elem)

    def test_ambiguous_lead_on_a_repeated_chain_word(self):
        # the chain words of one level are prefix-free (a property in
        # test_chains), so two pairs never share a word, a word has at most
        # one chain factorization, and with descent no generator is
        # revisited; a tie needs a level with a copy of a chain
        res = AnickResolution(nc_buchberger(presentation_xfam(), 6), 2)
        res.levels[0] = res.levels[0] + (res.levels[0][0],)
        yx = res.presentation.word("y", "x")
        elem = {(0, yx): 1, (len(res.levels[0]) - 1, yx): 1}
        with pytest.raises(AlgebraError, match="ambiguous"):
            audited_split(res, 1, elem)


def test_readme_library_example(capsys):
    """The README's library example runs and prints what its comments say."""
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    promised = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    assert len(promised) == 2
    assert printed == promised


def presentation_named(name):
    if name == "nonmonic":
        return presentation_non_monic()
    return (make_bn(int(name[1:])) if name.startswith("B")
            else presentation_sample(name))


class TestLeadingTermRanks:
    """The lower bounds read off leading terms, against exact ranks."""

    @pytest.mark.parametrize("name", ["x2xy", "xyzx", "x2y2", "free3", "B1",
                                      "B2", "B3", "nonmonic"])
    def test_every_block_settled_by_leading_terms(self, name):
        res = AnickResolution(nc_buchberger(presentation_named(name), 8), 3)
        report = verify_resolution(res)
        assert report["ok"]
        degree = report["exactness"]["degree"]
        bounds = leading_term_ranks(res, degree)
        for (n, d), rank in exact_ranks(res, degree).items():
            assert bounds[n][d] == rank

    def test_past_the_built_degree(self):
        # no chain or differential exists past degree 6, so no bound
        pres = presentation_sample("x2xy")
        low = AnickResolution(nc_buchberger(pres, 6), 3)
        with pytest.raises(BoundError):
            leading_term_ranks(low, 9)
        high = leading_term_ranks(AnickResolution(nc_buchberger(pres, 9), 3), 9)
        assert high[1] == [0, 0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert leading_term_ranks(low, 6) == {
            n: row[:7] for n, row in high.items()}

    @staticmethod
    def assert_bounds_below_exact_ranks(res):
        """L <= the exact rank on every block within the rank budget, and
        every block is settled: its two bounds sum to its dimension and
        equal its exact ranks."""
        degree = block_rank_degree(res, 4000)
        bounds = leading_term_ranks(res, degree)
        assert bounds is not None
        ranks = exact_ranks(res, degree)
        for (n, d), rank in ranks.items():
            assert bounds[n][d] <= rank
        for n in range(-1, res.max_level):
            for d in range(degree + 1):
                assert bounds[n][d] + bounds[n + 1][d] == res.dims[n][d]
                assert (bounds[n][d], bounds[n + 1][d]) == \
                    (ranks[n, d], ranks[n + 1, d])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graded_presentations())
    def test_bounds_never_exceed_exact_ranks(self, case):
        pres, level, degree = case
        self.assert_bounds_below_exact_ranks(
            AnickResolution(nc_buchberger(pres, degree), level))

    @staticmethod
    def assert_settled_to_the_built_degree(res, budget):
        """The bounds settle every block to the built degree, past the cap
        of the printed exactness degree, and are the exact ranks of every
        block whose columns fit in budget (see ``exact_ranks``)."""
        bounds = leading_term_ranks(res, res.max_degree)
        assert bounds is not None
        for n in range(-1, res.max_level):
            for d in range(res.max_degree + 1):
                assert bounds[n][d] + bounds[n + 1][d] == res.dims[n][d]
        for (n, d), rank in exact_ranks(res, res.max_degree, budget).items():
            assert bounds[n][d] == rank

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graded_presentations())
    def test_bounds_settle_to_the_built_degree(self, case):
        pres, level, degree = case
        self.assert_settled_to_the_built_degree(
            AnickResolution(nc_buchberger(pres, degree), level), 300)

    def test_bounds_settle_past_the_printed_cap(self):
        # graded_presentations stay within the rank budget; these pass it
        capped = []

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(wide_presentations())
        def check(case):
            pres, level, degree = case
            res = AnickResolution(nc_buchberger(pres, degree), level)
            self.assert_settled_to_the_built_degree(res, 300)
            capped.append(block_rank_degree(res, 4000) < res.max_degree)

        check()
        assert sum(capped) >= 0.5 * len(capped)

    @pytest.mark.parametrize("name, level, degree, printed", [
        ("B1", 4, 10, 4), ("xyzx", 4, 10, 7)])
    def test_bounds_settle_past_the_printed_degree(self, name, level, degree,
                                                   printed):
        res = AnickResolution(nc_buchberger(presentation_named(name), degree),
                              level)
        assert verify_resolution(res)["exactness"]["degree"] == printed
        self.assert_settled_to_the_built_degree(res, 300)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_presentations(homogeneous=st.just(True), max_degree=6))
    def test_bounds_on_small_presentations(self, case):
        pres, degree = case
        try:
            res = AnickResolution(nc_buchberger(pres, degree), 3)
        except OneLetterTipError:
            return
        self.assert_bounds_below_exact_ranks(res)

    def test_doubled_head_declines(self):
        # the top differential has nothing above it, so d.d = 0 still holds;
        # scaling a column keeps every exact rank, but no block is settled
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 8), 3)
        res.diff[3][0] = {k: 2 * v for k, v in res.diff[3][0].items()}
        assert leading_term_ranks(res, 8) is None
        got = verify_resolution(res)
        assert got["dd_zero"]["ok"]
        assert_unsettled(got)
        ranks = assert_verdicts_sound(res, got)
        assert all(ranks[b["level"], b["degree"]] + ranks[b["level"] + 1,
                   b["degree"]] == b["dim"] for b in got["exactness"]["blocks"])

    def test_term_above_the_head_declines(self):
        # add to d_3(g) the column of some g' (x) w whose leading word is
        # larger than g: a column operation, so d.d = 0 and the ranks hold
        res = AnickResolution(nc_buchberger(presentation_sample("xyzx"), 8), 3)
        pres, top, index = res.presentation, res.levels[3], res._word_index[2]
        words = normal_words(res.gb, 8)
        ci, col = next(
            (ci, col) for ci, g in enumerate(top)
            for cj, h in enumerate(top) if h.degree < g.degree
            for w in words[g.degree - h.degree]
            if pres.heap_key(h.word + w) < pres.heap_key(g.word)
            for col in [res.apply_d(3, {(cj, w): 1})]
            if col and (index[g.parent.word], g.tail) not in col)
        row = dict(res.diff[3][ci])
        for k, v in col.items():
            row[k] = row.get(k, 0) + v
        res.diff[3][ci] = {k: v for k, v in row.items() if v}
        assert leading_term_ranks(res, 8) is None
        got = verify_resolution(res)
        assert got["dd_zero"]["ok"]
        assert_unsettled(got)
        assert_verdicts_sound(res, got)

    @staticmethod
    def replace_top_chain(res, k, parent, tail):
        """Put a chain with this parent and tail at index k of the top
        level, with its bare head as its differential."""
        top = list(res.levels[res.max_level])
        word = parent.word + tail
        top[k] = Chain(word=word, degree=res.presentation.monomial_degree(word),
                       tail=tail, parent=parent)
        res.levels[res.max_level] = tuple(top)
        res.diff[res.max_level][k] = {
            (res._word_index[res.max_level - 1][parent.word], tail): 1}

    def test_tail_holding_a_tip_declines(self):
        # extend one chain's tail by a whole tip: t.w is never normal, so
        # no column of that chain has the leading pair counted for it
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 8), 3)
        g = res.levels[3][0]
        self.replace_top_chain(res, 0, g.parent,
                               g.tail + res.gb.basis[0].leading[0])
        assert leading_term_ranks(res, 8) is None
        got = verify_resolution(res)
        assert_unsettled(got)
        assert_verdicts_sound(res, got)

    def test_tail_prefix_of_a_sibling_declines(self):
        # give one chain the parent of another and a proper prefix of its
        # tail
        res = AnickResolution(nc_buchberger(presentation_sample("x2xy"), 8), 3)
        top = res.levels[3]
        ci, g = next((ci, g) for ci, g in enumerate(top) if len(g.tail) > 1)
        cj = next(cj for cj in range(len(top)) if cj != ci)
        self.replace_top_chain(res, cj, g.parent, g.tail[:-1])
        assert leading_term_ranks(res, 8) is None
        got = verify_resolution(res)
        assert_unsettled(got)
        assert_verdicts_sound(res, got)
