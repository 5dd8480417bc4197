"""Acceptance gate: the nine headline results, one printed verdict each.

Every check uses exact rational arithmetic, so every comparison below is
exact equality.  Each test prints a single ``[acceptance]`` line to the real
terminal (bypassing capture) before asserting, so a full run always shows
nine verdicts.
"""

import json

from anick.chains import TailGraph, enumerate_chains
from anick.cli import main as cli_main
from anick.commutative import comm_buchberger, comm_reduce_basis
from anick.hilbert import hilbert_from_chains, hilbert_from_normal_words
from anick.noncommutative import antichain_matcher, nc_buchberger
from anick.presentation import make_bn, parse_poly, parse_presentation
from anick.resolution import (
    AnickResolution,
    is_minimal,
    tor_dimensions,
    verify_resolution,
)
from oracles import free_product_series, verify_diamond

_CACHE = {}


def cached(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def pres_nc(body, name="t"):
    return parse_presentation(f"algebra {name}; kind noncommutative; {body}")


def pres_x2xy():
    return pres_nc("generators x y; order deglex x > y; relations x^2 = x*y;",
                   name="x2xy")


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {number}: {verdict} - {detail}")
    assert ok, detail


def fmt_set(pres, polys):
    return {pres.format_poly(g) for g in polys}


def words_of(pres, cs, level):
    return [pres.format_monomial(w) for w in cs.words(level)]


def test_criterion_1_commutative_reduced_basis(capsys):
    pres = parse_presentation("""
        algebra comm1; kind commutative;
        generators x1 x2; order deglex x1 > x2;
        relations x1^2 + x2^2; x1^3 + x2^3;
    """)
    basis = comm_reduce_basis(comm_buchberger(pres)).basis
    got = fmt_set(pres, basis)
    want = {"x1^2 + x2^2", "x1*x2^2 - x2^3", "x2^4"}
    _report(capsys, 1, got == want,
            f"reduced basis {sorted(got)}" if got == want
            else f"got {sorted(got)}, want {sorted(want)}")


def test_criterion_2_noncommutative_completion_families(capsys):
    p1 = pres_x2xy()
    gb1 = nc_buchberger(p1, max_degree=8)
    want1 = [parse_poly(p1, "x^2 - x*y")] + [
        parse_poly(p1, f"x*y^{i} - x*y^{i - 1}*x") for i in range(2, 8)]
    ok1 = list(gb1.basis) == want1

    p2 = pres_nc("generators x y z; order deglex x > y > z; "
                 "relations x^2; x*y = z*x;", name="xyzx")
    gb2 = nc_buchberger(p2, max_degree=8)
    want2 = [parse_poly(p2, "x^2"), parse_poly(p2, "x*y - z*x")] + [
        parse_poly(p2, f"x*z^{i}*x") for i in range(1, 7)]
    ok2 = list(gb2.basis) == want2

    deep = nc_buchberger(p1, max_degree=10)
    low = {g for g in deep.basis if p1.poly_degree(g) <= 8}
    ok3 = low == set(gb1.basis)

    ok = ok1 and ok2 and ok3
    _report(capsys, 2, ok,
            "both degree-8 families exact; degree-10 rerun preserves them"
            if ok else f"family1={ok1} family2={ok2} stability={ok3}")


def test_criterion_3_bn_relations_self_complete(capsys):
    results = []
    for n in (1, 2, 3):
        pres = make_bn(n)
        gb = nc_buchberger(pres, max_degree=12)
        same = fmt_set(pres, gb.basis) == fmt_set(pres, pres.relations)
        checked = verify_diamond(gb)
        results.append((n, same, checked))
    ok = all(same for _, same, _ in results)
    detail = "; ".join(
        f"B{n}: basis == relations, {checked} S-polynomial checks"
        for n, same, checked in results)
    _report(capsys, 3, ok, detail)


def test_criterion_4_chain_enumeration(capsys):
    problems = []

    # single cube relation: levels 1..3 are x^3, x^4, x^6 and x^5 is absent
    p = pres_nc("generators x; order deglex x;")
    cs = enumerate_chains(TailGraph(
        p, antichain_matcher(p, [p.word("x", "x", "x")]), 3, 9))
    if words_of(p, cs, 1) != ["x^3"] or words_of(p, cs, 2) != ["x^4"] \
            or words_of(p, cs, 3) != ["x^6"]:
        problems.append("cube-relation levels differ")

    # sum of squares: level n is {x^n y^2, x^(n+1)} for n <= 6
    p = pres_nc("generators x y; order deglex x > y; relations x^2 + y^2;")
    gb = nc_buchberger(p, max_degree=8)
    tips = [g.leading[0] for g in gb.basis]
    cs = enumerate_chains(TailGraph(p, antichain_matcher(p, tips), 6, 8))
    for n in range(1, 7):
        want = {"x" + (f"^{n}" if n > 1 else "") + "*y^2",
                f"x^{n + 1}" if n else "x"}
        if set(words_of(p, cs, n)) != want:
            problems.append(f"square-relation level {n}")

    # B1: five explicit levels with counts 6,5,6,5,6
    p = make_bn(1)
    gb = nc_buchberger(p, max_degree=12)
    tips = [g.leading[0] for g in gb.basis]
    cs = enumerate_chains(TailGraph(p, antichain_matcher(p, tips), 5, 16))
    counts = [len(cs.levels[n]) for n in range(1, 6)]
    if counts != [6, 5, 6, 5, 6]:
        problems.append(f"B1 counts {counts}")
    if set(words_of(p, cs, 2)) != {
            "a1*b1*c1*a1", "c1*a1*b1*c1", "c1*a1*b1*a0",
            "b1*c1*a1*b1", "c0*c1*a1*b1"}:
        problems.append("B1 level-2 words")

    # B2: the periodic families plus the easily-missed c0*c1*c2 family,
    # which the one-occurrence condition admits and exactness requires;
    # with it the level 1..4 counts are 10,10,12,11
    p = make_bn(2)
    gb = nc_buchberger(p, max_degree=12)
    tips = [g.leading[0] for g in gb.basis]
    cs = enumerate_chains(TailGraph(p, antichain_matcher(p, tips), 4, 12))
    listed = {
        1: ["a2*b2*c2", "c0*a0", "c1*a1*b1", "c2*a2*b2", "b1*c1*a1",
            "b2*c2*a2", "c0*c1", "c1*c2", "b1*a0", "b2*a1"],
        2: ["a2*b2*c2*a2", "c1*a1*b1*a0", "c1*a1*b1*c1*a1", "c2*a2*b2*c2",
            "c2*a2*b2*a1", "b1*c1*a1*b1", "b2*c2*a2*b2", "c0*c1*a1*b1",
            "c1*c2*a2*b2"],
        3: ["a2*b2*c2*a2*b2*c2", "c1*a1*b1*c1*a1*b1", "c2*a2*b2*c2*a2*b2",
            "b1*c1*a1*b1*a0", "b1*c1*a1*b1*c1*a1", "b2*c2*a2*b2*c2*a2",
            "b2*c2*a2*b2*a1", "c0*c1*a1*b1*a0", "c0*c1*a1*b1*c1*a1",
            "c1*c2*a2*b2*c2", "c1*c2*a2*b2*a1"],
        4: ["a2*b2*c2*a2*b2*c2*a2", "c1*a1*b1*c1*a1*b1*a0",
            "c1*a1*b1*c1*a1*b1*c1*a1", "b1*c1*a1*b1*c1*a1*b1",
            "b2*c2*a2*b2*c2*a2*b2", "c0*c1*a1*b1*c1*a1*b1",
            "c1*c2*a2*b2*c2*a2*b2", "c2*a2*b2*c2*a2*b2*c2",
            "c2*a2*b2*c2*a2*b2*a1"],
    }
    extras = {
        1: set(),
        2: {"c0*c1*c2"},
        3: {"c0*c1*c2*a2*b2"},
        4: {"c0*c1*c2*a2*b2*a1", "c0*c1*c2*a2*b2*c2"},
    }
    for n in range(1, 5):
        got = set(words_of(p, cs, n))
        missing = set(listed[n]) - got
        if missing:
            problems.append(f"B2 level {n} missing {sorted(missing)}")
        if got - set(listed[n]) != extras[n]:
            problems.append(
                f"B2 level {n} extras {sorted(got - set(listed[n]))}")
    b2_counts = [len(cs.levels[n]) for n in range(1, 5)]
    if b2_counts != [10, 10, 12, 11]:
        problems.append(f"B2 counts {b2_counts}")

    ok = not problems
    note = ("cube, square, B1 and B2 chain words all verified; B2 counts "
            "are 10,10,12,11 including the c0*c1*c2 family that the chain "
            "condition admits and exactness requires")
    _report(capsys, 4, ok, note if ok else "; ".join(problems))


def test_criterion_5_hilbert_pipelines(capsys):
    problems = []

    p = pres_nc("generators x y; order deglex x > y; relations x^2 + y^2;")
    gb = nc_buchberger(p, max_degree=12)
    h1 = hilbert_from_normal_words(gb, 12)
    h2 = hilbert_from_chains(
        p, antichain_matcher(p, [g.leading[0] for g in gb.basis]), 12)
    if list(h1) != [n + 1 for n in range(13)]:
        problems.append(f"square-relation counts {list(h1)}")
    if list(h2) != list(h1):
        problems.append("square-relation pipelines disagree")

    free3 = pres_nc("generators x y z; order deglex x > y > z;")
    gb3 = nc_buchberger(free3, max_degree=12)
    f1 = hilbert_from_normal_words(gb3, 12)
    f2 = hilbert_from_chains(free3, antichain_matcher(free3, []), 12)
    if list(f1) != [3 ** n for n in range(13)] or list(f2) != list(f1):
        problems.append("free-algebra counts")

    # free product of two lines against direct counting
    line = pres_nc("generators x; order deglex x; relations x^2;")
    gbl = nc_buchberger(line, max_degree=12)
    hl = hilbert_from_normal_words(gbl, 12)
    product = free_product_series(hl, hl)
    pair = pres_nc("generators x y; order deglex x > y; "
                   "relations x^2; y^2;")
    gbp = nc_buchberger(pair, max_degree=12)
    direct = hilbert_from_normal_words(gbp, 12)
    if list(product) != list(direct):
        problems.append(
            f"free product {list(product)} vs direct {list(direct)}")

    ok = not problems
    _report(capsys, 5, ok,
            "normal words, chain inverses, and the free-product identity "
            "agree to degree 12" if ok else "; ".join(problems))


def res_x2xy_wide():
    return cached("x2xy-4-12",
                  lambda: AnickResolution(nc_buchberger(pres_x2xy(), 12), 4))


def res_x2xy_deep():
    return cached("x2xy-3-14",
                  lambda: AnickResolution(nc_buchberger(pres_x2xy(), 14), 3))


def res_b1_wide():
    return cached("b1-5-16", lambda: AnickResolution(nc_buchberger(make_bn(1), 16), 5))


def res_b1_tor():
    return cached("b1-6-12", lambda: AnickResolution(nc_buchberger(make_bn(1), 12), 6))


def res_b2():
    return cached("b2-3-12", lambda: AnickResolution(nc_buchberger(make_bn(2), 12), 3))


def res_b2_deep():
    return cached("b2-4-12", lambda: AnickResolution(nc_buchberger(make_bn(2), 12), 4))


def test_criterion_6_resolution_verification(capsys):
    cases = [("x2xy levels<=4 degree<=12", res_x2xy_wide()),
             ("B1 levels<=5 degree<=16", res_b1_wide()),
             ("B2 levels<=3 degree<=12", res_b2())]
    problems = []
    details = []
    for label, res in cases:
        report = verify_resolution(res, rank_budget=120000)
        for part in ("dd_zero", "splitting", "euler", "exactness"):
            if not report[part]["ok"]:
                problems.append(f"{label}: {part} failed")
        details.append(f"{label}: d.d=0 ({report['dd_zero']['checked']} "
                       f"blocks), d(i(u))=u ({report['splitting']['checked']} "
                       f"kernels), exact ranks to degree "
                       f"{report['exactness']['degree']}")
    ok = not problems
    _report(capsys, 6, ok, "; ".join(details) if ok else "; ".join(problems))


def test_criterion_7_closed_form_differentials(capsys):
    problems = []
    res = res_x2xy_deep()
    pres = res.presentation

    def widx(level, text):
        return res._word_index[level][pres.word(*text.split())]

    def elem(level, terms):
        out = {}
        for cw, w, coeff in terms:
            key = (widx(level, cw), pres.word(*w.split()) if w else ())
            out[key] = out.get(key, 0) + coeff
        return {k: v for k, v in out.items() if v}

    def xw(*runs):
        return ("x " + " ".join("y " * n + "x" for n in runs)).strip()

    rng = range(4)
    for n1 in rng:
        got = res.diff[1][widx(1, xw(n1))]
        if got != elem(0, [("x", "y " * n1 + "x", 1),
                           ("x", "y " * (n1 + 1), -1)]):
            problems.append(f"d1({n1})")
    for n1 in rng:
        for n2 in rng:
            got = res.diff[2][widx(2, xw(n1, n2))]
            want = elem(1, [(xw(n1), "y " * n2 + "x", 1),
                            (xw(n1), "y " * (n2 + 1), -1),
                            (xw(n1 + n2 + 1), "", 1)])
            if got != want:
                problems.append(f"d2({n1},{n2})")
    for n1 in rng:
        for n2 in rng:
            for n3 in rng:
                got = res.diff[3][widx(3, xw(n1, n2, n3))]
                want = elem(2, [(xw(n1, n2), "y " * n3 + "x", 1),
                                (xw(n1, n2), "y " * (n3 + 1), -1),
                                (xw(n1, n2 + n3 + 1), "", 1),
                                (xw(n1 + n2 + 1, n3), "", -1)])
                if got != want:
                    problems.append(f"d3({n1},{n2},{n3})")

    # the periodic-family differentials at levels 2..5
    res1 = res_b1_wide()
    p1 = res1.presentation

    def bidx(level, text):
        return res1._word_index[level][p1.word(*text.split())]

    def belem(level, terms):
        out = {}
        for cw, w, coeff in terms:
            key = (bidx(level, cw), p1.word(*w.split()) if w else ())
            out[key] = out.get(key, 0) + coeff
        return {k: v for k, v in out.items() if v}

    def rep(block, times, tail=""):
        words = (block + " ") * times + tail
        return " ".join(words.split())

    def b1_expected(n):
        m, odd = divmod(n, 2)
        if odd:
            return [
                (rep("a1 b1 c1", m + 1),
                 [(rep("a1 b1 c1", m, "a1"), "b1 c1", 1)]),
                (rep("c1 a1 b1", m + 1),
                 [(rep("c1 a1 b1", m, "c1"), "a1 b1", 1),
                  (rep("c1 a1 b1", m, "a0"), "b0 c0", 1)]),
                (rep("b1 c1 a1", m + 1),
                 [(rep("b1 c1 a1", m, "b1"), "c1 a1", 1)]),
                (rep("b1 c1 a1", m, "b1 a0"),
                 [(rep("b1 c1 a1", m, "b1"), "a0", 1)]),
                ("c0 " + rep("c1 a1 b1", m, "c1"),
                 [("c0 " + rep("c1 a1 b1", m), "c1", 1)]),
                ("c0 " + rep("c1 a1 b1", m, "a0"),
                 [("c0 " + rep("c1 a1 b1", m), "a0", 1)]),
            ]
        return [
            (rep("a1 b1 c1", m, "a1"), [(rep("a1 b1 c1", m), "a1", 1)]),
            (rep("c1 a1 b1", m, "c1"), [(rep("c1 a1 b1", m), "c1", 1)]),
            (rep("c1 a1 b1", m, "a0"), [(rep("c1 a1 b1", m), "a0", 1)]),
            (rep("b1 c1 a1", m, "b1"),
             [(rep("b1 c1 a1", m), "b1", 1),
              (rep("b1 c1 a1", m - 1, "b1 a0"), "b0 c0", 1)]),
            ("c0 " + rep("c1 a1 b1", m),
             [("c0 " + rep("c1 a1 b1", m - 1, "c1"), "a1 b1", 1),
              ("c0 " + rep("c1 a1 b1", m - 1, "a0"), "b0 c0", 1)]),
        ]

    for n in range(2, 6):
        for chain_text, terms in b1_expected(n):
            got = res1.diff[n][bidx(n, chain_text)]
            if got != belem(n - 1, terms):
                problems.append(f"B1 d{n}({chain_text})")

    # the exceptional scalar correction in the second family
    res2 = res_b2()
    p2 = res2.presentation
    ci = res2._word_index[3][p2.word("c1", "c2", "a2", "b2", "a1")]
    got = res2.diff[3][ci]
    want = {}
    want[(res2._word_index[2][p2.word("c1", "c2", "a2", "b2")],
          p2.word("a1"))] = 1
    want[(res2._word_index[2][p2.word("c1", "a1", "b1", "c1", "a1")], ())] = -1
    if got != want:
        problems.append("B2 exceptional d3")

    ok = not problems
    _report(capsys, 7, ok,
            "d1/d2/d3 closed forms (all n_i in 0..3), periodic-family "
            "levels 2..5, and the exceptional scalar term all match"
            if ok else "; ".join(problems[:6]))


def test_criterion_8_minimality_and_tor(capsys):
    problems = []

    res1 = res_b1_tor()
    tensored = res1.tensored
    for n in range(0, 6):
        if tensored[n]:
            problems.append(f"B1 tensored d_{n} nonzero")
    minimal, witness = is_minimal(res1)
    if not minimal:
        problems.append(f"B1 reported non-minimal: {witness}")
    tor = tor_dimensions(res1)
    totals = [sum(tor[n].values()) for n in range(1, 6)]
    if totals != [6, 5, 6, 5, 6]:
        problems.append(f"B1 Tor totals {totals}")

    res2 = res_b2()
    minimal2, witness2 = is_minimal(res2)
    if minimal2 or witness2[0] != 3:
        problems.append(f"B2 minimality {minimal2}, witness {witness2}")

    ok = not problems
    _report(capsys, 8, ok,
            "B1 minimal with Tor totals 6,5,6,5,6 at levels 1..5; "
            "B2 non-minimal with a level-3 witness"
            if ok else "; ".join(problems))


def test_criterion_9_cli_determinism(capsys, tmp_path):
    sample = tmp_path / "probe.alg"
    sample.write_text(
        "algebra probe; kind noncommutative; generators x y; "
        "order deglex x > y; relations x^2 + y^2;")
    cases = [
        ["gb", str(sample), "--max-degree", "8"],
        ["chains", "--bn", "1", "--max-level", "4", "--max-degree", "12"],
        ["hilbert", str(sample), "--max-degree", "10"],
        ["anick", str(sample), "--max-level", "3", "--max-degree", "8"],
        ["tor", "--bn", "2", "--max-level", "2", "--max-degree", "10"],
        ["nf", str(sample), "x*y*x + y"],
    ]
    problems = []
    for case in cases:
        outputs = []
        for threads in ("1", "4", "1"):
            code = cli_main(case + ["--format", "json",
                                    "--threads", threads])
            captured = capsys.readouterr()
            if code != 0:
                problems.append(f"{case[0]} exited {code}")
                break
            outputs.append(captured.out)
        if len(set(outputs)) > 1:
            problems.append(f"{case[0]} output varies")
        else:
            json.loads(outputs[0])
    ok = not problems
    _report(capsys, 9, ok,
            f"{len(cases)} commands byte-identical across repeats and "
            "thread hints" if ok else "; ".join(problems))
