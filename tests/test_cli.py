"""End-to-end command-line behavior: output shapes, exit codes, determinism."""

import contextlib
import io
import json
import pathlib
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anick.cli import _series_json, build_parser, main
from anick.presentation import parse_presentation
from anick.resolution import AnickResolution
from oracles import serialize_presentation

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestGb:
    def test_commutative_reduced_basis(self, capsys):
        data = run_json(capsys, "gb", SAMPLES / "comm1.alg")
        assert data["kind"] == "commutative"
        assert data["complete_to_degree"] is None
        assert set(data["basis"]) == {
            "x1^2 + x2^2", "x1*x2^2 - x2^3", "x2^4"}

    def test_noncommutative_family(self, capsys):
        data = run_json(capsys, "gb", SAMPLES / "x2xy.alg",
                        "--max-degree", 8)
        assert data["complete_to_degree"] == 8
        assert data["basis"][0] == "x^2 - x*y"
        assert data["basis"][1:] == [
            f"x*y{'^%d' % i if i > 1 else ''}*x - x*y^{i + 1}"
            for i in range(1, 7)]

    def test_xzx_family(self, capsys):
        data = run_json(capsys, "gb", SAMPLES / "xyzx.alg")
        assert "x*z*x" in data["basis"]
        assert "x*z^6*x" in data["basis"]

    def test_builtin_family_echoes_relations(self, capsys):
        data = run_json(capsys, "gb", "--bn", 2, "--max-degree", 12)
        assert data["algebra"] == "B2"
        assert len(data["basis"]) == 10

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "gb", SAMPLES / "comm1.alg")
        assert code == 0
        assert "reduced basis" in out


class TestNf:
    def test_generator_combination_is_member(self, capsys):
        data = run_json(capsys, "nf", SAMPLES / "comm1.alg", "x1^3 + x2^3")
        assert data["normal_form"] == "0"
        assert data["member"] is True

    def test_non_member(self, capsys):
        data = run_json(capsys, "nf", SAMPLES / "comm1.alg", "x1 + 1")
        assert data["member"] is False
        assert data["normal_form"] == "x1 + 1"

    def test_relation_against_its_own_algebra(self, capsys):
        data = run_json(capsys, "nf", SAMPLES / "x2xy.alg", "x^2 - x*y")
        assert data["member"] is True

    def test_degree_past_certificate_exits_3(self, capsys):
        code, out, err = run(capsys, "nf", SAMPLES / "x2xy.alg",
                             "x*y^7*x", "--max-degree", 8)
        assert code == 3
        assert "degree" in err

    def test_reduction_inside_certificate(self, capsys):
        data = run_json(capsys, "nf", SAMPLES / "x2xy.alg",
                        "x*y^2*x", "--max-degree", 8)
        assert data["normal_form"] == "x*y^3"
        assert data["member"] is False


class TestChains:
    def test_b1_counts(self, capsys):
        data = run_json(capsys, "chains", "--bn", 1,
                        "--max-level", 5, "--max-degree", 16)
        assert data["totals"] == {"0": 6, "1": 6, "2": 5, "3": 6,
                                  "4": 5, "5": 6}

    def test_level_one_is_leading_word_set(self, capsys):
        # per-level order is by descending term key, so degree 3 precedes 2
        data = run_json(capsys, "chains", SAMPLES / "x2y2.alg",
                        "--max-level", 2, "--max-degree", 6)
        assert data["levels"]["1"]["words"] == ["x*y^2", "x^2"]

    def test_commutative_input_rejected(self, capsys):
        code, out, err = run(capsys, "chains", SAMPLES / "comm1.alg")
        assert code == 2
        assert "noncommutative" in err


class TestHilbert:
    def test_pipelines_agree(self, capsys):
        data = run_json(capsys, "hilbert", SAMPLES / "x2y2.alg",
                        "--max-degree", 8)
        assert data["normal_words"] == list(range(1, 10))
        assert data["chain_inverse"] == list(range(1, 10))
        assert data["agree"] is True

    def test_free_algebra_powers(self, capsys):
        data = run_json(capsys, "hilbert", SAMPLES / "free3.alg",
                        "--max-degree", 6)
        assert data["normal_words"] == [3 ** n for n in range(7)]
        assert data["rational_candidate"]["denominator"] == [1, -3]

    def test_commutative_series(self, capsys):
        data = run_json(capsys, "hilbert", SAMPLES / "comm1.alg",
                        "--max-degree", 6)
        assert data["normal_words"] == [1, 2, 2, 1, 0, 0, 0]
        assert data["chain_inverse"] is None
        assert data["agree"] is None

    def test_commutative_series_at_high_degree(self, capsys, tmp_path):
        # one normal monomial per degree, far past the recursion limit
        path = tmp_path / "kx.alg"
        path.write_text("algebra k; kind commutative; generators x;"
                        " order deglex x;")
        data = run_json(capsys, "hilbert", path, "--max-degree", 1500)
        assert data["normal_words"] == [1] * 1501

    def test_series_json_coefficients(self):
        got = _series_json((3, Fraction(-4), Fraction(1, 2), 0, Fraction(0)))
        assert got == [3, -4, "1/2", 0, 0]
        assert [type(c) for c in got] == [int, int, str, int, int]

    def test_bound_below_a_relation_exits_3(self, capsys):
        code, out, err = run(capsys, "hilbert", SAMPLES / "x2xy.alg",
                             "--max-degree", 1)
        assert code == 3
        assert out == ""
        assert "max_degree 1 is below a relation of degree 2" in err


class TestAnick:
    def test_verification_embedded(self, capsys):
        data = run_json(capsys, "anick", SAMPLES / "x2y2.alg",
                        "--max-level", 3, "--max-degree", 8)
        v = data["verification"]
        assert v["ok"] is True
        assert v["dd_zero"]["failures"] == []
        assert v["splitting"]["failure_count"] == 0
        assert v["exactness"]["degree"] == 8

    def test_differential_entries(self, capsys):
        data = run_json(capsys, "anick", SAMPLES / "x2xy.alg",
                        "--max-level", 2, "--max-degree", 6)
        d1 = data["differentials"]["1"]
        assert d1["cols"][-1] == "x^2"
        row_x = d1["rows"].index("x")
        col_xx = d1["cols"].index("x^2")
        assert [row_x, col_xx, "x - y"] in d1["entries"]

    def test_levels_past_degree_bound_are_empty(self, capsys):
        # levels whose shallowest chain exceeds the degree bound come back
        # empty rather than failing
        data = run_json(capsys, "anick", SAMPLES / "x2xy.alg",
                        "--max-level", 9, "--max-degree", 4)
        assert data["chains"]["9"] == []
        assert data["verification"]["ok"] is True

    def test_relation_heavier_than_bound_exits_3(self, capsys):
        code, out, err = run(capsys, "anick", SAMPLES / "x2xy.alg",
                             "--max-degree", 1)
        assert code == 3
        assert "degree" in err


class TestTor:
    def test_b2_witness(self, capsys):
        data = run_json(capsys, "tor", "--bn", 2,
                        "--max-level", 3, "--max-degree", 12)
        assert data["minimal"] is False
        assert data["witness"]["level"] == 3
        assert data["witness"]["row"] == "c1*a1*b1*c1*a1"
        assert data["totals"]["3"] == 10

    def test_b1_minimal(self, capsys):
        data = run_json(capsys, "tor", "--bn", 1,
                        "--max-level", 4, "--max-degree", 12)
        assert data["minimal"] is True
        assert data["witness"] is None
        assert data["totals"] == {"-1": 1, "0": 6, "1": 6, "2": 5,
                                  "3": 6, "4": 5}

    def test_failed_splitting_audit_exits_1(self, capsys, monkeypatch):
        # double one coefficient of every top-level splitting: d(i(u)) = u
        # then fails, and Tor of the broken complex must not be printed
        split = AnickResolution._isplit

        def broken(self, m, elem):
            out = split(self, m, elem)
            if m == self.max_level - 1 and out:
                key = next(iter(out))
                out[key] *= 2
            return out

        monkeypatch.setattr(AnickResolution, "_isplit", broken)
        code, out, err = run(capsys, "tor", SAMPLES / "x2xy.alg",
                             "--max-level", 2, "--max-degree", 6)
        assert code == 1
        assert out == ""
        assert "10 splittings failed" in err


class TestPlumbing:
    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("algebra t; kind noncommutative; generators x y; "
                        "order deglex x > y;"))
        data = run_json(capsys, "hilbert", "-", "--max-degree", 4)
        assert data["normal_words"] == [1, 2, 4, 8, 16]

    def test_missing_input_exits_2(self, capsys):
        code, out, err = run(capsys, "gb")
        assert code == 2

    def test_file_and_bn_conflict(self, capsys):
        code, out, err = run(capsys, "gb", SAMPLES / "x2xy.alg", "--bn", 1)
        assert code == 2

    def test_parse_error_names_position(self, capsys):
        code, out, err = run(capsys, "nf", SAMPLES / "x2xy.alg", "x + q")
        assert code == 2
        assert "column" in err

    def test_non_decimal_digit_exits_2(self, capsys, monkeypatch):
        head = ("algebra h; kind noncommutative; generators x y; "
                "order deglex x > y;")
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"{head} relations x^\u00b2 - y;"))
        code, out, err = run(capsys, "gb", "-")
        assert (code, out) == (2, "")
        assert "line 1, column 81: unexpected character '\u00b2'" in err
        code, out, err = run(capsys, "nf", SAMPLES / "x2xy.alg", "x^\u00b2")
        assert (code, out) == (2, "")
        assert "column 3: unexpected character '\u00b2'" in err

    def test_undecodable_file_reads_like_stdin(self, capsys, monkeypatch,
                                               tmp_path):
        # stdin decodes undecodable bytes to surrogates, which the parser
        # rejects by position; a file must exit the same way
        raw = b"algebra t; kind noncommutative; generators x\xff y;"
        path = tmp_path / "bad.alg"
        path.write_bytes(raw)
        code, out, err = run(capsys, "gb", path)
        assert code == 2
        assert "column" in err
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(raw.decode("utf-8", "surrogateescape")))
        assert run(capsys, "gb", "-") == (code, out, err)

    def test_bad_flag_values(self, capsys):
        for flags in (["--max-degree", 0], ["--max-level", 0],
                      ["--threads", 0]):
            code, out, err = run(capsys, "gb", SAMPLES / "x2xy.alg", *flags)
            assert code == 2

    def test_consecutive_runs_share_no_state(self, capsys):
        # the parser is built once per process and reused by every call
        assert build_parser() is build_parser()
        bn = ("gb", "--bn", 1, "--max-degree", 5, "--format", "json")
        code, bn_out, _ = run(capsys, *bn)
        assert code == 0
        code, file_out, _ = run(capsys, "gb", SAMPLES / "x2xy.alg")
        assert code == 0
        assert "certified complete to degree 8" in file_out
        with pytest.raises(SystemExit) as exc:
            main(["gb", "--bn", "1", "--max-degree", "x"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert run(capsys, *bn) == (0, bn_out, "")
        assert run(capsys, "gb", SAMPLES / "x2xy.alg") == (0, file_out, "")


class TestUngraded:
    """y*x*y = 1: completion ends at degree 6 with x*y - y*x and y^2*x - 1;
    at degree 4 the basis still has overlaps to resolve."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "u.alg"
        path.write_text("algebra u; kind noncommutative; generators x y; "
                        "order deglex x > y; relations y*x*y = 1;")
        return path

    def test_overlaps_past_the_bound_exit_3(self, capsys, path):
        for argv in (["gb"], ["nf", path, "x*y - y*x"], ["chains"],
                     ["hilbert"]):
            code, out, err = run(capsys, argv[0], path, *argv[2:],
                                 "--max-degree", 4)
            assert code == 3
            assert out == ""
            assert "not graded" in err

    def test_member_once_complete(self, capsys, path):
        data = run_json(capsys, "nf", path, "x*y - y*x", "--max-degree", 8)
        assert data["member"] is True
        assert data["certified"] is True

    def test_complete_basis_reduces_past_the_bound(self, capsys, path):
        # the basis is complete outright at degree 8, so a degree-10 input
        # reduces there exactly as it does at degree 10
        outs = [run(capsys, "nf", path, "x^5*y^5", "--max-degree", d)
                for d in (8, 10)]
        assert outs[0] == outs[1] == (
            0, "normal form: y*x^3\nideal membership: not a member\n", "")

    def test_resolution_commands_exit_2(self, capsys, path):
        for command in ("anick", "tor"):
            code, out, err = run(capsys, command, path)
            assert code == 2
            assert err == ("anick: presentation 'u' is not graded: "
                           "relation y*x*y - 1 is inhomogeneous\n")


class TestOneLetterTip:
    """A relation linear in the generators leaves the one-letter tip x; the
    algebra is k[y] (with y of weight 2 in the weighted case), whose Tor_1
    has dimension 1, so no chain set on that tip is right."""

    @pytest.fixture(params=[("x y", "x - y", 1), ("x:2 y:2", "2*x - y", 2)],
                        ids=["unweighted", "weighted"])
    def case(self, request, tmp_path):
        gens, relation, weight = request.param
        path = tmp_path / "r.alg"
        path.write_text(f"algebra R; kind noncommutative; generators {gens}; "
                        f"order deglex x > y; relations {relation};")
        return path, weight

    def test_chain_commands_exit_2(self, capsys, case):
        path, _ = case
        for argv in (["chains"], ["anick"], ["tor", "--max-level", 2]):
            code, out, err = run(capsys, argv[0], path, *argv[1:])
            assert code == 2
            assert out == ""
            assert err == ("anick: presentation 'R' has the one-letter leading "
                           "word x; chains need the redundant generator x "
                           "removed\n")

    def test_hilbert_keeps_normal_words(self, capsys, case):
        path, weight = case
        data = run_json(capsys, "hilbert", path, "--max-degree", 8)
        assert data["normal_words"] == [int(d % weight == 0) for d in range(9)]
        assert data["chain_inverse"] is None
        assert data["agree"] is None


class TestUnitIdeal:
    """Relations whose ideal holds a nonzero constant generate the whole
    algebra, which has no leading words: every command exits 2.  anick and
    tor refuse the two inhomogeneous cases as ungraded before completing."""

    @pytest.fixture(params=["2;", "x - 1; x*x - 2;", "x*y - y*x - 1; x*x;"],
                    ids=["constant", "x=1", "weyl"])
    def path(self, request, tmp_path):
        path = tmp_path / "w.alg"
        path.write_text("algebra w; kind noncommutative; generators x y; "
                        f"order deglex x > y; relations {request.param}")
        return path

    @pytest.mark.parametrize("argv", [["gb"], ["nf", "x"], ["chains"],
                                      ["hilbert"], ["anick"], ["tor"]])
    def test_every_command_exits_2(self, capsys, path, argv):
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, "")
        if argv[0] in ("anick", "tor") and "relations 2;" not in path.read_text():
            assert "is not graded" in err
        else:
            assert err == ("anick: the relations of 'w' generate the whole "
                           "algebra: their ideal contains 1\n")


class TestDeterminism:
    CASES = [
        ("gb", str(SAMPLES / "x2xy.alg"), "--max-degree", "8"),
        ("chains", "--bn", "1", "--max-level", "4", "--max-degree", "12"),
        ("hilbert", str(SAMPLES / "x2y2.alg"), "--max-degree", "10"),
        ("anick", str(SAMPLES / "x2y2.alg"), "--max-level", "3",
         "--max-degree", "8"),
        ("tor", "--bn", "2", "--max-level", "2", "--max-degree", "10"),
        ("nf", str(SAMPLES / "comm1.alg"), "x1^5"),
    ]

    def test_repeat_runs_byte_identical(self, capsys):
        for case in self.CASES:
            outs = []
            for _ in range(2):
                code, out, err = run(capsys, *case, "--format", "json")
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1]

    def test_thread_hint_does_not_change_output(self, capsys):
        for case in self.CASES:
            outs = []
            for threads in ("1", "4"):
                code, out, err = run(capsys, *case, "--format", "json",
                                     "--threads", threads)
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1]


def _term(word, names, commutative):
    if commutative:
        return "*".join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(names, word) if e)
    return "*".join(names[i] for i in word)


@st.composite
def generator_line_shuffles(draw):
    """A small presentation as two texts that differ only in the order of
    the generators line: 2-3 generators of weight 1-2, 1-2 relations of 1-3
    terms, graded or not, deglex or (commutative only) lex.  Also a
    monomial for nf."""
    commutative = draw(st.booleans())
    names = ["x", "y", "z"][:draw(st.integers(2, 3))]
    weights = [draw(st.integers(1, 2)) for _ in names]
    order = draw(st.sampled_from(["deglex", "lex"])) if commutative else "deglex"
    if commutative:
        word = st.tuples(*[st.integers(0, 2)] * len(names)).filter(any)
    else:
        word = st.lists(st.integers(0, len(names) - 1), min_size=1,
                        max_size=3).map(tuple)

    def degree(w):
        return (sum(map(int.__mul__, w, weights)) if commutative
                else sum(weights[i] for i in w))

    graded = draw(st.booleans())
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        terms = draw(st.dictionaries(word, st.integers(-2, 2).filter(bool),
                                     min_size=1, max_size=3))
        top = degree(next(iter(terms)))
        text = ""
        for w, c in terms.items():
            if graded and degree(w) != top:
                continue
            body = f"{abs(c)}*{_term(w, names, commutative)}"
            text += (f"-{body}" if c < 0 else body) if not text else (
                f" - {body}" if c < 0 else f" + {body}")
        relations.append(text)
    kind = "commutative" if commutative else "noncommutative"

    def text(perm):
        gens = " ".join(names[k] if weights[k] == 1 else
                        f"{names[k]}:{weights[k]}" for k in perm)
        return (f"algebra R; kind {kind}; generators {gens}; "
                f"order {order} {' > '.join(names)}; "
                f"relations {'; '.join(relations)};")

    perm = draw(st.permutations(range(len(names))))
    poly = _term(draw(word), names, commutative)
    return text(range(len(names))), text(perm), poly


class TestGeneratorLineOrder:
    """The order chain alone numbers the generators, so the order of the
    generators line changes nothing a command prints."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(generator_line_shuffles())
    def test_shuffled_generators_line_changes_nothing(self, case):
        listed, shuffled, poly = case
        pres = parse_presentation(listed)
        assert parse_presentation(shuffled) == pres
        assert parse_presentation(serialize_presentation(pres)) == pres
        bounds = ["--max-degree", "5", "--max-level", "2"]
        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for k, text in enumerate((listed, shuffled)):
                path = pathlib.Path(tmp) / f"{k}.alg"
                path.write_text(text)
                outs = []
                for argv in (["gb"], ["nf", poly], ["chains"], ["hilbert"],
                             ["anick"], ["tor"]):
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = main([argv[0], str(path), *argv[1:], *bounds])
                    outs.append((argv[0], code, stdout.getvalue()))
                runs.append(outs)
        assert runs[0] == runs[1]
