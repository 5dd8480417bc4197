"""End-to-end command-line behavior: output shapes, exit codes, determinism."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anick.cli import COMMANDS, _dumps, _series_json, build_parser, main
from anick.presentation import parse_presentation
from anick.resolution import AnickResolution
from oracles import serialize_presentation

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(data):
    """A stand-in for ``sys.stdin`` whose ``buffer`` holds ``data``, bytes
    or a str in UTF-8, as the real one holds what was piped in."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


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
        split = AnickResolution.split

        def broken(self, m, elem, memo):
            out = split(self, m, elem, memo)
            if m == self.max_level - 1 and out:
                key = next(iter(out))
                out[key] *= 2
            return out

        monkeypatch.setattr(AnickResolution, "split", broken)
        code, out, err = run(capsys, "tor", SAMPLES / "x2xy.alg",
                             "--max-level", 2, "--max-degree", 6)
        assert code == 1
        assert out == ""
        assert "10 splittings failed" in err


class TestPlumbing:
    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            stdin_of("algebra t; kind noncommutative; generators x y; "
                     "order deglex x > y;"))
        data = run_json(capsys, "hilbert", "-", "--max-degree", 4)
        assert data["normal_words"] == [1, 2, 4, 8, 16]

    def test_missing_input_exits_2(self, capsys):
        code, out, err = run(capsys, "gb")
        assert code == 2

    def test_closed_stdin_exits_2(self, capsys, monkeypatch):
        # a process started with stdin closed has sys.stdin None
        monkeypatch.setattr("sys.stdin", None)
        assert run(capsys, "gb", "-") == (
            2, "", "anick: cannot read -: stdin is closed\n")

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
            "sys.stdin", stdin_of(f"{head} relations x^\u00b2 - y;"))
        code, out, err = run(capsys, "gb", "-")
        assert (code, out) == (2, "")
        assert "line 1, column 81: unexpected character '\u00b2'" in err
        code, out, err = run(capsys, "nf", SAMPLES / "x2xy.alg", "x^\u00b2")
        assert (code, out) == (2, "")
        assert "column 3: unexpected character '\u00b2'" in err

    @pytest.mark.parametrize("exponent", ["99999999999999999999",
                                          "9999999999"])
    def test_power_too_long_exits_2(self, capsys, monkeypatch, exponent):
        # refused at the exponent, before the word is expanded
        head = ("algebra h; kind noncommutative; generators x y; "
                "order deglex x > y;")
        tail = "letters is too long (at most 1000000)"
        monkeypatch.setattr(
            "sys.stdin", stdin_of(f"{head} relations x^{exponent} ;"))
        code, out, err = run(capsys, "gb", "-")
        assert (code, out) == (2, "")
        assert err == f"anick: line 1, column 81: word of {exponent} {tail}\n"
        code, out, err = run(capsys, "nf", SAMPLES / "x2xy.alg",
                             f"x^{exponent}")
        assert (code, out) == (2, "")
        assert err == f"anick: line 1, column 3: word of {exponent} {tail}\n"

    def test_undecodable_file_reads_like_stdin(self, capsys, monkeypatch,
                                               tmp_path):
        # undecodable bytes decode to surrogates, which the parser rejects
        # by position; a file and stdin must exit the same way
        raw = b"algebra t; kind noncommutative; generators x\xff y;"
        path = tmp_path / "bad.alg"
        path.write_bytes(raw)
        code, out, err = run(capsys, "gb", path)
        assert code == 2
        assert "column" in err
        monkeypatch.setattr("sys.stdin", stdin_of(raw))
        assert run(capsys, "gb", "-") == (code, out, err)

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    @pytest.mark.parametrize("raw, code, needle", [
        (b"algebra t; kind noncommutative; generators x\377 y;", 2,
         b"line 1, column 45: unexpected character"),
        (b"algebra t; kind noncommutative; generators x\351 y; "
         b"order deglex x\351 > y;", 2,
         b"line 1, column 45: unexpected character"),
        (b"algebra t; kind noncommutative; # c\rgenerators x y;\r"
         b"order deglex x > y;", 0, b"")],
        ids=["invalid-utf8", "latin1-letter", "lone-cr"])
    def test_stdin_reads_as_a_file_under_any_codec(self, tmp_path, encoding,
                                                   raw, code, needle):
        # stdin's own codec and newline rule must not decide how its bytes
        # read: a lone carriage return ends a comment on both routes
        path = tmp_path / "in.alg"
        path.write_bytes(raw)
        env = {**os.environ, "PYTHONIOENCODING": encoding,
               "PYTHONPATH": str(SAMPLES.parent / "src")}

        def gb(source):
            proc = subprocess.run(
                [sys.executable, "-m", "anick.cli", "gb", source], input=raw,
                capture_output=True, env=env, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        got = gb("-")
        assert got[0] == code and needle in got[2]
        assert bool(got[1]) == (code == 0)
        assert gb(str(path)) == got

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


# strings that json escapes: quotes, backslashes, control characters,
# non-ASCII, astral characters and lone surrogates
JSON_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=12),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é",
                     "\U0001f600", "\ud800", "x\udfffy", "\u2028"]))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), JSON_TEXT, st.integers(),
    st.integers(-10 ** 4000, 10 ** 4000))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=5)),
    max_leaves=40)


class TestJsonWriter:
    """``_dumps``, the one writer of every --format json command, against
    ``json.dumps(..., indent=2)``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}],
        {"complete_to_degree": None, "member": True, "certified": False},
        [0, -1, True, False, None, "", "\ud83d"]])
    def test_empty_containers_and_leaves(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), {1, 2}, [object()], {"a": [Fraction(3)]}])
    def test_unsupported_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _dumps(value)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-string limit on this interpreter")
    def test_int_past_the_string_limit_raises_value_error(self):
        big = [10 ** (sys.get_int_max_str_digits() + 1)]
        with pytest.raises(ValueError):
            json.dumps(big, indent=2)
        with pytest.raises(ValueError):
            _dumps(big)

    @pytest.mark.parametrize("cmd", [
        "gb", "nf", "chains", "hilbert", "anick", "tor"])
    def test_every_command_prints_json_dumps_output(self, capsys, cmd):
        # every sample and B_1, B_2 at the default bounds; comm1 is
        # commutative, so chains, anick and tor refuse it
        inputs = [[str(p)] for p in sorted(SAMPLES.glob("*.alg"))]
        inputs += [["--bn", "1"], ["--bn", "2"]]
        for source in inputs:
            commutative = source[0].endswith("comm1.alg")
            if commutative and cmd in ("chains", "anick", "tor"):
                continue
            poly = ("x1^3" if commutative else
                    "a1*b1*c1" if source[0] == "--bn" else "x*y*x")
            extra = [poly] if cmd == "nf" else []
            code, out, err = run(capsys, cmd, *source, *extra,
                                 "--format", "json")
            assert code == 0, err
            assert out == json.dumps(json.loads(out), indent=2) + "\n"


def run_on_stdin(text, argv):
    """(exit code, stdout, stderr) of ``main(argv)`` with ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin_of(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


NINES_2500 = "9" * 2500
HEAD_XY = ("algebra h; kind noncommutative; generators x y; "
           "order deglex x > y;")
# a normal form whose coefficient has 7,500 digits, and a basis element
# whose monic form has a 6,000-digit denominator
NF_TOO_LONG = (f"{HEAD_XY} relations x*x - {NINES_2500}*x*y;",
               ["nf", "-", "x*x*x*x", "--max-degree", "5"])
GB_TOO_LONG = (f"{HEAD_XY} relations {'9' * 3000}*{'9' * 3000}*x*y - y*x;",
               ["gb", "-", "--max-degree", "3"])
# an ungraded relation with a 5,000-digit coefficient, which the message
# of anick's and tor's graded-input check cannot print
UNGRADED_TOO_LONG = f"{HEAD_XY} relations {NINES_2500}*{NINES_2500}*x*y - y;"
# the free algebra on 10 generators has 10^d normal words in degree d
FREE10 = ("algebra free10; kind noncommutative; generators a b c d e f g h i j;"
          " order deglex a > b > c > d > e > f > g > h > i > j;")
TOO_LONG_ERR = ("anick: a number has too many digits to print "
                "(past Python's int-string limit)\n")

# what one mutation may put in place of a token or after it
MUTATIONS = [";", "*", "^", "=", "/", ":", ">", "+", "-", "x", "w", "0", "2",
             "1/0", "relations", "kind", "order", "#", "²", "lex"]


@st.composite
def presentation_argvs(draw):
    """Presentation text from the grammar, and one command on it at
    --max-degree 1-6 and --max-level 1-3.  The text has a kind, 1-3
    generators of weight 1-2, deglex (or lex, if commutative), and 0-3
    relations of 1-3 terms
    with integer or fractional coefficients and powers, some written as
    equations, all of one degree in half the texts.  About one text in ten
    has one token replaced, dropped or doubled.  An ungraded presentation
    on three noncommutative generators stops at degree 4: at degree 5 its
    completion can take a minute."""
    commutative = draw(st.booleans())
    names = ["x", "y", "z"][:draw(st.integers(1, 3))]
    weights = [draw(st.sampled_from([1, 1, 2])) for _ in names]
    graded = draw(st.booleans())

    def term():
        factors = draw(st.lists(st.tuples(st.integers(0, len(names) - 1),
                                          st.integers(1, 3)), max_size=3))
        coefficient = draw(st.sampled_from(
            [[], [], ["2", "*"], ["1", "/", "2", "*"], ["3", "/", "4", "*"]]))
        body = ["*"] * bool(factors)
        for i, e in factors:
            body += [names[i]] + (["^", str(e)] if e > 1 else []) + ["*"]
        tokens = coefficient + body[1:-1] if factors else ["5"]
        return tokens, sum(weights[i] * e for i, e in factors)

    relations = []
    for _ in range(draw(st.integers(0, 3))):
        terms = [term() for _ in range(draw(st.integers(1, 3)))]
        if graded:
            terms = [t for t, d in terms if d == terms[0][1]]
        else:
            terms = [t for t, _ in terms]
        split = draw(st.integers(1, len(terms)))
        tokens = []
        for k, t in enumerate(terms):
            sign = draw(st.sampled_from(["+", "-"]))
            if k == split:
                tokens.append("=")
            if sign == "-" or k not in (0, split):
                tokens.append(sign)
            tokens += t
        relations.append(tokens + [";"])
    tokens = ["algebra", "r", ";", "kind",
              "commutative" if commutative else "noncommutative", ";",
              "generators"]
    tokens += [n if w == 1 else f"{n}:{w}" for n, w in zip(names, weights)]
    order = draw(st.sampled_from(["deglex", "lex"])) if commutative else "deglex"
    tokens += [";", "order", order]
    tokens += " > ".join(names).split() + [";"]
    if relations:
        tokens += ["relations"] + [t for r in relations for t in r]
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(tokens) - 1))
        change = draw(st.sampled_from(["replace", "drop", "double"]))
        new = draw(st.sampled_from(MUTATIONS))
        tokens[k:k + 1] = {"replace": [new], "drop": [],
                           "double": [tokens[k], new]}[change]
    command = draw(st.sampled_from(["gb", "nf", "chains", "hilbert", "anick",
                                    "tor"]))
    top = 6 if graded or commutative or len(names) < 3 else 4
    argv = [command, "-"] + ([f"{names[0]}^2*{names[-1]}"] if command == "nf"
                             else [])
    argv += ["--max-degree", str(draw(st.integers(1, top))),
             "--max-level", str(draw(st.integers(1, 3)))]
    return " ".join(tokens), argv


class TestExitCodes:
    """Exit 1 is for a bug alone: on any presentation text and any command
    at small bounds, ``main`` exits 0, 2 or 3 and reports no internal
    error."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(presentation_argvs())
    @example((f"{HEAD_XY} relations x^99999999999999999999 ;", ["gb", "-"]))
    @example(NF_TOO_LONG)
    @example(GB_TOO_LONG)
    @example(((SAMPLES / "comm1.alg").read_text(),
              ["hilbert", "-", "--max-degree", "1"]))
    def test_exit_0_2_or_3(self, case):
        code, _, err = run_on_stdin(*case)
        assert code in (0, 2, 3), err
        assert "internal error" not in err

    @pytest.mark.parametrize("case", [
        NF_TOO_LONG, GB_TOO_LONG, (UNGRADED_TOO_LONG, ["anick", "-"]),
        (UNGRADED_TOO_LONG, ["tor", "-"])], ids=["nf", "gb", "anick", "tor"])
    def test_coefficient_past_the_int_string_limit_exits_3(self, case):
        assert run_on_stdin(*case) == (3, "", TOO_LONG_ERR)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-string limit on this interpreter")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_count_past_the_int_string_limit_exits_3(self, fmt):
        # 10^650 normal words in the top degree: 651 digits, past the
        # lowest limit CPython allows (640), as 10^4400 is past the default
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = run_on_stdin(FREE10, ["hilbert", "-", "--max-degree", "650",
                                        "--format", fmt])
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == (3, "", TOO_LONG_ERR)

    def test_other_value_errors_stay_internal(self, monkeypatch):
        # only the int-string limit's ValueError is exit 3; any other is a bug
        def broken(pres, args):
            raise ValueError("math domain error")

        monkeypatch.setitem(COMMANDS, "gb", broken)
        assert run_on_stdin(f"{HEAD_XY} relations x*y;", ["gb", "-"]) == (
            1, "", "anick: internal error: math domain error\n")

    def test_basis_of_long_coefficients_still_prints(self):
        # gb prints the relation of NF_TOO_LONG and its family: only the
        # normal form's coefficient passes the limit
        code, out, err = run_on_stdin(NF_TOO_LONG[0], ["gb", "-", "--max-degree", "5",
                                                       "--format", "json"])
        assert (code, err) == (0, "")
        c = NINES_2500
        assert json.loads(out)["basis"] == [f"x^2 - {c}*x*y"] + [
            f"x*y{'^%d' % k if k > 1 else ''}*x - {c}*x*y^{k + 1}"
            for k in (1, 2, 3)]
