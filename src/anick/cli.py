"""Command-line front end.

Subcommands: gb, nf, chains, hilbert, anick, tor.  Input is a presentation
file (or ``-`` for stdin), or ``--bn N`` for the built-in family.  Output is
text by default, or JSON with ``--format json``; JSON output is byte-stable
across runs and thread hints.  Every JSON command prints through one writer,
``_dumps``, whose output is ``json.dumps(result, indent=2)``'s byte for
byte, built without the pure-Python encoder that ``indent`` selects.

Exit codes: 0 success, 2 input error (parse errors carry line and column),
3 a bound violation, an uncertified basis or an output number past Python's
int-string limit, 1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import groupby

from .algebra import COMMUTATIVE, AlgebraError, BoundError, Polynomial
from .chains import OneLetterTipError, TailGraph, enumerate_chains
from .commutative import comm_buchberger, comm_normal_form, comm_reduce_basis
from .hilbert import (
    hilbert_from_chains,
    hilbert_from_normal_words,
    rational_form,
)
from .noncommutative import (
    UnitIdealError,
    nc_buchberger,
    nc_normal_form,
    nc_reduce_basis,
)
from .presentation import ParseError, make_bn, parse_poly, parse_presentation
from .resolution import (
    AnickResolution,
    dd_failures,
    is_minimal,
    tor_dimensions,
    verify_resolution,
)


@cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no state
    on it, and building it costs more than most small runs."""
    parser = argparse.ArgumentParser(
        prog="anick",
        description="Groebner bases, chains, Hilbert series, and the "
                    "resolution of the base field for presented algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, poly_arg=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", default=None,
                       help="presentation file, or - for stdin")
        if poly_arg:
            p.add_argument("poly", help="polynomial to reduce")
        p.add_argument("--bn", type=int, default=None, metavar="N",
                       help="use the built-in algebra B_N instead of a file")
        p.add_argument("--max-degree", type=int, default=8)
        p.add_argument("--max-level", type=int, default=3)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--threads", type=int, default=1,
                       help="parallelism hint; results never depend on it")
        return p

    add("gb", "compute a (reduced) Groebner basis")
    add("nf", "normal form and ideal membership of one polynomial",
        poly_arg=True)
    add("chains", "enumerate chains on the leading-word set")
    add("hilbert", "Hilbert series by normal-word counting and by chains")
    add("anick", "build and verify the resolution of the base field")
    add("tor", "Tor dimensions and minimality of the resolution")
    return parser


def load_presentation(args):
    if args.bn is not None:
        if args.input is not None:
            raise ParseError("give a file or --bn, not both")
        if args.bn < 1:
            raise ParseError("--bn takes a positive index")
        return make_bn(args.bn)
    if args.input is None:
        raise ParseError("no input: give a presentation file, -, or --bn N")
    try:
        if args.input == "-":
            if sys.stdin is None:  # the process started with stdin closed
                raise ParseError("cannot read -: stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc.strerror}")
    # one decoding for a file and stdin: undecodable bytes reach the parser,
    # which reports their position, and every line break reads as "\n"
    text = data.decode("utf-8", "surrogateescape")
    return parse_presentation(text.replace("\r\n", "\n").replace("\r", "\n"))


def check_args(args):
    if args.max_degree < 1:
        raise ParseError("--max-degree must be at least 1")
    if args.max_level < 1:
        raise ParseError("--max-level must be at least 1")
    if args.threads < 1:
        raise ParseError("--threads must be at least 1")


def require_noncommutative(pres, command):
    if pres.kind == COMMUTATIVE:
        raise ParseError(f"{command} needs a noncommutative presentation; "
                         f"{pres.name} is commutative")


def require_graded(pres):
    try:
        pres.require_graded()
    except AlgebraError as exc:
        raise ParseError(str(exc)) from None


def certified_basis(pres, args):
    """The basis completed to --max-degree, if it is certified there: the
    one completion, which every noncommutative command reads."""
    gb = nc_buchberger(pres, max_degree=args.max_degree)
    if gb.certified_degree < args.max_degree:
        raise BoundError(
            f"{pres.name} is not graded and its basis has overlaps past degree "
            f"{args.max_degree}; nothing is certified (raise --max-degree)")
    return gb


# How json.dumps encodes each leaf type (the C string escaper where CPython
# has one).
_LEAVES = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dumps(value, indent="\n"):
    """What ``json.dumps(value, indent=2)`` returns, byte for byte.

    On Python 3.10 and 3.11 ``indent`` makes json.dumps leave its C encoder
    for nested generators.  This writer joins each container's items in one
    comprehension.  It takes what the commands print, by
    exact type: dicts with str keys, lists and tuples, str, int, bool and
    None.  Anything else raises ``TypeError``, and an int past the
    int-string limit raises the ``ValueError`` that json.dumps raises,
    which ``main`` reports as exit 3.
    """
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # the escaper raises TypeError on a key that is not a str
        escape = _LEAVES[str]
        items = [f"{escape(k)}: {_dumps(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # a matrix row is a list of leaves: encode it with no call per item;
        # a list that mixes in containers (no command prints one) is
        # encoded again, item by item
        try:
            items = [_LEAVES[type(v)](v) for v in value]
        except KeyError:
            items = [_dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _series_json(coeffs):
    """Ints and integral Fractions as JSON numbers, other Fractions as
    "p/q" strings."""
    return [c.numerator if c.denominator == 1 else str(c) for c in coeffs]


def _chain_texts(pres, levels):
    """Each level's chain words as text, {level: [text of each chain]}.

    A chain's text is its parent's, "*" and its tail's, and each tail is
    formatted once.  Where the parent's word ends in the letter that starts
    the tail, the two runs of that letter merge into one power, and the
    word is formatted whole."""
    text, tails = {}, {}
    for chains in levels.values():
        for c in chains:
            p, t = c.parent, c.tail
            if p is None or not p.word or p.word[-1] == t[0]:
                text[c] = pres.format_monomial(c.word)
            else:
                tt = tails.get(t)
                if tt is None:
                    tt = tails[t] = pres.format_monomial(t)
                text[c] = f"{text[p]}*{tt}"
    return {n: [text[c] for c in chains] for n, chains in levels.items()}


# -- subcommands -------------------------------------------------------------


def cmd_gb(pres, args):
    if pres.kind == COMMUTATIVE:
        basis = comm_reduce_basis(comm_buchberger(pres)).basis
        degree = None
    else:
        gb = certified_basis(pres, args)
        basis = nc_reduce_basis(gb).rules
        degree = gb.complete_to_degree
    data = {
        "algebra": pres.name,
        "kind": pres.kind,
        "basis": [pres.format_poly(g) for g in basis],
        "complete_to_degree": degree,
    }
    if args.format == "json":
        return data
    lines = [f"algebra {pres.name} ({pres.kind})"]
    if degree is not None:
        lines.append(f"basis certified complete to degree {degree}:")
    else:
        lines.append("reduced basis:")
    lines += [f"  {s}" for s in data["basis"]]
    return "\n".join(lines)


def cmd_nf(pres, args):
    f = parse_poly(pres, args.poly)
    if pres.kind == COMMUTATIVE:
        # a normal form modulo any Groebner basis is unique
        nf = comm_normal_form(pres, f, comm_buchberger(pres).basis)
    else:
        gb = certified_basis(pres, args)
        degree = pres.poly_degree(f)
        if degree > gb.certified_degree:
            raise BoundError(
                f"input has degree {degree}; the basis is only certified to "
                f"degree {gb.certified_degree} (raise --max-degree)")
        nf = nc_normal_form(pres, f, gb.rules)
    data = {
        "algebra": pres.name,
        "input": pres.format_poly(f),
        "normal_form": pres.format_poly(nf),
        "member": not nf,
        "certified": True,
    }
    if args.format == "json":
        return data
    verdict = "member" if data["member"] else "not a member"
    return (f"normal form: {data['normal_form']}\n"
            f"ideal membership: {verdict}")


def cmd_chains(pres, args):
    require_noncommutative(pres, "chains")
    gb = certified_basis(pres, args)
    cs = enumerate_chains(TailGraph(pres, gb.tips), args.max_level,
                          args.max_degree)
    counts, words = cs.counts(), _chain_texts(pres, cs.levels)
    levels = {str(n): {
        "words": words[n],
        "by_degree": {str(d): c for d, c in sorted(counts[n].items())},
    } for n in cs.levels}
    data = {
        "algebra": pres.name,
        "max_level": args.max_level,
        "max_degree": args.max_degree,
        "levels": levels,
        "totals": {str(n): len(chains)
                   for n, chains in cs.levels.items() if n >= 0},
    }
    if args.format == "json":
        return data
    lines = [f"chains of {pres.name} to level {args.max_level}, "
             f"degree {args.max_degree}"]
    for n in range(1, args.max_level + 1):
        words = levels[str(n)]["words"]
        lines.append(f"level {n} ({len(words)}):")
        lines += [f"  {w}" for w in words]
    return "\n".join(lines)


def cmd_hilbert(pres, args):
    if pres.kind == COMMUTATIVE:
        # the normal monomials depend only on the leading monomials
        series = hilbert_from_normal_words(
            comm_buchberger(pres), args.max_degree)
        chain_series = None
    else:
        gb = certified_basis(pres, args)
        series = hilbert_from_normal_words(gb, args.max_degree)
        try:
            chain_series = hilbert_from_chains(pres, gb.tips, args.max_degree)
        except OneLetterTipError:
            chain_series = None
    agree = None if chain_series is None else list(series) == list(chain_series)
    # --max-degree >= 1, so the series is nonempty and always has a fit
    numerator, denominator = rational_form(series)
    data = {
        "algebra": pres.name,
        "max_degree": args.max_degree,
        "normal_words": _series_json(series),
        "chain_inverse": None if chain_series is None
                         else _series_json(chain_series),
        "agree": agree,
        "rational_candidate": {
            "numerator": _series_json(numerator),
            "denominator": _series_json(denominator),
            "note": "fits the truncation only; not certified",
        },
    }
    if args.format == "json":
        return data
    lines = [f"Hilbert series of {pres.name} to degree {args.max_degree}",
             f"  normal words:  {data['normal_words']}"]
    if chain_series is not None:
        lines.append(f"  chain inverse: {data['chain_inverse']}")
        lines.append(f"  agreement: {agree}")
    lines.append(f"  rational fit: {data['rational_candidate']['numerator']}"
                 f" / {data['rational_candidate']['denominator']}"
                 " (truncation fit only)")
    return "\n".join(lines)


def cmd_anick(pres, args):
    require_noncommutative(pres, "anick")
    require_graded(pres)
    res = AnickResolution(certified_basis(pres, args), args.max_level)
    report = verify_resolution(res)
    # each level's chain words, formatted once for its rows, cols and chains
    words = _chain_texts(pres, res.levels)
    # a matrix repeats a handful of entries many times: format each once
    @cache
    def entry_text(terms):
        return pres.format_poly(Polynomial(terms))

    matrices = {}
    for n in range(1, res.max_level + 1):
        entries = []
        for ci, value in enumerate(res.diff[n]):
            # homogeneous columns: a row's words share a degree, where heap_key
            # order is word order, so sorting the unique (row, word) keys suffices
            for cj, row in groupby(sorted(value.items()), key=lambda t: t[0][0]):
                terms = tuple((w, coeff) for (_, w), coeff in row)
                entries.append([cj, ci, entry_text(terms)])
        matrices[str(n)] = {"rows": words[n - 1], "cols": words[n],
                            "entries": entries}
    data = {
        "algebra": pres.name,
        "max_level": res.max_level,
        "max_degree": res.max_degree,
        "chains": {str(n): words[n] for n in range(res.max_level + 1)},
        "differentials": matrices,
        "verification": report,
    }
    if args.format == "json":
        return data
    lines = [f"resolution of {pres.name}: levels 0..{res.max_level}, "
             f"degree {res.max_degree}"]
    for n in range(1, res.max_level + 1):
        lines.append(f"d_{n}:")
        block = matrices[str(n)]
        for cj, ci, poly in block["entries"]:
            lines.append(f"  {block['cols'][ci]} (x) 1  ->  "
                         f"[{block['rows'][cj]}] (x) ({poly})")
    v = data["verification"]
    lines.append(f"d.d = 0: {v['dd_zero']['ok']}   "
                 f"splitting: {v['splitting']['ok']}   "
                 f"Euler to degree {v['euler']['degree']}: {v['euler']['ok']}   "
                 f"exactness to degree {v['exactness']['degree']}: "
                 f"{v['exactness']['ok']}")
    return "\n".join(lines)


def cmd_tor(pres, args):
    require_noncommutative(pres, "tor")
    require_graded(pres)
    res = AnickResolution(certified_basis(pres, args), args.max_level + 1)
    failures = dd_failures(res)
    if failures:
        raise AlgebraError(
            f"{len(failures)} splittings failed the d(i(u)) = u "
            "audit, so the complex is not a resolution; no Tor reported")
    table = tor_dimensions(res)
    minimal, witness = is_minimal(res)
    data = {
        "algebra": pres.name,
        "max_level": args.max_level,
        "max_degree": res.max_degree,
        "minimal": minimal,
        "witness": None if witness is None else {
            "level": witness[0],
            "row": pres.format_monomial(witness[1]),
            "col": pres.format_monomial(witness[2]),
        },
        "tor": {str(n): {str(d): v for d, v in sorted(table[n].items())}
                for n in sorted(table)},
        "totals": {str(n): sum(table[n].values()) for n in sorted(table)},
    }
    if args.format == "json":
        return data
    lines = [f"Tor of {pres.name} through level {args.max_level}"]
    for n in sorted(table):
        row = ", ".join(f"degree {d}: {v}"
                        for d, v in sorted(table[n].items())) or "0"
        lines.append(f"  level {n}: total {sum(table[n].values())}  ({row})")
    if minimal:
        lines.append("resolution is minimal across the built levels")
    else:
        w = data["witness"]
        lines.append(f"not minimal: d_{w['level']} sends {w['col']} (x) 1 to "
                     f"a scalar multiple of {w['row']} (x) 1")
    return "\n".join(lines)


COMMANDS = {
    "gb": cmd_gb,
    "nf": cmd_nf,
    "chains": cmd_chains,
    "hilbert": cmd_hilbert,
    "anick": cmd_anick,
    "tor": cmd_tor,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_args(args)
        pres = load_presentation(args)
        result = COMMANDS[args.command](pres, args)
        text = _dumps(result) if args.format == "json" else result
    except (ParseError, OneLetterTipError, UnitIdealError) as exc:
        print(f"anick: {exc}", file=sys.stderr)
        return 2
    except BoundError as exc:
        print(f"anick: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - uniform exit-code contract
        # str() or _dumps of an int past sys.get_int_max_str_digits()
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            print("anick: a number has too many digits to print "
                  "(past Python's int-string limit)", file=sys.stderr)
            return 3
        print(f"anick: internal error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
