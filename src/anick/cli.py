"""Command-line front end.

Subcommands: gb, nf, chains, hilbert, anick, tor.  Input is a presentation
file (or ``-`` for stdin), or ``--bn N`` for the built-in family.  Output is
text by default, or JSON with ``--format json``; JSON output is byte-stable
across runs and thread hints.

Exit codes: 0 success, 2 input error (parse errors carry line and column),
3 a bound violation or an uncertified basis, 1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

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
    if args.input == "-":
        return parse_presentation(sys.stdin.read())
    try:
        # undecodable bytes reach the parser, which reports their position
        with open(args.input, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc.strerror}")
    return parse_presentation(text)


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


def _series_json(coeffs):
    """Ints and integral Fractions as JSON numbers, other Fractions as
    "p/q" strings."""
    return [c.numerator if c.denominator == 1 else str(c) for c in coeffs]


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
    cs = enumerate_chains(
        TailGraph(pres, gb.tips, args.max_level, args.max_degree))
    counts = cs.counts()
    levels = {}
    for n in range(-1, cs.max_level + 1):
        levels[str(n)] = {
            "words": ["1"] if n == -1 else
                     [pres.format_monomial(w) for w in cs.words(n)],
            "by_degree": {str(d): c for d, c in sorted(counts[n].items())},
        }
    data = {
        "algebra": pres.name,
        "max_level": cs.max_level,
        "max_degree": cs.max_degree,
        "levels": levels,
        "totals": {str(n): len(cs.levels[n])
                   for n in range(0, cs.max_level + 1)},
    }
    if args.format == "json":
        return data
    lines = [f"chains of {pres.name} to level {cs.max_level}, "
             f"degree {cs.max_degree}"]
    for n in range(1, cs.max_level + 1):
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


def _report_json(report):
    """The verification report as built, less the splitting's failures and
    the count of ranked blocks, which stay in memory."""
    out = dict(report)
    for key, drop in ("splitting", "failures"), ("exactness", "ranked_blocks"):
        out[key] = {k: v for k, v in report[key].items() if k != drop}
    return out


def cmd_anick(pres, args):
    require_noncommutative(pres, "anick")
    require_graded(pres)
    res = AnickResolution(certified_basis(pres, args), args.max_level)
    report = verify_resolution(res)
    # each level's chain words, formatted once for its rows, cols and chains
    words = [[pres.format_monomial(c.word) for c in res.levels[n]]
             for n in range(res.max_level + 1)]
    matrices = {}
    for n in range(1, res.max_level + 1):
        entries = []
        for ci, value in enumerate(res.diff[n]):
            by_row = {}
            for (cj, w), coeff in value.items():
                by_row.setdefault(cj, []).append((w, coeff))
            for cj in sorted(by_row):
                terms = sorted(by_row[cj], key=lambda t: pres.heap_key(t[0]))
                entries.append([cj, ci, pres.format_poly(Polynomial(tuple(terms)))])
        matrices[str(n)] = {"rows": words[n - 1], "cols": words[n],
                            "entries": entries}
    data = {
        "algebra": pres.name,
        "max_level": res.max_level,
        "max_degree": res.max_degree,
        "chains": {str(n): level for n, level in enumerate(words)},
        "differentials": matrices,
        "verification": _report_json(report),
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
    except (ParseError, OneLetterTipError, UnitIdealError) as exc:
        print(f"anick: {exc}", file=sys.stderr)
        return 2
    except BoundError as exc:
        print(f"anick: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - uniform exit-code contract
        print(f"anick: internal error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
