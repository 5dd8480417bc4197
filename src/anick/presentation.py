"""Text format for presentations, plus built-in presentation families.

The format is line-oriented only by convention; statements end with ``;`` and
whitespace (space, tab, carriage return, newline) is free.  Comments run
from ``#`` to end of line.  A name starts with a letter (``str.isalpha``)
and continues with letters, digits, ``_`` or ``'``; an integer is a run of
decimal digits of any script.  Errors give a line and column, from 1.

::

    algebra B1 ;
    kind noncommutative ;
    generators a1 b1 c1 a0 b0 c0 ;
    order deglex a1 > b1 > c1 > a0 > b0 > c0 ;
    relations
        a1*b1*c1 ;
        c0*a0 ;
        a0*b0*c0 + c1*a1*b1 ;
        b1*c1*a1 ;
        c0*c1 ;
        b1*a0 ;

``generators`` entries may carry a weight as ``name:3``; their order on
that line does not matter.  The ``order`` chain lists every generator once,
largest first, and numbers them: the i-th name in the chain becomes
generator index i.  The ``relations`` section is optional.  A relation may
be written as an equation ``lhs = rhs``, which stands for ``lhs - rhs``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .algebra import (
    COMMUTATIVE,
    NONCOMMUTATIVE,
    DEGLEX,
    LEX,
    AlgebraError,
    Generator,
    Presentation,
)


class ParseError(AlgebraError):
    """Syntax or semantic error in presentation text, with position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


# One alternative per token kind, tried in this order; "other" catches
# every character the format does not use.  [^\W\d_] is wider than
# str.isalpha (it admits ², ½, ①), so _tokenize checks a name's start.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<blank>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[^\W\d_][\w']*)
  | (?P<int>\d+)
  | (?P<punct>[;:>+\-*^/=])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)

_Token = namedtuple("_Token", "kind value line col")  # kind "end" ends the stream


def _tokenize(text):
    tokens = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind, lexeme, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "other" or kind == "name" and not lexeme[0].isalpha():
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, col)
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind in ("name", "int", "punct"):
            tokens.append(_Token(kind, int(lexeme) if kind == "int" else lexeme,
                                 line, col))
        # the end token sits after the last character read, except that
        # a comment with no newline after it leaves it at the "#"
        pos = m.start() if kind == "comment" else m.end()
    tokens.append(_Token("end", None, line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_name(self, expected=None):
        tok = self.next()
        if tok.kind != "name":
            self.fail(f"expected a name, got {tok.value!r}", tok)
        if expected is not None and tok.value != expected:
            self.fail(f"expected {expected!r}, got {tok.value!r}", tok)
        return tok

    def expect_punct(self, value):
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            got = "end of input" if tok.kind == "end" else repr(tok.value)
            self.fail(f"expected {value!r}, got {got}", tok)
        return tok

    def at_punct(self, value):
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected trailing input {tok.value!r}", tok)


def parse_presentation(text):
    """Parse presentation text into a :class:`Presentation`."""
    p = _Parser(_tokenize(text))

    p.expect_name("algebra")
    name_tok = p.next()
    if name_tok.kind != "name":
        p.fail("expected an algebra name", name_tok)
    p.expect_punct(";")

    p.expect_name("kind")
    kind_tok = p.expect_name()
    if kind_tok.value not in (COMMUTATIVE, NONCOMMUTATIVE):
        p.fail(f"kind must be commutative or noncommutative, got {kind_tok.value!r}", kind_tok)
    kind = kind_tok.value
    p.expect_punct(";")

    p.expect_name("generators")
    weights = {}
    while not p.at_punct(";"):
        tok = p.next()
        if tok.kind != "name":
            p.fail("expected a generator name", tok)
        if tok.value in weights:
            p.fail(f"duplicate generator {tok.value!r}", tok)
        degree = 1
        if p.at_punct(":"):
            p.next()
            dtok = p.next()
            if dtok.kind != "int" or dtok.value < 1:
                p.fail("generator weight must be a positive integer", dtok)
            degree = dtok.value
        weights[tok.value] = degree
    p.expect_punct(";")
    if not weights:
        p.fail("no generators declared")

    p.expect_name("order")
    order_tok = p.expect_name()
    if order_tok.value not in (DEGLEX, LEX):
        p.fail(f"order must be deglex or lex, got {order_tok.value!r}", order_tok)
    chain = []
    while not p.at_punct(";"):
        tok = p.next()
        if tok.kind != "name":
            p.fail("expected a generator name in the order chain", tok)
        if tok.value not in weights:
            p.fail(f"unknown generator {tok.value!r} in order", tok)
        chain.append(tok.value)
        if p.at_punct(">"):
            p.next()
            if p.at_punct(";"):
                p.fail("dangling '>' in order chain")
        elif not p.at_punct(";"):
            p.fail("expected '>' or ';' in order chain")
    p.expect_punct(";")
    if sorted(chain) != sorted(weights):
        p.fail("order chain must mention every generator exactly once", order_tok)
    gens = [Generator(i, nm, weights[nm]) for i, nm in enumerate(chain)]
    pres = Presentation(name_tok.value, kind, gens, order_tok.value)

    relations = []
    if p.peek().kind == "name" and p.peek().value == "relations":
        p.next()
        while p.peek().kind != "end":
            rel_tok = p.peek()
            poly = _parse_poly_tokens(p, pres)
            if not poly:
                p.fail("relation reduces to zero", rel_tok)
            relations.append(poly)
            p.expect_punct(";")
    p.expect_end()
    if relations:
        pres = pres.with_relations(relations)
    return pres


def parse_poly(pres, text):
    """Parse one polynomial against an existing presentation."""
    p = _Parser(_tokenize(text))
    poly = _parse_poly_tokens(p, pres)
    p.expect_end()
    return poly


def _parse_poly_tokens(p, pres):
    """A sum, or an equation L = R as L - R, built as one polynomial."""
    acc = {}
    _parse_sum(p, pres, acc, 1)
    if p.at_punct("="):
        p.next()
        _parse_sum(p, pres, acc, -1)
    return pres.poly(acc)


def _parse_sum(p, pres, acc, side):
    """Add side times each signed term of a sum into acc."""
    sign = side
    if p.at_punct("-"):
        p.next()
        sign = -side
    elif p.at_punct("+"):
        p.next()
    while True:
        c, m = _parse_term(p, pres)
        acc[m] = acc.get(m, 0) + sign * c
        if not (p.at_punct("+") or p.at_punct("-")):
            return
        sign = -side if p.next().value == "-" else side


def _parse_term(p, pres):
    """A product of numbers and generator powers, as (coefficient,
    monomial); a power is expanded once."""
    c, m = 1, pres.one()
    while True:
        tok = p.next()
        if tok.kind == "int":
            if p.at_punct("/"):
                p.next()
                dtok = p.next()
                if dtok.kind != "int" or dtok.value == 0:
                    p.fail("denominator must be a nonzero integer", dtok)
                c *= Fraction(tok.value, dtok.value)
            else:
                c *= tok.value
        elif tok.kind == "name":
            try:
                idx = pres.generator_index(tok.value)
            except AlgebraError:
                p.fail(f"unknown generator {tok.value!r}", tok)
            exp = 1
            if p.at_punct("^"):
                p.next()
                etok = p.next()
                if etok.kind != "int" or etok.value < 1:
                    p.fail("exponent must be a positive integer", etok)
                exp = etok.value
            m = pres.monomial_mul(m, pres.gen_monomial(idx, exp))
        else:
            p.fail("expected a number or generator", tok)
        if not p.at_punct("*"):
            return c, m
        p.next()


def make_bn(n):
    """The algebra B_n on generators a_i, b_i, c_i for 0 <= i <= n.

    Quadratic-free cubic/quadratic mix whose resolution stays minimal for
    B_1 but not for B_2 and beyond.
    """
    if n < 1:
        raise AlgebraError("make_bn needs n >= 1")
    names = [f"{letter}{i}" for i in range(n, -1, -1) for letter in "abc"]
    gens = [Generator(k, nm) for k, nm in enumerate(names)]
    pres = Presentation(f"B{n}", NONCOMMUTATIVE, gens, DEGLEX)

    def w(*names):
        return pres.monomial_poly(pres.word(*names))

    relations = [w(f"a{n}", f"b{n}", f"c{n}"), w("c0", "a0")]
    for i in range(n):
        j = i + 1
        relations.append(pres.add(w(f"a{i}", f"b{i}", f"c{i}"),
                                  w(f"c{j}", f"a{j}", f"b{j}")))
        relations.append(w(f"b{j}", f"c{j}", f"a{j}"))
        relations.append(w(f"c{i}", f"c{j}"))
        relations.append(w(f"b{j}", f"a{i}"))
    return pres.with_relations(relations)
