"""Text format for presentations, plus built-in presentation families.

The format is line-oriented only by convention; statements end with ``;`` and
whitespace is free.  Comments run from ``#`` to end of line.

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


_PUNCT = {";", ":", ">", "+", "-", "*", "^", "/", "="}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # "name" | "int" | "punct" | "end"
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
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
    tok = p.peek()
    if tok.kind != "end":
        p.fail(f"unexpected trailing input {tok.value!r}", tok)
    if relations:
        pres = pres.with_relations(relations)
    return pres


def parse_poly(pres, text):
    """Parse one polynomial against an existing presentation."""
    p = _Parser(_tokenize(text))
    poly = _parse_poly_tokens(p, pres)
    tok = p.peek()
    if tok.kind != "end":
        p.fail(f"unexpected trailing input {tok.value!r}", tok)
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


def serialize_presentation(pres):
    """Render a presentation back to parseable text."""
    lines = [f"algebra {pres.name} ;", f"kind {pres.kind} ;"]
    gparts = []
    for g in pres.generators:
        gparts.append(g.name if g.degree == 1 else f"{g.name}:{g.degree}")
    lines.append(f"generators {' '.join(gparts)} ;")
    chain = " > ".join(g.name for g in pres.generators)
    lines.append(f"order {pres.order} {chain} ;")
    if pres.relations:
        lines.append("relations")
        for rel in pres.relations:
            lines.append(f"    {pres.format_poly(rel)} ;")
    return "\n".join(lines) + "\n"


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


def free_product(p, q):
    """Free product of two noncommutative presentations.

    Generators of ``q`` keep their names unless they collide with ``p``'s,
    in which case they gain a trailing apostrophe.  The order is deglex with
    all of ``p``'s generators above all of ``q``'s.
    """
    if p.kind != NONCOMMUTATIVE or q.kind != NONCOMMUTATIVE:
        raise AlgebraError("free products are defined for noncommutative presentations")
    taken = {g.name for g in p.generators}
    gens = list(p.generators)
    shift = p.ngens
    for g in q.generators:
        name = g.name
        while name in taken:
            name += "'"
        taken.add(name)
        gens.append(Generator(len(gens), name, g.degree))
    out = Presentation(f"{p.name}_star_{q.name}", NONCOMMUTATIVE, gens, DEGLEX)
    relations = list(p.relations)
    for rel in q.relations:
        relations.append(out.poly({tuple(i + shift for i in m): c for m, c in rel.terms}))
    return out.with_relations(relations)
