"""Exact arithmetic for presented algebras: monomials, orders, polynomials.

Monomials are plain tuples.  In a free (noncommutative) algebra a monomial is
a word of generator indices; in a commutative polynomial algebra it is an
exponent vector with one entry per generator.  Scalars are exact: every
public polynomial carries ``fractions.Fraction`` coefficients, while a
completed free-algebra basis keeps its rules with integral coefficients as
plain ``int`` (``NcGB.rules``).  No floating point enters any computation.

A :class:`Presentation` fixes the algebra kind, the named graded generators,
an admissible monomial order and a list of relations, and acts as the
arithmetic context for everything built on top of it.

Generators are numbered in order of the term order, largest first: index 0
is the largest letter.  So within one degree two words compare as plain
tuples (the smaller tuple is the larger word), and an exponent vector lists
the largest generator's exponent first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

COMMUTATIVE = "commutative"
NONCOMMUTATIVE = "noncommutative"

DEGLEX = "deglex"
LEX = "lex"


class AlgebraError(Exception):
    """Malformed object or invalid algebraic operation."""


class BoundError(AlgebraError):
    """A degree or level bound, or a completion certificate, was exceeded."""


@dataclass(frozen=True)
class Generator:
    """A named generator with its grading weight; its index is its
    position in the presentation's list."""

    name: str
    degree: int = 1


class Polynomial:
    """Immutable scalar combination of monomials, terms sorted descending.

    The term tuple is the whole identity of the polynomial: two polynomials
    are equal iff they carry the same monomials with the same coefficients.
    The zero polynomial has no terms.  Construction goes through
    :meth:`Presentation.poly` so the terms come out sorted under the active
    order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"Polynomial({self.terms!r})"

    @property
    def leading(self):
        """Leading (monomial, coefficient) pair; error on the zero polynomial."""
        if not self.terms:
            raise AlgebraError("zero polynomial has no leading term")
        return self.terms[0]


class Presentation:
    """A presented algebra over the rationals.

    ``order`` is ``"deglex"`` (degree first, then letter by letter) or
    ``"lex"`` (commutative algebras only, since lex does not well-order the
    free monoid).  Generator ``i`` is the list's entry ``i``, and the list
    runs from the largest generator under the order to the smallest.

    Instances are immutable after construction.  ``relations`` may be
    empty (a free or polynomial algebra).  Use :meth:`with_relations` to
    attach relations parsed against a relation-free presentation.
    """

    def __init__(self, name, kind, generators, order, relations=()):
        if kind not in (COMMUTATIVE, NONCOMMUTATIVE):
            raise AlgebraError(f"unknown algebra kind {kind!r}")
        generators = tuple(generators)
        if not generators:
            raise AlgebraError("a presentation needs at least one generator")
        for g in generators:
            if g.degree < 1:
                raise AlgebraError(f"generator {g.name!r} has degree {g.degree}; weights must be >= 1")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator name")
        if order not in (DEGLEX, LEX):
            raise AlgebraError(f"unknown order kind {order!r}")
        if order == LEX and kind == NONCOMMUTATIVE:
            raise AlgebraError("lex does not well-order the free monoid; use deglex")
        self.name = name
        self.kind = kind
        self.generators = generators
        self.order = order
        self._degrees = tuple(g.degree for g in generators)
        # with unit weights a word's degree is its length
        self._unit_degrees = all(d == 1 for d in self._degrees)
        self._names = tuple(names)
        self._by_name = {g.name: i for i, g in enumerate(generators)}
        relations = tuple(relations)
        for rel in relations:
            if not isinstance(rel, Polynomial):
                raise AlgebraError("relations must be Polynomial values")
            if not rel:
                raise AlgebraError("zero polynomial is not a valid relation")
        self.relations = relations

    # -- structure ---------------------------------------------------------

    @property
    def ngens(self):
        return len(self.generators)

    def generator_index(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def generator_degree(self, index):
        return self._degrees[index]

    def with_relations(self, relations):
        return Presentation(self.name, self.kind, self.generators, self.order,
                            tuple(relations))

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.name == other.name
                and self.kind == other.kind
                and self.generators == other.generators
                and self.order == other.order
                and self.relations == other.relations)

    def __repr__(self):
        return (f"Presentation({self.name!r}, {self.kind}, "
                f"{len(self.generators)} generators, {len(self.relations)} relations)")

    # -- monomials ---------------------------------------------------------

    def one(self):
        """The unit monomial."""
        if self.kind == NONCOMMUTATIVE:
            return ()
        return (0,) * self.ngens

    def gen_monomial(self, index, exponent=1):
        """The power of one generator."""
        if self.kind == NONCOMMUTATIVE:
            return (index,) * exponent
        return tuple(exponent if i == index else 0 for i in range(self.ngens))

    def word(self, *names):
        """Monomial from generator names, multiplied left to right."""
        m = self.one()
        for nm in names:
            m = self.monomial_mul(m, self.gen_monomial(self.generator_index(nm)))
        return m

    def monomial_degree(self, m):
        d = self._degrees
        if self.kind == NONCOMMUTATIVE:
            return len(m) if self._unit_degrees else sum(d[i] for i in m)
        return sum(e * d[i] for i, e in enumerate(m))

    def monomial_mul(self, a, b):
        if self.kind == NONCOMMUTATIVE:
            return a + b
        return tuple(x + y for x, y in zip(a, b))

    def term_key(self, m):
        """Sort key: larger monomial under the active order, larger key."""
        if self.kind == NONCOMMUTATIVE:
            return (self.monomial_degree(m), tuple(-i for i in m))
        if self.order == LEX:
            return m
        return (self.monomial_degree(m), m)

    def heap_key(self, word):
        """Min-heap key of a noncommutative word: larger word, smaller key.

        Every generator has degree >= 1, so no word is a proper prefix of
        another of the same degree; such words differ at some letter, where
        the larger word has the smaller index, so this key orders words
        exactly opposite to term_key.
        """
        if self._unit_degrees:
            return (-len(word), word)
        return (-sum(map(self._degrees.__getitem__, word)), word)

    # -- polynomials -------------------------------------------------------

    def poly(self, mapping):
        """Polynomial from a monomial -> coefficient mapping."""
        items = []
        for m, c in mapping.items():
            c = Fraction(c)
            if c:
                items.append((m, c))
        items.sort(key=lambda mc: self.term_key(mc[0]), reverse=True)
        return Polynomial(tuple(items))

    def zero(self):
        return Polynomial(())

    def monomial_poly(self, m, coefficient=1):
        return self.poly({m: coefficient})

    def add(self, f, g):
        acc = dict(f.terms)
        for m, c in g.terms:
            acc[m] = acc.get(m, 0) + c
        return self.poly(acc)

    def sub(self, f, g):
        acc = dict(f.terms)
        for m, c in g.terms:
            acc[m] = acc.get(m, 0) - c
        return self.poly(acc)

    def scale(self, c, f):
        c = Fraction(c)
        if not c:
            return self.zero()
        return Polynomial(tuple((m, c * cf) for m, cf in f.terms))

    def mul(self, f, g):
        acc = {}
        for m1, c1 in f.terms:
            for m2, c2 in g.terms:
                m = self.monomial_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return self.poly(acc)

    def poly_degree(self, f):
        """Largest monomial degree; -1 for the zero polynomial."""
        if not f:
            return -1
        return max(self.monomial_degree(m) for m, _ in f.terms)

    def is_homogeneous(self, f):
        if not f:
            return True
        degs = {self.monomial_degree(m) for m, _ in f.terms}
        return len(degs) == 1

    def require_graded(self):
        for rel in self.relations:
            if not self.is_homogeneous(rel):
                raise AlgebraError(
                    f"presentation {self.name!r} is not graded: "
                    f"relation {self.format_poly(rel)} is inhomogeneous")

    # -- rendering ---------------------------------------------------------

    def format_monomial(self, m):
        if self.kind != NONCOMMUTATIVE:
            return "*".join(n if e == 1 else f"{n}^{e}"
                            for n, e in zip(self._names, m) if e) or "1"
        if not m:
            return "1"
        # one pass, a power per run of one letter
        names, parts, prev, run = self._names, [], m[0], 0
        for a in m:
            if a != prev:
                parts.append(names[prev] if run == 1 else f"{names[prev]}^{run}")
                prev, run = a, 0
            run += 1
        parts.append(names[prev] if run == 1 else f"{names[prev]}^{run}")
        return "*".join(parts)

    def format_poly(self, f):
        """The polynomial as text, terms in descending order, "0" for zero."""
        unit = self.one()
        parts = []
        for k, (m, c) in enumerate(f.terms):
            mag = abs(c)
            digits = str(mag)
            if m == unit:
                body = digits
            elif mag == 1:
                body = self.format_monomial(m)
            else:
                body = f"{digits}*{self.format_monomial(m)}"
            if k == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts) or "0"
