"""Words in named generators: the textual interface for constructive inputs
and outputs.

Grammar (EBNF):

    word   := factor { "*" factor }
    factor := gen [ "^" int ]
    gen    := NAME [ "(" args ")" ]
    args   := [ indices ] [ ";" ring-literal | matrix-literal ]

The names, the number and kind of the indices, and what follows them come
from generators.FAMILIES: a generator with no arguments is written bare (T),
ring scalars follow the indices after ";" (Ti, Tij), and UrSp takes an inline
matrix literal.  The empty string denotes the identity.  Evaluation is the
left-to-right product, kept as sparse columns that every factor Id + N joins
by column operations, with no matrix product: whatever its exponent if N's
nonzero entries occupy disjoint rows and columns, else by the entries of N or
of its form dual N', ringlinalg's one form-inverse rule, powered as a matrix
first for |e| >= 2; no symbolic simplification is performed.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from operator import add

from .cyclotomic import (_PRINT_BOUND, _SPACE, MAX_PRINT_DIGITS, ParseError, _dense, _int, _ints,
                         _literal_terms, _mul_reduce, _power, render_poly)
from .generators import FAMILIES, GenSpec, _entries
from .ringlinalg import (BlockMat, RingMatrix, _form_dual, _less_id, _matrix_text, _one_zero,
                         _rank_update, _side, parse_matrix_poly)

# Largest |e| of a factor raised by binary powering: the entries of a
# hyperbolic UrSp grow by a constant number of digits per unit of e.
MAX_POWER = 10**4
MAX_DENSE = 10**6  # largest sum of (top exponent + 1) over the ring literals of a word

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_INT = re.compile(r"-?\d+")


class Word:
    """A product of (generator, exponent) factors; empty means identity."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        factors = tuple(factors)
        if not all(isinstance(f, tuple) and len(f) == 2 and isinstance(f[0], GenSpec)
                   for f in factors):
            raise ValueError("word factors must be (GenSpec, int) pairs")
        exponents = _ints([e for _, e in factors], "word exponents")
        self.factors = tuple((spec, e) for (spec, _), e in zip(factors, exponents) if e)

    def __mul__(self, other):
        """The product, joining the two clean factor tuples without checking
        them again."""
        if not isinstance(other, Word):
            return NotImplemented
        word = object.__new__(Word)
        word.factors = self.factors + other.factors
        return word

    def __len__(self):
        return len(self.factors)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def render(self) -> str:
        parts = []
        for spec, e in self.factors:
            fam = FAMILIES[spec.name]
            args = ",".join(str(i) for i in spec.indices)
            if spec.scalar is not None:
                args += "; " + render_poly(spec.scalar)
            if spec.matrix is not None:
                args += _matrix_text(spec.matrix)
            body = f"{spec.name}({args})" if fam.slots or fam.takes else spec.name
            parts.append(body if e == 1 else f"{body}^{e}")
        return " * ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Word('{self.render()}')"


@lru_cache(maxsize=4096, typed=True)
def _factor(name, g, d, *args):
    """The nonzero entries (p, q, c) of a factor's N, c a coefficient tuple, and
    whether their rows and columns are disjoint: up to 4096 entries of O(g phi(d))
    ints, keyed by name, g, d and the reduced GenSpec._args(d); UrSp bypasses it."""
    support = tuple(entry for entry in _entries(name, g, d, *args) if any(entry[2]))
    return support, {p for p, _, _ in support}.isdisjoint(q for _, q, _ in support)


def evaluate(word: Word, d: int, g: int) -> BlockMat:
    """The left-to-right product of the factors raised to their exponents.

    Every factor is Id + N for the entries (p, q, c) of N that the family
    gives through generators._entries, read through _factor.  The product is
    kept as one dict per column, {row: coefficient tuple} of its nonzeros,
    from the unit columns on, and becomes a grid at the end.  A factor joins
    it by column operations, not by a matrix product: column q gains c times
    column p (its nonzeros alone; a 1 adds c as it stands) for each entry
    (p, q, c) of the factor's power less Id, every gain read from the columns
    as they stand before any is added.  If N's rows and columns are
    disjoint, N^2 = 0 and those entries are e*c (c for e = 1) for every
    integer e.  Else |e| is at most MAX_POWER; a negative e turns N into its
    form dual N' (ringlinalg._form_dual, as BlockMat.form_inverse does), as
    (Id + N)^-1 = Id + N' in U (UrSp literals are checked on entry, the other
    families by construction); and |e| >= 2 raises Id + N by the one binary
    powering, cyclotomic._power, which stops at the first step past
    MAX_PRINT_DIGITS (the check it passes), and joins by its power less Id.
    """
    size = _side(g)
    n, (one, zero) = size // 2, _one_zero(d)
    cols = {q: {q: one} for q in range(size)}
    for spec, e in word.factors:
        read = _factor.__wrapped__ if spec.matrix is not None else _factor
        support, disjoint = read(spec.name, g, d, *spec._args(d))
        if disjoint:
            if e != 1:
                support = [(p, q, tuple([e * x for x in c])) for p, q, c in support]
        elif abs(e) > MAX_POWER:
            raise ValueError(f"exponent {e} of {spec.name} is over the budget "
                             f"MAX_POWER = {MAX_POWER}")
        else:
            if e < 0:
                support, e = _form_dual(d, n, support), -e
            if e > 1:
                def check(power):
                    coeffs = chain.from_iterable(chain.from_iterable(power.coeffs))
                    if max(map(abs, coeffs)) >= _PRINT_BOUND:
                        raise ValueError(f"a power of {spec.name} passes the budget "
                                         f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS} digits")
                power = _power(_rank_update(d, g, support).mat, e, None, check).coeffs
                support = _less_id(power, one)
        adds = [(cols[q], r, c if x == one else _mul_reduce(d, x, c))
                for p, q, c in support for r, x in cols[p].items()]
        for col, r, y in adds:
            if r in col:
                y = tuple(map(add, col.pop(r), y))
            if any(y):
                col[r] = y
    grid = tuple(tuple([col.get(p, zero) for col in cols.values()]) for p in range(size))
    return BlockMat(RingMatrix._make(d, grid), g)


class _Parser:
    """The reader of word text, a cursor over it.  Whitespace is
    insignificant: every read skips it first, so an error reports the
    position of the next token, or the end of the text."""

    def __init__(self, text):
        self.text, self.pos = text, 0
        self.expanded = 0  # (top exponent + 1) summed over the ring literals read so far

    def err(self, message):
        raise ParseError(message, self.text, self.pos)

    def peek(self):
        """The next character after whitespace, or "" at the end."""
        if self.text[self.pos:self.pos + 1].isspace():  # isspace and \s agree
            self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def expect(self, ch):
        if self.peek() != ch:
            self.err(f"expected {ch!r}")
        self.pos += 1

    def need(self, regex, what):
        """Consume and return the next token, which regex must match; else
        the error "expected <what>"."""
        self.peek()
        m = regex.match(self.text, self.pos)
        if m is None:
            self.err(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def integer(self):
        """The next token, an integer read by _int; an error points at its start."""
        token = self.need(_INT, "an integer")
        try:
            return _int(token)
        except ValueError as exc:
            self.pos -= len(token)
            self.err(exc.args[0])

    def ring(self, text, pos, end):  # parse_ring_literal in place, checked against MAX_DENSE
        terms = _literal_terms(text, pos, end)
        self.expanded += max(terms) + 1
        if self.expanded > MAX_DENSE:
            self.err(f"dense length {self.expanded} is over the budget MAX_DENSE = {MAX_DENSE}")
        return _dense(terms)

    def literal(self, read, what):
        """A ring or matrix literal, read in place by read(text, pos, end):
        the text up to the next ')', which neither kind contains."""
        start = self.pos
        end = self.text.find(")", start)
        if end < 0:
            self.err(f"bad {what} literal (unterminated '(')")
        try:
            value = read(self.text, start, end)
        except ParseError as exc:
            self.err(f"bad {what} literal ({exc.message})")
        self.pos = end
        return value

    def factor(self):
        nm = self.need(_NAME, "a generator name")
        start = self.pos - len(nm)  # a refusal of the name or of GenSpec points here
        fam = FAMILIES.get(nm)
        if fam is None:
            self.pos = start
            self.err(f"unknown generator name {nm!r}")
        indices, scalar, matrix = [], None, None
        if fam.slots or fam.takes:
            self.expect("(")
            for n in range(len(fam.slots)):
                if n:
                    self.expect(",")
                indices.append(self.integer())
            if fam.takes == "matrix":
                matrix = self.literal(
                    lambda text, pos, end: parse_matrix_poly(text, self.ring, pos, end), "matrix")
            elif fam.takes:
                self.expect(";")
                scalar = self.literal(self.ring, "ring")
            self.expect(")")
        try:
            spec = GenSpec(nm, tuple(indices), scalar, matrix)
        except ValueError as exc:
            self.pos = start
            self.err(str(exc))
        exponent = 1
        if self.peek() == "^":
            self.pos += 1
            exponent = self.integer()
        return spec, exponent

    def word(self):
        factors = []
        while self.peek():
            if factors:
                self.expect("*")
            factors.append(self.factor())
        return Word(tuple(factors))


def parse(text: str) -> Word:
    """Parse word text; inverse of Word.render on canonical forms."""
    return _Parser(text).word()
