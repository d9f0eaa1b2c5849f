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
left-to-right product, kept as rows: a factor Id + N whose nonzero entries
occupy disjoint rows and columns is a handful of column operations whatever
its exponent, and any other factor is a matrix, inverted for a negative
exponent by the division-free form inverse; no symbolic simplification is
performed.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from operator import add

from .cyclotomic import (_PRINT_BOUND, MAX_PRINT_DIGITS, ParseError, _dense, _ints, _literal_terms,
                         _mul_reduce, _power, _power_table, _Scanner, render_poly)
from .generators import FAMILIES, GenSpec, _entries, _rank_update
from .ringlinalg import BlockMat, RingMatrix, _matrix_text, parse_matrix_poly

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
    """The nonzero entries (p, q, c) of a factor's N, and whether their rows
    and columns are disjoint: up to 4096 entries of O(g phi(d)) ints, keyed by
    name, g, d and the reduced GenSpec._args(d); UrSp bypasses via __wrapped__."""
    support = tuple((p, q, c) for p, q, c in _entries(name, g, d, *args) if any(c.coeffs))
    return support, {p for p, _, _ in support}.isdisjoint(q for _, q, _ in support)


def evaluate(word: Word, d: int, g: int) -> BlockMat:
    """The left-to-right product of the factors raised to their exponents.

    Every factor is Id + N for the entries (p, q, c) of N that the family
    gives through generators._entries, read through _factor.  The product is
    kept as mutable rows of coefficient tuples.  If the rows and the columns
    of N's nonzero entries are disjoint, N^2 = 0, so the factor's power is
    Id + eN for every integer e: multiplying by it adds e*c times column p
    into column q for each entry, and it never becomes a matrix; where the
    column-p entry is the ring's 1, e*c is added as it stands.  Any other
    factor is built by generators._rank_update, inverted for a negative
    exponent by the division-free BlockMat.form_inverse, -Omega M* Omega
    (every generator lies in U: UrSp literals are checked on entry, the
    other families by construction), raised by the package's one binary
    powering, cyclotomic._power, and joined by one product.  Such a factor's
    |e| is at most MAX_POWER, and its powering stops at the first step past
    MAX_PRINT_DIGITS (the check it passes _power, one max over every
    coefficient); a column-op factor's exponent is unbounded.
    """
    rows = [list(row) for row in BlockMat.identity(d, g).mat.coeffs]
    for spec, e in word.factors:
        read = _factor.__wrapped__ if spec.matrix is not None else _factor
        support, disjoint = read(spec.name, g, d, *spec._args(d))
        if disjoint:
            one = _power_table(d)[0]
            for p, q, c in support:
                c = tuple(e * x for x in c.coeffs)
                for row in rows:
                    x = row[p]
                    if any(x):
                        row[q] = tuple(map(add, row[q], c if x == one else _mul_reduce(d, x, c)))
            continue
        if abs(e) > MAX_POWER:
            raise ValueError(f"exponent {e} of {spec.name} is over the budget "
                             f"MAX_POWER = {MAX_POWER}")
        m = _rank_update(d, g, support)
        if e < 0:
            m, e = m.form_inverse(), -e

        def check(power):
            coeffs = chain.from_iterable(chain.from_iterable(power.coeffs))
            if max(map(abs, coeffs)) >= _PRINT_BOUND:
                raise ValueError(f"a power of {spec.name} passes the budget "
                                 f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS} digits")
        m = _power(m.mat, e, None, check)  # e > 0: a word keeps no zero exponent
        m = RingMatrix._make(d, tuple(map(tuple, rows))) * m
        rows = [list(row) for row in m.coeffs]
    return BlockMat(RingMatrix._make(d, tuple(map(tuple, rows))), g)


class _Parser(_Scanner):
    expanded = 0  # (top exponent + 1) summed over the ring literals read so far

    def ring(self, text):  # parse_ring_literal, checked against MAX_DENSE first
        terms = _literal_terms(text)
        self.expanded += max(terms) + 1
        if self.expanded > MAX_DENSE:
            self.err(f"dense length {self.expanded} is over the budget MAX_DENSE = {MAX_DENSE}")
        return _dense(terms)

    def literal(self, parse_text, what):
        """A ring or matrix literal: raw text up to the next ')', which
        neither kind contains."""
        start = self.pos
        end = self.text.find(")", start)
        if end < 0:
            self.err(f"bad {what} literal (unterminated '(')")
        try:
            value = parse_text(self.text[start:end])
        except ParseError as exc:
            self.err(f"bad {what} literal ({exc.args[0].split(' at ')[0]})")
        self.pos = end
        return value

    def factor(self):
        nm = self.need(_NAME, "a generator name")
        fam = FAMILIES.get(nm)
        if fam is None:
            self.pos -= len(nm)
            self.err(f"unknown generator name {nm!r}")
        indices, scalar, matrix = [], None, None
        if fam.slots or fam.takes:
            self.expect("(")
            for n in range(len(fam.slots)):
                if n:
                    self.expect(",")
                indices.append(self.integer(self.need(_INT, "an integer")))
            if fam.takes == "matrix":
                matrix = self.literal(lambda t: parse_matrix_poly(t, self.ring), "matrix")
            elif fam.takes:
                self.expect(";")
                scalar = self.literal(self.ring, "ring")
            self.expect(")")
        try:
            spec = GenSpec(nm, tuple(indices), scalar, matrix)
        except ValueError as exc:
            self.err(str(exc))
        exponent = 1
        if self.peek() == "^":
            self.pos += 1
            exponent = self.integer(self.need(_INT, "an integer"))
        return spec, exponent

    def word(self):
        factors = []
        while not self.done():
            if factors:
                self.expect("*")
            factors.append(self.factor())
        return Word(tuple(factors))


def parse(text: str) -> Word:
    """Parse word text; inverse of Word.render on canonical forms."""
    return _Parser(text).word()
