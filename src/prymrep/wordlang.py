"""Words in named generators: the textual interface for constructive inputs
and outputs.

Grammar (EBNF):

    word   := factor { "*" factor }
    factor := gen [ "^" int ]
    gen    := NAME "(" args ")" | "T"
    args   := indices [ ";" ring-literal ]

Names: Ti, Tij, AH, AHPrime, TH, THPrime, TwistE, GammaIK, GammaIJK, Zeta,
G1, G2, G3, and UrSp (which takes an inline matrix literal instead of
indices).  The empty string denotes the identity.  Evaluation is the
left-to-right matrix product, with the division-free form inverse for
negative exponents; no symbolic simplification is performed.
"""

from __future__ import annotations

import re

from .cyclotomic import ParseError, parse_ring_literal, render_poly
from .generators import _ARITY, GenSpec, matrix_of
from .ringlinalg import BlockMat, parse_matrix_poly

_WS = re.compile(r"\s*")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_INT = re.compile(r"-?\d+")


class Word:
    """A product of (generator, exponent) factors; empty means identity."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        cleaned = []
        for spec, e in factors:
            if not isinstance(spec, GenSpec):
                raise ValueError("word factors must be (GenSpec, int) pairs")
            e = int(e)
            if e != 0:
                cleaned.append((spec, e))
        self.factors = tuple(cleaned)

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.factors + other.factors)

    def inverse(self):
        return Word(tuple((spec, -e) for spec, e in reversed(self.factors)))

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
            if spec.name == "T":
                body = "T"
            elif spec.name == "UrSp":
                rows = " ; ".join(
                    ", ".join(render_poly(p) for p in row) for row in spec.matrix
                )
                body = f"UrSp({rows})"
            else:
                args = ",".join(str(i) for i in spec.indices)
                if spec.scalar is not None:
                    args += "; " + render_poly(spec.scalar)
                body = f"{spec.name}({args})"
            parts.append(body if e == 1 else f"{body}^{e}")
        return " * ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Word('{self.render()}')"

    def evaluate(self, d: int, g: int) -> BlockMat:
        return evaluate(self, d, g)


def evaluate(word: Word, d: int, g: int) -> BlockMat:
    """Left-to-right product of factor matrices raised to their exponents.

    The product starts from the first factor, so a word of k factors with
    exponents +-1 costs k - 1 matrix products.  Every generator matrix lies in
    U (UrSp literals are checked on entry, the other families by
    construction), so a negative exponent inverts by the division-free
    BlockMat.form_inverse, -Omega M* Omega, before powering.
    """
    acc = None
    for spec, e in word.factors:
        m = matrix_of(spec, d, g)
        if e < 0:
            m, e = m.form_inverse(), -e
        m = m ** e
        acc = m if acc is None else acc * m
    return BlockMat.identity(d, g) if acc is None else acc


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def err(self, message):
        raise ParseError(message, self.text, self.pos)

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.err(f"expected {ch!r}")
        self.pos += 1

    def name(self):
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if m is None:
            self.err("expected a generator name")
        self.pos = m.end()
        return m.group()

    def integer(self):
        self.skip_ws()
        m = _INT.match(self.text, self.pos)
        if m is None:
            self.err("expected an integer")
        self.pos = m.end()
        return int(m.group())

    def until_close(self):
        """Raw text up to the next ')'; ring and matrix literals contain none."""
        end = self.text.find(")", self.pos)
        if end < 0:
            self.err("unterminated '('")
        chunk = self.text[self.pos:end]
        self.pos = end
        return chunk

    def factor(self):
        nm = self.name()
        if nm not in _ARITY:
            self.pos -= len(nm)
            self.err(f"unknown generator name {nm!r}")
        n_idx, has_scalar, has_matrix = _ARITY[nm]
        indices = ()
        scalar = None
        matrix = None
        if nm == "T":
            pass  # bare name, no argument list
        else:
            self.expect("(")
            if has_matrix:
                start = self.pos
                try:
                    matrix = parse_matrix_poly(self.until_close())
                except ParseError as exc:
                    self.pos = start
                    self.err(f"bad matrix literal ({exc.args[0].split(' at ')[0]})")
            else:
                idx = []
                for n in range(n_idx):
                    if n:
                        self.expect(",")
                    idx.append(self.integer())
                indices = tuple(idx)
                if has_scalar:
                    self.expect(";")
                    start = self.pos
                    try:
                        scalar = parse_ring_literal(self.until_close())
                    except ParseError as exc:
                        self.pos = start
                        self.err(f"bad ring literal ({exc.args[0].split(' at ')[0]})")
            self.expect(")")
        try:
            spec = GenSpec(nm, indices, scalar, matrix)
        except ValueError as exc:
            self.err(str(exc))
        exponent = 1
        if self.peek() == "^":
            self.pos += 1
            exponent = self.integer()
        return spec, exponent

    def word(self):
        factors = []
        if self.done():
            return Word(())
        factors.append(self.factor())
        while not self.done():
            self.expect("*")
            factors.append(self.factor())
        return Word(tuple(factors))


def parse(text: str) -> Word:
    """Parse word text; inverse of Word.render on canonical forms."""
    return _Parser(text).word()
