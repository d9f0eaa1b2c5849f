"""Pins of the text grammars: ring literals, matrix literals and words.

A seeded corpus of near-valid and random strings is parsed, and the value or
the exception class, message and position of every outcome is hashed; the
digest was taken before the two grammars came to share one scanner.  The
alphabets include characters that only Unicode counts as whitespace or
digits (em space, the file separator, the Arabic-Indic digit three).  The
ring-literal reader is also checked against one regular expression, and
against a frozen copy of the token-by-token scanner that reported its errors
before it did.
"""

import hashlib
import random
import re
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from prymrep.cyclotomic import (_SPACE, MAX_DIGITS, MAX_EXPONENT, CycInt, ParseError, _dense, _int,
                                _literal_terms, parse_ring_literal)
from prymrep.ringlinalg import parse_matrix_poly
from prymrep.wordlang import parse

_SPACES = (" ", "  ", "\t", "\u2003", "\x1c")
_NOISE = "0123456789z+-*^()[],;xT \t\u2003\x1c\u0663"
# name -> (number of indices, what follows them), with two unknown names
_ARGS = {"T": (0, ""), "Zeta": (1, ""), "Ti": (1, ";"), "Tij": (2, ";"),
         "AH": (1, ""), "G1": (1, ""), "G2": (2, ""), "G3": (3, ""),
         "GammaIK": (2, ""), "AHPrime": (2, ""), "UrSp": (0, "matrix"),
         "Q": (1, ""), "ti": (0, "")}


def _sp(rng):
    return rng.choice(_SPACES) if rng.random() < 0.3 else ""


def _digits(rng):
    # rarely five digits and never more, so no exponent passes MAX_EXPONENT
    top = 99999 if rng.random() < 0.002 else 999
    text = str(rng.choice((0, 1, 2, 3, 7, 12, 100, rng.randint(0, top))))
    return "\u0663" if rng.random() < 0.05 else text


def _mutate(rng, text):
    """Replace, insert or delete one character, half of the time."""
    if rng.random() < 0.5:
        return text
    at = rng.randint(0, len(text))
    ch = rng.choice(_NOISE)
    return rng.choice((text[:at] + ch + text[at + 1:],
                       text[:at] + ch + text[at:],
                       text[:at] + text[at + 1:]))


def _term(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return _digits(rng)
    z = "z" if rng.random() < 0.5 else f"z{_sp(rng)}^{_sp(rng)}{_digits(rng)}"
    if kind == 1:
        return z
    return f"{_digits(rng)}{_sp(rng)}{rng.choice(('*', ''))}{_sp(rng)}{z}"


def _literal(rng):
    out = _sp(rng) + rng.choice(("", "-", "+")) + _sp(rng)
    for n in range(rng.randint(1, 4)):
        if n:
            out += _sp(rng) + rng.choice("+-") + _sp(rng)
        out += _term(rng)
    return out + _sp(rng)


def _noise(rng):
    return "".join(rng.choice(_NOISE) for _ in range(rng.randint(0, 10)))


def _word(rng):
    factors = []
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(list(_ARGS))
        count, tail = _ARGS[name]
        if rng.random() < 0.2:
            count, tail = rng.randint(0, 3), rng.choice(("", ";", "matrix"))
        args = ",".join(rng.choice(("1", "2", "-1", "0", "3", "\u0663", "-"))
                        for _ in range(count))
        if tail == ";":
            args += f"{_sp(rng)};{_sp(rng)}{_literal(rng)}"
        elif tail:
            args += _matrix(rng)
        factor = name + (f"({args})" if args or rng.random() < 0.3 else "")
        if rng.random() < 0.3:
            factor += f"{_sp(rng)}^{_sp(rng)}{rng.choice(('2', '-1', '-3', '0'))}"
        factors.append(factor)
    return (_sp(rng) + rng.choice(("*", " * ", "\t*\u2003"))).join(factors)


def _matrix(rng):
    size = rng.randint(1, 2)
    rows = [", ".join(_literal(rng) for _ in range(size + (rng.random() < 0.1)))
            for _ in range(size)]
    return " ; ".join(rows)


def _outcome(parse_text, text):
    try:
        return repr(parse_text(text))
    except Exception as exc:
        return f"{type(exc).__name__}|{exc}|{getattr(exc, 'pos', None)}"


def _digest(cases):
    h = hashlib.sha256()
    for parse_text, text in cases:
        h.update(f"{text!r}|{_outcome(parse_text, text)}\n".encode())
    return h.hexdigest()


def _cases(seed, count, draw):
    """count draws of (parser, text), less those with a digit run long
    enough to pass MAX_EXPONENT: beyond it the outcome changed on purpose."""
    rng = random.Random(seed)
    for n in range(count):
        parse_text, text = draw(rng, n)
        if not re.search(r"\d{6}", text):
            yield parse_text, text


@lru_cache(maxsize=None)
def _literal_cases():
    return tuple(_cases(10, 20000, lambda rng, n: (
        parse_ring_literal, _mutate(rng, _literal(rng)) if n % 4 else _noise(rng))))


def _word_and_matrix_cases():
    return _cases(11, 10000, lambda rng, n: (
        (parse, _mutate(rng, _word(rng))) if n % 2
        else (lambda t: parse_matrix_poly(t, lambda *span: _dense(_literal_terms(*span))),
              _mutate(rng, _matrix(rng)))))


# WORD_DIGEST was retaken when matrix entries came to be read in place (an
# entry's error carries the whole matrix text and its position in it) and
# the quote of a text came to be bounded by its repr (three words of about
# 200 characters with a repr over MAX_ECHO + 2 are quoted as a window).
# Both were retaken when an unexpected character came to be reported at its
# own position, not after the last token before it: 771 literal and 96
# matrix outcomes moved, each an "unexpected character" error
LITERAL_DIGEST = "4643b332ce00145fd19482a3f27176cf71528d4c503b798de8b82fa24d41da30"
WORD_DIGEST = "59993a1f8a5c993874fb84467c7f071239333951955f7a75e939f4fdfdc9ffb5"


def test_ring_literal_digest():
    assert _digest(_literal_cases()) == LITERAL_DIGEST


def test_word_and_matrix_digest():
    assert _digest(_word_and_matrix_cases()) == WORD_DIGEST


def test_literals_fold_like_the_parsed_polynomial():
    # from_literal folds the scanner's terms itself; it must agree with
    # from_poly of parse_ring_literal, errors and their positions included
    for _, text in _literal_cases():
        for d in (2, 5, 12):
            want = _outcome(lambda t: CycInt.from_poly(d, parse_ring_literal(t)), text)
            assert _outcome(lambda t: CycInt.from_literal(d, t), text) == want, (d, text)


# digit runs at and past their bounds, the exponent budget, an exponent
# zero-padded past six digits, a Unicode digit, whitespace, terms that
# cancel or repeat, and text that a backtracking match is slow to reject
_BOUNDARY = (f"{'9' * MAX_DIGITS}*z", f"1 - {'9' * (MAX_DIGITS + 1)}*z",
             f"z^{'0' * (MAX_DIGITS - 1)}1", f"z^{'0' * MAX_DIGITS}1",
             f"z^{MAX_EXPONENT}", f"3 + z^{MAX_EXPONENT + 1}", "z^0000001", "z^\u0663",
             "\t1\n+ z\u2003-\x1cz^2 ", "2 z", "-0*z", "3z^2-z+z", "1 z+" * 40,
             " " * 10**5 + "x", " - " + " " * 10**5 + "z  *")


class _Scanner:
    """The token cursor of the frozen reference below: whitespace is skipped
    before every read, so an error reports the position of the next token."""

    def __init__(self, text):
        self.text, self.pos = text, 0

    def err(self, message):
        raise ParseError(message, self.text, self.pos)

    def peek(self):
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def done(self):
        return not self.peek()

    def take(self, regex):
        self.peek()
        m = regex.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()

    def need(self, regex, what):
        token = self.take(regex)
        if token is None:
            self.err(f"expected {what}")
        return token

    def integer(self, token):
        try:
            return _int(token)
        except ValueError as exc:
            self.pos -= len(token)
            self.err(exc.args[0])


_UNEXPECTED = re.compile(r"[^\s\dz*^+-]|\Z")
_SIGN = re.compile(r"[+-]")
_DIGITS = re.compile(r"\d+")


def _scanned_terms(text):
    """The token-by-token ring-literal parser that reported every literal
    error before the term pattern did, frozen with its cursor as the
    reference for it."""
    bad = _UNEXPECTED.search(text).start()
    if bad < len(text) and not text[bad:].isspace():
        raise ParseError("unexpected character in ring literal", text, bad)
    s = _Scanner(text)
    if s.done():
        raise ParseError("empty ring literal", text, 0)
    coeffs = {}
    sign = s.take(_SIGN)
    while True:
        if sign and s.done():
            s.err("dangling sign in ring literal")
        coeff = s.take(_DIGITS)
        c = 1 if coeff is None else s.integer(coeff)
        if coeff and s.peek() == "*":
            s.pos += 1
            if s.peek() != "z":
                s.err("expected 'z' after '*'")
        exp = 0
        if s.peek() == "z":
            s.pos += 1
            exp = 1
            if s.peek() == "^":
                s.pos += 1
                digits = s.need(_DIGITS, "integer exponent after '^'")
                exp = s.integer(digits)
                if exp > MAX_EXPONENT:
                    s.pos -= len(digits)
                    s.err(f"exponent {exp} is over the budget MAX_EXPONENT = {MAX_EXPONENT}")
        elif coeff is None:
            s.err("expected integer or 'z'")
        coeffs[exp] = coeffs.get(exp, 0) + (-c if sign == "-" else c)
        if s.done():
            break
        sign = s.need(_SIGN, "'+' or '-' between terms")
    return coeffs


def test_one_match_reads_like_the_scanner():
    # _literal_terms reads a literal one term per match and reports its own
    # errors; it must give the frozen scanner's terms, or its error and position
    for text in (*(text for _, text in _literal_cases()), *_BOUNDARY):
        assert _outcome(_literal_terms, text) == _outcome(_scanned_terms, text), text


# the grammar in the cyclotomic docstring as one regex
_TERM = r"(?:\d+(?:\s*\*?\s*z(?:\s*\^\s*\d+)?)?|z(?:\s*\^\s*\d+)?)"
_RING_LITERAL = re.compile(rf"\s*[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")


def _parses(text):
    try:
        parse_ring_literal(text)
    except ParseError:
        return False
    return True


def _in_language(text):
    exponents = [int(e) for e in re.findall(r"\^\s*(\d+)", text)]
    return (_RING_LITERAL.fullmatch(text) is not None
            and all(e <= MAX_EXPONENT for e in exponents))


def test_ring_literal_corpus_is_a_regular_language():
    accepted = 0
    for _, text in _literal_cases():
        parsed = _parses(text)
        assert parsed == _in_language(text), text
        accepted += parsed
    assert accepted > 10000


@given(st.text(alphabet="0123456789z+-*^ \t\u2003\x1c\u0663x", max_size=16))
@settings(max_examples=500, deadline=None)
def test_ring_literal_is_a_regular_language(text):
    assert _parses(text) == _in_language(text)
