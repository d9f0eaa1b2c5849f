"""Independent oracle for the lower-right block: the action of free-group
automorphisms on the homology of the d-fold cyclic covering graph, computed
twice.

The covering graph of the wedge of g loops (x_g mapping to the generator of
Z/d, the others to 0) has d vertices in a cycle of x_g-edges; each x_i with
i < g lifts to a loop at every vertex.  The spanning tree is the x_g-edges
from sheets 0..d-2, so a closed walk is classified by its signed loop counts
per sheet plus one winding number lambda for the remaining x_g-edge.

Dropping lambda and sending loop(i, c) to zeta^c e_i gives the matrix of the
induced action on R^(g-1).  The same matrix also falls out of Fox calculus:
entry (i, j) is eps(d phi(x_j) / d x_i), where eps kills x_1..x_(g-1) and
sends x_g to zeta.  eps is a ring map, so a prefix and its free reduction
have the same image zeta^e, e the prefix's x_g-exponent: one walk of phi(x_j)
carrying e gives column j by the product rule d(uv) = du + u dv, with no
reduction, and shares no walk with the chain route.  Frozen convention
(checked empirically against the chain route on the Nielsen generators, then
pinned by the test suite): no transpose, and eta(phi o psi) =
eta(phi) * eta(psi) for (phi o psi)(x) = phi(psi(x)).
"""

from __future__ import annotations

import re
from array import array
from collections import namedtuple
from functools import cached_property
from itertools import chain, islice
from operator import add, neg

from .cyclotomic import _SPACE, ParseError, _int, _ints, _reduce_poly, euler_phi
from .predicates import Verdict
from .ringlinalg import RingMatrix

# A free word is a tuple of nonzero signed letters: +i for x_i, -i for x_i^-1.
FreeWord = tuple

# Letter budget of a parsed free word, of the rules of a parsed map together,
# and of an inverse-certificate walk.
MAX_LETTERS = 10**7


def word_mul(*words) -> FreeWord:
    out = []
    for w in words:
        for s in w:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
    return tuple(out)


def word_inv(w) -> FreeWord:
    return tuple(map(neg, reversed(w)))


def exponent_sum(w, i: int) -> int:
    return w.count(i) - w.count(-i)


def _rank(g: int) -> int:
    """The rank rule of the eta routes, lift_class, deck_conjugation and the Nielsen stock."""
    if _ints((g,), "ranks")[0] < 2:
        raise ValueError("rank must be >= 2")
    return g


def _same_rank(g: int, h: int) -> None:
    """The rule that an endomorphism meets only its own rank."""
    if g != h:
        raise ValueError("rank mismatch")


def _check_letters(g: int, *words) -> None:
    """The letter rule of Endo, Endo.apply and lift_class: each letter is an
    integer (cyclotomic._ints) in +-1..+-g, read in two streaming passes."""
    if not set(map(type, chain.from_iterable(words))) <= {int}:
        _ints(chain.from_iterable(words), "free-word letters")
    if bad := {s for s in set().union(*words) if not 0 < abs(s) <= g}:
        raise ValueError(f"letter {min(bad)} is not a generator of rank {g}")


def _code(g: int) -> str:
    """The array type code of a rank-g letter: 1, 2 or 8 bytes, the least that holds +-g."""
    return "b" if g < 2**7 else "h" if g < 2**15 else "q"


def _append_reduced(out: array, block: tuple) -> None:
    """Append the reduced word v of block = (v, undo) to the reduced word out, in place.

    undo is v's inverse, or a suffix of it at least len(out) letters
    long, and all three share one type code.  With out = u c and
    v = c^-1 v', c is the longest common suffix of out and undo.  If the
    last letters agree, the trailing zero bits of the XOR of the last n
    letters of each, read as big-endian integers and floored to whole
    letters, count c exactly, whatever the byte order and the letter width.
    Deleting c and extending by v' leaves u v', which is reduced.
    """
    v, undo = block
    if out and undo and out[-1] == undo[-1]:
        n = min(len(out), len(undo))
        x = (int.from_bytes(out[len(out) - n:], "big")
             ^ int.from_bytes(undo[len(undo) - n:], "big"))
        c = ((x & -x).bit_length() - 1) // (8 * out.itemsize) if x else n
        del out[len(out) - c:]
        v = v[c:]
    out += v


class Endo:
    """A free-group endomorphism by generator images, with an inverse
    certificate: composing images with inverse_images must reduce to the
    identity, which certifies an automorphism (free groups are Hopfian).
    The constructor checks every letter (_check_letters), then stores each
    word reduced, so eq and hash compare maps (immutable by convention).
    The certificate's outcome is cached per instance, outside eq, hash and
    repr, and compose and inverse carry a pass to their result unwalked.
    A walk (_walks) takes one block step per letter, and nothing else outlives it."""

    def __init__(self, images, inverse_images):
        images, inverse = (tuple(map(tuple, ws)) for ws in (images, inverse_images))
        if len(images) != len(inverse):
            raise ValueError("images and inverse_images must have equal length")
        _check_letters(len(images), *images, *inverse)
        # a word with no cancelling neighbours is reduced: one C-level scan
        self.images, self.inverse_images = (tuple(
            word_mul(w) if 0 in map(add, w, islice(w, 1, None)) else w for w in words)
            for words in (images, inverse))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.images, self.inverse_images) == (other.images, other.inverse_images)

    def __hash__(self):
        return hash((self.images, self.inverse_images))

    def __repr__(self):
        return f"Endo(images={self.images!r}, inverse_images={self.inverse_images!r})"

    @property
    def g(self):
        return len(self.images)

    @staticmethod
    def identity(g: int) -> "Endo":
        gens = tuple((i,) for i in range(1, _ints((g,), "ranks")[0] + 1))
        return Endo(gens, gens)

    def apply(self, w) -> FreeWord:
        """phi(w), reduced, by _walks: the reduced product of the images of its letters.
        Each letter must be an integer in +-1..+-g (_check_letters)."""
        w = tuple(w)
        _check_letters(self.g, w)
        return tuple(next(self._walks((w,))))

    def _walks(self, words):
        """Yield phi(w), an array, for each tuple w of checked letters in turn,
        in one block step per letter, as _append_reduced.  One dict, which
        ends with the walk, keeps the blocks (v, v^-1) of a letter +-i from
        the first meeting of x_i or x_i^-1."""
        code, blocks = _code(self.g), {}

        def letter(s):
            img = array(code, self.images[abs(s) - 1])
            inv = array(code, word_inv(img))
            blocks[abs(s)], blocks[-abs(s)] = (img, inv), (inv, img)
            return blocks[s]

        for w in words:
            out = array(code)
            for s in w:
                _append_reduced(out, blocks.get(s) or letter(s))
            yield out

    def compose(self, other: "Endo") -> "Endo":
        """self o other: apply other first, then self; a pass of both certificates carries."""
        _same_rank(self.g, other.g)
        images = tuple(map(tuple, self._walks(other.images)))
        inv = tuple(map(tuple, other.inverse()._walks(self.inverse_images)))
        return _checked(images, inv, self._passes() and other._passes())

    def inverse(self) -> "Endo":
        """psi, with a pass phi has cached: phi o psi = id gives psi o phi = id (Hopfian)."""
        return _checked(self.inverse_images, self.images,
                        vars(self).get("_certificate_failure") == 0)

    def _passes(self) -> bool:
        """Whether the certificate passes, as cached or walked within MAX_LETTERS."""
        known = "_certificate_failure" in vars(self) or self._certificate_walk() <= MAX_LETTERS
        return known and not self._certificate_failure

    def _certificate_walk(self) -> int:
        """The letters the certificate walks: an inverse-image letter +-i
        costs the length of the reduced phi(x_i), summed in one pass."""
        sizes = {s: len(w) for i, w in enumerate(self.images, start=1) for s in (i, -i)}
        return sum(map(sizes.__getitem__, chain.from_iterable(self.inverse_images)))

    @cached_property
    def _certificate_failure(self) -> int:
        """The first i with phi(psi(x_i)) != x_i, or 0: one walk per Endo."""
        walk = self._certificate_walk()
        if walk > MAX_LETTERS:
            raise ValueError(f"inverse certificate walks {walk} letters, "
                             f"over the budget of {MAX_LETTERS}")
        for i, w in enumerate(self._walks(self.inverse_images), start=1):
            if len(w) != 1 or w[0] != i:
                return i
        return 0


def _checked(images, inverse_images, certified=False) -> Endo:
    """An Endo of words that a checked Endo, its walks or parse_endo_images
    gave, checked and reduced already: not checked again.  certified caches
    the pass that compose and inverse carry, the one place that does."""
    phi = object.__new__(Endo)
    phi.images, phi.inverse_images = images, inverse_images
    if certified:
        phi._certificate_failure = 0
    return phi


def check_member(phi: Endo, d: int) -> Verdict:
    """Is phi in the group of automorphisms preserving ker(F_g -> Z/d) and
    inducing the identity on the quotient?"""
    euler_phi(d)  # the modulus rule, before any exponent is read mod d
    g = phi.g
    if i := phi._certificate_failure:
        return Verdict(False, f"inverse certificate fails: phi(psi(x{i})) does not reduce to x{i}")
    for i, w in enumerate(phi.images, start=1):
        e, want = exponent_sum(w, g), int(i == g)
        if e % d != want % d:
            return Verdict(False, f"x{g}-exponent of phi(x{i}) is {e}, not {want} mod {d}")
    return Verdict(True)


class CoverClass(namedtuple("CoverClass", "loops lam")):
    """Homology class in the covering graph: loops, (g-1) rows of length d of
    coefficients indexed by (generator i < g, sheet c in Z/d), and the winding number lam."""

    __slots__ = ()


def lift_class(w, d: int, g: int) -> CoverClass:
    """Path-lift a closed word from sheet 0 and read off its homology class (_lift),
    past the modulus, rank, letter (_check_letters) and closed-path rules."""
    euler_phi(d)
    w = tuple(w)
    _check_letters(_rank(g), w)
    if exponent_sum(w, g) % d != 0:
        raise ValueError(f"word does not lift to a closed path: x{g}-exponent not 0 mod {d}")
    return _lift(w, d, g)


def _lift(w, d: int, g: int) -> CoverClass:
    """lift_class of a closed word of checked letters."""
    loops = [[0] * d for _ in range(g - 1)]
    lam = sheet = 0
    for s in w:
        if abs(s) == g:
            # the x_g-edge from sheet d - 1 back to sheet 0 is off the tree
            wrap, sheet = divmod(sheet + (1 if s > 0 else -1), d)
            lam += wrap
        else:
            loops[abs(s) - 1][sheet] += 1 if s > 0 else -1
    return CoverClass(tuple(tuple(r) for r in loops), lam)


def _require_member(phi: Endo, d: int, g: int) -> None:
    """The shared guard of both eta routes, checked before either walks."""
    _same_rank(_rank(g), phi.g)
    check_member(phi, d).require("endomorphism is not in the covering-preserving group")


def eta_chain(phi: Endo, d: int, g: int) -> RingMatrix:
    """Column j is the class of the lift of phi(x_j), j < g, with lambda
    dropped and loop (i, c) sent to zeta^c e_i (well defined because the
    zeta^c sum to 0): each loop row, reduced mod Phi_d."""
    _require_member(phi, d, g)
    cols = [[_reduce_poly(d, row) for row in _lift(w, d, g).loops] for w in phi.images[:g - 1]]
    return RingMatrix._make(d, tuple(zip(*cols)))


def _fox_column(w, d: int, g: int) -> list:
    """eps(d w / d x_i), reduced, for i < g in one walk of w.  By the product rule,
    x_i^+-1 adds +-eps(prefix) to row i, which is +-zeta^e for e the
    prefix's x_g-exponent, as eps(x_i) = 1.  eps is a ring map, so no
    prefix is reduced or copied."""
    rows, e = [[0] * d for _ in range(g - 1)], 0
    for s in w:
        if abs(s) == g:
            e += 1 if s > 0 else -1
        else:
            rows[abs(s) - 1][e % d] += 1 if s > 0 else -1
    return [_reduce_poly(d, row) for row in rows]


def eta_fox(phi: Endo, d: int, g: int) -> RingMatrix:
    """Entry (i, j) is eps(d phi(x_j) / d x_i), column j from one walk of
    phi(x_j) by _fox_column; must agree with eta_chain."""
    _require_member(phi, d, g)
    return RingMatrix._make(d, tuple(zip(*[_fox_column(w, d, g) for w in phi.images[:g - 1]])))


def eta(phi: Endo, d: int, g: int) -> RingMatrix:
    """The representation matrix, computed by both routes; raises
    ArithmeticError if the chain-level and Fox-calculus matrices differ."""
    m = eta_chain(phi, d, g)
    if m != eta_fox(phi, d, g):
        raise ArithmeticError("chain-level and Fox-calculus routes disagree")
    return m


# ---------------------------------------------------------------------------
# Adapted Nielsen moves: automorphisms of F_g that preserve ker(F_g -> Z/d)
# and fix the quotient, used to generate random test elements.

def adapted_nielsen_moves(g: int, d: int):
    """A generating stock of kernel-preserving automorphisms (with inverses)."""
    _rank(g)
    moves = []

    def endo(images_map, inverse_map):
        return Endo(*[tuple(m.get(i, (i,)) for i in range(1, g + 1))
                      for m in (images_map, inverse_map)])

    for i in range(1, g):
        # inversion of a kernel generator
        moves.append(endo({i: (-i,)}, {i: (-i,)}))
        # conjugation by x_g
        moves.append(endo({i: (g, i, -g)}, {i: (-g, i, g)}))
        # multiplication by the relator-sized power x_g^d
        pos = tuple([g] * d + [i])
        neg = tuple([-g] * d + [i])
        moves.append(endo({i: pos}, {i: neg}))
        # x_g -> x_g x_i
        moves.append(endo({g: (g, i)}, {g: (g, -i)}))
    for i in range(1, g):
        for j in range(1, g):
            if i != j:
                moves.append(endo({i: (i, j)}, {i: (i, -j)}))
                moves.append(endo({i: (j, i)}, {i: (-j, i)}))
    return moves


def deck_conjugation(g: int) -> Endo:
    """Conjugation of every generator by x_g; maps to zeta Id under eta."""
    _rank(g)
    return Endo(tuple((g, i, -g) for i in range(1, g + 1)),
                tuple((-g, i, g) for i in range(1, g + 1)))


def random_member(rng, g: int, d: int, max_moves: int = 8) -> Endo:
    """A random composite of at most max_moves adapted Nielsen moves.

    A move is kept only while the composite's inverse certificate would walk
    at most MAX_LETTERS letters.  Every draw carries its pass, so none is
    walked: the check bounds the size of a draw, and draws nothing from rng."""
    moves = adapted_nielsen_moves(g, d)
    phi = Endo.identity(g)
    for _ in range(rng.randint(1, max_moves)):
        step = moves[rng.randrange(len(moves))]
        if rng.random() < 0.5:
            step = step.inverse()
        cand = phi.compose(step)
        if cand._certificate_walk() <= MAX_LETTERS:
            phi = cand
    return phi


# ---------------------------------------------------------------------------
# Text format for endomorphisms: "x1 -> x2 x1 x2^-1 ; x2 -> x2"

_RULE = re.compile(r"[^;]+")
_HEAD = re.compile(r"\s*(?:x(\d+)\s*(->)?)?")  # a rule's 'x<i> ->', or as much as is there
_LETTER = re.compile(r"x(\d+)(?:\s*\^\s*(-?\d+))?\s*")  # a run and the space after it


def _generator(digits: str, g: int, m) -> int:
    """The index i of x_i, digits of the match m, which must lie in 1..g."""
    idx = _int(digits)
    if not 1 <= idx <= g:
        raise ParseError(f"generator x{idx} out of range for rank {g}", m.string, m.start(1) - 1)
    return idx


def _free_word(text: str, g: int, pos: int, end: int) -> array:
    """Parse text[pos:end], as 'x2^-2 x1 x2', in place to a reduced word, an
    array, appending each run x_i^e as one block; the budget counts letters
    before reduction."""
    out, total = array(_code(g)), 0
    pos = _SPACE.match(text, pos, end).end()
    while pos < end:
        m = _LETTER.match(text, pos, end)
        if m is None:
            raise ParseError("bad free word", text, pos)
        idx, e = m.groups()
        idx = _generator(idx, g, m)
        e = _int(e) if e else 1
        n = abs(e)
        total += n
        if total > MAX_LETTERS:
            raise ValueError(f"free word expands past the budget of {MAX_LETTERS} letters")
        s = idx if e > 0 else -idx
        # at most len(out) letters can cancel, so that much of the inverse will do
        _append_reduced(out, (array(out.typecode, (s,)) * n,
                              array(out.typecode, (-s,)) * min(n, len(out))))
        pos = m.end()
    return out


def parse_free_word(text: str, g: int) -> FreeWord:
    """The reduced word of _free_word, as a tuple."""
    return tuple(_free_word(text, g, 0, len(text)))


def parse_endo_images(text: str, g: int):
    """Parse 'x1 -> w1 ; x2 -> w2 ; ...' in one pass; unmapped generators
    stay fixed and blank rules are skipped.  Each generator is mapped at
    most once, and the stored letters of all rules together must fit
    MAX_LETTERS; each rule stays an array until the whole map fits, so a
    refused map builds no tuple."""
    images, total = {}, 0
    for rule in _RULE.finditer(text):  # the text between two ';', in place
        m = _HEAD.match(text, *rule.span())
        if m[2]:
            idx = _generator(m[1], g, m)
            if idx in images:
                raise ParseError(f"generator x{idx} is mapped twice", text, m.start(1) - 1)
            images[idx] = _free_word(text, g, m.end(), rule.end())
            total += len(images[idx])
            if total > MAX_LETTERS:
                raise ValueError(f"the rules of a map store more than the budget of "
                                 f"{MAX_LETTERS} letters")
        elif m[1] or m.end() < rule.end():
            raise ParseError("expected '->'" if m[1] else "expected 'x<i> ->'", text, m.end())
    return tuple(tuple(images.get(i, (i,))) for i in range(1, g + 1))
