"""Constructive decomposition of image elements.

decompose_delta writes a unipotent block matrix with self-adjoint upper block
as a word in the twist-generator family {G1, G2, G3}; reduce_lambda peels a
general Lambda element down to that case along a supplied witness word for
its lower-right block.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import _same_modulus, euler_phi, solve_real_basis
from .generators import GenSpec
from .predicates import GroupTag, is_member
from .ringlinalg import BlockMat, RingMatrix, _side, _square
from .wordlang import Word, evaluate

# decompose_delta's G1/G2/G3 specs, each checked by GenSpec once: a spec
# depends on its name and indices alone, not on d or g; at most 4096 are kept.
_spec = lru_cache(maxsize=4096, typed=True)(GenSpec)


def decompose_delta(b: RingMatrix, d: int, g: int) -> Word:
    """A word over {G1, G2, G3} evaluating to [[Id, B], [0, Id]], for B = B*.

    Diagonal entries are real; solve_real_basis gives their unique
    coordinates on the basis {1} u {zeta^k + zeta^-k : 0 < k < phi(d)/2} of
    the real integers, and coordinate n0 is the exponent of G1(i), n_k that
    of G2(i, k).  Each off-diagonal entry contributes G3(i, j, d - m)
    with multiplicity equal to its coefficient of zeta^m, since G3(i, j, k)
    places zeta^-k at position (i, j).  Emission order is diagonal first,
    then (i, j) lexicographic, so output is reproducible; the factors commute,
    so order does not affect correctness.  Its specs come from a bounded
    cache, _spec, so two calls share them.
    """
    euler_phi(d)  # the modulus rule, before d is compared with b.d
    n = _side(g) // 2
    _square(b, n, g, "B")
    _same_modulus(d, b.d)
    if b != b.adjoint():
        raise ValueError("B is not self-adjoint")
    factors = []
    for i in range(1, n + 1):
        n0, nk = solve_real_basis(b[i - 1, i - 1])
        if n0:
            factors.append((_spec("G1", (i,)), n0))
        for k, coeff in enumerate(nk, start=1):
            if coeff:
                factors.append((_spec("G2", (i, k)), coeff))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for m, coeff in enumerate(b[i - 1, j - 1].coeffs):
                if coeff:
                    factors.append((_spec("G3", (i, j, (d - m) % d)), coeff))
    return Word(tuple(factors))


def reduce_lambda(m: BlockMat, word_d: Word) -> Word:
    """Extend a witness word for the lower-right block to a word for M.

    word_d must evaluate to a Lambda element with the same lower-right block
    D as M.  The residual F = D*B - D*E is self-adjoint, as D*B = B*D and
    D*E = E*D are Lambda clauses (decompose_delta refuses any other F), so
    word_d followed by the delta decomposition of F evaluates to M exactly.
    """
    d, g = m.d, m.g
    v = is_member(m, GroupTag.Lambda)
    if not v:
        raise ValueError(f"matrix is not in Lambda: {v.reason}")
    witness = evaluate(word_d, d, g)
    v = is_member(witness, GroupTag.Lambda)
    if not v:
        raise ValueError(f"witness word does not evaluate into Lambda: {v.reason}")
    dm = m.lower_right()
    if witness.lower_right() != dm:
        raise ValueError("witness word has a different lower-right block than M")
    f = dm.adjoint() * (m.upper_right() - witness.upper_right())
    return word_d * decompose_delta(f, d, g)
